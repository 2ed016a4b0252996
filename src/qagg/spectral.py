"""Shared-eigenbasis representation of Tikhonov regularizer families.

A grid of Tikhonov regularizers with a common penalty matrix is
simultaneously diagonalizable: every fit map has the form
``U diag(alpha) U^T`` for one orthonormal basis ``U`` and per-member
eigenvalue vectors ``alpha`` in [0, 1].  Building that representation
once (one SVD) makes every downstream quantity -- fits, degrees of
freedom, risks, selection criteria -- an O(n * M) vector computation
instead of M dense linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from qagg.aggregate import SimplexWeights

__all__ = [
    "DesignProblem",
    "SpectralFamily",
    "build_tikhonov_family",
    "apply_member",
    "apply_weights",
    "member_matrix",
    "recover_coefficients",
]

# Singular values below RANK_TOL * mu_max are treated as zero.  Dropped
# coordinates contribute nothing for lambda > 0; for lambda = 0 this is
# the minimum-norm (pseudoinverse) least-squares convention.
RANK_TOL = 1e-12


def _frozen_array(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DesignProblem:
    """Design matrix, positive-definite penalty and tuning grid.

    The penalty is symmetrized as (K + K^T)/2 on construction; grossly
    asymmetric or non-positive-definite penalties are rejected.  The
    grid is sorted ascending and must be nonempty, finite, nonnegative
    and free of duplicates.  ``penalty_eigh`` keeps the eigenpairs
    (w, Q) of the symmetrized penalty: the one eigendecomposition serves
    both the definiteness check and the whitening of the family build.
    """

    X: np.ndarray
    K: np.ndarray
    lambdas: np.ndarray
    penalty_eigh: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if X.ndim != 2:
            raise ValueError(f"design matrix must be 2-d, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix entries must be finite")
        p = X.shape[1]
        if K.shape != (p, p):
            raise ValueError(
                f"penalty matrix must be {p}x{p} to match the design, got {K.shape}"
            )
        if not np.all(np.isfinite(K)):
            raise ValueError("penalty matrix entries must be finite")
        asym = float(np.abs(K - K.T).max())
        if asym > 1e-8 * max(1.0, float(np.abs(K).max())):
            raise ValueError(f"penalty matrix is not symmetric (max |K - K^T| = {asym:.3e})")
        K = 0.5 * (K + K.T)
        w, Q = np.linalg.eigh(K)
        if w[0] <= 0.0:
            raise ValueError(
                f"penalty matrix is not positive definite (smallest eigenvalue {w[0]:.6e})"
            )
        lambdas = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        if lambdas.ndim != 1 or lambdas.size == 0:
            raise ValueError("lambda grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(lambdas)) or np.any(lambdas < 0):
            raise ValueError("lambda grid entries must be finite and >= 0")
        lambdas = np.sort(lambdas)
        if np.any(np.diff(lambdas) == 0):
            dup = float(lambdas[np.flatnonzero(np.diff(lambdas) == 0)[0]])
            raise ValueError(f"duplicate tuning parameter in grid: {dup!r}")
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "K", _frozen_array(K))
        object.__setattr__(self, "lambdas", _frozen_array(lambdas))
        w.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "penalty_eigh", (w, Q))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def member_count(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True)
class SpectralFamily:
    """A family of commuting smoothers in shared-eigenbasis form.

    ``basis`` holds the r retained eigenvectors (n x r, orthonormal
    columns), ``alphas[j, i]`` the eigenvalue of member j on basis
    vector i, and ``sing_vals`` the singular values of X K^{-1/2} on
    the retained coordinates.  ``right_factor`` (r x p) maps spectral
    coordinates back to coefficient space and is None for synthetic
    families that were not built from a design problem.
    """

    basis: np.ndarray
    sing_vals: np.ndarray
    alphas: np.ndarray
    right_factor: np.ndarray | None = None
    family_id: str = "family-0"
    lambdas: np.ndarray | None = None

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        alphas = np.atleast_2d(np.asarray(self.alphas, dtype=float))
        sing_vals = np.atleast_1d(np.asarray(self.sing_vals, dtype=float))
        r = basis.shape[1]
        if alphas.shape[1] != r or sing_vals.shape != (r,):
            raise ValueError(
                f"inconsistent spectral shapes: basis {basis.shape}, "
                f"alphas {alphas.shape}, sing_vals {sing_vals.shape}"
            )
        if alphas.size and (alphas.min() < -1e-10 or alphas.max() > 1.0 + 1e-10):
            raise ValueError(
                "member eigenvalues must lie in [0, 1], got range "
                f"[{alphas.min():.3e}, {alphas.max():.3e}]"
            )
        alphas = np.clip(alphas, 0.0, 1.0)
        if r:
            gram_err = float(np.abs(basis.T @ basis - np.eye(r)).max())
            if gram_err > 1e-8:
                raise ValueError(
                    f"basis columns are not orthonormal (max deviation {gram_err:.3e})"
                )
        object.__setattr__(self, "basis", _frozen_array(basis))
        object.__setattr__(self, "sing_vals", _frozen_array(sing_vals))
        object.__setattr__(self, "alphas", _frozen_array(alphas))
        if self.right_factor is not None:
            object.__setattr__(self, "right_factor", _frozen_array(self.right_factor))
        if self.lambdas is not None:
            object.__setattr__(self, "lambdas", _frozen_array(self.lambdas))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def member_count(self) -> int:
        return self.alphas.shape[0]

    def spectral_coords(self, y: np.ndarray) -> np.ndarray:
        """Coordinates of y in the shared basis, U^T y; y may hold one response per column."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != self.n:
            raise ValueError(f"expected response of length {self.n}, got {y.shape}")
        return self.basis.T @ y


def build_tikhonov_family(
    problem: DesignProblem, family_id: str = "tikhonov"
) -> SpectralFamily:
    """Diagonalize the whole tuning grid of a design problem at once.

    With B = X K^{-1/2} = U diag(mu) V^T (one thin SVD, with K^{-1/2}
    taken from the problem's ``penalty_eigh``), member j acts as
    U diag(mu_i^2 / (mu_i^2 + lambda_j)) U^T, which agrees with the
    dense fit map X (X^T X + lambda_j K)^{-1} X^T.  Coordinates with
    mu_i <= RANK_TOL * mu_max are dropped.
    """
    w, Q = problem.penalty_eigh
    k_inv_sqrt = (Q / np.sqrt(w)) @ Q.T
    U, s, Vt = np.linalg.svd(problem.X @ k_inv_sqrt, full_matrices=False)
    if s.size:
        keep = s > RANK_TOL * s[0]
        U, s, Vt = U[:, keep], s[keep], Vt[keep]
    mu2 = s**2
    # Retained coordinates have mu > 0, so lambda = 0 gives alpha = 1 exactly.
    alphas = mu2[None, :] / (mu2[None, :] + problem.lambdas[:, None])
    return SpectralFamily(
        basis=U,
        sing_vals=s,
        alphas=alphas,
        right_factor=Vt @ k_inv_sqrt,
        family_id=family_id,
        lambdas=problem.lambdas,
    )


def _check_index(family: SpectralFamily, j: int) -> int:
    j = int(j)
    if not 0 <= j < family.member_count:
        raise IndexError(
            f"member index {j} out of range for family of size {family.member_count}"
        )
    return j


def apply_member(family: SpectralFamily, j: int, y: np.ndarray) -> np.ndarray:
    """Fit of member j on response y: U diag(alpha_j) U^T y."""
    j = _check_index(family, j)
    z = family.spectral_coords(y)
    return family.basis @ (family.alphas[j] * z)


def apply_weights(family: SpectralFamily, theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Aggregated fit sum_j theta_j A_j y for one shared-basis family."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (family.member_count,):
        raise ValueError(
            f"expected {family.member_count} weights, got shape {theta.shape}"
        )
    z = family.spectral_coords(y)
    return family.basis @ ((family.alphas.T @ theta) * z)


def member_matrix(family: SpectralFamily, j: int) -> np.ndarray:
    """Dense n x n fit map of member j (for validation and small tests)."""
    j = _check_index(family, j)
    return (family.basis * family.alphas[j]) @ family.basis.T


def recover_coefficients(family: SpectralFamily, weights: "SimplexWeights") -> np.ndarray:
    """Aggregated coefficient vector sum_j theta_j w_hat(K, lambda_j).

    Member j's coefficient curve on coordinate i, mu_i / (mu_i^2 + lambda_j),
    equals alpha_ji / mu_i, so only the member eigenvalues are needed.
    Requires a family built from a design problem (right_factor present)
    and weights that remember the response they were fitted to.
    """
    if family.right_factor is None:
        raise ValueError(
            "family has no coefficient-space factor; it was not built "
            "from a design problem"
        )
    theta = np.asarray(weights.theta, dtype=float)
    if theta.shape != (family.member_count,):
        raise ValueError(
            f"expected {family.member_count} weights, got shape {theta.shape}"
        )
    if weights.response is None:
        raise ValueError("weights carry no response vector; cannot recover coefficients")
    z = family.spectral_coords(weights.response)
    return family.right_factor.T @ ((family.alphas.T @ theta) * z / family.sing_vals)
