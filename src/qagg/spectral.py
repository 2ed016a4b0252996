"""Shared-eigenbasis representation of Tikhonov regularizer families.

A grid of Tikhonov regularizers with a common penalty matrix is
simultaneously diagonalizable: every fit map has the form
``U diag(alpha) U^T`` for one orthonormal basis ``U`` and per-member
eigenvalue vectors ``alpha`` in [0, 1].  Building that representation
once (one certified factorization) makes every downstream quantity --
fits, degrees of freedom, risks, selection criteria -- an O(n * M)
vector computation instead of M dense linear solves.
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
    "recover_coefficients",
]

# Singular values below RANK_TOL * mu_max are treated as zero.  Dropped
# coordinates contribute nothing for lambda > 0; for lambda = 0 this is
# the minimum-norm (pseudoinverse) least-squares convention.
RANK_TOL = 1e-12

GRAM_TOL = 1e-10  # the Gram route's screen on mu_min^2 / mu_max^2 and bound on its defect


def _check_response(y, n: int) -> np.ndarray:
    """The one rule for a response on n points: finite, one (n,) vector or an (n, B) block."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("the response y must be finite")
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise ValueError(f"expected response of length {n}, got {y.shape}")
    return y


def _check_theta(theta, count: int) -> np.ndarray:
    """The one rule for a weight vector over count members: shape (count,), finite."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (count,):
        raise ValueError(f"expected weight vector of length {count}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("weights must be finite")
    return theta


def _check_lambdas(lambdas) -> np.ndarray:
    """The one tuning-grid rule: nonempty, 1-d, finite, >= 0, no duplicates; sorted, frozen."""
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("lambda grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lambdas)) or np.any(lambdas < 0):
        raise ValueError("lambda grid entries must be finite and >= 0")
    lambdas = np.sort(lambdas)
    if np.any(np.diff(lambdas) == 0):
        dup = float(lambdas[np.flatnonzero(np.diff(lambdas) == 0)[0]])
        raise ValueError(f"duplicate tuning parameter in grid: {dup!r}")
    lambdas.setflags(write=False)
    return lambdas


def _frozen_array(a) -> np.ndarray:
    """a as a read-only C-contiguous float array: a itself when no array in its base chain
    can be written (so nothing can change it), otherwise a read-only copy."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None and a.dtype == float and a.flags.c_contiguous:
        return a
    arr = np.array(a, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """Design matrix, positive-definite penalty and tuning grid.

    The design needs a row and a column.  A slightly asymmetric penalty is
    symmetrized as (K + K^T)/2 on construction, an exactly symmetric one left
    as it is; grossly asymmetric or non-positive-definite penalties are
    rejected.  The grid is sorted ascending and must be
    nonempty, finite, nonnegative and free of duplicates.  ``penalty_factor``
    is the Cholesky factor L (K = L L^T), which both checks definiteness and
    whitens the build.
    """

    X: np.ndarray
    K: np.ndarray
    lambdas: np.ndarray
    penalty_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if X.ndim != 2:
            raise ValueError(f"design matrix must be 2-d, got shape {X.shape}")
        if X.size == 0:
            raise ValueError(f"design matrix must have a row and a column, got shape {X.shape}")
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
        if asym > 0.0:  # an exactly symmetric K is its own (K + K^T)/2
            K = 0.5 * (K + K.T)
            K.setflags(write=False)  # made here: frozen in place, not copied
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(K)[0])
            if smallest > 0.0:  # positive definite, yet Cholesky broke down: report that
                raise
            raise ValueError(
                f"penalty matrix is not positive definite (smallest eigenvalue {smallest:.6e})"
            ) from None
        lambdas = _check_lambdas(self.lambdas)
        L.setflags(write=False)  # made here: frozen in place, not copied
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "K", _frozen_array(K))
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "penalty_factor", _frozen_array(L))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class SpectralFamily:
    """A family of commuting smoothers in shared-eigenbasis form.

    ``basis`` holds the r retained eigenvectors (n x r, orthonormal
    columns) and ``alphas[j, i]`` the eigenvalue of member j on basis
    vector i; a family has at least one member.  ``orthogonality_defect``,
    max |U^T U - I|, is measured on construction.  Only a family built from a
    design problem (``_family``) carries the rest, attached without a copy:
    the singular values ``sing_vals`` of X L^{-T} on the retained coordinates,
    the r x p ``right_factor`` mapping spectral coordinates back to
    coefficient space, the tuning grid ``lambdas`` and the ``factorization``
    route ("gram" or "svd"); it takes the defect from there too.  For any
    other family they are None.
    """

    basis: np.ndarray
    alphas: np.ndarray
    sing_vals: np.ndarray | None = field(init=False, default=None)
    right_factor: np.ndarray | None = field(init=False, default=None)
    lambdas: np.ndarray | None = field(init=False, default=None)
    factorization: str | None = field(init=False, default=None)
    orthogonality_defect: float = field(init=False)

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        alphas = np.atleast_2d(np.asarray(self.alphas, dtype=float))
        if alphas.shape[1] != basis.shape[1]:
            raise ValueError(
                f"inconsistent spectral shapes: basis {basis.shape}, alphas {alphas.shape}"
            )
        if alphas.shape[0] == 0:
            raise ValueError(f"a family needs at least one member, got 0 (alphas {alphas.shape})")
        if not np.all(np.isfinite(alphas)):
            raise ValueError("member eigenvalues must be finite")
        if alphas.size and (alphas.min() < -1e-10 or alphas.max() > 1.0 + 1e-10):
            raise ValueError(
                "member eigenvalues must lie in [0, 1], got range "
                f"[{alphas.min():.3e}, {alphas.max():.3e}]"
            )
        alphas = np.clip(alphas, 0.0, 1.0)
        alphas.setflags(write=False)
        defect = vars(self).get("orthogonality_defect")  # set before __init__ only by _family
        if defect is None:
            defect = _orthogonality_defect(basis)
            object.__setattr__(self, "orthogonality_defect", defect)
        if not defect <= 1e-8:
            raise ValueError(f"basis columns are not orthonormal (max deviation {defect:.3e})")
        object.__setattr__(self, "basis", _frozen_array(basis))
        object.__setattr__(self, "alphas", _frozen_array(alphas))

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
        return self.basis.T @ _check_response(y, self.n)


def _orthogonality_defect(U: np.ndarray) -> float:
    """max |U^T U - I|, formed in one r x r array."""
    G = U.T @ U
    G.flat[:: G.shape[0] + 1] -= 1.0
    return float(np.abs(G, out=G).max(initial=0.0))


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L by halves; numpy has no triangular inverse.

    A diagonal L (p nonzero entries, as for every diagonal penalty) is inverted
    entrywise, as np.linalg.inv inverts it.
    """
    if np.count_nonzero(L) == L.shape[0]:
        return np.diag(1.0 / np.diag(L))
    k = L.shape[0] // 2
    if k < 32:
        return np.linalg.inv(L)
    A, D = _tril_inv(L[:k, :k]), _tril_inv(L[k:, k:])
    return np.block([[A, np.zeros((k, L.shape[0] - k))], [-D @ (L[k:, :k] @ A), D]])


def build_tikhonov_family(problem: DesignProblem) -> SpectralFamily:
    """Diagonalize the whole tuning grid of a design problem at once.

    With K = L L^T and B = X L^{-T} = U diag(mu) V^T, member j acts as
    U diag(mu_i^2 / (mu_i^2 + lambda_j)) U^T, the dense fit map
    X (X^T X + lambda_j K)^{-1} X^T.  The Gram route takes mu and V from
    eigh(H), H = L^{-1} (X^T X) L^{-T}, forms the right factor R = V^T L^{-1}
    and frees V and L^{-1}; then U = X R^T / mu is the only n x p array it
    makes.  GRAM_TOL certifies that route: with E the rounding of the computed
    H against B^T B, U^T U - I = -D^{-1} V^T E V D^{-1} bounds the fit maps'
    relative error.  Otherwise mu, U and V come from the thin SVD of B, the
    only route that forms B (rebuilding L^{-1} where the Gram route freed it),
    dropping coordinates with mu_i <= RANK_TOL * mu_max; R = V^T L^{-1} again.
    Each u_i's largest entry is positive.
    """
    X = problem.X
    L_inv = _tril_inv(problem.penalty_factor)
    defect = np.inf
    if problem.n >= problem.p:  # otherwise H is singular
        with np.errstate(over="ignore", invalid="ignore"):
            H = L_inv @ (X.T @ X) @ L_inv.T
        # where X^T X or H overflows, the SVD route finds mu (_family rejects an overflowing mu^2)
        if np.isfinite(H).all():
            mu2, V = np.linalg.eigh(H)
            del H  # freed before U is formed
            if mu2[0] > GRAM_TOL * mu2[-1]:
                s, R = np.sqrt(mu2[::-1]), V[:, ::-1].T @ L_inv
                V = L_inv = None  # freed before U is formed
                U = X @ R.T
                U /= s
                defect = _orthogonality_defect(U)
    gram = defect <= GRAM_TOL
    if not gram:
        U = R = None  # freed before B is formed
        if L_inv is None:
            L_inv = _tril_inv(problem.penalty_factor)
        U, s, Vt = np.linalg.svd(X @ L_inv.T, full_matrices=False)
        keep = s > RANK_TOL * s.max(initial=0.0)
        U, s, R = U[:, keep], s[keep], Vt[keep] @ L_inv
        defect = _orthogonality_defect(U)
    signs = np.where(U.max(axis=0, initial=0.0) >= -U.min(axis=0, initial=0.0), 1.0, -1.0)
    U *= signs  # flipping columns leaves max |U^T U - I| as it is
    R *= signs[:, None]
    return _family(U, s, R, "gram" if gram else "svd", defect, problem.lambdas)


def _regrid(family: SpectralFamily, lambdas) -> SpectralFamily:
    """The family of another grid, checked as DesignProblem checks it, on family's (X, K)."""
    return _family(family.basis, family.sing_vals, family.right_factor, family.factorization,
                   family.orthogonality_defect, _check_lambdas(lambdas))


def _family(U, mu, right, kind: str, defect: float, lambdas: np.ndarray) -> SpectralFamily:
    """The family of one grid on a factorization; U's defect is given, not re-measured.

    U, mu, right and lambdas are frozen in place: the family keeps them without a copy.
    """
    for a in (U, mu, right, lambdas):
        a.setflags(write=False)
    # Retained coordinates have mu > 0, so lambda = 0 gives alpha = 1 exactly; an
    # overflowing mu^2 gives alpha = nan, which SpectralFamily rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        mu2 = mu**2
        alphas = mu2[None, :] / (mu2[None, :] + lambdas[:, None])
    family = object.__new__(SpectralFamily)
    object.__setattr__(family, "orthogonality_defect", defect)
    family.__init__(U, alphas)
    vars(family).update(sing_vals=mu, right_factor=right, lambdas=lambdas, factorization=kind)
    return family


def apply_member(family: SpectralFamily, j: int, y: np.ndarray) -> np.ndarray:
    """Fit of member j on response y: U diag(alpha_j) U^T y."""
    j = int(j)
    if not 0 <= j < family.member_count:
        raise IndexError(f"member index {j} out of range for family of size {family.member_count}")
    return family.basis @ (family.alphas[j] * family.spectral_coords(y))


def apply_weights(family: SpectralFamily, theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Aggregated fit sum_j theta_j A_j y for one shared-basis family."""
    theta = _check_theta(theta, family.member_count)
    return family.basis @ ((family.alphas.T @ theta) * family.spectral_coords(y))


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
    theta = _check_theta(weights.theta, family.member_count)
    if weights.response is None:
        raise ValueError("weights carry no response vector; cannot recover coefficients")
    z = family.spectral_coords(weights.response)
    return family.right_factor.T @ ((family.alphas.T @ theta) * z / family.sing_vals)
