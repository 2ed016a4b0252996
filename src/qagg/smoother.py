"""The candidate set of ordered smoothers, its per-response pass, exact risks and axiom checks.

Risks here are exact expectations under the Gaussian mean model
y = mu + eps, eps ~ N(0, sigma^2 I):

    E ||A y - mu||^2 = sigma^2 ||A||_F^2 + ||(A - I) mu||^2

evaluated spectrally for families in shared-eigenbasis form.  The same
module validates the defining axioms of an ordered family on arbitrary
dense matrices: spectra in [0, 1], pairwise commutation, and pairwise
comparability in the positive-semidefinite order.

Every member of a family is diagonal in its eigenbasis U_f, and every
U_f = Q W_f lies in the span of the candidate set's one coordinate basis Q
(FamilyUnion.coords, n x d; d = rank X for families on one design X).  So
every per-response quantity (fits, c_j = ||A_j y - y||^2, the criteria, the
QP data) depends on y only through t = Q^T y, z_f = W_f^T t = U_f^T y and
||y||^2.  One pass (_response) computes them, and every public function that
takes a response also takes its pass.  A pass is a block of responses, the
columns of an n x B matrix, and one response is a block of one column:
per-member arrays carry a leading block axis, each criterion is written once
along the trailing member axis, and one-response functions read row 0.  These
(B, M) arrays are C-contiguous, so every reduction over members reads
contiguous memory: each family's part is a (B, r_f) @ (r_f, M_f) product, and
np.hstack joins the parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from qagg.spectral import (
    GRAM_TOL, RANK_TOL, SpectralFamily, _check_response, _frozen_array, _orthogonality_defect,
)

__all__ = [
    "GroundTruth",
    "FamilyUnion",
    "OrderedCheckReport",
    "check_ordered",
    "member_risks",
    "oracle_index",
]


def _check_sigma(sigma, n: int) -> None:
    """The one rule for a noise level on n points: sigma > 0 with 0 < sigma^2 * 4n < inf.

    So 4 sigma^2 is finite and nonzero, and every 2 sigma^2 trace(A) <= 2 sigma^2 n is finite.
    """
    if not (sigma > 0 and 0 < sigma * sigma * 4.0 * max(n, 1) < np.inf):
        raise ValueError(f"sigma must be > 0 with 0 < sigma^2 * 4n < inf (n = {n}), got {sigma!r}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Unknown mean and noise level of the Gaussian mean model."""

    mu: np.ndarray
    sigma: float

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mean mu must be finite")
        _check_sigma(self.sigma, mu.size)
        object.__setattr__(self, "mu", _frozen_array(mu))
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def n(self) -> int:
        return self.mu.size


def _union_coords(families):
    """Q and every W_f = Q^T U_f of a union's families (see FamilyUnion)."""
    Q = families[0].basis  # frozen by its family; not copied
    rotations = [np.eye(Q.shape[1])]
    for f in families[1:]:
        W = Q.T @ f.basis
        if not (_orthogonality_defect(W) <= GRAM_TOL
                and np.abs(Q @ W - f.basis).max(initial=0.0) <= GRAM_TOL):
            U, s, _ = np.linalg.svd(np.hstack([g.basis for g in families]), full_matrices=False)
            Q = U[:, s > RANK_TOL * s.max(initial=0.0)]
            rotations = [Q.T @ g.basis for g in families]
            break
        rotations.append(W)
    for a in (Q, *rotations):
        a.setflags(write=False)
    return Q, tuple(rotations)


@dataclass(frozen=True, eq=False)
class FamilyUnion:
    """Candidate set: one or more ordered families on one response space.

    Members are indexed globally by concatenating the families in order, and
    a single family is the union of one.  ``df`` holds trace(A_j) of every
    member and ``offsets`` the global index of each family's first member
    followed by the total.  ``coords`` is one orthonormal basis Q (n x d) of
    the span of every family's basis U_f, and ``rotations`` holds
    W_f = Q^T U_f, so that U_f = Q W_f: Q = U_0 with W_0 = I exactly when
    every other W_f passes max |W_f^T W_f - I| <= GRAM_TOL and
    max |Q W_f - U_f| <= GRAM_TOL (families on one design), otherwise the
    left singular vectors of [U_0 ... U_{q-1}] with singular value above
    RANK_TOL times the largest.
    """

    families: tuple[SpectralFamily, ...]
    df: np.ndarray = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)
    coords: np.ndarray = field(init=False, repr=False)
    rotations: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        families = tuple(self.families)
        if not families:
            raise ValueError("a family union needs at least one family")
        n = families[0].n
        if any(f.n != n for f in families):
            raise ValueError("all families in a union must share the response dimension")
        object.__setattr__(self, "families", families)
        df = np.concatenate([f.alphas.sum(axis=1) for f in families])
        object.__setattr__(self, "df", _frozen_array(df))
        offsets = tuple(accumulate((f.member_count for f in families), initial=0))
        object.__setattr__(self, "offsets", offsets)
        coords, rotations = _union_coords(families)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "rotations", rotations)

    @classmethod
    def of(cls, candidates) -> "FamilyUnion":
        """The candidate set of a SpectralFamily or of a FamilyUnion (returned as is)."""
        if isinstance(candidates, SpectralFamily):
            return cls(families=(candidates,))
        if not isinstance(candidates, cls):
            raise TypeError(
                f"expected SpectralFamily or FamilyUnion, got {type(candidates).__name__}"
            )
        return candidates

    @property
    def q(self) -> int:
        return len(self.families)

    @property
    def n(self) -> int:
        return self.families[0].n

    @property
    def member_count(self) -> int:
        return self.offsets[-1]

    @property
    def lambdas(self) -> np.ndarray | None:
        """Tuning parameter of every member, globally indexed; None if a family has none."""
        if any(f.lambdas is None for f in self.families):
            return None
        return np.concatenate([f.lambdas for f in self.families])


@dataclass(frozen=True, eq=False)
class _Response:
    """The quantities of a response y that every method reads, computed once.

    y is a block of responses, one per column (n, B); one response is a block
    of one column.  Per-member arrays put the member axis last and are C-contiguous:
    resid_sq (B, M) is (z_f^2)^T ((alpha_f - 1)^2)^T per family, and qp_grad likewise.
    The QP 1/2 ||phi^T theta - target||^2 + lin . theta + offset lives in the
    candidates' coordinates Q (``coords``, n x d): target = Q^T y,
    offset = ||P_Q_perp y||^2 / 2 and phi_j = W_f (alpha_j * z_f) for member
    j of family f, with z_f = W_f^T target = U_f^T y and W_f = Q^T U_f
    (``rotations``).  The active-set solve fetches the rows phi_j it pivots
    on through qp_member_rows.
    """

    candidates: FamilyUnion
    y: np.ndarray  # (n, B)
    z: tuple[np.ndarray, ...]  # U_f^T y per family, (r_f, B)
    perp: tuple[np.ndarray, ...]  # ||P_f_perp y||^2 per family, (B,)
    resid_sq: np.ndarray  # c_j = ||A_j y - y||^2, globally indexed
    target: np.ndarray  # Q^T y, (d, B)
    offset: np.ndarray  # ||P_Q_perp y||^2 / 2, (B,)

    def _parts(self):
        """(family, W_f, z_f, first member, end) per family."""
        cands = self.candidates
        return zip(cands.families, cands.rotations, self.z, cands.offsets, cands.offsets[1:])

    def qp_fit(self, theta: np.ndarray) -> np.ndarray:
        """phi^T theta[b] in the QP's coordinates for theta (B, M), one column per b."""
        fit = None
        for fam, W, z, lo, hi in self._parts():
            part = W @ ((fam.alphas.T @ theta[:, lo:hi].T) * z)
            fit = part if fit is None else fit + part
        return fit

    def qp_grad(self, resid: np.ndarray, cols=slice(None)) -> np.ndarray:
        """(phi resid)^T in the QP's coordinates, (B', M), for residuals (d, B') of columns cols."""
        return np.hstack(
            [(z[:, cols] * (W.T @ resid)).T @ fam.alphas.T for fam, W, z, *_ in self._parts()]
        )

    def _member_groups(self, cols: np.ndarray, members: np.ndarray):
        """(k, positions i, rows alpha_j * z_k[:, cols[i]]) per family k holding some members[i]."""
        cands = self.candidates
        fam_of = np.searchsorted(cands.offsets, members, side="right") - 1
        # the families present; np.unique would import numpy.ma (10 ms, 0.5 MiB) on first use
        for k in np.flatnonzero(np.bincount(fam_of, minlength=cands.q)):
            sel = np.flatnonzero(fam_of == k)
            alphas = cands.families[k].alphas[members[sel] - cands.offsets[k]]
            yield k, sel, alphas * self.z[k][:, cols[sel]].T

    def qp_member_rows(self, cols: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Row phi_j of block column b for each (b, j) in zip(cols, members), as (len, d)."""
        rows = np.empty((members.size, self.candidates.coords.shape[1]))
        for k, sel, spectral in self._member_groups(cols, members):
            rows[sel] = spectral @ self.candidates.rotations[k].T
        return rows

    def member_losses(self, members: np.ndarray, mean: "_Response") -> np.ndarray:
        """||A_j y_b - mu||^2 of member j = members[b] on every column b of the pass.

        Evaluated in spectral coordinates as ||alpha_j * z_f - m_f||^2 + ||P_f_perp mu||^2,
        with m_f = U_f^T mu and ||P_f_perp mu||^2 read from ``mean``, the pass of mu.
        """
        out = np.empty(members.size)
        for k, cols, d in self._member_groups(np.arange(members.size), members):
            d -= mean.z[k].T
            out[cols] = np.einsum("ij,ij->i", d, d) + mean.perp[k]
        return out

    def weight_losses(self, theta: np.ndarray, mean: "_Response") -> np.ndarray:
        """||A_theta y_b - mu||^2 per column b: ||phi^T theta[b] - m||^2 + 2 offset of mu's pass."""
        return _sq_norms(self.qp_fit(theta) - mean.target) + 2.0 * mean.offset


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared norm of every column of a matrix."""
    return np.einsum("ib,ib->b", v, v)


def _response(family_or_union, y, *, block: bool = False) -> _Response:
    """The pass of y; a pass given as y must belong to these candidates.

    Only with ``block`` may y be an (n, B) block of responses; one response
    (n,) is passed as a block of one column.
    """
    cands = FamilyUnion.of(family_or_union)
    if isinstance(y, _Response):
        theirs = y.candidates.families
        if len(theirs) != cands.q or any(a is not b for a, b in zip(theirs, cands.families)):
            raise ValueError("the per-response pass was computed for different candidates")
        resp, wide = y, y.y.shape[1] != 1
    else:
        y = _check_response(y, cands.n)
        wide = y.ndim == 2
        Y = y if wide else y[:, None]  # one response is a block of one column
        yy = _sq_norms(Y)
        target = cands.coords.T @ Y
        offset = 0.5 * np.maximum(yy - _sq_norms(target), 0.0)
        z = tuple(W.T @ target for W in cands.rotations)
        perp = tuple(np.maximum(yy - _sq_norms(zf), 0.0) for zf in z)
        resid_sq = np.hstack([(zf**2).T @ ((f.alphas - 1.0) ** 2).T + pf[:, None]
                              for f, zf, pf in zip(cands.families, z, perp)])
        resp = _Response(cands, Y, z, perp, resid_sq, target, offset)
    if wide and not block:
        raise ValueError(f"expected one response of length {cands.n}, got shape {resp.y.shape}")
    return resp


@dataclass(frozen=True)
class OrderedCheckReport:
    """Per-axiom outcome of an ordered-family check on dense matrices.

    ``method`` names the path that decided: ``"shared-basis"`` when one
    shared eigenbasis certified every axiom, ``"pairwise"`` when the
    pairwise check ran.  ``off_diagonal`` is the largest Frobenius mass a
    symmetrized member keeps off the diagonal in the shared eigenbasis,
    or None when no basis was computed.
    """

    shrinkage_ok: bool  # axiom (i): symmetric with spectrum in [0, 1]
    commute_ok: bool  # axiom (ii): pairwise commutation
    comparable_ok: bool  # axiom (iii): pairwise PSD comparability
    tol: float
    failures: tuple[str, ...] = ()
    method: str = "pairwise"
    off_diagonal: float | None = None

    @property
    def passed(self) -> bool:
        return self.shrinkage_ok and self.commute_ok and self.comparable_ok


def check_ordered(matrices, tol: float = 1e-8) -> OrderedCheckReport:
    """Check the three ordered-family axioms on a list of square matrices.

    (i) each matrix is symmetric with eigenvalues in [-tol, 1 + tol],
    (ii) every pair commutes up to tol in Frobenius norm,
    (iii) for every pair, one of the two differences is PSD up to -tol.

    tol is absolute; its default 1e-8 is the default of ``qagg validate
    --tol``.

    The members of an ordered family commute, so one basis diagonalizes
    them all.  The check first tries to prove the three axioms in the
    eigenbasis of one positive combination of the members, at the cost
    of one eigh plus one matrix product per member.  Only when that
    proof fails does the pairwise check run (an eigvalsh and a commutator
    per pair); it alone reports failures.  A matrix holding nan or inf is
    refused by the proof and then rejected with a ValueError.
    """
    mats = _square_stack(matrices)
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    certified, off_diagonal = _shared_basis_certificate(mats, tol)
    if certified:
        return OrderedCheckReport(
            shrinkage_ok=True,
            commute_ok=True,
            comparable_ok=True,
            tol=float(tol),
            method="shared-basis",
            off_diagonal=off_diagonal,
        )
    for idx, A in enumerate(mats):  # refused by the proof; the pairwise check would pass a nan
        if not np.all(np.isfinite(A)):
            raise ValueError(f"matrix {idx} must be finite, got a nan or inf entry")
    return replace(_check_ordered_pairwise(mats, tol), off_diagonal=off_diagonal)


def _square_stack(matrices) -> list[np.ndarray]:
    mats = [np.atleast_2d(np.asarray(A, dtype=float)) for A in matrices]
    if not mats:
        raise ValueError("need at least one matrix to check")
    n = mats[0].shape[0]
    for A in mats:
        if A.shape != (n, n):
            raise ValueError(
                f"all matrices must be square of equal size, got {A.shape} vs ({n}, {n})"
            )
    if n == 0:
        raise ValueError("matrices must have at least one row and column, got 0 x 0")
    return mats


# Seed of the weights of the combination whose eigenvectors form the
# shared basis, fixed so that every check of the same input is the same.
_COMBINATION_SEED = 0


def _shared_basis_certificate(mats, tol):
    """Prove the three axioms through one shared eigenbasis, or give up.

    Returns (whether the proof holds, largest off-diagonal mass).  With
    S_j and N_j the symmetric and antisymmetric parts of A_j and Q the
    eigenvectors of sum_j c_j S_j, one product P_j = S_j Q gives d_j =
    diag(Q^T S_j Q), the column sums of Q o P_j, and the off-diagonal mass
    eps_j = ||P_j - Q diag(d_j)||_F.  With Q = W H its polar decomposition
    and eta >= ||Q^T Q - I||_2, S_j W - W D_j = (S_j Q - Q D_j) H^{-1}
    + Q [D_j, H^{-1} - I], where ||H^{-1}||_2 <= 1 / (1 - eta), ||H^{-1} - I||_2
    <= eta / ((2 - eta)(1 - eta)) and ||Q||_2^2, ||D_j||_F / ||S_j||_F <= 1 + eta.
    So rho_j = eps_j / (1 - eta) + delta_j bounds ||W^T S_j W - diag(d_j)||_F:
    delta_j = 4 (eta + sqrt(n) gamma) ||S_j||_F is at least 1.8 times the
    basis term (<= 2.2 eta ||S_j||_F) plus the product's rounding (<= 1.5
    sqrt(n) gamma ||S_j||_F) while eta < 0.25, covering the certificate's
    own rounding.  So:

    (i)   (Weyl) every eigenvalue of S_j lies in
          [min d_j - rho_j, max d_j + rho_j];
    (ii)  ||[A_j, A_k]||_F <= spread_j rho_k + spread_k rho_j
          + 2 rho_j rho_k + 2 (s_j nu_k + s_k nu_j + nu_j nu_k), where
          spread_j = max d_j - min d_j, s_j = max |d_j| + rho_j bounds
          ||S_j||_2 and nu_j = ||N_j||_F;
    (iii) (Weyl) lambda_min(S_k - S_j) >= min(d_k - d_j) - rho_j - rho_k.

    An exactly symmetric A_j is its own S_j with N_j = 0.  Before testing
    (ii) and (iii) pair by pair, one pass over the members sorted by trace
    tries to settle every pair at once.  The sag is the sum over consecutive
    members a, b of max(0, -min(d_b - d_a)); as min is superadditive over
    the telescoping sum, every later-minus-earlier difference has minimum at
    least minus the exact sag.  The computed sag is at least (1 - (M + 1) u)
    times that, so a computed sag + 2 max rho <= tol / 2 gives min(d_b - d_a)
    >= 2 max rho - tol exactly, and as rounding is monotone the pairwise
    loop's computed minimum is at least its computed slack for every pair.
    Every term of the bound (ii) is nonnegative, so its computed value at the
    maxima of spread, rho, s and nu is at least its computed value on any pair.
    """
    n, count = mats[0].shape[0], len(mats)
    unit = np.finfo(float).eps / 2
    gamma = n * unit / (1.0 - n * unit)  # relative rounding of a length-n dot product
    c = np.random.default_rng(_COMBINATION_SEED).uniform(1.0, 2.0, size=count)
    combo, scratch = np.zeros((n, n)), np.empty((n, n))
    for cj, A in zip(c, mats):
        combo += np.multiply(A, cj, out=scratch)
    try:
        _, Q = np.linalg.eigh(0.5 * (combo + combo.T))
    except np.linalg.LinAlgError:
        return False, None
    # eta >= ||Q^T Q - I||_2: the computed norm plus the rounding of Q^T Q
    eta = float(np.linalg.norm(Q.T @ Q - np.eye(n))) + n * gamma
    margin = 4.0 * (eta + np.sqrt(n) * gamma)

    d = np.empty((count, n))
    eps = np.empty(count)
    delta = np.empty(count)
    nu = np.zeros(count)
    asym = np.zeros(count)
    P = combo  # no longer needed: the buffer of every product
    for j, A in enumerate(mats):
        S = A
        if not np.array_equal(A, A.T):
            skew = A - A.T
            asym[j] = skew.max()  # max |A - A^T|: its entries come in pairs s, -s
            nu[j] = 0.5 * np.linalg.norm(skew)
            S = 0.5 * (A + A.T)
        np.matmul(S, Q, out=P)
        d[j] = np.einsum("ij,ij->j", Q, P)
        P -= np.multiply(Q, d[j], out=scratch)  # the mass itself, not ||Q^T S Q||^2 - ||d||^2
        eps[j] = np.linalg.norm(P)
        delta[j] = margin * np.linalg.norm(S)
    off_diagonal = float(eps.max())
    if not eta < 0.25:  # not even close to orthogonal (or not finite)
        return False, off_diagonal
    rho = eps / (1.0 - eta) + delta
    lo, hi = d.min(axis=1), d.max(axis=1)
    if not np.all((asym <= tol) & (lo - rho >= -tol) & (hi + rho <= 1.0 + tol)):
        return False, off_diagonal
    spread = hi - lo
    s = np.maximum(hi, -lo) + rho
    steps = np.diff(d[np.argsort(d.sum(axis=1))], axis=0)
    sag = -np.minimum(steps.min(axis=1), 0.0).sum()
    w, r, v, g = spread.max(), rho.max(), s.max(), nu.max()
    comm = w * r + w * r + 2.0 * r * r + 2.0 * (v * g + v * g + g * g)  # the loop's terms
    if sag + 2.0 * r <= tol / 2 and comm <= tol:
        return True, off_diagonal
    for j in range(count - 1):
        k = slice(j + 1, None)
        comm = (
            spread[j] * rho[k]
            + spread[k] * rho[j]
            + 2.0 * rho[j] * rho[k]
            + 2.0 * (s[j] * nu[k] + s[k] * nu[j] + nu[j] * nu[k])
        )
        diff = d[k] - d[j]
        slack = rho[k] + rho[j] - tol  # min of one difference's spectrum >= -tol
        ordered = (diff.min(axis=1) >= slack) | (-diff.max(axis=1) >= slack)
        if not (np.all(comm <= tol) and np.all(ordered)):
            return False, off_diagonal
    return True, off_diagonal


def _check_ordered_pairwise(matrices, tol: float) -> OrderedCheckReport:
    """The axioms checked pair by pair: an eigvalsh and a commutator per pair.

    The fallback of :func:`check_ordered` and its reference: it decides
    every failure and writes every failure message.
    """
    mats = _square_stack(matrices)
    sym = [0.5 * (A + A.T) for A in mats]
    spectra = [np.linalg.eigvalsh(S) for S in sym]

    failures: list[str] = []
    shrinkage_ok = True
    for idx, (A, w) in enumerate(zip(mats, spectra)):
        asym = float(np.abs(A - A.T).max())
        if asym > tol:
            shrinkage_ok = False
            failures.append(f"axiom (i): matrix {idx} is not symmetric (|A-A^T| = {asym:.3e})")
        if w[0] < -tol or w[-1] > 1.0 + tol:
            shrinkage_ok = False
            failures.append(
                f"axiom (i): matrix {idx} has spectrum [{w[0]:.6g}, {w[-1]:.6g}] outside [0, 1]"
            )

    commute_ok = True
    comparable_ok = True
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            comm = float(np.linalg.norm(mats[j] @ mats[k] - mats[k] @ mats[j], "fro"))
            if comm > tol:
                commute_ok = False
                failures.append(
                    f"axiom (ii): matrices {j} and {k} do not commute (||[A,B]||_F = {comm:.3e})"
                )
            diff = sym[k] - sym[j]
            w = np.linalg.eigvalsh(diff)
            if w[0] < -tol and -w[-1] < -tol:
                comparable_ok = False
                failures.append(
                    f"axiom (iii): matrices {j} and {k} are not comparable "
                    f"(min eig of both differences: {w[0]:.3e}, {-w[-1]:.3e})"
                )
    return OrderedCheckReport(
        shrinkage_ok=shrinkage_ok,
        commute_ok=commute_ok,
        comparable_ok=comparable_ok,
        tol=float(tol),
        failures=tuple(failures),
    )


def member_risks(family_or_union, truth: GroundTruth) -> np.ndarray:
    """Exact risks E ||A_j y - mu||^2 of every member, globally indexed.

    The bias ||A_j mu - mu||^2 is the residual c_j of the per-response pass of mu.
    """
    resp = _response(family_or_union, truth.mu)
    frobenius = np.concatenate([(f.alphas**2).sum(axis=1) for f in resp.candidates.families])
    return truth.sigma**2 * frobenius + resp.resid_sq[0]


def oracle_index(family_or_union, truth: GroundTruth) -> tuple[int, float]:
    """Member with minimal exact risk and that risk R*; ties go to the smallest index."""
    risks = member_risks(family_or_union, truth)
    j_star = int(np.argmin(risks))
    return j_star, float(risks[j_star])
