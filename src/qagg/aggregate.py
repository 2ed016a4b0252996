"""Convex aggregation over the simplex and classical selection baselines.

The aggregation weights minimize a penalized unbiased-risk criterion

    H(theta) = Cp(A_theta) + 1/2 sum_j theta_j ||(A_theta - A_j) y||^2

over the probability simplex.  A bias-variance decomposition turns this
into the manifestly convex quadratic program

    H(theta) = 1/2 ||A_theta y - y||^2 + 2 sigma^2 trace(A_theta)
               + 1/2 sum_j theta_j ||A_j y - y||^2,

a QP with M variables and M + 1 linear constraints.  Optimality is
certified by the first-order condition at the simplex vertices:
min_k grad H(theta) . (e_k - theta) >= 0 at a global optimum, and a
negative value bounds the suboptimality gap of any feasible point.

Every member of a family is diagonal in the family's eigenbasis U, so all
per-response quantities (fits, c_j = ||A_j y - y||^2, the criteria and
the QP data) depend on y only through z = U^T y and ||P_perp y||^2 per
family.  One pass computes them, and every public function accepts that
pass in place of y.  The pass also takes a block of responses (the
columns of an n x B matrix); per-member arrays then carry a leading block
axis, and each criterion is written once along the trailing member axis.
The pass alone decides the QP's coordinates: spectral for a single family,
so a solve costs O((n + M) r) per pivot instead of anything involving
dense n x n matrices, and R^n for a union, whose families share no basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from qagg.smoother import FamilyUnion, _check_sigma
from qagg.spectral import _frozen_array

__all__ = [
    "SimplexWeights",
    "SolveReport",
    "member_fits",
    "make_weights",
    "cp_values",
    "q_objective",
    "q_objective_penalized",
    "q_gradient",
    "certify_kkt",
    "solve_q_aggregation",
    "select_cp",
    "select_gcv",
    "exponential_weights",
    "excess_bound_gap",
]

# Relative tolerance of the KKT test of every solve stage (see _certificate),
# and the most active-set pivots a solve of any size may take.
KKT_TOL = 1e-7
MAX_PIVOTS = 10_000

# Relative Tikhonov term added to an active-set face system when its exact
# KKT system is singular or yields a non-finite point.
FACE_RIDGE = 1e-10


@dataclass(frozen=True)
class SimplexWeights:
    """A point of the simplex together with the fit it induces.

    Weights are clipped at zero and renormalized to sum exactly to one;
    ``fitted`` caches the aggregated fit sum_j theta_j A_j y and
    ``response`` the vector y it was computed from.
    """

    theta: np.ndarray
    fitted: np.ndarray
    response: np.ndarray | None = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError(f"weights must form a nonempty vector, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("weights must be finite")
        if theta.min() < -1e-9:
            raise ValueError(f"weights must be nonnegative, got min {theta.min():.3e}")
        theta = np.clip(theta, 0.0, None)
        total = theta.sum()
        if not total > 0:
            raise ValueError("weights must have positive total mass")
        theta = theta / total
        object.__setattr__(self, "theta", _frozen_array(theta))
        object.__setattr__(self, "fitted", _frozen_array(np.asarray(self.fitted, dtype=float)))
        if self.response is not None:
            object.__setattr__(self, "response", _frozen_array(self.response))

    @property
    def member_count(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class SolveReport:
    """Solver output: weights, objective value and optimality certificate.

    ``support`` lists the members with positive weight,
    ``ridge_fallbacks`` counts the face solves that fell back to the
    FACE_RIDGE-regularized system, and ``stalled_pivots`` is 1 when the
    solve stopped because the member it would add was already in the
    support (a face system too ill-conditioned to make progress).
    """

    weights: SimplexWeights
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    support: tuple[int, ...]
    ridge_fallbacks: int
    stalled_pivots: int


@dataclass(frozen=True)
class _Response:
    """The quantities of a response y that every method reads, computed once.

    y is one response (n,) or a block of responses, one per column (n, B).
    Per-member arrays put the member axis last: resid_sq is (M,) or (B, M).
    It also fixes the coordinates of the QP 1/2 ||phi^T theta - target||^2 +
    lin . theta + offset: spectral for one shared-basis family (phi_j =
    alpha_j * U^T y, target = U^T y, offset = ||P_perp y||^2 / 2), R^n for a
    union (phi_j = A_j y, target = y, offset = 0).  Only _response and the
    qp_* methods know which.
    """

    candidates: FamilyUnion
    y: np.ndarray
    z: tuple[np.ndarray, ...]  # U^T y per family, (r,) or (r, B)
    perp: tuple  # ||P_perp y||^2 per family, a float or (B,)
    resid_sq: np.ndarray  # c_j = ||A_j y - y||^2, globally indexed
    target: np.ndarray  # the QP's target, (d,) or (d, B)
    offset: float | np.ndarray  # the QP's constant, a float or (B,)

    def column(self, b: int) -> "_Response":
        """The pass of response b of a block, with contiguous arrays of its own."""
        return _Response(
            candidates=self.candidates,
            y=np.ascontiguousarray(self.y[:, b]),
            z=tuple(np.ascontiguousarray(z[:, b]) for z in self.z),
            perp=tuple(float(p[b]) for p in self.perp),
            resid_sq=self.resid_sq[b],
            target=np.ascontiguousarray(self.target[:, b]),
            offset=float(self.offset[b]) if np.ndim(self.offset) else self.offset,
        )

    def member_fit(self, j: int) -> np.ndarray:
        """Fit A_j y of the member with global index j."""
        k, local = self.candidates.locate(j)
        fam = self.candidates.families[k]
        return fam.basis @ (fam.alphas[local] * self.z[k])

    def fit(self, theta: np.ndarray) -> np.ndarray:
        """Aggregated fit sum_j theta_j A_j y; for a block, theta is (B, M) and fits are columns."""
        cands = self.candidates
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.resid_sq.shape:
            raise ValueError(f"expected {cands.member_count} weights, got shape {theta.shape}")
        fit = None
        for k, (fam, lo, hi) in enumerate(zip(cands.families, cands.offsets, cands.offsets[1:])):
            part = fam.basis @ self.spectral_fit(k, theta[..., lo:hi])
            fit = part if fit is None else fit + part
        return fit

    def spectral_fit(self, k: int, theta: np.ndarray) -> np.ndarray:
        """U_k^T of the fit of weights theta on family k's members alone; (r,) or (r, B)."""
        return (self.candidates.families[k].alphas.T @ theta.T) * self.z[k]

    def qp_fit(self, theta: np.ndarray) -> np.ndarray:
        """phi^T theta in the QP's coordinates; for a block theta is (B, M), fits columns."""
        if self.candidates.q == 1:
            return self.spectral_fit(0, theta)
        return self.fit(theta)

    def qp_grad(self, resid: np.ndarray) -> np.ndarray:
        """phi resid in the QP's coordinates: (M,), or (M, B) for residual columns (d, B)."""
        fams = self.candidates.families
        if self.candidates.q == 1:
            return fams[0].alphas @ (self.target * resid)
        return np.concatenate([f.alphas @ (z * (f.basis.T @ resid)) for f, z in zip(fams, self.z)])

    def qp_rows(self) -> np.ndarray:
        """The rows phi_j of a one-response QP as an (M, d) matrix."""
        if self.candidates.q == 1:
            return self.candidates.families[0].alphas * self.target
        return member_fits(self.candidates, self)

    def member_losses(self, members: np.ndarray, mean: "_Response") -> np.ndarray:
        """||A_j y_b - mu||^2 of member j = members[b] on every column b of a block pass.

        Evaluated in spectral coordinates as ||alpha_j * z_f - m_f||^2 + ||P_f_perp mu||^2,
        with m_f = U_f^T mu and ||P_f_perp mu||^2 read from ``mean``, the pass of mu.
        """
        cands = self.candidates
        fam_of = np.searchsorted(cands.offsets, members, side="right") - 1
        out = np.empty(members.size)
        for k, (fam, z, m, mu_perp) in enumerate(zip(cands.families, self.z, mean.z, mean.perp)):
            cols = np.flatnonzero(fam_of == k)
            if cols.size:
                d = fam.alphas[members[cols] - cands.offsets[k]] * z[:, cols].T - m
                out[cols] = np.einsum("ij,ij->i", d, d) + mu_perp
        return out

    def weight_losses(self, theta: np.ndarray, mean: "_Response") -> np.ndarray:
        """||A_theta y_b - mu||^2 per column b: ||phi^T theta[b] - m||^2 + 2 offset of mu's pass."""
        return _sq_norms(self.qp_fit(theta) - mean.target[:, None]) + 2.0 * mean.offset


def _sq_norms(v: np.ndarray):
    """Squared norm of a vector, or of every column of a matrix."""
    return v @ v if v.ndim == 1 else np.einsum("ib,ib->b", v, v)


def _response(family_or_union, y, *, block: bool = False) -> _Response:
    """The pass of y; a pass given as y must belong to these candidates.

    Only with ``block`` may y be an (n, B) block of responses.
    """
    cands = FamilyUnion.of(family_or_union)
    if isinstance(y, _Response):
        theirs = y.candidates.families
        if len(theirs) != cands.q or any(a is not b for a, b in zip(theirs, cands.families)):
            raise ValueError("the per-response pass was computed for different candidates")
        resp = y
    else:
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("the response y must be finite")
        yy = _sq_norms(y)
        z = tuple(fam.spectral_coords(y) for fam in cands.families)
        perp = tuple(np.maximum(yy - _sq_norms(zf), 0.0) for zf in z)
        # (M_f,) per family for one response, (B, M_f) for a block
        resid_sq = np.concatenate(
            [
                ((fam.alphas - 1.0) ** 2 @ zf**2 + pf).T
                for fam, zf, pf in zip(cands.families, z, perp)
            ],
            axis=-1,
        )
        target, offset = (z[0], 0.5 * perp[0]) if cands.q == 1 else (y, 0.0)
        resp = _Response(cands, y, z, perp, resid_sq, target, offset)
    if resp.y.ndim != 1 and not block:
        raise ValueError(f"expected one response of length {cands.n}, got shape {resp.y.shape}")
    return resp


def member_fits(family_or_union, y: np.ndarray) -> np.ndarray:
    """Stacked member fits A_j y as an (M, n) matrix, globally indexed."""
    resp = _response(family_or_union, y)
    return np.vstack(
        [(fam.alphas * z) @ fam.basis.T for fam, z in zip(resp.candidates.families, resp.z)]
    )


def make_weights(family_or_union, theta: np.ndarray, y: np.ndarray) -> SimplexWeights:
    """Bundle a weight vector with the fit it induces on response y."""
    resp = _response(family_or_union, y)
    return SimplexWeights(theta=theta, fitted=resp.fit(theta), response=resp.y)


def _qp_linear(resp: _Response, sigma: float) -> np.ndarray:
    """Linear term lin = 2 sigma^2 df + c / 2 of the aggregation QP (see _Response)."""
    _check_sigma(sigma, resp.candidates.n)
    return 2.0 * sigma**2 * resp.candidates.df + 0.5 * resp.resid_sq


def _cp(resp: _Response, sigma: float) -> np.ndarray:
    _check_sigma(sigma, resp.candidates.n)
    return resp.resid_sq + 2.0 * sigma**2 * resp.candidates.df


def cp_values(family_or_union, y: np.ndarray, sigma: float) -> np.ndarray:
    """Unbiased-risk criterion ||A_j y - y||^2 + 2 sigma^2 trace(A_j) per member."""
    return _cp(_response(family_or_union, y), sigma)


def _check_theta(theta, count: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (count,):
        raise ValueError(f"expected weight vector of length {count}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("weights must be finite")
    return theta


def q_objective(family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Convex form of the aggregation objective at theta.

    The formula extends smoothly off the simplex, which is what the
    finite-difference gradient checks differentiate.
    """
    resp = _response(family_or_union, y)
    lin = _qp_linear(resp, sigma)
    theta = _check_theta(theta, lin.size)
    r = resp.qp_rows().T @ theta - resp.target
    return float(0.5 * r @ r + lin @ theta + resp.offset)


def q_objective_penalized(
    family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float
) -> float:
    """Penalized form Cp(A_theta) + 1/2 sum_j theta_j ||(A_theta - A_j) y||^2.

    Computed from member fits in R^n, independently of the spectral
    shortcut used by :func:`q_objective`; the two must agree on the
    simplex.
    """
    resp = _response(family_or_union, y)
    _check_sigma(sigma, resp.candidates.n)
    fits = member_fits(resp.candidates, resp)
    theta = _check_theta(theta, fits.shape[0])
    fit = fits.T @ theta
    df = resp.candidates.df
    cp_at_theta = float((fit - resp.y) @ (fit - resp.y)) + 2.0 * sigma**2 * float(df @ theta)
    gaps = fits - fit
    penalty = 0.5 * float(theta @ np.einsum("ij,ij->i", gaps, gaps))
    return cp_at_theta + penalty


def q_gradient(family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """Analytic gradient of the convex objective form."""
    resp = _response(family_or_union, y)
    lin = _qp_linear(resp, sigma)
    theta = _check_theta(theta, lin.size)
    phi = resp.qp_rows()
    return phi @ (phi.T @ theta - resp.target) + lin


def certify_kkt(family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Vertex-direction optimality certificate min_k grad H(theta) . (e_k - theta).

    Nonnegative at a global optimum of the convex program; a negative
    value is a bound on how far theta is from optimal.
    """
    g = q_gradient(family_or_union, theta, y, sigma)
    theta = np.asarray(theta, dtype=float)
    return float(g.min() - g @ theta)


def _face_minimizer(phi, pt, lin, support, ridge):
    """Minimize the objective on one face (support fixed, weights summing to one).

    Solves the exact KKT system of the face.  Only when that system is
    singular or its solution is not finite is the system solved again
    with ``ridge`` added to the face Gram diagonal.  Returns the face
    weights and whether that fallback ran.
    """
    S = np.asarray(support)
    k = len(S)
    if k == 1:  # a vertex: the only point of its face
        return np.ones(1), False
    KKT = np.zeros((k + 1, k + 1))
    KKT[:k, :k] = phi[S] @ phi[S].T
    KKT[:k, k] = 1.0
    KKT[k, :k] = 1.0
    rhs = np.empty(k + 1)
    rhs[:k] = pt[S] - lin[S]
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(KKT, rhs)
        if np.isfinite(sol).all():
            return sol[:k], False
    except np.linalg.LinAlgError:
        pass
    KKT[np.diag_indices(k)] += ridge
    try:
        sol = np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
    return sol[:k], True


def _certificate(g, theta, resid, lin):
    """Objective less its offset, certificate min_k g_k - g . theta, and the KKT test.

    g is the gradient at theta and resid = phi^T theta - target.  With theta
    of shape (M,) each value is a scalar; with theta of shape (B, M) (resid
    (r, B)) there is one per row.
    """
    fval = 0.5 * _sq_norms(resid) + np.einsum("...j,...j->...", lin, theta)
    res = g.min(axis=-1) - np.einsum("...j,...j->...", g, theta)
    return fval, res, res >= -KKT_TOL * (1.0 + np.abs(fval))


def _solve_simplex_qp(phi, target, lin):
    """Active-set solve of min 1/2 ||phi^T th - target||^2 + lin . th over the simplex.

    Pivots one member at a time starting from the best vertex, solving
    each face exactly through its KKT system and pruning coordinates that
    are driven negative; one face solve per pivot and per prune step, at
    most min(3 M + 100, MAX_PIVOTS) pivots.  The returned certificate is
    evaluated on the unmodified objective.
    Returns (theta, objective, certificate, pivots, converged, ridge
    fallbacks, stalled pivots).
    """
    M = phi.shape[0]
    pt = phi @ target
    sqn = np.einsum("ij,ij->i", phi, phi)
    ridge = FACE_RIDGE * max(float(sqn.max()), 1.0)
    support = [int(np.argmin(0.5 * sqn - pt + lin))]
    theta_s = np.ones(1)
    pivots = 0
    fallbacks = 0
    stalled = 0

    def solve_face(support):
        nonlocal fallbacks
        th, fell_back = _face_minimizer(phi, pt, lin, support, ridge)
        fallbacks += fell_back
        return th

    for _ in range(min(3 * M + 100, MAX_PIVOTS)):
        pivots += 1
        th_new = solve_face(support)
        # every prune step drops at least one member, so this ends within
        # len(support) - 1 steps
        while th_new.min() < -1e-12 and len(support) > 1:
            neg = th_new < 1e-15
            denom = theta_s[neg] - th_new[neg]
            # a coordinate already at zero contributes a zero-length step
            ratio = np.where(denom > 1e-300, theta_s[neg] / np.maximum(denom, 1e-300), 0.0)
            a = max(0.0, min(1.0, float(ratio.min())))
            theta_s = theta_s + a * (th_new - theta_s)
            keep = theta_s > 1e-12
            if keep.all():
                keep[np.argmin(theta_s)] = False
            if not keep.any():
                keep[np.argmax(theta_s)] = True
            support = [s for s, k_ in zip(support, keep) if k_]
            theta_s = theta_s[keep]
            theta_s = theta_s / theta_s.sum()
            th_new = solve_face(support)
        theta_s = np.clip(th_new, 0.0, None)
        mass = theta_s.sum()
        if mass > 0:
            theta_s = theta_s / mass
        else:  # degenerate face solve: fall back to the flat face point
            theta_s = np.full(len(support), 1.0 / len(support))
        theta = np.zeros(M)
        theta[support] = theta_s
        resid = phi[support].T @ theta_s - target
        g = phi @ resid + lin
        fval, res, converged = _certificate(g, theta, resid, lin)
        if converged:
            break
        jadd = int(np.argmin(g))
        if jadd in support:
            stalled += 1
            break  # face system too ill-conditioned to make progress
        support.append(jadd)
        theta_s = np.append(theta_s, 0.0)

    return theta, fval, float(res), pivots, bool(converged), fallbacks, stalled


SOLVE_STAGES = ("vertex", "segment", "active_set")
VERTEX, SEGMENT, ACTIVE_SET = range(len(SOLVE_STAGES))


def _block_solve(resp: _Response, sigma: float):
    """The first two steps of the solve on every column of a block pass at once.

    Column b is tested with the scalar solve's certificate at its starting
    vertex j0, then at the exact minimum on the segment from e_j0 toward the
    vertex of least gradient (the scalar solve's second face).
    Each test is one GEMM on the block in the QP's coordinates.  Returns
    (theta (B, M), objective, kkt_residual, stage), stage indexing
    SOLVE_STAGES; a column at ACTIVE_SET needs solve_q_aggregation.
    """
    cands = resp.candidates
    lin = _qp_linear(resp, sigma)
    B, M = lin.shape
    rows = np.arange(B)

    def certify(theta, resid):
        g = resp.qp_grad(resid).T + lin
        return (g, *_certificate(g, theta, resid, lin))

    # vertex values 1/2 ||phi_j||^2 - phi_j . target + lin_j, as the scalar solve starts
    start = lin + np.hstack(
        [((0.5 * f.alphas**2 - f.alphas) @ z**2).T for f, z in zip(cands.families, resp.z)]
    )
    j0 = start.argmin(axis=1)
    theta = np.zeros((B, M))
    theta[rows, j0] = 1.0
    resid = resp.qp_fit(theta) - resp.target
    g, fval, res, at_vertex = certify(theta, resid)
    stage = np.where(at_vertex, VERTEX, ACTIVE_SET)
    if not at_vertex.all():
        # along e_jadd - e_j0 the slope at j0 is g_jadd - g_j0 = res < 0 and the
        # curvature ||phi_jadd - phi_j0||^2; as e_j0 is the best vertex, the
        # minimum lies at t <= 1/2.  Certified columns stay put (t = 0).
        moved = ~at_vertex
        step = np.zeros((B, M))
        step[rows, g.argmin(axis=1)] += 1.0
        step[rows, j0] -= 1.0
        d = resp.qp_fit(step)
        t = np.divide(-res, _sq_norms(d), out=np.zeros(B), where=moved)
        theta += t[:, None] * step
        _, fval_t, res_t, ok = certify(theta, resid + t * d)
        fval[moved], res[moved] = fval_t[moved], res_t[moved]
        stage[moved & ok] = SEGMENT
    return theta, fval + resp.offset, res, stage


def solve_q_aggregation(family_or_union, y: np.ndarray, sigma: float) -> SolveReport:
    """Solve the aggregation program and certify the result.

    Convergence means kkt_residual >= -KKT_TOL * (1 + |objective|); on
    non-convergence within min(3 M + 100, MAX_PIVOTS) pivots the best
    iterate is returned with ``converged=False``.
    """
    resp = _response(family_or_union, y)
    lin = _qp_linear(resp, sigma)
    theta, fval, res, pivots, converged, fallbacks, stalled = _solve_simplex_qp(
        resp.qp_rows(), resp.target, lin
    )
    weights = make_weights(resp.candidates, theta, resp)
    return SolveReport(
        weights=weights,
        objective=float(fval + resp.offset),
        kkt_residual=res,
        iterations=pivots,
        converged=converged,
        support=tuple(int(j) for j in np.flatnonzero(weights.theta > 0)),
        ridge_fallbacks=fallbacks,
        stalled_pivots=stalled,
    )


def select_cp(family_or_union, y: np.ndarray, sigma: float) -> int:
    """Index of the member with the smallest criterion; ties to the smallest index."""
    return int(np.argmin(cp_values(family_or_union, y, sigma)))


def _gcv_scores(resp: _Response) -> np.ndarray:
    """GCV score of every member, inf where trace A_j >= n - 1e-8 n."""
    n, df = resp.candidates.n, resp.candidates.df
    degenerate = df >= n - 1e-8 * n
    for j in np.flatnonzero(degenerate):
        warnings.warn(
            f"excluding member {j} from GCV selection: trace {df[j]:.6g} "
            f"leaves a degenerate denominator (n = {n})",
            RuntimeWarning,
            stacklevel=3,
        )
    if degenerate.all():
        raise ValueError("every member has trace within 1e-8 n of n; GCV is undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = resp.resid_sq / (n - df) ** 2
    scores[..., degenerate] = np.inf
    return scores


def select_gcv(family_or_union, y: np.ndarray) -> int:
    """Generalized cross-validation selection.

    Minimizes ||A_j y - y||^2 / (n - trace A_j)^2; members whose trace
    comes within 1e-8 n of n are excluded with a warning because the
    denominator degenerates.
    """
    return int(np.argmin(_gcv_scores(_response(family_or_union, y))))


def _softmax(cp: np.ndarray, sigma: float) -> np.ndarray:
    """Weights proportional to exp(-cp / (4 sigma^2)) along the member axis."""
    w = np.exp(-(cp - cp.min(axis=-1, keepdims=True)) / (4.0 * sigma**2))
    return w / w.sum(axis=-1, keepdims=True)


def exponential_weights(family_or_union, y: np.ndarray, sigma: float) -> SimplexWeights:
    """Softmax weights theta_j proportional to exp(-Cp_j / (4 sigma^2)).

    4 sigma^2 is the temperature at which the exponential-weights risk
    bound of Leung & Barron (2006) holds.  Guarded against overflow by
    subtracting the best criterion value before exponentiating.
    """
    resp = _response(family_or_union, y)
    theta = _softmax(_cp(resp, sigma), sigma)
    return make_weights(resp.candidates, theta, resp)


def excess_bound_gap(
    family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float, mu: np.ndarray
) -> float:
    """Worst-case slack of the pointwise excess-risk bound at theta.

    For every reference member k the excess ||A_theta y - mu||^2 -
    ||A_k y - mu||^2 is bounded by
    max_j (2 eps^T (A_j - A_k) y - 2 sigma^2 tr(A_j - A_k)
           - ||(A_j - A_k) y||^2 / 2) plus the optimality slack of
    theta.  Returns max_k (excess_k - bound_k); at a certified optimum
    this is at most -kkt_residual up to rounding.
    """
    resp = _response(family_or_union, y)
    fits = member_fits(resp.candidates, resp)
    theta = _check_theta(theta, fits.shape[0])
    mu = np.asarray(mu, dtype=float)
    if mu.shape != resp.y.shape or not np.all(np.isfinite(mu)):
        raise ValueError(f"mu must be a finite vector of length {resp.y.size}, got {mu.shape}")
    eps = resp.y - mu
    fit = fits.T @ theta
    df = resp.candidates.df
    loss_theta = float((fit - mu) @ (fit - mu))
    diffs = fits - mu
    losses = np.einsum("ij,ij->i", diffs, diffs)
    proj = fits @ eps
    gram = fits @ fits.T
    sq = np.diag(gram)
    pair_sq = sq[:, None] + sq[None, :] - 2.0 * gram
    # a[j, k] = 2 eps.(f_j - f_k) - 2 sigma^2 (df_j - df_k) - ||f_j - f_k||^2 / 2
    row = proj - sigma**2 * df
    a = 2.0 * (row[:, None] - row[None, :]) - 0.5 * pair_sq
    bound = a.max(axis=0)
    excess = loss_theta - losses
    return float((excess - bound).max())
