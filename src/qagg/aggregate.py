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

The QP is posed in the coordinates Q of the per-response pass
(smoother._response), for one family and a union alike, so a pivot costs
O((d + M) d) and never anything n x n.  _block_solve solves it for every
column of a pass at once: closed-form vertex and segment stages, then
lockstep pivots (_active_set) on the columns they leave undecided;
solve_q_aggregation runs it on a pass of one column.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from qagg.smoother import _check_sigma, _Response, _response, _sq_norms
from qagg.spectral import _check_theta, _frozen_array

__all__ = [
    "SimplexWeights",
    "SolveReport",
    "member_fits",
    "make_weights",
    "cp_values",
    "q_objective",
    "q_gradient",
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


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """A point of the simplex, with the fit it induces when make_weights made it.

    Weights are clipped at zero and renormalized to sum exactly to one.
    make_weights attaches ``fitted``, the aggregated fit sum_j theta_j A_j y,
    and ``response``, the vector y it was computed from; both are None
    otherwise.
    """

    theta: np.ndarray
    fitted: np.ndarray | None = field(init=False, default=None)
    response: np.ndarray | None = field(init=False, default=None)

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

    @property
    def member_count(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: weights, objective value and optimality certificate.

    ``iterations`` counts the active-set pivots (the vertex is the first),
    ``support`` lists the members with positive weight, ``ridge_fallbacks``
    counts the face solves that fell back to the FACE_RIDGE-regularized
    system, and ``stalled_pivots`` is 1 when the solve stopped because the
    member it would add was already in the support (a face system too
    ill-conditioned to make progress).  _block_solve counts these per column.
    """

    weights: SimplexWeights
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    support: tuple[int, ...]
    ridge_fallbacks: int
    stalled_pivots: int


def member_fits(family_or_union, y: np.ndarray) -> np.ndarray:
    """Stacked member fits A_j y as an (M, n) matrix, globally indexed."""
    resp = _response(family_or_union, y)
    M = resp.candidates.member_count
    return resp.qp_member_rows(np.zeros(M, dtype=int), np.arange(M)) @ resp.candidates.coords.T


def make_weights(family_or_union, theta: np.ndarray, y: np.ndarray) -> SimplexWeights:
    """Bundle a weight vector, clipped and renormalized, with the fit it induces on response y."""
    resp = _response(family_or_union, y)
    theta = _check_theta(theta, resp.candidates.member_count)
    weights = SimplexWeights(theta)
    fitted = (resp.candidates.coords @ resp.qp_fit(weights.theta[None]))[:, 0]
    vars(weights).update(fitted=_frozen_array(fitted), response=_frozen_array(resp.y[:, 0]))
    return weights


def _qp_linear(resp: _Response, sigma: float) -> np.ndarray:
    """Linear term lin = 2 sigma^2 df + c / 2 of the aggregation QP (see _Response)."""
    _check_sigma(sigma, resp.candidates.n)
    return 2.0 * sigma**2 * resp.candidates.df + 0.5 * resp.resid_sq


def _cp(resp: _Response, sigma: float) -> np.ndarray:
    _check_sigma(sigma, resp.candidates.n)
    return resp.resid_sq + 2.0 * sigma**2 * resp.candidates.df


def cp_values(family_or_union, y: np.ndarray, sigma: float) -> np.ndarray:
    """Unbiased-risk criterion ||A_j y - y||^2 + 2 sigma^2 trace(A_j) per member."""
    return _cp(_response(family_or_union, y), sigma)[0]


def q_objective(family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Convex form of the aggregation objective at theta.

    The formula extends smoothly off the simplex, which is what the
    finite-difference gradient checks differentiate.
    """
    resp = _response(family_or_union, y)
    lin = _qp_linear(resp, sigma)[0]
    theta = _check_theta(theta, lin.size)
    r = (resp.qp_fit(theta[None]) - resp.target)[:, 0]
    return float(0.5 * r @ r + lin @ theta + resp.offset[0])


def q_gradient(family_or_union, theta: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    """Analytic gradient of the convex objective form."""
    resp = _response(family_or_union, y)
    lin = _qp_linear(resp, sigma)[0]
    theta = _check_theta(theta, lin.size)
    return resp.qp_grad(resp.qp_fit(theta[None]) - resp.target)[0] + lin


def _certificate(g, theta, resid, lin):
    """Objective less its offset, certificate min_k g_k - g . theta, and the KKT test.

    g is the gradient at theta and resid = phi^T theta - target, with one
    value per row of theta (B, M) (column of resid (d, B)).
    """
    fval = 0.5 * _sq_norms(resid) + np.einsum("bj,bj->b", lin, theta)
    res = g.min(axis=1) - np.einsum("bj,bj->b", g, theta)
    return fval, res, res >= -KKT_TOL * (1.0 + np.abs(fval))


SOLVE_STAGES = ("vertex", "segment", "active_set")
VERTEX, SEGMENT, ACTIVE_SET = range(len(SOLVE_STAGES))


def _certify(resp: _Response, lin, theta, resid, cols=slice(None)):
    """Gradient at theta (lin and theta rows of the block columns cols), then _certificate."""
    g = resp.qp_grad(resid, cols) + lin
    return (g, *_certificate(g, theta, resid, lin))


def _face_solve(kkt: np.ndarray, rhs: np.ndarray, ridge):
    """Face weights (L, k) of stacked face KKT systems (L, k + 1, k + 1), and which fell back.

    A singular system, or one with a non-finite solution, is solved again with
    ``ridge(its index)`` on its Gram diagonal (by least squares if still singular).
    """
    try:
        sol = np.linalg.solve(kkt, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # solve one by one to find the singular systems
        sol = np.full(rhs.shape, np.nan)
        for i in range(len(kkt)):
            with contextlib.suppress(np.linalg.LinAlgError):
                sol[i] = np.linalg.solve(kkt[i], rhs[i])
    bad = ~np.isfinite(sol).all(axis=1)
    k = rhs.shape[1] - 1
    if bad.any():  # the ridge scale costs a pass over every family
        for i, r in zip(np.flatnonzero(bad), ridge(np.flatnonzero(bad))):
            a = kkt[i] + np.diag(np.append(np.full(k, r), 0.0))
            try:
                sol[i] = np.linalg.solve(a, rhs[i])
            except np.linalg.LinAlgError:
                sol[i] = np.linalg.lstsq(a, rhs[i], rcond=None)[0]
    return sol[:, :k], bad


def _active_set(resp: _Response, lin, cols, support, g, out):
    """The active-set method on the columns ``cols`` of a pass, in lockstep.

    Column i, uncertified after k pivots, starts on the face support[i] (its k
    members in pivot order) at its weights in out = (theta, objective less
    offset, certificate), with gradient g[i].  Each pivot adds the member of
    least gradient and solves every face's KKT system in one stacked solve; a
    face point below -1e-12 takes the ratio step toward it, drops the members
    that reach zero (their slots stay, pinned at zero) and is solved again.
    A column stops when it certifies, when the member it would add is on its
    face (a stall: a face system too ill-conditioned to progress) or after
    min(3 M + 100, MAX_PIVOTS) pivots.  Writes the last iterates into out;
    returns pivots, converged, ridge fallbacks and stalls.
    """
    fams, (B, M) = resp.candidates.families, (len(cols), lin.shape[1])
    cap = min(3 * M + 100, MAX_PIVOTS)
    lin, target = lin[cols], resp.target[:, cols].T
    pivots = np.full(B, support.shape[1])
    converged, fallbacks, stalls = np.zeros(B, bool), np.zeros(B, int), np.zeros(B, int)
    # one row per column still pivoting: slot s of row i holds member S[i, s], its
    # row R[i, s] and weight W[i, s], and is on the face while on[i, s]
    live, S, W = np.arange(B), support, np.take_along_axis(out[0][cols], support, 1)
    on = np.ones(S.shape, dtype=bool)
    R = resp.qp_member_rows(np.repeat(cols, S.shape[1]), S.ravel()).reshape(*S.shape, -1)

    def ridge(rows):  # FACE_RIDGE times the largest ||phi_j||^2 (at least 1) per live row
        c = cols[live[rows]]
        sq = np.hstack([(z[:, c] ** 2).T @ (f.alphas**2).T for f, z in zip(fams, resp.z)])
        return FACE_RIDGE * np.maximum(sq.max(axis=1), 1.0)

    def face_points(sub):  # the minimizers of the faces of live rows sub, pinned slots at 0
        L, k = S[sub].shape
        kkt = np.zeros((L, k + 1, k + 1))
        both = on[sub, :, None] & on[sub, None, :]
        kkt[:, :k, :k] = np.where(both, R[sub] @ R[sub].transpose(0, 2, 1), np.eye(k))
        kkt[:, :k, k] = kkt[:, k, :k] = on[sub]
        c = np.einsum("lkd,ld->lk", R[sub], target[live[sub]])
        rhs = np.ones((L, k + 1))
        rhs[:, :k] = np.where(on[sub], c - np.take_along_axis(lin[live[sub]], S[sub], 1), 0.0)
        th, fell = _face_solve(kkt, rhs, lambda bad: ridge(sub[bad]))
        fallbacks[live[sub]] += fell
        return np.where(on[sub], th, 0.0)

    while live.size:
        jadd = g.argmin(axis=1)
        stalled = (on & (S == jadd[:, None])).any(axis=1)
        stalls[live[stalled]] = 1
        go = ~stalled & (pivots[live] < cap)
        live, S, W, on, R, jadd = (a[go] for a in (live, S, W, on, R, jadd))
        if not live.size:
            break
        S = np.column_stack([S, jadd])
        W = np.column_stack([W, np.zeros(live.size)])
        on = np.column_stack([on, np.ones(live.size, dtype=bool)])
        R = np.concatenate([R, resp.qp_member_rows(cols[live], jadd)[:, None]], axis=1)
        pivots[live] += 1
        th = face_points(np.arange(live.size))
        while True:  # every prune step drops a member, so this ends
            low = np.where(on, th, np.inf).min(axis=1)
            need = np.flatnonzero((low < -1e-12) & (on.sum(axis=1) > 1))
            if not need.size:
                break
            for i in need:
                s = np.flatnonzero(on[i])
                ts, tn = W[i, s], th[i, s]
                neg = tn < 1e-15
                denom = ts[neg] - tn[neg]
                # a coordinate already at zero contributes a zero-length step
                ratio = np.where(denom > 1e-300, ts[neg] / np.maximum(denom, 1e-300), 0.0)
                ts = ts + max(0.0, min(1.0, float(ratio.min()))) * (tn - ts)
                keep = ts > 1e-12
                if keep.all():
                    keep[np.argmin(ts)] = False
                if not keep.any():
                    keep[np.argmax(ts)] = True
                on[i, s[~keep]] = False
                W[i, s] = np.where(keep, ts, 0.0) / ts[keep].sum()
            th[need] = face_points(need)
        th = np.clip(th, 0.0, None)
        mass = th.sum(axis=1, keepdims=True)
        flat = on / on.sum(axis=1, keepdims=True)  # for a degenerate face solve
        W = np.where(mass > 0, th / np.where(mass > 0, mass, 1.0), flat)
        theta = np.zeros((live.size, M))
        i, s = np.nonzero(on)
        theta[i, S[i, s]] = W[i, s]
        resid = np.einsum("lk,lkd->dl", W, R) - target[live].T
        g, fval, res, ok = _certify(resp, lin[live], theta, resid, cols[live])
        out[0][cols[live]], out[1][cols[live]], out[2][cols[live]] = theta, fval, res
        converged[live] = ok
        live, S, W, on, R, g = (a[~ok] for a in (live, S, W, on, R, g))
    return pivots, converged, fallbacks, stalls


def _block_solve(resp: _Response, sigma: float):
    """The aggregation solve on every column of a pass at once.

    Column b is tested with the certificate at its best vertex j0, the Cp
    choice (the vertex value 1/2 ||phi_j||^2 - phi_j . target + lin_j equals
    Cp_j - ||y||^2 / 2), then at the exact minimum on the segment toward the
    vertex of least gradient, the active-set method's second face; each test
    is one GEMM on the block.  The columns left undecided go on together
    through _active_set.  Returns (theta (B, M), objective, kkt_residual,
    stage, pivots, converged, ridge fallbacks, stalls) per column
    (SOLVE_STAGES).
    """
    lin = _qp_linear(resp, sigma)
    B, M = lin.shape
    rows = np.arange(B)
    j0 = _cp(resp, sigma).argmin(axis=1)
    theta = np.zeros((B, M))
    theta[rows, j0] = 1.0
    vertex = resp.qp_member_rows(rows, j0).T
    resid = vertex - resp.target
    g, fval, res, at_vertex = _certify(resp, lin, theta, resid)
    stage = np.where(at_vertex, VERTEX, ACTIVE_SET)
    face = [j0]  # the members of the face each column has reached, in order
    if not at_vertex.all():
        # along e_jadd - e_j0 the slope at j0 is g_jadd - g_j0 = res < 0 and the
        # curvature ||phi_jadd - phi_j0||^2; as e_j0 is the best vertex, the
        # minimum lies at t <= 1/2 (clipped to [0, 1] against rounding ties in
        # j0).  Certified columns stay put (t = 0).
        moved = ~at_vertex
        jadd = g.argmin(axis=1)
        d = resp.qp_member_rows(rows, jadd).T - vertex
        t = np.clip(np.divide(-res, _sq_norms(d), out=np.zeros(B), where=moved), 0.0, 1.0)
        theta[rows, jadd] += t
        theta[rows, j0] -= t
        g, fval_t, res_t, ok = _certify(resp, lin, theta, resid + t * d)
        fval[moved], res[moved] = fval_t[moved], res_t[moved]
        stage[moved & ok] = SEGMENT
        face.append(jadd)
    pivots, converged = stage + 1, stage != ACTIVE_SET
    fallbacks, stalls = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    cols = np.flatnonzero(~converged)
    if cols.size:
        S = np.stack([f[cols] for f in face], axis=1)
        pivots[cols], converged[cols], fallbacks[cols], stalls[cols] = _active_set(
            resp, lin, cols, S, g[cols], (theta, fval, res)
        )
    return theta, fval + resp.offset, res, stage, pivots, converged, fallbacks, stalls


def solve_q_aggregation(family_or_union, y: np.ndarray, sigma: float) -> SolveReport:
    """Solve the aggregation program and certify the result.

    The staged solve of _block_solve on the pass of y, a block of one column.  Convergence
    means kkt_residual >= -KKT_TOL * (1 + |objective|); on non-convergence
    within min(3 M + 100, MAX_PIVOTS) pivots the best iterate is returned
    with ``converged=False``.
    """
    resp = _response(family_or_union, y)
    theta, objective, kkt, _, pivots, converged, fallbacks, stalls = (
        a[0] for a in _block_solve(resp, sigma)
    )
    weights = make_weights(resp.candidates, theta, resp)
    support = tuple(int(j) for j in np.flatnonzero(weights.theta > 0))
    return SolveReport(weights, float(objective), float(kkt), int(pivots), bool(converged),
                       support, int(fallbacks), int(stalls))


def select_cp(family_or_union, y: np.ndarray, sigma: float) -> int:
    """Index of the member with the smallest criterion; ties to the smallest index."""
    return int(np.argmin(cp_values(family_or_union, y, sigma)))


def _gcv_degenerate(candidates) -> np.ndarray:
    """The members GCV excludes: trace A_j >= n - 1e-8 n, a degenerate denominator."""
    return candidates.df >= candidates.n - 1e-8 * candidates.n


def _gcv_scores(resp: _Response) -> np.ndarray:
    """GCV score of every member, inf where trace A_j >= n - 1e-8 n."""
    n, df = resp.candidates.n, resp.candidates.df
    degenerate = _gcv_degenerate(resp.candidates)
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
    scores[:, degenerate] = np.inf
    return scores


def select_gcv(family_or_union, y: np.ndarray) -> int:
    """Generalized cross-validation selection.

    Minimizes ||A_j y - y||^2 / (n - trace A_j)^2; members whose trace
    comes within 1e-8 n of n are excluded with a warning because the
    denominator degenerates.
    """
    return int(np.argmin(_gcv_scores(_response(family_or_union, y))[0]))


def _softmax(cp: np.ndarray, sigma: float) -> np.ndarray:
    """Weights proportional to exp(-cp / (4 sigma^2)) along the member axis."""
    w = np.exp(-(cp - cp.min(axis=1, keepdims=True)) / (4.0 * sigma**2))
    return w / w.sum(axis=1, keepdims=True)


def exponential_weights(family_or_union, y: np.ndarray, sigma: float) -> SimplexWeights:
    """Softmax weights theta_j proportional to exp(-Cp_j / (4 sigma^2)).

    4 sigma^2 is the temperature at which the exponential-weights risk
    bound of Leung & Barron (2006) holds.  Guarded against overflow by
    subtracting the best criterion value before exponentiating.
    """
    resp = _response(family_or_union, y)
    theta = _softmax(_cp(resp, sigma), sigma)[0]
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
    cands = resp.candidates
    _check_sigma(sigma, cands.n)
    theta = _check_theta(theta, cands.member_count)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cands.n,) or not np.all(np.isfinite(mu)):
        raise ValueError(f"mu must be a finite vector of length {cands.n}, got {mu.shape}")
    phi = resp.qp_member_rows(np.zeros(cands.member_count, int), np.arange(cands.member_count))
    m = cands.coords.T @ mu
    sq = _sq_norms(phi.T)
    fit = phi.T @ theta - m
    excess = fit @ fit - _sq_norms((phi - m).T)  # the ||P_Q_perp mu||^2 cancel
    # bound_k = max_j a[j, k] with a[j, k] = 2 eps.(f_j - f_k) - 2 sigma^2 (df_j - df_k)
    # - ||f_j - f_k||^2 / 2, eps.f_j = phi_j.(t - m) and f_j.f_k = phi_j.phi_k
    r = 2.0 * (phi @ (resp.target[:, 0] - m) - sigma**2 * cands.df) - 0.5 * sq
    gram = phi @ phi.T  # the one M x M array
    gram += r[:, None]
    return float((excess - (gram.max(axis=0) - r - sq)).max())
