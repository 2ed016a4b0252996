"""Shared oracles and instance factories for the test suite."""

import numpy as np
import pytest

from qagg.aggregate import (
    FACE_RIDGE,
    MAX_PIVOTS,
    _certificate,
    _check_theta,
    _qp_linear,
    _response,
    member_fits,
    q_gradient,
)
from qagg.smoother import FamilyUnion, _check_sigma
from qagg.spectral import DesignProblem, build_tikhonov_family


def dense_smoother(X, K, lam):
    """Dense-solve oracle for a single fit map X (X^T X + lam K)^{-1} X^T.

    Uses the pseudoinverse when lam = 0 so rank-deficient designs get
    the minimum-norm least-squares fit.
    """
    X = np.asarray(X, dtype=float)
    K = np.asarray(K, dtype=float)
    G = X.T @ X + lam * K
    if lam == 0.0:
        return X @ np.linalg.pinv(G) @ X.T
    return X @ np.linalg.solve(G, X.T)


def member_matrix(family, j):
    """Dense n x n fit map U diag(alpha_j) U^T of member j of a shared-basis family."""
    return (family.basis * family.alphas[j]) @ family.basis.T


def union_and_dense(rng, designs: int):
    """A two-family union and the dense smoother matrices of its members, in global order.

    With one design both families share X (different penalties), so the union's
    coordinates are the first family's basis; with two the designs differ and the
    coordinates come from the SVD of both bases.
    """
    X = rng.standard_normal((9, 4))
    problems = [
        DesignProblem(X=X, K=np.eye(4), lambdas=[0.1, 1.0, 10.0]),
        DesignProblem(X=X if designs == 1 else rng.standard_normal((9, 3)),
                      K=random_spd(rng, 4 if designs == 1 else 3), lambdas=[0.3, 3.0]),
    ]
    families = tuple(build_tikhonov_family(pr) for pr in problems)
    mats = [dense_smoother(pr.X, pr.K, lam) for pr in problems for lam in pr.lambdas]
    return FamilyUnion(families=families), mats


def dense_excess_bound_gap(mats, theta, y, sigma, mu):
    """excess_bound_gap from dense member matrices, with fits, losses and Gram in R^n."""
    fits = np.array([A @ y for A in mats])
    df = np.array([np.trace(A) for A in mats])
    eps = y - mu
    fit = fits.T @ theta
    losses = np.array([(f - mu) @ (f - mu) for f in fits])
    gram = fits @ fits.T
    sq = np.diag(gram)
    pair_sq = sq[:, None] + sq[None, :] - 2.0 * gram
    row = fits @ eps - sigma**2 * df
    a = 2.0 * (row[:, None] - row[None, :]) - 0.5 * pair_sq
    return float(((fit - mu) @ (fit - mu) - losses - a.max(axis=0)).max())


def random_spd(rng, p, cond=10.0):
    """Random symmetric positive-definite matrix with bounded conditioning."""
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.exp(rng.uniform(0.0, np.log(cond), size=p))
    return (Q * eigs) @ Q.T


def random_problem(rng, n, p, M, identity_penalty=False, lam_range=(1e-2, 1e2)):
    """Random design problem with a geometric tuning grid."""
    X = rng.standard_normal((n, p))
    K = np.eye(p) if identity_penalty else random_spd(rng, p)
    scale = float(np.mean(np.linalg.svd(X, compute_uv=False) ** 2))
    lambdas = scale * np.geomspace(lam_range[0], lam_range[1], M)
    return DesignProblem(X=X, K=K, lambdas=lambdas)


def pair_distance(family, j, k, truth):
    """Metric d(A_j, A_k) = sqrt(sigma^2 ||A_j - A_k||_F^2 + ||(A_j - A_k) mu||^2)."""
    M = family.member_count
    if not (0 <= int(j) < M and 0 <= int(k) < M):
        raise IndexError(f"member index pair ({j}, {k}) out of range")
    if truth.n != family.n:
        raise ValueError(
            f"truth dimension {truth.n} does not match family dimension {family.n}"
        )
    delta = family.alphas[int(j)] - family.alphas[int(k)]
    m = family.basis.T @ truth.mu
    return float(np.sqrt(truth.sigma**2 * (delta @ delta) + delta**2 @ m**2))


def q_objective_penalized(family_or_union, theta, y, sigma):
    """Penalized form Cp(A_theta) + 1/2 sum_j theta_j ||(A_theta - A_j) y||^2.

    Computed from member fits in R^n, not from q_objective's convex form in
    the QP coordinates; the two must agree on the simplex.
    """
    resp = _response(family_or_union, y)
    _check_sigma(sigma, resp.candidates.n)
    fits = member_fits(resp.candidates, resp)
    theta = _check_theta(theta, fits.shape[0])
    fit = fits.T @ theta
    df, y = resp.candidates.df, resp.y[:, 0]
    cp_at_theta = float((fit - y) @ (fit - y)) + 2.0 * sigma**2 * float(df @ theta)
    gaps = fits - fit
    penalty = 0.5 * float(theta @ np.einsum("ij,ij->i", gaps, gaps))
    return cp_at_theta + penalty


def certify_kkt(family_or_union, theta, y, sigma):
    """Vertex-direction optimality certificate min_k grad H(theta) . (e_k - theta).

    Nonnegative at a global optimum of the convex program; a negative
    value is a bound on how far theta is from optimal.
    """
    g = q_gradient(family_or_union, theta, y, sigma)
    theta = np.asarray(theta, dtype=float)
    return float(g.min() - g @ theta)


STRESS_CASES = (
    "lambda0-rank-deficient",
    "n-below-p",
    "single-member",
    "zero-response",
    "near-duplicate-lambdas",
)


def stress_problem(rng, case):
    """(X, y, lambdas) of a degenerate family the solver must still certify."""
    n, p = 12, 6
    X = rng.standard_normal((n, p))
    lambdas = [0.1, 1.0, 10.0, 100.0]
    if case == "lambda0-rank-deficient":
        X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, p))
        lambdas = [0.0, 0.5, 5.0, 50.0]
    elif case == "n-below-p":
        X = rng.standard_normal((5, 9))
    elif case == "single-member":
        lambdas = [2.0]
    elif case == "near-duplicate-lambdas":
        lambdas = [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 + 1e-9, 3.0]
    elif case != "zero-response":
        raise ValueError(f"unknown stress case {case!r}")
    y = np.zeros(X.shape[0])
    if case != "zero-response":
        y = X @ rng.standard_normal(X.shape[1]) + 0.5 * rng.standard_normal(X.shape[0])
    return X, y, np.array(lambdas)


# The scalar active-set solver, one response and one face at a time: the
# reference that the lockstep kernel, aggregate._active_set, is checked against.


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


def _solve_simplex_qp(phi, target, lin):
    """Active-set solve of min 1/2 ||phi^T th - target||^2 + lin . th over the simplex.

    Pivots one member at a time starting from the best vertex, solving
    each face exactly through its KKT system and pruning coordinates that
    are driven negative; one face solve per pivot and per prune step, at
    most min(3 M + 100, MAX_PIVOTS) pivots.  The returned certificate is
    evaluated on the unmodified objective.
    Returns (theta, objective, certificate, pivots, converged, ridge
    fallbacks, stalled pivots, prune steps).
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
    prunes = 0

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
            prunes += 1
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
        fval, res, converged = (
            a[0] for a in _certificate(g[None], theta[None], resid[:, None], lin[None])
        )
        if converged:
            break
        jadd = int(np.argmin(g))
        if jadd in support:
            stalled += 1
            break  # face system too ill-conditioned to make progress
        support.append(jadd)
        theta_s = np.append(theta_s, 0.0)

    return theta, fval, float(res), pivots, bool(converged), fallbacks, stalled, prunes



def first_vertex_faces(kkt, rhs, ridge):
    """A kernel face solve that never leaves each face's first vertex, without fallbacks."""
    k = rhs.shape[1] - 1
    return np.eye(k)[np.zeros(len(rhs), dtype=int)], np.zeros(len(rhs), dtype=bool)


def reference_solve(cands, y, sigma):
    """The reference solve of response y: (theta, objective, certificate, pivots,
    converged, ridge fallbacks, stalled pivots, prune steps), objective with its offset."""
    resp = _response(cands, y)
    M = resp.resid_sq.size
    phi = resp.qp_member_rows(np.zeros(M, dtype=int), np.arange(M))
    theta, fval, *rest = _solve_simplex_qp(phi, resp.target[:, 0], _qp_linear(resp, sigma)[0])
    return (theta, float(fval + resp.offset[0]), *rest)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_family(rng):
    """A 5x3 three-member Tikhonov family with a diagonal penalty."""
    X = rng.standard_normal((5, 3))
    problem = DesignProblem(X=X, K=np.diag([1.0, 2.0, 3.0]), lambdas=[0.5, 2.0, 8.0])
    return problem, build_tikhonov_family(problem)
