"""Shared oracles and instance factories for the test suite."""

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_family(rng):
    """A 5x3 three-member Tikhonov family with a diagonal penalty."""
    X = rng.standard_normal((5, 3))
    problem = DesignProblem(X=X, K=np.diag([1.0, 2.0, 3.0]), lambdas=[0.5, 2.0, 8.0])
    return problem, build_tikhonov_family(problem)
