"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two Monte Carlo
criteria (grid-size independence, family-count scaling) run 2000
replicates per configuration and take a couple of minutes combined.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    certify_kkt,
    dense_smoother,
    member_matrix,
    pair_distance,
    q_objective_penalized,
    random_problem,
    random_spd,
)

from qagg.aggregate import (
    cp_values,
    q_gradient,
    q_objective,
    solve_q_aggregation,
)
from qagg.bench import (
    ExperimentConfig,
    FamilySpec,
    GridSpec,
    MeanSpec,
    ScenarioSpec,
    build_instance,
    regret_vs_M_sweep,
    regret_vs_q_sweep,
    run_experiment,
)
from qagg.cli import main
from qagg.smoother import FamilyUnion, GroundTruth, check_ordered, member_risks
from qagg.spectral import (
    DesignProblem,
    apply_member,
    build_tikhonov_family,
)

SIGMA = 1.0  # noise level of the Monte Carlo acceptance scenarios


# ---------------------------------------------------------------------------
# shared Monte Carlo runs


@pytest.fixture(scope="module")
def m_sweep():
    """Fixed scenario, refining grids M in {2, 10, 100, 1000}, 2000 replicates.

    The grid range is pinned to the risk valley of the scenario (the
    lambda interval where the dense-grid risk curve stays within 2
    sigma^2 of its minimum) so that even the two-point grid is a
    meaningful tuning grid; the sweep then refines that fixed range.
    """
    probe = ExperimentConfig(
        scenario=ScenarioSpec(
            n=100,
            sigma=SIGMA,
            mean=MeanSpec(shape="spectral-decay", rate=1.0, target_risk=20.0 * SIGMA**2),
        ),
        families=(FamilySpec(p=50, grid=GridSpec(min=1e-3, max=1e3, count=1024)),),
        replicates=2000,
        seed=20240811,
        label="ac2",
    )
    instance = build_instance(probe)
    risks = member_risks(instance.candidates, instance.truth)
    lams = instance.candidates.lambdas
    valley = risks <= instance.oracle_risk + 2.0 * SIGMA**2
    lo, hi = float(lams[valley][0]), float(lams[valley][-1])
    config = replace(
        probe,
        families=(FamilySpec(p=50, grid=GridSpec(min=lo, max=hi, count=20, absolute=True)),),
    )
    t0 = time.perf_counter()
    reports = regret_vs_M_sweep(config, [2, 10, 100, 1000], threads=2)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def q_sweep():
    """Unions of q in {1, 4, 16} diagonal-penalty families, 16 members each."""
    config = ExperimentConfig(
        scenario=ScenarioSpec(
            n=100,
            sigma=SIGMA,
            mean=MeanSpec(shape="spectral-decay", rate=1.0, target_risk=20.0 * SIGMA**2),
        ),
        families=(FamilySpec(p=50, grid=GridSpec(count=16)),),
        replicates=2000,
        seed=20240812,
        members_per_family=16,
        label="ac3",
    )
    t0 = time.perf_counter()
    reports = regret_vs_q_sweep(config, [1, 4, 16], threads=2)
    return reports, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_ac1_exactness_stack():
    """Spectral operations match dense-matrix oracles on 50 random instances."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 21))
        p = int(rng.integers(1, 11))
        M = int(rng.integers(1, 6))
        problem = random_problem(rng, n=n, p=p, M=M)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(n)
        sigma = float(rng.uniform(0.3, 2.0))
        truth = GroundTruth(mu=rng.standard_normal(n), sigma=sigma)
        dense = [dense_smoother(problem.X, problem.K, lam) for lam in problem.lambdas]
        df = FamilyUnion.of(family).df
        cp = cp_values(family, y, sigma)
        risks = member_risks(family, truth)
        for j in range(M):
            worst = max(worst, float(np.abs(apply_member(family, j, y) - dense[j] @ y).max()))
            worst = max(worst, abs(df[j] - np.trace(dense[j])))
            cp_dense = np.sum((dense[j] @ y - y) ** 2) + 2 * sigma**2 * np.trace(dense[j])
            worst = max(worst, abs(cp[j] - cp_dense))
            bias = dense[j] @ truth.mu - truth.mu
            risk_dense = sigma**2 * np.sum(dense[j] ** 2) + bias @ bias
            worst = max(worst, abs(risks[j] - risk_dense))
        j, k = int(rng.integers(M)), int(rng.integers(M))
        diff = dense[j] - dense[k]
        d_dense = np.sqrt(sigma**2 * np.sum(diff**2) + np.sum((diff @ truth.mu) ** 2))
        worst = max(worst, abs(pair_distance(family, j, k, truth) - d_dense))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    print(f"\nAC-1 exactness stack: PASS (max deviation {worst:.2e}, {elapsed:.1f}s)")


def test_ac2_regret_independent_of_grid_size(m_sweep):
    """Aggregation regret stays bounded and flat as the grid refines."""
    reports, elapsed = m_sweep
    regrets = {r.member_total: r.stats["q_agg"] for r in reports}
    for M, s in regrets.items():
        assert s.regret < 10.0 * SIGMA**2, f"regret {s.regret:.3f} at M={M}"
    small, large = regrets[2], regrets[1000]
    combined = float(np.hypot(small.ci_half_width, large.ci_half_width))
    diff = large.regret - small.regret
    assert diff <= 2.0 * SIGMA**2 + 2.0 * combined
    assert sum(r.solver_failures for r in reports) == 0
    # on this grid the block's vertex and segment stages decide every draw
    assert all(r.solve_stages["active_set"] == 0 for r in reports)
    assert all(sum(r.solve_stages.values()) == r.replicates for r in reports)
    assert elapsed < 1800.0
    summary = ", ".join(f"M={M}: {s.regret:+.3f}±{s.ci_half_width:.3f}" for M, s in regrets.items())
    print(f"\nAC-2 grid-size independence: PASS ({summary}; trend {diff:+.3f} "
          f"<= {2 + 2 * combined:.3f}; {elapsed:.0f}s)")


def test_ac3_regret_scales_with_log_family_count(q_sweep):
    """Regret across unions of q families grows at most like log q."""
    reports, elapsed = q_sweep
    stats = {r.family_total: r.stats["q_agg"] for r in reports}
    r1, r16 = stats[1], stats[16]
    slack = r1.ci_half_width + r16.ci_half_width
    bound = r1.regret + 4.0 * SIGMA**2 * np.log(16.0) + slack
    assert r16.regret <= bound
    # least-squares fit regret ~ a + b log q for the record
    qs = np.array(sorted(stats))
    regs = np.array([stats[q].regret for q in qs])
    b, a = np.polyfit(np.log(qs), regs, 1)
    assert sum(r.solver_failures for r in reports) == 0
    assert all(sum(r.solve_stages.values()) == r.replicates for r in reports)
    assert elapsed < 1800.0
    print(f"\nAC-3 log-q scaling: PASS (regret q=1: {r1.regret:.3f}, q=16: {r16.regret:.3f} "
          f"<= {bound:.3f}; fitted slope {b:.3f}/log q; {elapsed:.0f}s)")


def test_ac4_objective_forms_identity():
    """Penalized and convex objective forms agree to 1e-9 relative."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(2, 7))
        M = int(rng.integers(2, 7))
        problem = random_problem(rng, n=n, p=p, M=M)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(n) * float(rng.uniform(0.5, 4.0))
        sigma = float(rng.uniform(0.3, 2.0))
        for _ in range(100):
            theta = rng.uniform(0.0, 1.0, size=M)
            theta /= theta.sum()
            a = q_objective(family, theta, y, sigma)
            b = q_objective_penalized(family, theta, y, sigma)
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    assert worst <= 1e-9
    print(f"\nAC-4 objective-form identity: PASS (worst relative gap {worst:.2e} on 10^4 pairs)")


def test_ac5_solver_correctness():
    """Solver matches simplex-grid brute force; certificates and gradients hold."""
    rng = np.random.default_rng(105)
    step = 1e-3
    worst_gap = 0.0
    for M in (2, 3):
        for _ in range(10):
            problem = random_problem(rng, n=8, p=4, M=M)
            family = build_tikhonov_family(problem)
            y = rng.standard_normal(8)
            sigma = 1.0
            report = solve_q_aggregation(family, y, sigma)
            assert report.kkt_residual >= -1e-7 * (1.0 + abs(report.objective))
            recheck = certify_kkt(family, report.weights.theta, y, sigma)
            assert recheck >= -1e-7 * (1.0 + abs(report.objective))
            fits = np.stack([apply_member(family, j, y) for j in range(M)])
            df = FamilyUnion.of(family).df
            resid = np.einsum("ij,ij->i", fits - y, fits - y)
            if M == 2:
                t = np.arange(0.0, 1.0 + step / 2, step)
                thetas = np.column_stack([t, 1.0 - t])
                agg = thetas @ fits
                vals = (
                    0.5 * np.einsum("ij,ij->i", agg - y, agg - y)
                    + 2 * sigma**2 * thetas @ df
                    + 0.5 * thetas @ resid
                )
                best = float(vals.min())
            else:
                best = np.inf
                for t1 in np.arange(0.0, 1.0 + step / 2, step):
                    t2 = np.arange(0.0, 1.0 - t1 + step / 2, step)
                    thetas = np.column_stack([np.full_like(t2, t1), t2, 1.0 - t1 - t2])
                    agg = thetas @ fits
                    vals = (
                        0.5 * np.einsum("ij,ij->i", agg - y, agg - y)
                        + 2 * sigma**2 * thetas @ df
                        + 0.5 * thetas @ resid
                    )
                    best = min(best, float(vals.min()))
            gap = abs(report.objective - best)
            assert report.objective <= best + 1e-7
            assert gap < 1e-5
            worst_gap = max(worst_gap, gap)
    # analytic gradient vs central differences on 100 interior points
    worst_grad = 0.0
    checked = 0
    while checked < 100:
        problem = random_problem(rng, n=9, p=5, M=5)
        family = build_tikhonov_family(problem)
        y = rng.standard_normal(9) * 2.0
        sigma = float(rng.uniform(0.5, 1.5))
        for _ in range(10):
            theta = rng.uniform(0.05, 1.0, size=5)
            theta /= theta.sum()
            grad = q_gradient(family, theta, y, sigma)
            h = 1e-6
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                fd = (
                    q_objective(family, theta + e, y, sigma)
                    - q_objective(family, theta - e, y, sigma)
                ) / (2 * h)
                worst_grad = max(worst_grad, abs(grad[k] - fd) / max(1.0, abs(fd)))
            checked += 1
            if checked == 100:
                break
    assert worst_grad < 1e-5
    print(f"\nAC-5 solver correctness: PASS (grid gap <= {worst_gap:.2e}, "
          f"gradient error <= {worst_grad:.2e})")


def test_ac6_pointwise_excess_bound():
    """The excess inequality holds on 1000 simulated draws, zero violations."""
    config = ExperimentConfig(
        scenario=ScenarioSpec(
            n=40,
            sigma=SIGMA,
            mean=MeanSpec(shape="spectral-decay", rate=1.0, target_risk=8.0 * SIGMA**2),
        ),
        families=(FamilySpec(p=20, grid=GridSpec(count=12)),),
        replicates=1000,
        seed=20240813,
        methods=("q_agg",),
        lemma_check=True,
        label="ac6",
    )
    report = run_experiment(config, threads=2)
    assert report.solver_failures == 0
    assert report.lemma_violations == 0
    print(f"\nAC-6 pointwise excess bound: PASS (0 violations on 1000 draws, "
          f"worst slack margin {report.lemma_worst_gap:.2e})")


def test_ac7_ordered_family_validation():
    """Random Tikhonov families satisfy the axioms; the counterexample fails."""
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(2, 8))
        M = int(rng.integers(2, 6))
        X = rng.standard_normal((n, p))
        scale = float(np.mean(np.linalg.svd(X, compute_uv=False) ** 2))
        lambdas = np.sort(scale * rng.uniform(1e-3, 1e3, size=M))
        while np.any(np.diff(lambdas) == 0):
            lambdas = np.sort(scale * rng.uniform(1e-3, 1e3, size=M))
        problem = DesignProblem(X=X, K=random_spd(rng, p), lambdas=lambdas)
        family = build_tikhonov_family(problem)
        mats = [member_matrix(family, j) for j in range(M)]
        report = check_ordered(mats)
        assert report.passed, report.failures
    counter = check_ordered([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert counter.shrinkage_ok and counter.commute_ok and not counter.comparable_ok
    print("\nAC-7 ordered-family validation: PASS (20 random families pass, "
          "incomparable projections fail axiom (iii))")


def test_ac8_excess_tail_bounded(m_sweep):
    """The 0.99 per-draw excess quantile stays below 40 sigma^2 for every M."""
    reports, _ = m_sweep
    tails = {r.member_total: r.excess_quantiles["q99"] for r in reports}
    for M, q99 in tails.items():
        assert q99 <= 40.0 * SIGMA**2, f"q99 {q99:.2f} at M={M}"
    summary = ", ".join(f"M={M}: {v:.2f}" for M, v in tails.items())
    print(f"\nAC-8 excess tail: PASS (0.99 quantiles {summary}, all <= 40)")


def test_ac9_bench_outputs_deterministic(tmp_path):
    """Equal seeds produce byte-identical CSV outputs."""
    config = {
        "label": "ac9",
        "scenario": {
            "n": 30,
            "sigma": 1.0,
            "mean": {"shape": "spectral-decay", "rate": 1.0, "scale": 2.0},
        },
        "families": [{"p": 12, "penalty": "identity", "grid": {"count": 6}}],
        "replicates": 40,
        "seed": 9,
        "sweep": {"M": [2, 6]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["bench", "--config", str(config_path), "--output", str(out)]) == 0
        assert main(
            ["bench", "--config", str(config_path), "--output", str(out / "sweep"), "--sweep", "M"]
        ) == 0
        outs.append(out)
    plain_equal = (outs[0] / "reports.csv").read_bytes() == (outs[1] / "reports.csv").read_bytes()
    sweep_equal = (
        (outs[0] / "sweep" / "reports.csv").read_bytes()
        == (outs[1] / "sweep" / "reports.csv").read_bytes()
    )
    assert plain_equal and sweep_equal
    print("\nAC-9 determinism: PASS (plain and sweep CSVs byte-identical across runs)")
