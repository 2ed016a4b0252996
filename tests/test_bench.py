"""Monte Carlo harness: configs, determinism, consistency, sweeps."""

import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qagg.bench
from conftest import first_vertex_faces
from qagg.aggregate import (
    SOLVE_STAGES,
    _block_solve,
    _cp,
    _gcv_scores,
    _response,
    _softmax,
    exponential_weights,
    member_fits,
    select_cp,
    select_gcv,
    solve_q_aggregation,
)
from qagg.bench import (
    BLOCK_ENTRIES,
    ConfigError,
    ExperimentConfig,
    FamilySpec,
    GridSpec,
    MeanSpec,
    PenaltySpec,
    ScenarioSpec,
    _block_width,
    _build_families,
    _calibrate_mean,
    _design_rng,
    _mean_unit,
    _quantiles,
    _replicate_block,
    _replicate_rng,
    build_instance,
    regret_vs_M_sweep,
    regret_vs_q_sweep,
    run_experiment,
    write_report_json,
    write_reports_csv,
)
from qagg.smoother import FamilyUnion, GroundTruth, member_risks


def small_config(**overrides):
    defaults = dict(
        scenario=ScenarioSpec(
            n=24, sigma=1.0, mean=MeanSpec(shape="spectral-decay", rate=1.0, scale=3.0)
        ),
        families=(FamilySpec(p=10, grid=GridSpec(count=6)),),
        replicates=60,
        seed=42,
        label="unit",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = small_config(
            sweep_m=(2, 4), sweep_q=(1, 2), members_per_family=4, lemma_check=True
        )
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "overrides",
        [
            # every mean shape, with the fields its shape does not use set too
            dict(scenario=ScenarioSpec(n=24, mean=MeanSpec(rate=2.0, coordinate=3, scale=5.0))),
            dict(scenario=ScenarioSpec(n=24, mean=MeanSpec(
                shape="spectral-decay", rate=1.5, coordinate=2, scale=4.0, target_risk=12.0))),
            dict(scenario=ScenarioSpec(n=24, mean=MeanSpec(
                shape="single-spike", rate=3.0, coordinate=1, scale=2.0))),
            dict(scenario=ScenarioSpec(n=24, sigma=0.5, mean=MeanSpec(
                shape="explicit", rate=0.5, scale=2.0, values=tuple(np.linspace(0.0, 1.0, 24))))),
            # both penalty kinds, absolute and relative grids
            dict(families=(FamilySpec(p=10, penalty=PenaltySpec(exponent=1.5)),)),
            dict(families=(
                FamilySpec(p=10, penalty=PenaltySpec(kind="diag-power", exponent=2.0),
                           grid=GridSpec(min=0.1, max=10.0, count=5, absolute=True)),
                FamilySpec(p=10, grid=GridSpec(min=1e-2, max=1e2, count=7)),
            )),
            # both sweeps, and a member count without any sweep
            dict(sweep_m=(2, 4), sweep_q=(1, 2), members_per_family=4),
            dict(members_per_family=5, methods=("q_agg", "oracle"), lemma_check=True),
        ],
        ids=["zero", "spectral-decay", "single-spike", "explicit", "identity", "diag-power",
             "both-sweeps", "no-sweep"],
    )
    def test_round_trip_keeps_every_field(self, overrides):
        cfg = small_config(**overrides)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_readme_schema_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"Config schema.*?```json\n(.*?)```", readme, re.DOTALL)
        cfg = ExperimentConfig.from_dict(json.loads(block.group(1)))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_named(self):
        data = small_config().to_dict()
        data["scenario"]["typo"] = 1
        with pytest.raises(ConfigError, match="scenario.typo"):
            ExperimentConfig.from_dict(data)

    def test_missing_replicates_named(self):
        data = small_config().to_dict()
        del data["replicates"]
        with pytest.raises(ConfigError, match="replicates"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("count", [0, -2])
    def test_members_per_family_below_1_named(self, count):
        data = small_config().to_dict()
        data["sweep"] = {"q": [1, 2], "members_per_family": count}
        with pytest.raises(ConfigError, match=r"'sweep\.members_per_family' must be >= 1"):
            ExperimentConfig.from_dict(data)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="methods"):
            small_config(methods=("q_agg", "mystery"))

    def test_mismatched_family_dims_rejected(self):
        with pytest.raises(ConfigError, match="families"):
            small_config(
                families=(FamilySpec(p=10), FamilySpec(p=12)),
            )

    def test_lemma_check_needs_q_agg(self):
        with pytest.raises(ConfigError, match="lemma_check"):
            small_config(methods=("cp_select",), lemma_check=True)

    def test_target_risk_needs_spectral_mean(self):
        with pytest.raises(ConfigError, match="target_risk"):
            MeanSpec(shape="zero", target_risk=5.0)

    @pytest.mark.parametrize("shape", ["zero", "spectral-decay", "single-spike"])
    def test_mean_values_need_the_explicit_shape(self, shape):
        with pytest.raises(ConfigError, match=f"'scenario.mean.values' needs .*'{shape}'"):
            MeanSpec(shape=shape, values=(1.0,) * 24)
        data = small_config().to_dict()
        data["scenario"]["mean"] = {"shape": shape, "values": [1.0] * 24}
        with pytest.raises(ConfigError, match="'scenario.mean.values' needs the explicit"):
            ExperimentConfig.from_dict(data)

    def test_explicit_mean_length_checked(self):
        cfg = small_config(
            scenario=ScenarioSpec(n=24, sigma=1.0, mean=MeanSpec(shape="explicit", values=(1.0,)))
        )
        with pytest.raises(ConfigError, match="values"):
            build_instance(cfg)


def bisection_scale(candidates, mu_unit, sigma, target):
    """Scale t with min_j (v_j + t^2 b_j) = target by bracket doubling and 200 bisections.

    The search bench used before the closed form; kept as its reference oracle.
    """
    variances = member_risks(candidates, GroundTruth(mu=np.zeros(mu_unit.size), sigma=sigma))
    bias_unit = member_risks(candidates, GroundTruth(mu=mu_unit, sigma=sigma)) - variances

    def oracle_risk_at(t):
        return float(np.min(variances + t**2 * bias_unit))

    hi = 1.0
    while oracle_risk_at(hi) < target:
        hi *= 2.0
        assert hi <= 1e12, "failed to bracket the target risk"
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_risk_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInstance:
    def test_target_risk_calibration(self):
        cfg = small_config(
            scenario=ScenarioSpec(
                n=40, sigma=1.2, mean=MeanSpec(shape="spectral-decay", rate=1.0, target_risk=10.0)
            ),
            families=(FamilySpec(p=20, grid=GridSpec(count=12)),),
        )
        instance = build_instance(cfg)
        assert abs(instance.oracle_risk - 10.0) < 1e-6

    def test_unreachable_target_risk_rejected(self):
        cfg = small_config(
            scenario=ScenarioSpec(
                n=24,
                sigma=1.0,
                mean=MeanSpec(shape="spectral-decay", rate=1.0, target_risk=1000.0),
            ),
            families=(
                FamilySpec(p=10, grid=GridSpec(min=1e-12, max=1e3, count=6)),
            ),
        )
        with pytest.raises(ConfigError, match="target_risk"):
            build_instance(cfg)

    @pytest.mark.parametrize("n, p", [(30, 12), (12, 30)], ids=["n>p", "n<p"])
    @pytest.mark.parametrize(
        "penalty", [PenaltySpec(), PenaltySpec("diag-power", 1.5), PenaltySpec("diag-power", -2.0)],
        ids=["identity", "power-1.5", "power-minus-2"],
    )
    def test_relative_grid_scale_is_mean_squared_singular_value(self, n, p, penalty):
        # a one-point relative grid at 1.0 is the scale itself
        cfg = small_config(
            scenario=ScenarioSpec(n=n, mean=MeanSpec(shape="spectral-decay")),
            families=(FamilySpec(p=p, penalty=penalty, grid=GridSpec(min=1.0, max=1.0, count=1)),),
        )
        (family,) = _build_families(cfg)
        X = _design_rng(cfg.seed).standard_normal((n, p))
        d = np.arange(1.0, p + 1.0) ** penalty.exponent
        expected = np.mean(np.linalg.svd(X / np.sqrt(d), compute_uv=False) ** 2)
        assert family.lambdas.shape == (1,)
        assert abs(family.lambdas[0] - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize(
        "mean",
        [MeanSpec(shape="spectral-decay", rate=1.0), MeanSpec(shape="spectral-decay", rate=0.5),
         MeanSpec(shape="single-spike", coordinate=0), MeanSpec(shape="single-spike", coordinate=9)],
        ids=["decay-1", "decay-0.5", "spike-first", "spike-last"],
    )
    @pytest.mark.parametrize(
        "grid",
        [GridSpec(count=12), GridSpec(min=1e-2, max=1e2, count=5),
         GridSpec(min=0.5, max=50.0, count=8, absolute=True)],
        ids=["default", "narrow", "absolute"],
    )
    def test_closed_form_calibration_matches_bisection(self, seed, mean, grid):
        sigma = 1.3
        cfg = small_config(
            scenario=ScenarioSpec(n=24, sigma=sigma, mean=mean),
            families=(FamilySpec(p=10, grid=grid),),
            seed=seed,
        )
        families = _build_families(cfg)
        candidates = FamilyUnion(families=tuple(families))
        mu_unit = _mean_unit(mean, families[0], 24)
        variances = member_risks(candidates, GroundTruth(mu=np.zeros(24), sigma=sigma))
        for frac in (0.05, 0.5, 0.95):
            # targets inside the reachable range (floor, cap)
            target = variances.min() + frac * (variances.max() - variances.min())
            mu = _calibrate_mean(candidates, mu_unit, sigma, target)
            t = bisection_scale(candidates, mu_unit, sigma, target)
            np.testing.assert_allclose(mu, t * mu_unit, rtol=1e-12, atol=0)
            calibrated = replace(cfg, scenario=replace(
                cfg.scenario, mean=replace(mean, target_risk=float(target))))
            risk = build_instance(calibrated).oracle_risk
            assert abs(risk - target) <= 1e-12 * target

    def test_oracle_matches_member_risks(self):
        instance = build_instance(small_config())
        risks = member_risks(instance.candidates, instance.truth)
        assert instance.oracle_member == int(np.argmin(risks))
        assert instance.oracle_risk == float(risks.min())

    def test_single_spike_mean(self):
        cfg = small_config(
            scenario=ScenarioSpec(
                n=24, sigma=1.0, mean=MeanSpec(shape="single-spike", coordinate=2, scale=4.0)
            )
        )
        instance = build_instance(cfg)
        (fam,) = instance.candidates.families
        coords = fam.basis.T @ instance.truth.mu
        assert abs(coords[2] - 4.0) < 1e-10
        assert np.abs(np.delete(coords, 2)).max() < 1e-10


    def test_explicit_mean_is_the_ground_truth(self, rng):
        values = rng.standard_normal(24)
        cfg = small_config(
            scenario=ScenarioSpec(
                n=24, sigma=1.0, mean=MeanSpec(shape="explicit", values=tuple(values))
            ),
            replicates=10,
        )
        report = run_experiment(cfg)
        risks = member_risks(build_instance(cfg).candidates, GroundTruth(mu=values, sigma=1.0))
        assert report.oracle_member == int(np.argmin(risks))
        assert report.oracle_risk == float(risks.min())


class TestRunExperiment:
    def test_single_member_zero_mean_has_zero_regret(self):
        cfg = small_config(
            scenario=ScenarioSpec(n=16, sigma=1.0, mean=MeanSpec(shape="zero")),
            families=(FamilySpec(p=6, grid=GridSpec(count=1)),),
            replicates=80,
        )
        report = run_experiment(cfg)
        for name, s in report.stats.items():
            assert abs(s.regret) <= max(3 * s.ci_half_width, 1e-9), name
        assert report.excess_quantiles == {"q50": 0.0, "q90": 0.0, "q99": 0.0}
        assert report.solver_failures == 0

    def test_identical_families_have_zero_excess(self):
        # two single-member families with the same penalty and grid: all
        # members coincide, so every method is the oracle
        fam = FamilySpec(p=6, grid=GridSpec(count=1))
        cfg = small_config(
            scenario=ScenarioSpec(n=16, sigma=1.0, mean=MeanSpec(shape="zero")),
            families=(fam, fam),
            replicates=50,
        )
        report = run_experiment(cfg)
        assert report.family_total == 2
        assert report.excess_quantiles["q99"] <= 1e-12

    def test_excess_quantiles_match_numpy_bitwise(self, rng):
        # the sort-based rule must give np.quantile's bits, or reports.csv would move
        qs = (0.5, 0.9, 0.99)
        for n in (1, 2, 3, 7, 199, 200, 201, 1000):
            for values in (rng.standard_normal(n), np.round(rng.exponential(size=n), 1),
                           np.where(rng.random(n) < 0.5, 0.0, rng.exponential(size=n))):
                want = np.quantile(values, qs)
                assert _quantiles(values, qs).tobytes() == want.tobytes(), n

    def test_seed_determinism(self):
        cfg = small_config(replicates=40)
        a = run_experiment(cfg).to_dict()
        b = run_experiment(cfg).to_dict()
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(seed=1, replicates=30))
        b = run_experiment(small_config(seed=2, replicates=30))
        assert a.stats["q_agg"].mean_risk != b.stats["q_agg"].mean_risk

    @pytest.mark.parametrize("threads", [2, 3])
    def test_parallel_matches_serial_bitwise(self, threads):
        # the second config spans five blocks, the last one partial, on a union
        # wide enough for the narrowest blocks; its blocks split unevenly over
        # 2 workers (3 + 2) and over 3 (2 + 2 + 1)
        union = (
            FamilySpec(p=10, grid=GridSpec(count=BLOCK_ENTRIES // 64)),
            FamilySpec(p=10, penalty=PenaltySpec("diag-power", 2.0),
                       grid=GridSpec(count=BLOCK_ENTRIES // 64)),
        )
        width = _block_width(small_config(families=union))
        wide = small_config(replicates=4 * width + 5, families=union)
        assert width == 32 and len(range(0, wide.replicates, _block_width(wide))) == 5
        for cfg in (small_config(replicates=30), wide):
            serial = run_experiment(cfg, threads=1).to_dict()
            parallel = run_experiment(cfg, threads=threads).to_dict()
            serial.pop("runtime_seconds")
            parallel.pop("runtime_seconds")
            assert serial == parallel

    def test_block_engine_matches_per_response_functions(self):
        # grids wide enough for the narrowest blocks, so the draws span two blocks
        single = (FamilySpec(p=10, grid=GridSpec(count=BLOCK_ENTRIES // 32)),)
        union = tuple(
            FamilySpec(p=10, penalty=PenaltySpec("diag-power", g),
                       grid=GridSpec(count=BLOCK_ENTRIES // 96 + 1))
            for g in (0.0, 1.5, 3.0)
        )
        for families in (single, union):
            cfg = small_config(families=families, replicates=39)
            instance = build_instance(cfg)
            cands, mu, sigma = instance.candidates, instance.truth.mu, instance.truth.sigma
            mean = _response(cands, mu)
            width = _block_width(cfg)
            starts = range(0, cfg.replicates, width)
            assert width == 32 and len(starts) == 2
            blocks = [_replicate_block(instance, cfg, mean, s) for s in starts]
            engine = {name: np.concatenate([b[name] for b in blocks]) for name in cfg.methods}
            Y = np.column_stack([
                mu + sigma * _replicate_rng(cfg.seed, i).standard_normal(mu.size)
                for i in range(cfg.replicates)
            ])
            block = _response(cands, Y[:, :width], block=True)
            cp_choice = _cp(block, sigma).argmin(axis=-1)
            gcv_choice = _gcv_scores(block).argmin(axis=-1)
            ew_theta = _softmax(_cp(block, sigma), sigma)
            for i, y in enumerate(Y.T):
                member = member_fits(cands, y)
                fits = {
                    "oracle": member[instance.oracle_member],
                    "cp_select": member[select_cp(cands, y, sigma)],
                    "gcv": member[select_gcv(cands, y)],
                    "exp_weights": exponential_weights(cands, y, sigma).fitted,
                    "q_agg": solve_q_aggregation(cands, y, sigma).weights.fitted,
                }
                for name, fit in fits.items():
                    expected = float((fit - mu) @ (fit - mu))
                    assert abs(engine[name][i] - expected) <= 1e-10 * expected, (name, i)
                if i < width:
                    assert cp_choice[i] == select_cp(cands, y, sigma)
                    assert gcv_choice[i] == select_gcv(cands, y)
                    np.testing.assert_allclose(
                        ew_theta[i], exponential_weights(cands, y, sigma).theta, rtol=1e-10
                    )

    def test_block_width_follows_the_config_alone(self):
        # (members, replicates, width): wide blocks up to BLOCK_ENTRIES entries, at least 32
        for counts, replicates, width in [
            ((2,), 200, 200), ((16,) * 4, 200, 200), ((16,) * 16, 200, 100),
            ((1000,), 200, 32), ((1000,), 5000, 32), ((30_000,), 40, 32), ((6, 5), 40, 40),
        ]:
            families = tuple(FamilySpec(p=10, grid=GridSpec(count=c)) for c in counts)
            cfg = small_config(families=families, replicates=replicates)
            got = _block_width(cfg)
            assert got == width and 32 <= got <= replicates
            again = ExperimentConfig.from_dict(replace(cfg, seed=7, label="other").to_dict())
            assert _block_width(again) == width

    def test_oracle_estimate_consistent_with_exact_risk(self):
        cfg = small_config(replicates=400, methods=("oracle",))
        report = run_experiment(cfg)
        s = report.stats["oracle"]
        assert abs(s.mean_risk - report.oracle_risk) <= 3 * s.std_error

    def test_lemma_check_passes(self):
        cfg = small_config(replicates=60, lemma_check=True)
        report = run_experiment(cfg)
        assert report.lemma_violations == 0

    def test_lemma_check_passes_on_block_decided_draws(self):
        union = tuple(
            FamilySpec(p=10, penalty=PenaltySpec("diag-power", g), grid=GridSpec(count=5))
            for g in (0.0, 1.5, 3.0)
        )
        for families in (small_config().families, union):
            cfg = small_config(replicates=60, families=families, lemma_check=True)
            report = run_experiment(cfg)
            assert report.lemma_violations == 0
            assert sum(report.solve_stages.values()) == 60
            assert report.solve_stages["vertex"] > 0 and report.solve_stages["segment"] > 0

    @staticmethod
    def union_config():
        # 10 of these 30 draws are left to the kernel by the vertex and segment stages
        union = tuple(
            FamilySpec(p=10, penalty=PenaltySpec("diag-power", g), grid=GridSpec(count=6))
            for g in (0.0, 1.5, 3.0)
        )
        return small_config(replicates=30, families=union)

    def test_non_converged_draws_are_scored_and_counted(self, monkeypatch):
        # A kernel face solve that never leaves the face's first vertex stalls
        # every draw left to the kernel; each is scored at the vertex it stopped at.
        cfg = self.union_config()
        instance = build_instance(cfg)
        cands, mu, sigma = instance.candidates, instance.truth.mu, instance.truth.sigma
        ys = [mu + sigma * _replicate_rng(cfg.seed, i).standard_normal(mu.size) for i in range(30)]
        clean = [solve_q_aggregation(cands, y, sigma) for y in ys]
        with monkeypatch.context() as patch:
            patch.setattr(qagg.aggregate, "_face_solve", first_vertex_faces)
            report = run_experiment(cfg)
            stalled = [solve_q_aggregation(cands, y, sigma) for y in ys]
        assert report.solver_failures == 10
        assert report.solve_stages["active_set"] == 10 and sum(report.solve_stages.values()) == 30
        assert report.solver_fallbacks == {"ridge": 0, "stalled": 10}
        fits = [
            (s if c.iterations >= 3 else c).weights.fitted for c, s in zip(clean, stalled)
        ]
        assert sum(c.iterations >= 3 and not s.converged for c, s in zip(clean, stalled)) == 10
        losses = np.array([float((fit - mu) @ (fit - mu)) for fit in fits])
        assert abs(report.stats["q_agg"].mean_risk - losses.mean()) <= 1e-10 * losses.mean()
        assert run_experiment(cfg).solver_failures == 0

    def test_kernel_draw_left_on_one_member_is_scored_as_a_vertex(self, monkeypatch):
        # a stalled kernel draw stops on its starting vertex; with that vertex as
        # the oracle, its excess is exactly zero, as for a vertex-stage draw
        cfg = self.union_config()
        instance = build_instance(cfg)
        mu, sigma = instance.truth.mu, instance.truth.sigma
        Y = np.column_stack(
            [mu + sigma * _replicate_rng(cfg.seed, i).standard_normal(mu.size) for i in range(30)]
        )
        monkeypatch.setattr(qagg.aggregate, "_face_solve", first_vertex_faces)
        theta, _, _, stage, _, converged, _, _ = _block_solve(
            _response(instance.candidates, Y, block=True), sigma
        )
        kernel = np.flatnonzero(stage == SOLVE_STAGES.index("active_set"))
        assert kernel.size and not converged[kernel].any()
        assert ((theta[kernel] > 0).sum(axis=1) == 1).all()
        for b in kernel[:3]:
            oracle = replace(instance, oracle_member=int(theta[b].argmax()))
            out = _replicate_block(oracle, cfg, _response(instance.candidates, mu), 0)
            assert out["excess"][b] == 0.0 and not out["converged"][b]

    def test_methods_subset_respected(self):
        cfg = small_config(methods=("cp_select", "gcv"), replicates=20)
        report = run_experiment(cfg)
        assert set(report.stats) == {"cp_select", "gcv"}
        assert report.excess_quantiles == {}
        assert report.solve_stages == dict.fromkeys(SOLVE_STAGES, 0)
        assert report.solver_fallbacks == {"ridge": 0, "stalled": 0}
        assert report.solver_failures == 0


class TestSweeps:
    def test_nested_m_sweep_has_monotone_oracle_risk(self):
        cfg = small_config(
            scenario=ScenarioSpec(
                n=30, sigma=1.0, mean=MeanSpec(shape="spectral-decay", rate=1.0, target_risk=6.0)
            ),
            families=(FamilySpec(p=12, grid=GridSpec(count=10)),),
            replicates=10,
        )
        reports = regret_vs_M_sweep(cfg, [2, 11, 101])
        risks = [r.oracle_risk for r in reports]
        assert risks[0] >= risks[1] - 1e-9
        assert risks[1] >= risks[2] - 1e-9
        assert [r.member_total for r in reports] == [2, 11, 101]
        assert [r.label for r in reports] == ["unit-M2", "unit-M11", "unit-M101"]

    @pytest.mark.parametrize("sweep", ["M", "q"])
    def test_point_configs_load_back_near_the_name_limit(self, tmp_path, sweep):
        # report_<label>-M10.json takes 255 bytes: the limit, with no room for another suffix
        label = "x" * 239
        if sweep == "M":
            cfg = ExperimentConfig.from_dict(
                small_config(replicates=5, label=label, sweep_m=(2, 10)).to_dict()
            )
            reports = regret_vs_M_sweep(cfg, cfg.sweep_m)
        else:
            cfg = ExperimentConfig.from_dict(
                small_config(replicates=5, label=label, sweep_q=(1, 10), members_per_family=2)
                .to_dict()
            )
            reports = regret_vs_q_sweep(cfg, cfg.sweep_q)
        for report in reports:
            path = tmp_path / f"report_{report.label}.json"
            write_report_json(report, path)
            again = ExperimentConfig.from_dict(json.loads(path.read_text())["config"])
            assert again == report.config
            assert again.sweep_m is None and again.sweep_q is None

    def test_m_sweep_requires_sorted_values(self):
        with pytest.raises(ConfigError, match="ascending"):
            regret_vs_M_sweep(small_config(), [10, 2])

    @pytest.mark.parametrize("m_values", [[4, 4], [2, 6, 6], [2, 6, 4]])
    def test_m_sweep_requires_strictly_ascending_values(self, m_values):
        with pytest.raises(ConfigError, match="'sweep.M' must be strictly ascending"):
            regret_vs_M_sweep(small_config(replicates=5), m_values)

    @pytest.mark.parametrize("q_values", [[2, 2], [1, 2, 1]])
    def test_q_sweep_requires_distinct_values(self, q_values):
        with pytest.raises(ConfigError, match="'sweep.q' must list distinct"):
            regret_vs_q_sweep(small_config(replicates=5, members_per_family=2), q_values)

    def test_q_sweep_requires_a_single_family(self):
        # every point's union is built from the one configured family's size and grid
        two = (FamilySpec(p=10), FamilySpec(p=10, penalty=PenaltySpec(exponent=2.0)))
        with pytest.raises(ConfigError, match="a q sweep needs a single-family config"):
            regret_vs_q_sweep(small_config(replicates=5, families=two, members_per_family=2), [1])

    def test_q_sweep_requires_the_identity_penalty(self):
        # every point sets its families' penalties, so another one would be ignored
        fam = FamilySpec(p=10, penalty=PenaltySpec("diag-power", 2.5))
        cfg = small_config(replicates=5, families=(fam,), members_per_family=2)
        with pytest.raises(ConfigError, match=r"'families\[0\]\.penalty' must be the identity"):
            regret_vs_q_sweep(cfg, [1, 2])

    def test_q_sweep_counts(self):
        cfg = small_config(replicates=15, members_per_family=3)
        reports = regret_vs_q_sweep(cfg, [1, 2, 4])
        assert [r.family_total for r in reports] == [1, 2, 4]
        assert [r.member_total for r in reports] == [3, 6, 12]

    def test_q_sweep_duplicate_family_matches_single(self):
        # q = 1 and q = 2 with identical penalties: regret must agree within CI
        cfg = small_config(replicates=60, members_per_family=4)
        base = cfg.families[0]
        fam_a = FamilySpec(p=base.p, grid=GridSpec(count=4))
        r1 = run_experiment(small_config(replicates=60, families=(fam_a,), label="one"))
        # identical second family (same penalty, same grid)
        r2 = run_experiment(
            small_config(replicates=60, families=(fam_a, fam_a), label="two")
        )
        assert abs(r1.oracle_risk - r2.oracle_risk) < 1e-9
        gap = abs(r1.stats["q_agg"].regret - r2.stats["q_agg"].regret)
        assert gap <= r1.stats["q_agg"].ci_half_width + r2.stats["q_agg"].ci_half_width + 1e-6


class TestSweepSharing:
    """A sweep's points share noise draws and factorizations, and nothing outlives it."""

    REPLICATES = 69

    @staticmethod
    def sweep(kind, threads=1):
        # the points run in blocks of different widths; the widest point is one
        # block, and the last runs in three, the last one partial, so that two
        # workers split its replicates
        cfg = small_config(replicates=TestSweepSharing.REPLICATES, members_per_family=225)
        if kind == "M":
            base = cfg.families[0]
            ref = replace(cfg, families=(replace(base, grid=replace(base.grid, count=900)),))
            reports = regret_vs_M_sweep(cfg, [2, 450, 900], threads=threads)
        else:
            ref = replace(cfg, families=qagg.bench._q_sweep_families(cfg.families[0], 1, 225))
            reports = regret_vs_q_sweep(cfg, [1, 2, 4], threads=threads)
        widths = [_block_width(r.config) for r in reports]
        assert widths[0] == TestSweepSharing.REPLICATES > widths[1] > widths[2] == 32
        return ref, reports

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["M", "q"])
    def test_points_equal_standalone_runs(self, kind, threads):
        ref, reports = self.sweep(kind, threads)
        mu = build_instance(ref).truth.mu
        for report in reports:
            alone = run_experiment(report.config, threads=threads, mu_override=mu).to_dict()
            shared = report.to_dict()
            alone.pop("runtime_seconds")
            shared.pop("runtime_seconds")
            assert shared == alone

    @pytest.mark.parametrize("kind, builds", [("M", 1), ("q", 4)])
    def test_each_sweep_draws_and_factorizes_once(self, kind, builds, monkeypatch):
        # q in {1, 2, 4} uses the penalty exponents {0}, {0, 3} and {0, 1, 2, 3}
        draws, factorizations = [], []
        rng, build = qagg.bench._replicate_rng, qagg.bench.build_tikhonov_family
        monkeypatch.setattr(qagg.bench, "_replicate_rng",
                            lambda seed, index: draws.append(index) or rng(seed, index))
        monkeypatch.setattr(qagg.bench, "build_tikhonov_family",
                            lambda *args: factorizations.append(1) or build(*args))
        replicates = self.REPLICATES
        for _ in range(2):  # back to back: the second sweep draws everything again
            draws.clear()
            factorizations.clear()
            self.sweep(kind)
            assert sorted(draws) == list(range(replicates))
            assert len(factorizations) == builds
        assert qagg.bench._sweep_store.get() is None

    @pytest.mark.parametrize("kind", ["M", "q"])
    def test_noise_past_the_store_cap_is_drawn_again(self, kind, monkeypatch, tmp_path):
        _, shared = self.sweep(kind)
        draws = []
        rng = qagg.bench._replicate_rng
        monkeypatch.setattr(qagg.bench, "_replicate_rng",
                            lambda seed, index: draws.append(index) or rng(seed, index))
        monkeypatch.setattr(qagg.bench, "NOISE_STORE_BYTES", 0)
        _, redrawn = self.sweep(kind)
        # every point draws every replicate again, each block only its own rows,
        # and its report is unchanged
        assert sorted(draws) == sorted(3 * list(range(self.REPLICATES)))
        for name, reports in (("shared.csv", shared), ("redrawn.csv", redrawn)):
            write_reports_csv(reports, tmp_path / name)
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "redrawn.csv").read_bytes()
        for a, b in zip(shared, redrawn):
            assert replace(a, runtime_seconds=0.0) == replace(b, runtime_seconds=0.0)

    @pytest.mark.parametrize("kind", ["M", "q"])
    def test_a_cap_of_k_rows_keeps_the_first_k_replicates(self, kind, monkeypatch, tmp_path):
        _, shared = self.sweep(kind)
        k, n = 40, small_config().scenario.n
        draws, kept = [], []
        rng, run = qagg.bench._replicate_rng, qagg.bench.run_experiment

        def run_and_look(cfg, **kwargs):
            report = run(cfg, **kwargs)
            kept.append(sorted(qagg.bench._sweep_store.get()["noise"]))
            return report

        monkeypatch.setattr(qagg.bench, "_replicate_rng",
                            lambda seed, index: draws.append(index) or rng(seed, index))
        monkeypatch.setattr(qagg.bench, "run_experiment", run_and_look)
        monkeypatch.setattr(qagg.bench, "NOISE_STORE_BYTES", k * n * 8)
        _, capped = self.sweep(kind)
        # replicates 0..k-1 are kept from the first point on; the two later points
        # draw again only the rows from k on, and every report is unchanged
        assert kept == 3 * [list(range(k))]
        redrawn = list(range(k, self.REPLICATES))
        assert sorted(draws) == sorted([*range(self.REPLICATES), *redrawn, *redrawn])
        for name, reports in (("shared.csv", shared), ("capped.csv", capped)):
            write_reports_csv(reports, tmp_path / name)
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "capped.csv").read_bytes()

    def test_pool_workers_draw_no_rows(self, monkeypatch, tmp_path):
        # every point spans two or more blocks and so runs in the pool; the rows are
        # drawn in this process before each pool forks, and the workers inherit them
        cfg = small_config(replicates=120, members_per_family=225)
        pid, rng = os.getpid(), qagg.bench._replicate_rng

        def parent_only(seed, index):
            if os.getpid() != pid:
                raise AssertionError(f"a pool worker drew replicate {index}")
            return rng(seed, index)

        monkeypatch.setattr(qagg.bench, "_replicate_rng", parent_only)
        for threads in (1, 2):
            reports = regret_vs_q_sweep(cfg, [1, 2, 4], threads=threads)
            assert all(_block_width(r.config) < cfg.replicates for r in reports)
            write_reports_csv(reports, tmp_path / f"threads{threads}.csv")
        assert (tmp_path / "threads1.csv").read_bytes() == (tmp_path / "threads2.csv").read_bytes()

    def test_store_is_dropped_when_a_point_fails(self, monkeypatch):
        run = qagg.bench.run_experiment
        seen = []

        def fail_second(cfg, *, threads=1, mu_override=None):
            if seen:
                raise ConfigError("key 'scenario': failed on purpose")
            store = qagg.bench._sweep_store.get()
            seen.append((sorted(key for key in store if key != "noise"), len(store["noise"])))
            return run(cfg, threads=threads, mu_override=mu_override)

        monkeypatch.setattr(qagg.bench, "run_experiment", fail_second)
        with pytest.raises(ConfigError, match="on purpose"):
            regret_vs_M_sweep(small_config(replicates=5), [2, 4])
        # the reference grid's family, on the identity penalty, was shared; no noise yet
        assert seen == [([np.ones(10).tobytes()], 0)]
        assert qagg.bench._sweep_store.get() is None

    def test_a_run_in_another_thread_sees_none_of_the_store(self, monkeypatch):
        # the sweep pauses after its reference build, which keeps seed 1's identity
        # family; a plain run of seed 7 on the same shapes goes through meanwhile in
        # this thread, and then the sweep goes on.  Neither reads what the other keeps.
        sweep_cfg = small_config(replicates=40, seed=1)
        run_cfg = replace(sweep_cfg, seed=7)
        alone = [*regret_vs_M_sweep(sweep_cfg, [2, 6]), run_experiment(run_cfg)]
        build, paused, resume = qagg.bench.build_instance, threading.Event(), threading.Event()

        def pause_once(cfg, mu_override=None):
            instance = build(cfg, mu_override=mu_override)
            if threading.current_thread() is sweeper and not paused.is_set():
                paused.set()
                resume.wait(60)
            return instance

        monkeypatch.setattr(qagg.bench, "build_instance", pause_once)
        swept = []
        sweeper = threading.Thread(
            target=lambda: swept.extend(regret_vs_M_sweep(sweep_cfg, [2, 6])))
        sweeper.start()
        try:
            assert paused.wait(60)
            beside = run_experiment(run_cfg)
        finally:
            resume.set()
            sweeper.join(60)
        assert not sweeper.is_alive() and len(swept) == 2
        for a, b in zip([*swept, beside], alone):
            assert replace(a, runtime_seconds=0.0) == replace(b, runtime_seconds=0.0)
        assert qagg.bench._sweep_store.get() is None

    def test_a_single_run_keeps_nothing(self):
        run_experiment(small_config(replicates=5))
        assert qagg.bench._sweep_store.get() is None


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_config(replicates=20))
        path = tmp_path / "report.json"
        write_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["oracle_risk"] == report.oracle_risk
        assert loaded["methods"]["q_agg"]["regret"] == report.stats["q_agg"].regret
        assert loaded["solve_stages"] == report.solve_stages
        assert loaded["solver_fallbacks"] == report.solver_fallbacks == {"ridge": 0, "stalled": 0}
        again = ExperimentConfig.from_dict(loaded["config"])
        assert again == report.config

    def test_csv_layout(self, tmp_path):
        report = run_experiment(small_config(replicates=20))
        path = tmp_path / "reports.csv"
        write_reports_csv([report], path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "label", "members", "families", "seed", "replicates", "method", "mean_risk",
            "std_error", "oracle_risk", "regret", "ci_half_width", "excess_q50", "excess_q90",
            "excess_q99",
        ]
        assert len(lines) == 1 + len(report.stats)
        assert not {"solve_stages", *report.solve_stages} & set(header)
        row = dict(zip(header, lines[1].split(",")))
        assert row["method"] == "q_agg"
        assert float(row["regret"]) == report.stats["q_agg"].regret


def test_import_leaves_process_pool_unloaded():
    # the pool is imported only by a parallel run_experiment; a fresh
    # interpreter, as this one has loaded it already
    src = str(Path(qagg.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import sys, qagg, qagg.bench, qagg.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
