"""Command-line interface: exit codes, file formats, golden outputs."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import STRESS_CASES, member_matrix, random_spd, stress_problem

import qagg
from qagg.aggregate import cp_values, solve_q_aggregation
from qagg.cli import InputError, _load_array, main
from qagg.smoother import FamilyUnion
from qagg.spectral import (
    DesignProblem,
    build_tikhonov_family,
    recover_coefficients,
)


# Python 3.10, which requires-python admits, has no tomllib, and cli.py refuses TOML there
needs_tomllib = pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python >= 3.11")


@pytest.fixture
def toy_inputs(tmp_path, rng):
    X = rng.standard_normal((5, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.standard_normal(5)
    design = tmp_path / "X.csv"
    response = tmp_path / "y.csv"
    np.savetxt(design, X, delimiter=",")
    np.savetxt(response, y, delimiter=",")
    return X, y, design, response


def bench_config(tmp_path, **overrides):
    data = {
        "label": "cli",
        "scenario": {"n": 16, "sigma": 1.0, "mean": {"shape": "spectral-decay", "rate": 1.0, "scale": 2.0}},
        "families": [{"p": 6, "penalty": "identity", "grid": {"count": 4}}],
        "replicates": 25,
        "seed": 3,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestAggregateCommand:
    def test_matches_library_bit_for_bit(self, tmp_path, toy_inputs):
        X, y, design, response = toy_inputs
        out = tmp_path / "out"
        code = main(
            [
                "aggregate",
                "--design", str(design),
                "--response", str(response),
                "--lambdas", "0.5,2.0,8.0",
                "--sigma", "0.3",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())

        problem = DesignProblem(X=X, K=np.eye(3), lambdas=[0.5, 2.0, 8.0])
        family = build_tikhonov_family(problem)
        report = solve_q_aggregation(family, y, 0.3)
        assert payload["theta"] == report.weights.theta.tolist()
        assert payload["objective"] == report.objective
        assert payload["fitted"] == report.weights.fitted.tolist()
        assert payload["cp"] == cp_values(family, y, 0.3).tolist()
        assert payload["coefficients"] == recover_coefficients(family, report.weights).tolist()
        assert payload["converged"] is True

        # regenerate df and criterion values through the dense solve path
        for j, lam in enumerate([0.5, 2.0, 8.0]):
            A = X @ np.linalg.solve(X.T @ X + lam * np.eye(3), X.T)
            assert abs(payload["df"][j] - np.trace(A)) < 1e-10
            cp_dense = np.sum((A @ y - y) ** 2) + 2 * 0.3**2 * np.trace(A)
            assert abs(payload["cp"][j] - cp_dense) < 1e-10

        weights_lines = (out / "weights.csv").read_text().splitlines()
        assert weights_lines[0] == "member,lambda,theta,df,cp"
        assert len(weights_lines) == 4

    def test_csv_outputs_read_back_exactly(self, tmp_path, toy_inputs):
        # every number in the CSVs is a plain float literal that parses back to the same bits
        X, y, design, response = toy_inputs
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "0.5,2.0,8.0", "--sigma", "0.3", "--output", str(out)]
        )
        assert code == 0
        problem = DesignProblem(X=X, K=np.eye(3), lambdas=[0.5, 2.0, 8.0])
        family = build_tikhonov_family(problem)
        report = solve_q_aggregation(family, y, 0.3)
        weights = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1)
        expected = np.column_stack([
            np.arange(3.0), problem.lambdas, report.weights.theta,
            FamilyUnion.of(family).df, cp_values(family, y, 0.3),
        ])
        assert np.array_equal(weights, expected)
        coefficients = np.loadtxt(out / "coefficients.csv", delimiter=",")
        assert np.array_equal(coefficients, recover_coefficients(family, report.weights))
        fitted = np.loadtxt(out / "fitted.csv", delimiter=",")
        assert np.array_equal(fitted, report.weights.fitted)

    def test_single_member_grid_gets_unit_weight(self, tmp_path, toy_inputs):
        _, _, design, response = toy_inputs
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "1.0", "--sigma", "1.0", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["theta"] == [1.0]

    def test_zero_response_gives_zero_coefficients(self, tmp_path, toy_inputs):
        X, _, design, _ = toy_inputs
        response = design.parent / "zero.csv"
        np.savetxt(response, np.zeros(5), delimiter=",")
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "geom:0.1:10:4", "--sigma", "1.0", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert np.abs(np.array(payload["coefficients"])).max() < 1e-12
        assert np.abs(np.array(payload["fitted"])).max() < 1e-12

    def test_explicit_penalty_file(self, tmp_path, toy_inputs, rng):
        X, y, design, response = toy_inputs
        K = np.diag([1.0, 2.0, 3.0])
        penalty = tmp_path / "K.csv"
        np.savetxt(penalty, K, delimiter=",")
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--penalty", str(penalty), "--lambdas", "1.0,4.0", "--sigma", "0.5",
             "--output", str(out)]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "mutation, needle",
        [
            ({"--design": "missing.csv"}, "--design"),
            ({"--sigma": "-1.0"}, "--sigma"),
            ({"--lambdas": "geom:1:0.1:4"}, "--lambdas"),
            ({"--lambdas": "1.0,1.0"}, "--lambdas"),
            ({"--lambdas": "geom:1:10"}, "--lambdas"),
            ({"--lambdas": "geom:a:10:4"}, "--lambdas"),
            ({"--lambdas": "geom:1:10:0"}, "--lambdas"),
            ({"--lambdas": "geom:0:10:4"}, "--lambdas"),
            ({"--lambdas": "1.0,abc"}, "--lambdas"),
            ({"--lambdas": ","}, "--lambdas"),
            ({"--sigma": "inf"}, "--sigma"),
            ({"--sigma": "1e200"}, "--sigma"),
            ({"--sigma": "1e-200"}, "--sigma"),
            ({"--sigma": "1e154"}, "--sigma"),  # sigma^2 is finite, 2 sigma^2 df is not
            ({"--sigma": "-1e-3"}, "--sigma"),  # argparse alone takes these for flags
            ({"--sigma": "-inf"}, "--sigma"),
            ({"--sigma": "-nan"}, "--sigma"),
            ({"--sig": "-1e-3"}, "--sigma"),  # the last --sigma counts, by any prefix
        ],
    )
    def test_malformed_inputs_exit_2(self, tmp_path, toy_inputs, capsys, mutation, needle):
        _, _, design, response = toy_inputs
        argv = {
            "--design": str(design),
            "--response": str(response),
            "--lambdas": "0.5,2.0",
            "--sigma": "1.0",
            "--output": str(tmp_path / "out"),
        }
        argv.update(mutation)
        flat = ["aggregate"]
        for k, v in argv.items():
            flat += [k, v]
        assert main(flat) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["geom:1:inf:3", "geom:nan:1:2", "geom:1:nan:2"])
    def test_non_finite_geometric_bound_exit_2_without_warning(
        self, tmp_path, toy_inputs, capsys, grid
    ):
        _, _, design, response = toy_inputs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["aggregate", "--design", str(design), "--response", str(response),
                         "--lambdas", grid, "--sigma", "1.0", "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --lambdas: geometric grid needs 0 < min <= max < inf")
        assert "RuntimeWarning" not in err and caught == []

    def test_an_option_after_sigma_is_not_taken_for_its_value(self, tmp_path, toy_inputs, capsys):
        _, _, design, response = toy_inputs
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", "--design", str(design), "--response", str(response),
                  "--lambdas", "0.5", "--sigma", "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --sigma: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(0, 3), (6, 0)])
    def test_empty_design_exit_2_naming_the_design(self, tmp_path, capsys, shape):
        design, response = tmp_path / "X.npy", tmp_path / "y.npy"
        np.save(design, np.zeros(shape))
        np.save(response, np.zeros(shape[0]))
        out = tmp_path / "out"
        code = main(["aggregate", "--design", str(design), "--response", str(response),
                     "--lambdas", "1.0,2.0", "--sigma", "1.0", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --design:") and f"shape {shape}" in err
        assert not out.exists()

    @pytest.mark.parametrize("shape, scale", [((3, 6), 1e200), ((6, 3), 1e160)])
    def test_overflowing_member_eigenvalues_exit_2(self, tmp_path, rng, capsys, shape, scale):
        # a finite design whose mu^2 overflows, so alpha = mu^2 / (mu^2 + lambda) is nan
        design, response = tmp_path / "X.npy", tmp_path / "y.npy"
        np.save(design, scale * rng.standard_normal(shape))
        np.save(response, rng.standard_normal(shape[0]))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["aggregate", "--design", str(design), "--response", str(response),
                         "--lambdas", "1.0,2.0", "--sigma", "1.0", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --design, --penalty: member eigenvalues must be finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, column, ok",
        [("# 5", True, True), ("# 5", False, True), ("# 5 1", True, True),
         ("# 1 5", False, True), ("# 7", True, False), ("# 1 5", True, False),
         ("# 5 1", False, False), ("# 5 5", True, False), ("# 1 1 5", False, False)],
    )
    def test_response_shape_header_checked(
        self, tmp_path, toy_inputs, capsys, header, column, ok
    ):
        _, y, design, _ = toy_inputs
        response = tmp_path / "y_header.csv"
        body = ("\n" if column else ",").join(map(repr, y.tolist()))
        response.write_text(f"{header}\n{body}\n")
        out = tmp_path / "out"
        code = main(["aggregate", "--design", str(design), "--response", str(response),
                     "--lambdas", "1.0,2.0", "--sigma", "1.0", "--output", str(out)])
        err = capsys.readouterr().err
        if ok:
            assert code == 0, err
            assert json.loads((out / "aggregate.json").read_text())["converged"]
        else:
            assert code == 2
            assert err.startswith("error: --response: shape header")
            assert not out.exists()

    def test_large_admitted_sigma_solves(self, tmp_path, toy_inputs):
        # 4 n sigma^2 = 2e307 on 5 points: admitted, and every output is finite
        _, _, design, response = toy_inputs
        out = tmp_path / "out"
        code = main(["aggregate", "--design", str(design), "--response", str(response),
                     "--lambdas", "0.5,2.0,8.0", "--sigma", "1e153", "--output", str(out)])
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["converged"]
        assert np.isfinite([payload["objective"], payload["kkt_residual"], *payload["cp"]]).all()

    def test_response_length_mismatch_exit_2(self, tmp_path, toy_inputs, capsys):
        _, _, design, _ = toy_inputs
        bad = tmp_path / "short.csv"
        np.savetxt(bad, np.zeros(3), delimiter=",")
        code = main(
            ["aggregate", "--design", str(design), "--response", str(bad),
             "--lambdas", "1.0", "--sigma", "1.0", "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "--response" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["--design", "--response"])
    def test_non_finite_input_exit_2(self, tmp_path, toy_inputs, capsys, field):
        X, y, design, response = toy_inputs
        if field == "--design":
            X = X.copy()
            X[1, 2] = np.inf
            design = tmp_path / "X_inf.csv"
            np.savetxt(design, X, delimiter=",")
        else:
            y = y.copy()
            y[3] = np.nan
            response = tmp_path / "y_nan.npy"
            np.save(response, y)
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "1.0", "--sigma", "1.0", "--output", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert field in err and "non-finite" in err
        assert "Traceback" not in err

    def test_corrupt_npy_exit_2(self, tmp_path, toy_inputs, capsys):
        X, _, _, response = toy_inputs
        design = tmp_path / "X.npy"
        np.save(design, X)
        design.write_bytes(design.read_bytes()[:-7])  # truncated data block
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "1.0", "--sigma", "1.0", "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "--design" in capsys.readouterr().err

    def test_indefinite_penalty_exit_2(self, tmp_path, toy_inputs, capsys):
        _, _, design, response = toy_inputs
        penalty = tmp_path / "K.csv"
        np.savetxt(penalty, np.diag([1.0, -1.0, 1.0]), delimiter=",")
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--penalty", str(penalty), "--lambdas", "1.0", "--sigma", "1.0",
             "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "positive definite" in capsys.readouterr().err

    def test_linalg_failure_exit_2(self, tmp_path, toy_inputs, capsys, monkeypatch):
        X, _, design, response = toy_inputs
        # a rank-deficient design, which the Gram screen sends to gesdd
        X = X.copy()
        X[:, 2] = X[:, 0] + X[:, 1]
        np.savetxt(design, X, delimiter=",")
        problem = DesignProblem(X=X, K=np.eye(3), lambdas=[1.0])
        assert build_tikhonov_family(problem).factorization == "svd"

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "1.0", "--sigma", "1.0", "--output", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --design, --response, --penalty")
        assert "SVD did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, message",
        [
            ("cholesky", "Matrix is not positive definite"),
            ("eigh", "Eigenvalues did not converge"),
        ],
    )
    def test_gram_factorization_failure_exit_2(
        self, tmp_path, toy_inputs, capsys, monkeypatch, name, message
    ):
        _, _, design, response = toy_inputs

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError(message)

        monkeypatch.setattr(np.linalg, name, failing)
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "1.0", "--sigma", "1.0", "--output", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --design, --response, --penalty")
        assert message in err
        assert "Traceback" not in err

    def test_output_that_is_a_file_exits_2(self, tmp_path, toy_inputs, capsys):
        _, _, design, response = toy_inputs
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["aggregate", "--design", str(design), "--response", str(response),
                     "--lambdas", "1.0", "--sigma", "1.0", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --output:") and str(out) in err
        assert "Traceback" not in err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "under-a-file"])
    def test_unusable_output_refused_before_any_work(
        self, tmp_path, toy_inputs, capsys, monkeypatch, below
    ):
        _, _, design, response = toy_inputs
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")

        def work(*args, **kwargs):
            raise AssertionError("inputs read or family built before --output was checked")

        monkeypatch.setattr(qagg.cli, "_load_array", work)
        monkeypatch.setattr(qagg.cli, "build_tikhonov_family", work)
        code = main(["aggregate", "--design", str(design), "--response", str(response),
                     "--lambdas", "1.0", "--sigma", "1.0", "--output", str(taken / below)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --output: {taken} exists and is not a directory\n"
        assert taken.read_text() == "not a directory\n"

    def test_output_made_with_its_parents(self, tmp_path, toy_inputs):
        _, _, design, response = toy_inputs
        out = tmp_path / "new" / "deeper"
        assert main(["aggregate", "--design", str(design), "--response", str(response),
                     "--lambdas", "1.0", "--sigma", "1.0", "--output", str(out)]) == 0
        assert (out / "aggregate.json").exists()

    @pytest.mark.parametrize(
        "array",
        [np.ones((5, 3)) + 1j, np.zeros((5, 3), dtype=[("a", float)]),
         np.full((5, 3), np.datetime64("2020-01-01"))],
        ids=["complex", "structured", "datetime"],
    )
    def test_npy_without_real_numbers_exit_2(self, tmp_path, toy_inputs, capsys, array):
        _, _, _, response = toy_inputs
        design, out = tmp_path / "X.npy", tmp_path / "out"
        np.save(design, array)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before a conversion could warn
            code = main(["aggregate", "--design", str(design), "--response", str(response),
                         "--lambdas", "1.0", "--sigma", "1.0", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: --design: could not read {design}: "
                       f"dtype {array.dtype}, expected real numbers\n")
        assert not out.exists()

    def test_solver_observability_fields(self, tmp_path, toy_inputs):
        _, _, design, response = toy_inputs
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "geom:0.01:100:12", "--sigma", "0.3", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        theta = np.array(payload["theta"])
        assert payload["support"] == np.flatnonzero(theta > 0).tolist()
        assert payload["ridge_fallbacks"] == 0
        assert payload["stalled_pivots"] == 0

    def test_factorization_fields(self, tmp_path, toy_inputs):
        X, _, design, response = toy_inputs
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(design), "--response", str(response),
             "--lambdas", "geom:0.01:100:12", "--sigma", "0.3", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        family = build_tikhonov_family(
            DesignProblem(X=X, K=np.eye(3), lambdas=np.geomspace(0.01, 100, 12))
        )
        assert payload["factorization"] == family.factorization == "gram"
        assert payload["orthogonality_defect"] == family.orthogonality_defect
        assert 0.0 <= payload["orthogonality_defect"] <= 1e-10

    @pytest.mark.parametrize("suffix", [".npy", ".csv"])
    def test_loaded_design_is_read_only_and_kept_uncopied(self, tmp_path, rng, suffix):
        X = rng.standard_normal((6, 3))
        path = tmp_path / f"X{suffix}"
        if suffix == ".npy":
            np.save(path, X)
        else:
            np.savetxt(path, X, delimiter=",")
        loaded = _load_array(path, "--design", 2)
        assert not loaded.flags.writeable
        assert np.shares_memory(DesignProblem(X=loaded, K=np.eye(3), lambdas=[1.0]).X, loaded)

    def test_aggregate_holds_the_design_and_one_basis(self, tmp_path, rng, capsys):
        # The loaded, read-only X and U = X (L^{-T} V / mu) are the only n x p arrays: at most
        # 2 X.nbytes + c p^2 8 bytes with c = 16. This call peaks near c = 8; a build that also
        # forms B = X L^{-T} peaks near c = 28.7 (B is X.nbytes = 20 p^2 8 here).
        n, p = 2000, 100
        X = rng.standard_normal((n, p))
        np.save(tmp_path / "X.npy", X)
        np.save(tmp_path / "y.npy", X @ rng.standard_normal(p) + rng.standard_normal(n))
        np.save(tmp_path / "K.npy", random_spd(rng, p))
        argv = ["aggregate", "--design", str(tmp_path / "X.npy"), "--response",
                str(tmp_path / "y.npy"), "--penalty", str(tmp_path / "K.npy"),
                "--lambdas", "geom:0.01:1000:20", "--sigma", "1.0", "--output", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        c = 16
        assert peak <= 2 * X.nbytes + c * p * p * 8, (peak - 2 * X.nbytes) / (p * p * 8)

    @pytest.mark.parametrize("case", STRESS_CASES)
    def test_stress_families_exit_0_and_certify(self, tmp_path, rng, case):
        X, y, lambdas = stress_problem(rng, case)
        np.save(tmp_path / "X.npy", X)
        np.save(tmp_path / "y.npy", y)
        out = tmp_path / "out"
        code = main(
            ["aggregate", "--design", str(tmp_path / "X.npy"), "--response",
             str(tmp_path / "y.npy"), "--lambdas", ",".join(repr(float(v)) for v in lambdas),
             "--sigma", "0.5", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["converged"] is True
        assert payload["kkt_residual"] >= -1e-7 * (1.0 + abs(payload["objective"]))
        assert payload["stalled_pivots"] == 0

    def test_non_convergence_exits_3_with_the_best_iterate(self, tmp_path, rng, capsys,
                                                             monkeypatch):
        X = rng.standard_normal((12, 6))
        lambdas = np.geomspace(0.05, 500.0, 10).tolist()
        family = build_tikhonov_family(DesignProblem(X=X, K=np.eye(6), lambdas=lambdas))
        mu = 2.0 * family.basis @ (np.arange(1, family.rank + 1) ** -1.0)
        for _ in range(100):  # a response whose optimum needs the active-set pivots
            y = mu + rng.standard_normal(12)
            exact = solve_q_aggregation(family, y, 1.0)
            if exact.iterations >= 3:
                break
        assert exact.converged and exact.iterations >= 3
        np.save(tmp_path / "X.npy", X)
        np.save(tmp_path / "y.npy", y)
        # the vertex and segment stages leave two members on the face: a cap of 2
        # stops the active-set method before its first pivot
        monkeypatch.setattr(qagg.aggregate, "MAX_PIVOTS", 2)
        out = tmp_path / "out"
        code = main(["aggregate", "--design", str(tmp_path / "X.npy"),
                     "--response", str(tmp_path / "y.npy"),
                     "--lambdas", ",".join(map(repr, lambdas)), "--sigma", "1",
                     "--output", str(out)])
        assert code == 3
        assert "warning: solver did not converge" in capsys.readouterr().err
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["converged"] is False
        assert payload["iterations"] == 2
        assert abs(sum(payload["theta"]) - 1.0) < 1e-12


class TestValidateCommand:
    def test_identity_and_zero_pass(self, tmp_path):
        path = tmp_path / "mats.csv"
        np.savetxt(path, np.vstack([np.eye(3), np.zeros((3, 3))]), delimiter=",")
        assert main(["validate", "--matrices", str(path)]) == 0

    def test_incomparable_projections_fail_with_axiom_named(self, tmp_path, capsys):
        path = tmp_path / "mats.csv"
        np.savetxt(path, np.vstack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), delimiter=",")
        assert main(["validate", "--matrices", str(path)]) == 1
        captured = capsys.readouterr()
        assert "axiom (iii)" in captured.out + captured.err
        assert "decided by: pairwise check" in captured.err

    def test_materialized_tikhonov_family_passes(self, tmp_path, rng, capsys):
        problem = DesignProblem(
            X=rng.standard_normal((5, 3)), K=np.eye(3), lambdas=[0.1, 1.0, 10.0]
        )
        family = build_tikhonov_family(problem)
        stacked = np.vstack([member_matrix(family, j) for j in range(3)])
        path = tmp_path / "family.csv"
        np.savetxt(path, stacked, delimiter=",")
        assert main(["validate", "--matrices", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "axiom (i) symmetric with spectrum in [0, 1]: PASS",
            "axiom (ii) pairwise commutation: PASS",
            "axiom (iii) pairwise semidefinite ordering: PASS",
        ]
        assert captured.err.startswith("decided by: shared-basis check (largest off-diagonal")

    def test_npy_stack(self, tmp_path, rng, capsys):
        # a 3-d .npy: an ordered stack passes every axiom, a non-commuting one exits 1
        w = np.sort(rng.uniform(0.0, 1.0, size=(3, 6)), axis=0)
        bases = [np.linalg.qr(rng.standard_normal((6, 6)))[0] for _ in range(3)]
        path = tmp_path / "stack.npy"
        np.save(path, np.stack([(bases[0] * w[j]) @ bases[0].T for j in range(3)]))
        assert main(["validate", "--matrices", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "axiom (i) symmetric with spectrum in [0, 1]: PASS",
            "axiom (ii) pairwise commutation: PASS",
            "axiom (iii) pairwise semidefinite ordering: PASS",
        ]
        np.save(path, np.stack([(Q * w[j]) @ Q.T for j, Q in enumerate(bases)]))
        assert main(["validate", "--matrices", str(path)]) == 1
        assert "axiom (ii) pairwise commutation: FAIL" in capsys.readouterr().out

    def test_failed_eigh_reports_no_shared_basis(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        path = tmp_path / "mats.npy"
        np.save(path, np.stack([0.5 * np.eye(3), np.eye(3)]))
        assert main(["validate", "--matrices", str(path)]) == 0
        assert capsys.readouterr().err == (
            "decided by: pairwise check (no shared basis could be computed)\n"
        )

    def test_shape_header_checked(self, tmp_path, capsys):
        path = tmp_path / "mats.csv"
        rows = "\n".join(",".join("1.0" for _ in range(2)) for _ in range(4))
        path.write_text("# 3 2 2\n" + rows + "\n")
        assert main(["validate", "--matrices", str(path)]) == 2
        assert "shape header" in capsys.readouterr().err

    def test_ragged_stack_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mats.csv"
        np.savetxt(path, np.ones((5, 3)), delimiter=",")  # 5 rows of 3 cols
        assert main(["validate", "--matrices", str(path)]) == 2
        assert "--matrices" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 0, 0), (0, 3, 3)])
    def test_malformed_npy_stack_exit_2(self, tmp_path, capsys, shape):
        path = tmp_path / "mats.npy"
        np.save(path, np.zeros(shape))
        assert main(["validate", "--matrices", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --matrices:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "# 0 2 2\n"], ids=["empty", "comment-only"])
    def test_empty_csv_exit_2_without_warning(self, tmp_path, capsys, text):
        path = tmp_path / "mats.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--matrices", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --matrices:")
        assert "is empty" in err
        assert caught == []

    def test_parse_failure_exit_2(self, tmp_path):
        path = tmp_path / "mats.csv"
        path.write_text("not,numbers\n1,2\n")
        assert main(["validate", "--matrices", str(path)]) == 2

    def test_non_finite_tol_exit_2(self, tmp_path, capsys):
        # {I, 3I}: the spectrum 3 lies outside [0, 1], which no tolerance may hide
        path = tmp_path / "mats.csv"
        np.savetxt(path, np.vstack([np.eye(2), 3.0 * np.eye(2)]), delimiter=",")
        assert main(["validate", "--matrices", str(path)]) == 1
        assert "axiom (i) symmetric with spectrum in [0, 1]: FAIL" in capsys.readouterr().out
        for tol in ("inf", "nan", "0", "-1e-3", "-inf", "-1E+2"):
            for given in ([f"--tol={tol}"], ["--tol", tol]):  # argparse alone takes -1e-3 for a flag
                assert main(["validate", "--matrices", str(path), *given]) == 2
                captured = capsys.readouterr()
                assert captured.err.startswith("error: --tol:")
                assert "PASS" not in captured.out


def write_csv(text):
    return lambda path: path.write_text(text)


def write_npy(array):
    return lambda path: np.save(path, array)


class TestLoadArray:
    @pytest.mark.parametrize(
        "suffix, write, ndim, message",
        [
            (".csv", None, 2, "file not found: "),
            (".csv", write_csv("not,numbers\n1,2\n"), 2, "could not read "),
            (".npy", write_csv("1,2\n"), 2, "could not read "),
            (".npy", write_npy(np.array([1.0, np.inf])), 1, "contains a non-finite value"),
            (".csv", write_csv("1,nan\n"), 1, "contains a non-finite value"),
            (".csv", write_csv(""), 1, "is empty (shape "),
            (".npy", write_npy(np.zeros((0, 3))), 2, "is empty (shape (0, 3))"),
            (".csv", write_csv("# 3 2\n1,1\n1,1\n1,1\n1,1\n1,1\n1,1\n"), 3,
             "shape header must read 'count n n', got (3, 2)"),
            (".csv", write_csv("# 3\n1\n2\n"), 1, "shape header (3,) does not match"),
            (".csv", write_csv("# 2 2\n1,2\n"), 2, "shape header (2, 2) does not match"),
            (".csv", write_csv("# 2 2 2\n1,1\n1,1\n1,1\n"), 3,
             "shape header (2, 2, 2) does not match"),
            (".csv", write_csv("1,1\n1,1\n1,1\n"), 3,
             "3 rows of 2 columns do not stack into square matrices"),
            (".csv", write_csv("1,2\n3,4\n"), 1, "expected a vector in "),
            (".npy", write_npy(np.zeros(3) + 1.0), 2, "expected a 2-d matrix in "),
            (".npy", write_npy(np.ones((2, 3, 4))), 3,
             "expected a stack of square matrices in "),
        ],
        ids=["missing", "unparsable-csv", "unparsable-npy", "inf-npy", "nan-csv", "empty-csv",
             "empty-npy", "stack-header-form", "vector-header", "matrix-header",
             "stack-header", "ragged-stack", "matrix-as-vector", "vector-as-matrix",
             "non-square-stack"],
    )
    def test_rejection_names_the_field(self, tmp_path, suffix, write, ndim, message):
        path = tmp_path / f"input{suffix}"
        if write is not None:
            write(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected without a numpy warning
            with pytest.raises(InputError) as info:
                _load_array(path, "--field", ndim)
        assert str(info.value).startswith("--field: ")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "text, ndim, shape",
        [("# 3\n1\n2\n3\n", 1, (3,)), ("# 1 3\n1,2,3\n", 1, (3,)),
         ("# 2 2\n1,2\n3,4\n", 2, (2, 2)), ("# 2 1 1\n0.5\n1\n", 3, (2, 1, 1)),
         ("1,0\n0,1\n0,0\n0,0\n", 3, (2, 2, 2))],
    )
    def test_accepted_shapes(self, tmp_path, text, ndim, shape):
        path = tmp_path / "input.csv"
        path.write_text(text)
        loaded = _load_array(path, "--field", ndim)
        assert loaded.shape == shape and not loaded.flags.writeable


    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.float32])
    def test_npy_of_bools_integers_or_reals_reads_as_floats(self, tmp_path, dtype):
        path = tmp_path / "input.npy"
        np.save(path, np.arange(6).reshape(2, 3).astype(dtype))
        loaded = _load_array(path, "--field", 2)
        assert loaded.dtype == float
        assert loaded.tolist() == np.arange(6).reshape(2, 3).astype(dtype).astype(float).tolist()


class TestBenchCommand:
    def test_outputs_and_manifest(self, tmp_path):
        config = bench_config(tmp_path)
        out = tmp_path / "run"
        assert main(["bench", "--config", str(config), "--output", str(out)]) == 0
        assert (out / "report_cli.json").exists()
        assert (out / "reports.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert set(manifest["files"]) == {"report_cli.json", "reports.csv"}
        report = json.loads((out / "report_cli.json").read_text())
        assert report["replicates"] == 25

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = bench_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(config), "--output", str(out1)]) == 0
        assert main(["bench", "--config", str(config), "--output", str(out2)]) == 0
        assert (out1 / "reports.csv").read_bytes() == (out2 / "reports.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        config = bench_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["bench", "--config", str(config), "--output", str(out1)])
        main(["bench", "--config", str(config), "--output", str(out2), "--seed", "99"])
        assert (out1 / "reports.csv").read_bytes() != (out2 / "reports.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_sweep_m(self, tmp_path):
        config = bench_config(tmp_path, sweep={"M": [2, 5]})
        out = tmp_path / "run"
        assert main(["bench", "--config", str(config), "--output", str(out),
                     "--sweep", "M"]) == 0
        assert (out / "report_cli-M2.json").exists()
        assert (out / "report_cli-M5.json").exists()
        lines = (out / "reports.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 5  # header + two configs x five methods

    def test_sweep_q(self, tmp_path):
        config = bench_config(
            tmp_path, sweep={"q": [1, 2], "members_per_family": 3}, replicates=10
        )
        out = tmp_path / "run"
        assert main(["bench", "--config", str(config), "--output", str(out),
                     "--sweep", "q"]) == 0
        report = json.loads((out / "report_cli-q2.json").read_text())
        assert report["family_total"] == 2
        assert report["member_total"] == 6

    def test_repeated_method_exit_2(self, tmp_path, capsys):
        config = bench_config(tmp_path, methods=["q_agg", "q_agg", "cp_select"])
        out = tmp_path / "run"
        assert main(["bench", "--config", str(config), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --config: key 'methods' lists method 'q_agg' more than once")
        assert not out.exists()

    def test_sweep_q_of_two_families_exit_2(self, tmp_path, capsys):
        families = [{"p": 6, "penalty": "identity", "grid": {"count": 4}},
                    {"p": 6, "penalty": {"kind": "diag-power", "exponent": 2.0},
                     "grid": {"count": 4}}]
        config = bench_config(tmp_path, families=families,
                              sweep={"q": [1, 2], "members_per_family": 3})
        out = tmp_path / "run"
        code = main(["bench", "--config", str(config), "--output", str(out), "--sweep", "q"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --config: a q sweep needs a single-family config")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, overrides",
        [("M", {"M": [4, 4]}), ("M", {"M": [2, 5, 5]}),
         ("q", {"q": [2, 2]}), ("q", {"q": [1, 2, 1], "members_per_family": 3})],
    )
    def test_sweep_repeating_a_point_exit_2(self, tmp_path, capsys, sweep, overrides):
        config = bench_config(tmp_path, sweep=overrides)
        out = tmp_path / "run"
        code = main(["bench", "--config", str(config), "--output", str(out), "--sweep", sweep])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"'sweep.{sweep}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [None, "q"])
    def test_members_per_family_below_1_exit_2(self, tmp_path, capsys, sweep):
        config = bench_config(tmp_path, sweep={"q": [1, 2], "members_per_family": 0})
        argv = ["bench", "--config", str(config), "--output", str(tmp_path / "o")]
        code = main(argv + (["--sweep", sweep] if sweep else []))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'sweep.members_per_family'" in err
        assert "grid.count" not in err

    def test_sweep_without_values_exit_2(self, tmp_path, capsys):
        config = bench_config(tmp_path)
        code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o"),
                     "--sweep", "M"])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_sweep_q_without_values_exit_2(self, tmp_path, capsys):
        config = bench_config(tmp_path, sweep={"M": [2]})
        out = tmp_path / "o"
        code = main(["bench", "--config", str(config), "--output", str(out), "--sweep", "q"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --sweep q: the config has no 'sweep.q'")
        assert not out.exists()

    @needs_tomllib
    def test_toml_config_matches_json(self, tmp_path):
        json_config = bench_config(tmp_path, sweep={"M": [2, 5]})
        toml_config = tmp_path / "config.toml"
        toml_config.write_text(
            'label = "cli"\nreplicates = 25\nseed = 3\n'
            '[scenario]\nn = 16\nsigma = 1.0\n'
            '[scenario.mean]\nshape = "spectral-decay"\nrate = 1.0\nscale = 2.0\n'
            '[[families]]\np = 6\npenalty = "identity"\n[families.grid]\ncount = 4\n'
            '[sweep]\nM = [2, 5]\n'
        )
        for config in (json_config, toml_config):
            out = tmp_path / config.suffix[1:]
            assert main(["bench", "--config", str(config), "--output", str(out),
                         "--sweep", "M"]) == 0
        csv = [(tmp_path / kind / "reports.csv").read_bytes() for kind in ("json", "toml")]
        assert csv[0] == csv[1]

    @needs_tomllib
    def test_invalid_toml_exits_2_naming_config(self, tmp_path, capsys):
        config = tmp_path / "config.toml"
        config.write_text("label = \n")
        out = tmp_path / "o"
        code = main(["bench", "--config", str(config), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --config: invalid TOML")
        assert not out.exists()

    def test_toml_config_without_tomllib_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "tomllib", None)  # as on Python 3.10
        config = tmp_path / "config.toml"
        config.write_text('label = "cli"\n')
        code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --config: TOML configs need Python")

    @pytest.mark.parametrize("kind", ["directory", "npy"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        config = tmp_path / "config"
        if kind == "directory":
            config.mkdir()
        else:
            config = tmp_path / "config.npy"
            np.save(config, np.eye(3))
        out = tmp_path / "o"
        code = main(["bench", "--config", str(config), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: --config: could not read {config}:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_output_that_is_a_file_exits_2(self, tmp_path, capsys):
        config = bench_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["bench", "--config", str(config), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --output:") and str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "under-a-file"])
    def test_unusable_output_refused_before_any_work(self, tmp_path, capsys, monkeypatch, below):
        config = bench_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")

        def work(*args, **kwargs):
            raise AssertionError("config read or experiment run before --output was checked")

        monkeypatch.setattr(qagg.cli, "_load_config", work)
        monkeypatch.setattr(qagg.cli, "run_experiment", work)
        code = main(["bench", "--config", str(config), "--output", str(taken / below)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --output: {taken} exists and is not a directory\n"
        assert taken.read_text() == "not a directory\n"

    def test_gcv_undefined_on_every_member_exits_2(self, tmp_path, capsys):
        # n < p with a vanishing lambda: the one member interpolates, trace A = n
        grid = {"min": 1e-12, "max": 1e-12, "count": 1, "absolute": True}
        config = bench_config(tmp_path, scenario={"n": 10, "sigma": 1.0},
                              families=[{"p": 20, "grid": grid}], methods=["gcv"])
        out = tmp_path / "o"
        code = main(["bench", "--config", str(config), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --config: key 'methods' lists 'gcv'")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_config_key_named(self, tmp_path, capsys):
        config = bench_config(tmp_path, bogus=1)
        code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"sweep": {"M": 5}}, "sweep.M"),
            ({"families": [5]}, "families[0]"),
            ({"families": [{"p": 6, "grid": 5}]}, "families[0].grid"),
            ({"scenario": {"n": 16, "mean": 5}}, "scenario.mean"),
            ({"scenario": {"n": 16, "mean": {"shape": "explicit", "values": 3}}},
             "scenario.mean.values"),
            ({"lemma_check": "false"}, "lemma_check"),
            ({"families": [{"p": 6, "grid": {"absolute": "false"}}]},
             "families[0].grid.absolute"),
            ({"families": [{"p": 6, "grid": {"max": float("inf")}}]}, "families[0].grid.max"),
            ({"families": [{"p": 6, "penalty": {"kind": "diag-power", "exponent": float("nan")}}]},
             "families[0].penalty.exponent"),
            ({"scenario": {"n": 16, "sigma": float("inf")}}, "scenario.sigma"),
            ({"scenario": {"n": 16, "mean": {"shape": "spectral-decay", "scale": float("nan")}}},
             "scenario.mean.scale"),
            ({"scenario": {"n": 16, "mean": {"shape": "spectral-decay", "rate": float("inf")}}},
             "scenario.mean.rate"),
            ({"scenario": {"n": 16, "mean": {"shape": "spectral-decay",
                                             "target_risk": float("nan")}}},
             "scenario.mean.target_risk"),
            ({"seed": -3}, "seed"),
            ({"label": "../../x"}, "label"),
            ({"label": "a\\b"}, "label"),
            ({"label": ""}, "label"),
            ({"label": "a\0b"}, "label"),
            ({"label": "x" * 300}, "label"),
            # report_<label>.json alone is 252 bytes, report_<label>-M1000.json 258
            ({"label": "x" * 240, "sweep": {"M": [1000]}}, "label"),
            # sigma^2 overflows or underflows; a label that would break reports.csv
            pytest.param({"scenario": {"n": 16, "sigma": 1e200}}, "scenario.sigma",
                         id="scenario.sigma-squared-inf"),
            pytest.param({"scenario": {"n": 16, "sigma": 1e-200}}, "scenario.sigma",
                         id="scenario.sigma-squared-zero"),
            pytest.param({"scenario": {"n": 16, "sigma": 1e154}}, "scenario.sigma",
                         id="scenario.sigma-4n-sigma-squared-inf"),
            pytest.param({"label": "a,b\nc"}, "label", id="label-comma-newline"),
            pytest.param({"label": "a,b"}, "label", id="label-comma"),
            pytest.param({"label": 'a"b'}, "label", id="label-quote"),
            pytest.param({"label": "a\nb"}, "label", id="label-newline"),
            pytest.param({"label": "a\rb"}, "label", id="label-return"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, overrides, key):
        config = bench_config(tmp_path, **overrides)
        code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"'{key}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "-5"), ("--threads", "0"), ("--threads", "-3")]
    )
    def test_out_of_range_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        config = bench_config(tmp_path)
        code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o"),
                     flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {flag}:")
        assert not (tmp_path / "o").exists()

    def test_config_rejected_while_building_exits_2(self, tmp_path, capsys):
        short_mean = {"n": 16, "mean": {"shape": "explicit", "values": [1.0]}}
        for overrides, extra, key in (
            ({"scenario": short_mean}, [], "scenario.mean.values"),
            ({"sweep": {"M": [5, 2]}}, ["--sweep", "M"], "sweep.M"),
            ({"families": [{"p": 6, "penalty": {"kind": "diag-power", "exponent": -1000}}]},
             [], "families[0].penalty.exponent"),
            ({"families": [{"p": 6, "penalty": {"kind": "diag-power", "exponent": 1e6}}]},
             [], "families[0].penalty.exponent"),
            # 6^-400 is subnormal: the diagonal is positive, but X K^(-1/2) overflows
            ({"families": [{"p": 6, "penalty": {"kind": "diag-power", "exponent": -400}}]},
             [], "families[0].penalty.exponent"),
            ({"families": [{"p": 6, "grid": {"min": 1, "max": 1 + 1e-13, "count": 1000,
                                             "absolute": True}}]},
             [], "families[0].grid"),
        ):
            config = bench_config(tmp_path, **overrides)
            code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o"),
                         *extra])
            assert code == 2
            assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, sweep, key",
        [
            ({"scenario": {"n": 16, "mean": {"shape": "bogus"}}}, None, "scenario.mean.shape"),
            ({"scenario": {"n": 16, "mean": {"shape": "explicit"}}}, None,
             "scenario.mean.values"),
            ({"families": [{"p": 6, "penalty": {"kind": "bogus"}}]}, None, "penalty.kind"),
            ({"families": [{"p": 6, "grid": {"count": 0}}]}, None, "grid.count"),
            ({"families": [{"p": 6, "grid": {"min": 0.0}}]}, None, "grid.min"),
            ({"families": [{"p": 6, "grid": {"min": 2.0, "max": 1.0}}]}, None, "grid.min"),
            ({"families": [{"p": 6, "grid": {"min": 1.0, "max": 1.0, "count": 3}}]}, None,
             "grid.count"),
            ({"families": [{"p": 0}]}, None, "families[].p"),
            ({"scenario": {"n": 0}}, None, "scenario.n"),
            ({"replicates": 0}, None, "replicates"),
            ({"families": []}, None, "families"),
            ({"methods": []}, None, "methods"),
            # the mean's spectral coordinates are those of the rank min(n, p) = 6
            ({"scenario": {"n": 16, "mean": {"shape": "single-spike", "coordinate": 6}}}, None,
             "scenario.mean.coordinate"),
            ({"scenario": {"n": 16, "mean": {"shape": "spectral-decay", "target_risk": 1e-9}}},
             None, "scenario.mean.target_risk"),
            ({"sweep": {"M": []}}, "M", "sweep.M"),
            ({"sweep": {"M": [0, 2]}}, "M", "sweep.M"),
            ({"sweep": {"q": []}}, "q", "sweep.q"),
            ({"sweep": {"q": [0, 1]}}, "q", "sweep.q"),
            ({"families": [{"p": 6}, {"p": 6}], "sweep": {"M": [2]}}, "M", "families"),
            ({"families": [{"p": 6, "penalty": {"kind": "diag-power", "exponent": 2.5}}],
              "sweep": {"q": [1, 2]}}, "q", "families[0].penalty"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_rejected_config_exits_2_naming_the_key(self, tmp_path, capsys, overrides, sweep,
                                                     key):
        config = bench_config(tmp_path, **overrides)
        out = tmp_path / "o"
        code = main(["bench", "--config", str(config), "--output", str(out),
                     *(["--sweep", sweep] if sweep else [])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --config:") and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, key",
        [
            ({"p": 6, "penalty": {"kind": "diag-power", "exponent": 1e6}},
             "families[0].penalty.exponent"),
            ({"p": 6, "penalty": {"kind": "diag-power", "exponent": -400}},
             "families[0].penalty.exponent"),
            ({"p": 6, "grid": {"min": 1, "max": 1e308, "count": 3}}, "families[0].grid"),
        ],
        ids=["power-overflow", "whitening-overflow", "grid-overflow"],
    )
    def test_overflow_exits_2_without_a_warning(self, tmp_path, capsys, family, key):
        config = bench_config(tmp_path, families=[family])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not valid json\n")
        code = main(["bench", "--config", str(config), "--output", str(tmp_path / "o")])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_round_trip_summary_statistics(self, tmp_path):
        from qagg.bench import ExperimentConfig, run_experiment

        config_path = bench_config(tmp_path)
        out = tmp_path / "run"
        main(["bench", "--config", str(config_path), "--output", str(out)])
        report = json.loads((out / "report_cli.json").read_text())
        cfg = ExperimentConfig.from_dict(report["config"])
        rerun = run_experiment(cfg)
        for name, stats in report["methods"].items():
            assert stats["mean_risk"] == rerun.stats[name].mean_risk
            assert stats["regret"] == rerun.stats[name].regret


def test_commands_load_only_numpy_and_the_standard_library(tmp_path, rng):
    # runtime dependency: numpy only.  In a fresh interpreter, every module that
    # aggregate, validate and a lemma-checked q sweep load must be stdlib, numpy,
    # qagg or built in (no __file__: numpy.random registers Cython's runtime
    # modules); numpy.ma, which np.quantile pulls in through np.unique, is not
    X = rng.standard_normal((8, 3))
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", X @ [1.0, -1.0, 0.5] + rng.standard_normal(8), delimiter=",")
    np.save(tmp_path / "stack.npy", np.stack([np.eye(4) * a for a in (0.2, 0.5, 1.0)]))
    config = bench_config(tmp_path, sweep={"q": [1, 2], "members_per_family": 3},
                          replicates=4, methods=["q_agg", "oracle"], lemma_check=True)
    commands = [
        ["aggregate", "--design", "X.csv", "--response", "y.csv", "--lambdas", "0.5,2",
         "--sigma", "1", "--output", "agg"],
        ["validate", "--matrices", "stack.npy"],
        ["bench", "--config", str(config), "--output", "bench", "--sweep", "q"],
    ]
    code = (
        "import json, sys; start = set(sys.modules); from qagg.cli import main; "
        f"codes = [main(argv) for argv in {commands!r}]; "
        "new = {name: getattr(sys.modules[name], '__file__', None) "
        "for name in set(sys.modules) - start}; "
        "print(json.dumps([codes, new, sorted(sys.stdlib_module_names)]))"
    )
    src = str(Path(qagg.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, stdlib = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert "numpy.ma" not in loaded
    others = sorted(
        name for name, file in loaded.items()
        if file is not None and name.partition(".")[0] not in {*stdlib, "numpy", "qagg"}
    )
    assert others == []
