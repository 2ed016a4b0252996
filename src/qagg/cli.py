"""Command-line front end: aggregate user data, run experiments, validate families.

Subcommands
    aggregate  solve the aggregation program on a design/response pair
    bench      run config-driven Monte Carlo experiments (optionally sweeps)
    validate   check the ordered-smoother axioms on a file of matrices

Exit codes: 0 success, 1 validation failure, 2 malformed input or
config (or inputs a factorization or solve fails on), 3 solver
non-convergence (partial output is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import qagg
from qagg.aggregate import cp_values, solve_q_aggregation
from qagg.bench import (
    ConfigError,
    ExperimentConfig,
    _write_csv,
    _write_json,
    regret_vs_M_sweep,
    regret_vs_q_sweep,
    run_experiment,
    write_report_json,
    write_reports_csv,
)
from qagg.smoother import _check_sigma, _response, check_ordered
from qagg.spectral import DesignProblem, build_tikhonov_family, recover_coefficients

__all__ = ["InputError", "main", "entry"]


class InputError(Exception):
    """Malformed user input; the message names the offending field."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# input parsing


def _read(path: Path, field: str, read):
    """read(path), with a missing or unreadable file reported as InputError(field)."""
    if not path.exists():
        raise InputError(f"{field}: file not found: {path}")
    try:
        return read(path)
    except (OSError, ValueError, EOFError) as exc:  # UnicodeDecodeError is a ValueError
        raise InputError(f"{field}: could not read {path}: {exc}") from exc


def _read_csv(path: Path) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """A CSV's rows and the shape its first line declares as '# d1 d2 ...', if it does."""
    with open(path) as fh:
        first = fh.readline().strip()
    tokens = first.lstrip("#").replace(",", " ").split()
    declared = None
    if first.startswith("#") and tokens and all(t.lstrip("-").isdigit() for t in tokens):
        declared = tuple(int(t) for t in tokens)
    with warnings.catch_warnings():  # an empty file is reported by the caller
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, delimiter=",", comments="#", ndmin=2), declared


def _read_npy(path: Path) -> np.ndarray:
    """A .npy file's array as floats; only a bool, integer or real dtype converts."""
    data = np.load(path)
    if data.dtype.kind not in "biuf":
        raise ValueError(f"dtype {data.dtype}, expected real numbers")
    return np.asarray(data, dtype=float)


_KINDS = {1: "a vector", 2: "a 2-d matrix", 3: "a stack of square matrices"}


def _load_array(path: Path, field: str, ndim: int) -> np.ndarray:
    """A nonempty array of finite numbers from a CSV or .npy file, frozen in place.

    ndim 1 reads a vector (a column, a row or a 1-d .npy), 2 a matrix and 3 a stack of
    square n x n matrices (count * n CSV rows of n columns, or a 3-d .npy). A CSV may open
    with a shape header: '# n' or the rows' shape for a vector, the shape for a matrix and
    '# count n n' for a stack. Frozen, the array is kept uncopied by the library.
    """
    if path.suffix == ".npy":
        data, declared = _read(path, field, _read_npy), None
    else:
        data, declared = _read(path, field, _read_csv)
    if not np.all(np.isfinite(data)):
        raise InputError(f"{field}: {path} contains a non-finite value (nan or inf)")
    if data.size == 0:
        raise InputError(f"{field}: {path} is empty (shape {data.shape})")
    array = data
    while isinstance(array, np.ndarray):
        array.setflags(write=False)
        array = array.base
    rows = declared
    if ndim == 3 and declared is not None:
        if len(declared) != 3 or declared[1] != declared[2]:
            raise InputError(f"{field}: shape header must read 'count n n', got {declared}")
        rows = (declared[0] * declared[1], declared[2])  # count * n rows of n columns
    if rows not in (None, data.shape) and (ndim != 1 or rows != (data.size,)):
        raise InputError(f"{field}: shape header {declared} does not match data shape {data.shape}")
    if ndim == 1 and data.ndim == 2 and 1 in data.shape:
        data = data.ravel()
    elif ndim == 3 and data.ndim == 2:
        k, n = data.shape
        if k % n:
            raise InputError(f"{field}: {k} rows of {n} columns do not stack into square matrices")
        data = data.reshape(-1, n, n)
    if data.ndim != ndim or (ndim == 3 and data.shape[1] != data.shape[2]):
        raise InputError(f"{field}: expected {_KINDS[ndim]} in {path}, got shape {data.shape}")
    return data


def _parse_lambdas(text: str) -> np.ndarray:
    """A comma list of values or 'geom:min:max:count'."""
    if text.startswith("geom:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise InputError(f"--lambdas: expected geom:min:max:count, got {text!r}")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise InputError(f"--lambdas: could not parse {text!r}: {exc}") from exc
        if not (count >= 1 and 0 < lo <= hi < np.inf):  # written so that a nan fails
            raise InputError(
                f"--lambdas: geometric grid needs 0 < min <= max < inf and count >= 1, got {text!r}"
            )
        return np.geomspace(lo, hi, count)
    try:
        values = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise InputError(f"--lambdas: could not parse {text!r}: {exc}") from exc
    if values.size == 0:
        raise InputError("--lambdas: the grid is empty")
    return values


# ---------------------------------------------------------------------------
# subcommands


def _check_output(path: str) -> None:
    """Refuse, writing nothing, an --output whose first existing ancestor (or itself) is
    not a directory, so that a command fails before its work; _output_dir makes it after."""
    try:
        first = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    except OSError as exc:
        raise InputError(f"--output: {exc}") from exc
    if not first.is_dir():
        raise InputError(f"--output: {first} exists and is not a directory")


def _output_dir(path: str) -> Path:
    """The --output directory, made with its parents; an OSError is reported as InputError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--output: {exc}") from exc
    return Path(path)


@contextlib.contextmanager
def _reported(field: str):
    """Report a library ValueError as malformed input under field; main reports a LinAlgError."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise InputError(f"{field}: {exc}") from exc


def cmd_aggregate(args) -> int:
    _check_output(args.output)
    X = _load_array(Path(args.design), "--design", 2)
    y = _load_array(Path(args.response), "--response", 1)
    if y.size != X.shape[0]:
        raise InputError(
            f"--response: length {y.size} does not match design rows {X.shape[0]}"
        )
    if args.penalty == "identity":
        K = np.eye(X.shape[1])
    else:
        K = _load_array(Path(args.penalty), "--penalty", 2)
    lambdas = _parse_lambdas(args.lambdas)
    with _reported("--sigma"):
        _check_sigma(args.sigma, X.shape[0])
    with _reported("--penalty/--lambdas"):
        problem = DesignProblem(X=X, K=K, lambdas=lambdas)
    with _reported("--design, --penalty"):  # e.g. member eigenvalues that overflow
        family = build_tikhonov_family(problem)

    resp = _response(family, y)
    report = solve_q_aggregation(resp.candidates, resp, args.sigma)
    df = resp.candidates.df
    cp = cp_values(resp.candidates, resp, args.sigma)
    coefficients = recover_coefficients(family, report.weights)

    out = _output_dir(args.output)
    payload = {
        "tool_version": qagg.__version__,
        "sigma": args.sigma,
        "lambdas": problem.lambdas.tolist(),
        "theta": report.weights.theta.tolist(),
        "objective": report.objective,
        "kkt_residual": report.kkt_residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "support": list(report.support),
        "ridge_fallbacks": report.ridge_fallbacks,
        "factorization": family.factorization,
        "orthogonality_defect": family.orthogonality_defect,
        "stalled_pivots": report.stalled_pivots,
        "df": df.tolist(),
        "cp": cp.tolist(),
        "coefficients": coefficients.tolist(),
        "fitted": report.weights.fitted.tolist(),
    }
    _write_json(payload, out / "aggregate.json")
    # the payload's lists of Python floats, not per-cell numpy scalars: the same bytes, faster
    columns = (payload[k] for k in ("lambdas", "theta", "df", "cp"))
    _write_csv(out / "weights.csv", zip(range(family.member_count), *columns),
               ("member", "lambda", "theta", "df", "cp"))
    _write_csv(out / "coefficients.csv", zip(payload["coefficients"]))
    _write_csv(out / "fitted.csv", zip(payload["fitted"]))

    print(
        f"aggregated {family.member_count} members: objective {report.objective:.6g}, "
        f"kkt residual {report.kkt_residual:.3e}, converged {report.converged}"
    )
    if not report.converged:
        print("warning: solver did not converge; outputs hold the best iterate", file=sys.stderr)
        return 3
    return 0


def _load_config(path: Path) -> dict:
    text = _read(path, "--config", Path.read_text)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise InputError(
                "--config: TOML configs need Python >= 3.11; use JSON instead"
            ) from exc
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise InputError(f"--config: invalid TOML in {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"--config: invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def cmd_bench(args) -> int:
    started = _utcnow()
    _check_output(args.output)
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed: must be >= 0, got {args.seed}")
    if args.threads < 1:
        raise InputError(f"--threads: must be >= 1, got {args.threads}")
    config_path = Path(args.config)
    try:  # some keys are checked only when the instances are built
        config = ExperimentConfig.from_dict(_load_config(config_path))
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.sweep == "M":
            if config.sweep_m is None:
                raise InputError("--sweep M: the config has no 'sweep.M' values")
            reports = regret_vs_M_sweep(config, config.sweep_m, threads=args.threads)
        elif args.sweep == "q":
            if config.sweep_q is None:
                raise InputError("--sweep q: the config has no 'sweep.q' values")
            reports = regret_vs_q_sweep(config, config.sweep_q, threads=args.threads)
        else:
            reports = [run_experiment(config, threads=args.threads)]
    except ConfigError as exc:
        raise InputError(f"--config: {exc}") from exc

    out = _output_dir(args.output)
    written = []
    for report in reports:
        name = f"report_{report.label}.json"
        write_report_json(report, out / name)
        written.append(name)
    write_reports_csv(reports, out / "reports.csv")
    written.append("reports.csv")

    manifest = {
        "config_path": str(config_path),
        "output_dir": str(out),
        "tool_version": qagg.__version__,
        "seed": config.seed,
        "started_at": started,
        "finished_at": _utcnow(),
        "files": {name: _sha256(out / name) for name in written},
    }
    _write_json(manifest, out / "manifest.json")

    for report in reports:
        for name, s in report.stats.items():
            print(
                f"{report.label}: {name:11s} regret {s.regret:9.4f} "
                f"± {s.ci_half_width:.4f} (R* = {report.oracle_risk:.4f}, "
                f"M = {report.member_total}, q = {report.family_total})"
            )
    return 0


def cmd_validate(args) -> int:
    matrices = _load_array(Path(args.matrices), "--matrices", 3)
    with _reported("--tol"):  # the stack is square and nonempty, so only tol can fail
        report = check_ordered(matrices, tol=args.tol)
    if report.off_diagonal is None:
        basis = "no shared basis could be computed"
    else:
        basis = f"largest off-diagonal mass in the shared basis {report.off_diagonal:.3e}"
    print(f"decided by: {report.method} check ({basis})", file=sys.stderr)
    axioms = (
        ("axiom (i) symmetric with spectrum in [0, 1]", report.shrinkage_ok),
        ("axiom (ii) pairwise commutation", report.commute_ok),
        ("axiom (iii) pairwise semidefinite ordering", report.comparable_ok),
    )
    for label, ok in axioms:
        print(f"{label}: {'PASS' if ok else 'FAIL'}")
    for failure in report.failures:
        print(f"  {failure}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qagg",
        description="Aggregation of ordered linear smoothers: solve, benchmark, validate.",
    )
    parser.add_argument("--version", action="version", version=f"qagg {qagg.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_agg = sub.add_parser("aggregate", help="aggregate a Tikhonov family on user data")
    p_agg.add_argument("--design", required=True, help="n x p design matrix (CSV or .npy)")
    p_agg.add_argument("--response", required=True, help="length-n response vector")
    p_agg.add_argument(
        "--penalty", default="identity", help="penalty matrix file or 'identity'"
    )
    p_agg.add_argument(
        "--lambdas", required=True, help="comma list of values or geom:min:max:count"
    )
    p_agg.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p_agg.add_argument("--output", required=True, help="output directory")
    p_agg.set_defaults(func=cmd_aggregate, inputs="--design, --response, --penalty")

    p_bench = sub.add_parser("bench", help="run Monte Carlo experiments from a config")
    p_bench.add_argument("--config", required=True, help="experiment config (JSON)")
    p_bench.add_argument("--output", required=True, help="output directory")
    p_bench.add_argument(
        "--sweep", choices=("M", "q"), default=None, help="sweep grid sizes or family counts"
    )
    p_bench.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_bench.add_argument(
        "--threads", type=int, default=1, help="max worker processes for replicate blocks"
    )
    p_bench.set_defaults(func=cmd_bench, inputs="--config")

    p_val = sub.add_parser("validate", help="check ordered-smoother axioms on matrices")
    p_val.add_argument(
        "--matrices", required=True, help="stacked square matrices (CSV or 3-d .npy)"
    )
    p_val.add_argument("--tol", type=float, default=1e-8, help="axiom tolerance")
    p_val.set_defaults(func=cmd_validate, inputs="--matrices")
    return parser


def _joined_numbers(argv) -> list[str]:
    """argv with a number after --sigma or --tol joined to it: '--tol -1e-3' as '--tol=-1e-3'.

    argparse reads only forms like -1 and -0.5 as negative numbers, so it takes -1e-3 or
    -inf for an option; its documented '=' form hands any value to the program's check.
    A flag is matched as argparse matches it, by any prefix of at least one letter.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and ("--sigma".startswith(flag) or "--tol".startswith(flag)):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_joined_numbers(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(
            f"error: {args.inputs}: a linear-algebra step failed on these inputs ({exc})",
            file=sys.stderr,
        )
        return 2


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
