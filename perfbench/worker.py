"""Workload process of the qagg benchmark.

run.py starts this script in fresh processes, with the checkout's
``src`` on PYTHONPATH and OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 in the
environment:

    worker.py gen   --workload W --seed S --size full --work DIR
        write the seeded inputs of workload W (configs, .npy files) to DIR
    worker.py run   --work DIR --src SRC --seconds T --trace 0|1 --nproc N --spans FILE
        drive the workload's closed loop through ``qagg.cli.main``, check
        every output and write DIR/result.json
    worker.py setup --work DIR
        (started by ``run``) for each line read from stdin, time ``import
        qagg`` plus the library set-up calls of the workload in forked
        children that have not imported qagg, and print the mean as one
        JSON line

The program under test sees only the generated input files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SIZES = {
    "full": {
        "replicates": 200, "grid_M": [2, 10, 100, 1000], "union_q": [1, 4, 16],
        "members_per_family": 16, "agg_n": 2000, "agg_p": 500, "agg_M": 200,
        "val_n": 200, "val_M": 50,
    },
    # for the self-test: same code paths, seconds instead of minutes
    "tiny": {
        "replicates": 6, "grid_M": [2, 10], "union_q": [1, 2],
        "members_per_family": 4, "agg_n": 60, "agg_p": 12, "agg_M": 10,
        "val_n": 12, "val_M": 5,
    },
}

WORKLOADS = ("mc-grid", "mc-union", "cli-oneshot")
METHODS = ["q_agg", "cp_select", "gcv", "exp_weights", "oracle"]
SIGMA = 1.0
TARGET_RISK = 20.0  # oracle risk of the AC-2 / AC-3 scenarios, in sigma^2
AGG_LAMBDAS = (1e-1, 1e5)  # absolute range of the aggregate call's tuning grid
KKT_TOL = 1e-7  # the solver's own convergence criterion
FIT_RTOL = 1e-8
MIN_SAMPLES = 3  # timed calls per untraced run, even past the deadline
SETUP_SAMPLES = 12  # set-up samples per untraced run, spread over the run
SETUP_WINDOW_S = 0.3  # each sample: mean of fresh-process probes run for this long
REF_SHARE = 0.2  # reference-task seconds run per second of timed calls


# ---------------------------------------------------------------------------
# input generation


def _scenario() -> dict:
    return {
        "n": 100,
        "sigma": SIGMA,
        "mean": {"shape": "spectral-decay", "rate": 1.0, "target_risk": TARGET_RISK},
    }


def _grid_config(seed: int, size: dict) -> dict:
    """AC-2: one identity family, grid pinned to the risk valley (as the m_sweep fixture)."""
    from qagg.bench import ExperimentConfig, build_instance
    from qagg.smoother import member_risks

    probe = {
        "label": "mc-grid",
        "scenario": _scenario(),
        "families": [{"p": 50, "penalty": "identity",
                      "grid": {"min": 1e-3, "max": 1e3, "count": 1024}}],
        "replicates": size["replicates"],
        "seed": seed,
        "methods": METHODS,
    }
    instance = build_instance(ExperimentConfig.from_dict(probe))
    risks = member_risks(instance.candidates, instance.truth)
    lams = instance.candidates.lambdas
    valley = risks <= instance.oracle_risk + 2.0 * SIGMA**2
    lo, hi = float(lams[valley][0]), float(lams[valley][-1])
    if not lo < hi:
        raise SystemExit(f"seed {seed}: the risk valley collapsed to one grid point")
    config = dict(probe)
    config["families"] = [{"p": 50, "penalty": "identity",
                           "grid": {"min": lo, "max": hi, "count": 20, "absolute": True}}]
    config["sweep"] = {"M": size["grid_M"]}
    return config


def _union_config(seed: int, size: dict) -> dict:
    """AC-3: unions of q diagonal-power families with a fixed member count each."""
    return {
        "label": "mc-union",
        "scenario": _scenario(),
        "families": [{"p": 50, "penalty": "identity", "grid": {"count": size["members_per_family"]}}],
        "replicates": size["replicates"],
        "seed": seed,
        "methods": METHODS,
        "sweep": {"q": size["union_q"], "members_per_family": size["members_per_family"]},
    }


def _random_rotation(rng, n):
    import numpy as np

    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _aggregate_inputs(seed: int, size: dict, work: Path) -> dict:
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n, p = size["agg_n"], size["agg_p"]
    X = rng.standard_normal((n, p))
    rot = _random_rotation(rng, p)
    K = (rot * np.exp(rng.uniform(0.0, np.log(10.0), size=p))) @ rot.T
    beta = rng.standard_normal(p) / np.arange(1.0, p + 1.0)
    y = X @ beta + SIGMA * rng.standard_normal(n)
    np.save(work / "X.npy", X)
    np.save(work / "K.npy", 0.5 * (K + K.T))
    np.save(work / "y.npy", y)
    lo, hi = AGG_LAMBDAS
    return {"lambdas": f"geom:{lo!r}:{hi!r}:{size['agg_M']}", "sigma": SIGMA}


def _validate_inputs(seed: int, size: dict, work: Path) -> None:
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # An ordered family: one orthonormal basis, eigenvalues shrinking with lambda.
    n, m = size["val_n"], size["val_M"]
    r = max(2, n // 5)
    U = _random_rotation(rng, n)[:, :r]
    mu2 = np.geomspace(1.0, 1e3, r)
    stack = np.empty((m, n, n))
    for j, lam in enumerate(np.geomspace(1e-1, 1e4, m)):
        A = (U * (mu2 / (mu2 + lam))) @ U.T
        stack[j] = 0.5 * (A + A.T)
    np.save(work / "stack.npy", stack)

    # Spectra in [0, 1] in three different bases: symmetric, but not commuting.
    bad = np.empty((3, 6, 6))
    for j in range(3):
        rot = _random_rotation(rng, 6)
        A = (rot * rng.uniform(0.1, 0.9, size=6)) @ rot.T
        bad[j] = 0.5 * (A + A.T)
    np.save(work / "bad_stack.npy", bad)


def cmd_gen(args) -> int:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    size = SIZES[args.size]
    spec = {"workload": args.workload, "seed": args.seed, "size": args.size, **size}
    if args.workload == "cli-oneshot":
        spec.update(_aggregate_inputs(args.seed, size, work))
        _validate_inputs(args.seed, size, work)
    else:
        if args.workload == "mc-grid":
            config = _grid_config(args.seed, size)
        else:
            config = _union_config(args.seed, size)
        (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        spec["sweep"] = "M" if "M" in config["sweep"] else "q"
        spec["configs"] = len(config["sweep"][spec["sweep"]])
    (work / "spec.json").write_text(json.dumps(spec, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# set-up time


def _build_sweep(bench, config) -> None:
    """Build every instance the config's sweep builds, without running its replicates."""
    run_experiment = bench.run_experiment
    bench.run_experiment = lambda cfg, *, threads=1, mu_override=None: (
        bench.build_instance(cfg, mu_override=mu_override))
    try:
        if config.sweep_m is not None:
            bench.regret_vs_M_sweep(config, config.sweep_m)
        else:
            bench.regret_vs_q_sweep(config, config.sweep_q)
    finally:
        bench.run_experiment = run_experiment


def _time_setup(workload: str, inputs) -> dict:
    """In a process that has not imported qagg: time its import and its set-up calls."""
    t0 = time.perf_counter()
    import qagg
    import qagg.bench
    import qagg.cli  # noqa: F401  (the entry point the workloads call)

    t1 = time.perf_counter()
    if workload == "cli-oneshot":  # validate has no set-up call before check_ordered
        qagg.build_tikhonov_family(qagg.DesignProblem(**inputs))
    else:
        _build_sweep(qagg.bench, qagg.bench.ExperimentConfig.from_dict(inputs))
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "calls_s": t2 - t1}


def cmd_setup(args) -> int:
    """Serve set-up samples: one per line read from stdin, printed as one JSON line.

    This process imports numpy and loads the inputs; each probe is a
    forked child that has not imported qagg.  So every workload times
    qagg's own import and set-up calls in the same way, and a probe costs
    no interpreter start-up.  A sample is the mean of probes run back to
    back for SETUP_WINDOW_S, so that it spans more than one of the
    machine's short speed phases.
    """
    import numpy as np

    work = Path(args.work)
    spec = json.loads((work / "spec.json").read_text())
    workload = spec["workload"]
    if workload == "cli-oneshot":
        inputs = {"X": np.load(work / "X.npy"), "K": np.load(work / "K.npy"),
                  "lambdas": np.geomspace(*AGG_LAMBDAS, spec["agg_M"])}
    else:
        inputs = json.loads((work / "config.json").read_text())
    for _ in sys.stdin:
        probes = []
        start = time.perf_counter()
        while not probes or time.perf_counter() - start < SETUP_WINDOW_S:
            probes.append(_fork_probe(workload, inputs))
        print(json.dumps({key: sum(p[key] for p in probes) / len(probes)
                          for key in probes[0]}), flush=True)
    return 0


def _fork_probe(workload: str, inputs) -> dict:
    """Run ``_time_setup`` in a forked child and return its timings."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the probe: report through the pipe, never return
        code = 1
        try:
            os.close(read)
            os.write(write, json.dumps(_time_setup(workload, inputs)).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        line = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"set-up probe failed with status {status}")
    return json.loads(line)


# ---------------------------------------------------------------------------
# timed closed loop


class Ledger:
    """Operation accounting: attempted = solves + CLI calls; failed = failures + failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if count and len(self.problems) < 50:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.fail(0 if ok else 1, what)
        return ok


def _call_cli(argv) -> tuple[float, int, str]:
    """One timed call of the public entry point; returns (seconds, exit code, stdout)."""
    import qagg.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = qagg.cli.main(argv)
        except Exception:  # a crash is a failed call, as the console script would exit 1
            traceback.print_exc(file=sys.__stderr__)
            code = 1
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


class McLoop:
    """``qagg bench --sweep`` calls on one config.

    An iteration is the sweep at --threads 1.  After the timed loop the
    same sweep runs T2_CALLS times at --threads 2, for the byte-identity
    check and the parallel throughput record, so that the timed loop has
    the machine to itself.
    """

    T2_CALLS = 2

    def __init__(self, spec: dict, work: Path, nproc: int, ledger: Ledger):
        self.spec = spec
        self.work = work
        self.config = work / "config.json"
        self.threads2 = 2 if nproc >= 2 else None
        self.ledger = ledger
        self.replicates = spec["replicates"] * spec["configs"]
        self.reference: dict | None = None
        self.calls = 0
        self.t2: list[float] = []

    def sweep(self, threads: int) -> float:
        self.calls += 1
        out = self.work / f"out-{self.calls}"
        argv = ["bench", "--config", str(self.config), "--output", str(out),
                "--sweep", self.spec["sweep"], "--threads", str(threads)]
        dt, code, _ = _call_cli(argv)
        led = self.ledger
        led.attempted += 1
        led.check(code == 0, f"bench --threads {threads} exited {code}")
        data = [json.loads(p.read_text()) for p in sorted(out.glob("report_*.json"))]
        led.attempted += sum(d["replicates"] for d in data)
        failures = sum(d["solver_failures"] for d in data)
        led.fail(failures, f"{failures} non-converged solves at --threads {threads}")
        led.check(len(data) == self.spec["configs"], f"expected {self.spec['configs']} reports")
        csv = out / "reports.csv"
        blob = csv.read_bytes() if csv.exists() else b""
        led.check(bool(blob), "reports.csv missing")
        if self.reference is None:
            self.reference = {
                "reports_csv_sha256": hashlib.sha256(blob).hexdigest(),
                "q_agg_regret": {d["label"]: repr(d["methods"]["q_agg"]["regret"]) for d in data},
            }
        else:
            led.check(hashlib.sha256(blob).hexdigest() == self.reference["reports_csv_sha256"],
                      f"reports.csv at --threads {threads} differs from the first "
                      "--threads 1 call with the same seed")
        shutil.rmtree(out, ignore_errors=True)
        return dt

    def iteration(self) -> dict:
        return {"sweep": self.sweep(1)}

    def finish(self) -> None:
        if self.threads2:
            self.t2 = [self.sweep(self.threads2) for _ in range(self.T2_CALLS)]


class OneshotLoop:
    """One ``qagg aggregate`` call, then one ``qagg validate`` call, with their checks."""

    def __init__(self, spec: dict, work: Path, ledger: Ledger):
        import numpy as np

        self.spec = spec
        self.work = work
        self.ledger = ledger
        self.X = np.load(work / "X.npy")
        self.reference: dict | None = None
        self.calls = 0

    def aggregate(self) -> float:
        import numpy as np

        self.calls += 1
        out = self.work / f"agg-{self.calls}"
        w = self.work
        argv = ["aggregate", "--design", str(w / "X.npy"), "--response", str(w / "y.npy"),
                "--penalty", str(w / "K.npy"), "--lambdas", self.spec["lambdas"],
                "--sigma", repr(self.spec["sigma"]), "--output", str(out)]
        dt, code, _ = _call_cli(argv)
        led = self.ledger
        led.attempted += 2  # one CLI call, one solve
        if led.check(code == 0, f"aggregate exited {code}"):
            res = json.loads((out / "aggregate.json").read_text())
            theta = np.asarray(res["theta"])
            fitted = np.asarray(res["fitted"])
            implied = self.X @ np.asarray(res["coefficients"])
            led.check(res["converged"] is True, "aggregate did not report converged")
            led.check(res["kkt_residual"] >= -KKT_TOL * (1.0 + abs(res["objective"])),
                      f"kkt residual {res['kkt_residual']!r} fails the certificate")
            led.check(bool(theta.min() >= 0.0) and abs(theta.sum() - 1.0) <= 1e-12,
                      "theta is not on the simplex")
            gap = float(np.linalg.norm(fitted - implied))
            led.check(gap <= FIT_RTOL * max(float(np.linalg.norm(fitted)), 1e-300),
                      f"fitted differs from X @ coefficients by {gap:.3e}")
            digest = hashlib.sha256((out / "aggregate.json").read_bytes()).hexdigest()
            if self.reference is None:
                self.reference = {
                    "aggregate_json_sha256": digest,
                    "objective": repr(res["objective"]),
                    "kkt_residual": repr(res["kkt_residual"]),
                    "support": int((theta > 0).sum()),
                }
            else:
                led.check(digest == self.reference["aggregate_json_sha256"],
                          "aggregate.json differs from the first call with the same seed")
        shutil.rmtree(out, ignore_errors=True)
        return dt

    def validate(self) -> float:
        """``qagg validate`` on the ordered stack; it must print three PASS lines."""
        dt, code, text = _call_cli(["validate", "--matrices", str(self.work / "stack.npy")])
        self.ledger.attempted += 1
        lines = text.splitlines()
        self.ledger.check(
            code == 0 and len(lines) == 3 and all(ln.endswith(": PASS") for ln in lines),
            f"validate on the ordered stack exited {code}: {text!r}")
        return dt

    def iteration(self) -> dict:
        return {"aggregate": self.aggregate(), "validate": self.validate()}

    def finish(self) -> None:
        """Untimed: the axioms must still be checked, so a non-commuting stack exits 1."""
        _, code, _ = _call_cli(["validate", "--matrices", str(self.work / "bad_stack.npy")])
        self.ledger.attempted += 1
        self.ledger.check(code == 1, f"validate on the non-commuting stack exited {code}")


def _median(values):
    return float(statistics.median(values)) if values else None


def _call_s(samples: dict) -> float:
    """The geometric mean, over the call types of an iteration, of each type's median."""
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in samples.values()))


def _call_rel(samples: dict, refs: list) -> float:
    """The geometric mean, over the call types, of each type's mean time in reference tasks."""
    ref = statistics.fmean(refs)
    return math.exp(statistics.fmean(math.log(statistics.fmean(v) / ref)
                                     for v in samples.values()))


class Reference:
    """A fixed task, timed between the workload's calls, to express call times in.

    The shared host's speed changes by up to 2x for seconds to minutes at a
    time, and moves every wall time of a run with it.  The task is the same
    work on every commit and runs no qagg code.  It mixes the kinds of work
    qagg does: small numpy calls from a Python loop (the replicate loop),
    elementwise passes and a matrix product over a 1000x100 array (the
    per-replicate fits of up to 1000 members), an eigh and an SVD (the
    family build).  Timed alternately with the calls, it slows down with
    them, so that call time / task time stays put when the host's speed
    changes, while a change to qagg moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((200, 100))
        S = rng.standard_normal((300, 300))
        self.S = S @ S.T
        self.X = rng.standard_normal((1000, 100))
        self.B = rng.standard_normal((100, 20))

    def __call__(self) -> float:
        import numpy as np

        A, X = self.A, self.X
        t0 = time.perf_counter()
        for i in range(1500):
            np.maximum(A.T @ A[:, i % 100], 0.0).sum()
        for _ in range(40):
            ((X * A[0]) ** 2).sum(axis=1)
            (X @ self.B).sum()
        np.linalg.eigh(self.S)
        np.linalg.svd(A, full_matrices=False)
        return time.perf_counter() - t0


class SetupProbes:
    """A ``worker.py setup`` process; each call takes one set-up sample and returns its time."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen([sys.executable, __file__, "setup", "--work", str(work)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"set-up probes ended with status {self.proc.wait()}")
        probe = json.loads(line)
        return probe["import_s"] + probe["calls_s"]

    def __enter__(self) -> "SetupProbes":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.proc.wait(timeout=60) != 0 and exc[0] is None:
            raise SystemExit(f"set-up probes exited {self.proc.returncode}")


def _repeat(iteration, seconds: float, min_samples: int, probe=None, probes: int = 0,
            tracer=None):
    """Closed loop: start the next iteration as soon as the previous one returns.

    An iteration returns the seconds of each of its calls by call type.
    After each iteration the reference task runs until its time is
    REF_SHARE of the calls' time so far, so that both sample the host's
    speed over the same window.  The loop stops when one more iteration, at
    the median time of each call type so far, would end past ``seconds``,
    so that a run of long calls does not overrun; it runs at least
    ``min_samples`` iterations.  ``probes`` set-up samples are taken
    between iterations, evenly spread over the run; their time, and the
    reference task's, counts against ``seconds``.  With a tracer, each
    iteration is one span group.

    Returns (call samples by type, reference task samples, set-up samples).
    """
    reference = Reference()
    samples: dict[str, list[float]] = {}
    refs: list[float] = []
    setup = []
    start = time.perf_counter()
    done = 0
    while done < min_samples or (
            time.perf_counter() - start
            + (1.0 + REF_SHARE) * sum(statistics.median(v) for v in samples.values())
            <= seconds):
        if tracer is not None:
            tracer.group = done
        for name, dt in iteration().items():
            samples.setdefault(name, []).append(dt)
        done += 1
        calls = sum(map(sum, samples.values()))
        while sum(refs) < REF_SHARE * calls:
            refs.append(reference())
        while len(setup) < probes and (
                time.perf_counter() - start >= len(setup) * seconds / probes):
            setup.append(probe())
    while len(setup) < probes:
        setup.append(probe())
    return samples, refs, setup


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict form of the build config
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def cmd_run(args) -> int:
    work = Path(args.work)
    spec = json.loads((work / "spec.json").read_text())
    import qagg
    import qagg.cli  # noqa: F401  (imported before the clock, as set-up)

    src = Path(args.src).resolve()
    if src not in Path(qagg.__file__).resolve().parents:
        raise SystemExit(f"qagg was imported from {qagg.__file__}, not from {src}")
    workload = spec["workload"]
    ledger = Ledger()
    if workload == "cli-oneshot":
        loop = OneshotLoop(spec, work, ledger)
    else:
        loop = McLoop(spec, work, args.nproc, ledger)

    # a traced run spends half its time untraced, for the tracing overhead
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    if args.trace:
        samples, refs, setup = _repeat(loop.iteration, seconds, 1)
    else:
        with SetupProbes(work) as probe:
            samples, refs, setup = _repeat(
                loop.iteration, seconds, MIN_SAMPLES, probe, SETUP_SAMPLES)
    result: dict = {"workload": workload, "seed": spec["seed"], "size": spec["size"],
                    "trace": args.trace, "call_s": _call_s(samples),
                    "call_rel": _call_rel(samples, refs), "ref_s": _median(refs)}

    if args.trace:
        from spans import Tracer, summarize

        tracer = Tracer(workload)
        if workload == "cli-oneshot":
            tracer.label = workload
            tracer.replicates[workload] = 1  # one response and one stack per iteration
        with tracer:
            traced, traced_refs, _ = _repeat(loop.iteration, seconds, 2, tracer=tracer)
        result["traced_call_s"] = _call_s(traced)
        result["traced_call_rel"] = _call_rel(traced, traced_refs)
        result["trace"] = summarize(tracer, len(next(iter(traced.values()))))
        ledger.fail(len(tracer.missing), "trace hooks not found: " + ", ".join(tracer.missing))
        result["trace"]["metrics"]["trace.overhead_ratio"] = (
            result["traced_call_rel"] / result["call_rel"])
        tracer.write_csv(args.spans)

    loop.finish()
    if workload == "cli-oneshot":
        timings = {f"{name}_s": _median(values) for name, values in samples.items()}
    else:
        t1 = loop.replicates / result["call_s"]
        t2 = loop.replicates / _median(loop.t2) if loop.t2 else None
        timings = {"replicates_per_s": t1, "replicates_per_s_t2": t2,
                   "parallel_efficiency": t2 / (2.0 * t1) if t2 else None}
        samples["sweep_t2"] = loop.t2

    result.update({
        "timings": timings,
        "samples": samples,
        "reference": loop.reference,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "ref_s_samples": refs,
        "setup_s_samples": setup,
        "peak_rss_mb": _peak_rss_mb(),
        "env": environment(),
    })
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("gen")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--work", required=True)
    p.set_defaults(func=cmd_gen)
    p = sub.add_parser("setup")
    p.add_argument("--work", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("run")
    p.add_argument("--work", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nproc", type=int, required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(func=cmd_run)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
