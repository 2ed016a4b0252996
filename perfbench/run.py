#!/usr/bin/env python3
"""qagg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports qagg from ``src``
and needs nothing installed beyond numpy.  Workloads (see README.md):

    mc-grid      qagg bench --sweep M on the AC-2 config
    mc-union     qagg bench --sweep q on the AC-3 config
    cli-oneshot  qagg aggregate on an n=2000, p=500, M=200 problem, then
                 qagg validate on a 50-member, n=200 ordered stack

Every stage runs in a fresh child process with single-threaded BLAS.
Human-readable lines go to stdout first; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The full record of a run (samples, checksums, regrets, environment,
per-config counters) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, every child included

END_TO_END = (
    ("call_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("spectral.build_tikhonov_family.s", "s"),
    ("spectral.build_tikhonov_family.calls", "count"),
    ("spectral.spectral_coords.calls_per_replicate", "count"),
    ("spectral.spectral_coords.s", "s"),
    ("spectral.apply_member.s", "s"),
    ("spectral.apply_weights.s", "s"),
    ("spectral.recover_coefficients.s", "s"),
    ("aggregate.solve_q_aggregation.self_s", "s"),
    ("aggregate.solve_q_aggregation.calls", "count"),
    ("aggregate.solve_q_aggregation.p50_us", "us"),
    ("aggregate.solve_q_aggregation.p99_us", "us"),
    ("aggregate.member_fits.s", "s"),
    ("aggregate.member_fits.calls_per_replicate", "count"),
    ("aggregate.make_weights.s", "s"),
    ("aggregate.cp_values.s", "s"),
    ("aggregate.cp_values.calls_per_replicate", "count"),
    ("aggregate.select_cp.self_s", "s"),
    ("aggregate.select_gcv.s", "s"),
    ("aggregate.exponential_weights.self_s", "s"),
    ("aggregate.pivots_per_solve.mean", "count"),
    ("aggregate.pivots_per_solve.max", "count"),
    ("aggregate.support_size.max", "count"),
    ("aggregate.kkt_residual.min", "value"),
    ("aggregate.converged.ratio", "ratio"),
    ("smoother.member_risks.s", "s"),
    ("smoother.oracle_index.s", "s"),
    ("smoother.check_ordered.s", "s"),
    ("bench.build_instance.s", "s"),
    ("bench.run_experiment.self_s", "s"),
    ("bench.write_report_json.s", "s"),
    ("bench.write_reports_csv.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class StageError(RuntimeError):
    pass


def _child(argv, env, deadline: float) -> None:
    """Run one stage in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, start_new_session=True, stdout=sys.stderr, stderr=sys.stderr,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise StageError(f"stage {argv[0]} overran the run deadline") from None
    finally:
        if proc.poll() is None:  # overran or interrupted: leave no process behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise StageError(f"stage {argv[0]} exited {proc.returncode}")


def _report(result: dict, args) -> dict:
    """Print the human-readable record and return the contract metrics."""
    env = result["env"]
    setup_s = result["setup_s_samples"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in result["timings"].items():
        unit = {"replicates_per_s": "1/s", "replicates_per_s_t2": "1/s",
                "parallel_efficiency": "ratio"}.get(name, "s")
        shown = "skipped (fewer than 2 cores)" if value is None else f"{value!r} {unit}"
        print(f"{name} {shown}")
    print(f"call_s {result['call_s']!r} s")
    print(f"call_rel {result['call_rel']!r} ratio (mean call time / mean reference task "
          f"time, reference task median {result['ref_s']!r} s)")
    if setup_s:
        print(f"setup_s {statistics.median(setup_s)!r} s "
              f"(median of {len(setup_s)} samples, each the mean of fresh-process probes)")
    print(f"peak_rss_mb {result['peak_rss_mb']!r} MiB")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"fail_rate {rate!r} ratio ({result['failed']} failed / {result['attempted']} "
          "attempted solves and CLI calls)")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for key, value in (result["reference"] or {}).items():
        print(f"record {key} {json.dumps(value, sort_keys=True)}")
    for name, samples in result["samples"].items():
        if samples:
            q1, q2, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
            print(f"samples {name} n={len(samples)} min {min(samples):.4f} q1 {q1:.4f} "
                  f"median {q2:.4f} q3 {q3:.4f} max {max(samples):.4f} s")

    if not args.trace:
        values = {
            "call_rel": result["call_rel"],
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    trace = result["trace"]
    print(f"trace iterations {trace['iterations']}  "
          f"overhead {trace['metrics']['trace.overhead_ratio']!r} "
          f"(call_rel traced {result['traced_call_rel']!r} / untraced {result['call_rel']!r})")
    for label, counters in trace["per_config"].items():
        shown = {k: v for k, v in counters.items() if v}
        print(f"config {label} {json.dumps(shown, sort_keys=True)}")
    metrics = {name: {"value": trace["metrics"][name], "unit": unit} for name, unit in PER_LAYER}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test only")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qagg" / "__init__.py").is_file():
        print(f"error: no qagg sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that the running stage's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    work = HERE / ".work" / f"{tag}-{os.getpid()}"
    try:
        _child(["gen", "--workload", args.workload, "--seed", str(args.seed),
                "--size", args.size, "--work", str(work)], env, deadline)
        _child(["run", "--work", str(work), "--src", str(src), "--seconds", repr(args.seconds),
                "--trace", str(args.trace), "--nproc", str(nproc),
                "--spans", str(results / f"{tag}-spans.csv.gz")], env, deadline)
        result = json.loads((work / "result.json").read_text())
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = _report(result, args)
    (results / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
