#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; asserts no timings.

    python3 perfbench/selftest.py

For every workload it checks that:
  * an untraced run passes its output-correctness gate and prints every
    end-to-end metric of BENCHMARK.json with its unit;
  * a traced run prints every per-layer metric of BENCHMARK.json with
    its unit, and finds every function it hooks;
  * two traced runs with the same seed give identical exact counters
    (calls per replicate, pivots, support sizes), per workload and per
    config.
It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
EXACT_SUFFIXES = ("calls_per_replicate", ".calls", "pivots_per_solve.mean",
                  "pivots_per_solve.max", "support_size.max", "solves")


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def _exact(record: dict, metrics: dict) -> dict:
    counters = {k: v["value"] for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}
    for label, per_config in record["trace"]["per_config"].items():
        counters.update({f"{label}/{k}": v for k, v in per_config.items()
                         if k.endswith(EXACT_SUFFIXES)})
    return counters


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = _units(spec["end_to_end"]), _units(spec["per_layer"])
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _last_json(_run(workload, 0))
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, plain
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        assert got == end_to_end, (workload, got, end_to_end)

        counters = []
        for _ in range(2):
            traced = _last_json(_run(workload, 1))
            assert traced["correct"], traced
            got = {k: v["unit"] for k, v in traced["metrics"].items()}
            assert got == per_layer, (workload, sorted(set(got) ^ set(per_layer)))
            record = json.loads(
                (HERE / "results" / f"{workload}-seed{SEED}-tiny-trace1.json").read_text())
            missing = record["trace"]["missing_hooks"]
            assert not missing, (workload, missing)
            counters.append(_exact(record, traced["metrics"]))
        assert counters[0] == counters[1], (workload, counters)
        assert any("/" in k for k in counters[0]), f"{workload}: no per-config counters"
        print(f"{workload}: ok ({len(counters[0])} exact counters repeat)")

    bare = HERE / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("mc-grid", 0, cwd=bare, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
