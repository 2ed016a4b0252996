#!/usr/bin/env python3
"""Regenerate the baseline of one workload: ten untraced runs, seeds 1 to 10.

    python3 perfbench/baseline.py --workload mc-grid

Runs perfbench/run.py once per seed with the run length of BENCHMARK.json
and reports, for every end-to-end metric, the median over the runs, the
quartiles and the spread (q3 - q1) / median next to the metric's bound.
The summary is printed and written to perfbench/results/baseline-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    runs = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = "  ".join(f"{k} {m['value']:.4g}" for k, m in line["metrics"].items())
        print(f"seed {seed}: correct {line['correct']} failed {line['failed']}/"
              f"{line['attempted']}  {shown}", flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
        bound = bounds.get(name)
        print(f"{name}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}"
              + (f"  bound {bound}" if bound is not None else ""))
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / f"baseline-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
