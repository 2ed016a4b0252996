"""Smoke test of the benchmark harness at tiny sizes; asserts no timings.

One traced run per workload checks that every trace hook still resolves,
that the workload inputs can be generated from the public API, and that
all of the benchmark's output checks pass.  Its records go to the
git-ignored ``perfbench/results/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# build_tikhonov_family calls per sweep at tiny size: one per distinct penalty,
# since a sweep's other grids reuse its factorization: mc-grid the identity for
# the reference grid and M in {2, 10}; mc-union the exponents 0 and 3 of the
# q = 1 reference and q in {1, 2}; cli-oneshot the one family of `qagg aggregate`
FAMILY_BUILDS = {"mc-grid": 1, "mc-union": 2, "cli-oneshot": 1}


@pytest.mark.parametrize("workload", ["mc-grid", "mc-union", "cli-oneshot"])
def test_traced_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    builds = result["metrics"]["spectral.build_tikhonov_family.calls"]["value"]
    assert builds == FAMILY_BUILDS[workload]
