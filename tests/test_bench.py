"""The benchmark's correctness checks, run on tiny inputs as a unit test.

``bench/run.py`` checks its outputs against a scorer and recounts written
apart from the package, and checks that repeated passes write identical
bytes. Running it here makes a package change that breaks those checks
fail the test suite, without the benchmark's long timed runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["suite", "crowd", "link"])
def test_bench_checks_pass_on_tiny_inputs(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert proc.returncode == 0
