"""Smoke test of the outside-in benchmark: one short `algebra` run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_algebra_benchmark_runs_and_checks_its_answers():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 200
