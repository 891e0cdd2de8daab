"""Smoke test of the benchmark harness in `bench/`: one short traced run."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tie_corpus_run_is_correct_and_fails_no_op():
    # A traced run does one set-up and at least one plain and one traced
    # round of the 500 markets, then checks every output.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tie-corpus", "--seed", "101",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["correct"] is True, proc.stderr
    assert record["failed"] == 0, proc.stderr
    assert record["attempted"] > 0
