"""Smoke runs of the benchmark: its output gates and op-count cross-check."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_stream_workload_passes_its_gate():
    # Each traced run counts one fir_filter call with OpCounter and fails
    # unless mults = P and adds = pre + post = count_proposed per window.
    # Float and exact mode share one executor, so both workloads run, and
    # retap_wide checks its m = 1024 outputs and counts.
    for workload in ("stream_m11", "retap_wide", "verify_exact"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (workload, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["attempted"] > 0 and result["failed"] == 0
