"""Smoke runs of the benchmark: its output gates and op-count cross-check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_stream_workload_passes_its_gate(tmp_path):
    # Each traced run counts one fir_filter call with OpCounter and fails
    # unless mults = P and adds = pre + post = count_proposed per window.
    # Float and exact mode share one executor, so both workloads run, and
    # retap_wide checks its m = 1024 outputs and counts.  The benchmark's own
    # scripts run from a copy beside a link to this checkout's src/, so their
    # results land under tmp_path, not in the checkout's perfbench/out/.
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    for workload in ("stream_m11", "retap_wide", "verify_exact"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (workload, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["attempted"] > 0 and result["failed"] == 0
