"""Smoke run of the benchmark harness, so a change that breaks it fails here.

The traced run selects its spans by public function name (``pipeline.fit_panel``,
``ecu.ecu_grouped``, ...), so renaming or removing a function the harness
times or calls shows up as an error or ``correct: false``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_shock_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", "shock", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
    assert last["failed"] == 0
