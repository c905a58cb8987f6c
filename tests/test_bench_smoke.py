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


def smoke_run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--smoke", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
    assert last["failed"] == 0


def test_traced_shock_smoke_run_is_correct():
    smoke_run("shock", 1)


def test_calm_smoke_run_on_the_process_pool_is_correct():
    """calm fits with workers=2 and checks the CLI's files against the library's bytes.

    ``--seconds 0`` still fits each panel once and runs the index stage twice per fit.
    """
    smoke_run("calm", 0, "--seconds", "0")
