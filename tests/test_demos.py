"""Each demo script runs to completion, so an API change that breaks one fails here.

The demos write their plots (when matplotlib is importable) into the
working directory, which is a temporary one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == ["demo_full_pipeline.py", "demo_preprocess.py",
                                       "demo_single_firm.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src,
           "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
