"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecuindex


def _run_child(code, *args, env=None) -> str:
    """The last line that ``code`` prints, run with ``args`` in a fresh interpreter whose
    environment is this one's updated by ``env``, where a None value unsets a variable."""
    src = str(Path(ecuindex.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src, **(env or {})}
    env = {key: value for key, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.fixture
def run_child():
    """``_run_child``: what a module's import or a stage leaves in a process shows only in
    a new one."""
    return _run_child
