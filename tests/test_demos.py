"""Each demo script and the README's library example run to completion, so an
API change that breaks one fails here, and the README quotes the fit's block sizes and
names each module.

The demos write their plots (when matplotlib is importable) into the
working directory, which is a temporary one.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ecuindex import hmm, pipeline

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == ["demo_full_pipeline.py", "demo_preprocess.py",
                                       "demo_single_firm.py"]


def run_script(script, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src,
           "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    run_script(demo, tmp_path)


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "library_use.py"
    script.write_text(code, encoding="utf-8")
    assert "peak P(recessionary)" in run_script(script, tmp_path)


def readme_sizes(start, end):
    """The README's text from ``start`` to ``end``, on one line, and every number it gives of
    firms, rows or EM starts, or at most or at a time."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme[readme.index(start):].split(end, 1)[0].split())
    found = re.findall(r"\b(\d+)(?:(?= (?:of its )?(?:firms?|rows?|EM starts?)\b| at a time))"
                       r"|at most (\d+)", text)
    return text, {int(a or b) for a, b in found}


def test_readme_quotes_the_fit_block_sizes_the_code_defines():
    """The Preprocess paragraph gives the grid and batch sizes, ``pipeline.EM_BLOCK`` and
    ``pipeline.EM_BATCH``, and the recursions paragraph those and ``hmm.SCALAR_ROWS``, by
    name and value, and no other."""
    grid_and_batch = {pipeline.EM_BLOCK, pipeline.EM_BATCH}
    text, sizes = readme_sizes("1. **Preprocess**", "2. **Fit**")
    assert "`pipeline.EM_BLOCK`" in text and "`pipeline.EM_BATCH`" in text
    assert sizes == grid_and_batch
    text, sizes = readme_sizes("One root seed drives", "## Install")
    for name in ("pipeline.EM_BLOCK", "pipeline.EM_BATCH", "hmm.SCALAR_ROWS"):
        assert f"`{name}`" in text
    assert sizes == grid_and_batch | {hmm.SCALAR_ROWS}


def test_readme_module_split_names_each_module_of_the_package():
    """The module split's list has one entry per module of ``src/ecuindex``, and no other: a
    module added, folded into another or renamed changes the list."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    intro = "The module split mirrors the pipeline:\n\n"
    text = readme[readme.index(intro) + len(intro):].split("\n\n", 1)[0]  # the list
    named = re.findall(r"^- `(\w+)`:", text, flags=re.M)
    modules = [path.stem for path in (ROOT / "src" / "ecuindex").glob("*.py")]
    assert len(named) == len(set(named)) and sorted(named) == sorted(modules)
