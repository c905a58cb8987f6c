"""The package's public names are its four stages, and nothing else; one module owns CSV, and
one hands EM rows to `em_fit`."""

import ast
import os
from pathlib import Path

import pytest

import ecuindex
from ecuindex import hmm, preprocess

# bench/spans.py times the functions in ecuindex.__all__ (without em_fit spans its --trace 1
# divides by zero) and bench/run.py imports generate and truth_labels from ecuindex, so em_fit,
# init_params, preprocess_grid, generate, truth_labels, ecu_grouped and srpi stay; run.py also
# reads each fit result's DeviationSeries (`.deviation.offsets`)
PUBLIC = ("DeviationSeries EcuSeries FilterDegeneracyError FilterOutput FirmDayPanel FitReport "
          "KwhPanel PROSPEROUS PanelConfig RECESSIONARY RegimeModel RegimeParams SrpiSeries "
          "SyntheticPanel ecu_grouped em_fit generate init_params preprocess_grid srpi "
          "truth_labels").split()
# the per-series chain (now tests/preprocess_oracle.py) and the test-only regime helpers
REMOVED = ("AlignedPair CleanSeries RawSeries align detect_outliers deviation interpolate smooth "
           "forward_filter label_regimes sample_path").split()


def test_public_names_are_the_four_stages():
    assert sorted(ecuindex.__all__) == sorted(PUBLIC) and len(PUBLIC) == 21
    assert all(hasattr(ecuindex, name) for name in PUBLIC)
    for module in (ecuindex, preprocess, hmm):  # without the attribute, `from module import` fails
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__


def test_only_panelio_imports_csv():
    """The CSV dialect (line endings, quoting, ``#`` lines, header and width checks) is decided
    in one module."""
    importers = set()
    for path in Path(ecuindex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "csv" or name.startswith("csv.") for name in names):
                importers.add(path.stem)
    assert importers == {"panelio"}


def test_hmm_alone_defines_em_fit_and_hmmbatch_alone_calls_it():
    """The batch hands its last rows to ``em_fit`` in one place, and the package re-exports it:
    no other module defines, imports or names it (docstrings and comments are not code)."""
    defines, imports, names = set(), set(), set()
    for path in Path(ecuindex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "em_fit":
                defines.add(path.stem)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if any("em_fit" in (alias.name, alias.asname) for alias in node.names):
                    imports.add(path.stem)
            if (isinstance(node, ast.Name) and node.id == "em_fit"
                    or isinstance(node, ast.Attribute) and node.attr == "em_fit"):
                names.add(path.stem)
    assert (defines, imports, names) == ({"hmm"}, {"__init__"}, {"hmmbatch"})


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_importing_the_package_starts_one_blas_thread_unless_told_otherwise(run_child):
    """``import ecuindex`` sets one BLAS thread before numpy starts its pool, and a user's own
    setting wins."""
    code = ("import os, ecuindex\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    unset = dict.fromkeys(BLAS_THREADS)
    assert run_child(code, env=unset) == "1 1"
    assert run_child(code, env={**unset, "OPENBLAS_NUM_THREADS": "2"}).split()[1] == "2"
