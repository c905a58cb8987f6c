"""The package's public names are its four stages, and nothing else; one module owns the file
formats, one runs EM in one loop, one, importing no other, declares the settings, and one owns
a model's numbers and builds models from them."""

import ast
import dataclasses
import os
from pathlib import Path

import pytest

import ecuindex
from ecuindex import config, hmm, panelio, pipeline, preprocess

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
# the per-firm model records, now one table, panelio.FitOutputs, and the reader of one of its
# rows, now RegimeModel.from_numbers
REMOVED_FROM_PANELIO = ["ModelRow", "_model_numbers", "regime_model"]
# the converters between two layouts of a model's 12 numbers, now one, RegimeModel.numbers's
REMOVED_CONVERTERS = {hmm: ["_column", "_row_model"], pipeline: ["_numbers"]}
# the fit's files, whose format panelio alone decides; pipeline may only use its FitOutputs
MOVED_TO_PANELIO = ["FitOutputs", "read_fit_outputs", "write_fit_outputs"]


def test_public_names_are_the_four_stages():
    assert sorted(ecuindex.__all__) == sorted(PUBLIC) and len(PUBLIC) == 21
    assert all(hasattr(ecuindex, name) for name in PUBLIC)
    for module in (ecuindex, preprocess, hmm):  # without the attribute, `from module import` fails
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
    assert [name for name in REMOVED_FROM_PANELIO if hasattr(panelio, name)] == []
    for module, names in REMOVED_CONVERTERS.items():
        assert [name for name in names if hasattr(module, name)] == [], module.__name__
    assert [name for name in MOVED_TO_PANELIO if hasattr(pipeline, name)] == ["FitOutputs"]
    assert pipeline.FitOutputs is panelio.FitOutputs


def test_a_fitted_model_is_one_models_csv_row(tmp_path):
    """The fit's table holds a firm's model as its ``models.csv`` row, flags included, and
    derives ``converged`` and ``degenerate`` from it; ``read_models`` returns the rows beside
    the ids and codes, not the numbers and two bool arrays apart."""
    assert [field.name for field in dataclasses.fields(panelio.FitOutputs)] == [
        "firm_ids", "sector_codes", "district_codes", "models", "firmdays"]
    path = tmp_path / "models.csv"
    path.write_text(",".join(panelio.MODELS_HEADER) + "\nA,101,D01,0.0,1.0,1.0,0.0,-1.0,1.0,"
                    "1.0,0.0,0.0,1.0,0.5,0.5,-2.0,true,false\n")
    firm_ids, sectors, districts, rows = panelio.read_models(path)
    assert (firm_ids, sectors, districts) == (["A"], ["101"], ["D01"])
    assert rows.shape == (1, 15) and rows[0, 12:].tolist() == [-2.0, 1.0, 0.0]


def dotted(node) -> str:
    """``a.b.c`` for an attribute chain on a name, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


NUMPY_FILES = {"save", "load", "lib.format"}  # numpy's .npy writer and readers


def test_only_panelio_imports_csv():
    """The file formats are decided in one module: the CSV dialect (line endings, quoting,
    ``#`` lines, header and width checks) and the fit's ``.npy`` array.  No other module imports
    ``csv`` or uses ``np.save``, ``np.load`` or ``np.lib.format``."""
    users = set()
    for path in Path(ecuindex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = [dotted(node)] if isinstance(node, ast.Attribute) else []
            for name in names:
                head, _, rest = name.partition(".")
                if (head == "csv" or head in ("np", "numpy")
                        and any(rest == f or rest.startswith(f + ".") for f in NUMPY_FILES)):
                    users.add(path.stem)
    assert users == {"panelio"}


def test_hmm_alone_defines_and_names_em_fit():
    """A wider EM stream hands its last rows to ``em_fit`` in ``hmm``, and the package
    re-exports it: no other module defines, imports or names it (docstrings and comments are
    not code)."""
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
    assert (defines, imports, names) == ({"hmm"}, {"__init__"}, {"hmm"})


def test_pipeline_takes_the_em_stream_only_as_hmm_em_rows():
    """The fit reaches the EM stream through one function: no module imports ``em_rows`` or its
    tail's ``SCALAR_ROWS`` and ``_em_tail`` by name, no module but ``pipeline`` imports ``hmm``
    itself, and ``pipeline`` does so at its top, so that a pool's workers inherit it, and names
    nothing of the module but ``em_rows``, looked up at each call so that a wrapper set on the
    module is the one called."""
    stream = {"em_rows", "SCALAR_ROWS", "_em_tail"}
    taken, whole, used = set(), set(), set()
    for path in Path(ecuindex.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("hmm"):
                taken.update((path.stem, alias.name) for alias in node.names
                             if alias.name in stream)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and any(alias.name.rpartition(".")[2] == "hmm" for alias in node.names)):
                whole.add(path.stem)
                assert node in tree.body, f"{path.stem} imports hmm inside a function"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "hmm"):
                used.add((path.stem, node.attr))
    assert taken == set()
    assert whole == {"pipeline"}
    assert used == {("pipeline", "em_rows")}


def test_hmm_runs_em_in_one_loop():
    """EM has one loop, ``hmm.em_rows``: no other function of the package calls the E-step, the
    M-step's one other caller is the deterministic init, ``_init_rows``, which only the loop and
    ``init_params`` call, ``em_fit`` runs the stream on its one row, and ``hmmbatch``, the module
    the stream had to itself, is gone."""
    src = Path(ecuindex.__file__).parent
    callers = {}
    for path in src.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call):
                        callers.setdefault(dotted(node.func).rpartition(".")[2], set()).add(
                            f"{path.stem}.{function.name}")
    assert callers["_e_step_rows"] == {"hmm.em_rows"}
    assert callers["_m_step_rows"] == {"hmm.em_rows", "hmm._init_rows"}
    assert callers["_init_rows"] == {"hmm.em_rows", "hmm.init_params"}
    assert "hmm.em_fit" in callers["em_rows"]
    assert not (src / "hmmbatch.py").exists()


def test_only_hmm_constructs_models():
    """A model's numbers have one layout, ``RegimeModel.numbers``'s: outside ``hmm``, whose EM
    builds models and whose M-step checks each new sigma, no module calls the ``RegimeModel``
    or ``RegimeParams`` constructor; they read a model with ``RegimeModel.from_numbers``."""
    callers = set()
    for path in Path(ecuindex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and dotted(node.func).rpartition(".")[2] in (
                    "RegimeModel", "RegimeParams"):
                callers.add(path.stem)
    assert callers == {"hmm"}


def package_imports(path) -> set[str]:
    """The package modules that a module imports anywhere in its code (``__init__`` for the
    package itself)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "ecuindex"
                                                 or node.module.startswith("ecuindex.")):
            module = (node.module or "").removeprefix("ecuindex").lstrip(".")
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or "__init__" for alias in node.names
                         if alias.name.partition(".")[0] == "ecuindex")
    return found


def test_config_alone_declares_the_settings_and_imports_no_other_module():
    """``config`` is the bottom of the package: the settings, their checks and the default
    codebook are declared there and nowhere else, the generator's module is imported only by
    the command line and the package, and ``ecu`` needs nothing but the settings."""
    src = Path(ecuindex.__file__).parent
    imports = {path.stem: package_imports(path) for path in src.glob("*.py")}
    assert not (src / "sectors.py").exists()
    assert imports["config"] == set()
    assert imports["ecu"] == {"config"}
    assert {module for module, found in imports.items() if "simgen" in found} == {"cli",
                                                                                 "__init__"}
    defines = {}
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defines.setdefault(node.name, set()).add(path.stem)
    for name in ("PanelConfig", "check_date", "check_int64", "sector_level"):
        assert defines[name] == {"config"}, name
    assert ecuindex.PanelConfig is config.PanelConfig
    assert not hasattr(preprocess, "trailing_mean")


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


def test_pipeline_decides_each_firm_once():
    """A firm's EM outcomes are folded into one record as they arrive, and the fit reads its
    decision off that record: in ``pipeline`` one function writes a fit's filter into
    ``out[1:3, …]``, nothing imports ``collections``, whose counters a second gathering of
    outcomes needed, and no function builds a ``FitReport`` or a ``FilterOutput``, nor imports
    ``dataclasses.replace``, which copied a report to change a field: the fit's model is its
    ``models.csv`` row, and a result's report is built by ``hmm`` when it is read."""
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    writers, builders, imported = set(), set(), set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            targets = (node.targets if isinstance(node, ast.Assign) else [node.target]
                       if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            for sub in (sub for target in targets for sub in ast.walk(target)):
                if (isinstance(sub, ast.Subscript) and dotted(sub.value) == "out"
                        and isinstance(sub.slice, ast.Tuple)
                        and ast.unparse(sub.slice.elts[0]) == "1:3"):
                    writers.add(function.name)
            if isinstance(node, ast.Call) and dotted(node.func).endswith(("FilterOutput",
                                                                           "FitReport")):
                builders.add(function.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").partition(".")[0])
            if node.module == "dataclasses":
                imported.update(f"dataclasses.{alias.name}" for alias in node.names)
    assert len(writers) == 1, writers
    assert builders == set()
    assert "collections" not in imported and "dataclasses.replace" not in imported


def test_em_fit_keeps_its_model_as_numbers():
    """The package has one E-step, ``hmm._e_step_rows``, and one M-step, ``hmm._m_step_rows``,
    which ``em_fit`` runs through ``em_rows`` on a batch of one row, keeping its model as the
    12 numbers the batch and ``models.csv`` use: ``hmm`` defines no ``_forward``, ``_backward``,
    ``_forward_backward``, nor the scalar ``_e_step``, ``_m_step`` or ``emission_logdensity``,
    no other module defines an E-step or an M-step, and ``em_fit``, ``_e_step_rows`` and
    ``_m_step_rows`` build no ``RegimeModel``, by its constructor or by ``from_numbers``."""
    tree = ast.parse(Path(hmm.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert {"_forward", "_backward", "_forward_backward"}.isdisjoint(functions)
    assert {"_e_step", "_m_step", "emission_logdensity"}.isdisjoint(functions)
    elsewhere = {node.name for path in Path(ecuindex.__file__).parent.glob("*.py")
                 if path.stem != "hmm"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not any(name.startswith(("_e_step", "_m_step")) for name in elsewhere), elsewhere
    for name in ("em_fit", "_e_step_rows", "_m_step_rows"):
        builders = [dotted(node.func) for node in ast.walk(functions[name])
                    if isinstance(node, ast.Call)
                    and dotted(node.func).rpartition(".")[2] in ("RegimeModel", "from_numbers")]
        assert builders == [], name
