"""End-to-end tests of the command line entry points.

Everything goes through main(argv) so exit codes and printed diagnostics
are exercised the same way a shell user would see them.
"""

import filecmp
import math
import os
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecuindex import panelio, pipeline
from ecuindex.cli import main
from ecuindex.config import DEFAULT_DISTRICTS, DEFAULT_SECTORS
from ecuindex.panelio import (FIRMDAY_LAYERS, MODELS_HEADER, read_models, read_panel,
                              write_models, write_panel)


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
# small panel, quick fits
n_firms = 10
seed = 42
noise_frac = 0.06
"""


@pytest.fixture(scope="module")
def fitted_dir(tmp_path_factory):
    """One simulate+fit run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("fitted")
    cfg = write_config(root / "run.cfg", BASE_CONFIG)
    out = str(root / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert main(["fit", "--config", cfg, "--out", out]) == 0
    return root / "out", cfg


def test_importing_the_cli_leaves_the_process_pool_out(run_child):
    """Only a fit on more than one worker imports ``multiprocessing``."""
    code = "import sys, ecuindex.cli; print('multiprocessing' in sys.modules)"
    assert run_child(code) == "False"


def test_fit_and_index_leave_openssl_out(fitted_dir, tmp_path, run_child):
    """``hashlib`` loads OpenSSL; only ``simulate`` and multi-start fits draw a firm's stream."""
    out, cfg = fitted_dir
    shutil.copy(out / "panel.csv", tmp_path)
    code = ("import sys\n"
            "from ecuindex.cli import main\n"
            "for stage in ('fit', 'index'):\n"
            "    assert main([stage, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('_hashlib' in sys.modules)")
    assert run_child(code, cfg, tmp_path) == "False"


def test_fit_and_index_leave_numpy_ma_out(fitted_dir, tmp_path, run_child):
    """On numpy 2.4, ``np.unique`` and ``np.median`` import ``numpy.ma`` (1.2 MB of RSS); a fit
    at ``multi_start`` = 0 and the index stage call neither."""
    out, cfg = fitted_dir
    shutil.copy(out / "panel.csv", tmp_path)
    code = ("import sys\n"
            "from ecuindex.cli import main\n"
            "seen = []\n"
            "for stage in ('fit', 'index'):\n"
            "    assert main([stage, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "    seen.append('numpy.ma' in sys.modules)\n"
            "print(*seen)")
    assert run_child(code, cfg, tmp_path) == "False False"


def test_index_leaves_the_batched_em_out(fitted_dir, tmp_path, run_child):
    """Only ``fit`` imports ``hmm``, the EM stream's module: compiling the stream in ``index``
    raised that stage's peak RSS."""
    out, cfg = fitted_dir
    for name in ("models.csv", "firmdays.npy"):
        shutil.copy(out / name, tmp_path)
    code = ("import sys\n"
            "from ecuindex.cli import main\n"
            "assert main(['index', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('ecuindex.hmm' in sys.modules)")
    assert run_child(code, cfg, tmp_path) == "False"


def test_only_fit_loads_the_fit_code(fitted_dir, tmp_path, run_child):
    """``simulate``, ``index`` and ``report`` read and write their files through ``panelio``:
    none of them imports ``pipeline`` or, through it, ``hmm``."""
    out, cfg = fitted_dir
    for name in ("models.csv", "firmdays.npy"):
        shutil.copy(out / name, tmp_path)
    code = ("import sys\n"
            "from ecuindex.cli import main\n"
            "common = ['--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "for stage in (['simulate'], ['index'], ['report', '--firm', 'F00003']):\n"
            "    assert main([*stage, *common]) == 0\n"
            "print(*(f'ecuindex.{name}' in sys.modules for name in ('pipeline', 'hmm')))")
    assert run_child(code, cfg, tmp_path) == "False False"


def read_rows(path):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


def test_simulate_writes_panel(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "10 firms" in msg
    rows = read_rows(out / "panel.csv")
    assert rows[0] == "firm_id,date,kwh,sector_code,district_code"
    assert len(rows) == 1 + 10 * 545
    assert "# root_seed=42" in (out / "panel.csv").read_text()


def test_simulate_is_reproducible(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(a)])
    main(["simulate", "--config", cfg, "--out", str(b)])
    assert filecmp.cmp(a / "panel.csv", b / "panel.csv", shallow=False)


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(a)])
    main(["simulate", "--config", cfg, "--out", str(b), "--seed", "7"])
    assert not filecmp.cmp(a / "panel.csv", b / "panel.csv", shallow=False)
    assert "# root_seed=7" in (b / "panel.csv").read_text()


def test_seed_flag_overrides_config_in_every_stage(tmp_path, capsys):
    """``--seed`` beats the config's ``seed`` in the root seed line of every CSV a stage
    writes."""
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    out = tmp_path / "out"
    written = {"simulate": ["panel.csv"], "fit": ["models.csv"], "index": ["ecu.csv", "srpi.csv"],
               "report": ["report_F00003.csv"]}
    for stage, names in written.items():
        firm = ["--firm", "F00003"] if stage == "report" else []
        assert main([stage, "--config", cfg, "--out", str(out), "--seed", "7", *firm]) == 0
        for name in names:
            assert (out / name).read_text().startswith("# root_seed=7\n"), name
    csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert csvs == sorted(name for names in written.values() for name in names)


def test_simulate_rejects_bad_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", "n_firms = -3\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "n_firms" in err


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", "n_frms = 10\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "n_frms" in capsys.readouterr().err


@pytest.mark.parametrize("command,line,needle", [
    ("index", "group_by = sector,sector", "group_by names 'sector' twice"),
    ("simulate", "shock_depth = 301:0.2,301:0.9", "shock_depth names '301' twice"),
])
def test_repeated_entry_is_a_config_error(tmp_path, capsys, command, line, needle):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG + line + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


def test_firm_key_is_a_config_error(fitted_dir, tmp_path, capsys):
    out, _ = fitted_dir
    cfg = write_config(tmp_path / "firm.cfg", BASE_CONFIG + "firm = F00003\n")
    assert main(["report", "--config", cfg, "--out", str(out), "--firm", "F00003"]) == 2
    assert "unknown config key 'firm'" in capsys.readouterr().err


@pytest.fixture
def three_firms(tmp_path):
    """A simulated 3-firm panel in ``tmp_path/out`` and its config."""
    cfg = write_config(tmp_path / "run.cfg", "n_firms = 3\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out, cfg


def test_bad_date_fails_fit_before_reading_the_panel(three_firms, tmp_path, capsys):
    out, _ = three_firms
    cfg = write_config(tmp_path / "bad.cfg", "n_firms = 3\nseed = 5\ntest_base = 2020-13-45\n")
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 2
    assert "test_base must be a date" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]
    # with no panel at all the config error still comes first
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("command,line", [("simulate", ""), ("fit", ""),
                                          ("fit", "multi_start = 1\n")])
def test_negative_seed_is_a_config_error(three_firms, tmp_path, capsys, command, line):
    """A negative root seed exits 2 naming ``seed`` and writes nothing, whether or not the
    command draws from it."""
    out, _ = three_firms
    panel = (out / "panel.csv").read_bytes()
    cfg = write_config(tmp_path / "seed.cfg", "n_firms = 3\n" + line)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]
    assert (out / "panel.csv").read_bytes() == panel


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "span", 10**20), ("simulate", "holiday_ref_days", 10**19),
    ("simulate", "shock_onset_jitter", 10**19), ("fit", "smooth_window", 10**20),
    ("fit", "interp_window", 10**20), ("fit", "outlier_window", 10**20 + 1)])
def test_integer_beyond_int64_is_a_config_error(three_firms, tmp_path, capsys, command, key,
                                                value):
    """An integer setting that numpy's int64 cannot hold exits 2 naming it and writes nothing,
    where it used to end in an ``OverflowError`` traceback or exit 1."""
    out, _ = three_firms
    panel = (out / "panel.csv").read_bytes()
    cfg = write_config(tmp_path / "big.cfg", f"n_firms = 3\n{key} = {value}\n")
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {key} must lie in the 64-bit integer range "
                                       f"[{-2**63}, {2**63 - 1}], got {value}\n")
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]
    assert (out / "panel.csv").read_bytes() == panel


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "span", 2**63 - 1), ("simulate", "span", 2**62), ("fit", "span", 2**62),
    ("fit", "span", 2**63 - 1), ("simulate", "holiday_ref_days", 2**63 - 1),
    ("simulate", "holiday_test_days", 2**63 - 1)])
def test_days_beyond_numpys_day_numbers_are_a_config_error(three_firms, tmp_path, capsys,
                                                           command, key, value):
    """A ``span`` or holiday length whose days numpy's int64 day numbers cannot hold exits 2
    naming it and writes nothing, where ``simulate`` used to write wrapped dates or a panel
    without its holiday and ``fit`` skipped every firm or exited 1."""
    out, _ = three_firms
    panel = (out / "panel.csv").read_bytes()
    cfg = write_config(tmp_path / "days.cfg", f"n_firms = 3\n{key} = {value}\n")
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {key} must keep the days it implies, and their "
                                       f"count, within numpy's 64-bit day numbers, got {value}\n")
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]
    assert (out / "panel.csv").read_bytes() == panel


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_day_range_too_large_to_allocate_is_one_error_line(three_firms, tmp_path, capsys,
                                                           command):
    """``span`` = 10**15 asks numpy for a 14.2 PiB day range, which it refuses at once: exit 1
    after one ``error:`` line and no output."""
    out, _ = three_firms
    cfg = write_config(tmp_path / "wide.cfg", "n_firms = 3\nspan = 1000000000000000\n")
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]


def test_memory_error_without_a_message_says_out_of_memory(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setattr("ecuindex.simgen.generate", exhausted)  # cmd_simulate imports it
    assert main(["simulate", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def edit_first_row(out, field, value):
    """Replace one field of the panel's first data row (data row 1, firm F00000)."""
    lines = (out / "panel.csv").read_text().splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln.startswith("F00000,"))
    fields = lines[first].split(",")
    fields[field] = value
    lines[first] = ",".join(fields)
    (out / "panel.csv").write_text("".join(lines))


def test_negative_kwh_is_a_data_error(three_firms, capsys):
    out, cfg = three_firms
    edit_first_row(out, 2, "-5.0")
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "panel.csv" in err and "F00000" in err and "non-negative" in err


def test_non_numeric_kwh_names_file_and_row(three_firms, capsys):
    out, cfg = three_firms
    edit_first_row(out, 2, "abc")
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "panel.csv data row 1, column kwh: cannot read 'abc'" in err


@pytest.mark.parametrize("field,value", [
    *((1, day) for day in ["2020-13-45", "", "2020", "today", "2020-01-24T05", "NaT"]),
    *((2, kwh) for kwh in ["nan", "inf", "-Infinity", " NaN"]),
])
def test_panel_takes_iso_days_and_finite_kwh(three_firms, capsys, field, value):
    out, cfg = three_firms
    edit_first_row(out, field, value)
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    column = "date" if field == 1 else "kwh"
    assert f"panel.csv data row 1, column {column}: cannot read {value!r}" in capsys.readouterr().err


def fit_with_a_huge_firm(three_firms, tmp_path, capsys, factor):
    """Fit the panel with its last firm's readings scaled by ``factor`` and, in another
    directory, without that firm; the two fits' outputs must be the same.  Returns the first
    fit's stdout."""
    out, cfg = three_firms
    panel = read_panel(out / "panel.csv")
    alone = tmp_path / "alone"
    alone.mkdir()
    write_panel(alone / "panel.csv", panel[:2])
    kwh = panel.kwh.copy()
    kwh[2] *= factor
    write_panel(out / "panel.csv", replace(panel, kwh=kwh))
    for directory in (out, alone):
        assert main(["fit", "--config", cfg, "--out", str(directory)]) == 0
    for name in ("models.csv", "firmdays.npy"):
        assert filecmp.cmp(out / name, alone / name, shallow=False), name
    return capsys.readouterr().out


def test_firm_of_huge_readings_is_skipped_alone(three_firms, tmp_path, capsys):
    """Finite readings whose sums of squares overflow skip their firm with a reason, without a
    numpy warning, and leave the other firms' fit outputs as they are without it."""
    out = fit_with_a_huge_firm(three_firms, tmp_path, capsys, 1e198)
    assert "skipped F00002: kWh readings too large" in out


def test_firm_whose_running_sum_overflows_is_skipped_alone(three_firms, tmp_path, capsys):
    """Readings near 1e306 kWh overflow the smoothing step's running sum: the firm is skipped
    naming the overflow, not a missing value, without a numpy warning."""
    out = fit_with_a_huge_firm(three_firms, tmp_path, capsys, 1e303)
    assert "skipped F00002: kWh readings too large: the smoothing sums overflow" in out


def test_base_load_ceiling(tmp_path, capsys):
    """A panel at the highest base load, 1e150, fits every firm; the next float is refused."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "top.cfg", "n_firms = 3\nbase_lo = 1e150\nbase_hi = 1e150\n")
    for command in ("simulate", "fit"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert "fitted 3 firms" in capsys.readouterr().out
    cfg = write_config(tmp_path / "over.cfg", "base_hi = 1.0000000000000002e150\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "over")]) == 2
    assert "base_hi <= 1e150" in capsys.readouterr().err
    assert not (tmp_path / "over").exists()


def test_fit_fails_when_every_firm_is_skipped(three_firms, capsys):
    out, cfg = three_firms
    lines = (out / "panel.csv").read_text().splitlines(keepends=True)
    (out / "panel.csv").write_text("".join(ln for ln in lines if ",2018-" not in ln))
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("skipped F0000") == 3
    assert "no firm could be fitted (3 skipped); first: F00000: " in captured.err
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]


def test_malformed_code_map_is_a_data_error(fitted_dir, tmp_path, capsys):
    out, _ = fitted_dir
    codes = tmp_path / "codes.csv"
    codes.write_text("sector,label\n101,Farming\n")
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG + f"code_map = {codes}\n")
    shutil.copytree(out, tmp_path / "o")
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "header ['sector', 'label'] does not match ['code', 'name']" in capsys.readouterr().err


@pytest.mark.parametrize("omit,code", [(False, 0), (True, 1)], ids=["every-sector", "one-omitted"])
def test_code_map_lists_the_sectors_index_accepts(fitted_dir, tmp_path, capsys, omit, code):
    """A code map naming every sector of the fit gives the built-in list's ``ecu.csv``; one
    that omits a sector is a data error naming it."""
    out, plain_cfg = fitted_dir
    sectors = sorted(set(read_models(out / "models.csv")[1]))
    codes = tmp_path / "codes.csv"
    codes.write_text("# sectors of the fit\ncode,name\n" + "".join(
        f'{c},"{DEFAULT_SECTORS[c][0]}"\r\n' for c in sectors[omit:]))
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG + f"code_map = {codes}\n")
    mapped, plain = tmp_path / "mapped", tmp_path / "plain"
    shutil.copytree(out, mapped)
    assert main(["index", "--config", cfg, "--out", str(mapped)]) == code
    if omit:
        assert f"unknown sector code {sectors[0]!r}" in capsys.readouterr().err
    else:
        shutil.copytree(out, plain)
        assert main(["index", "--config", plain_cfg, "--out", str(plain)]) == 0
        assert filecmp.cmp(plain / "ecu.csv", mapped / "ecu.csv", shallow=False)


def test_fit_outputs(fitted_dir, capsys):
    out, _ = fitted_dir
    later = {"panel.csv", "ecu.csv", "srpi.csv"}  # other stages' files in the shared dir
    fit_files = sorted(p.name for p in out.iterdir()
                       if p.name not in later and not p.name.startswith("report_"))
    assert fit_files == ["firmdays.npy", "models.csv"]
    models = read_rows(out / "models.csv")
    assert models[0].startswith("firm_id,sector_code,district_code,alpha_p,")
    assert len(models) == 1 + 10
    firmdays = np.load(out / "firmdays.npy", allow_pickle=False)
    assert firmdays.dtype == np.float64 and firmdays.flags.c_contiguous
    assert firmdays.shape == (5, 10, 191)


def test_fit_missing_panel_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "empty")]) == 1
    err = capsys.readouterr().err
    assert "panel.csv" in err


def test_fit_reports_skipped_firms(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    # truncate one firm's history so it cannot cover the analysis window
    lines = (out / "panel.csv").read_text().splitlines(keepends=True)
    keep = [ln for ln in lines
            if not (ln.startswith("F00000,2018") or ln.startswith("F00000,2019-01"))]
    (out / "panel.csv").write_text("".join(keep))
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "skipped F00000:" in msg
    assert len(read_rows(out / "models.csv")) == 1 + 9


def test_index_requires_fit_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["index", "--config", cfg, "--out", str(out)]) == 1
    assert "models.csv" in capsys.readouterr().err


def broken_copy(fitted_dir, tmp_path):
    """A copy of the shared fit directory to break, and the config."""
    out, cfg = fitted_dir
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    return broken, cfg


def edit_firmdays(broken, edit):
    """Replace ``firmdays.npy`` by ``edit`` of its (5, firms, days) array."""
    np.save(broken / "firmdays.npy", edit(np.load(broken / "firmdays.npy")))


READERS = (["index"], ["report", "--firm", "F00003"])


def assert_refused(capsys, broken, cfg, *needles, commands=READERS):
    """Each command exits 1 with one ``error:`` line holding every needle."""
    for command in commands:
        assert main([*command, "--config", cfg, "--out", str(broken)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert all(needle in err[0] for needle in needles), err[0]


def test_firm_without_model_row_is_named(fitted_dir, tmp_path, capsys):
    """``firmdays.npy`` holds no ids, so the fault is named by both files' row counts."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    lines = (broken / "models.csv").read_text().splitlines(keepends=True)
    (broken / "models.csv").write_text("".join(ln for ln in lines if not ln.startswith("F00004,")))
    assert_refused(capsys, broken, cfg, "firmdays.npy has 10 firm rows but models.csv has 9")


def repeat_models_row(broken):
    text = (broken / "models.csv").read_text()
    row = next(ln for ln in text.splitlines(keepends=True) if ln.startswith("F00003,"))
    (broken / "models.csv").write_text(text + row)


def repeat_firmdays_row(broken):
    edit_firmdays(broken, lambda a: np.insert(a, 4, a[:, 3], axis=1))


@pytest.mark.parametrize("repeat,message", [
    (repeat_models_row, "models.csv data row 11: firm F00003 already has a row"),
    (repeat_firmdays_row, "firmdays.npy has 11 firm rows but models.csv has 10"),
], ids=["models", "firmdays"])
def test_repeated_fit_row_is_a_data_error(fitted_dir, tmp_path, capsys, repeat, message):
    """A repeated row would count its firm-days twice in the indexes."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    repeat(broken)
    assert_refused(capsys, broken, cfg, message)


@pytest.mark.parametrize("edit,message", [
    (lambda a: np.delete(a, 100, axis=2), "firmdays.npy has 190 days per firm"),
    (lambda a: np.delete(a, 4, axis=1), "firmdays.npy has 9 firm rows but models.csv has 10"),
    (lambda a: a[:, :0], "firmdays.npy has 0 firm rows but models.csv has 10"),
], ids=["one_row", "every_row", "all_rows"])
def test_missing_firmday_is_a_data_error(fitted_dir, tmp_path, capsys, edit, message):
    """A missing offset or firm would drop firm-days out of the indexes.

    The array has no room for one missing firm-day: a missing offset is an
    even day count, a missing firm a row count other than ``models.csv``'s.
    """
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    edit_firmdays(broken, edit)
    assert_refused(capsys, broken, cfg, message)


def test_short_firmdays_row_is_a_data_error(fitted_dir, tmp_path, capsys):
    """A firm-day without its last column is an array of four layers."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    edit_firmdays(broken, lambda a: a[:4])
    assert_refused(capsys, broken, cfg, "firmdays.npy holds a <f8 array of shape (4, 10, 191)",
                   commands=[["index"]])


@pytest.mark.parametrize("column,firm,day,value", [
    ("ele_ref", 4, 2, np.nan),
    ("mu_r", 0, 190, np.nan),
    ("ele_test", 9, 95, np.inf),
    ("y", 3, 0, -np.inf),
])
def test_non_finite_firmday_value_is_refused(fitted_dir, tmp_path, capsys, column, firm, day,
                                              value):
    """A NaN weight would blank sRPI days; a NaN probability or inf weight is not data."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    layer = ["y", "mu_p", "mu_r", "ele_test", "ele_ref"].index(column)

    def poison(a):
        a[layer, firm, day] = value
        return a

    edit_firmdays(broken, poison)
    assert_refused(capsys, broken, cfg, f"firmdays.npy: column {column} of firm F0000{firm} is "
                   f"{value} at offset {day - 95}")


@pytest.mark.parametrize("column,firm,day,value,rule", [
    ("mu_p", 2, 7, -0.25, "probabilities must lie in [0, 1]"),
    ("mu_r", 5, 120, 1.5, "probabilities must lie in [0, 1]"),
    ("ele_test", 9, 95, -2.0, "kWh must not be negative"),
    ("ele_ref", 1, 0, -3.0, "kWh must not be negative"),
])
def test_out_of_range_firmday_value_is_refused(fitted_dir, tmp_path, capsys, column, firm, day,
                                                value, rule):
    """A probability outside [0, 1] is not a probability; a negative kWh would skew the indexes."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    layer = ["y", "mu_p", "mu_r", "ele_test", "ele_ref"].index(column)

    def poison(a):
        a[layer, firm, day] = value
        return a

    edit_firmdays(broken, poison)
    assert_refused(capsys, broken, cfg, f"firmdays.npy: column {column} of firm F0000{firm} is "
                   f"{value} at offset {day - 95}; {rule}")


def test_models_out_of_order_is_refused(fitted_dir, tmp_path, capsys):
    """Rows of ``firmdays.npy`` follow ``models.csv``: reordered firms would swap their days."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    lines = (broken / "models.csv").read_text().splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("F00002,"))
    lines[k], lines[k + 1] = lines[k + 1], lines[k]
    (broken / "models.csv").write_text("".join(lines))
    assert_refused(capsys, broken, cfg,
                   "models.csv data row 4: firm F00002 comes after F00003; firm ids must ascend")


@pytest.mark.parametrize("column,value,message", [
    ("sigma_p", "-1.0", ": firm F00002: sigma must be positive and finite, got -1.0"),
    ("q_pp", "1.5", ": firm F00002: transition matrix row entries must lie in [0, 1]"),
    ("pi0_p", "-0.5", ": firm F00002: initial state probabilities entries must lie in [0, 1]"),
    ("loglik", "nan", ", column loglik: cannot read 'nan'"),
    ("alpha_r", "-Infinity", ", column alpha_r: cannot read '-Infinity'"),
])
def test_refused_model_names_file_row_and_firm(fitted_dir, tmp_path, capsys, column, value,
                                                message):
    """A model field the fit never writes exits 1 naming the file and data row, and the firm
    of a model ``RegimeModel`` refuses; the fit writes NaN as an empty field."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    lines = (broken / "models.csv").read_text().splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if ln.startswith("firm_id,"))
    k = next(i for i, ln in enumerate(lines) if ln.startswith("F00002,"))
    fields = lines[k].split(",")
    fields[MODELS_HEADER.index(column)] = value
    lines[k] = ",".join(fields)
    (broken / "models.csv").write_text("".join(lines))
    assert_refused(capsys, broken, cfg, f"models.csv data row {k - header}{message}")


def write_bytes(data):
    def write(broken):
        (broken / "firmdays.npy").write_bytes(data(broken))
    return write


@pytest.mark.parametrize("damage,message", [
    (lambda b: edit_firmdays(b, lambda a: a.astype(np.float32)), "holds a <f4 array"),
    (lambda b: edit_firmdays(b, lambda a: a.astype(">f8")), "holds a >f8 array"),
    (lambda b: edit_firmdays(b, lambda a: a.reshape(5, -1)), "of shape (5, 1910); expected"),
    (lambda b: edit_firmdays(b, lambda a: np.concatenate([a, a[:1]])), "of shape (6, 10, 191)"),
    (write_bytes(lambda b: (b / "firmdays.npy").read_bytes()[:-100]), "is not a readable .npy"),
    (write_bytes(lambda b: b""), "is not a readable .npy file"),
    (write_bytes(lambda b: (b / "models.csv").read_bytes()), "is not a readable .npy file"),
], ids=["float32", "big_endian", "rank_2", "six_layers", "truncated", "empty", "csv_text"])
def test_unreadable_firmdays_npy_is_refused(fitted_dir, tmp_path, capsys, damage, message):
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    damage(broken)
    assert_refused(capsys, broken, cfg, "firmdays.npy", message)


@pytest.mark.parametrize("first,second,named", [
    (("y", 9, 0, -np.inf), ("mu_r", 0, 3, 1.5), "column y of firm F00009 is -inf"),
    (("mu_p", 7, 5, -0.25), ("mu_r", 2, 5, 1.5), "column mu_p of firm F00007 is -0.25"),
    (("ele_ref", 0, 1, -3.0), ("mu_r", 9, 2, np.nan), "column mu_r of firm F00009 is nan"),
], ids=["finite_rule_first", "layer_order", "nan_in_a_later_layer"])
def test_the_first_fault_is_named_across_kept_and_unread_layers(fitted_dir, tmp_path, capsys,
                                                                 monkeypatch, first, second,
                                                                 named):
    """Of two faults, the one first by rule, then layer, firm and offset is named, whichever
    layers the command keeps, with one firm checked at a time."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 1)
    broken, cfg = broken_copy(fitted_dir, tmp_path)

    def poison(a):
        for column, firm, day, value in (first, second):
            a[FIRMDAY_LAYERS.index(column), firm, day] = value
        return a

    edit_firmdays(broken, poison)
    assert_refused(capsys, broken, cfg, f"firmdays.npy: {named}")


def index_outputs(fitted_dir, out, write):
    """``ecu.csv`` and ``srpi.csv`` of ``index`` on the fit directory whose array ``write``
    writes to a path."""
    shutil.copytree(fitted_dir[0], out)
    array = np.load(out / "firmdays.npy")
    write(out / "firmdays.npy", array)
    assert main(["index", "--config", fitted_dir[1], "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("ecu.csv", "srpi.csv")]


def write_version(version):
    def write(path, array):
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, array, version=version)
    return write


def test_npy_format_2_and_trailing_bytes_give_the_same_indexes(fitted_dir, tmp_path, capsys):
    """A version 2.0 header is read as 1.0 is, and bytes after the array are ignored."""
    want = index_outputs(fitted_dir, tmp_path / "v1", write_version((1, 0)))
    assert index_outputs(fitted_dir, tmp_path / "v2", write_version((2, 0))) == want

    def trailing(path, array):
        np.save(path, array)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 100)

    assert index_outputs(fitted_dir, tmp_path / "trailing", trailing) == want


def negative_days(path, array):
    """The array saved with its header's day count negated."""
    np.save(path, array)
    data = path.read_bytes()
    end = data.index(b"\n") + 1
    path.write_bytes(data[:end].replace(b"191)", b"-191)").replace(b" \n", b"\n") + data[end:])


@pytest.mark.parametrize("write,message", [
    (lambda path, a: np.save(path, np.asfortranarray(a)), "is not a readable .npy file"),
    (write_version((3, 0)), "is not a readable .npy file: format version (3, 0) is not read"),
    (negative_days, "is not a readable .npy file"),
], ids=["fortran_order", "version_3", "negative_shape"])
def test_npy_forms_the_fit_never_writes_are_refused(fitted_dir, tmp_path, capsys, write,
                                                     message):
    """``np.save`` writes none of these for the fit's C-ordered float64 array."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    write(broken / "firmdays.npy", np.load(broken / "firmdays.npy"))
    assert_refused(capsys, broken, cfg, "firmdays.npy", message)


def test_truncated_firmdays_npy_is_unreadable_before_any_value_fault(fitted_dir, tmp_path,
                                                                     capsys):
    """The file's size is checked against its header before a value is read, so a NaN in the
    first layer of a truncated file does not name it."""
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    array = np.load(broken / "firmdays.npy")
    array[0, 0, 0] = np.nan
    np.save(broken / "firmdays.npy", array)
    data = (broken / "firmdays.npy").read_bytes()
    (broken / "firmdays.npy").write_bytes(data[:-8])
    assert_refused(capsys, broken, cfg, "firmdays.npy is not a readable .npy file")


def test_fit_directory_of_the_csv_handoff_must_be_refit(fitted_dir, tmp_path, capsys):
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    (broken / "firmdays.npy").unlink()
    (broken / "firmdays.csv").write_text("firm_id,offset,y,mu_p,mu_r,ele_test,ele_ref\n")
    assert_refused(capsys, broken, cfg, "missing fit output", "firmdays.npy",
                   "run the fit command first")


def test_directory_in_place_of_firmdays_npy_is_a_data_error(fitted_dir, tmp_path, capsys):
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    (broken / "firmdays.npy").unlink()
    (broken / "firmdays.npy").mkdir()
    assert_refused(capsys, broken, cfg, "firmdays.npy")


def test_directory_in_place_of_panel_is_a_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    (tmp_path / "out" / "panel.csv").mkdir(parents=True)
    assert_refused(capsys, tmp_path / "out", cfg, "panel.csv", commands=[["fit"]])


def test_oversized_quoted_field_is_a_data_error(fitted_dir, tmp_path, capsys):
    """A quoted field over ``csv.field_size_limit()`` names its file, not a traceback."""
    field = '"' + "F" * 200_000 + '"'
    broken, cfg = broken_copy(fitted_dir, tmp_path)
    (broken / "panel.csv").write_text("firm_id,date,kwh,sector_code,district_code\n"
                                      f"{field},2019-01-01,1.0,101,D01\n")
    assert_refused(capsys, broken, cfg, "panel.csv", "field larger than field limit",
                   commands=[["fit"]])
    codes = tmp_path / "codes.csv"
    codes.write_text(f"code,name\n101,{field}\n")
    cfg = write_config(tmp_path / "codes.cfg", BASE_CONFIG + f"code_map = {codes}\n")
    assert_refused(capsys, broken, cfg, "codes.csv", "field larger than field limit",
                   commands=[["index"]])


@pytest.mark.parametrize("name,command,code", [
    ("panel.csv", "fit", 1), ("models.csv", "index", 1), ("codes.csv", "index", 1),
    ("run.cfg", "index", 2)])
def test_a_text_input_that_is_not_utf8_names_its_file(fitted_dir, tmp_path, capsys, monkeypatch,
                                                       name, command, code):
    """A 0xff byte in a late line, after blocks of 2 rows were read, is one error line naming
    the file: a data error in a CSV, a configuration error in the config file, which is decoded
    whole, so that the error's byte position is the file's."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 2)
    broken, _ = broken_copy(fitted_dir, tmp_path)
    codes = tmp_path / "codes.csv"
    codes.write_text("code,name\n" + "".join(f"{c},sector\n" for c in sorted(DEFAULT_SECTORS)))
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG + f"code_map = {codes}\n")
    path = {"codes.csv": codes, "run.cfg": Path(cfg)}.get(name, broken / name)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-2] = lines[-2][:3] + b"\xff" + lines[-2][3:]
    path.write_bytes(b"".join(lines))
    assert main([command, "--config", cfg, "--out", str(broken)]) == code
    err = capsys.readouterr().err.splitlines()
    at = len(b"".join(lines[:-2])) + 3
    where = f"'utf-8' codec can't decode byte 0xff in position {at}: " if code == 2 else ""
    assert err == [f"error: {path} is not UTF-8 text: {where}invalid start byte"], err


def test_index_outputs(fitted_dir, capsys):
    out, cfg = fitted_dir
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    ecu = read_rows(out / "ecu.csv")
    assert ecu[0] == "group_type,group_key,offset,date,ecu,total_weight,firm_count"
    groups = {ln.split(",")[0] for ln in ecu[1:]}
    assert groups == {"aggregate", "sector", "district"}
    agg = [ln for ln in ecu if ln.startswith("aggregate,")]
    assert len(agg) == 191
    srpi = read_rows(out / "srpi.csv")
    assert srpi[0] == "offset,date,srpi,delta_srpi"
    assert len(srpi) == 1 + 191


def write_fit_dir(directory, n_firms, days=191, seed=0):
    """``models.csv`` and ``firmdays.npy`` of random valid values, written without fitting."""
    rng = np.random.default_rng(seed)
    sectors, firms = sorted(DEFAULT_SECTORS), range(n_firms)
    # the model, loglik and the converged and degenerate flags
    rows = np.tile([0.0, 1.0, 1.0, 0.0, -1.0, 1.0, 0.9, 0.1, 0.2, 0.8, 0.5, 0.5, -1.0, 1.0, 0.0],
                   (n_firms, 1))
    rows[:, 14] = np.arange(n_firms) % 7 == 0
    write_models(directory / "models.csv", [f"F{k:05d}" for k in firms],
                 [sectors[k % len(sectors)] for k in firms],
                 [DEFAULT_DISTRICTS[k % len(DEFAULT_DISTRICTS)] for k in firms], rows)
    mu_r = rng.random((n_firms, days))
    np.save(directory / "firmdays.npy", np.stack([
        rng.normal(size=mu_r.shape), 1.0 - mu_r, mu_r,
        rng.uniform(0.0, 500.0, mu_r.shape), rng.uniform(0.0, 500.0, mu_r.shape)]))


# run a stage in a fresh interpreter and print the package modules it loaded
STAGE_MODULES = ("import sys\nfrom ecuindex.cli import main\nassert main(sys.argv[1:]) == 0\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('ecuindex.')))")


def test_each_stage_loads_only_the_modules_it_runs(three_firms, run_child):
    """``index`` and ``report`` load neither the EM, the preprocessing nor the generator,
    ``simulate`` no model and ``fit`` no generator: a module a stage does not run only costs it
    start-up."""
    out, cfg = three_firms
    firm = {"report": ("--firm", "F00000")}
    loaded = {stage: set(run_child(STAGE_MODULES, stage, *firm.get(stage, ()), "--config", cfg,
                                   "--out", out).split())
              for stage in ("simulate", "fit", "index", "report")}
    assert loaded["index"] == loaded["report"] == {"ecuindex.cli", "ecuindex.config",
                                                   "ecuindex.ecu", "ecuindex.panelio"}
    assert "ecuindex.hmm" not in loaded["simulate"] and "ecuindex.simgen" in loaded["simulate"]
    assert "ecuindex.simgen" not in loaded["fit"] and "ecuindex.hmm" in loaded["fit"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_numpy_imported_after_the_package_starts_one_blas_thread(run_child):
    """``import ecuindex`` no longer imports numpy, but it still sets one BLAS thread for it."""
    code = "import os, ecuindex, numpy\nprint(len(os.listdir('/proc/self/task')))"
    unset = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    assert run_child(code, env=unset) == "1"


def test_index_peak_memory_is_a_small_multiple_of_the_array(tmp_path, capsys):
    """``index`` holds the three firm x offset layers it aggregates and a block of each other
    one; it builds no per-firm-day columns and no (firms, T) float temporary."""
    write_fit_dir(tmp_path, 300)
    tracemalloc.start()
    try:
        assert main(["index", "--out", str(tmp_path)]) == 0, capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "firmdays.npy").stat().st_size
    assert peak < 1.0 * size, peak / size


def test_fit_peak_memory_is_a_small_multiple_of_the_array(tmp_path, capsys):
    """``fit`` preprocesses the panel's kWh grid a few rows at a time and frees it before EM;
    at 300 firms the peak is set while the panel is read.

    One EM update per firm keeps the traced run short; more updates allocate nothing that
    outlives them.
    """
    cfg = write_config(tmp_path / "run.cfg", "n_firms = 300\nseed = 3\nem_max_iter = 1\n")
    common = ["--config", cfg, "--out", str(tmp_path)]
    assert main(["simulate", *common]) == 0, capsys.readouterr().err
    tracemalloc.start()
    try:
        assert main(["fit", *common]) == 0, capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "firmdays.npy").stat().st_size
    assert peak < 3.0 * size, peak / size


def test_index_group_by_none(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG + "group_by =\n")
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    main(["fit", "--config", cfg, "--out", str(out)])
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    groups = {ln.split(",")[0] for ln in read_rows(out / "ecu.csv")[1:]}
    assert groups == {"aggregate"}


def test_report_writes_a_degenerate_firms_fitted_mu_r_and_index_aggregates_zeros(tmp_path,
                                                                                 capsys):
    """``index`` zeroes a degenerate firm's ``mu_r`` in the layer it reads; ``report``, which
    reads the same file, writes the stored values.  Every 7th firm is degenerate."""
    write_fit_dir(tmp_path, 20)
    _, _, mu_r, ele, _ = np.load(tmp_path / "firmdays.npy")
    for argv in (["index"], ["report", "--firm", "F00000"], ["index"]):
        assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    rows = [row.split(",") for row in read_rows(tmp_path / "report_F00000.csv")[1:]]
    assert [float(row[4]) for row in rows] == mu_r[0].tolist()
    degenerate = np.arange(20) % 7 == 0
    zeroed = np.where(degenerate[:, None], 0.0, mu_r)
    want = [math.fsum((e * m).tolist()) / math.fsum(e.tolist()) for e, m in zip(ele.T, zeroed.T)]
    ecu = [float(row.split(",")[4]) for row in read_rows(tmp_path / "ecu.csv")
           if row.startswith("aggregate,")]
    assert ecu == want
    assert ecu != [math.fsum((e * m).tolist()) / math.fsum(e.tolist())
                   for e, m in zip(ele.T, mu_r.T)]


def test_report_unknown_firm(fitted_dir, capsys):
    out, cfg = fitted_dir
    assert main(["report", "--config", cfg, "--out", str(out),
                 "--firm", "NOPE"]) == 1
    assert "unknown firm id" in capsys.readouterr().err


def test_report_writes_firm_summary(fitted_dir, capsys):
    out, cfg = fitted_dir
    assert main(["report", "--config", cfg, "--out", str(out),
                 "--firm", "F00003"]) == 0
    msg = capsys.readouterr().out
    assert "F00003" in msg
    rows = read_rows(out / "report_F00003.csv")
    assert rows[0] == "offset,date,y,mu_p,mu_r"
    assert len(rows) == 1 + 191


def test_full_chain_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["simulate", "--config", cfg, "--out", str(out)])
        main(["fit", "--config", cfg, "--out", str(out)])
        main(["index", "--config", cfg, "--out", str(out)])
        outs.append(out)
    for fname in ("panel.csv", "models.csv", "firmdays.npy", "ecu.csv", "srpi.csv"):
        assert filecmp.cmp(outs[0] / fname, outs[1] / fname, shallow=False), fname


def test_workers_flag_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    for out, workers in ((a, "1"), (b, "2")):
        main(["simulate", "--config", cfg, "--out", str(out)])
        main(["fit", "--config", cfg, "--out", str(out), "--workers", workers])
    for fname in ("models.csv", "firmdays.npy"):
        assert filecmp.cmp(a / fname, b / fname, shallow=False), fname


def test_three_workers_write_the_bytes_of_one(tmp_path, monkeypatch):
    """Three pool workers, one share of the firms each, write the fit files of a serial run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    for out, workers in ((a, "1"), (b, "3")):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
    for fname in ("models.csv", "firmdays.npy"):
        assert filecmp.cmp(a / fname, b / fname, shallow=False), fname


TEST_PID = os.getpid()


def dying_fit_block(*args):
    """Stands in for ``pipeline._fit_block``: the pool worker that runs it dies at once."""
    assert os.getpid() != TEST_PID, "the fit ran in the test's own process"
    os._exit(3)


def test_a_dead_pool_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    """A pool worker that dies, as one the OOM killer ends, fails ``fit`` with exit 1, one
    ``error:`` line that names the broken pool, and no output; two processes are started."""
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pipeline, "_fit_block", dying_fit_block)
    assert main(["fit", "--config", cfg, "--out", str(out), "--workers", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the fit's process pool broke")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == ["panel.csv"]
