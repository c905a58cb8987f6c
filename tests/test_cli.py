"""End-to-end tests of the command line entry points.

Everything goes through main(argv) so exit codes and printed diagnostics
are exercised the same way a shell user would see them.
"""

import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ecuindex
from ecuindex.cli import main


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


def test_importing_the_cli_leaves_the_process_pool_out():
    """Only a fit on more than one worker imports ``multiprocessing``."""
    src = str(Path(ecuindex.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    code = "import sys, ecuindex.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    assert "expected header 'code,name'" in capsys.readouterr().err


def test_fit_outputs(fitted_dir, capsys):
    out, _ = fitted_dir
    later = {"panel.csv", "ecu.csv", "srpi.csv"}  # other stages' files in the shared dir
    fit_files = sorted(p.name for p in out.iterdir()
                       if p.name not in later and not p.name.startswith("report_"))
    assert fit_files == ["firmdays.csv", "models.csv"]
    models = read_rows(out / "models.csv")
    assert models[0].startswith("firm_id,sector_code,district_code,alpha_p,")
    assert len(models) == 1 + 10
    firmdays = read_rows(out / "firmdays.csv")
    assert firmdays[0] == "firm_id,offset,y,mu_p,mu_r,ele_test,ele_ref"
    assert len(firmdays) == 1 + 10 * 191


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


def test_firm_without_model_row_is_named(fitted_dir, tmp_path, capsys):
    out, cfg = fitted_dir
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    lines = (broken / "models.csv").read_text().splitlines(keepends=True)
    (broken / "models.csv").write_text("".join(ln for ln in lines if not ln.startswith("F00004,")))
    for command in (["index"], ["report", "--firm", "F00003"]):
        assert main([*command, "--config", cfg, "--out", str(broken)]) == 1
        err = capsys.readouterr().err
        assert "F00004" in err and "models.csv" in err


@pytest.mark.parametrize("name,prefix,message", [
    ("models.csv", "F00003,", "models.csv data row 11: firm F00003 already has a row"),
    ("firmdays.csv", "F00003,0,",
     "firmdays.csv data row 1911: firm F00003 already has a row for offset 0"),
], ids=["models", "firmdays"])
def test_repeated_fit_row_is_a_data_error(fitted_dir, tmp_path, capsys, name, prefix, message):
    """A repeated row would count its firm-day twice in the indexes."""
    out, cfg = fitted_dir
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    text = (broken / name).read_text()
    row = next(ln for ln in text.splitlines(keepends=True) if ln.startswith(prefix))
    (broken / name).write_text(text + row)
    for command in (["index"], ["report", "--firm", "F00003"]):
        assert main([*command, "--config", cfg, "--out", str(broken)]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("prefix,message", [
    ("F00004,5,", "firmdays.csv: firm F00004 has no row for offset 5"),
    ("F00004,", "firmdays.csv: firm F00004 has no row for offset -95"),
    ("F", "firmdays.csv: firm F00000 has no rows"),
], ids=["one_row", "every_row", "all_rows"])
def test_missing_firmday_is_a_data_error(fitted_dir, tmp_path, capsys, prefix, message):
    """A missing firm-day would drop its firm out of that offset's indexes."""
    out, cfg = fitted_dir
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    lines = (broken / "firmdays.csv").read_text().splitlines(keepends=True)
    (broken / "firmdays.csv").write_text("".join(ln for ln in lines if not ln.startswith(prefix)))
    for command in (["index"], ["report", "--firm", "F00003"]):
        assert main([*command, "--config", cfg, "--out", str(broken)]) == 1
        assert message in capsys.readouterr().err


def test_short_firmdays_row_is_a_data_error(fitted_dir, tmp_path, capsys):
    out, cfg = fitted_dir
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    lines = (broken / "firmdays.csv").read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "\n"
    (broken / "firmdays.csv").write_text("".join(lines))
    assert main(["index", "--config", cfg, "--out", str(broken)]) == 1
    assert "fields" in capsys.readouterr().err


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


def test_index_group_by_none(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG + "group_by =\n")
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    main(["fit", "--config", cfg, "--out", str(out)])
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    groups = {ln.split(",")[0] for ln in read_rows(out / "ecu.csv")[1:]}
    assert groups == {"aggregate"}


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
    for fname in ("panel.csv", "models.csv", "firmdays.csv", "ecu.csv", "srpi.csv"):
        assert filecmp.cmp(outs[0] / fname, outs[1] / fname, shallow=False), fname


def test_workers_flag_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", BASE_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    for out, workers in ((a, "1"), (b, "2")):
        main(["simulate", "--config", cfg, "--out", str(out)])
        main(["fit", "--config", cfg, "--out", str(out), "--workers", workers])
    for fname in ("models.csv", "firmdays.csv"):
        assert filecmp.cmp(a / fname, b / fname, shallow=False), fname
