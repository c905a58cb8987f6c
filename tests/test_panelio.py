"""Round-trip and format tests for the CSV interchange layer and the fit's firm-day array."""

import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecuindex import hmm, panelio
from ecuindex.config import build_run_config
from ecuindex.ecu import EcuSeries, SrpiSeries
from ecuindex.hmm import RegimeModel, RegimeParams
from ecuindex.panelio import (
    FIRMDAY_LAYERS,
    FitOutputs,
    _fmt_column,
    read_fit_outputs,
    read_models,
    read_panel,
    seed_comment,
    write_ecu,
    write_fit_outputs,
    write_models,
    write_panel,
    write_srpi,
)
from ecuindex.pipeline import fit_outputs, fit_panel
from ecuindex.preprocess import KwhPanel
from ecuindex.simgen import PanelConfig, generate
from firm_records import FirmRecord, panel_of, records_of
from preprocess_oracle import RawSeries


def sample_records():
    dates = np.arange("2019-01-01", "2019-01-11", dtype="datetime64[D]")
    a = RawSeries(dates, [1.5, 2.0, np.nan, 4.0, 0.1 + 0.2, 6.0, 7.0, 8.0, 9.0, 10.0])
    b = RawSeries(dates, np.arange(10, dtype=float))
    return [
        FirmRecord("B2", "301", "D02", b),  # out of order on purpose
        FirmRecord("A1", "101", "D01", a),
    ]


def test_panel_roundtrip(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel(path, panel_of(sample_records()), comments=[seed_comment(42)])
    back = records_of(read_panel(path))
    assert [r.firm_id for r in back] == ["A1", "B2"]  # sorted in the panel and on read
    orig = {r.firm_id: r for r in sample_records()}
    for rec in back:
        want = orig[rec.firm_id]
        assert (rec.sector_code, rec.district_code) == (want.sector_code, want.district_code)
        np.testing.assert_array_equal(rec.series.dates, want.series.dates)
        assert np.array_equal(rec.series.values, want.series.values, equal_nan=True)


def test_floats_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel(path, panel_of(sample_records()))
    back = {r.firm_id: r for r in records_of(read_panel(path))}
    assert back["A1"].series.values[4] == 0.1 + 0.2  # repr round-trip, not approx


def test_fmt_strings():
    values = [0.1 + 0.2, np.float64(-1e-300), -0.0, np.float64(-0.0), 7,
              float("nan"), np.float64("nan"), np.inf]
    assert _fmt_column(values) == ["0.30000000000000004", "-1e-300", "-0.0", "-0.0", "7.0",
                                   "", "", "inf"]


def test_seed_comment_read_back(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel(path, panel_of(sample_records()), comments=[seed_comment(123)])
    assert path.read_text(encoding="utf-8").splitlines()[0] == "# root_seed=123"
    assert read_panel(path)  # comment lines are transparent to readers


def test_comment_lines_only_before_the_header(tmp_path):
    path = tmp_path / "panel.csv"
    dates = np.arange("2019-01-01", "2019-01-04", dtype="datetime64[D]")
    records = [FirmRecord("#7", "101", "D01", RawSeries(dates, [1.0, np.nan, 3.0])),
               FirmRecord("7", "101", "D01", RawSeries(dates, [4.0, 5.0, 6.0]))]
    write_panel(path, panel_of(records), comments=[seed_comment(1)])
    back = records_of(read_panel(path))
    assert [r.firm_id for r in back] == ["#7", "7"]
    assert np.array_equal(back[0].series.values, [1.0, np.nan, 3.0], equal_nan=True)
    np.testing.assert_array_equal(back[0].series.dates, dates)
    path.write_text(path.read_text() + "# a note after the header\n")
    with pytest.raises(ValueError, match="data row 7 has 1 fields, expected 5"):
        read_panel(path)


def test_missing_file_named(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        read_panel(tmp_path / "nope.csv")


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("firm,day,load\nA,2019-01-01,5\n")
    with pytest.raises(ValueError, match="header"):
        read_panel(path)


def test_readers_hold_each_code_text_once(tmp_path):
    """A code that many firms share is one string in what ``read_panel`` and
    ``read_fit_outputs`` return, not one per firm (1.87 MB at 18,000 firms)."""
    path = tmp_path / "panel.csv"
    write_panel(path, generate(PanelConfig(n_firms=40, seed=2)).panel)
    panel = read_panel(path)
    write_fit_outputs(tmp_path, fit_outputs(fit_panel(panel, build_run_config({}))[0]))
    fit = read_fit_outputs(tmp_path)
    for codes in (panel.sector_codes, panel.district_codes, fit.sector_codes, fit.district_codes):
        assert len({id(code) for code in codes}) == len(set(codes)) < len(codes)


def test_inconsistent_codes_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "firm_id,date,kwh,sector_code,district_code\n"
        "A,2019-01-01,5.0,101,D01\n"
        "A,2019-01-02,6.0,301,D01\n"
    )
    with pytest.raises(ValueError, match="inconsistent"):
        read_panel(path)


def test_models_csv_names_the_model_columns_hmm_declares():
    assert panelio.MODELS_HEADER[3:15] == list(hmm.MODEL_COLUMNS)


# a valid model row in MODELS_HEADER[3:-2] order: alpha, beta, sigma of each regime, q, pi0
# and loglik
EYE_MODEL = [0.0, 1.0, 1.0, 0.0, -1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.0]


def models_table(firm_ids, model=EYE_MODEL, sector="101", district="D01"):
    """The models columns of ``firm_ids``, each row ``model``, converged and not
    degenerate."""
    n = len(firm_ids)
    return list(firm_ids), [sector] * n, [district] * n, np.tile([*model, 1.0, 0.0], (n, 1))


def test_models_roundtrip(tmp_path):
    model = [0.012, 3.7, 1.25, -0.3, -41.0, 8.5, 0.97, 0.03, 0.05, 0.95, 0.6, 0.4, -123.456789]
    path = tmp_path / "models.csv"
    write_models(path, *models_table("A", model, "306", "D02"))
    firm_ids, sectors, districts, rows = read_models(path)
    assert (firm_ids, sectors, districts) == (["A"], ["306"], ["D02"])
    assert rows.dtype == np.float64 and rows[:, :13].tolist() == [model]
    assert rows[:, 13].tolist() == [1.0] and rows[:, 14].tolist() == [0.0]
    back = RegimeModel.from_numbers(rows[0])
    assert back.prosperous == RegimeParams(0.012, 3.7, 1.25)
    assert back.recessionary == RegimeParams(-0.3, -41.0, 8.5)
    assert back.q.tolist() == [[0.97, 0.03], [0.05, 0.95]] and back.pi0.tolist() == [0.6, 0.4]


@pytest.fixture(scope="module")
def fitted():
    """Three fitted firms, listed out of id order on purpose."""
    results, skipped = fit_panel(generate(PanelConfig(n_firms=3, seed=2)).panel,
                                 build_run_config({}))
    assert skipped == []
    return results[::-1]


def fit_columns(result):
    return {"y": result.deviation.y, "mu_p": result.filtered.mu_p,
            "mu_r": result.filtered.mu_r, "ele_test": result.ele_test,
            "ele_ref": result.ele_ref}


def firmdays_roundtrip(tmp_path, results, names):
    """``write_fit_outputs`` then ``read_fit_outputs`` gives back each firm's columns bit for
    bit."""
    write_fit_outputs(tmp_path, fit_outputs(results))
    back = read_fit_outputs(tmp_path).firmdays
    for k, result in enumerate(sorted(results, key=lambda r: r.firm_id)):
        for name in names:
            got, want = back[FIRMDAY_LAYERS.index(name), k], fit_columns(result)[name]
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want)  # bit-exact, not approx


def test_deviations_roundtrip(tmp_path, fitted):
    firmdays_roundtrip(tmp_path, fitted, ["y"])


def test_probs_roundtrip(tmp_path, fitted):
    firmdays_roundtrip(tmp_path, fitted, ["mu_p", "mu_r"])


def test_weights_roundtrip_sorted(tmp_path, fitted):
    firmdays_roundtrip(tmp_path, fitted, ["ele_test", "ele_ref"])
    assert fit_outputs(fitted).firm_ids == sorted(r.firm_id for r in fitted)  # sorted once
    firm_ids, _, _, rows = models_table("BA")
    path = tmp_path / "models.csv"
    write_models(path, firm_ids, ["301", "101"], ["D01", "D02"], rows)
    firm_ids, sectors, districts, *_ = read_models(path)
    assert firm_ids == ["B", "A"]  # in the table's order: write_fit_outputs refuses any other
    assert list(zip(sectors, districts)) == [("301", "D01"), ("101", "D02")]


def test_panel_zeroes_degenerate_mu_r_in_place_only_in_a_layer_read_alone(tmp_path, fitted):
    """The fit's whole array stays as fitted; a ``mu_r`` layer read on its own is zeroed where
    it lies, and the two panels are the same bit for bit."""
    fit = with_flags(fit_outputs(fitted), degenerate=[1.0, 0.0, 1.0])
    fitted_mu_r = fit.firmdays[2].copy()
    write_fit_outputs(tmp_path, fit)
    assert not fit.panel.mu_r[[0, 2]].any() and fit.panel.mu_r[1].any()
    assert fit.firmdays[2].tobytes() == fitted_mu_r.tobytes()
    read = read_fit_outputs(tmp_path, ("mu_r", "ele_test", "ele_ref"))
    assert read.firmdays[:2] == (None, None)
    assert read.panel.mu_r is read.firmdays[2] and read.panel.ele is read.firmdays[3]
    for name in ("ele", "mu_r"):
        assert getattr(read.panel, name).tobytes() == getattr(fit.panel, name).tobytes()
    assert read.reference_totals.tobytes() == fit.reference_totals.tobytes()


@pytest.mark.parametrize("layers", [("mu_R",), (), ("mu_r", "ele")])
def test_fit_reader_refuses_layers_it_cannot_read(tmp_path, layers):
    """A layer name outside ``FIRMDAY_LAYERS``, or none, is refused before either file is
    read, naming the layers there are; it once gave a table of None layers."""
    with pytest.raises(ValueError, match=re.escape(f"layers {layers}: name one or more of "
                                                   f"{FIRMDAY_LAYERS} only")):
        read_fit_outputs(tmp_path / "no_fit_here", layers)


def test_firmdays_writer_refuses_nan(tmp_path, fitted):
    """The first non-finite value in (column, firm, offset) order is named; neither file is
    written."""
    fit = fit_outputs(fitted)
    firmdays = fit.firmdays.copy()
    firmdays[3, 1, [1, 4]] = np.nan, np.inf
    firmdays[4, 2, 0] = np.nan
    with pytest.raises(ValueError, match=re.escape(
            f"firmdays.npy: column ele_test of firm {fit.firm_ids[1]} is nan at offset -94")):
        write_fit_outputs(tmp_path, replace(fit, firmdays=firmdays))
    assert not (tmp_path / "models.csv").exists()
    assert not (tmp_path / "firmdays.npy").exists()


def with_flags(fit, **flags):
    """``fit`` with the named flag columns of ``models`` set to the given 1.0s and 0.0s."""
    models = fit.models.copy()
    for name, values in flags.items():
        models[:, panelio.MODELS_HEADER.index(name) - 3] = values
    return replace(fit, models=models)


def swap_order(fit):
    """The same firms and firm-days, both in reverse id order: a consistent pair."""
    return FitOutputs(fit.firm_ids[::-1], fit.sector_codes[::-1], fit.district_codes[::-1],
                      fit.models[::-1], fit.firmdays[:, ::-1].copy())


def with_number(fit, k, column, value):
    """``fit`` with firm k's number in ``column`` of ``models.csv`` set to ``value``."""
    models = fit.models.copy()
    models[k, panelio.MODELS_HEADER.index(column) - 3] = value
    return replace(fit, models=models)


@pytest.mark.parametrize("damage,message", [
    (swap_order, "models.csv data row 2: firm {1} comes after {2}; firm ids must ascend"),
    (lambda fit: replace(fit, firmdays=fit.firmdays[:, :2]),
     "firmdays.npy has 2 firm rows but models.csv has 3"),
    (lambda fit: replace(fit, firmdays=fit.firmdays[:, :, 1:]),
     "firmdays.npy has 190 days per firm"),
    (lambda fit: replace(fit, firmdays=fit.firmdays.astype(np.float32)),
     "firmdays.npy holds a <f4 array of shape (5, 3, 191)"),
    (lambda fit: replace(fit, firmdays=fit.firmdays[:4]),
     "firmdays.npy holds a <f8 array of shape (4, 3, 191)"),
    (lambda fit: with_number(fit, 1, "loglik", np.nan),
     "models.csv data row 2, column loglik: nan"),
    (lambda fit: with_number(fit, 1, "q_pp", 1.5), "models.csv data row 2: firm {1}: "
     "transition matrix row entries must lie in [0, 1], got [1.5 "),
    (lambda fit: with_number(fit, 1, "sigma_p", 0.0),
     "models.csv data row 2: firm {1}: sigma must be positive and finite, got 0.0"),
    (lambda fit: replace(fit, sector_codes=[*fit.sector_codes[:1], "," + "9" * 200_000,
                                            *fit.sector_codes[2:]]),
     "models.csv data row 2, column sector_code: a field of 200001 characters is longer than "
     "the CSV reader's limit of 131072"),
    (lambda fit: replace(fit, models=fit.models[:2]),
     "models.csv: the columns of the models table differ in length"),
    (lambda fit: with_flags(with_number(fit, 2, "sigma_p", 0.0), degenerate=[0.0, 0.5, 0.0]),
     "models.csv data row 2, column degenerate: 0.5 is not a flag, 1.0 or 0.0"),
    (lambda fit: replace(fit, firmdays=tuple(
        layer if name in ("mu_r", "ele_test", "ele_ref") else None
        for name, layer in zip(FIRMDAY_LAYERS, fit.firmdays))),  # as index reads it back
     "firmdays.npy: layers y, mu_p were not read back"),
], ids=["reverse_order", "firm_rows", "even_days", "float32", "four_layers", "nan_loglik",
        "invalid_q", "zero_sigma", "long_sector_code", "short_models", "flag_before_model",
        "unread_layers"])
def test_fit_writer_refuses_a_pair_the_reader_refuses(tmp_path, fitted, damage, message):
    """The rows of both files are matched by position, so a pair whose firms are out of id
    order would come back mispaired; neither file is written."""
    fit = fit_outputs(fitted)
    with pytest.raises(ValueError, match=re.escape(message.format(*fit.firm_ids))):
        write_fit_outputs(tmp_path, damage(fit))
    assert list(tmp_path.iterdir()) == []


def test_ecu_file_dates_and_gaps(tmp_path):
    series = EcuSeries("aggregate", "all", [-1, 0, 1],
                       [0.25, np.nan, 0.75], [10.0, 0.0, 20.0], [2, 0, 3])
    path = tmp_path / "ecu.csv"
    write_ecu(path, [series], base_date="2020-01-24")
    lines = path.read_text().splitlines()
    assert lines[0] == "group_type,group_key,offset,date,ecu,total_weight,firm_count"
    assert lines[1] == "aggregate,all,-1,2020-01-23,0.25,10.0,2"
    assert lines[2] == "aggregate,all,0,2020-01-24,,0.0,0"  # gap is an empty field
    assert lines[3] == "aggregate,all,1,2020-01-25,0.75,20.0,3"


def test_srpi_file_layout(tmp_path):
    series = SrpiSeries([0, 1], [100.0, 110.0], [-5.0, -2.5])
    path = tmp_path / "srpi.csv"
    write_srpi(path, series, base_date="2020-01-24", comments=[seed_comment(1)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# root_seed=1"
    assert lines[1] == "offset,date,srpi,delta_srpi"
    assert lines[2] == "0,2020-01-24,100.0,-5.0"
    assert lines[3] == "1,2020-01-25,110.0,-2.5"


def test_unreadable_fields_named_by_row_and_column(tmp_path):
    path = tmp_path / "models.csv"
    write_models(path, *models_table("AB"))
    text = path.read_text()
    path.write_text(text.replace("B,101,D01,0.0,1.0,", "B,101,D01,0.0,x,"))
    with pytest.raises(ValueError, match=r"models.csv data row 2, column beta_p: cannot read 'x'"):
        read_models(path)
    path.write_text(text.replace(",true,", ",yes,"))
    with pytest.raises(ValueError, match="models.csv data row 1, column converged: cannot read 'yes'"):
        read_models(path)
    path = tmp_path / "panel.csv"
    path.write_text("firm_id,date,kwh,sector_code,district_code\n"
                    "A,2019-01-01,5.0,101,D01\nA,2019-01-32,6.0,101,D01\n")
    with pytest.raises(ValueError, match="panel.csv data row 2, column date"):
        read_panel(path)


def test_bad_series_names_the_firm(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("firm_id,date,kwh,sector_code,district_code\n"
                    "A,2019-01-01,5.0,101,D01\nA,2019-01-02,-6.0,101,D01\n")
    with pytest.raises(ValueError, match="firm A: kWh values must be non-negative"):
        read_panel(path)


@pytest.mark.parametrize("row,text,message", [
    (6, "A,2019-01-06,6.0,101", "panel.csv data row 6 has 4 fields, expected 5"),
    (5, "A,2019-01-32,5.0,101,D01", "panel.csv data row 5, column date: cannot read '2019-01-32'"),
    (6, "A,2019-01-06,abc,101,D01", "panel.csv data row 6, column kwh: cannot read 'abc'"),
    (5, "A,2019-01-05,5.0,301,D01", "panel.csv: firm A has inconsistent sector/district codes"),
], ids=["short", "date", "kwh", "codes"])
def test_panel_fault_in_block_3_names_its_row(tmp_path, monkeypatch, row, text, message):
    """With blocks of 2 rows, data rows 5 and 6 are the third block."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 2)
    lines = ["firm_id,date,kwh,sector_code,district_code",
             *(f"A,2019-01-0{day},{day}.0,101,D01" for day in range(1, 8))]
    lines[row] = text
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_panel(path)


MULTI_FAULT_ROWS = [
    "A,2019-01-01,1.0,101,D01",
    "A,2019-01-02,2.0,101,D01",
    "A,2019-01-03,3.0,301,D01",  # codes
    "A,2019-01-04,abc,101,D01",  # kwh
    "A,2019-01-32,5.0,101,D01",  # date
    "A,2019-01-06,6.0,101",  # field count
    "A,2019-01-07,7.0,101,D01",
]


@pytest.mark.parametrize("block_rows", [1, 2, 3, panelio.BLOCK_ROWS])
@pytest.mark.parametrize("rows,message", [
    (MULTI_FAULT_ROWS, "panel.csv: firm A has inconsistent sector/district codes"),
    (MULTI_FAULT_ROWS[:2] + MULTI_FAULT_ROWS[3:],
     "panel.csv data row 3, column kwh: cannot read 'abc'"),
], ids=["codes_first", "kwh_first"])
def test_multi_fault_panel_names_its_first_faulty_row(tmp_path, monkeypatch, block_rows, rows,
                                                      message):
    """Whatever the block size, the earliest faulty data row is the one named."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["firm_id,date,kwh,sector_code,district_code", *rows]) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_panel(path)


def shuffled_panel(tmp_path, rows, seed=0):
    """A panel file of ``rows`` (data lines) in a random order: firms interleaved and each
    firm's days out of order."""
    order = np.random.default_rng(seed).permutation(len(rows))
    path = tmp_path / "shuffled.csv"
    path.write_text("firm_id,date,kwh,sector_code,district_code\n"
                    + "".join(rows[k] for k in order))
    return path


@pytest.mark.parametrize("block_rows", [2, panelio.BLOCK_ROWS])
def test_shuffled_panel_reads_as_the_sorted_one(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    path = tmp_path / "panel.csv"
    write_panel(path, generate(PanelConfig(n_firms=12, seed=4, missing_rate=0.05)).panel)
    rows = path.read_text().splitlines(keepends=True)[1:]
    shuffled = shuffled_panel(tmp_path, rows)
    firms = [line.split(",", 1)[0] for line in shuffled.read_text().splitlines()[1:]]
    assert len(rows) > 2 * panelio.BLOCK_ROWS and firms != sorted(firms)
    want, got = records_of(read_panel(path)), records_of(read_panel(shuffled))
    assert [(r.firm_id, r.sector_code, r.district_code) for r in got] == \
        [(r.firm_id, r.sector_code, r.district_code) for r in want]
    for a, b in zip(got, want):
        assert a.series.dates.tobytes() == b.series.dates.tobytes()
        assert a.series.values.tobytes() == b.series.values.tobytes()

    firm_id, day, _, codes = rows[100].split(",", 3)
    repeated = shuffled_panel(tmp_path, rows + [f"{firm_id},{day},1.5,{codes}"])
    with pytest.raises(ValueError) as caught:
        read_panel(repeated)
    assert str(caught.value) == \
        f"{repeated}: firm {firm_id}: dates must be strictly increasing with a one-day step"


def ragged_panel():
    """12 simulated firms, each cut to its own first and last days, some readings blank; the
    first firm starts on the grid's first day and the last ends on its last."""
    full = generate(PanelConfig(n_firms=12, seed=6, missing_rate=0.05)).panel
    rng = np.random.default_rng(6)
    lo, hi = rng.integers(0, 200, len(full)), full.hi - rng.integers(0, 200, len(full))
    lo[0], hi[-1] = 0, full.kwh.shape[1]
    cols = np.arange(full.kwh.shape[1])
    kwh = np.where((cols >= lo[:, None]) & (cols < hi[:, None]), full.kwh, np.nan)
    return KwhPanel(full.firm_ids, full.sector_codes, full.district_codes, full.day0, lo, hi, kwh)


def assert_same_panel(got, want):
    """Every field bit for bit, the cells outside each firm's days (NaN) included."""
    assert (got.firm_ids, got.sector_codes, got.district_codes, got.day0) == \
        (want.firm_ids, want.sector_codes, want.district_codes, want.day0)
    for name in ("lo", "hi", "kwh"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.kwh.flags.c_contiguous


def data_rows_by_day(lines):
    """Data lines reordered as a file sorted by date would hold them: every firm's first
    reading, then every firm's second, and so on."""
    nth = {}
    keyed = []
    for line in lines:
        firm_id = line.split(",", 1)[0]
        nth[firm_id] = nth.get(firm_id, -1) + 1
        keyed.append((nth[firm_id], firm_id, line))
    return [line for *_, line in sorted(keyed)]


@pytest.mark.parametrize("block_rows", [1, 7, panelio.BLOCK_ROWS])
def test_firm_sorted_date_sorted_and_shuffled_files_read_to_one_panel(tmp_path, monkeypatch,
                                                                      block_rows):
    """Firms with their own first and last days round-trip bit for bit, whatever the row
    order, while the grid grows row by row, to later days and to earlier ones."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    want = ragged_panel()
    path = tmp_path / "panel.csv"
    write_panel(path, want, comments=[seed_comment(6)])
    header, *rows = path.read_text().splitlines(keepends=True)[1:]
    by_day = tmp_path / "by_day.csv"
    by_day.write_text(header + "".join(data_rows_by_day(rows)))
    shuffled = shuffled_panel(tmp_path, rows, seed=6)
    assert len({by_day.read_text(), shuffled.read_text(), header + "".join(rows)}) == 3
    for p in (path, by_day, shuffled):
        assert_same_panel(read_panel(p), want)


@pytest.mark.parametrize("rows,message", [
    (["B,2019-01-01,1.0,101,D01", "B,2019-01-03,1.0,101,D01",
      "A,2019-01-01,1.0,101,D01", "A,2019-01-02,-1.0,101,D01"],
     "firm A: kWh values must be non-negative"),
    (["B,2019-01-01,-1.0,101,D01", "A,2019-01-01,1.0,101,D01", "A,2019-01-01,2.0,101,D01"],
     "firm A: dates must be strictly increasing with a one-day step"),
    (["A,2019-01-01,-1.0,101,D01", "A,2019-01-02,1.0,101,D01", "A,2019-01-04,1.0,101,D01"],
     "firm A: dates must be strictly increasing with a one-day step"),
], ids=["first_in_id_order", "repeated_day_of_the_first_firm", "missing_day_before_negative"])
@pytest.mark.parametrize("block_rows", [1, panelio.BLOCK_ROWS])
def test_firm_faults_name_the_first_firm_and_its_day_step_first(tmp_path, monkeypatch,
                                                                block_rows, rows, message):
    """Of two faulty firms the first in id order is named, wherever its rows are; within one
    firm, a repeated or missing day is named before a negative reading."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["firm_id,date,kwh,sector_code,district_code", *rows]) + "\n")
    with pytest.raises(ValueError) as caught:
        read_panel(path)
    assert str(caught.value) == f"{path}: {message}"


def test_fit_output_faults_in_block_3_name_their_row(tmp_path, monkeypatch):
    """With blocks of 2 rows, data row 5 of ``models.csv`` is the third block."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 2)
    path = tmp_path / "models.csv"
    write_models(path, *models_table("ABCDE"))
    text = path.read_text()
    path.write_text(text.replace("E,101,D01,0.0,", "E,101,D01,0.x,"))
    with pytest.raises(ValueError,
                       match="models.csv data row 5, column alpha_p: cannot read '0.x'"):
        read_models(path)
    path.write_text(text.replace("E,101,D01,0.0,1.0,1.0,0.0,-1.0,1.0", "E,101,D01,0.0,1.0,1.0"))
    with pytest.raises(ValueError, match="models.csv data row 5 has 15 fields, expected 18"):
        read_models(path)
    path.write_text(text.replace("E,101,D01", "A,101,D01"))
    with pytest.raises(ValueError, match="models.csv data row 5: firm A already has a row"):
        read_models(path)
    path.write_text(text.replace(",true,", ",yes,").replace(",yes,", ",true,", 4))
    with pytest.raises(ValueError, match="models.csv data row 5, column converged: cannot read 'yes'"):
        read_models(path)


def models_with(tmp_path, edits):
    """A models file of one valid model for each of firms A, B and C, with field ``column`` of
    data row ``row`` set to ``value`` per edit."""
    path = tmp_path / "models.csv"
    write_models(path, *models_table("ABC"))
    lines = path.read_text().splitlines(keepends=True)
    header = next(k for k, line in enumerate(lines) if line.startswith("firm_id,"))
    for row, column, value in edits:
        fields = lines[header + row].split(",")
        fields[panelio.MODELS_HEADER.index(column)] = value
        lines[header + row] = ",".join(fields)
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("block_rows", [1, 2, panelio.BLOCK_ROWS])
@pytest.mark.parametrize("edits,message", [
    ([(1, "converged", "yes"), (2, "alpha_p", "x")],
     "models.csv data row 1, column converged: cannot read 'yes'"),
    ([(2, "firm_id", "A"), (3, "beta_r", "x")],
     "models.csv data row 2: firm A already has a row"),
    ([(2, "sigma_r", "-1.0"), (3, "loglik", "x")],
     "models.csv data row 2: firm B: sigma must be positive and finite, got -1.0"),
    ([(1, "alpha_p", "1.0"), (2, "loglik", "nan"), (3, "degenerate", "x")],
     "models.csv data row 2, column loglik: cannot read 'nan'"),
], ids=["unreadable", "repeated", "model", "nan"])
def test_multi_fault_models_name_their_first_faulty_row(tmp_path, monkeypatch, block_rows, edits,
                                                        message):
    """Whatever the block size, the earliest faulty data row is the one named."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_models(models_with(tmp_path, edits))


SPECIAL = st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 0.5, 1.0, -1.0])
# how far a probability pair's sum is put from 1: on either side of _SIMPLEX_TOL = 1e-12
OFF_ONE = st.just(0.0) | st.sampled_from([1e-12, -1e-12, math.nextafter(1e-12, 1.0),
                                          -math.nextafter(1e-12, 1.0), 2e-12, -2e-12])
# pairs summing to 1 within _SIMPLEX_TOL with an entry outside [0, 1], or a signed zero
EDGE_PAIRS = st.sampled_from([[1.0 + 5e-13, 0.0], [-5e-13, 1.0], [-0.0, 1.0], [1.0, -0.0]])


@st.composite
def model_numbers(draw):
    """12 numbers in ``MODEL_COLUMNS`` order: each regime's alpha, beta and a positive sigma,
    then the rows of q and pi0, each pair summing to 1 but one, which is put off 1 or on an
    edge, and up to two numbers set to a special value."""
    row = []
    for _ in range(2):
        row += [draw(st.floats()), draw(st.floats()), draw(st.floats(5e-324, 1e300))]
    for _ in range(3):
        first = draw(st.floats(0.0, 1.0))
        row += [first, 1.0 - first]
    k = draw(st.sampled_from([6, 8, 10]))
    row[k:k + 2] = draw(EDGE_PAIRS | OFF_ONE.map(lambda off: [row[k], 1.0 - row[k] + off]))
    for j in draw(st.lists(st.integers(0, 11), max_size=2)):
        row[j] = draw(SPECIAL)
    return row


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(model_numbers())
def test_column_check_accepts_exactly_the_models_the_row_check_accepts(numbers):
    """A block of one row passes the column check when its numbers are finite, as the row
    check reads them, and ``RegimeModel.from_numbers`` accepts them."""
    columns = {"firm_id": ["A"], "sector_code": ["101"], "district_code": ["D01"],
               **{name: [repr(x)] for name, x in zip(hmm.MODEL_COLUMNS, numbers)},
               "loglik": ["0.0"], "converged": ["true"], "degenerate": ["false"]}
    try:
        RegimeModel.from_numbers(numbers)
        accepted = all(map(math.isfinite, numbers))
    except ValueError:
        accepted = False
    assert (panelio._models_block(columns) is not None) == accepted


@pytest.mark.parametrize("block_rows", [1, panelio.BLOCK_ROWS])
def test_a_model_off_the_simplex_mid_block_is_named_by_its_row(tmp_path, monkeypatch,
                                                               block_rows):
    """A q row readable and in [0, 1] but summing to 1 + 2e-12 fails a block's column check,
    and the block read again row by row names it as ``RegimeModel`` does."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    table = models_table("ABCDE")
    table[3][2, 6:8] = [0.75, 0.25 + 2e-12]
    path = tmp_path / "models.csv"
    write_models(path, *table)
    with pytest.raises(ValueError) as refused:
        RegimeModel.from_numbers(table[3][2])
    with pytest.raises(ValueError) as caught:
        read_models(path)
    assert str(caught.value) == f"{path} data row 3: firm C: {refused.value}"


def test_readers_peak_memory_is_bounded_by_a_block(tmp_path, monkeypatch):
    """Read in blocks, a panel file's traced peak stays below 4x its size.

    Holding every field of the file as a string at once peaks near 10x.
    """
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 400)
    path = tmp_path / "panel.csv"
    write_panel(path, generate(PanelConfig(n_firms=20, seed=2, missing_rate=0.02)).panel)
    with open(path) as fh:
        assert sum(1 for _ in fh) > 8 * panelio.BLOCK_ROWS
    tracemalloc.start()
    try:
        read_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size, peak


def model_rows(n_firms):
    """The models columns of ``n_firms`` firms of one model, each with its own
    log-likelihood, every third degenerate."""
    firm_ids, sectors, districts, rows = models_table(
        [f"F{k:06d}" for k in range(n_firms)],
        [0.1, 1.0, 1.0, -0.2, -1.0, 2.0, 0.9, 0.1, 0.2, 0.8, 0.3, 0.7, 0.0])
    rows[:, 12] = -1.0 - np.arange(n_firms) / 7
    rows[:, 14] = np.arange(n_firms) % 3 == 0
    return firm_ids, sectors, districts, rows


def test_models_writer_peak_memory_does_not_grow_with_the_firms(tmp_path, monkeypatch):
    """``write_models`` formats ``BLOCK_ROWS`` rows at a time: from 2 to 8 blocks its traced
    peak grows by at most 32 bytes per firm, where holding every field as text grew it by
    1.3 KB.  The file is the one written in a single block."""
    rows = model_rows(800)
    write_models(tmp_path / "one_block.csv", *rows)
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 100)
    peaks = []
    for n in (200, 800):
        columns = [column[:n] for column in rows]
        tracemalloc.start()
        try:
            write_models(tmp_path / f"{n}.csv", *columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32 * 600, peaks
    assert (tmp_path / "800.csv").read_bytes() == (tmp_path / "one_block.csv").read_bytes()


def test_models_writer_names_a_non_finite_number_in_a_later_block(tmp_path, monkeypatch):
    """The refused row is counted over the blocks, and no file is written."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 2)
    rows = model_rows(5)
    rows[3][3, 12] = np.inf
    with pytest.raises(ValueError, match=re.escape("data row 4, column loglik: inf is not finite")):
        write_models(tmp_path / "models.csv", *rows)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("column", ["converged", "degenerate"])
def test_models_writer_names_a_flag_neither_1_nor_0_in_a_later_block(tmp_path, monkeypatch,
                                                                    column):
    """A flag of 0.5 would be written as ``false`` and read back as 0.0: it is refused by its
    row, counted over the blocks, and its column, and no file is written."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 2)
    rows = model_rows(5)
    rows[3][3, panelio.MODELS_HEADER.index(column) - 3] = 0.5
    with pytest.raises(ValueError, match=re.escape(
            f"data row 4, column {column}: 0.5 is not a flag, 1.0 or 0.0")):
        write_models(tmp_path / "models.csv", *rows)
    assert list(tmp_path.iterdir()) == []


def test_fit_outputs_give_back_the_models_rows_bit_for_bit(tmp_path, fitted):
    """``write_fit_outputs`` then ``read_fit_outputs`` gives back ``models``, the (firms, 15)
    rows of ``models.csv``, flags included, bit for bit."""
    fit = with_flags(fit_outputs(fitted), converged=[1.0, 0.0, 1.0], degenerate=[0.0, 1.0, 1.0])
    write_fit_outputs(tmp_path, fit)
    back = read_fit_outputs(tmp_path)
    assert back.models.shape == (3, 15) and back.models.dtype == np.float64
    assert back.models.tobytes() == fit.models.tobytes()
    assert back.converged.tolist() == [True, False, True]
    assert back.degenerate.tolist() == [False, True, True]


READ_PEAK = """
import sys
from ecuindex.panelio import read_panel

def high_water_bytes():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

before = high_water_bytes()
panel = read_panel(sys.argv[1])
print((high_water_bytes() - before) / int((panel.hi - panel.lo).sum()))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("firms,bound", [(500, 24), (520, 28)])
def test_read_panel_peak_per_row_is_bounded(tmp_path, run_child, firms, bound):
    """Reading a panel raises a fresh process's peak by under ``bound`` bytes a data row.

    Each reading lands in one 8-byte cell of the grid and one 1-byte mark, and the grid's
    rows double in place: about 17 bytes a row at 500 firms, and 25 at 520, whose rows double
    from 512 to 1,024 near the end of the file (2 less in a child that compiles its imports,
    whose freed memory the read reuses).  Holding a block's text while the next one was read
    took 21 and 29; doubling the rows by a copy, which holds the old grid and the new one at
    once, took 21 and 34; keeping each block's rows typed and sorting every firm's readings by
    day took about 46 at 500.
    """
    path = tmp_path / "panel.csv"
    write_panel(path, generate(PanelConfig(n_firms=firms, seed=3, missing_rate=0.02)).panel)
    per_row = float(run_child(READ_PEAK, path))
    assert per_row < bound, per_row
