"""The column-wise CSV readers and writers against the row-at-a-time oracle.

``panelio_oracle`` holds the package's earlier readers and writers.  On
every input both accept, the package must write byte-identical files and
read back bit-identical arrays with the same firm order and codes (each
row of the package's firm x day grid against the oracle's record of that
firm, the grid spanning exactly the panel's days); on the
faults both reject (a short or long row, a field that does not parse,
inconsistent codes, a negative reading, a duplicated or missing day) it
must raise the same message.  The inputs the package now rejects and the
oracle accepted (dates not written YYYY-MM-DD, non-finite kWh text, lines
after the header that start with ``#``) are tested in ``test_panelio.py``
and ``test_cli.py``, not here.  The properties that read files run a second
time with ``panelio.BLOCK_ROWS`` forced to 2, so every example spans blocks
and an injected fault can land in a later one.  The last tests pin the
split path (a block without ``"`` is split at its commas) and its hand-over
to ``csv.reader``: quoted line breaks on a block boundary, a first quote in a
later block, mixed LF, CRLF and CR line endings, and empty lines, on the
panel and, through ``panelio._blocks`` itself, on the seven-column firm-day
layout against the oracle's ``_read_rows``.
"""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panelio_oracle as oracle
from ecuindex import panelio
from ecuindex.ecu import EcuSeries, SrpiSeries
from ecuindex.panelio import PANEL_HEADER
from ecuindex.preprocess import RawSeries
from firm_records import FirmRecord, panel_of, records_of

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
COMMENTS = ["root_seed=7", "a, \"quoted\" note"]

# ids and codes with commas, quotes, spaces, line breaks and non-ASCII text;
# no "#", which the oracle drops wherever a line starts with it
NAME = st.text(alphabet=list("AZaz09 ,;\"'-_\n\réü中😀"), max_size=6)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.1 + 0.2,
           1e308, -1e308, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
# a valid reading: non-negative and finite, or NaN for a missing day
READING = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2,
                                     1e308, 1.7976931348623157e308, np.nan]),
                    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))


def in_blocks_of_2(test):
    """``test`` again with ``panelio.BLOCK_ROWS`` forced to 2."""
    def run():
        with mock.patch.object(panelio, "BLOCK_ROWS", 2):
            test()
    return run


def bits(a):
    """An array's raw bits, so -0.0 and NaN compare exactly."""
    a = np.asarray(a)
    return a.dtype, a.tobytes()


@st.composite
def records(draw):
    """Firms with distinct ids, each a contiguous daily series with gaps."""
    ids = draw(st.lists(NAME, min_size=1, max_size=5, unique=True))
    out = []
    for firm_id in ids:
        start = np.datetime64("1970-01-01") + draw(st.integers(-30000, 40000))
        n = draw(st.integers(1, 12))
        values = draw(st.lists(READING, min_size=n, max_size=n))
        out.append(FirmRecord(firm_id, draw(NAME), draw(NAME),
                              RawSeries(np.arange(start, start + n), values)))
    return out


def kwh_text(value, style):
    """A reading as ``repr`` writes it, or in another form ``float`` reads the same."""
    if np.isnan(value):
        return ""
    return {"repr": repr(value), "g": f"{value:.17g}", "e": f"{value:.16e}",
            "plus": f"{value:+.17g}", "space": f" {value!r} "}[style]


@st.composite
def panel_rows(draw):
    """Data rows of a valid panel, in a drawn order, with varied kWh text."""
    rows = []
    for rec in draw(records()):
        for day, value in zip(rec.series.dates, rec.series.values):
            style = draw(st.sampled_from(["repr", "repr", "g", "e", "plus", "space"]))
            rows.append([rec.firm_id, str(day), kwh_text(float(value), style),
                         rec.sector_code, rec.district_code])
    return draw(st.permutations(rows))


def write_rows(path, rows, comments=COMMENTS):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        w = csv.writer(fh)
        w.writerow(PANEL_HEADER)
        w.writerows(rows)


def outcome(read, path):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return "ok", read(path)
    except (ValueError, FileNotFoundError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_records(panel, want):
    """The panel's grid rows hold the records' series, and its columns span just their days."""
    assert panel.kwh.flags.c_contiguous and panel.kwh.dtype == np.float64
    assert panel.kwh.shape[1] == (panel.hi.max() - panel.lo.min() if len(panel) else 0)
    got = records_of(panel)
    assert [r.firm_id for r in got] == [r.firm_id for r in want]
    for g, w in zip(got, want):
        assert type(g.firm_id) is str
        assert (g.sector_code, g.district_code) == (w.sector_code, w.district_code)
        assert bits(g.series.dates) == bits(w.series.dates)
        assert bits(g.series.values) == bits(w.series.values)


@SETTINGS
@given(recs=records())
def test_write_panel_matches_oracle(recs):
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d, "got.csv"), Path(d, "want.csv")
        panelio.write_panel(got, panel_of(recs), COMMENTS)
        oracle.write_panel(want, recs, COMMENTS)
        assert got.read_bytes() == want.read_bytes()
        assert_same_records(panelio.read_panel(got), oracle.read_panel(want))


@SETTINGS
@given(rows=panel_rows())
def test_read_panel_matches_oracle(rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "panel.csv")
        write_rows(path, rows)
        assert_same_records(panelio.read_panel(path), oracle.read_panel(path))


test_write_panel_in_blocks_of_2 = in_blocks_of_2(test_write_panel_matches_oracle)
test_read_panel_in_blocks_of_2 = in_blocks_of_2(test_read_panel_matches_oracle)


FAULTS = ["short", "long", "kwh", "date", "codes", "negative", "duplicate", "missing"]


def inject(fault, rows, data):
    """Put one fault into valid, firm-sorted panel rows; None where it cannot go."""
    k = data.draw(st.integers(0, len(rows) - 1))
    row = list(rows[k])
    if fault == "short":
        del row[data.draw(st.integers(0, 4))]
    elif fault == "long":
        row.insert(data.draw(st.integers(0, 5)), data.draw(NAME))
    elif fault == "kwh":
        row[2] = data.draw(st.sampled_from(["abc", "1.2.3", "--1", "1e", "0x10", " "]))
    elif fault == "date":
        row[1] = data.draw(st.sampled_from(["2019-02-30", "2019-13-01", "yesterday", "1-1-1"]))
    elif fault == "codes":
        row[3] = row[3] + "x"
    elif fault == "negative":
        row[2] = repr(-data.draw(st.floats(min_value=5e-324, allow_infinity=False)))
    elif fault == "duplicate":
        return rows[:k + 1] + [row] + rows[k + 1:]
    elif fault == "missing":
        firm = [i for i, r in enumerate(rows) if r[0] == row[0]]
        if len(firm) < 3:
            return None
        return [r for i, r in enumerate(rows) if i != firm[1]]
    if fault == "codes" and sum(r[0] == row[0] for r in rows) < 2:
        return None
    return rows[:k] + [row] + rows[k + 1:]


@SETTINGS
@given(recs=records(), fault=st.sampled_from(FAULTS), data=st.data())
def test_rejections_match_oracle(recs, fault, data):
    rows = [[rec.firm_id, str(day), kwh_text(float(v), "repr"), rec.sector_code,
             rec.district_code]
            for rec in sorted(recs, key=lambda r: r.firm_id)
            for day, v in zip(rec.series.dates, rec.series.values)]
    rows = inject(fault, rows, data)
    if rows is None:
        return
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "panel.csv")
        write_rows(path, rows)
        got, want = outcome(panelio.read_panel, path), outcome(oracle.read_panel, path)
        assert got == want
        assert got[0] == "ValueError", fault


test_rejections_in_blocks_of_2 = in_blocks_of_2(test_rejections_match_oracle)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "firm,day\n"])
def test_empty_and_foreign_files_match_oracle(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    assert outcome(panelio.read_panel, path) == outcome(oracle.read_panel, path)
    assert outcome(panelio.read_panel, tmp_path / "nope.csv") == \
        outcome(oracle.read_panel, tmp_path / "nope.csv")


@st.composite
def ecu_series(draw):
    n = draw(st.integers(1, 8))
    unit = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, np.nan]),
                     st.floats(0.0, 1.0))
    return EcuSeries(draw(NAME), draw(NAME), np.arange(n) + draw(st.integers(-400, 400)),
                     draw(st.lists(unit, min_size=n, max_size=n)),
                     draw(st.lists(ANY_FLOAT, min_size=n, max_size=n)),
                     draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n)))


BASES = st.sampled_from(["2020-01-24", "1970-01-01", "2000-02-29", "1899-12-31"])


@SETTINGS
@given(series=st.lists(ecu_series(), max_size=4), base=BASES)
def test_write_ecu_matches_oracle(series, base):
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d, "got.csv"), Path(d, "want.csv")
        panelio.write_ecu(got, series, base, COMMENTS)
        oracle.write_ecu(want, series, base, COMMENTS)
        assert got.read_bytes() == want.read_bytes()


@SETTINGS
@given(data=st.data(), base=BASES)
def test_write_srpi_matches_oracle(data, base):
    n = data.draw(st.integers(0, 12))
    column = st.lists(ANY_FLOAT, min_size=n, max_size=n)
    series = SrpiSeries(np.arange(n) - data.draw(st.integers(0, 200)),
                        data.draw(column), data.draw(column))
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d, "got.csv"), Path(d, "want.csv")
        panelio.write_srpi(got, series, base, COMMENTS)
        oracle.write_srpi(want, series, base, COMMENTS)
        assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# the split path: blocks without a quote are split at their commas, and from the
# first block with a quote on, csv.reader parses the rest of the file
# ---------------------------------------------------------------------------


# the seven columns of the former firm-day CSV: a wider, mostly numeric layout that
# pins the block splitter itself on a second header shape
FIRMDAY_HEADER = ["firm_id", "offset", "y", "mu_p", "mu_r", "ele_test", "ele_ref"]


def read_firmday_rows(path):
    """The data rows of a firm-day layout file, as ``panelio._blocks`` yields them."""
    return [list(row) for _, columns in panelio._blocks(path, FIRMDAY_HEADER)
            for row in zip(*columns.values())]


def assert_same_rows(got, want):
    assert got == want


READERS = {"panel": (panelio.read_panel, oracle.read_panel, assert_same_records),
           "firmdays": (read_firmday_rows, lambda path: oracle._read_rows(path, FIRMDAY_HEADER),
                        assert_same_rows)}


def assert_reads_as_oracle(kind, path):
    """The package's reader returns what the oracle's returns, or raises its message."""
    read, read_oracle, same = READERS[kind]
    got, want = outcome(read, path), outcome(read_oracle, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        same(got[1], want[1])
    else:
        assert got == want
    return got[0]


def render(header, rows, endings, blank_after=()):
    """CSV text as ``csv.writer`` writes it, data row n ended by ``endings[n - 1]``, cycled.

    An empty line follows data row n for each n in ``blank_after`` (0: the header).
    """
    out = [",".join(header) + "\n"]
    out += ["\n" for n in blank_after if n == 0]
    for n, row in enumerate(rows, 1):
        ending = endings[(n - 1) % len(endings)]
        fh = io.StringIO()
        csv.writer(fh).writerow(row)
        out.append(fh.getvalue().removesuffix("\r\n") + ending)
        out += [ending for k in blank_after if k == n]
    return "".join(out)


def panel_lines(firm_ids, days=3):
    return [[firm_id, f"2019-01-0{day}", f"{day}.5", "101", "D01"]
            for firm_id in firm_ids for day in range(1, days + 1)]


def firmday_lines(firm_ids, days=3):
    return [[firm_id, str(k), "0.5", "0.25", "0.75", f"{k}.5", "1e-3"]
            for firm_id in firm_ids for k in range(days)]


LINES = {"panel": (PANEL_HEADER, panel_lines), "firmdays": (FIRMDAY_HEADER, firmday_lines)}

# name: (firm ids, line endings, empty lines after these data rows, what the readers do);
# each firm has three rows, so with blocks of 2 lines the plain first firm fills block 1
SPLIT_CASES = {
    # with blocks of 2 lines, the first quoted id's line break ends block 2
    "line_break_on_block_boundary": (["A", "B\nC", "D\r\nE"], ["\r\n"], (), "ok"),
    "first_quote_in_a_later_block": (["A", "B", "C,\"D\""], ["\r\n"], (), "ok"),
    "mixed_line_endings": (["A", "B", "C"], ["\n", "\r\n", "\r"], (), "ok"),
    "mixed_line_endings_quoted": (["A", "B\rC", "D"], ["\r", "\n", "\r\n"], (), "ok"),
    "trailing_blank_line": (["A", "B"], ["\r\n"], (6,), "ValueError"),
    "empty_line_mid_file": (["A", "B"], ["\n"], (4,), "ValueError"),
    "empty_line_after_header": (["A", "B"], ["\r\n"], (0,), "ValueError"),
    "empty_line_after_a_quote": (["A", "\"B\"", "C"], ["\r\n"], (7,), "ValueError"),
}


@pytest.mark.parametrize("block_rows", [2, panelio.BLOCK_ROWS])
@pytest.mark.parametrize("kind", sorted(LINES))
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_path_cases_match_oracle(tmp_path, monkeypatch, block_rows, kind, case):
    monkeypatch.setattr(panelio, "BLOCK_ROWS", block_rows)
    firm_ids, endings, blank_after, expected = SPLIT_CASES[case]
    header, lines = LINES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(render(header, lines(firm_ids), endings, blank_after), encoding="utf-8",
                    newline="")
    assert assert_reads_as_oracle(kind, path) == expected


def test_quoted_line_break_lands_on_a_block_boundary(tmp_path, monkeypatch):
    """The first case above is laid out as its name says: block 1 is split at its commas,
    and the quote that block 2 opens closes in block 3."""
    monkeypatch.setattr(panelio, "BLOCK_ROWS", 2)
    path = tmp_path / "panel.csv"
    path.write_text(render(PANEL_HEADER, panel_lines(["A", "B\nC"]), ["\r\n"]), encoding="utf-8",
                    newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()[1:]
    assert '"' not in "".join(lines[:2]) and lines[3] == '"B\n'
    assert panelio.read_panel(path).firm_ids == ["A", "B\nC"]


@SETTINGS
@given(rows=panel_rows(), endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1,
                                           max_size=3),
       data=st.data())
def test_line_endings_and_empty_lines_match_oracle(rows, endings, data):
    """Any row order, line endings, quoted ids and empty lines read as the oracle reads them."""
    blank_after = data.draw(st.lists(st.integers(0, len(rows)), max_size=2))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "panel.csv")
        path.write_text(render(PANEL_HEADER, rows, endings, blank_after), encoding="utf-8",
                        newline="")
        assert_reads_as_oracle("panel", path)


test_line_endings_and_empty_lines_in_blocks_of_2 = in_blocks_of_2(
    test_line_endings_and_empty_lines_match_oracle)
