"""CSV interchange: the one module that reads and writes the package's CSV files.

All files are UTF-8 with a header row and ISO-8601 dates.  Lines starting
with ``#`` before the header carry run metadata (the root seed) and are
skipped on read.  Floats are written with ``repr`` so values round-trip
exactly and reruns are byte-identical; empty fields mean missing (a NaN
gap or an unmetered day).  Readers work a block of rows at a time, held as
one string, so their memory is bounded by a block of text plus the typed
arrays.  A block without ``"`` is split at its commas in one call; from the
first block with one on, ``csv.reader`` parses the rest of the file, so
quoted fields may span lines and blocks.  Writers quote a text field as
``csv.writer`` does: one holding a comma, a quote or a line break goes in
quotes, its quotes doubled.  Rows end with CRLF.

The files are ``panel.csv`` (one row per firm-day reading, read into and
written from a ``KwhPanel``'s firm x day grid), ``models.csv`` (one row
per fitted firm: its model, flags and group codes), ``ecu.csv``, ``srpi.csv``,
``report_<firm>.csv`` and the ``code,name`` code map of the sectors ``index``
accepts.  The fit's firm-day values go to ``index`` as a binary array instead
(``pipeline.write_fit_outputs``).
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .ecu import EcuSeries, SrpiSeries
from .hmm import RegimeModel, RegimeParams
from .preprocess import DAY, KwhPanel
from .simgen import check_date

PANEL_HEADER = ["firm_id", "date", "kwh", "sector_code", "district_code"]
MODELS_HEADER = ["firm_id", "sector_code", "district_code",
                 "alpha_p", "beta_p", "sigma_p", "alpha_r", "beta_r", "sigma_r",
                 "q_pp", "q_pr", "q_rp", "q_rr", "pi0_p", "pi0_r", "loglik", "converged",
                 "degenerate"]
ECU_HEADER = ["group_type", "group_key", "offset", "date", "ecu", "total_weight", "firm_count"]
SRPI_HEADER = ["offset", "date", "srpi", "delta_srpi"]
REPORT_HEADER = ["offset", "date", "y", "mu_p", "mu_r"]
CODE_MAP_HEADER = ["code", "name"]

BLOCK_ROWS = 2048  # data rows a reader, or write_models, holds as text at a time
_NEEDS_QUOTES = frozenset(',"\r\n')  # csv.writer quotes a field holding one, doubling its quotes


@dataclass(frozen=True)
class ModelRow:
    """One fitted firm as stored in the models file."""

    firm_id: str
    sector_code: str
    district_code: str
    model: RegimeModel
    loglik: float
    converged: bool
    degenerate: bool


def _fmt_column(values) -> list[str]:
    """Each value as a float written with ``repr``, and ``""`` at NaN."""
    return [repr(x) if x == x else "" for x in np.asarray(values, dtype=float).tolist()]


def _quoted(fields) -> list[str]:
    """Text fields as ``csv.writer`` writes them, each distinct value quoted once."""
    forms = {f: f if _NEEDS_QUOTES.isdisjoint(f) else '"' + f.replace('"', '""') + '"'
             for f in set(fields)}
    return list(map(forms.__getitem__, fields))


def _parse_bool(field: str) -> bool:
    if field not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {field!r}")
    return field == "true"


def _parse_finite(field: str) -> float:
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {field!r}")
    return value


# the typed columns of models.csv and their converters
_MODEL_FIELDS = {**dict.fromkeys(MODELS_HEADER[3:-2], _parse_finite),
                 **dict.fromkeys(MODELS_HEADER[-2:], _parse_bool)}


def _typed(path, n, converters, fields) -> list:
    """Row ``n``'s ``fields`` through ``converters``, {column: convert}; names the first refused."""
    out = []
    for (name, convert), text in zip(converters.items(), fields):
        try:
            out.append(convert(text))
        except ValueError:
            raise ValueError(f"{path} data row {n}, column {name}: cannot read {text!r}") from None
    return out


def _unreadable(path, first, columns, converters) -> tuple[float, ValueError]:
    """The data row and error naming the first field, in row order, that its column's
    converter rejects."""
    for n, fields in enumerate(zip(*(columns[c] for c in converters)), first):
        try:
            _typed(path, n, converters, fields)
        except ValueError as exc:
            return n, exc
    return math.inf, ValueError(f"{path} has a field that cannot be read")


def _write_csv(path, header, blocks, comments) -> None:
    """Comments, header and blocks of text columns as CRLF rows; a ``str`` column is one field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            rows = list(map(",".join, zip(*(itertools.repeat(*_quoted([c])) if isinstance(c, str)
                                            else c for c in columns))))
            rows.append("")
            fh.write("\r\n".join(rows))


def _csv_rows(path, lines):
    """``csv.reader`` rows; its ``csv.Error`` (a quoted field too long) names ``path``."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def _blocks(path, header):
    """Each block of ``BLOCK_ROWS`` data rows as ``(first_data_row, {column: fields})``.

    The header and the block's field counts are checked before it is yielded; a
    block whose lines have a ``"`` or another comma count goes to ``csv.reader``.  The
    rows before a wrong field count are yielded before it is raised, so a reader naming
    the earliest fault of each block names the same row at any ``BLOCK_ROWS``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing file {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), fh)
        found = next(_csv_rows(path, lines), None)
        if found is None:
            raise ValueError(f"{path} is empty")
        if found != header:
            raise ValueError(f"{path} header {found} does not match {header}")
        width, first = len(header), 1
        while block := list(itertools.islice(lines, BLOCK_ROWS)):
            text = ",".join(map(str.rstrip, block, itertools.repeat("\r\n")))
            if '"' in text or set(map(str.count, block, itertools.repeat(","))) != {width - 1}:
                break
            fields = text.split(",")
            columns = {name: fields[j::width] for j, name in enumerate(header)}
            del block, text, fields  # a block's text is held once, as columns
            yield first, columns
            first += len(columns[header[0]])
            del columns  # and not while the next block is read
        # a quoted field may hold commas and line breaks, and span blocks
        rows = _csv_rows(path, itertools.chain(block, lines))
        while block := list(itertools.islice(rows, BLOCK_ROWS)):
            if set(map(len, block)) - {width}:
                k = next(k for k, row in enumerate(block) if len(row) != width)
                fault = ValueError(
                    f"{path} data row {first + k} has {len(block[k])} fields, expected {width}")
                if k:
                    yield first, dict(zip(header, zip(*block[:k])))
                raise fault
            columns = dict(zip(header, zip(*block)))
            del block
            yield first, columns
            first += len(columns[header[0]])
            del columns


def seed_comment(seed) -> str:
    return f"root_seed={seed}"


# ---------------------------------------------------------------------------
# panel
# ---------------------------------------------------------------------------


def write_panel(path, panel: KwhPanel, comments=()) -> None:
    """One block of rows per firm, its readings straight from its row of the grid."""
    days = (panel.day0 + np.arange(panel.kwh.shape[1])).astype(str).tolist()
    _write_csv(path, PANEL_HEADER, (
        (firm_id, days[lo:hi], _fmt_column(row[lo:hi]), sector, district)
        for firm_id, sector, district, lo, hi, row in zip(
            panel.firm_ids, panel.sector_codes, panel.district_codes, panel.lo.tolist(),
            panel.hi.tolist(), panel.kwh)), comments)


def read_panel(path) -> KwhPanel:
    """Read a panel file into a ``KwhPanel``, firms in id order over the days they cover.

    Each block's readings are scattered straight into a firm x day grid, its rows the firms
    in first-seen order.  An axis a block overflows at least doubles, so a file sorted by
    firm, one sorted by date and a shuffled one read in amortised linear time.  A fault in
    the text is named by its earliest data row.  Once the file is read, the first firm in id
    order whose days repeat or skip one, or else that has a negative reading, is named.
    """
    index: dict[str, int] = {}  # firm id -> grid row, in first-seen order
    codes: dict[str, tuple[str, str]] = {}
    days: set[str] = set()  # day strings already checked: a few hundred
    kwh, seen = np.empty((0, 0)), np.zeros((0, 0), dtype=bool)  # seen: a reading filled the cell
    counts = np.zeros(0, dtype=np.intp)  # readings per row
    day0 = 0  # day number of column 0
    for first, columns in _blocks(path, PANEL_HEADER):
        faults = []  # (data row, error): the earliest in the block is raised
        try:
            for text in set(columns["date"]) - days:
                check_date(text, "date")
                days.add(text)
            dates = np.array(columns["date"], dtype="datetime64[D]")
            text = columns["kwh"]
            values = np.array([field or "nan" for field in text], dtype=float)
            if np.count_nonzero(np.isfinite(values)) != len(text) - text.count(""):
                raise ValueError("non-finite kWh text")
        except ValueError:
            converters = {"date": functools.partial(check_date, name="date"),
                          "kwh": lambda text: text and _parse_finite(text)}  # blank: missing
            faults.append(_unreadable(path, first, columns, converters))
        firm_codes = columns["firm_id"], columns["sector_code"], columns["district_code"]
        for firm_id, sector, district in dict.fromkeys(zip(*firm_codes)):  # first-seen order
            if codes.setdefault(firm_id, (sector, district)) != (sector, district):
                n = next(n for n, row in enumerate(zip(*firm_codes), first)
                         if row == (firm_id, sector, district))
                faults.append((n, ValueError(
                    f"{path}: firm {firm_id} has inconsistent sector/district codes")))
                break
            index.setdefault(firm_id, len(index))
        if faults:
            raise min(faults, key=lambda fault: fault[0])[1]
        rows = np.fromiter(map(index.__getitem__, columns["firm_id"]), np.intp)
        cols = dates.astype(np.int64)
        width = kwh.shape[1]
        day0 = day0 if width else int(cols.min())
        start, stop = min(int(cols.min()), day0), max(int(cols.max()) + 1, day0 + width)
        if len(index) > len(kwh):  # an overflowed axis at least doubles; rows grow in place
            n, old = max(len(index), 2 * len(kwh)), len(kwh)
            kwh.resize((n, width), refcheck=False)  # no views: the grid is never held twice
            seen.resize((n, width), refcheck=False)  # new cells False
            kwh[old:], counts = np.nan, np.pad(counts, (0, n - old))
        if stop - start > width:
            width = max(stop - start, 2 * width)
            shift = day0 - (stop - width if start < day0 else start)  # slack where it grew
            pad = (0, 0), (shift, width - shift - kwh.shape[1])
            kwh, seen = np.pad(kwh, pad, constant_values=np.nan), np.pad(seen, pad)
            day0 -= shift
        cols -= day0
        kwh[rows, cols], seen[rows, cols] = values, True
        counts += np.bincount(rows, minlength=len(counts))
        del columns, text, firm_codes  # the next block is read holding none of this one's text
    if not index:
        return KwhPanel([], [], [], np.datetime64(0, "D"), counts, counts, kwh)
    firm_ids = sorted(index)
    order = np.array([index[firm_id] for firm_id in firm_ids], dtype=np.intp)
    if np.array_equal(order, np.arange(len(order))):  # rows already in id order: no copy
        order = slice(len(order))
        kwh.resize((len(firm_ids), kwh.shape[1]), refcheck=False)  # frees spare rows; no views
    seen, counts = seen[order], counts[order]
    lo, hi = seen.argmax(axis=1), seen.shape[1] - seen[:, ::-1].argmax(axis=1)
    step_fault = (counts != hi - lo) | (np.count_nonzero(seen, axis=1) != counts)
    start, stop = lo.min(), hi.max()
    del seen
    kwh = kwh[order, start:stop]  # KwhPanel copies it only where it is not C-contiguous
    negative = (kwh < 0).any(axis=1)  # a cell outside its row's readings is NaN
    for k in np.flatnonzero(step_fault | negative)[:1]:  # the first faulty firm in id order
        fault = ("dates must be strictly increasing with a one-day step" if step_fault[k]
                 else "kWh values must be non-negative")
        raise ValueError(f"{path}: firm {firm_ids[k]}: {fault}")
    return KwhPanel(firm_ids, [codes[f][0] for f in firm_ids], [codes[f][1] for f in firm_ids],
                    np.datetime64(int(day0 + start), "D"), lo - start, hi - start, kwh)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def write_models(path, rows: Iterable[ModelRow], comments=()) -> None:
    """The models as ``models.csv`` rows in firm id order, formatted ``BLOCK_ROWS`` rows at a
    time; a text field longer than the CSV reader's field limit or a non-finite number, which
    ``read_models`` would refuse, is refused before the file is opened."""
    rows = sorted(rows, key=lambda r: r.firm_id)
    limit = csv.field_size_limit()
    for k, r in enumerate(rows):
        for name in MODELS_HEADER[:3]:
            if len(getattr(r, name)) > limit:
                raise ValueError(f"{path} data row {k + 1}, column {name}: a field of "
                                 f"{len(getattr(r, name))} characters is longer than the CSV "
                                 f"reader's limit of {limit}")
    starts = range(0, len(rows), BLOCK_ROWS)
    for at in starts:
        numbers = _model_numbers(rows[at:at + BLOCK_ROWS])
        bad = ~np.isfinite(numbers)
        if bad.any():  # read_models would refuse it
            k, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"{path} data row {at + k + 1}, column {MODELS_HEADER[3 + j]}: "
                             f"{numbers[k, j]} is not finite")
    _write_csv(path, MODELS_HEADER, ([
        *(_quoted([getattr(r, name) for r in block]) for name in MODELS_HEADER[:3]),
        *map(_fmt_column, _model_numbers(block).T),
        *(["true" if getattr(r, name) else "false" for r in block] for name in MODELS_HEADER[-2:])]
        for block in (rows[at:at + BLOCK_ROWS] for at in starts)), comments)


def _model_numbers(rows: list[ModelRow]) -> np.ndarray:
    """The numeric fields of ``rows`` as a (rows, 13) array, in ``MODELS_HEADER`` order."""
    return np.array([[x for p in r.model.params for x in (p.alpha, p.beta, p.sigma)]
                     + [*r.model.q.ravel(), *r.model.pi0, r.loglik]
                     for r in rows], dtype=float).reshape(-1, len(MODELS_HEADER[3:-2]))


def read_models(path) -> dict[str, ModelRow]:
    """The models by firm id.  A row's fields are read in header order (numbers must be
    finite), then its firm must be new and its model one ``RegimeModel`` accepts; the first
    faulty data row is named."""
    out = {}
    for first, columns in _blocks(path, MODELS_HEADER):
        for n, (firm_id, sector, district, *fields) in enumerate(zip(*columns.values()), first):
            (a_p, b_p, s_p, a_r, b_r, s_r, q_pp, q_pr, q_rp, q_rr, pi0_p, pi0_r, loglik,
             converged, degenerate) = _typed(path, n, _MODEL_FIELDS, fields)
            if firm_id in out:
                raise ValueError(f"{path} data row {n}: firm {firm_id} already has a row")
            try:
                model = RegimeModel(np.array([[q_pp, q_pr], [q_rp, q_rr]]),
                                    (RegimeParams(a_p, b_p, s_p), RegimeParams(a_r, b_r, s_r)),
                                    np.array([pi0_p, pi0_r]))
            except ValueError as exc:
                raise ValueError(f"{path} data row {n}: firm {firm_id}: {exc}") from None
            out[firm_id] = ModelRow(firm_id, sector, district, model, loglik, converged,
                                    degenerate)
    return out


def read_code_map(path) -> set[str]:
    """The codes of a ``code,name`` file; the names are not used."""
    return {code for _, columns in _blocks(path, CODE_MAP_HEADER) for code in columns["code"]}


# ---------------------------------------------------------------------------
# indexes
# ---------------------------------------------------------------------------


def write_ecu(path, series_list: list[EcuSeries], base_date, comments=()) -> None:
    """``base_date``: calendar day at offset 0 in the test window."""
    base = np.datetime64(base_date)
    _write_csv(path, ECU_HEADER, (
        (s.group_type, s.group_key, map(str, s.offsets.tolist()),
         (base + s.offsets * DAY).astype(str).tolist(), _fmt_column(s.ecu),
         _fmt_column(s.total_weight), map(str, s.firm_count.tolist()))
        for s in sorted(series_list, key=lambda s: (s.group_type, s.group_key))), comments)


def write_srpi(path, series: SrpiSeries, base_date, comments=()) -> None:
    dates = (np.datetime64(base_date) + series.offsets * DAY).astype(str).tolist()
    _write_csv(path, SRPI_HEADER, [(map(str, series.offsets.tolist()), dates,
                                    *map(_fmt_column, (series.srpi, series.delta_srpi)))], comments)


def write_report(path, offsets, columns, base_date, comments=()) -> None:
    """One firm's ``y``, ``mu_p`` and ``mu_r`` ``columns`` by offset."""
    dates = (np.datetime64(base_date) + offsets * DAY).astype(str).tolist()
    _write_csv(path, REPORT_HEADER, [(map(str, offsets.tolist()), dates,
                                      *map(_fmt_column, columns))], comments)
