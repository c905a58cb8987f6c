"""CSV interchange for the panel, the fitted models and the indexes.

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

The files are ``panel.csv`` (one row per firm-day reading), ``models.csv``
(one row per fitted firm: its model, flags and group codes), ``ecu.csv``
and ``srpi.csv``.  The fit's firm-day values go to ``index`` as a binary
array instead (``pipeline.write_fit_outputs``).
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
from .preprocess import FirmRecord, RawSeries
from .simgen import check_date

PANEL_HEADER = ["firm_id", "date", "kwh", "sector_code", "district_code"]
MODELS_HEADER = ["firm_id", "sector_code", "district_code",
                 "alpha_p", "beta_p", "sigma_p", "alpha_r", "beta_r", "sigma_r",
                 "q_pp", "q_rr", "pi0_p", "loglik", "converged", "degenerate"]
ECU_HEADER = ["group_type", "group_key", "offset", "date", "ecu", "total_weight", "firm_count"]
SRPI_HEADER = ["offset", "date", "srpi", "delta_srpi"]

DAY = np.timedelta64(1, "D")
BLOCK_ROWS = 2048  # data rows a reader holds as text at a time
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
_MODEL_FIELDS = {**dict.fromkeys(MODELS_HEADER[3:13], _parse_finite),
                 **dict.fromkeys(MODELS_HEADER[13:], _parse_bool)}


def _unreadable(path, first, columns, converters) -> tuple[float, ValueError]:
    """The data row and error naming the first field, in row order, that its column's
    converter rejects."""
    for n, fields in enumerate(zip(*(columns[c] for c in converters)), first):
        for (column, convert), text in zip(converters.items(), fields):
            try:
                convert(text)
            except ValueError:
                return n, ValueError(f"{path} data row {n}, column {column}: cannot read {text!r}")
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


def seed_comment(seed) -> str:
    return f"root_seed={seed}"


# ---------------------------------------------------------------------------
# panel
# ---------------------------------------------------------------------------


def write_panel(path, records: list[FirmRecord], comments=()) -> None:
    """One block per firm; each distinct range of days (series are daily) is formatted once."""
    days: dict[tuple[bytes, int], list[str]] = {}

    def block(rec):
        dates = rec.series.dates
        key = (dates[:1].tobytes(), len(dates))
        if key not in days:
            days[key] = dates.astype(str).tolist()
        return (rec.firm_id, days[key], _fmt_column(rec.series.values), rec.sector_code,
                rec.district_code)

    _write_csv(path, PANEL_HEADER, map(block, sorted(records, key=lambda r: r.firm_id)), comments)


def read_panel(path) -> list[FirmRecord]:
    """Read a panel file back into per-firm records, sorted by firm id.

    Each block's rows are kept typed until the file is read; then each block is
    scattered, in file order, into its firm's slice of one date and one kWh array,
    and each slice is stably sorted by date.  Every series is a view of the two.
    """
    index: dict[str, int] = {}  # firm id -> position in first-seen order
    codes: dict[str, tuple[str, str]] = {}
    days: set[str] = set()  # day strings already checked: a few hundred
    parts = []  # per block: first-seen firm positions, dates and kWh
    for first, columns in _blocks(path, PANEL_HEADER):
        faults = []  # (data row, error): the earliest in the block is raised
        try:
            for text in set(columns["date"]) - days:
                check_date(text, "date")
                days.add(text)
            dates = np.array(columns["date"], dtype="datetime64[D]")
            kwh = columns["kwh"]
            values = np.array([text or "nan" for text in kwh], dtype=float)
            if np.count_nonzero(np.isfinite(values)) != len(kwh) - kwh.count(""):
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
        parts.append((np.fromiter(map(index.__getitem__, columns["firm_id"]), np.int32), dates,
                      values))
    firm_ids = sorted(index)
    seen = np.array([index[firm_id] for firm_id in firm_ids], dtype=np.intp)
    counts = sum((np.bincount(firms, minlength=len(seen)) for firms, _, _ in parts),
                 np.zeros(len(seen), np.intp))
    bounds = np.concatenate(([0], np.cumsum(counts[seen])))
    fill = bounds[np.argsort(seen)]  # each first-seen firm's next free row
    dates = np.empty(bounds[-1], dtype="datetime64[D]")
    values = np.empty(bounds[-1])
    for firms, block_dates, block_values in parts:
        order = np.argsort(firms, kind="stable")
        grouped = firms[order]
        rows = fill[grouped] + np.arange(len(grouped)) - np.searchsorted(grouped, grouped)
        dates[rows], values[rows] = block_dates[order], block_values[order]
        fill += np.bincount(firms, minlength=len(fill))
    del parts
    out = []
    for firm_id, lo, hi in zip(firm_ids, bounds.tolist(), bounds[1:].tolist()):
        day, kwh = dates[lo:hi], values[lo:hi]
        order = np.argsort(day, kind="stable")  # keeps a repeated day's readings in file order
        day[:], kwh[:] = day[order], kwh[order]
        try:
            series = RawSeries(day, kwh)
        except ValueError as exc:
            raise ValueError(f"{path}: firm {firm_id}: {exc}") from None
        out.append(FirmRecord(firm_id, *codes[firm_id], series))
    return out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def write_models(path, rows: Iterable[ModelRow], comments=()) -> None:
    rows = sorted(rows, key=lambda r: r.firm_id)
    numbers = np.array([[x for p in r.model.params for x in (p.alpha, p.beta, p.sigma)]
                        + [r.model.q[0, 0], r.model.q[1, 1], r.model.pi0[0], r.loglik]
                        for r in rows], dtype=float).reshape(-1, 10)
    _write_csv(path, MODELS_HEADER, [[
        *(_quoted([getattr(r, name) for r in rows]) for name in MODELS_HEADER[:3]),
        *map(_fmt_column, numbers.T),
        *(["true" if getattr(r, name) else "false" for r in rows] for name in MODELS_HEADER[13:])]],
               comments)


def read_models(path) -> dict[str, ModelRow]:
    """The models by firm id; the earliest data row with a field that cannot be read (numbers
    must be finite), a repeated firm or a model ``RegimeModel`` refuses is named."""
    out = {}
    for first, columns in _blocks(path, MODELS_HEADER):
        try:
            typed = [list(map(convert, columns[c])) for c, convert in _MODEL_FIELDS.items()]
            fault = None
        except ValueError:  # the rows before the earliest unreadable one are still checked
            stop, fault = _unreadable(path, first, columns, _MODEL_FIELDS)
            typed = [list(map(convert, columns[c][:stop - first]))
                     for c, convert in _MODEL_FIELDS.items()]
        for n, (firm_id, sector, district, *nums, converged, degenerate) in enumerate(zip(
                columns["firm_id"], columns["sector_code"], columns["district_code"], *typed),
                first):
            if firm_id in out:
                raise ValueError(f"{path} data row {n}: firm {firm_id} already has a row")
            a_p, b_p, s_p, a_r, b_r, s_r, q_pp, q_rr, pi0_p, loglik = nums
            try:
                model = RegimeModel(np.array([[q_pp, 1.0 - q_pp], [1.0 - q_rr, q_rr]]),
                                    (RegimeParams(a_p, b_p, s_p), RegimeParams(a_r, b_r, s_r)),
                                    np.array([pi0_p, 1.0 - pi0_p]))
            except ValueError as exc:
                raise ValueError(f"{path} data row {n}: firm {firm_id}: {exc}") from None
            out[firm_id] = ModelRow(firm_id, sector, district, model, loglik, converged,
                                    degenerate)
        if fault is not None:
            raise fault
    return out


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
