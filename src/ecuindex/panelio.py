"""CSV interchange for every pipeline stage.

All files are UTF-8 with a header row and ISO-8601 dates.  Lines starting
with ``#`` before the header carry run metadata (the root seed) and are
skipped on read.  Floats are written with ``repr`` so values round-trip
exactly and reruns are byte-identical; empty fields mean missing (a NaN
gap or an unmetered day).

The fit stage hands off two files: ``models.csv`` with one row per firm
(its fitted model, flags and group codes) and ``firmdays.csv`` with one
row per firm-day (deviation, filtered probabilities and the cleaned
consumption of both windows).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .ecu import EcuSeries, SrpiSeries
from .hmm import RegimeModel, RegimeParams
from .preprocess import RawSeries

PANEL_HEADER = ["firm_id", "date", "kwh", "sector_code", "district_code"]
MODELS_HEADER = ["firm_id", "sector_code", "district_code",
                 "alpha_p", "beta_p", "sigma_p", "alpha_r", "beta_r", "sigma_r",
                 "q_pp", "q_rr", "pi0_p", "loglik", "converged", "degenerate"]
FIRMDAYS_HEADER = ["firm_id", "offset", "y", "mu_p", "mu_r", "ele_test", "ele_ref"]
ECU_HEADER = ["group_type", "group_key", "offset", "date", "ecu", "total_weight", "firm_count"]
SRPI_HEADER = ["offset", "date", "srpi", "delta_srpi"]

DAY = np.timedelta64(1, "D")


@dataclass(frozen=True)
class FirmRecord:
    """One firm's raw series plus its sector and district assignment."""

    firm_id: str
    sector_code: str
    district_code: str
    series: RawSeries


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


@dataclass(frozen=True)
class FirmDayTable:
    """Columns of the firm-day file, one row per fitted firm and offset.

    ``y`` is the deviation series, ``mu_p``/``mu_r`` the filtered regime
    probabilities as fitted (a degenerate firm's are not zeroed here), and
    ``ele_test``/``ele_ref`` the cleaned kWh of the test and reference windows.
    """

    firm_id: np.ndarray
    offset: np.ndarray
    y: np.ndarray
    mu_p: np.ndarray
    mu_r: np.ndarray
    ele_test: np.ndarray
    ele_ref: np.ndarray


def _fmt(x) -> str:
    x = float(x)
    return "" if math.isnan(x) else repr(x)


def _parse_float(field: str) -> float:
    return np.nan if field == "" else float(field)


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _parse_bool(field: str) -> bool:
    if field not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {field!r}")
    return field == "true"


def _unreadable(path, rows, header, converters) -> ValueError:
    """The error naming the first field in ``rows`` that its column's converter rejects."""
    for n, row in enumerate(rows, 1):
        for column, convert in converters.items():
            text = row[header.index(column)]
            try:
                convert(text)
            except ValueError:
                return ValueError(f"{path} data row {n}, column {column}: cannot read {text!r}")
    return ValueError(f"{path} has a field that cannot be read")


def _parse_column(path, rows, header, column, convert) -> list:
    i = header.index(column)
    try:
        return [convert(row[i]) for row in rows]
    except ValueError:
        raise _unreadable(path, rows, header, {column: convert}) from None


def _open_writer(path, comments):
    fh = open(path, "w", encoding="utf-8", newline="")
    for line in comments:
        fh.write(f"# {line}\n")
    return fh, csv.writer(fh)


def _read_rows(path, expected_header):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing file {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    if not rows:
        raise ValueError(f"{path} is empty")
    if rows[0] != expected_header:
        raise ValueError(f"{path} header {rows[0]} does not match {expected_header}")
    for n, row in enumerate(rows[1:], 1):
        if len(row) != len(expected_header):
            raise ValueError(f"{path} data row {n} has {len(row)} fields, "
                             f"expected {len(expected_header)}")
    return rows[1:]


def seed_comment(seed) -> str:
    return f"root_seed={seed}"


def read_seed_comment(path) -> int | None:
    """Root seed recorded in a file's comment header, if any."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                return None
            text = line[1:].strip()
            if text.startswith("root_seed="):
                return int(text.split("=", 1)[1])
    return None


# ---------------------------------------------------------------------------
# panel
# ---------------------------------------------------------------------------


def write_panel(path, records: list[FirmRecord], comments=()) -> None:
    fh, w = _open_writer(path, comments)
    with fh:
        w.writerow(PANEL_HEADER)
        for rec in sorted(records, key=lambda r: r.firm_id):
            s = rec.series
            for date, kwh in zip(s.dates, s.values):
                w.writerow([rec.firm_id, str(date), _fmt(kwh),
                            rec.sector_code, rec.district_code])


def read_panel(path) -> list[FirmRecord]:
    """Read a panel file back into per-firm records, sorted by firm id."""
    rows = _read_rows(path, PANEL_HEADER)
    grouped: dict[str, list] = {}
    meta: dict[str, tuple[str, str]] = {}
    for firm_id, date, kwh, sector, district in rows:
        try:
            reading = np.datetime64(date), _parse_float(kwh)
        except ValueError:
            converters = {"date": np.datetime64, "kwh": _parse_float}
            raise _unreadable(path, rows, PANEL_HEADER, converters) from None
        grouped.setdefault(firm_id, []).append(reading)
        prev = meta.setdefault(firm_id, (sector, district))
        if prev != (sector, district):
            raise ValueError(f"{path}: firm {firm_id} has inconsistent sector/district codes")
    del rows  # free the text before the arrays are built: it sets the reader's peak memory
    out = []
    for firm_id in sorted(grouped):
        readings = sorted(grouped[firm_id])
        dates = np.array([d for d, _ in readings], dtype="datetime64[D]")
        values = np.array([v for _, v in readings], dtype=float)
        try:
            series = RawSeries(firm_id, dates, values)
        except ValueError as exc:
            raise ValueError(f"{path}: firm {firm_id}: {exc}") from None
        out.append(FirmRecord(firm_id, *meta[firm_id], series))
    return out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def write_models(path, rows: Iterable[ModelRow], comments=()) -> None:
    fh, w = _open_writer(path, comments)
    with fh:
        w.writerow(MODELS_HEADER)
        for row in sorted(rows, key=lambda r: r.firm_id):
            p, r = row.model.prosperous, row.model.recessionary
            w.writerow([row.firm_id, row.sector_code, row.district_code,
                        _fmt(p.alpha), _fmt(p.beta), _fmt(p.sigma),
                        _fmt(r.alpha), _fmt(r.beta), _fmt(r.sigma),
                        _fmt(row.model.q[0, 0]), _fmt(row.model.q[1, 1]),
                        _fmt(row.model.pi0[0]), _fmt(row.loglik),
                        _fmt_bool(row.converged), _fmt_bool(row.degenerate)])


def read_models(path) -> dict[str, ModelRow]:
    rows = _read_rows(path, MODELS_HEADER)
    numbers = zip(*(_parse_column(path, rows, MODELS_HEADER, c, float)
                    for c in MODELS_HEADER[3:13]))
    flags = zip(*(_parse_column(path, rows, MODELS_HEADER, c, _parse_bool)
                  for c in MODELS_HEADER[13:]))
    out = {}
    for (firm_id, sector, district, *_), nums, (converged, degenerate) in zip(rows, numbers, flags):
        a_p, b_p, s_p, a_r, b_r, s_r, q_pp, q_rr, pi0_p, loglik = nums
        model = RegimeModel(
            np.array([[q_pp, 1.0 - q_pp], [1.0 - q_rr, q_rr]]),
            (RegimeParams(a_p, b_p, s_p), RegimeParams(a_r, b_r, s_r)),
            np.array([pi0_p, 1.0 - pi0_p]),
        )
        out[firm_id] = ModelRow(firm_id, sector, district, model, loglik, converged, degenerate)
    return out


# ---------------------------------------------------------------------------
# firm-days
# ---------------------------------------------------------------------------


def write_firmdays(path, table: FirmDayTable, comments=()) -> None:
    """Rows in table order; the pipeline builds the table sorted by (firm_id, offset)."""
    fh, w = _open_writer(path, comments)
    with fh:
        w.writerow(FIRMDAYS_HEADER)
        floats = (getattr(table, name).tolist() for name in FIRMDAYS_HEADER[2:])
        for firm_id, off, *values in zip(table.firm_id, table.offset.tolist(), *floats):
            w.writerow([firm_id, off, *map(_fmt, values)])


def read_firmdays(path) -> FirmDayTable:
    rows = _read_rows(path, FIRMDAYS_HEADER)
    return FirmDayTable(
        np.array([row[0] for row in rows], dtype=object),
        np.array(_parse_column(path, rows, FIRMDAYS_HEADER, "offset", int), dtype=int),
        *(np.array(_parse_column(path, rows, FIRMDAYS_HEADER, c, float))
          for c in FIRMDAYS_HEADER[2:]),
    )


# ---------------------------------------------------------------------------
# indexes
# ---------------------------------------------------------------------------


def write_ecu(path, series_list: list[EcuSeries], base_date, comments=()) -> None:
    """``base_date``: calendar day at offset 0 in the test window."""
    base = np.datetime64(base_date)
    fh, w = _open_writer(path, comments)
    with fh:
        w.writerow(ECU_HEADER)
        for s in sorted(series_list, key=lambda s: (s.group_type, s.group_key)):
            for off, val, tw, fc in zip(s.offsets, s.ecu, s.total_weight, s.firm_count):
                w.writerow([s.group_type, s.group_key, int(off), str(base + int(off) * DAY),
                            _fmt(val), _fmt(tw), int(fc)])


def write_srpi(path, series: SrpiSeries, base_date, comments=()) -> None:
    base = np.datetime64(base_date)
    fh, w = _open_writer(path, comments)
    with fh:
        w.writerow(SRPI_HEADER)
        for off, total, delta in zip(series.offsets, series.srpi, series.delta_srpi):
            w.writerow([int(off), str(base + int(off) * DAY), _fmt(total), _fmt(delta)])
