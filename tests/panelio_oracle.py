"""The row-at-a-time CSV readers and writers, kept as the test oracle.

``read_panel``, ``_read_rows``, ``write_panel``, ``write_ecu`` and
``write_srpi`` (with the helpers they call) are the package's
implementation from before the readers and writers
moved to whole columns, copied without change: every row goes through its
own Python calls.  The panel functions take and return per-firm records
(``firm_records.FirmRecord``), which tests compare with the package's grid
rows.  Tests require the package to write the same bytes, read
back the same arrays and raise the same messages, except on the input the
package now rejects and this code accepted: dates not written YYYY-MM-DD,
non-finite kWh text and ``#`` lines after the header.
"""

import csv
import math
from pathlib import Path

import numpy as np

from ecuindex.ecu import EcuSeries, SrpiSeries
from ecuindex.panelio import DAY, ECU_HEADER, PANEL_HEADER, SRPI_HEADER
from ecuindex.preprocess import RawSeries
from firm_records import FirmRecord


def _fmt(x) -> str:
    x = float(x)
    return "" if math.isnan(x) else repr(x)


def _parse_float(field: str) -> float:
    return np.nan if field == "" else float(field)


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
            series = RawSeries(dates, values)
        except ValueError as exc:
            raise ValueError(f"{path}: firm {firm_id}: {exc}") from None
        out.append(FirmRecord(firm_id, *meta[firm_id], series))
    return out


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
