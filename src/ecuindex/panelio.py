"""File interchange: the one module that reads and writes the package's files.

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
accepts.  The fit's firm-day values go to ``index`` as a binary array instead,
``firmdays.npy``; it and ``models.csv`` are one ``FitOutputs`` on disk.  The array is
read a layer at a time, each checked, and only the layers a stage names are kept.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import _SIMPLEX_TOL, DAY, MODEL_COLUMNS, check_date
from .ecu import EcuSeries, FirmDayPanel, SrpiSeries, column_fsums

if TYPE_CHECKING:
    from .preprocess import KwhPanel

PANEL_HEADER = ["firm_id", "date", "kwh", "sector_code", "district_code"]
MODELS_HEADER = ["firm_id", "sector_code", "district_code", *MODEL_COLUMNS, "loglik",
                 "converged", "degenerate"]
ECU_HEADER = ["group_type", "group_key", "offset", "date", "ecu", "total_weight", "firm_count"]
SRPI_HEADER = ["offset", "date", "srpi", "delta_srpi"]
REPORT_HEADER = ["offset", "date", "y", "mu_p", "mu_r"]
CODE_MAP_HEADER = ["code", "name"]
FIRMDAY_LAYERS = ("y", "mu_p", "mu_r", "ele_test", "ele_ref")  # firmdays.npy, axis 0

BLOCK_ROWS = 2048  # rows a CSV reader or write_models holds as text, or firmdays.npy reads, at once
_NEEDS_QUOTES = frozenset(',"\r\n')  # csv.writer quotes a field holding one, doubling its quotes


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
    from .preprocess import KwhPanel  # only a stage that reads a panel loads preprocess
    index: dict[str, int] = {}  # firm id -> grid row, in first-seen order
    codes: dict[str, tuple[str, str]] = {}
    shared: dict[str, str] = {}  # a code's text -> its first string, which every firm shares
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
            pair = shared.setdefault(sector, sector), shared.setdefault(district, district)
            if codes.setdefault(firm_id, pair) != pair:
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
# the fit's outputs: models.csv and firmdays.npy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitOutputs:
    """The fit's product as one table, built from its results or read back from its files.

    Row k of each field is the k-th firm in id order: ``firm_ids``, ``sector_codes`` and
    ``district_codes`` are lists, ``models`` is the (firms, 13) float64 array of the numbers
    of ``models.csv`` in ``MODELS_HEADER[3:-2]`` order, ``converged`` and ``degenerate`` are
    bool arrays, and ``firmdays`` is the (5, firms, T) float64 array of the firms'
    ``FIRMDAY_LAYERS``, column j for offset ``j - T // 2``; read back with fewer layers, it is
    a tuple of the five (firms, T) layers, None for each layer not read.
    """

    firm_ids: list[str]
    sector_codes: list[str]
    district_codes: list[str]
    models: np.ndarray
    converged: np.ndarray
    degenerate: np.ndarray
    firmdays: np.ndarray | tuple

    @functools.cached_property
    def panel(self) -> FirmDayPanel:
        """The panel the index stage aggregates; ``ele`` is the ``ele_test`` layer itself.

        A degenerate fit cannot distinguish its regimes, so its recessionary probabilities are
        zeroed (the audit flag stays in the models): in place in a layer read on its own, and in
        a copy of a layer of the whole array, which stays as fitted.
        """
        _, _, mu_r, ele_test, _ = self.firmdays
        mu_r = mu_r.copy() if isinstance(self.firmdays, np.ndarray) else mu_r
        mu_r[self.degenerate] = 0.0
        days = ele_test.shape[1]
        return FirmDayPanel(np.arange(days) - days // 2, ele_test, mu_r,
                            self.sector_codes, self.district_codes)

    @functools.cached_property
    def reference_totals(self) -> np.ndarray:
        """Exact sums of the ``ele_ref`` layer per offset, along ``panel.offsets``: the sRPI
        baseline."""
        *_, ele_ref = self.firmdays
        return column_fsums(ele_ref)


def write_models(path, firm_ids, sector_codes, district_codes, models, converged, degenerate,
                 comments=()) -> None:
    """A ``FitOutputs`` table's columns as ``models.csv`` rows in their order, ``BLOCK_ROWS``
    rows at a time.  Columns of unequal length, a text field longer than the CSV reader's
    limit and a non-finite number, which ``read_models`` would refuse, are refused first."""
    texts = firm_ids, sector_codes, district_codes
    if (len({*map(len, (*texts, converged, degenerate))}) > 1
            or np.shape(models) != (len(firm_ids), len(MODELS_HEADER[3:-2]))):
        raise ValueError(f"{path}: the columns of the models table differ in length")
    limit = csv.field_size_limit()
    for k, fields in enumerate(zip(*texts)):
        for name, field in zip(MODELS_HEADER, fields):
            if len(field) > limit:
                raise ValueError(f"{path} data row {k + 1}, column {name}: a field of "
                                 f"{len(field)} characters is longer than the CSV reader's "
                                 f"limit of {limit}")
    bad = ~np.isfinite(models)
    if bad.any():  # read_models would refuse it
        k, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"{path} data row {k + 1}, column {MODELS_HEADER[3 + j]}: "
                         f"{models[k, j]} is not finite")
    _write_csv(path, MODELS_HEADER, ([
        *(_quoted(column[at:at + BLOCK_ROWS]) for column in texts),
        *map(_fmt_column, models[at:at + BLOCK_ROWS].T),
        *(["true" if x else "false" for x in flags[at:at + BLOCK_ROWS].tolist()]
          for flags in (converged, degenerate))]
        for at in range(0, len(models), BLOCK_ROWS)), comments)


def _models_block(columns) -> np.ndarray | None:
    """A block's numbers and flags (n, 15) parsed a column at a time, or None if a field is
    unreadable or a model one ``RegimeModel`` refuses, decided by its IEEE operations: sigmas
    above 0, q's rows and pi0 in [0, 1] summing to 1 within ``_SIMPLEX_TOL``."""
    flags = [columns[name] for name in MODELS_HEADER[-2:]]
    try:
        numbers = np.array([columns[name] for name in MODELS_HEADER[3:-2]], dtype=float)
    except ValueError:
        return None
    probs = numbers[6:12]
    if (np.isfinite(numbers).all() and (numbers[[2, 5]] > 0.0).all()
            and ((probs >= 0.0) & (probs <= 1.0)).all()  # so that the sums cannot overflow
            and (abs(probs[::2] + probs[1::2] - 1.0) <= _SIMPLEX_TOL).all()
            and all(f.count("true") + f.count("false") == len(f) for f in flags)):
        return np.vstack([numbers, *(np.array(f) == "true" for f in flags)]).T
    return None


def read_models(path) -> tuple:
    """The columns of a ``FitOutputs`` table, ``firmdays`` aside, in file order.  A block is
    parsed and checked a column at a time.  A block with a fault is read again a row at a time:
    a row's fields in header order (numbers must be finite), then its firm must be new and its
    model one ``RegimeModel`` accepts; the first faulty data row is named."""
    texts, seen = ([], [], []), set()  # firm ids, sector and district codes
    shared: dict[str, str] = {}  # a code's text -> its first string, which every firm shares
    blocks = [np.empty((0, len(_MODEL_FIELDS)))]  # per block its rows' numbers and flags
    for first, columns in _blocks(path, MODELS_HEADER):
        ids = set(columns["firm_id"])
        block = _models_block(columns)
        if block is None or len(ids) < len(columns["firm_id"]) or not seen.isdisjoint(ids):
            from .hmm import RegimeModel  # only a block with a fault loads the model, to name it
            block = []
            for n, (firm_id, _, _, *fields) in enumerate(zip(*columns.values()), first):
                block.append(_typed(path, n, _MODEL_FIELDS, fields))
                if firm_id in seen:
                    raise ValueError(f"{path} data row {n}: firm {firm_id} already has a row")
                seen.add(firm_id)
                try:
                    RegimeModel.from_numbers(block[-1])
                except ValueError as exc:
                    raise ValueError(f"{path} data row {n}: firm {firm_id}: {exc}") from None
            block = np.array(block, dtype=float).reshape(-1, len(_MODEL_FIELDS))
        seen |= ids
        for text, name in zip(texts, MODELS_HEADER):
            column = columns[name]
            text += column if name == "firm_id" else map(shared.setdefault, column, column)
        blocks.append(block)
    table = np.concatenate(blocks)
    return *texts, table[:, :-2].copy(), table[:, -2] == 1.0, table[:, -1] == 1.0


def _check_ids(path, firm_ids: list[str]) -> None:
    """Refuse firm ids that do not ascend strictly: array rows are matched to firms by position."""
    late = next((k for k in range(1, len(firm_ids)) if firm_ids[k] <= firm_ids[k - 1]), None)
    if late is not None:
        raise ValueError(f"{path} data row {late + 1}: firm {firm_ids[late]} comes after "
                         f"{firm_ids[late - 1]}; firm ids must ascend")


def _check_layers(path, firm_ids: list[str], dtype, shape: tuple, layers=(), fh=None) -> None:
    """Refuse an array of ``dtype`` and ``shape`` that is not the native float64 (5, firms, T)
    array of ``firm_ids`` with T odd, then the first value of its ``layers`` that is not finite,
    then the first probability outside [0, 1] or negative kWh, in (layer, firm, offset) order.
    ``BLOCK_ROWS`` firms are checked at a time, read from ``fh`` if given, a None layer's into
    one buffer."""
    want = np.dtype(float)  # native byte order
    if dtype != want or len(shape) != 3 or shape[0] != len(FIRMDAY_LAYERS):
        raise ValueError(f"{path} holds a {dtype.str} array of shape {shape}; "
                         f"expected {want.str} of shape ({len(FIRMDAY_LAYERS)}, firms, days)")
    firms, days = shape[1:]
    if firms != len(firm_ids):
        raise ValueError(f"{path} has {firms} firm rows but models.csv has {len(firm_ids)}")
    if days % 2 == 0:
        raise ValueError(f"{path} has {days} days per firm; offsets -span..span need an odd count")
    rules = (("firm-day values must be finite", FIRMDAY_LAYERS, np.isfinite),
             ("probabilities must lie in [0, 1]", ("mu_p", "mu_r"), lambda v: (v >= 0) & (v <= 1)),
             ("kWh must not be negative", ("ele_test", "ele_ref"), lambda v: v >= 0.0))
    faults = {}  # rule -> its first fault, in reading order: (layer, firm, day, value)
    buffer = np.empty((min(firms, BLOCK_ROWS) if fh else 0, days))  # for a layer not kept
    for layer, values in enumerate(layers):
        for at in range(0, firms, BLOCK_ROWS):
            block = buffer[:firms - at] if values is None else values[at:at + BLOCK_ROWS]
            if fh is not None:
                fh.readinto(block)
            for rule, (_, checked, allowed) in enumerate(rules):
                if rule not in faults and FIRMDAY_LAYERS[layer] in checked:
                    ok = allowed(block)
                    if not ok.all():
                        firm, day = np.unravel_index(np.argmin(ok), ok.shape)
                        faults[rule] = layer, at + firm, day, block[firm, day]
    if faults:
        rule, (layer, firm, day, value) = min(faults.items())
        raise ValueError(f"{path}: column {FIRMDAY_LAYERS[layer]} of firm {firm_ids[firm]} is "
                         f"{value} at offset {day - days // 2}; {rules[rule][0]}")


def write_fit_outputs(directory, fit: FitOutputs, comments=()) -> None:
    """Write ``models.csv`` and ``firmdays.npy`` into ``directory``; a fit read back with fewer
    layers, or a pair ``read_fit_outputs`` would refuse, such as models out of id order, is
    refused before either file is written."""
    directory = Path(directory)
    unread = [name for name, layer in zip(FIRMDAY_LAYERS, fit.firmdays) if layer is None]
    if unread:
        raise ValueError(f"{directory / 'firmdays.npy'}: layers {', '.join(unread)} were not "
                         "read back, so the fit cannot be written")
    _check_ids(directory / "models.csv", fit.firm_ids)
    layers = fit.firmdays
    _check_layers(directory / "firmdays.npy", fit.firm_ids, layers.dtype, layers.shape, layers)
    write_models(directory / "models.csv", fit.firm_ids, fit.sector_codes, fit.district_codes,
                 fit.models, fit.converged, fit.degenerate, comments)
    np.save(directory / "firmdays.npy", fit.firmdays)


def read_fit_outputs(directory, layers=FIRMDAY_LAYERS) -> FitOutputs:
    """Load ``models.csv`` and the named ``layers`` of ``firmdays.npy``, as the fit wrote them.

    ``firmdays.npy`` is one C-ordered native float64 array of shape (5, firms, T), in ``.npy``
    format 1.0 or 2.0: the ``FIRMDAY_LAYERS`` of each firm, row k for the k-th firm of
    ``models.csv``, and T odd for the offsets ``-(T // 2)..T // 2``.  A layer kept is read
    straight into its own array (all five into one), any other a block at a time into one
    buffer, and every layer is checked.  Rows are matched to firms by position, so the firm ids of
    ``models.csv`` must ascend strictly.  A repeated firm in ``models.csv``, a file that is
    not such an array or holds less data than its header names, another row count than
    ``models.csv``, an even T, a non-finite value, a ``mu_p`` or ``mu_r`` outside [0, 1] and a
    negative ``ele_test`` or ``ele_ref`` are refused.  The shape leaves no room for a repeated
    or missing firm-day.  Every field equals bit for bit that of the ``FitOutputs`` the files
    were written from, and so do the panel and reference totals.
    """
    directory = Path(directory)
    for name in ("models.csv", "firmdays.npy"):
        if not (directory / name).exists():
            raise FileNotFoundError(f"missing fit output {directory / name}; "
                                    "run the fit command first")
    path = directory / "models.csv"
    table = read_models(path)
    _check_ids(path, table[0])
    path, fmt = directory / "firmdays.npy", np.lib.format
    with open(path, "rb") as fh:
        try:
            version = fmt.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"format version {version} is not read")
            shape, fortran_order, dtype = (fmt.read_array_header_1_0 if version == (1, 0)
                                           else fmt.read_array_header_2_0)(fh)
            if (fortran_order or dtype.hasobject or min(shape, default=0) < 0
                    or path.stat().st_size - fh.tell() < math.prod(shape) * dtype.itemsize):
                raise ValueError(f"no C-ordered {shape} array of {dtype.str} numbers follows")
        except ValueError as exc:
            raise ValueError(f"{path} is not a readable .npy file: {exc}") from None
        _check_layers(path, table[0], dtype, shape)  # before any array is allocated
        whole = np.empty(shape) if set(FIRMDAY_LAYERS) <= set(layers) else None
        read = list(whole) if whole is not None else [
            np.empty(shape[1:]) if name in layers else None for name in FIRMDAY_LAYERS]
        _check_layers(path, table[0], dtype, shape, read, fh)  # each layer read as it is checked
    return FitOutputs(*table, tuple(read) if whole is None else whole)


def read_code_map(path) -> set[str]:
    """The codes of a ``code,name`` file; the names are not used."""
    return {code for _, columns in _blocks(path, CODE_MAP_HEADER) for code in columns["code"]}


# ---------------------------------------------------------------------------
# indexes
# ---------------------------------------------------------------------------


def write_ecu(path, series_list: list[EcuSeries], base_date, comments=()) -> None:
    """``base_date``: calendar day at offset 0 in the test window."""
    base = np.datetime64(base_date)
    days = {s.offsets.tobytes(): s.offsets for s in series_list}  # the series share offsets
    days = {key: (list(map(str, offsets.tolist())), (base + offsets * DAY).astype(str).tolist())
            for key, offsets in days.items()}  # offset and date fields, once per distinct offsets
    _write_csv(path, ECU_HEADER, (
        (s.group_type, s.group_key, *days[s.offsets.tobytes()], _fmt_column(s.ecu),
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
