"""Daily consumption series preprocessing.

A panel's readings are one ``KwhPanel``: a firm x day grid of kWh, each
firm's id and group codes alongside.  ``preprocess_grid`` turns a block of its
rows into the deviation series consumed by the regime model: outlier
rejection, gap interpolation, trailing smoothing, base-point alignment of the
reference and test windows, and reference subtraction, with a ``RunConfig``'s
settings.  Each row's results are bit for bit those of the per-series chain
kept as the test oracle in ``tests/preprocess_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DAY


@dataclass(frozen=True)
class KwhPanel:
    """The daily kWh of a panel of firms on one firm x day grid.

    Row i of the C-ordered (firms, days) float64 ``kwh`` is firm ``firm_ids[i]``, the ids
    ascending; column j is day ``day0 + j``.  The firm's readings fill columns ``lo[i]:hi[i]``,
    NaN marking a blank one, and every consumer ignores the cells outside them.  ``lo`` and
    ``hi`` must hold integers and are stored as intp arrays, ``day0`` as a ``datetime64[D]``.
    """

    firm_ids: list[str]
    sector_codes: list[str]
    district_codes: list[str]
    day0: np.datetime64
    lo: np.ndarray
    hi: np.ndarray
    kwh: np.ndarray

    def __post_init__(self):
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        if any(a.size and a.dtype.kind not in "iu" for a in (lo, hi)):
            raise ValueError("lo and hi must be integer column indexes")
        lo, hi = lo.astype(np.intp), hi.astype(np.intp)
        kwh = np.ascontiguousarray(self.kwh, dtype=float)
        for name, value in (("day0", np.datetime64(self.day0, "D")), ("lo", lo), ("hi", hi),
                            ("kwh", kwh)):
            object.__setattr__(self, name, value)
        per_row = self.firm_ids, self.sector_codes, self.district_codes, lo, hi, kwh
        if kwh.ndim != 2 or len(set(map(len, per_row))) != 1 \
                or not np.all((0 <= lo) & (lo <= hi) & (hi <= kwh.shape[1])):
            raise ValueError("kwh must be a (firms, days) grid with one id, two codes and columns "
                             "lo:hi inside it per row")
        if any(a >= b for a, b in zip(self.firm_ids, self.firm_ids[1:])):
            raise ValueError("firm ids must ascend strictly")

    def __len__(self):
        return len(self.firm_ids)

    def __getitem__(self, rows: slice) -> KwhPanel:
        """The panel of a slice of the rows, its grid a view of this one's."""
        return KwhPanel(self.firm_ids[rows], self.sector_codes[rows], self.district_codes[rows],
                        self.day0, self.lo[rows], self.hi[rows], self.kwh[rows])


def firm_rng(seed: int, firm_id: str, *stream: int) -> np.random.Generator:
    """One firm's random stream, keyed by the root seed, the stream tags and a hash
    of the id, so neither firm order nor worker count can change a draw."""
    import hashlib  # loads OpenSSL: only simulate and multi-start fits draw a firm's stream

    digest = hashlib.sha256(firm_id.encode()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, *stream, int.from_bytes(digest[:8], "big")]))


@dataclass(frozen=True)
class DeviationSeries:
    """Smoothed test minus smoothed reference, indexed by offset from the base point."""

    offsets: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=int))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if len(self.offsets) != len(self.y):
            raise ValueError("offsets and y must have equal length")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("deviation series must be finite")

    def __len__(self):
        return len(self.y)


def _coverage_gap(first, last, base: np.datetime64, span: int, label: str) -> str | None:
    """Why a series from ``first`` to ``last`` cannot give the window around ``base``, or None."""
    need_lo, need_hi = base - span * DAY, base + span * DAY
    gaps = []
    if need_lo < first:
        gaps.append(f"{need_lo}..{min(need_hi, first - DAY)}")
    if need_hi > last:
        gaps.append(f"{max(need_lo, last + DAY)}..{need_hi}")
    if gaps:
        return f"{label} series does not cover {need_lo}..{need_hi}: missing {', '.join(gaps)}"
    return None


def preprocess_grid(block: KwhPanel, cfg):
    """Deviations and unsmoothed windows of a block of a panel's rows, under the settings of
    ``cfg``, a ``RunConfig`` (any object with its fields will do).

    Each row takes the steps of the per-series chain in ``tests/preprocess_oracle.py`` with the
    same floating-point operations in the same order, so its results are bit for bit its
    series' alone.  Returns the (n, 2 * span + 1) arrays ``y``, ``ele_test`` and ``ele_ref``
    and, per row, None or the message of the first step that refuses it (its rows are then
    meaningless).
    """
    kwh, lo, hi, day0 = block.kwh, block.lo, block.hi, block.day0
    span, smooth_window = cfg.span, cfg.smooth_window
    ref_base, test_base = np.datetime64(cfg.ref_base, "D"), np.datetime64(cfg.test_base, "D")
    if not kwh.shape[1]:  # no row has a day: one column outside them all keeps indexing valid
        kwh = np.full((len(kwh), 1), np.nan)
    n, days = kwh.shape
    rows, cols = np.arange(n), np.arange(days)
    inside = (cols >= lo[:, None]) & (cols < hi[:, None])

    # detect_outliers: cells outside a row add 0 and count 0 to its cumulative sums, so
    # windows clipped to the grid flag what windows clipped to the row flag; the shift is
    # one 1-D mean per row, since a masked 2-D mean would sum in another order
    finite = inside & np.isfinite(kwh)
    half = cfg.outlier_window // 2
    ends, starts = np.minimum(cols + half + 1, days), np.maximum(cols - half, 0)

    def window_sums(a):  # over each day's window, less the day itself
        c = np.zeros((n, days + 1))
        np.cumsum(a, axis=1, out=c[:, 1:])
        return c[:, ends] - c[:, starts] - a

    with np.errstate(over="ignore", invalid="ignore"):  # a row whose sums overflow is refused
        shift = np.array([np.mean(row[ok]) if ok.any() else 0.0 for row, ok in zip(kwh, finite)])
        x = np.where(finite, kwh - shift[:, None], 0.0)
        s, s2, m = window_sums(x), window_sums(x * x), window_sums(finite.astype(float))
        overflow = ~np.isfinite(s2).all(axis=1)
        ok = finite & (m >= 2)
        mean = np.divide(s, m, out=np.zeros_like(s), where=ok)
        var = np.maximum(np.divide(s2 - m * mean * mean, m - 1, out=np.zeros_like(s), where=ok),
                         0.0)
        guard = 1e-9 * (np.abs(kwh) + np.abs(shift)[:, None] + 1.0)
        valid = finite & ~(ok & (np.abs(x - mean) > cfg.outlier_k * np.sqrt(var) + guard))
    del finite, x, s, s2, m, ok, mean, var, guard  # the grid's peak memory is one step's arrays

    # interpolate: a cell's sources are the row's last valid days before it, else its first
    # ones; cells with k sources are gathered into one (cells, k) matrix, whose mean along
    # axis 1 sums each row as the 1-D mean of its k sources does
    need = inside & ~valid
    n_valid = valid.sum(axis=1)
    r, c = np.nonzero(need)
    before = np.cumsum(valid, axis=1)[r, c]
    k = np.minimum(np.where(before > 0, before, n_valid[r]), cfg.interp_window)
    start = (np.cumsum(n_valid) - n_valid)[r] + np.where(before > 0, before - k, 0)
    sources, flat = np.flatnonzero(valid), kwh.ravel()
    clean = np.where(inside, kwh, -0.0)  # -0.0 + v is v, also for v = -0.0
    for width in np.flatnonzero(np.bincount(k[k > 0])):  # np.unique would import numpy.ma
        pick = k == width
        clean[r[pick], c[pick]] = flat[sources[start[pick, None] + np.arange(width)]].mean(axis=1)

    # smooth: a row's sums start from +0.0 on its first day, as its series' sums do
    csum = np.zeros((n, days + 1))
    with np.errstate(over="ignore"):  # a row whose running sum overflows is refused
        np.cumsum(clean, axis=1, out=csum[:, 1:])
    csum[rows, lo] = 0.0

    def window(base):  # smoothed and clean values; clipped columns serve refused rows only
        col = np.clip(int((base - day0) / DAY) + np.arange(-span, span + 1), 0, days - 1)
        begin = np.clip(col - smooth_window + 1, lo[:, None], col)
        smoothed = (csum[rows[:, None], col + 1] - csum[rows[:, None], begin]) / (col + 1 - begin)
        return smoothed, clean[:, col]

    with np.errstate(invalid="ignore"):  # only the sums of a row refused below can hold inf
        smooth_ref, ele_ref = window(ref_base)
        smooth_test, ele_test = window(test_base)
        y = smooth_test - smooth_ref

    length = hi - lo
    refusals = (  # the per-series steps' checks in their order and words, then an overflow
        (length == 0, "cannot detect outliers in an empty series"),
        (need.any(axis=1) & (n_valid == 0),
         "nothing to interpolate from: series has no valid values"),
        (~np.isfinite(clean).all(axis=1), "clean series must not contain missing values"),
        (length < smooth_window,
         f"series length {{}} is shorter than the {smooth_window}-day window"),
        (~np.isfinite(csum[rows, hi]), "kWh readings too large: the smoothing sums overflow"),
        (overflow, "kWh readings too large: the outlier windows' sums of squares overflow"),
    )
    errors = [None] * n
    for refused, message in refusals:
        for i in np.flatnonzero(refused):
            errors[i] = errors[i] or message.format(length[i])
    for base, label in ((ref_base, "reference"), (test_base, "test")):
        at = int((base - day0) / DAY)
        for i in np.flatnonzero((lo > at - span) | (hi <= at + span)):
            errors[i] = errors[i] or _coverage_gap(day0 + lo[i] * DAY, day0 + (hi[i] - 1) * DAY,
                                                   base, span, label)
    return y, ele_test, ele_ref, errors
