"""Daily consumption series preprocessing.

A panel's readings are one ``KwhPanel``: a firm x day grid of kWh, each
firm's id and group codes alongside.  ``preprocess_grid`` turns a block of its
rows into the deviation series consumed by the regime model: outlier
rejection, gap interpolation, trailing smoothing, base-point alignment of the
reference and test windows, and reference subtraction.  Each row's results are
bit for bit those of the per-series chain kept as the test oracle in
``tests/preprocess_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DAY = np.timedelta64(1, "D")


@dataclass(frozen=True)
class KwhPanel:
    """The daily kWh of a panel of firms on one firm x day grid.

    Row i of the C-ordered (firms, days) float64 ``kwh`` is firm ``firm_ids[i]``, the ids
    ascending; column j is day ``day0 + j``.  The firm's readings fill columns ``lo[i]:hi[i]``,
    NaN marking a blank one, and every consumer ignores the cells outside them.
    """

    firm_ids: list[str]
    sector_codes: list[str]
    district_codes: list[str]
    day0: np.datetime64
    lo: np.ndarray
    hi: np.ndarray
    kwh: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kwh", np.ascontiguousarray(self.kwh, dtype=float))
        lo, hi, kwh = self.lo, self.hi, self.kwh
        per_row = self.firm_ids, self.sector_codes, self.district_codes, lo, hi, kwh
        if kwh.ndim != 2 or len(set(map(len, per_row))) != 1 \
                or not np.all((0 <= lo) & (lo <= hi) & (hi <= kwh.shape[1])):
            raise ValueError("kwh must be a (firms, days) grid with one id, two codes and columns "
                             "lo:hi inside it per row")
        if any(a >= b for a, b in zip(self.firm_ids, self.firm_ids[1:])):
            raise ValueError("firm ids must ascend strictly")

    def __len__(self):
        return len(self.firm_ids)


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


def trailing_mean(values, window: int) -> np.ndarray:
    """Trailing mean over ``window`` entries; leading entries use all available ones."""
    v = np.asarray(values, dtype=float)
    c = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(len(v))
    lo = np.maximum(idx - window + 1, 0)
    return (c[idx + 1] - c[lo]) / (idx + 1 - lo)


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


def preprocess_grid(kwh, lo, hi, day0, ref_base, test_base, span: int = 95,
                    outlier_window: int = 15, outlier_k: float = 2.0, interp_window: int = 14,
                    smooth_window: int = 7):
    """Deviations and unsmoothed windows of a block of firms on one firm x day kWh grid.

    Row i of the (n, D) grid ``kwh`` holds a firm's series in columns ``lo[i]:hi[i]``, column j
    being day ``day0 + j`` (NaN: missing); other cells are ignored.  Each row takes the steps of
    the per-series chain in ``tests/preprocess_oracle.py`` with the same floating-point
    operations in the same order, so its results are bit for bit its series' alone.  Returns the
    (n, 2 * span + 1) arrays ``y``, ``ele_test`` and ``ele_ref`` and, per row, None or the
    message of the first step that refuses it (its rows are then meaningless).
    """
    if outlier_window < 3 or outlier_window % 2 == 0 or min(interp_window, smooth_window) < 1 \
            or span < 0:
        raise ValueError("outlier_window must be odd and >= 3, interp_window and smooth_window "
                         f">= 1, span >= 0; got {outlier_window}, {interp_window}, "
                         f"{smooth_window}, {span}")
    kwh, lo, hi = np.asarray(kwh, dtype=float), np.asarray(lo, np.intp), np.asarray(hi, np.intp)
    day0, ref_base, test_base = (np.datetime64(d, "D") for d in (day0, ref_base, test_base))
    if not kwh.shape[1]:  # no row has a day: one column outside them all keeps indexing valid
        kwh = np.full((len(kwh), 1), np.nan)
    n, days = kwh.shape
    rows, cols = np.arange(n), np.arange(days)
    inside = (cols >= lo[:, None]) & (cols < hi[:, None])

    # detect_outliers: cells outside a row add 0 and count 0 to its cumulative sums, so
    # windows clipped to the grid flag what windows clipped to the row flag; the shift is
    # one 1-D mean per row, since a masked 2-D mean would sum in another order
    finite = inside & np.isfinite(kwh)
    shift = np.array([np.mean(row[ok]) if ok.any() else 0.0 for row, ok in zip(kwh, finite)])
    x = np.where(finite, kwh - shift[:, None], 0.0)
    half = outlier_window // 2
    ends, starts = np.minimum(cols + half + 1, days), np.maximum(cols - half, 0)

    def window_sums(a):  # over each day's window, less the day itself
        c = np.zeros((n, days + 1))
        np.cumsum(a, axis=1, out=c[:, 1:])
        return c[:, ends] - c[:, starts] - a

    s, s2, m = window_sums(x), window_sums(x * x), window_sums(finite.astype(float))
    ok = finite & (m >= 2)
    mean = np.divide(s, m, out=np.zeros_like(s), where=ok)
    var = np.maximum(np.divide(s2 - m * mean * mean, m - 1, out=np.zeros_like(s), where=ok), 0.0)
    guard = 1e-9 * (np.abs(kwh) + np.abs(shift)[:, None] + 1.0)
    valid = finite & ~(ok & (np.abs(x - mean) > outlier_k * np.sqrt(var) + guard))
    del finite, x, s, s2, m, ok, mean, var, guard  # the grid's peak memory is one step's arrays

    # interpolate: a cell's sources are the row's last valid days before it, else its first
    # ones; cells with k sources are gathered into one (cells, k) matrix, whose mean along
    # axis 1 sums each row as the 1-D mean of its k sources does
    need = inside & ~valid
    n_valid = valid.sum(axis=1)
    r, c = np.nonzero(need)
    before = np.cumsum(valid, axis=1)[r, c]
    k = np.minimum(np.where(before > 0, before, n_valid[r]), interp_window)
    start = (np.cumsum(n_valid) - n_valid)[r] + np.where(before > 0, before - k, 0)
    sources, flat = np.flatnonzero(valid), kwh.ravel()
    clean = np.where(inside, kwh, -0.0)  # -0.0 + v is v, also for v = -0.0
    for width in np.unique(k[k > 0]):
        pick = k == width
        clean[r[pick], c[pick]] = flat[sources[start[pick, None] + np.arange(width)]].mean(axis=1)

    # smooth: a row's sums start from +0.0 on its first day, as its series' sums do
    csum = np.zeros((n, days + 1))
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
    missing = "clean series must not contain missing values"
    refusals = (  # in the order the per-series steps check, each message as they word it
        (length == 0, "cannot detect outliers in an empty series"),
        (need.any(axis=1) & (n_valid == 0),
         "nothing to interpolate from: series has no valid values"),
        (~np.isfinite(clean).all(axis=1), missing),
        (length < smooth_window,
         f"series length {{}} is shorter than the {smooth_window}-day window"),
        (~np.isfinite(csum[rows, hi]), missing),
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
