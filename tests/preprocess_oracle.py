"""The per-series preprocessing chain, kept as the test oracle.

The steps and types below are the package's per-series implementation from
before the fit preprocessed firms in blocks on a firm x day grid, copied
without change: ``RawSeries`` → ``detect_outliers`` → ``interpolate`` →
``CleanSeries`` → ``smooth`` → ``align`` (``AlignedPair``) → ``deviation``.
``preprocess_firm`` takes one firm's series through them, smoothed and
clean.  Tests require the package's ``preprocess_grid`` to give the same
deviation and windows bit for bit, and the same message for a firm it
refuses.
"""

from dataclasses import dataclass

import numpy as np

from ecuindex.preprocess import DAY, DeviationSeries, _coverage_gap, trailing_mean


def _as_dates(dates) -> np.ndarray:
    return np.asarray(dates, dtype="datetime64[D]")


def _check_daily(dates: np.ndarray) -> None:
    if len(dates) > 1 and not np.all(np.diff(dates) == DAY):
        raise ValueError("dates must be strictly increasing with a one-day step")


@dataclass(frozen=True)
class RawSeries:
    """One firm's daily kWh series; NaN marks a missing day."""

    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", _as_dates(self.dates))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        _check_daily(self.dates)
        finite = np.isfinite(self.values)
        if np.any(self.values[finite] < 0):
            raise ValueError("kWh values must be non-negative")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class CleanSeries:
    """A fully populated daily kWh series (post-interpolation)."""

    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", _as_dates(self.dates))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        _check_daily(self.dates)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("clean series must not contain missing values")
        if np.any(self.values < 0):
            raise ValueError("kWh values must be non-negative")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class AlignedPair:
    """Reference and test windows reindexed to offsets around their base points."""

    offsets: np.ndarray
    reference: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=int))
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=float))
        object.__setattr__(self, "test", np.asarray(self.test, dtype=float))
        n = len(self.offsets)
        if len(self.reference) != n or len(self.test) != n:
            raise ValueError("offsets, reference and test must have equal length")
        span = (n - 1) // 2
        if n % 2 == 0 or not np.array_equal(self.offsets, np.arange(-span, span + 1)):
            raise ValueError("offsets must run -span..+span, symmetric about 0")
        if not (np.all(np.isfinite(self.reference)) and np.all(np.isfinite(self.test))):
            raise ValueError("aligned windows must be fully populated")

    @property
    def span(self) -> int:
        return (len(self.offsets) - 1) // 2


def detect_outliers(series: RawSeries, window_days: int = 15, k: float = 2.0) -> np.ndarray:
    """Flag days whose value strays more than ``k`` sample stds from the
    mean of a centered window.

    The window spans ``window_days`` days centered on the candidate,
    truncated at the series boundaries; its mean and std are computed over
    the non-missing neighbors *excluding* the candidate itself.  Days with
    fewer than two such neighbors, and missing days, are never flagged.

    Returns a boolean mask, True where flagged.
    """
    if len(series) == 0:
        raise ValueError("cannot detect outliers in an empty series")
    if window_days < 3 or window_days % 2 == 0:
        raise ValueError("window_days must be odd and >= 3")

    v = series.values
    n = len(v)
    half = window_days // 2
    finite = np.isfinite(v)
    if not finite.any():
        return np.zeros(n, dtype=bool)

    # center on the global mean so constant stretches cancel exactly in the
    # cumulative sums instead of leaving rounding noise that the variance
    # clip below would turn into spurious flags
    shift = float(np.mean(v[finite]))
    x = np.where(finite, v - shift, 0.0)
    cnt = finite.astype(float)
    cs = np.concatenate(([0.0], np.cumsum(x)))
    cs2 = np.concatenate(([0.0], np.cumsum(x * x)))
    cn = np.concatenate(([0.0], np.cumsum(cnt)))

    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    # window aggregates minus the candidate day's own contribution
    s = cs[hi] - cs[lo] - x
    s2 = cs2[hi] - cs2[lo] - x * x
    m = cn[hi] - cn[lo] - cnt

    mask = np.zeros(n, dtype=bool)
    ok = finite & (m >= 2)
    mean = np.divide(s, m, out=np.zeros(n), where=ok)
    var = np.divide(s2 - m * mean * mean, m - 1, out=np.zeros(n), where=ok)
    var = np.maximum(var, 0.0)
    # absolute guard: deviations at rounding scale are never outliers
    guard = 1e-9 * (np.abs(v[ok]) + np.abs(shift) + 1.0)
    mask[ok] = np.abs(x[ok] - mean[ok]) > k * np.sqrt(var[ok]) + guard
    return mask


def interpolate(series, outlier_mask: np.ndarray | None = None, window: int = 14) -> CleanSeries:
    """Replace missing and flagged days by the mean of the trailing valid days.

    Valid days are non-missing and unflagged in the input.  Up to ``window``
    valid days preceding ``t`` feed the mean; when none precede it, the
    leading ``window`` valid days after ``t`` are used instead.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    v = np.asarray(series.values, dtype=float)
    n = len(v)
    if outlier_mask is None:
        outlier_mask = np.zeros(n, dtype=bool)
    outlier_mask = np.asarray(outlier_mask, dtype=bool)
    if len(outlier_mask) != n:
        raise ValueError("outlier mask length must match the series")

    valid = np.isfinite(v) & ~outlier_mask
    valid_idx = np.flatnonzero(valid)
    need = np.flatnonzero(~valid)
    if need.size and valid_idx.size == 0:
        raise ValueError("nothing to interpolate from: series has no valid values")

    out = v.copy()
    for t in need:
        pos = np.searchsorted(valid_idx, t)
        prior = valid_idx[max(0, pos - window):pos]
        source = prior if prior.size else valid_idx[pos:pos + window]
        out[t] = v[source].mean()
    return CleanSeries(series.dates, out)


def smooth(series: CleanSeries, window_days: int = 7) -> CleanSeries:
    """Trailing ``window_days``-day mean of a clean series (no lookahead)."""
    if len(series) == 0:
        raise ValueError("cannot smooth an empty series")
    if len(series) < window_days:
        raise ValueError(f"series length {len(series)} is shorter than the {window_days}-day window")
    return CleanSeries(series.dates, trailing_mean(series.values, window_days))


def _window_slice(series: CleanSeries, base: np.datetime64, span: int, label: str) -> np.ndarray:
    base = np.datetime64(base, "D")
    gap = _coverage_gap(series.dates[0], series.dates[-1], base, span, label)
    if gap:
        raise ValueError(gap)
    i = int((base - series.dates[0]) / DAY)
    return series.values[i - span:i + span + 1]


def align(series: CleanSeries, ref_base: np.datetime64, test_base: np.datetime64,
          span: int = 95) -> AlignedPair:
    """Cut the reference and test windows, offsets -span..+span around their base dates.

    Offset 0 is the base point in each calendar, so a movable holiday sits at
    the same offsets in both windows.  Raises if the series does not cover
    either window, naming the missing date range.
    """
    if span < 0:
        raise ValueError("span must be >= 0")
    ref_win = _window_slice(series, ref_base, span, "reference")
    test_win = _window_slice(series, test_base, span, "test")
    return AlignedPair(np.arange(-span, span + 1), ref_win, test_win)


def deviation(pair: AlignedPair) -> DeviationSeries:
    """Per-offset difference: test minus reference."""
    return DeviationSeries(pair.offsets, pair.test - pair.reference)


def preprocess_firm(record, cfg) -> tuple[DeviationSeries, AlignedPair]:
    """A ``FirmRecord``'s deviation series plus its aligned *unsmoothed* consumption windows.

    Raises ValueError when the series cannot cover both windows; the caller
    decides whether that skips the firm or aborts the run.
    """
    mask = detect_outliers(record.series, cfg.outlier_window, cfg.outlier_k)
    clean = interpolate(record.series, mask, cfg.interp_window)
    smoothed = smooth(clean, cfg.smooth_window)
    ref_base = np.datetime64(cfg.ref_base)
    test_base = np.datetime64(cfg.test_base)
    pair = align(smoothed, ref_base, test_base, cfg.span)
    raw_pair = align(clean, ref_base, test_base, cfg.span)
    return deviation(pair), raw_pair
