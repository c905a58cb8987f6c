"""Preprocessing: the panel type, each step of ``preprocess_grid`` seen on one grid row, and
the steps of the per-series oracle whose intermediates (the outlier mask, the series types) no
grid row shows."""

import warnings

import numpy as np
import pytest

from ecuindex.preprocess import KwhPanel, preprocess_grid, trailing_mean
from preprocess_oracle import AlignedPair, RawSeries, detect_outliers

DAY0 = np.datetime64("2019-01-01")
UNFLAGGED = 1e300  # an outlier_k no reading strays beyond: rows are taken as clean


def raw(values):
    return RawSeries(DAY0 + np.arange(len(values)), values)


def grid_row(values, ref, test, span, start=DAY0, outlier_k=UNFLAGGED, **settings):
    """One firm's row through ``preprocess_grid``, its first day ``start``: (y, ele_test,
    ele_ref), or the row's refusal raised as a ValueError."""
    values = np.asarray(values, dtype=float)
    y, ele_test, ele_ref, (error,) = preprocess_grid(
        values[None], [0], [len(values)], start, ref, test, span, outlier_k=outlier_k, **settings)
    if error is not None:
        raise ValueError(error)
    return y[0], ele_test[0], ele_ref[0]


def cleaned(values, **settings):
    """The row after interpolation: its reference window covers every day but the last of an
    even count, its test window every day but the first."""
    n = len(values)
    span = (n - 1) // 2
    _, ele_test, ele_ref = grid_row(values, DAY0 + span, DAY0 + n - 1 - span, span, **settings)
    return np.r_[ele_ref, ele_test[2 * span + 1 - (n - 2 * span - 1):]]


def smoothed(values, smooth_window=7):
    """The smoothed row (an odd count of days): the deviation of a test window over it from a
    reference window over zeros appended to it, where no smoothing window reaches back."""
    n, span = len(values), len(values) // 2
    row = np.r_[values, np.zeros(smooth_window - 1 + n)]
    ref = DAY0 + n + smooth_window - 1 + span
    return grid_row(row, ref, DAY0 + span, span, smooth_window=smooth_window)[0]


class TestKwhPanel:
    def panel(self, firm_ids=("A", "B"), lo=(0, 1), hi=(3, 2), kwh=None, codes=("101", "301")):
        kwh = np.arange(6.0).reshape(2, 3) if kwh is None else kwh
        return KwhPanel(list(firm_ids), list(codes), ["D01", "D02"], np.datetime64("2019-01-01"),
                        np.array(lo), np.array(hi), kwh)

    def test_grid_is_c_ordered_float64(self):
        panel = self.panel(kwh=np.arange(12).reshape(3, 4).T[:2, :3])
        assert panel.kwh.dtype == np.float64 and panel.kwh.flags.c_contiguous
        assert len(panel) == 2

    @pytest.mark.parametrize("change,message", [
        ({"firm_ids": ("B", "A")}, "firm ids must ascend strictly"),
        ({"firm_ids": ("A", "A")}, "firm ids must ascend strictly"),
        ({"codes": ("101",)}, "one id, two codes and columns lo:hi inside it per row"),
        ({"lo": (0,), "hi": (3,)}, "one id, two codes and columns lo:hi inside it per row"),
        ({"hi": (4, 2)}, "one id, two codes and columns lo:hi inside it per row"),
        ({"lo": (2, 1), "hi": (1, 2)}, "one id, two codes and columns lo:hi inside it per row"),
        ({"lo": (-1, 1)}, "one id, two codes and columns lo:hi inside it per row"),
        ({"kwh": np.zeros(2)}, "one id, two codes and columns lo:hi inside it per row"),
    ], ids=["descending", "repeated", "codes", "bounds", "past_the_end", "reversed", "negative",
            "not_a_grid"])
    def test_refuses_an_inconsistent_panel(self, change, message):
        with pytest.raises(ValueError, match=message):
            self.panel(**change)


class TestInterpolate:
    def test_identity_without_gaps_or_flags(self):
        s = np.arange(1.0, 31.0)
        assert np.array_equal(cleaned(s), s)

    def test_idempotent_on_clean_series(self):
        holed = np.linspace(10, 40, 25)
        holed[[0, 7, 8, 24]] = np.nan
        once = cleaned(holed)
        assert np.isfinite(once).all()
        assert np.array_equal(cleaned(once), once)

    def test_trailing_constant_mean(self):
        values = [5.0] * 14 + [np.nan]
        assert cleaned(values)[14] == 5.0

    def test_leading_fallback_mean(self):
        # no valid day before t=0: uses the leading 14 valid days after it
        values = [np.nan] + list(range(1, 15))
        assert cleaned(values)[0] == 7.5  # mean(1..14)

    def test_trailing_uses_last_14_valid_days(self):
        values = np.arange(1.0, 31.0)
        values[29] = np.nan
        assert cleaned(values)[29] == np.mean(np.arange(16.0, 30.0))  # days 15..28

    def test_flagged_days_replaced_and_excluded_as_sources(self):
        values = np.full(30, 10.0)
        values[20] = 9999.0  # outlier detection flags it
        values[21] = np.nan
        out = cleaned(values, outlier_k=2.0)
        assert out[20] == 10.0
        assert out[21] == 10.0  # trailing window skips the flagged day

    def test_all_invalid_errors(self):
        with pytest.raises(ValueError, match="nothing to interpolate from"):
            grid_row([np.nan, np.nan, np.nan], DAY0 + 1, DAY0 + 1, 1)


class TestSmooth:
    def test_constant_stays_constant(self):
        assert np.allclose(smoothed([42.0] * 21), 42.0)

    def test_trailing_window_value(self):
        assert smoothed([0, 0, 0, 0, 0, 0, 7.0])[6] == 1.0

    def test_linear_ramp_closed_form(self):
        out = smoothed(np.arange(1.0, 22.0))
        t = np.arange(7, 22)
        assert np.array_equal(out[6:], t - 3.0)  # mean(t-6..t) = t-3

    def test_warmup_uses_available_days(self):
        out = smoothed(np.arange(1.0, 8.0))
        assert np.array_equal(out[:3], [1.0, 1.5, 2.0])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(50, 150, size=61)
        assert np.allclose(smoothed(values + 1000.0), smoothed(values) + 1000.0, atol=1e-9)

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="shorter"):
            grid_row([1.0, 2.0, 3.0], DAY0 + 1, DAY0 + 1, 1)


class TestAlignAndDeviation:
    def test_full_coverage_191_entries(self):
        # reference window 2018-11-01..2019-05-10, test 2019-10-21..2020-04-28
        y, ele_test, ele_ref = grid_row(np.arange(545.0) + 1.0, "2019-02-04", "2020-01-24", 95,
                                        start="2018-11-01")
        assert len(y) == len(ele_test) == len(ele_ref) == 191
        assert ele_ref[0] == 1.0 and ele_test[-1] == 545.0  # 2018-11-01 and 2020-04-28

    def test_missing_head_coverage_errors(self):
        with pytest.raises(ValueError, match="2018-11-01"):  # one day late
            grid_row(np.ones(400), "2019-02-04", "2019-02-04", 95, start="2018-11-02")

    def test_span_zero_degenerate(self):
        y, ele_test, ele_ref = grid_row(np.arange(10.0), "2019-01-05", "2019-01-06", 0)
        assert len(y) == 1
        assert ele_ref[0] == 4.0 and ele_test[0] == 5.0

    def test_self_alignment_is_zero_deviation(self):
        rng = np.random.default_rng(5)
        y, _, _ = grid_row(rng.uniform(10, 20, size=61), "2019-01-31", "2019-01-31", 30)
        assert np.array_equal(y, np.zeros(61))

    def test_constant_shift_deviation(self):
        # reference window 2019-01-01..01-21 at 100, test window 2019-01-22..02-11 at 110
        values = np.concatenate([np.ones(21) * 100.0, np.ones(21) * 110.0])
        y, _, _ = grid_row(values, "2019-01-11", "2019-02-01", 10, smooth_window=1)
        assert np.allclose(y, 10.0)

    def test_pointwise_difference(self):
        # reference window 2019-01-01..01-03, test window 2019-01-04..01-06
        y, _, _ = grid_row([90.0, 100.0, 105.0, 80.0, 60.0, 100.0], "2019-01-02", "2019-01-05",
                           1, smooth_window=1)
        assert np.array_equal(y, [-10.0, -40.0, -5.0])  # test minus reference

    def test_deviation_length_matches_span(self):
        for span in (0, 3, 20):
            y, _, _ = grid_row(np.arange(41.0), "2019-01-21", "2019-01-21", span)
            assert len(y) == 2 * span + 1

    def test_aligned_pair_rejects_asymmetric_offsets(self):  # the oracle's type
        with pytest.raises(ValueError, match="symmetric"):
            AlignedPair(np.arange(-2, 1), np.zeros(3), np.zeros(3))


def test_a_refused_inf_row_warns_nothing_and_leaves_its_neighbour_alone():
    """An inf reading leaves no valid day in a one-day row; its window sums are inf - inf, which
    numpy must not warn about, and the finite row beside it comes out as it does alone."""
    finite = np.linspace(3.0, 9.0, 8)
    grid = np.vstack([np.r_[np.inf, np.full(7, np.nan)], finite])
    args = DAY0, DAY0 + 2, DAY0 + 5, 2, 15, 2.0, 14, 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *both, errors = preprocess_grid(grid, [0, 0], [1, 8], *args)
        *alone, alone_errors = preprocess_grid(finite[None], [0], [8], *args)
    assert errors == ["nothing to interpolate from: series has no valid values", None]
    assert alone_errors == [None]
    for a, b in zip(both, alone):
        assert a[1].tobytes() == b[0].tobytes()


def test_trailing_mean_plain_array():
    out = trailing_mean([2.0, 4.0, 6.0, 8.0], window=2)
    assert np.array_equal(out, [2.0, 3.0, 5.0, 7.0])


# the oracle's own steps: its series type and the outlier mask, which no grid row shows


def brute_outlier_mask(values, window_days=15, k=2.0):
    """Independent oracle: plain-loop centered-window mean/std, excluding the candidate."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    half = window_days // 2
    mask = np.zeros(n, dtype=bool)
    for t in range(n):
        if not np.isfinite(values[t]):
            continue
        nb = [values[j] for j in range(max(0, t - half), min(n, t + half + 1))
              if j != t and np.isfinite(values[j])]
        if len(nb) < 2:
            continue
        nb = np.array(nb)
        mask[t] = abs(values[t] - nb.mean()) > k * nb.std(ddof=1)
    return mask


class TestRawSeries:
    def test_rejects_gapped_dates(self):
        dates = np.array(["2019-01-01", "2019-01-02", "2019-01-04"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="one-day step"):
            RawSeries(dates, [1.0, 2.0, 3.0])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            raw([1.0, -2.0, 3.0])

    def test_allows_missing_markers(self):
        s = raw([1.0, np.nan, 3.0])
        assert np.isnan(s.values[1])


class TestDetectOutliers:
    def test_constant_series_unflagged(self):
        mask = detect_outliers(raw([500.0] * 30))
        assert not mask.any()

    def test_single_spike_flagged(self):
        values = [100.0] * 14 + [10000.0]
        mask = detect_outliers(raw(values))
        expected = brute_outlier_mask(values)
        assert expected[14] and expected[:14].sum() == 0  # oracle sanity
        assert np.array_equal(mask, expected)

    def test_length_one_unflagged(self):
        assert not detect_outliers(raw([7.0])).any()

    def test_long_flat_series_with_level_steps_unflagged(self):
        # cumulative-sum rounding on long constant stretches must not turn
        # zero-variance windows into spurious flags
        values = np.full(545, 4931.5264135)
        values[95:105] *= 0.65
        values[450:460] *= 0.65
        assert not detect_outliers(raw(values)).any()

    def test_matches_bruteforce_on_noisy_series(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(6.0, 0.3, size=120)
        values[[10, 57, 100]] *= 8.0
        values[[20, 45]] = np.nan
        mask = detect_outliers(raw(values))
        assert np.array_equal(mask, brute_outlier_mask(values))
        assert mask[[10, 57, 100]].all()
        assert not mask[[20, 45]].any()

    def test_missing_days_never_flagged(self):
        values = [100.0] * 10 + [np.nan] + [100.0] * 10
        assert not detect_outliers(raw(values)).any()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(5.0, 0.5, size=200)
        values[[30, 90]] *= 10.0
        base = detect_outliers(raw(values))
        assert base[[30, 90]].all()
        for lam in (0.25, 4.0, 1024.0, 3.0):
            assert np.array_equal(detect_outliers(raw(values * lam)), base)

    def test_empty_series_errors(self):
        with pytest.raises(ValueError, match="empty"):
            detect_outliers(raw([]))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            detect_outliers(raw([1.0] * 20), window_days=14)
