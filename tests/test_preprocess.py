import numpy as np
import pytest

from ecuindex.preprocess import (
    AlignedPair,
    CleanSeries,
    KwhPanel,
    RawSeries,
    align,
    detect_outliers,
    deviation,
    interpolate,
    smooth,
    trailing_mean,
)


def daily(start, n):
    d0 = np.datetime64(start, "D")
    return d0 + np.arange(n)


def raw(values, start="2019-01-01"):
    values = np.asarray(values, dtype=float)
    return RawSeries(daily(start, len(values)), values)


def clean(values, start="2019-01-01"):
    values = np.asarray(values, dtype=float)
    return CleanSeries(daily(start, len(values)), values)


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


class TestInterpolate:
    def test_identity_without_gaps_or_flags(self):
        s = raw(np.arange(1.0, 31.0))
        out = interpolate(s, np.zeros(30, dtype=bool))
        assert np.array_equal(out.values, s.values)
        assert np.array_equal(out.dates, s.dates)

    def test_idempotent_on_clean_series(self):
        c = clean(np.linspace(10, 40, 25))
        again = interpolate(c)
        assert np.array_equal(again.values, c.values)

    def test_trailing_constant_mean(self):
        values = [5.0] * 14 + [np.nan]
        out = interpolate(raw(values))
        assert out.values[14] == 5.0

    def test_leading_fallback_mean(self):
        # no valid day before t=0: uses the leading 14 valid days after it
        values = [np.nan] + list(range(1, 15))
        out = interpolate(raw(values))
        assert out.values[0] == 7.5  # mean(1..14)

    def test_trailing_uses_last_14_valid_days(self):
        values = np.arange(1.0, 31.0)
        values[29] = np.nan
        out = interpolate(raw(values))
        assert out.values[29] == np.mean(np.arange(16.0, 30.0))  # days 15..28

    def test_flagged_days_replaced_and_excluded_as_sources(self):
        values = np.full(30, 10.0)
        values[20] = 9999.0
        mask = np.zeros(30, dtype=bool)
        mask[20] = True
        values[21] = np.nan
        out = interpolate(raw(values), mask)
        assert out.values[20] == 10.0
        assert out.values[21] == 10.0  # trailing window skips the flagged day

    def test_all_invalid_errors(self):
        with pytest.raises(ValueError, match="nothing to interpolate from"):
            interpolate(raw([np.nan, np.nan, np.nan]))


class TestSmooth:
    def test_constant_stays_constant(self):
        out = smooth(clean([42.0] * 20))
        assert np.allclose(out.values, 42.0)

    def test_trailing_window_value(self):
        out = smooth(clean([0, 0, 0, 0, 0, 0, 7.0]))
        assert out.values[6] == 1.0

    def test_linear_ramp_closed_form(self):
        out = smooth(clean(np.arange(1.0, 21.0)))
        t = np.arange(7, 21)
        assert np.array_equal(out.values[6:], t - 3.0)  # mean(t-6..t) = t-3

    def test_warmup_uses_available_days(self):
        out = smooth(clean(np.arange(1.0, 8.0)))
        assert np.array_equal(out.values[:3], [1.0, 1.5, 2.0])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(50, 150, size=60)
        base = smooth(clean(values)).values
        shifted = smooth(clean(values + 1000.0)).values
        assert np.allclose(shifted, base + 1000.0, atol=1e-9)

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="shorter"):
            smooth(clean([1.0, 2.0, 3.0]))


class TestAlignAndDeviation:
    def test_full_coverage_191_entries(self):
        # reference window 2018-11-01..2019-05-10, test 2019-10-21..2020-04-28
        s = clean(np.arange(545.0) + 1.0, start="2018-11-01")
        pair = align(s, np.datetime64("2019-02-04"), np.datetime64("2020-01-24"))
        assert len(pair.offsets) == 191
        assert pair.offsets[0] == -95 and pair.offsets[-1] == 95
        assert pair.span == 95

    def test_missing_head_coverage_errors(self):
        s = clean(np.ones(400), start="2018-11-02")  # one day late
        with pytest.raises(ValueError, match="2018-11-01"):
            align(s, np.datetime64("2019-02-04"), np.datetime64("2019-02-04"))

    def test_span_zero_degenerate(self):
        s = clean(np.arange(10.0), start="2019-01-01")
        pair = align(s, np.datetime64("2019-01-05"), np.datetime64("2019-01-06"), span=0)
        assert np.array_equal(pair.offsets, [0])
        assert pair.reference[0] == 4.0 and pair.test[0] == 5.0

    def test_self_alignment_is_zero_deviation(self):
        rng = np.random.default_rng(5)
        s = clean(rng.uniform(10, 20, size=61), start="2019-01-01")
        base = np.datetime64("2019-01-31")
        dev = deviation(align(s, base, base, span=30))
        assert np.array_equal(dev.y, np.zeros(61))

    def test_constant_shift_deviation(self):
        # reference window 2019-01-01..01-21 at 100, test window 2019-01-22..02-11 at 110
        s = clean(np.concatenate([np.ones(21) * 100.0, np.ones(21) * 110.0]))
        dev = deviation(align(s, np.datetime64("2019-01-11"), np.datetime64("2019-02-01"),
                              span=10))
        assert np.allclose(dev.y, 10.0)

    def test_pointwise_difference(self):
        # reference window 2019-01-01..01-03, test window 2019-01-04..01-06
        s = clean([90.0, 100.0, 105.0, 80.0, 60.0, 100.0])
        dev = deviation(align(s, np.datetime64("2019-01-02"), np.datetime64("2019-01-05"),
                              span=1))
        assert np.array_equal(dev.y, [-10.0, -40.0, -5.0])  # test minus reference

    def test_deviation_length_matches_span(self):
        s = clean(np.arange(41.0))
        for span in (0, 3, 20):
            pair = align(s, np.datetime64("2019-01-21"), np.datetime64("2019-01-21"), span=span)
            assert len(deviation(pair)) == 2 * span + 1

    def test_aligned_pair_rejects_asymmetric_offsets(self):
        with pytest.raises(ValueError, match="symmetric"):
            AlignedPair(np.arange(-2, 1), np.zeros(3), np.zeros(3))


def test_trailing_mean_plain_array():
    out = trailing_mean([2.0, 4.0, 6.0, 8.0], window=2)
    assert np.array_equal(out, [2.0, 3.0, 5.0, 7.0])
