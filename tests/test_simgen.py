"""Tests for the synthetic panel generator: determinism, shock shape, ground truth."""

import numpy as np
import pytest

from ecuindex.config import DEFAULT_SECTOR_MIX, RunConfig, build_panel_config, sector_level
from ecuindex.preprocess import preprocess_grid
from ecuindex.simgen import (
    PanelConfig,
    generate,
    quota_counts,
    shock_multiplier,
    truth_labels,
)
from firm_records import records_of


def flat_depths(depth):
    return {code: depth for code in DEFAULT_SECTOR_MIX}


def small_config(**overrides):
    base = dict(n_firms=6, seed=42, missing_rate=0.0, outlier_rate=0.0)
    base.update(overrides)
    return PanelConfig(**base)


# ---------------------------------------------------------------------------
# shock multiplier and recovery arithmetic
# ---------------------------------------------------------------------------


def test_multiplier_piecewise_shape():
    off = np.arange(-5, 60)
    m = shock_multiplier(off, start=0, duration=5, depth=0.4, half_life=10.0)
    np.testing.assert_array_equal(m[off < 0], 1.0)
    np.testing.assert_array_equal(m[(off >= 0) & (off < 5)], 0.6)
    # one half-life past the plateau the loss has halved
    assert m[off == 15][0] == pytest.approx(1.0 - 0.2, abs=1e-12)
    rec = m[off >= 5]
    assert np.all(np.diff(rec) > 0)
    assert rec[-1] < 1.0


def test_multiplier_at_shock_start_equals_one_minus_depth():
    m = shock_multiplier([3], start=3, duration=0, depth=0.5, half_life=14.0)
    assert m[0] == 0.5


def test_recovery_crossing_day():
    # 14 * log2(0.5 / 0.05) = 46.507 -> first day back above 0.95 is day 47
    m = shock_multiplier([46, 47], start=0, duration=0, depth=0.5, half_life=14.0)
    assert m[0] < 0.95 <= m[1]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_negative_n_firms_rejected():
    with pytest.raises(ValueError, match="n_firms"):
        PanelConfig(n_firms=-1)


def test_sector_mix_must_sum_to_one():
    with pytest.raises(ValueError, match="sector_mix"):
        PanelConfig(sector_mix={"101": 0.5, "301": 0.4})


def test_rates_must_be_below_one():
    with pytest.raises(ValueError, match="missing_rate"):
        PanelConfig(missing_rate=1.0)


def test_depths_must_be_fractions():
    with pytest.raises(ValueError, match="shock depth"):
        PanelConfig(shock_depth=flat_depths(1.5))


def test_unused_level_depth_must_be_a_fraction():
    with pytest.raises(ValueError, match="shock depth for primary"):
        PanelConfig(sector_mix={"301": 1.0}, shock_depth={"primary": 1.5})


def test_base_range_must_be_positive():
    with pytest.raises(ValueError, match="base_lo"):
        PanelConfig(base_lo=0.0, base_hi=100.0)


def test_default_config_is_valid():
    PanelConfig()


def test_default_depths_by_sector_level():
    level_depths = {1: 0.25, 2: 0.45, 3: 0.60}
    assert PanelConfig().depths() == {code: level_depths[sector_level(code)]
                                      for code in DEFAULT_SECTOR_MIX}


def test_library_and_config_file_build_the_same_panel():
    """Level names and codes mean the same in ``PanelConfig`` as in a config file."""
    lib = generate(PanelConfig(n_firms=40, seed=3, shock_depth={"tertiary": 0.6, "201": 0.1}))
    cfg = generate(build_panel_config({"n_firms": "40", "seed": "3",
                                       "shock_depth": "tertiary:0.6,201:0.1"}))
    assert lib.truth == cfg.truth
    assert any(t.shocked for t in lib.truth.values())
    for a, b in zip(records_of(lib.panel), records_of(cfg.panel), strict=True):
        assert (a.firm_id, a.sector_code, a.district_code) == \
            (b.firm_id, b.sector_code, b.district_code)
        np.testing.assert_array_equal(a.series.dates, b.series.dates)
        np.testing.assert_array_equal(a.series.values, b.series.values)


def test_unknown_shock_depth_code_rejected_by_library():
    with pytest.raises(ValueError, match="shock_depth names unknown sector code '999'"):
        PanelConfig(shock_depth={"999": 0.5})


# ---------------------------------------------------------------------------
# quota assignment
# ---------------------------------------------------------------------------


def test_quota_counts_worked_example():
    # 7 * (0.5, 0.3, 0.2) = (3.5, 2.1, 1.4); remainders hand out the 7th seat to 'a'
    assert quota_counts(7, {"a": 0.5, "b": 0.3, "c": 0.2}) == {"a": 4, "b": 2, "c": 1}


def test_quota_counts_always_sum_to_n():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        props = rng.dirichlet(np.ones(k))
        mix = {f"s{i}": float(p) for i, p in enumerate(props)}
        n = int(rng.integers(1, 500))
        assert sum(quota_counts(n, mix).values()) == n


def test_realized_mix_tracks_configured_mix():
    panel = generate(PanelConfig(n_firms=2000, seed=3))
    counts = {}
    for code in panel.panel.sector_codes:
        counts[code] = counts.get(code, 0) + 1
    for code, prop in DEFAULT_SECTOR_MIX.items():
        assert abs(counts.get(code, 0) / 2000 - prop) <= 0.02


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_same_config_same_panel():
    a = generate(small_config(missing_rate=0.05, outlier_rate=0.02, noise_frac=0.1))
    b = generate(small_config(missing_rate=0.05, outlier_rate=0.02, noise_frac=0.1))
    assert a.panel.firm_ids == b.panel.firm_ids
    for ra, rb in zip(records_of(a.panel), records_of(b.panel)):
        assert (ra.sector_code, ra.district_code) == (rb.sector_code, rb.district_code)
        np.testing.assert_array_equal(ra.series.dates, rb.series.dates)
        assert np.array_equal(ra.series.values, rb.series.values, equal_nan=True)


def test_different_seed_different_panel():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert not np.array_equal(a.panel.kwh[0], b.panel.kwh[0])


def test_every_firm_covers_both_windows():
    cfg = small_config()
    panel = generate(cfg)
    first, last = cfg.date_range()
    assert panel.panel.day0 == first
    for rec in records_of(panel.panel):
        s = rec.series
        assert s.dates[0] == first
        assert s.dates[-1] == last
        assert len(s) == int((last - first) / np.timedelta64(1, "D")) + 1


def test_zero_depth_shock_is_inert():
    # identical output no matter where a zero-depth shock starts
    a = generate(small_config(shock_depth=flat_depths(0.0), shock_start=10))
    b = generate(small_config(shock_depth=flat_depths(0.0), shock_start=50))
    np.testing.assert_array_equal(a.panel.kwh, b.panel.kwh)
    assert not any(t.shocked for t in a.truth.values())


def test_shock_halves_consumption_at_onset():
    kwargs = dict(noise_frac=0.0, shock_start=10, shock_half_life=14.0)
    shocked = generate(small_config(shock_depth=flat_depths(0.5), **kwargs))
    counter = generate(small_config(shock_depth=flat_depths(0.0), **kwargs))
    cfg = small_config()
    onset_day = np.datetime64(cfg.test_base) + np.timedelta64(10, "D")
    before_day = onset_day - np.timedelta64(1, "D")
    for rs, rc in zip(records_of(shocked.panel), records_of(counter.panel)):
        s, c = rs.series, rc.series
        i = int(np.searchsorted(s.dates, onset_day))
        assert s.values[i] / c.values[i] == pytest.approx(0.5, rel=1e-12)
        j = int(np.searchsorted(s.dates, before_day))
        assert s.values[j] / c.values[j] == pytest.approx(1.0, rel=1e-12)


def test_constant_level_when_all_modulation_off():
    cfg = small_config(weekly_amplitude=0.0, annual_amplitude=0.0, holiday_depth=0.0,
                       noise_frac=0.0, shock_depth=flat_depths(0.0))
    panel = generate(cfg)
    for rec in records_of(panel.panel):
        vals = rec.series.values
        assert np.all(vals == vals[0])
        assert cfg.base_lo <= vals[0] <= cfg.base_hi
        assert vals[0] == panel.truth[rec.firm_id].base


def test_weekend_consumption_dips():
    cfg = small_config(weekly_amplitude=0.2, annual_amplitude=0.0, holiday_depth=0.0,
                       noise_frac=0.0, shock_depth=flat_depths(0.0))
    panel = generate(cfg)
    s = records_of(panel.panel)[0].series
    dow = (s.dates.astype("int64") + 3) % 7
    base = panel.truth[panel.panel.firm_ids[0]].base
    np.testing.assert_allclose(s.values[dow == 5], base * (1 - 0.2 * 0.95), rtol=1e-12)
    np.testing.assert_allclose(s.values[dow == 0], base * (1 + 0.2 * 0.35), rtol=1e-12)


def test_holiday_trough_applied_in_both_years():
    cfg = small_config(weekly_amplitude=0.0, annual_amplitude=0.0, holiday_depth=0.4,
                       noise_frac=0.0, shock_depth=flat_depths(0.0))
    panel = generate(cfg)
    s = records_of(panel.panel)[0].series
    base = panel.truth[panel.panel.firm_ids[0]].base
    for start in (np.datetime64("2019-02-04"), np.datetime64("2020-01-24")):
        i = int(np.searchsorted(s.dates, start))
        np.testing.assert_allclose(s.values[i:i + 10], base * 0.6, rtol=1e-12)
        assert s.values[i - 1] == pytest.approx(base, rel=1e-12)
        assert s.values[i + 10] == pytest.approx(base, rel=1e-12)


def test_missing_days_marked_nan():
    panel = generate(small_config(n_firms=20, missing_rate=0.1))
    frac = np.mean([np.isnan(row).mean() for row in panel.panel.kwh])
    assert 0.05 < frac < 0.15


def test_firm_ids_stable_and_padded():
    panel = generate(small_config(n_firms=3))
    assert panel.panel.firm_ids == ["F00000", "F00001", "F00002"]
    assert list(panel.truth) == ["F00000", "F00001", "F00002"]


def test_onset_jitter_staggers_firms():
    cfg = small_config(n_firms=40, shock_onset_jitter=14, shock_depth=flat_depths(0.5))
    panel = generate(cfg)
    onsets = {t.shock_start for t in panel.truth.values()}
    assert len(onsets) > 5
    assert min(onsets) >= cfg.shock_start
    assert max(onsets) <= cfg.shock_start + 14


# ---------------------------------------------------------------------------
# ground-truth labels
# ---------------------------------------------------------------------------


def test_labels_false_for_unshocked_firm():
    panel = generate(small_config(shock_depth=flat_depths(0.0)))
    labels = truth_labels(panel)
    assert all(not lab.any() for lab in labels.values())


def test_labels_cover_shock_until_recovery_crossing():
    cfg = small_config(shock_depth=flat_depths(0.5), shock_start=10,
                       shock_half_life=14.0, shock_duration=0)
    panel = generate(cfg)
    labels = truth_labels(panel)
    offsets = np.arange(-95, 96)
    for fid, lab in labels.items():
        start = panel.truth[fid].shock_start
        expected = (offsets >= start) & (offsets < start + 47)
        np.testing.assert_array_equal(lab, expected)


def test_labels_respect_plateau_duration():
    cfg = small_config(shock_depth=flat_depths(0.5), shock_start=0,
                       shock_half_life=14.0, shock_duration=10)
    lab = truth_labels(generate(cfg))["F00000"]
    offsets = np.arange(-95, 96)
    np.testing.assert_array_equal(lab, (offsets >= 0) & (offsets < 57))


def test_threshold_one_labels_nothing():
    panel = generate(small_config(shock_depth=flat_depths(0.9)))
    labels = truth_labels(panel, eps=1.0)
    assert all(not lab.any() for lab in labels.values())


# ---------------------------------------------------------------------------
# null pipeline: no corruption, no shock, aligned holidays -> flat deviations
# ---------------------------------------------------------------------------


def test_null_panel_produces_zero_deviation_series():
    cfg = small_config(
        weekly_amplitude=0.0, annual_amplitude=0.0, noise_frac=0.0,
        shock_depth=flat_depths(0.0), holiday_depth=0.35,
        holiday_ref="2019-02-04", holiday_ref_days=10, holiday_test="2020-01-24",
        holiday_test_days=10,
    )
    p = generate(cfg).panel
    y, _, _, errors = preprocess_grid(p, RunConfig(ref_base=cfg.ref_base, test_base=cfg.test_base,
                                                   span=cfg.span))
    assert errors == [None] * cfg.n_firms
    np.testing.assert_allclose(y, 0.0, atol=1e-8)
