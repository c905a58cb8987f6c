"""Tests for index aggregation: arithmetic oracles, exact identities, grouping edge cases."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ecuindex.ecu import (
    AGGREGATE_KEY,
    EcuSeries,
    FirmDayPanel,
    SrpiSeries,
    ecu_grouped,
    srpi,
)
from ecuindex.preprocess import trailing_mean
from ecuindex.sectors import DEFAULT_DISTRICTS, DEFAULT_SECTORS


def fd(firm, off, ele, mu, sector="301", district="D01"):
    """One firm-day row: (firm_id, offset, ele, mu_r, sector_code, district_code)."""
    return (firm, off, ele, mu, sector, district)


def panel_of(rows):
    """Dense panel scattered from firm-day rows: firms in first-seen order, offsets from the
    rows' least to greatest, and ``ele`` = ``mu_r`` = 0 where a firm has no row."""
    firms = {}  # firm id -> (row index, sector, district)
    for firm, _, _, _, sector, district in rows:
        firms.setdefault(firm, (len(firms), sector, district))
    offsets = [row[1] for row in rows]
    span = np.arange(min(offsets), max(offsets) + 1) if rows else np.arange(0)
    ele, mu_r = np.zeros((2, len(firms), len(span)))
    for firm, off, e, mu, _, _ in rows:
        ele[firms[firm][0], off - span[0]] = e
        mu_r[firms[firm][0], off - span[0]] = mu
    _, sectors, districts = zip(*firms.values()) if firms else ((), (), ())
    return FirmDayPanel(span, ele, mu_r, sectors, districts)


def ecu_one_offset(*rows):
    """ECU of a single-offset panel: the one value of its aggregate series."""
    (series,) = ecu_grouped(panel_of(rows), "none")
    assert len(series.ecu) == 1
    return series.ecu[0]


def random_rows(rng, n_firms=12, offsets=range(-2, 3), zero_weight_rate=0.0):
    sectors = ["101", "201", "301", "302"]
    districts = ["D01", "D02", "D03"]
    rows = []
    for k in range(n_firms):
        sec = sectors[int(rng.integers(len(sectors)))]
        dis = districts[int(rng.integers(len(districts)))]
        for off in offsets:
            ele = 0.0 if rng.random() < zero_weight_rate else float(rng.uniform(0.1, 500.0))
            rows.append(fd(f"F{k:03d}", off, ele, float(rng.random()), sec, dis))
    return rows


def random_panel(rng, **kwargs):
    return panel_of(random_rows(rng, **kwargs))


# ---------------------------------------------------------------------------
# one offset
# ---------------------------------------------------------------------------


def test_all_zero_probabilities_give_zero():
    assert ecu_one_offset(fd("a", 0, 10.0, 0.0), fd("b", 0, 99.0, 0.0)) == 0.0


def test_all_one_probabilities_give_one():
    assert ecu_one_offset(fd("a", 0, 10.0, 1.0), fd("b", 0, 99.0, 1.0)) == 1.0


def test_weighted_mean_worked_example():
    # (100*0.2 + 300*0.6) / 400 = 0.5
    got = ecu_one_offset(fd("a", 0, 100.0, 0.2), fd("b", 0, 300.0, 0.6))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_zero_total_weight_is_a_gap():
    (series,) = ecu_grouped(panel_of([fd("a", 3, 0.0, 0.9), fd("b", 3, 0.0, 0.4)]), "none")
    np.testing.assert_array_equal(series.offsets, [3])
    assert np.isnan(series.ecu[0])
    assert series.total_weight[0] == 0.0
    assert series.firm_count[0] == 0


def test_empty_records_rejected():
    with pytest.raises(ValueError, match="empty"):
        srpi(panel_of([]), np.zeros(0))


# ---------------------------------------------------------------------------
# panel and series validation
# ---------------------------------------------------------------------------


def test_firmday_rejects_bad_probability():
    with pytest.raises(ValueError, match="mu_r"):
        panel_of([fd("a", 0, 1.0, 1.5)])


def test_firmday_rejects_nan_probability():
    with pytest.raises(ValueError, match="mu_r"):
        panel_of([fd("a", 0, 1.0, math.nan), fd("a", 1, 1.0, 0.5)])


def test_firmday_rejects_negative_weight():
    with pytest.raises(ValueError, match="ele"):
        panel_of([fd("a", 0, -1.0, 0.5)])


def test_series_rejects_out_of_range_values():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        EcuSeries("aggregate", "all", [0, 1], [0.5, 1.5], [1.0, 1.0], [1, 1])


def test_series_rejects_offset_gaps():
    with pytest.raises(ValueError, match="contiguous"):
        EcuSeries("aggregate", "all", [0, 2], [0.5, 0.5], [1.0, 1.0], [1, 1])


# ---------------------------------------------------------------------------
# ecu_grouped
# ---------------------------------------------------------------------------


def test_single_sector_grouping_matches_aggregate():
    rng = np.random.default_rng(0)
    rows = panel_of([fd(f"F{k}", off, float(rng.uniform(1, 100)), float(rng.random()))
                     for k in range(5) for off in range(-3, 4)])
    agg = ecu_grouped(rows, "none")[0]
    by_sector = ecu_grouped(rows, "sector")
    assert len(by_sector) == 1
    np.testing.assert_array_equal(agg.ecu, by_sector[0].ecu)
    np.testing.assert_array_equal(agg.total_weight, by_sector[0].total_weight)


def test_aggregate_lies_between_two_sectors():
    rng = np.random.default_rng(1)
    rows = []
    for k in range(20):
        sec = "101" if k < 10 else "301"
        for off in range(5):
            rows.append(fd(f"F{k}", off, float(rng.uniform(1, 50)), float(rng.random()), sec))
    rows = panel_of(rows)
    agg = ecu_grouped(rows, "none")[0]
    a, b = ecu_grouped(rows, "sector")
    lo = np.minimum(a.ecu, b.ecu)
    hi = np.maximum(a.ecu, b.ecu)
    assert np.all(agg.ecu >= lo - 1e-12)
    assert np.all(agg.ecu <= hi + 1e-12)


def test_two_sector_worked_example():
    rows = panel_of([fd("a", 0, 100.0, 0.9, "101"), fd("b", 0, 900.0, 0.1, "301")])
    agg = ecu_grouped(rows, "none")[0]
    assert agg.ecu[0] == pytest.approx(0.18, abs=1e-12)
    bysec = {s.group_key: s for s in ecu_grouped(rows, "sector")}
    assert bysec["101"].ecu[0] == pytest.approx(0.9, abs=1e-15)
    assert bysec["301"].ecu[0] == pytest.approx(0.1, abs=1e-15)


def test_group_metadata_and_key_order():
    rows = panel_of([fd("a", 0, 1.0, 0.5, "301", "D02"), fd("b", 0, 2.0, 0.5, "101", "D01")])
    agg = ecu_grouped(rows, "none")[0]
    assert (agg.group_type, agg.group_key) == ("aggregate", AGGREGATE_KEY)
    assert [s.group_key for s in ecu_grouped(rows, "sector")] == ["101", "301"]
    assert [s.group_key for s in ecu_grouped(rows, "district")] == ["D01", "D02"]


def test_zero_weight_offset_is_a_gap_not_a_zero():
    rows = panel_of([
        fd("a", 0, 10.0, 0.3),
        fd("a", 1, 0.0, 0.3),  # consuming nothing this day
        fd("a", 2, 10.0, 0.7),
    ])
    series = ecu_grouped(rows, "none")[0]
    np.testing.assert_array_equal(series.offsets, [0, 1, 2])
    assert np.isnan(series.ecu[1])
    assert series.total_weight[1] == 0.0
    assert series.firm_count[1] == 0


def test_group_missing_from_an_offset_gets_gap():
    rows = panel_of([
        fd("a", 0, 5.0, 0.2, "101"),
        fd("a", 1, 5.0, 0.2, "101"),
        fd("b", 1, 5.0, 0.8, "301"),
    ])
    bysec = {s.group_key: s for s in ecu_grouped(rows, "sector")}
    assert np.isnan(bysec["301"].ecu[0])
    assert not np.isnan(bysec["301"].ecu[1])
    np.testing.assert_array_equal(bysec["301"].offsets, [0, 1])


def test_unknown_sector_code_named_in_error():
    rows = panel_of([fd("a", 0, 1.0, 0.5, "999")])
    with pytest.raises(ValueError, match="unknown sector code '999'"):
        ecu_grouped(rows, "sector")


def test_known_codes_override():
    rows = panel_of([fd("a", 0, 1.0, 0.5, "999")])
    series = ecu_grouped(rows, "sector", known_codes={"999"})
    assert series[0].group_key == "999"


def test_unknown_group_by_rejected():
    with pytest.raises(ValueError, match="group_by"):
        ecu_grouped(panel_of([fd("a", 0, 1.0, 0.5)]), "city")


def test_empty_panel_rejected():
    with pytest.raises(ValueError, match="empty"):
        ecu_grouped(panel_of([]), "none")


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


def test_partition_consistency():
    """Aggregate equals the weight-weighted mean of group series, within 1e-12."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        panel = random_panel(rng, n_firms=int(rng.integers(5, 30)))
        agg = ecu_grouped(panel, "none")[0]
        for group_by in ("sector", "district"):
            groups = ecu_grouped(panel, group_by)
            for j in range(len(agg.offsets)):
                parts = [(s.total_weight[j], s.ecu[j]) for s in groups if s.total_weight[j] > 0]
                recombined = math.fsum(w * v for w, v in parts) / math.fsum(w for w, _ in parts)
                assert abs(recombined - agg.ecu[j]) <= 1e-12


def test_weight_scale_invariance_power_of_two_is_exact():
    rng = np.random.default_rng(7)
    panel = random_panel(rng)
    scaled = replace(panel, ele=panel.ele * 1024.0)
    for group_by in ("none", "sector", "district"):
        for a, b in zip(ecu_grouped(panel, group_by), ecu_grouped(scaled, group_by)):
            np.testing.assert_array_equal(a.ecu, b.ecu)


def test_weight_scale_invariance_general():
    rng = np.random.default_rng(8)
    panel = random_panel(rng)
    for lam in (0.3, 3.0, 17.5):
        scaled = replace(panel, ele=panel.ele * lam)
        for a, b in zip(ecu_grouped(panel, "sector"), ecu_grouped(scaled, "sector")):
            np.testing.assert_allclose(a.ecu, b.ecu, atol=1e-12)


def test_raising_one_probability_never_lowers_any_index():
    rng = np.random.default_rng(9)
    panel = random_panel(rng, n_firms=8, offsets=range(3))
    bumped_mu = panel.mu_r.copy()
    bumped_mu[1, 2] = min(1.0, bumped_mu[1, 2] + 0.4)
    bumped = replace(panel, mu_r=bumped_mu)
    for group_by in ("none", "sector", "district"):
        for a, b in zip(ecu_grouped(panel, group_by), ecu_grouped(bumped, group_by)):
            ok = ~np.isnan(a.ecu)
            assert np.all(b.ecu[ok] >= a.ecu[ok] - 1e-15)


def test_zero_weight_firm_changes_nothing():
    rng = np.random.default_rng(10)
    rows = random_rows(rng, n_firms=6, offsets=range(3))
    panel = panel_of(rows)
    with_ghost = panel_of(rows + [fd("GHOST", off, 0.0, 1.0, "101", "D01") for off in range(3)])
    for group_by in ("none", "district"):
        for a, b in zip(ecu_grouped(panel, group_by), ecu_grouped(with_ghost, group_by)):
            np.testing.assert_array_equal(a.ecu, b.ecu)
            np.testing.assert_array_equal(a.total_weight, b.total_weight)
            np.testing.assert_array_equal(a.firm_count, b.firm_count)


def test_values_always_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(20):
        panel = random_panel(rng, n_firms=int(rng.integers(2, 25)), zero_weight_rate=0.2)
        for group_by in ("none", "sector", "district"):
            for s in ecu_grouped(panel, group_by):
                vals = s.ecu[~np.isnan(s.ecu)]
                assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# ---------------------------------------------------------------------------
# srpi
# ---------------------------------------------------------------------------


def test_srpi_zero_gap_when_totals_match():
    rows = panel_of([fd("a", off, 100.0, 0.0) for off in range(5)])
    out = srpi(rows, np.full(5, 100.0))
    np.testing.assert_array_equal(out.srpi, np.full(5, 100.0))
    np.testing.assert_array_equal(out.delta_srpi, np.zeros(5))


def test_srpi_constant_shift():
    rows = panel_of([fd("a", off, 100.0, 0.0) for off in range(10)])
    out = srpi(rows, np.full(10, 150.0))
    np.testing.assert_allclose(out.delta_srpi, np.full(10, -50.0), atol=1e-12)


def test_srpi_totals_match_independent_sum():
    rows = panel_of([
        fd("a", 0, 4.0, 0.1), fd("b", 0, 6.0, 0.9),
        fd("a", 1, 15.0, 0.1), fd("b", 1, 5.0, 0.9),
        fd("a", 2, 30.0, 0.1),
    ])
    out = srpi(rows, np.zeros(3))
    np.testing.assert_array_equal(out.srpi, [10.0, 20.0, 30.0])


def test_srpi_smooths_the_gap_with_trailing_window():
    # gap ramps 0..9; trailing-7 mean of a ramp lags by 3 once the window fills
    rows = panel_of([fd("a", off, 100.0 + off, 0.0) for off in range(10)])
    out = srpi(rows, np.full(10, 100.0))
    assert out.delta_srpi[9] == pytest.approx(6.0, abs=1e-12)
    assert out.delta_srpi[0] == 0.0


def test_srpi_requires_aligned_reference():
    rows = panel_of([fd("a", off, 1.0, 0.0) for off in range(3)])
    with pytest.raises(ValueError, match=re.escape("reference totals have shape (2,); the panel's "
                                                   "3 offsets need shape (3,)")):
        srpi(rows, np.ones(2))
    with pytest.raises(ValueError, match=re.escape("reference totals have shape ()")):
        srpi(rows, {0: 1.0, 1: 1.0, 2: 1.0})


def test_srpi_series_validates_lengths():
    with pytest.raises(ValueError, match="equal length"):
        SrpiSeries([0, 1], [1.0], [0.0])


# ---------------------------------------------------------------------------
# grouped column sums against the per-row dict-loop oracle
# ---------------------------------------------------------------------------


def oracle_ecu_grouped(rows, group_by="none", known_codes=None):
    """Per-row dict-loop aggregation: ``ecu_grouped`` of ``panel_of(rows)`` must match bit for bit."""
    if group_by == "none":
        keys = None
        group_type = "aggregate"
    else:
        keys = [row[4] if group_by == "sector" else row[5] for row in rows]
        group_type = group_by
        known = known_codes
        if known is None:
            known = DEFAULT_SECTORS.keys() if group_by == "sector" else DEFAULT_DISTRICTS
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise ValueError(f"unknown {group_by} code {unknown[0]!r}")

    offsets = [row[1] for row in rows]
    span = np.arange(min(offsets), max(offsets) + 1)

    weights, products, counts = {}, {}, {}
    for i, (_, off, ele, mu, _, _) in enumerate(rows):
        key = AGGREGATE_KEY if keys is None else keys[i]
        if ele <= 0.0:
            continue
        bucket = (key, off)
        weights.setdefault(bucket, []).append(ele)
        products.setdefault(bucket, []).append(ele * mu)
        counts[bucket] = counts.get(bucket, 0) + 1

    group_keys = [AGGREGATE_KEY] if keys is None else sorted(set(keys))
    out = []
    for key in group_keys:
        ecu = np.full(len(span), np.nan)
        tot = np.zeros(len(span))
        cnt = np.zeros(len(span), dtype=int)
        for j, off in enumerate(span.tolist()):
            bucket = (key, off)
            if bucket not in weights:
                continue
            den = math.fsum(weights[bucket])
            tot[j] = den
            cnt[j] = counts[bucket]
            if den > 0.0:
                ecu[j] = math.fsum(products[bucket]) / den
        out.append(EcuSeries(group_type, key, span.copy(), ecu, tot, cnt))
    return out


def oracle_srpi(rows, reference_totals, window_days=7):
    """Per-row dict-loop sRPI: ``srpi`` of ``panel_of(rows)`` must match bit for bit."""
    offsets = [row[1] for row in rows]
    span = np.arange(min(offsets), max(offsets) + 1)
    sums = {}
    for _, off, ele, _, _, _ in rows:
        sums.setdefault(off, []).append(ele)
    totals = np.array([math.fsum(sums.get(off, [])) for off in span.tolist()])
    ref = np.array([float(reference_totals[off]) for off in span.tolist()])
    return SrpiSeries(span, totals, trailing_mean(totals - ref, window_days))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_series(got, want):
    """Equal group lists and bit-identical columns of every series."""
    assert [(s.group_type, s.group_key) for s in got] == [(s.group_type, s.group_key)
                                                          for s in want]
    for a, b in zip(got, want):
        for col in ("offsets", "ecu", "total_weight", "firm_count"):
            assert same_bits(getattr(a, col), getattr(b, col)), (a.group_key, col)


def oracle_rows(rng):
    """Shuffled firm-day rows with zero-weight rows, offsets no firm consumes on or
    has a row for, and a sector and a district whose rows all weigh zero."""
    lo = int(rng.integers(-6, 1))
    offsets = np.arange(lo, lo + int(rng.integers(1, 10)))
    dead = int(rng.choice(offsets))  # nobody consumes on this offset
    rows = []
    for k in range(int(rng.integers(1, 16))):
        ghost = k == 0
        sec = "999" if ghost else str(rng.choice(["101", "202", "301", "306"]))
        dis = "D99" if ghost else str(rng.choice(["D01", "D02", "D03"]))
        for off in offsets[rng.random(len(offsets)) < 0.8]:
            zero = ghost or off == dead or rng.random() < 0.25
            mu = float(rng.choice([0.0, 1.0, rng.random()], p=[0.1, 0.1, 0.8]))
            rows.append(fd(f"F{k:02d}", int(off), 0.0 if zero else float(rng.uniform(0.01, 900.0)),
                           mu, sec, dis))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


KNOWN = {"101", "202", "301", "306", "999", "D01", "D02", "D03", "D99"}


def test_sort_once_aggregation_matches_dict_loop_oracle():
    rng = np.random.default_rng(2024)
    ghosts_seen = 0
    for _ in range(200):
        rows = oracle_rows(rng)
        panel = panel_of(rows)
        for group_by in ("none", "sector", "district"):
            got = ecu_grouped(panel, group_by, known_codes=KNOWN)
            same_series(got, oracle_ecu_grouped(rows, group_by, known_codes=KNOWN))
            for a in got:
                if a.group_key in ("999", "D99"):
                    ghosts_seen += 1
                    assert np.isnan(a.ecu).all()
                    assert not a.total_weight.any() and not a.firm_count.any()
        ref = {off: float(rng.uniform(0.0, 5000.0)) for off in panel.offsets.tolist()}
        got, want = srpi(panel, np.array(list(ref.values()))), oracle_srpi(rows, ref)
        for col in ("offsets", "srpi", "delta_srpi"):
            assert same_bits(getattr(got, col), getattr(want, col)), col
    assert ghosts_seen > 0


def test_permuting_firms_changes_no_bit():
    """Exact sums make every series independent of the order of the panel's firms."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        rows = oracle_rows(rng)
        panel = panel_of(rows)
        perm = rng.permutation(len(panel.sector_code))
        shuffled = FirmDayPanel(panel.offsets, panel.ele[perm], panel.mu_r[perm],
                                panel.sector_code[perm], panel.district_code[perm])
        for group_by in ("none", "sector", "district"):
            same_series(ecu_grouped(shuffled, group_by, known_codes=KNOWN),
                        ecu_grouped(panel, group_by, known_codes=KNOWN))
        ref = np.ones(len(panel.offsets))
        a, b = srpi(shuffled, ref), srpi(panel, ref)
        assert same_bits(a.srpi, b.srpi) and same_bits(a.delta_srpi, b.delta_srpi)
