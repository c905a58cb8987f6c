"""System-level acceptance gate.

Eight criteria, one test each, every tolerance stated inline. Each test
prints a single verdict line (run with ``pytest -s`` to see them all;
pytest shows the captured line for any failure regardless). Criteria
that share expensive artifacts reuse module-scoped fixtures, and the
runtime budget is charged to the criterion that builds the fixture.
"""

import itertools
import math
import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ecuindex.config import DEFAULT_DISTRICT_MIX, DEFAULT_SECTOR_MIX, build_run_config, sector_level
from ecuindex.ecu import FirmDayPanel, ecu_grouped
from ecuindex.hmm import (
    RegimeModel,
    RegimeParams,
    em_fit,
    init_params,
    random_init,
)
from ecuindex.pipeline import build_firmday_panel, fit_panel
from ecuindex.simgen import PanelConfig, generate, truth_labels
from hmm_helpers import forward_filter, sample_path

SECTOR_CODES = list(DEFAULT_SECTOR_MIX)
DISTRICT_CODES = list(DEFAULT_DISTRICT_MIX)


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# independent oracle: exhaustive sum over all 2^T state paths
# ---------------------------------------------------------------------------


def gauss_pdf(x, mean, sigma):
    return np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))


def enum_loglik_and_final(y, model):
    """Log-likelihood and final filtered pair by summing every state path."""
    T = len(y)
    paths = np.array(list(itertools.product((0, 1), repeat=T)))
    t = np.arange(1, T + 1, dtype=float)
    alpha = np.array([p.alpha for p in model.params])
    beta = np.array([p.beta for p in model.params])
    sigma = np.array([p.sigma for p in model.params])
    means = alpha[paths] * t[None, :] + beta[paths]
    w = model.pi0[paths[:, 0]] * gauss_pdf(y[None, :], means, sigma[paths]).prod(axis=1)
    w = w * model.q[paths[:, :-1], paths[:, 1:]].prod(axis=1)
    total = w.sum()
    p_r = w[paths[:, -1] == 1].sum() / total
    return math.log(total), np.array([1.0 - p_r, p_r])


def random_model(rng):
    stay = rng.uniform(0.6, 0.98, size=2)
    q = np.array([[stay[0], 1.0 - stay[0]], [1.0 - stay[1], stay[1]]])
    params = (
        RegimeParams(rng.normal(0.0, 0.05), rng.normal(2.0, 1.0), rng.uniform(0.5, 1.5)),
        RegimeParams(rng.normal(0.0, 0.05), rng.normal(-2.0, 1.0), rng.uniform(0.5, 1.5)),
    )
    p = rng.uniform(0.2, 0.8)
    return RegimeModel(q, params, np.array([p, 1.0 - p]))


def test_criterion_1_filter_matches_path_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_ll = worst_pair = 0.0
    for k in range(100):
        model = random_model(rng)
        _, y = sample_path(model, 10, seed=1000 + k)
        want_ll, want_pair = enum_loglik_and_final(y, model)
        out = forward_filter(y, model)
        worst_ll = max(worst_ll, abs(out.loglik - want_ll))
        worst_pair = max(worst_pair, np.abs(out.filtered[-1] - want_pair).max())
    elapsed = time.perf_counter() - t0
    ok = worst_ll < 1e-9 and worst_pair < 1e-9 and elapsed < 10.0
    _verdict(1, "filter matches 2^10 path enumeration", ok,
             f"max loglik err {worst_ll:.2e}, max filtered err {worst_pair:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_2_em_ascent_and_loglik_consistency():
    t0 = time.perf_counter()
    worst_drop = worst_gap = 0.0
    for k in range(50):
        rng = np.random.default_rng(200 + k)
        model = random_model(rng)
        _, y = sample_path(model, 120, seed=2000 + k)
        fit = em_fit(y, random_init(y, rng))
        trace = np.asarray(fit.loglik_trace)
        if len(trace) > 1:
            worst_drop = max(worst_drop, float(-np.diff(trace).min()))
        refilter = forward_filter(y, fit.model).loglik
        worst_gap = max(worst_gap, abs(refilter - trace[-1]))
    elapsed = time.perf_counter() - t0
    ok = worst_drop <= 1e-8 and worst_gap <= 1e-8 and elapsed < 30.0
    _verdict(2, "EM ascent over 50 seeded fits", ok,
             f"worst loglik drop {worst_drop:.2e}, worst refilter gap "
             f"{worst_gap:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 3 and 4 share 200 firms sampled from one known model
# ---------------------------------------------------------------------------

TRUE_MODEL = RegimeModel(
    np.array([[0.97, 0.03], [0.05, 0.95]]),
    (RegimeParams(0.0, 0.0, 5.0), RegimeParams(0.3, -40.0, 8.0)),
    np.array([0.5, 0.5]),
)


@pytest.fixture(scope="module")
def recovery_fits():
    t0 = time.perf_counter()
    series, fits = [], []
    for k in range(200):
        _, y = sample_path(TRUE_MODEL, 191, seed=3000 + k)
        series.append(y)
        fits.append(em_fit(y, init_params(y)))
    return SimpleNamespace(series=series, fits=fits,
                           elapsed=time.perf_counter() - t0)


def test_criterion_3_parameter_recovery(recovery_fits):
    med_beta = float(np.median([f.model.recessionary.beta for f in recovery_fits.fits]))
    med_qpp = float(np.median([f.model.q[0, 0] for f in recovery_fits.fits]))
    ok = (abs(med_beta - (-40.0)) <= 0.15 * 40.0
          and abs(med_qpp - 0.97) <= 0.05
          and recovery_fits.elapsed < 120.0)
    _verdict(3, "parameter recovery on 200 firms", ok,
             f"median beta_r {med_beta:.2f} (target -40 +/-6), median q_pp "
             f"{med_qpp:.3f} (target 0.97 +/-0.05), {recovery_fits.elapsed:.1f}s")


def test_criterion_4_normalization_and_ecu_bounds(recovery_fits):
    rng = np.random.default_rng(41)
    offsets = np.arange(-95, 96)
    worst_sum = 0.0
    mu_r = []
    for y, fit in zip(recovery_fits.series, recovery_fits.fits):
        out = forward_filter(y, fit.model)
        worst_sum = max(worst_sum, float(np.abs(out.filtered.sum(axis=1) - 1.0).max()))
        mu_r.append(out.mu_r)
    ele = rng.uniform(5.0, 500.0, size=(len(mu_r), len(offsets)))
    firms = range(len(mu_r))
    panel = FirmDayPanel(offsets, ele, mu_r, [SECTOR_CODES[k % len(SECTOR_CODES)] for k in firms],
                         [DISTRICT_CODES[k % len(DISTRICT_CODES)] for k in firms])
    lo, hi = np.inf, -np.inf
    for group_by in ("none", "sector", "district"):
        for s in ecu_grouped(panel, group_by):
            vals = s.ecu[np.isfinite(s.ecu)]
            lo, hi = min(lo, vals.min()), max(hi, vals.max())
    ok = worst_sum <= 1e-12 and lo >= 0.0 and hi <= 1.0
    _verdict(4, "filtered pairs sum to 1, ECU in [0,1]", ok,
             f"max |pair sum - 1| {worst_sum:.2e}, ECU range "
             f"[{lo:.4f}, {hi:.4f}]")


def test_criterion_5_null_pipeline_is_silent():
    cfg = PanelConfig(
        n_firms=40, seed=5,
        weekly_amplitude=0.0, annual_amplitude=0.0, noise_frac=0.0,
        missing_rate=0.0, outlier_rate=0.0,
        shock_depth={code: 0.0 for code in SECTOR_CODES},
    )
    panel = generate(cfg)
    results, skipped = fit_panel(panel.panel, build_run_config({}))
    worst_dev = max(float(np.abs(r.deviation.y).max()) for r in results)
    all_degenerate = all(r.report.degenerate for r in results)
    fd_panel = build_firmday_panel(results)
    mu_silent = not np.any(fd_panel.mu_r)
    agg = ecu_grouped(fd_panel, "none")[0]
    ecu_zero = bool(np.all(agg.ecu == 0.0))
    ok = (not skipped and worst_dev <= 1e-8 and all_degenerate
          and mu_silent and ecu_zero)
    _verdict(5, "null pipeline: zero deviations, zero ECU", ok,
             f"max |deviation| {worst_dev:.2e}, all degenerate "
             f"{all_degenerate}, ECU all zero {ecu_zero}")


# ---------------------------------------------------------------------------
# criteria 6 and 8 share one 2000-firm shocked panel through the full stack
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shape_run():
    t0 = time.perf_counter()
    cfg = PanelConfig(
        n_firms=2000, seed=20,
        noise_frac=0.06,
        shock_start=10,           # first offset after the 10-day holiday
        shock_half_life=10.0,
        shock_onset_jitter=10,
        shock_depth_jitter=0.15,
        shock_depth={"primary": 0.25, "secondary": 0.40, "tertiary": 0.65},
    )
    panel = generate(cfg)
    results, skipped = fit_panel(panel.panel, build_run_config({}),
                                 workers=min(4, os.cpu_count() or 1))
    agg = ecu_grouped(build_firmday_panel(results), "none")[0]
    return SimpleNamespace(cfg=cfg, panel=panel, results=results, agg=agg,
                           skipped=skipped, elapsed=time.perf_counter() - t0)


def level_series(results, level):
    sub = [r for r in results if sector_level(r.sector_code) == level]
    return ecu_grouped(build_firmday_panel(sub), "none")[0]


def elevated_days(series, peak_pos, threshold):
    """Days from the aggregate peak until the series first drops below threshold."""
    tail = series.ecu[peak_pos:]
    below = np.nonzero(tail < threshold)[0]
    return int(below[0]) if below.size else len(tail)


def test_criterion_6_aggregate_shape_after_shock(shape_run):
    agg = shape_run.agg
    offsets = agg.offsets
    pre = agg.ecu[offsets < 0]
    pre_mean = float(pre.mean())
    holiday = agg.ecu[(offsets >= 0) & (offsets < shape_run.cfg.holiday_test_days)]

    dipped = float(holiday.min()) < pre_mean

    peak_pos = int(np.argmax(agg.ecu))
    peak_val = float(agg.ecu[peak_pos])
    days_after_shock = int(offsets[peak_pos]) - shape_run.cfg.shock_start
    peaked = peak_val >= pre_mean + 0.20 and 10 <= days_after_shock <= 35

    end_gap = abs(float(agg.ecu[-1]) - pre_mean)
    decayed = end_gap <= 0.05

    sec2 = level_series(shape_run.results, 2)
    sec3 = level_series(shape_run.results, 3)
    pre2 = float(sec2.ecu[sec2.offsets < 0].mean())
    pre3 = float(sec3.ecu[sec3.offsets < 0].mean())
    dur2 = elevated_days(sec2, peak_pos, pre2 + 0.10)
    dur3 = elevated_days(sec3, peak_pos, pre3 + 0.10)

    ok = (not shape_run.skipped and dipped and peaked and decayed
          and dur3 > dur2 and shape_run.elapsed < 300.0)
    _verdict(6, "aggregate ECU shape on 2000-firm shocked panel", ok,
             f"pre-holiday mean {pre_mean:.3f}, holiday min {holiday.min():.3f}, "
             f"peak {peak_val:.3f} at {days_after_shock}d after shock, "
             f"end gap {end_gap:.3f}, elevated tertiary {dur3}d vs secondary "
             f"{dur2}d, {shape_run.elapsed:.0f}s")


def random_firmday_panel(rng):
    n_firms = int(rng.integers(2, 9))
    n_off = int(rng.integers(3, 9))
    sectors, districts = [], []
    ele, mu_r = np.empty((2, n_firms, n_off))
    for k in range(n_firms):
        sectors.append(SECTOR_CODES[int(rng.integers(len(SECTOR_CODES)))])
        districts.append(DISTRICT_CODES[int(rng.integers(len(DISTRICT_CODES)))])
        for off in range(n_off):
            ele[k, off] = rng.uniform(0.1, 50.0)
            mu_r[k, off] = rng.uniform(0.0, 1.0)
    return FirmDayPanel(np.arange(n_off), ele, mu_r, sectors, districts)


def test_criterion_7_aggregation_identities():
    rng = np.random.default_rng(700)
    worst_part = worst_scale = 0.0
    for _ in range(1000):
        panel = random_firmday_panel(rng)
        agg = ecu_grouped(panel, "none")[0]

        # partition consistency: sector pieces recombine to the aggregate
        for group_by in ("sector", "district"):
            parts = ecu_grouped(panel, group_by)
            num = np.zeros(len(agg.offsets))
            den = np.zeros(len(agg.offsets))
            for s in parts:
                w = s.total_weight
                num += np.where(w > 0, np.nan_to_num(s.ecu) * w, 0.0)
                den += w
            worst_part = max(worst_part, float(np.abs(num / den - agg.ecu).max()))

        # scale invariance: common weight factor cancels
        lam = float(rng.uniform(0.25, 8.0))
        scaled = replace(panel, ele=panel.ele * lam)
        scaled_agg = ecu_grouped(scaled, "none")[0]
        worst_scale = max(worst_scale, float(np.abs(scaled_agg.ecu - agg.ecu).max()))
    ok = worst_part <= 1e-12 and worst_scale <= 1e-12
    _verdict(7, "aggregation identities on 1000 random panels", ok,
             f"max partition err {worst_part:.2e}, max scale err {worst_scale:.2e}")


def test_criterion_8_classification_sanity(shape_run):
    labels = truth_labels(shape_run.panel)
    rec, non = [], []
    for r in shape_run.results:
        lab = labels[r.firm_id]
        mu = r.filtered.mu_r
        rec.append(mu[lab])
        non.append(mu[~lab])
    rec_mean = float(np.concatenate(rec).mean())
    non_mean = float(np.concatenate(non).mean())
    ok = rec_mean - non_mean >= 0.4
    _verdict(8, "mean mu_r separates truth recession days", ok,
             f"recession-day mean {rec_mean:.3f}, other-day mean {non_mean:.3f}, "
             f"gap {rec_mean - non_mean:.3f} (need >= 0.4)")
