"""Tests for the panel-level fit driver and its per-firm pieces."""

import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from ecuindex import hmm, pipeline
from ecuindex.cli import main
from ecuindex.config import RunConfig, build_run_config
from ecuindex.hmm import FilterDegeneracyError
from ecuindex.panelio import write_panel
from ecuindex.pipeline import (
    _preprocess_panel,
    build_firmday_panel,
    fit_deviation,
    fit_outputs,
    fit_panel,
    read_fit_outputs,
    reference_totals,
)
from ecuindex.preprocess import DeviationSeries, KwhPanel
from ecuindex.sectors import DEFAULT_SECTOR_MIX
from ecuindex.simgen import PanelConfig, generate
from firm_records import FirmRecord, panel_of, records_of
from hmm_helpers import forward_filter
from preprocess_oracle import RawSeries


def panel_records(n_firms=6, seed=11, **overrides):
    cfg = PanelConfig(n_firms=n_firms, seed=seed,
                      noise_frac=overrides.pop("noise_frac", 0.06), **overrides)
    return records_of(generate(cfg).panel)


@pytest.fixture(scope="module")
def records():
    return panel_records()


@pytest.fixture(scope="module")
def run_cfg():
    return build_run_config({})


def constant_record(firm_id="FLAT1", level=300.0):
    dates = np.arange("2018-11-01", "2020-04-29", dtype="datetime64[D]")
    return FirmRecord(firm_id, "301", "D01",
                      RawSeries(dates, np.full(len(dates), level)))


def preprocess_firm(record, cfg):
    """The record's deviation series and unsmoothed (ele_test, ele_ref) windows, preprocessed
    alone as the fit preprocesses it; raises the fit's reason for refusing it."""
    y, ele_test, ele_ref, (error,) = _preprocess_panel(panel_of([record]), cfg)
    if error is not None:
        raise ValueError(error)
    return DeviationSeries(np.arange(-cfg.span, cfg.span + 1), y[0]), ele_test[0], ele_ref[0]


def test_preprocess_firm_shapes(records, run_cfg):
    dev, ele_test, ele_ref = preprocess_firm(records[0], run_cfg)
    np.testing.assert_array_equal(dev.offsets, np.arange(-95, 96))
    assert len(ele_test) == 191
    assert np.all(ele_test >= 0)
    assert np.all(ele_ref >= 0)


def test_preprocess_firm_insufficient_coverage_raises(run_cfg):
    dates = np.arange("2019-10-01", "2020-04-29", dtype="datetime64[D]")
    rec = FirmRecord("SHORT", "301", "D01",
                     RawSeries(dates, np.full(len(dates), 10.0)))
    with pytest.raises(ValueError, match="does not cover"):
        preprocess_firm(rec, run_cfg)


def test_fit_firm_outputs(records, run_cfg):
    (res,), skipped = fit_panel(panel_of(records[:1]), run_cfg)
    assert skipped == []
    assert res.firm_id == records[0].firm_id
    assert res.report.converged
    sums = res.filtered.filtered.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert len(res.ele_test) == len(res.deviation.offsets)


def test_fit_panel_runs_one_forward_pass_per_e_step(records, run_cfg, monkeypatch):
    """The filtered pairs come from EM's last E-step: no extra forward pass per firm."""
    calls = []
    forward = hmm._forward

    def counted(*args, **kwargs):
        calls.append(None)
        return forward(*args, **kwargs)

    monkeypatch.setattr(hmm, "_forward", counted)
    results, skipped = fit_panel(panel_of(records), run_cfg)
    assert skipped == []
    assert len(calls) == sum(len(r.report.loglik_trace) for r in results)


def test_fit_panel_sorted_and_complete(records, run_cfg):
    results, skipped = fit_panel(panel_of(records), run_cfg)
    assert skipped == []
    assert [r.firm_id for r in results] == sorted(r.firm_id for r in records)


@pytest.mark.parametrize("multi_start", [0, 2])
def test_fit_panel_worker_count_is_invisible(records, run_cfg, multi_start):
    cfg = replace(run_cfg, multi_start=multi_start)
    serial, _ = fit_panel(panel_of(records), cfg, workers=1)
    parallel, _ = fit_panel(panel_of(records), cfg, workers=2)
    assert len(serial) == len(parallel) == len(records)
    for a, b in zip(serial, parallel):
        assert a.firm_id == b.firm_id
        assert a.report.model.params == b.report.model.params
        np.testing.assert_array_equal(a.filtered.filtered, b.filtered.filtered)
        np.testing.assert_array_equal(a.ele_test, b.ele_test)


def record_pools(monkeypatch, cpus):
    """Stand a recorder in for the process pool on ``cpus`` usable CPUs; returns its sizes."""
    pools = []

    class Recorder:
        """Stands in for the process pool: records its size and fits in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return pools


@pytest.mark.parametrize("cpus,firms,started", [(64, 3, 3), (2, 6, 2), (1, 6, None)])
def test_fit_panel_pool_is_capped_by_firms_and_cpus(records, run_cfg, monkeypatch, cpus, firms,
                                                    started):
    """``workers=500`` starts one process per firm and per usable CPU at most, or no pool."""
    pools = record_pools(monkeypatch, cpus)
    results, _ = fit_panel(panel_of(records[:firms]), run_cfg, workers=500)
    assert pools == ([] if started is None else [started])
    serial, _ = fit_panel(panel_of(records[:firms]), run_cfg, workers=1)
    def fits(rs):
        return [(r.firm_id, r.report.model.params, r.report.loglik_trace.tolist()) for r in rs]

    assert fits(results) == fits(serial)


def test_fit_panel_workers_default_to_the_config(records, monkeypatch):
    pools = record_pools(monkeypatch, cpus=2)
    fit_panel(panel_of(records[:2]), build_run_config({"workers": "2"}))
    assert pools == [2]


def test_fit_panel_skips_uncovered_firm(records, run_cfg):
    dates = np.arange("2019-12-01", "2020-02-01", dtype="datetime64[D]")
    bad = FirmRecord("ZSHORT", "301", "D01",
                     RawSeries(dates, np.full(len(dates), 5.0)))
    results, skipped = fit_panel(panel_of(records + [bad]), run_cfg)
    assert len(results) == len(records)
    assert len(skipped) == 1
    assert skipped[0][0] == "ZSHORT"
    assert "does not cover" in skipped[0][1]


def test_fit_panel_skips_all_missing_firm(records, run_cfg):
    dates = np.arange("2018-11-01", "2020-04-29", dtype="datetime64[D]")
    bad = FirmRecord("ZNAN", "301", "D01",
                     RawSeries(dates, np.full(len(dates), np.nan)))
    results, skipped = fit_panel(panel_of(records + [bad]), run_cfg)
    assert len(results) == len(records)
    assert skipped[0][0] == "ZNAN"
    assert "nothing to interpolate" in skipped[0][1]


def test_fit_panel_skips_firms_on_a_grid_without_days(run_cfg):
    """Firms with no readings on a grid of no columns are skipped, each with its reason."""
    panel = KwhPanel(["A", "B"], ["301", "301"], ["D01", "D01"], np.datetime64("2019-01-01"),
                     np.zeros(2, np.intp), np.zeros(2, np.intp), np.empty((2, 0)))
    empty = "cannot detect outliers in an empty series"
    assert fit_panel(panel, run_cfg) == ([], [("A", empty), ("B", empty)])


@pytest.mark.parametrize("error", [FilterDegeneracyError("filter degeneracy at offset 7"),
                                   RuntimeError("non-finite log-likelihood during EM")])
def test_fit_panel_skips_firm_whose_em_fails(records, run_cfg, monkeypatch, error):
    three = records[:3]
    bad = three[1].firm_id
    bad_y = preprocess_firm(three[1], run_cfg)[0].y
    em_fit = pipeline.em_fit

    def failing_em_fit(dev, *args, **kwargs):
        if np.array_equal(dev.y, bad_y):
            raise error
        return em_fit(dev, *args, **kwargs)

    monkeypatch.setattr(pipeline, "em_fit", failing_em_fit)
    results, skipped = fit_panel(panel_of(three), run_cfg)
    assert [r.firm_id for r in results] == [three[0].firm_id, three[2].firm_id]
    assert skipped == [(bad, str(error))]


def test_degenerate_firm_contributes_zero(run_cfg):
    results, skipped = fit_panel(panel_of([constant_record()]), run_cfg)
    assert skipped == []
    assert results[0].report.degenerate
    panel = build_firmday_panel(results)
    np.testing.assert_array_equal(panel.mu_r, 0.0)


def test_firmday_panel_columns(records, run_cfg):
    results, _ = fit_panel(panel_of(records), run_cfg)
    panel = build_firmday_panel(results)
    assert len(panel) == len(records) * 191
    np.testing.assert_array_equal(panel.offsets, np.arange(-95, 96))
    # one row per firm, in id order
    assert panel.ele.shape == (len(records), 191)
    assert list(panel.sector_code) == [r.sector_code for r in results]
    assert list(panel.district_code) == [r.district_code for r in results]
    # weights are the cleaned unsmoothed consumption from the test window
    for row, result in zip(panel.ele, results):
        np.testing.assert_array_equal(row, result.ele_test)


def test_reference_totals_are_exact_sums(records, run_cfg):
    results, _ = fit_panel(panel_of(records), run_cfg)
    totals = reference_totals(results)
    assert totals.shape == (191,)  # offsets -95..95
    want = math.fsum(float(r.ele_ref[0]) for r in results)
    assert totals[0] == want


def test_fit_files_load_to_the_library_panel(tmp_path):
    """``ecuindex fit`` then ``read_fit_outputs`` gives exactly the library's ``fit_outputs``."""
    panel = panel_of(panel_records(n_firms=3) + [constant_record()])
    write_panel(tmp_path / "panel.csv", panel)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"panel = {tmp_path / 'panel.csv'}\n")
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0

    results, skipped = fit_panel(panel, build_run_config({}))
    assert skipped == [] and any(r.report.degenerate for r in results)
    want = fit_outputs(results)
    fit = read_fit_outputs(tmp_path)
    assert list(fit.models) == list(want.models)
    for firm_id, row in want.models.items():
        got = fit.models[firm_id]
        for name in ("firm_id", "sector_code", "district_code", "loglik", "converged",
                     "degenerate"):
            assert getattr(got, name) == getattr(row, name), (firm_id, name)
        # models.csv holds every entry of q and pi0, not 1 - x for the second of each pair
        assert got.model.q.tobytes() == row.model.q.tobytes(), firm_id
        assert got.model.pi0.tobytes() == row.model.pi0.tobytes(), firm_id
        assert got.model.params == row.model.params
    assert (fit.firmdays.dtype, fit.firmdays.shape) == (want.firmdays.dtype, want.firmdays.shape)
    assert fit.firmdays.tobytes() == want.firmdays.tobytes()  # bit for bit
    wrapped = build_firmday_panel(results)
    for col in ("offsets", "ele", "mu_r", "sector_code", "district_code"):
        got, exp = getattr(fit.panel, col), getattr(want.panel, col)
        assert got.dtype == exp.dtype, col
        np.testing.assert_array_equal(got, exp, err_msg=col)
        np.testing.assert_array_equal(got, getattr(wrapped, col), err_msg=col)
    assert fit.reference_totals.tobytes() == want.reference_totals.tobytes()
    assert fit.reference_totals.tobytes() == reference_totals(results).tobytes()


def test_filter_rerun_from_read_back_models_reproduces_firmdays(tmp_path):
    """``forward_filter`` under each model read back from ``models.csv`` reproduces the firm's
    ``mu_p`` and ``mu_r`` layers of ``firmdays.npy`` bit for bit."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n_firms = 12\nseed = 4\nshock_onset_jitter = 10\nmissing_rate = 0.02\n")
    for stage in ("simulate", "fit"):
        assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    fit = read_fit_outputs(tmp_path)
    y, mu_p, mu_r = fit.firmdays[:3]
    offsets = np.arange(y.shape[1]) - y.shape[1] // 2
    for k, (firm_id, row) in enumerate(fit.models.items()):
        out = forward_filter(DeviationSeries(offsets, y[k]), row.model)
        assert out.mu_p.tobytes() == mu_p[k].tobytes(), firm_id
        assert out.mu_r.tobytes() == mu_r[k].tobytes(), firm_id


def test_multi_start_is_deterministic_and_no_worse(records, run_cfg):
    dev = preprocess_firm(records[0], run_cfg)[0]
    single = fit_deviation(dev, run_cfg, records[0].firm_id)
    cfg_ms = RunConfig(multi_start=3, seed=run_cfg.seed)
    a = fit_deviation(dev, cfg_ms, records[0].firm_id)
    b = fit_deviation(dev, cfg_ms, records[0].firm_id)
    assert a.model.params == b.model.params
    assert a.loglik_trace[-1] >= single.loglik_trace[-1] - 1e-9


def test_fit_deviation_prefers_deterministic_init_on_ties(records, run_cfg):
    # a clean series converges to the same optimum from every start, so the
    # deterministic init must win and multi_start output must match single
    dev = preprocess_firm(records[0], run_cfg)[0]
    single = fit_deviation(dev, run_cfg, records[0].firm_id)
    multi = fit_deviation(dev, RunConfig(multi_start=2, seed=0), records[0].firm_id)
    if multi.loglik_trace[-1] <= single.loglik_trace[-1] + 1e-9:
        assert multi.model.params == single.model.params
