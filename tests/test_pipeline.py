"""Tests for the panel-level fit driver and its per-firm pieces."""

import concurrent.futures
import itertools
import math
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from ecuindex import hmm, hmmbatch, pipeline
from ecuindex.cli import main
from ecuindex.config import RunConfig, build_run_config
from ecuindex.hmm import FilterDegeneracyError
from ecuindex.panelio import write_panel
from ecuindex.pipeline import (
    build_firmday_panel,
    fit_outputs,
    fit_panel,
    read_fit_outputs,
    reference_totals,
)
from ecuindex.preprocess import DeviationSeries, KwhPanel, preprocess_grid
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
    alone on a one-row grid; raises the fit's reason for refusing it."""
    y, ele_test, ele_ref, (error,) = preprocess_grid(panel_of([record]), cfg)
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
    """Stand a recorder in for the process pool on ``cpus`` usable CPUs; returns the sizes of
    the pools started and the firm count of each job they were given."""
    pools, jobs = [], []

    class Recorder:
        """Stands in for the process pool: records its size and jobs, runs its initializer and
        fits in this process."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            assert mp_context.get_start_method() == "fork"  # initargs are inherited, not pickled
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            jobs.extend(rows.stop - rows.start for rows, *_ in args)
            return itertools.starmap(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(pipeline, "_SHARED", [])  # the in-process initializer fills it
    return pools, jobs


@pytest.mark.parametrize("cpus,firms,started", [(64, 3, 3), (2, 6, 2), (1, 6, None), (2, 40, 2)])
def test_fit_panel_pool_is_capped_by_firms_and_cpus(run_cfg, monkeypatch, cpus, firms, started):
    """``workers=500`` starts at most one process per firm and per usable CPU, or no pool; the
    pool runs one job per process, the jobs' shares of the firms differing by at most one."""
    panel = panel_of(panel_records(n_firms=firms))
    pools, jobs = record_pools(monkeypatch, cpus)
    results, _ = fit_panel(panel, run_cfg, workers=500)
    assert pools == ([] if started is None else [started])
    if started is not None:
        assert sum(jobs) == firms and max(jobs) - min(jobs) <= 1
        assert len(jobs) == started
    serial, _ = fit_panel(panel, run_cfg, workers=1)
    def fits(rs):
        return [(r.firm_id, r.report.model.params, r.report.loglik_trace.tolist()) for r in rs]

    assert fits(results) == fits(serial)


def test_a_pool_job_writes_its_layers_and_sends_back_no_length_t_array(run_cfg, monkeypatch):
    """A pool job, run here on rows 2..5 of six, writes their layers into the shared array as a
    serial fit computes them, and its reply pickles to under half of T float64s per firm, so
    no firm-day array travels back."""
    panel = panel_of(panel_records(n_firms=6))
    days = 2 * run_cfg.span + 1
    out = np.zeros((len(pipeline.FIRMDAY_LAYERS), len(panel), days))
    monkeypatch.setattr(pipeline, "_SHARED", [panel, run_cfg, out])
    fitted, skipped = reply = pipeline._fit_share(slice(2, 6))
    assert [record[0] for record in fitted] == [2, 3, 4, 5] and skipped == []
    serial = fit_outputs(fit_panel(panel, run_cfg, workers=1)[0]).firmdays
    np.testing.assert_array_equal(out[:, 2:], serial[:, 2:])
    np.testing.assert_array_equal(out[:, :2], 0.0)
    assert len(pickle.dumps(reply)) / len(fitted) < days * 8 / 2


def test_a_pool_pickles_no_panel_and_leaves_no_process(records, run_cfg, monkeypatch):
    """The pool's workers inherit the panel by fork, so pickling one fails here; once
    ``fit_panel`` returns, no worker and no resource tracker is left."""
    def refuse(panel, protocol):
        raise AssertionError("a KwhPanel was pickled")

    monkeypatch.setattr(KwhPanel, "__reduce_ex__", refuse, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    results, skipped = fit_panel(panel_of(records), run_cfg, workers=2)
    assert len(results) == len(records) and skipped == []
    children = f"/proc/self/task/{os.getpid()}/children"
    if os.path.exists(children):
        with open(children) as fh:
            assert fh.read().split() == []


def test_serial_fit_panel_is_one_job_whose_em_batch_refills(run_cfg, monkeypatch):
    """A serial fit runs ``_fit_block`` once, on the whole panel, and its EM batch never holds
    more than ``EM_BLOCK`` rows: ten firms pass through a batch of four."""
    panel = panel_of(panel_records(n_firms=10))
    blocks, widths = [], []
    fit_block, e_step_rows = pipeline._fit_block, hmmbatch._e_step_rows

    def recording_fit_block(block, cfg, out):
        blocks.append(len(block))
        return fit_block(block, cfg, out)

    def recording_e_step_rows(y, *args):
        widths.append(len(y))
        return e_step_rows(y, *args)

    monkeypatch.setattr(pipeline, "_fit_block", recording_fit_block)
    monkeypatch.setattr(hmmbatch, "_e_step_rows", recording_e_step_rows)
    monkeypatch.setattr(pipeline, "EM_BLOCK", 4)
    monkeypatch.setattr(hmmbatch, "SCALAR_ROWS", 0)
    results, skipped = fit_panel(panel, run_cfg, workers=1)
    assert blocks == [10] and len(results) + len(skipped) == 10
    assert max(widths) == pipeline.EM_BLOCK


def test_fit_panel_workers_default_to_the_config(records, monkeypatch):
    pools, _ = record_pools(monkeypatch, cpus=2)
    fit_panel(panel_of(records[:2]), build_run_config({"workers": "2"}))
    assert pools == [2]


@pytest.mark.parametrize("workers", [1, 2])
def test_fit_panel_of_no_firms_fits_nothing_and_starts_no_pool(run_cfg, monkeypatch, workers):
    pools, _ = record_pools(monkeypatch, cpus=2)
    empty = KwhPanel([], [], [], np.datetime64("2019-01-01"), np.zeros(0, np.intp),
                     np.zeros(0, np.intp), np.empty((0, 0)))
    assert fit_panel(empty, run_cfg, workers=workers) == ([], [])
    assert pools == []


def test_fit_of_a_header_only_panel_fails_cleanly(tmp_path, capsys):
    (tmp_path / "panel.csv").write_text("firm_id,date,kwh,sector_code,district_code\r\n")
    assert main(["fit", "--out", str(tmp_path)]) == 1
    assert "no firm could be fitted (0 skipped)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]


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
    em_fit = hmm.em_fit

    def failing_em_fit(dev, *args, **kwargs):
        if np.array_equal(dev.y, bad_y):
            raise error
        return em_fit(dev, *args, **kwargs)

    monkeypatch.setattr(hmm, "em_fit", failing_em_fit)
    results, skipped = fit_panel(panel_of(three), run_cfg)
    assert [r.firm_id for r in results] == [three[0].firm_id, three[2].firm_id]
    assert skipped == [(bad, str(error))]


def test_firm_with_a_failed_start_is_skipped_with_its_first_failure(records, monkeypatch):
    """With multi-start, a firm any of whose starts fails is skipped, with the message of its
    first failure in init order."""
    cfg = build_run_config({"multi_start": "1"})
    three = records[:3]
    both, random_only = (preprocess_firm(r, cfg)[0].y for r in three[:2])
    em_fit = hmm.em_fit

    def failing_em_fit(dev, init, **kwargs):
        deterministic = init.q[0, 0] == 0.95  # init_params' sticky transitions
        if (np.array_equal(dev.y, both)
                or np.array_equal(dev.y, random_only) and not deterministic):
            raise RuntimeError(f"{'deterministic' if deterministic else 'random'} init fails")
        return em_fit(dev, init, **kwargs)

    monkeypatch.setattr(hmm, "em_fit", failing_em_fit)
    results, skipped = fit_panel(panel_of(three), cfg)
    assert [r.firm_id for r in results] == [three[2].firm_id]
    assert skipped == [(three[0].firm_id, "deterministic init fails"),
                       (three[1].firm_id, "random init fails")]


def fit_bits(panel, cfg, workers=1):
    """Every fitted firm's report, arrays as their bytes, from a fit that skips no firm."""
    results, skipped = fit_panel(panel, cfg, workers=workers)
    assert skipped == []
    return [(r.firm_id, r.report.iterations, r.report.converged, r.report.degenerate,
             r.report.loglik_trace.tobytes(), r.filtered.filtered.tobytes(),
             r.report.model.q.tobytes(), r.report.model.pi0.tobytes(), r.report.model.params)
            for r in results]


def test_a_wrapper_on_hmm_em_fit_sees_the_tail_and_changes_no_fit(run_cfg, monkeypatch):
    """A serial fit calls ``em_fit`` through the ``hmm`` module for the last rows of its EM
    stream only, so a wrapper set there, as the benchmark's tracer sets one, times each of
    them and changes nothing."""
    panel = panel_of(panel_records(n_firms=hmmbatch.SCALAR_ROWS + 4))
    plain, calls, em_fit = fit_bits(panel, run_cfg), [], hmm.em_fit

    def counting_em_fit(*args, **kwargs):
        calls.append(args[0])
        return em_fit(*args, **kwargs)

    monkeypatch.setattr(hmm, "em_fit", counting_em_fit)
    assert fit_bits(panel, run_cfg) == plain
    assert 1 <= len(calls) <= hmmbatch.SCALAR_ROWS


@pytest.fixture(scope="module")
def flat_among_ordinary(run_cfg):
    """Firm F00001 of acceptance criterion 5's null panel, renamed F00003-flat, fifth of eleven
    firms with ten ordinary ones; returns the panel, its id and its fits at the default sizes."""
    null = PanelConfig(n_firms=40, seed=5, weekly_amplitude=0.0, annual_amplitude=0.0,
                       noise_frac=0.0, missing_rate=0.0, outlier_rate=0.0,
                       shock_depth={code: 0.0 for code in DEFAULT_SECTOR_MIX})
    flat = replace(records_of(generate(null).panel)[1], firm_id="F00003-flat")
    dev = preprocess_firm(flat, run_cfg)[0]
    assert not hmm.em_fit(dev, hmm.init_params(dev)).degenerate  # only its flatness flags it
    panel = panel_of(panel_records(n_firms=10) + [flat])
    assert panel.firm_ids[4] == flat.firm_id
    return panel, flat.firm_id, fit_bits(panel, run_cfg)


@pytest.mark.parametrize("em_block", [1, 3, 16, 64])
def test_a_flat_firm_among_ordinary_ones_alone_is_degenerate(run_cfg, flat_among_ordinary,
                                                             monkeypatch, em_block):
    """Flatness is decided a preprocessing grid at a time for the grid's rows: at any block size
    and worker count, the flat firm, wherever it falls in its grid, is the one degenerate fit,
    and every fit is the default run's bit for bit."""
    panel, flat_id, default = flat_among_ordinary
    assert [bits[0] for bits in default if bits[3]] == [flat_id]
    monkeypatch.setattr(pipeline, "EM_BLOCK", em_block)
    for workers in (1, 2):
        assert fit_bits(panel, run_cfg, workers) == default


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


def fit_alone(record, cfg):
    """The record's fit report, from fitting a one-firm panel."""
    (result,), skipped = fit_panel(panel_of([record]), cfg)
    assert skipped == []
    return result.report


def test_multi_start_is_deterministic_and_no_worse(records, run_cfg):
    single = fit_alone(records[0], run_cfg)
    cfg_ms = RunConfig(multi_start=3, seed=run_cfg.seed)
    a = fit_alone(records[0], cfg_ms)
    b = fit_alone(records[0], cfg_ms)
    assert a.model.params == b.model.params
    assert a.loglik_trace[-1] >= single.loglik_trace[-1] - 1e-9


def test_fit_deviation_prefers_deterministic_init_on_ties(records, run_cfg):
    # a clean series converges to the same optimum from every start, so the
    # deterministic init must win and multi_start output must match single
    single = fit_alone(records[0], run_cfg)
    multi = fit_alone(records[0], RunConfig(multi_start=2, seed=0))
    if multi.loglik_trace[-1] <= single.loglik_trace[-1] + 1e-9:
        assert multi.model.params == single.model.params
