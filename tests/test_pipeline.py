"""Tests for the panel-level fit driver and its per-firm pieces."""

import concurrent.futures
import itertools
import math
import mmap
import os
import pickle
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ecuindex import hmm, panelio, pipeline
from ecuindex.cli import main
from ecuindex.config import DEFAULT_SECTOR_MIX, RunConfig, build_run_config
from ecuindex.hmm import FilterDegeneracyError, FitReport, RegimeModel
from ecuindex.panelio import read_fit_outputs, read_panel, write_fit_outputs, write_panel
from ecuindex.pipeline import build_firmday_panel, fit_outputs, fit_panel, reference_totals
from ecuindex.preprocess import DeviationSeries, KwhPanel, preprocess_grid
from ecuindex.simgen import PanelConfig, generate
from firm_records import FirmRecord, panel_of, records_of
from hmm_helpers import forward_filter
from preprocess_oracle import RawSeries
from test_hmm import handed_back


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
    """The filtered pairs come from EM's last E-step: no extra forward pass per firm.  Each
    row of an E-step of the fit's ``EM_BATCH``-wide stream, which here runs every row to the
    end (``SCALAR_ROWS`` 0, so no ``em_fit`` stream starts), is one entry of a fitted firm's
    trace."""
    calls = []
    e_step = hmm._e_step_rows

    def counted(y, *args, **kwargs):
        calls.extend([None] * len(y))
        return e_step(y, *args, **kwargs)

    monkeypatch.setattr(hmm, "_e_step_rows", counted)
    monkeypatch.setattr(hmm, "SCALAR_ROWS", 0)
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


def kinds_in(x):
    """The types of the values in ``x``, through its dicts, lists and tuples."""
    if isinstance(x, (dict, list, tuple)):
        for item in (x.items() if isinstance(x, dict) else x):
            yield from kinds_in(item)
    else:
        yield type(x)


def preprocessed(panel, cfg, rows=slice(None)):
    """``fit_panel``'s first phase on ``rows`` of ``panel``: a zeroed (5, firms, T) firm-day
    array whose ``y``, ``ele_test`` and ``ele_ref`` layers hold those rows preprocessed, and one
    refusal per firm, None outside ``rows``."""
    out = np.zeros((len(panelio.FIRMDAY_LAYERS), len(panel), 2 * cfg.span + 1))
    errors = [None] * len(panel)
    out[0, rows], out[3, rows], out[4, rows], errors[rows] = preprocess_grid(panel[rows], cfg)
    return out, errors


def on_fit_streams(monkeypatch, wrapper):
    """Set ``hmm.em_rows`` to pass the fit's ``EM_BATCH``-wide streams through ``wrapper``, a
    generator of a stream's outcomes given the stream; ``em_fit``'s streams, one row wide,
    pass as they are."""
    em_rows = hmm.em_rows

    def routed(ys, starts, width, *args, **kwargs):
        stream = em_rows(ys, starts, width, *args, **kwargs)
        return wrapper(stream) if width == pipeline.EM_BATCH else stream

    monkeypatch.setattr(hmm, "em_rows", routed)


def test_a_pool_job_writes_its_layers_and_sends_back_no_length_t_array(run_cfg, monkeypatch):
    """A pool job, run here on rows 2..5 of six that the first phase preprocessed, hands back
    its last two rows (no ``em_fit`` tail comes first), which the parent's drain finishes: the
    layers and ``models.csv`` rows in the shared arrays are those a serial fit computes, no
    other row is written, and the job's reply holds only numbers, strings and None in dicts,
    lists and tuples (no array, ``FitReport``, ``RegimeModel`` or ``FilterOutput``), and
    pickles to under half of T float64s per firm."""
    panel = panel_of(panel_records(n_firms=6))
    days = 2 * run_cfg.span + 1
    out, errors = preprocessed(panel, run_cfg, slice(2, 6))
    models = np.zeros((len(panel), len(panelio.MODELS_HEADER) - 3))
    monkeypatch.setattr(pipeline, "_SHARED", [panel.firm_ids, run_cfg, errors, out, models])
    monkeypatch.setattr(hmm, "SCALAR_ROWS", 0)
    reply = pipeline._fit_share(range(2, 6), 2)
    records, states = reply
    ks = [*records, *(k for (k, _), _ in states)]
    assert sorted(ks) == [2, 3, 4, 5] and len(states) == 2
    assert [failed for _, failed in records.values()] == [None] * len(records)
    assert set(kinds_in(reply)) <= {int, float, str, type(None)}
    size = len(pickle.dumps(reply))
    records = pipeline._drain([reply], run_cfg, out, models)
    assert sorted(k for k, (best, _) in records.items() if isinstance(best[1], list)) == [
        2, 3, 4, 5]
    serial = fit_outputs(fit_panel(panel, run_cfg, workers=1)[0])
    np.testing.assert_array_equal(out[:, 2:], serial.firmdays[:, 2:])
    np.testing.assert_array_equal(out[:, :2], 0.0)
    np.testing.assert_array_equal(models[2:6], serial.models[2:6])
    np.testing.assert_array_equal(models[:2], 0.0)
    assert size / 4 < days * 8 / 2


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pooled_fit_that_drains_handed_back_starts_is_the_serial_fit(run_cfg, monkeypatch,
                                                                        workers):
    """With multi_start 2, pool jobs hand their last starts back, among them starts of firms
    whose other starts the job finished, and the parent drains them in one stream: the fitted
    rows, the layers and the skip messages are the serial fit's, bit for bit.  ``SCALAR_ROWS``
    is cut to 4, at most the hand-back counts of these small shares (6 and 4), so that no job
    hands its last starts to ``em_fit`` before its count is reached."""
    cfg = replace(run_cfg, multi_start=2)
    monkeypatch.setattr(hmm, "SCALAR_ROWS", 4)
    dates = np.arange("2019-12-01", "2020-02-01", dtype="datetime64[D]")
    short = FirmRecord("F00005-short", "301", "D01", RawSeries(dates, np.full(len(dates), 5.0)))
    panel = panel_of(sorted(panel_records(n_firms=24) + [short], key=lambda r: r.firm_id))
    serial, serial_skipped = fit_panel(panel, cfg, workers=1)
    streams = []

    def recording(stream):
        streams.append(list(stream))
        yield from streams[-1]

    on_fit_streams(monkeypatch, recording)
    pools, _ = record_pools(monkeypatch, cpus=workers)
    results, skipped = fit_panel(panel, cfg, workers=workers)
    assert pools == [workers] and len(streams) == workers + 1  # the jobs, then one drain
    mixed = 0
    for stream in streams[:-1]:
        handed = {k for (k, _), out in stream if handed_back(out)}
        mixed += len(handed & {k for (k, _), out in stream if not handed_back(out)})
    assert mixed and len(streams[-1]) == sum(
        handed_back(out) for stream in streams[:-1] for _, out in stream)

    def bits(rs):
        return [(r.firm_id, r.report.iterations, r.report.converged, r.report.degenerate,
                 r.report.loglik_trace.tobytes(), r.report.model.q.tobytes(),
                 r.report.model.pi0.tobytes(), r.report.model.params) for r in rs]

    assert bits(results) == bits(serial) and len(serial) == 24
    assert skipped == serial_skipped and [s[0] for s in skipped] == ["F00005-short"]
    np.testing.assert_array_equal(fit_outputs(results).firmdays, fit_outputs(serial).firmdays)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_fit_builds_no_report_until_one_is_read(records, run_cfg, monkeypatch, workers):
    """Without an ``em_fit`` tail, a serial fit and a pool's jobs and drain build no
    ``FitReport``, counted in a shared mapping that forked workers write too; reading a result's
    ``report`` builds one, and reading it or its filter again builds no other."""
    built = np.ndarray(1, dtype=np.int64, buffer=mmap.mmap(-1, 8))
    built[0] = 0

    def counting_fit_report(*args, **kwargs):
        built[0] += 1
        return FitReport(*args, **kwargs)

    monkeypatch.setattr(hmm, "FitReport", counting_fit_report)
    monkeypatch.setattr(hmm, "SCALAR_ROWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    results, skipped = fit_panel(panel_of(records), run_cfg, workers=workers)
    assert len(results) == len(records) and skipped == []
    assert built[0] == 0
    report = results[0].report
    assert built[0] == 1 and report.iterations == len(results[0].trace) - 1
    assert results[0].report is report and results[0].filtered is report.filter
    assert built[0] == 1


def test_a_pool_pickles_no_panel_and_leaves_no_process(records, run_cfg, monkeypatch):
    """The pool's workers inherit the preprocessed firm-day array by fork and need no panel, so
    pickling one fails here; once ``fit_panel`` returns, no worker and no resource tracker is
    left."""
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


@pytest.mark.parametrize("workers", [1, 2])
def test_the_kwh_grid_is_freed_before_em_starts(tmp_path, run_cfg, monkeypatch, workers):
    """``fit_panel`` preprocesses the panel, then drops its reference to it: a panel that only
    the call holds, as ``cmd_fit`` passes it, has its kWh grid freed before the first EM stream
    starts, in a serial fit and in a pool's jobs and drain, and a pool keeps no ``KwhPanel``
    for its workers."""
    write_panel(tmp_path / "panel.csv", panel_of(panel_records(n_firms=6)))
    grids, alive, grid = [], [], pipeline.preprocess_grid

    def recording_grid(block, cfg):
        grids.append(weakref.ref(block.kwh.base))
        return grid(block, cfg)

    def recording(stream):
        alive.append([ref() is not None for ref in grids])
        yield from stream

    monkeypatch.setattr(pipeline, "preprocess_grid", recording_grid)
    on_fit_streams(monkeypatch, recording)
    pools, _ = record_pools(monkeypatch, cpus=2)
    results, skipped = fit_panel(read_panel(tmp_path / "panel.csv"), run_cfg, workers=workers)
    assert len(results) == 6 and skipped == []
    assert pools == ([] if workers == 1 else [2])
    assert alive == [[False]] * (1 if workers == 1 else 3)  # one stream, or two jobs and a drain
    assert not any(isinstance(x, KwhPanel) for x in pipeline._SHARED)


def record_serial_fit(monkeypatch, run_cfg, n_firms, em_block, em_batch):
    """A workers=1 fit of ``n_firms`` firms at the given grid size and batch width, handing no
    row to ``em_fit``; returns the row count of each ``_fit_block`` job, of each preprocessing
    grid and of each batch E-step."""
    blocks, grids, widths = [], [], []
    fit_block, grid, e_step_rows = pipeline._fit_block, pipeline.preprocess_grid, \
        hmm._e_step_rows

    def recording_fit_block(rows, *args):
        blocks.append(len(rows))
        return fit_block(rows, *args)

    def recording_grid(block, cfg):
        grids.append(len(block))
        return grid(block, cfg)

    def recording_e_step_rows(y, *args):
        widths.append(len(y))
        return e_step_rows(y, *args)

    monkeypatch.setattr(pipeline, "_fit_block", recording_fit_block)
    monkeypatch.setattr(pipeline, "preprocess_grid", recording_grid)
    monkeypatch.setattr(hmm, "_e_step_rows", recording_e_step_rows)
    monkeypatch.setattr(pipeline, "EM_BLOCK", em_block)
    monkeypatch.setattr(pipeline, "EM_BATCH", em_batch)
    monkeypatch.setattr(hmm, "SCALAR_ROWS", 0)
    results, skipped = fit_panel(panel_of(panel_records(n_firms=n_firms)), run_cfg, workers=1)
    assert len(results) + len(skipped) == n_firms
    return blocks, grids, widths


def test_serial_fit_panel_is_one_job_whose_em_batch_refills(run_cfg, monkeypatch):
    """A serial fit runs ``_fit_block`` once, on the whole panel, and its EM batch never holds
    more than ``EM_BATCH`` rows: ten firms, preprocessed on one grid, pass through a batch of
    four."""
    blocks, grids, widths = record_serial_fit(monkeypatch, run_cfg, 10, em_block=64, em_batch=4)
    assert blocks == [10] and grids == [10]
    assert max(widths) == 4


def test_serial_fit_panel_preprocesses_on_grids_of_em_block_rows(run_cfg, monkeypatch):
    """The preprocessing grid is bounded by ``EM_BLOCK`` alone: with grids of four rows and a
    batch of ten, ten firms take grids of 4, 4 and 2, and the first E-step holds all ten."""
    blocks, grids, widths = record_serial_fit(monkeypatch, run_cfg, 10, em_block=4, em_batch=10)
    assert blocks == [10] and grids == [4, 4, 2]
    assert widths[0] == 10


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
    panel = panel_of(panel_records(n_firms=hmm.SCALAR_ROWS + 4))
    plain, calls, em_fit = fit_bits(panel, run_cfg), [], hmm.em_fit

    def counting_em_fit(*args, **kwargs):
        calls.append(args[0])
        return em_fit(*args, **kwargs)

    monkeypatch.setattr(hmm, "em_fit", counting_em_fit)
    assert fit_bits(panel, run_cfg) == plain
    assert 1 <= len(calls) <= hmm.SCALAR_ROWS


def test_a_model_holds_python_floats_whichever_em_finished_it(run_cfg, monkeypatch):
    """A firm that ``em_fit`` finishes and one the batch finishes end as a ``models.csv`` row and
    a trace of Python floats, so ``_fit_block``'s records pickle to the same bytes, and its rows
    are the same, at any ``EM_BATCH``: with 80 firms and three EM updates each, a batch of 64
    hands its last 16 rows to ``em_fit``, one of 128 none."""
    panel = panel_of(panel_records(n_firms=80))
    cfg = replace(run_cfg, em_max_iter=3)
    tails, outcomes, em_fit = [], [], hmm.em_fit

    def counting_em_fit(*args, **kwargs):
        tails.append(args)
        return em_fit(*args, **kwargs)

    def recording(stream):
        for key, outcome in stream:
            outcomes.append(outcome)
            yield key, outcome

    monkeypatch.setattr(hmm, "em_fit", counting_em_fit)
    on_fit_streams(monkeypatch, recording)
    replies, tables, tail_rows = [], [], []
    for width in (64, 128):
        monkeypatch.setattr(pipeline, "EM_BATCH", width)
        tails.clear()
        outcomes.clear()
        models = np.empty((len(panel), 15))
        out, errors = preprocessed(panel, cfg)
        records, _ = pipeline._fit_block(range(len(panel)), panel.firm_ids, cfg, errors, out,
                                         models)
        assert sorted(k for k, (best, _) in records.items()
                      if isinstance(best[1], list)) == [*range(80)]
        assert len(outcomes) == 80
        assert {type(x) for row, trace, _ in outcomes for x in row + trace} == {float}
        replies.append(pickle.dumps(sorted(records.items())))
        tables.append(models)
        tail_rows.append(len(tails))
    assert tail_rows == [16, 0]
    assert replies[0] == replies[1]
    np.testing.assert_array_equal(tables[0], tables[1])


def test_a_row_is_decided_in_init_order_whatever_order_its_outcomes_arrive_in():
    """``_fold`` keeps a row's best fit, the first in init order of its highest final
    log-likelihoods, with that fit's filter in ``out``, and its first failure in init order, on
    which ``fit_panel`` skips the row, whichever outcome arrives first; a handed-back state
    passes back unfolded."""
    numbers, T = hmm.init_params(np.arange(5.0)).numbers(), 5

    def fit(loglik, p):  # a fit whose row starts with p and whose filter is (p, 1 - p)
        return ([p, *numbers[1:], loglik, 1.0, 0.0], [loglik - 1.0, loglik],
                np.full((T, 2), [p, 1.0 - p]))

    tied = [((0, 2), fit(-5.0, 0.3)), ((0, 0), fit(-6.0, 0.1)), ((0, 1), fit(-5.0, 0.2))]
    higher = [*tied, ((0, 3), fit(-4.0, 0.4))]
    failing = [((0, 3), ValueError("fourth fails")), ((0, 0), fit(-5.0, 0.1)),
               ((0, 1), RuntimeError("second fails")), ((0, 2), fit(-4.0, 0.3))]
    state = (np.arange(12.0).tolist(), [-7.0], None)
    for outcomes, start, p, failed in [(tied, 1, 0.2, None), (higher, 3, 0.4, None),
                                       (failing, 2, 0.3, (1, "second fails"))]:
        for arrival in itertools.permutations(outcomes):
            records, out, models = {}, np.zeros((5, 1, T)), np.zeros((1, 15))
            [(key, passed)] = pipeline._fold(records, [*arrival[:2], ((0, 9), state),
                                                       *arrival[2:]], out, models)
            assert key == (0, 9) and passed is state
            (kept, trace), failure = records.pop(0)
            assert (kept, trace, trace[-1], failure) == (
                start, dict(outcomes)[0, start][1], dict(outcomes)[0, start][0][12], failed)
            assert records == {}
            np.testing.assert_array_equal(out[1:3, 0].T, np.full((T, 2), [p, 1.0 - p]))
            np.testing.assert_array_equal(out[[0, 3, 4]], 0.0)
            np.testing.assert_array_equal(models[0], dict(outcomes)[0, start][0])


def test_a_firms_starts_are_gathered_by_key_not_by_arrival(records, monkeypatch):
    """``_fit_block`` groups a firm's multi-start fits by the key each start was given, so
    outcomes that arrive in reverse give the same fits, bit for bit."""
    cfg = build_run_config({"multi_start": "2"})
    panel = panel_of(records)
    plain, keys = fit_bits(panel, cfg), []

    def reversed_stream(stream):
        outcomes = list(stream)
        keys.extend(key for key, _ in reversed(outcomes))
        yield from reversed(outcomes)

    on_fit_streams(monkeypatch, reversed_stream)
    assert fit_bits(panel, cfg) == plain
    assert len(keys) == 3 * len(records) and keys != sorted(keys)


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
    for name in ("firm_ids", "sector_codes", "district_codes"):
        assert getattr(fit, name) == getattr(want, name), name
    # models.csv holds every entry of q and pi0, not 1 - x for the second of each pair
    for name in ("models", "converged", "degenerate", "firmdays"):
        got, exp = getattr(fit, name), getattr(want, name)
        assert (got.dtype, got.shape) == (exp.dtype, exp.shape), name
        assert got.tobytes() == exp.tobytes(), name  # bit for bit
    assert fit.degenerate.any()
    wrapped = build_firmday_panel(results)
    for col in ("offsets", "ele", "mu_r", "sector_code", "district_code"):
        got, exp = getattr(fit.panel, col), getattr(want.panel, col)
        assert got.dtype == exp.dtype, col
        np.testing.assert_array_equal(got, exp, err_msg=col)
        np.testing.assert_array_equal(got, getattr(wrapped, col), err_msg=col)
    assert fit.reference_totals.tobytes() == want.reference_totals.tobytes()
    assert fit.reference_totals.tobytes() == reference_totals(results).tobytes()


def test_fit_outputs_of_a_whole_fit_is_its_table_and_of_a_subset_a_copy(records, run_cfg):
    """Every result is a row of ``fit_panel``'s one table, its arrays views of that row; all the
    rows give the table itself, a subset a copy of its rows in id order, and rows of two fits
    are refused."""
    results, _ = fit_panel(panel_of(records), run_cfg)
    fit = fit_outputs(results[::-1])
    assert all(r.fit is fit for r in results) and [r.k for r in results] == [0, 1, 2, 3, 4, 5]
    for r in results:
        for view in (r.deviation.y, r.ele_test, r.ele_ref, r.filtered.filtered):
            assert np.shares_memory(view, fit.firmdays), r.firm_id
        assert r.filtered.filtered.T.tobytes() == fit.firmdays[1:3, r.k].tobytes()
    sub = fit_outputs([results[3], results[1]])
    assert sub.firm_ids == [results[1].firm_id, results[3].firm_id]
    assert sub.sector_codes == [fit.sector_codes[1], fit.sector_codes[3]]
    assert not np.shares_memory(sub.firmdays, fit.firmdays)
    assert sub.firmdays.tobytes() == fit.firmdays[:, [1, 3]].tobytes()
    for name in ("models", "converged", "degenerate"):
        assert getattr(sub, name).tobytes() == getattr(fit, name)[[1, 3]].tobytes(), name
    other, _ = fit_panel(panel_of(records), run_cfg)
    with pytest.raises(ValueError, match="the results are rows of more than one fit"):
        fit_outputs([results[0], other[1]])
    assert fit_outputs([]).firm_ids == [] and fit_outputs([]).firmdays.shape[:2] == (5, 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_skipped_rows_are_squeezed_out_of_the_fits_own_buffer(records, run_cfg, monkeypatch,
                                                              workers):
    """With a firm skipped mid-panel, the table's firm-day array is a C-ordered view of the
    (5, panel firms, T) array the fit wrote, and equals the fit of the other firms alone."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    dates = np.arange("2019-12-01", "2020-02-01", dtype="datetime64[D]")
    short = FirmRecord(records[2].firm_id + "-short", "301", "D01",
                       RawSeries(dates, np.full(len(dates), 5.0)))
    panel = panel_of(records + [short])
    assert panel.firm_ids[3] == short.firm_id
    results, skipped = fit_panel(panel, run_cfg, workers=workers)
    fit = fit_outputs(results)
    assert [firm_id for firm_id, _ in skipped] == [short.firm_id]
    assert fit.firmdays.flags.c_contiguous and fit.firmdays.base.shape == (5, len(panel), 191)
    alone = fit_outputs(fit_panel(panel_of(records), run_cfg, workers=1)[0])
    assert fit.firm_ids == alone.firm_ids
    for name in ("models", "converged", "degenerate", "firmdays"):
        assert getattr(fit, name).tobytes() == getattr(alone, name).tobytes(), name


@pytest.mark.parametrize("skip", [False, True])
def test_writing_a_fit_holds_no_second_firmday_array(tmp_path, skip):
    """``fit_outputs`` of a whole fit copies nothing and ``write_fit_outputs`` checks and saves
    the array where it lies, with or without a skipped firm: their traced peak stays far below
    the size of ``firmdays.npy``, where a copy of the array alone would reach it."""
    panel = generate(PanelConfig(n_firms=300, seed=3)).panel
    if skip:
        dates = np.arange("2019-12-01", "2020-02-01", dtype="datetime64[D]")
        panel = panel_of(records_of(panel) + [FirmRecord(
            panel.firm_ids[150] + "-short", "301", "D01", RawSeries(dates, np.ones(len(dates))))])
    results, skipped = fit_panel(panel, build_run_config({"em_max_iter": "1"}), workers=1)
    assert len(skipped) == skip and len(results) == 300
    tracemalloc.start()
    try:
        write_fit_outputs(tmp_path, fit_outputs(results))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "firmdays.npy").stat().st_size
    assert peak < 0.5 * size, peak / size


def test_checking_the_firmday_layers_holds_few_masks_at_once():
    """``write_fit_outputs`` and ``read_fit_outputs`` check the whole array; the check builds
    one rule's mask at a time, so its peak stays well below the array's own size."""
    rng = np.random.default_rng(0)
    mu_r = rng.random((2000, 191))
    layers = np.stack([rng.normal(size=mu_r.shape), 1.0 - mu_r, mu_r,
                       rng.uniform(0.0, 500.0, mu_r.shape), rng.uniform(0.0, 500.0, mu_r.shape)])
    firm_ids = [f"F{k:05d}" for k in range(2000)]
    tracemalloc.start()
    try:
        panelio._check_layers("firmdays.npy", firm_ids, layers.dtype, layers.shape, layers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.175 * layers.nbytes, peak / layers.nbytes

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
    for k, firm_id in enumerate(fit.firm_ids):
        model = RegimeModel.from_numbers(fit.models[k])
        out = forward_filter(DeviationSeries(offsets, y[k]), model)
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
