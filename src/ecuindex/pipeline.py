"""Panel orchestration: a kWh panel in, fitted models and index inputs out.

``fit_panel`` preprocesses a ``KwhPanel``'s firm x day grid into the deviations and the
cleaned consumption that weights the index, layers of one firm-day array, the ``firmdays`` of
the fit's ``panelio.FitOutputs``, whose rows the results are, and drops the grid.  One job,
``_fit_block``, or in a process pool one per worker on a contiguous share of the rows, fits them
by EM in a batch of ``EM_BATCH`` rows that refills as rows converge (``hmm.em_rows``, the stream
that ``hmm.em_fit`` runs one row wide, and which hands its last rows to ``em_fit``) and writes
each row's causal filter (EM's last forward pass) into the array.  EM's outcomes are rows of
``models.csv``, not ``FitReport``s, and a job folds them into one record per row as they arrive
(``_fold``): its best fit, whose row and filter go straight into the arrays, and its first
failure.  A pool job returns what a serial one does, its records and the EM states of the rows
it hands back, which the parent finishes for every job in one stream and folds in (``_drain``),
so a fit pays one drain of small batch steps at any worker count.  A firm's results depend
only on its own row and the run settings, not on the other firms in its job nor the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import hmm
from .config import RunConfig
from .ecu import FirmDayPanel
from .hmm import _fit_report, init_params, random_init
from .panelio import FIRMDAY_LAYERS, MODELS_HEADER, FitOutputs
from .preprocess import DeviationSeries, KwhPanel, firm_rng, preprocess_grid


@dataclass(frozen=True)
class FirmFitResult:
    """Row ``k`` of ``fit``, read as views, and the firm's EM log-likelihood ``trace``."""

    fit: FitOutputs
    k: int
    trace: list

    report = cached_property(lambda r: _fit_report(  # built once read, its filter a view too
        [*r.fit.models[r.k], r.fit.converged[r.k], r.fit.degenerate[r.k]], r.trace,
        r.fit.firmdays[1:3, r.k].T))

    firm_id = property(lambda r: r.fit.firm_ids[r.k])
    sector_code = property(lambda r: r.fit.sector_codes[r.k])
    district_code = property(lambda r: r.fit.district_codes[r.k])
    deviation = property(lambda r: DeviationSeries(r.fit.offsets, r.fit.firmdays[0, r.k]))
    ele_test = property(lambda r: r.fit.firmdays[3, r.k])  # cleaned test-window kWh: ECU weights
    ele_ref = property(lambda r: r.fit.firmdays[4, r.k])  # the reference window's: sRPI baseline
    filtered = property(lambda r: r.report.filter)  # the fitted model's causal filter


EM_BLOCK = 64  # most rows in a preprocessing grid, about 15 arrays of 545 days a row
# most rows in an EM batch, 8 planes of 191 days (12 KB) a row: most of a batch E-step's cost
# is fixed (3.7 ms at 64 rows and 4.4 ms at 128 on a 2-vCPU VM), and 200 rows raised a 200-firm
# fit's peak RSS by 1.5%, 128 rows not at all
EM_BATCH = 128
_SHARED = []  # in a pool worker, the (firm_ids, cfg, errors, out, models) it inherited by fork


def _fit_block(rows: range, firm_ids: list, cfg: RunConfig, errors: list, out: np.ndarray,
               models: np.ndarray, hand_back=-1) -> tuple:
    """Fit by EM each of the ``rows`` of ``out[0]`` that preprocessing kept (``errors[k]`` None)
    in a batch of at most ``EM_BATCH`` rows, writing row k's filter into ``out[1:3, k]`` and its
    ``models.csv`` row into ``models[k]``; returns ``_fold``'s records, (None, (0, message)) for
    a row refused or whose init fails (the message put in ``errors[k]``), and the states that
    the EM stream hands back, given a ``hand_back`` of 0 or more, as ``hmm.em_rows`` says.

    EM starts from the deterministic init and from ``multi_start`` random inits drawn from the
    firm's stream 3, each made as its row joins the EM batch and keyed (row, start index).
    """
    offsets, y = np.arange(-cfg.span, cfg.span + 1), out[0]

    def starts():  # (key (row, start), row, init) per EM start; a failed init goes to errors
        for k in rows:
            if errors[k] is not None:
                continue
            rng = firm_rng(cfg.seed, firm_ids[k], 3) if cfg.multi_start > 0 else None
            try:
                dev = DeviationSeries(offsets, y[k])
                inits = [init_params(dev)] + [random_init(dev, rng)
                                              for _ in range(cfg.multi_start)]
            except (ValueError, RuntimeError) as exc:
                errors[k] = str(exc)
                continue
            yield from (((k, i), k, init) for i, init in enumerate(inits))

    records = {}
    states = _fold(records, hmm.em_rows(y, starts(), EM_BATCH, cfg.em_tol, cfg.em_max_iter,
                                        offsets, hand_back), out, models)
    records.update((k, (None, (0, errors[k]))) for k in rows if errors[k] is not None)
    return records, states


def _fold(records: dict, outcomes, out: np.ndarray, models: np.ndarray) -> list:
    """Fold EM ``outcomes`` keyed (k, start) into ``records``, one (best, failure) per row k,
    in any order of arrival: its best fit as (start, trace), the first in init order of the
    highest final log-likelihoods (so multi_start=0 output is kept whenever it is already the
    best), its row written into ``models[k]`` and its filter into ``out[1:3, k]``; and its first
    failure in init order as (start, message).  Returns the handed-back states, unfolded."""
    states = []
    for (k, i), outcome in outcomes:
        best, failed = records.get(k, (None, None))
        if isinstance(outcome, Exception):
            if failed is None or i < failed[0]:
                records[k] = best, (i, str(outcome))
        elif outcome[2] is None:  # a handed-back state: (numbers, trace, None)
            states.append(((k, i), outcome))
        # a higher final log-likelihood, or as high from an earlier start
        elif best is None or (outcome[1][-1], best[0]) > (best[1][-1], i):
            models[k], out[1:3, k] = outcome[0], outcome[2].T  # now, so that few filters are held
            records[k] = (i, outcome[1]), failed
    return states


def _fit_share(rows: range, hand_back: int) -> tuple:
    """A pool job: ``_fit_block`` on a share of the rows, in the arrays the worker inherited; each
    fit's filter and row are in the shared arrays, so only numbers and messages are sent back."""
    return _fit_block(rows, *_SHARED, hand_back)


def _drain(replies: list[tuple], cfg: RunConfig, out: np.ndarray, models: np.ndarray) -> dict:
    """The pool's records: those of its jobs, each row a single job's, into which the states of
    all jobs, finished in one ``em_rows`` stream, one drain of small batch steps and one
    ``em_fit`` tail, are folded."""
    records, states = {}, []
    for job_records, job_states in replies:
        records.update(job_records)
        states += [(key, key[0], state) for key, state in job_states]
    _fold(records, hmm.em_rows(out[0], states, EM_BATCH, cfg.em_tol, cfg.em_max_iter,
                               np.arange(-cfg.span, cfg.span + 1)), out, models)
    return records


def fit_panel(panel: KwhPanel, cfg: RunConfig,
              workers: int | None = None) -> tuple[list[FirmFitResult], list[tuple[str, str]]]:
    """Fit every firm; returns (results, rows of one ``FitOutputs``; skipped (id, reason)) by id.

    Phase one preprocesses the panel's grid, ``EM_BLOCK`` rows at a time, into the ``y``,
    ``ele_test`` and ``ele_ref`` layers of one (5, firms, T) array and one refusal per row, then
    drops the call's reference to the panel, so that a grid only it holds is freed before EM.
    Phase two is one job, ``_fit_block``, on all the rows in a serial run, and in a pool on one
    share per worker, the shares differing by at most one row.  The jobs write the filter layers
    of the array, the table's ``firmdays`` once skipped rows are squeezed out in place, and one
    (firms, 15) array of ``models.csv`` rows, the table's models and flags; a pool's are
    anonymous shared mappings that the forked workers inherit with the ids and refusals, so
    none is pickled, and a dead worker (``ChildProcessError``) leaves nothing to clean up.  The
    parent finishes the last ``min(EM_BATCH // workers, share // 2)`` rows of each job, or the
    last ``hmm.SCALAR_ROWS`` if that is more, in one ``_drain``.  A firm whose series
    cannot cover the windows or whose fit fails numerically is skipped with a diagnostic, and a
    flat one's fit is degenerate: its deviations lie within 1e-8 of (1 plus) its mean
    test-window kWh, far above the 1e-13 residual the rolling sums leave where both years
    match, and below any real change.
    ``workers`` defaults to ``cfg.workers``; a pool has at most one process per firm and CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cfg.workers if workers is None else workers, n := len(panel), cpus or 1))
    shape = (len(FIRMDAY_LAYERS), n, 2 * cfg.span + 1)
    table = (n, len(MODELS_HEADER) - 3)  # a models.csv row's numbers and flags
    if workers > 1:
        import mmap  # only a pool run pays for this import
    out, models = (np.ndarray(dims, buffer=mmap.mmap(-1, 8 * int(np.prod(dims)))) if workers > 1
                   else np.empty(dims) for dims in (shape, table))
    errors = [None] * n  # phase one: the y, ele_test and ele_ref layers, and each row's refusal
    for part in (slice(at, at + EM_BLOCK) for at in range(0, n, EM_BLOCK)):
        out[0, part], out[3, part], out[4, part], errors[part] = preprocess_grid(panel[part], cfg)
    ids, codes = panel.firm_ids, (panel.sector_codes, panel.district_codes)
    del panel  # phase two, EM, needs none of the grid
    if workers <= 1:
        records, _ = _fit_block(range(n), ids, cfg, errors, out, models)
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from multiprocessing import get_context
        shares = [range(n * k // workers, n * (k + 1) // workers) for k in range(workers)]
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                     initializer=_SHARED.extend,
                                     initargs=((ids, cfg, errors, out, models),)) as pool:
                replies = list(pool.map(_fit_share, shares, [
                    min(EM_BATCH // workers, len(s) // 2) for s in shares]))
        except BrokenExecutor as exc:
            raise ChildProcessError(f"the fit's process pool broke: {exc}") from None
        records = _drain(replies, cfg, out, models)
    rows, skipped = [], []
    for k, (best, failed) in sorted(records.items()):
        if failed:
            skipped.append((ids[k], failed[1]))
            continue
        if np.abs(out[0, k]).max() <= 1e-8 * (1.0 + np.abs(out[3, k]).mean()):
            models[k, 14] = 1.0  # a flat firm's fit is degenerate
        rows.append(k)
    # row i of the (5, fitted, T) prefix of out is row k of layer i // m, at or after it
    rowwise, m = out.reshape(-1, shape[2]), len(rows)
    for i, k in enumerate(rows * shape[0] if m < n else ()):
        rowwise[i] = rowwise[i // m * n + k]
    fitted = models[rows]
    fit = FitOutputs(*([column[k] for k in rows]  # reached only through a result: m > 0
                       for column in (ids, *codes)),
                     fitted[:, :13].copy(), fitted[:, 13] == 1.0, fitted[:, 14] == 1.0,
                     rowwise[:shape[0] * m].reshape(shape[0], m, shape[2]))
    return [FirmFitResult(fit, j, records[k][0][1]) for j, k in enumerate(rows)], skipped


def fit_outputs(results: Iterable[FirmFitResult]) -> FitOutputs:
    """One fit's ``results`` as a table in id order: the fit's own for all its rows, else a copy."""
    results = sorted(results, key=lambda r: r.k)
    if any(r.fit is not results[0].fit for r in results):
        raise ValueError("the results are rows of more than one fit")
    if not results:
        return FitOutputs([], [], [], np.empty((0, len(MODELS_HEADER[3:-2]))),
                          *np.zeros((2, 0), dtype=bool), np.empty((len(FIRMDAY_LAYERS), 0, 1)))
    fit, rows = results[0].fit, [r.k for r in results]
    if rows == list(range(len(fit.firm_ids))):
        return fit
    return FitOutputs(*([c[k] for k in rows] for c in (fit.firm_ids, fit.sector_codes,
                                                        fit.district_codes)),
                      *(a[rows] for a in (fit.models, fit.converged, fit.degenerate)),
                      fit.firmdays[:, rows])


# bench/run.py calls these two; they go once fit_panel returns a FitOutputs
def build_firmday_panel(results: list[FirmFitResult]) -> FirmDayPanel:
    return fit_outputs(results).panel


def reference_totals(results: list[FirmFitResult]) -> np.ndarray:
    return fit_outputs(results).reference_totals
