"""Panel orchestration: a kWh panel in, fitted models and index inputs out.

``fit_panel`` runs one job, ``_fit_block``, on a ``KwhPanel``'s whole firm x day grid or, in a
process pool, one per worker on a contiguous share of its rows.  A job preprocesses its rows,
fits them by EM in a batch that refills as rows converge (``hmmbatch.em_rows``), and writes each
row's deviations, causal filter (EM's last forward pass) and the cleaned consumption that weights
the index into one firm-day array.  A job folds EM's outcomes into one record per row as they
arrive (``_fold``): its best fit, whose filter goes straight into the array, and its first
failure.  A pool job returns what a serial one does, its records and the EM states of the rows
it hands back, which the parent finishes for every job in one stream and folds in (``_drain``),
so a fit pays one drain of small batch steps at any worker count.  A firm's results depend
only on its own row and the run settings, not on the other firms in its job nor the worker count.
``fit_outputs`` turns the results into the fit's product, one ``panelio.FitOutputs`` table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import hmmbatch
from .config import RunConfig
from .ecu import FirmDayPanel
from .hmm import FilterOutput, FitReport, init_params, random_init
from .panelio import FIRMDAY_LAYERS, MODELS_HEADER, FitOutputs
from .preprocess import DeviationSeries, KwhPanel, firm_rng, preprocess_grid


@dataclass(frozen=True)
class FirmFitResult:
    """Everything downstream stages need for one fitted firm."""

    firm_id: str
    sector_code: str
    district_code: str
    deviation: DeviationSeries
    report: FitReport
    ele_test: np.ndarray  # cleaned kWh over the test window, the ECU weights
    ele_ref: np.ndarray   # cleaned kWh over the reference window, for the sRPI baseline

    @property
    def filtered(self) -> FilterOutput:
        """The causal filter under the fitted model: EM's last forward pass."""
        return self.report.filter


EM_BLOCK = 64  # most rows in a preprocessing grid, about 15 arrays of 545 days a row
# most rows in an EM batch, 8 planes of 191 days (12 KB) a row: most of a batch E-step's cost
# is fixed (3.7 ms at 64 rows and 4.4 ms at 128 on a 2-vCPU VM), and 200 rows raised a 200-firm
# fit's peak RSS by 1.5%, 128 rows not at all
EM_BATCH = 128
_SHARED = []  # in a pool worker, the (panel, cfg, out) it inherited by fork


def _fit_block(block: KwhPanel, cfg: RunConfig, out: np.ndarray, hand_back=-1) -> tuple:
    """Preprocess a block of the panel's rows on grids of at most ``EM_BLOCK`` rows and fit each
    row it keeps by EM in a batch of at most ``EM_BATCH`` rows, writing row k's
    ``FIRMDAY_LAYERS`` into ``out[:, k]``; returns ``_fold``'s records, (None, (0, message))
    for a row refused or whose init fails, and the states that the EM stream hands back, given a
    ``hand_back`` of 0 or more, as ``hmmbatch.em_rows`` says.

    EM starts from the deterministic init and from ``multi_start`` random inits drawn from the
    firm's stream 3, each made as its row joins the EM batch and keyed (row, start index).
    """
    n, offsets = len(block), np.arange(-cfg.span, cfg.span + 1)
    y, errors = out[0], []
    for at in range(0, n, EM_BLOCK):
        part = slice(at, at + EM_BLOCK)
        y[part], out[3, part], out[4, part], part_errors = preprocess_grid(block[part], cfg)
        errors += part_errors

    def starts():  # (key (row, start), row, init) per EM start; a failed init goes to errors
        for k, error in enumerate(errors):
            if error is not None:
                continue
            rng = firm_rng(cfg.seed, block.firm_ids[k], 3) if cfg.multi_start > 0 else None
            try:
                dev = DeviationSeries(offsets, y[k])
                inits = [init_params(dev)] + [random_init(dev, rng)
                                              for _ in range(cfg.multi_start)]
            except (ValueError, RuntimeError) as exc:
                errors[k] = str(exc)
                continue
            yield from (((k, i), k, init) for i, init in enumerate(inits))

    records = {}
    states = _fold(records, hmmbatch.em_rows(y, starts(), EM_BATCH, cfg.em_tol, cfg.em_max_iter,
                                             offsets, hand_back), out)
    records.update((k, (None, (0, e))) for k, e in enumerate(errors) if e is not None)
    return records, states


def _fold(records: dict, outcomes, out: np.ndarray) -> list:
    """Fold EM ``outcomes`` keyed (k, start) into ``records``, one (best, failure) per row k,
    in any order of arrival: its best fit as (start, fit), the first in init order of the
    highest final log-likelihoods (so multi_start=0 output is kept whenever it is already the
    best), its filter written into ``out[1:3, k]`` and detached from the fit kept; and its first
    failure in init order as (start, message).  Returns the handed-back states, unfolded."""
    states = []
    for (k, i), fit in outcomes:
        if isinstance(fit, tuple):
            states.append(((k, i), fit))
            continue
        best, failed = records.get(k, (None, None))
        if not isinstance(fit, FitReport):
            if failed is None or i < failed[0]:
                records[k] = best, (i, str(fit))
        # a higher final log-likelihood, or as high from an earlier start
        elif best is None or (fit.loglik_trace[-1], best[0]) > (best[1].loglik_trace[-1], i):
            out[1:3, k] = fit.filter.filtered.T  # now, so that few rows' filters are held
            records[k] = (i, replace(fit, filter=None)), failed
    return states


def _fit_share(rows: slice, hand_back: int) -> tuple:
    """A pool job: ``_fit_block`` on a share of the panel's rows, its rows numbered as the
    panel's; each fit's filter is in the shared array, so no length-T array is sent back."""
    panel, cfg, out = _SHARED
    records, states = _fit_block(panel[rows], cfg, out[:, rows], hand_back)
    return ({rows.start + k: record for k, record in records.items()},
            [((rows.start + k, i), state) for (k, i), state in states])


def _drain(replies: list[tuple], cfg: RunConfig, out: np.ndarray) -> dict:
    """The pool's records: those of its jobs, each row a single job's, into which the states of
    all jobs, finished in one ``em_rows`` stream, one drain of small batch steps and one
    ``em_fit`` tail, are folded."""
    records, states = {}, []
    for job_records, job_states in replies:
        records.update(job_records)
        states += [(key, key[0], state) for key, state in job_states]
    _fold(records, hmmbatch.em_rows(out[0], states, EM_BATCH, cfg.em_tol, cfg.em_max_iter,
                                    np.arange(-cfg.span, cfg.span + 1)), out)
    return records


def fit_panel(panel: KwhPanel, cfg: RunConfig,
              workers: int | None = None) -> tuple[list[FirmFitResult], list[tuple[str, str]]]:
    """Fit every firm; returns (results sorted by firm id, skipped (id, reason) sorted by id).

    One job, ``_fit_block``, preprocesses and fits rows of the panel's grid: all of them in a
    serial run, and in a pool one share per worker, the shares differing by at most one row.
    They write into one (5, firms, T) array, of which each result's arrays are views; a pool's
    is an anonymous shared mapping that the forked workers inherit with the panel, so neither is
    pickled, and a dead worker (``ChildProcessError``) leaves nothing to clean up.  The parent
    finishes the last ``min(EM_BATCH // workers, share // 2)`` rows of each job, or the last
    ``hmmbatch.SCALAR_ROWS`` if that is more, in one ``_drain``.  A firm whose series cannot
    cover the windows or whose fit fails numerically is skipped with a diagnostic, and a flat
    one's fit is degenerate: its deviations lie within 1e-8 of (1 plus) its mean test-window
    kWh, far above the 1e-13 residual the rolling sums leave where both years match, and below
    any real change.  ``workers`` defaults to ``cfg.workers``; a pool has at most one process
    per firm and CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cfg.workers if workers is None else workers, len(panel), cpus or 1))
    offsets = np.arange(-cfg.span, cfg.span + 1)
    shape = (len(FIRMDAY_LAYERS), len(panel), len(offsets))
    if workers <= 1:
        records, _ = _fit_block(panel, cfg, out := np.empty(shape))
    else:
        import mmap  # only a pool run pays for these imports
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from multiprocessing import get_context
        out = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))
        shares = [slice(len(panel) * k // workers, len(panel) * (k + 1) // workers)
                  for k in range(workers)]
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                     initializer=_SHARED.extend,
                                     initargs=((panel, cfg, out),)) as pool:
                replies = list(pool.map(_fit_share, shares, [
                    min(EM_BATCH // workers, (s.stop - s.start) // 2) for s in shares]))
        except BrokenExecutor as exc:
            raise ChildProcessError(f"the fit's process pool broke: {exc}") from None
        records = _drain(replies, cfg, out)
    results, skipped = [], []
    for k, (best, failed) in sorted(records.items()):
        if failed:
            skipped.append((panel.firm_ids[k], failed[1]))
            continue
        fit = best[1]
        flat = np.abs(out[0, k]).max() <= 1e-8 * (1.0 + np.abs(out[3, k]).mean())
        report = replace(fit, filter=FilterOutput(out[1:3, k].T, fit.loglik_trace[-1]),
                         degenerate=fit.degenerate or bool(flat))
        results.append(FirmFitResult(panel.firm_ids[k], panel.sector_codes[k],
                                     panel.district_codes[k], DeviationSeries(offsets, out[0, k]),
                                     report, out[3, k], out[4, k]))
    return results, skipped


def fit_outputs(results: Iterable[FirmFitResult]) -> FitOutputs:
    """The table of ``results``, firms in id order, with their stacked firm-day array.

    Every firm's offsets must be the same ``-span..span``, so T is odd and implies them.
    """
    rs = sorted(results, key=lambda r: r.firm_id)
    span = len(rs[0].deviation.offsets) // 2 if rs else 0
    offsets = np.arange(-span, span + 1)
    layers = np.empty((len(FIRMDAY_LAYERS), len(rs), len(offsets)))
    models = np.empty((len(rs), len(MODELS_HEADER[3:-2])))
    for k, r in enumerate(rs):
        if not np.array_equal(r.deviation.offsets, offsets):
            raise ValueError(f"firm {r.firm_id}: offsets must run {-span}..{span} as the first "
                             "firm's do")
        layers[:, k] = r.deviation.y, r.filtered.mu_p, r.filtered.mu_r, r.ele_test, r.ele_ref
        models[k] = [*r.report.model.numbers(), r.report.loglik_trace[-1]]
    return FitOutputs([r.firm_id for r in rs], [r.sector_code for r in rs],
                      [r.district_code for r in rs], models,
                      np.array([r.report.converged for r in rs], dtype=bool),
                      np.array([r.report.degenerate for r in rs], dtype=bool), layers)


# bench/run.py calls these two; they go once fit_panel returns a FitOutputs
def build_firmday_panel(results: list[FirmFitResult]) -> FirmDayPanel:
    return fit_outputs(results).panel


def reference_totals(results: list[FirmFitResult]) -> np.ndarray:
    return fit_outputs(results).reference_totals
