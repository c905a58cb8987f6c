"""Panel orchestration: a kWh panel in, fitted models and index inputs out.

``fit_panel`` runs one job, ``_fit_block``, on a ``KwhPanel``'s whole firm x day grid or, in a
process pool, one per worker on a contiguous share of its rows.  A job preprocesses its rows,
fits them by EM in a batch that refills as rows converge (``hmmbatch.em_rows``), and writes each
row's deviations, causal filter (EM's last forward pass) and the cleaned consumption that weights
the index into one firm-day array.  A pool job hands its last running rows back with their EM
states, and the parent finishes those of every job in one stream (``_drain``), so a fit pays
one drain of small batch steps at any worker count; a reply holds the models of its fits and
its states alike as 12 numbers (``RegimeModel.numbers``).  A firm's results depend only on its
own row and the run settings, not on the other firms in its job nor the worker count.
``fit_outputs`` turns the results into the fit's product, one ``panelio.FitOutputs`` table.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import hmmbatch
from .config import RunConfig
from .ecu import FirmDayPanel
from .hmm import FilterOutput, FitReport, RegimeModel, init_params, random_init
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


def _fit_block(block: KwhPanel, cfg: RunConfig, out: np.ndarray, hand_back=-1) -> list[tuple]:
    """Preprocess a block of the panel's rows on grids of at most ``EM_BLOCK`` rows and fit each
    row it keeps by EM in a batch of at most ``EM_BATCH`` rows, writing row k's
    ``FIRMDAY_LAYERS`` into ``out[:, k]``; returns ``_gather``'s (k, start, outcome) list and
    (k, 0, message) per row refused or whose init fails.  With a ``hand_back`` of 0 or more, the
    EM stream hands back the rows still running as ``hmmbatch.em_rows`` says.

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

    fits = list(_gather(hmmbatch.em_rows(y, starts(), EM_BATCH, cfg.em_tol, cfg.em_max_iter,
                                         offsets, hand_back),
                        defaultdict(lambda: 1 + cfg.multi_start), out))
    return fits + [(k, 0, e) for k, e in enumerate(errors) if e is not None]


def _gather(outcomes, waiting, out: np.ndarray):
    """Once ``waiting[k]`` EM ``outcomes`` keyed (k, start) are in, yield (k, start, outcome)
    for what decides row k: its first failure in init order, as a message, else its best fit,
    the first of the highest final log-likelihoods (so multi_start=0 output is kept whenever it
    is already the best), its filter written into and held as ``out[1:3, k]``; and each
    handed-back state before the failure.  A flat firm's fit is degenerate: its deviations lie
    within 1e-8 of (1 plus) its mean test-window kWh, far above the 1e-13 residual the rolling
    sums leave where both years match, and below any real change."""
    known = {}
    for (k, i), fit in outcomes:
        known.setdefault(k, {})[i] = fit
        waiting[k] -= 1
        if waiting[k]:
            continue
        fits = sorted(known.pop(k).items())  # in init order
        first = next((j for j, (_, fit) in enumerate(fits)
                      if not isinstance(fit, (FitReport, tuple))), len(fits))
        done = [(i, fit) for i, fit in fits if isinstance(fit, FitReport)]
        if first < len(fits):
            yield k, fits[first][0], str(fits[first][1])
        elif done:
            i, best = max(done, key=lambda pair: pair[1].loglik_trace[-1])  # the first of equal
            out[1:3, k] = best.filter.filtered.T  # now, so that few rows' filters are held
            flat = np.abs(out[0, k]).max() <= 1e-8 * (1.0 + np.abs(out[3, k]).mean())
            yield k, i, FitReport(best.model, FilterOutput(out[1:3, k].T, best.loglik_trace[-1]),
                                  best.iterations, best.loglik_trace, best.converged,
                                  best.degenerate or bool(flat))
        yield from ((k, i, fit) for i, fit in fits[:first] if isinstance(fit, tuple))


def _fit_share(rows: slice, hand_back: int) -> tuple:
    """A pool job: ``_fit_block`` on a share of the panel's rows, its fits and handed-back
    states packed as (k, start, count) ints, (n, 12) model numbers, flags (converged,
    degenerate, handed back) and one array of traces with their lengths, none length T."""
    panel, cfg, out = _SHARED
    fits = [(rows.start + k, i, fit)
            for k, i, fit in _fit_block(panel[rows], cfg, out[:, rows], hand_back)]
    kept = [(k, i, fit.iterations, fit.model.numbers(), fit.loglik_trace, fit.converged,
             fit.degenerate, False) if isinstance(fit, FitReport)
            else (k, i, fit[2], fit[0], fit[1], False, False, True)  # (numbers, trace, count)
            for k, i, fit in fits if not isinstance(fit, str)]
    k, i, counts, numbers, traces, *flags = zip(*kept) if kept else [()] * 8
    return (np.array([k, i, counts], dtype=np.intp), np.array(numbers).reshape(-1, 12),
            np.array(flags, dtype=bool), np.concatenate([[], *traces]),
            np.array([len(t) for t in traces], dtype=np.intp),
            [fit for fit in fits if isinstance(fit[2], str)])


def _drain(replies: list[tuple], cfg: RunConfig, out: np.ndarray) -> list[tuple]:
    """The pool's (k, start, outcome) list, each fit's filter the view of ``out`` its job wrote,
    after the states of all jobs finish in one ``em_rows`` stream, one drain of small batch
    steps and one ``em_fit`` tail, and each row that had one is gathered again."""
    fits = []
    for ints, numbers, flags, traces, lengths, failed in replies:
        fits += failed
        for (k, i, count), row, (converged, degenerate, running), trace in zip(
                ints.T.tolist(), numbers, flags.T.tolist(),
                np.split(traces, np.cumsum(lengths)[:-1])):
            fits.append((k, i, (row, trace.tolist(), count) if running else FitReport(
                RegimeModel.from_numbers(row), FilterOutput(out[1:3, k].T, trace[-1]), count,
                trace, converged, degenerate)))
    running = {k for k, _, fit in fits if isinstance(fit, tuple)}
    pending = [((k, i), fit) for k, i, fit in fits if k in running]
    states = [(key, key[0], fit) for key, fit in pending if isinstance(fit, tuple)]
    drained = hmmbatch.em_rows(out[0], states, EM_BATCH, cfg.em_tol, cfg.em_max_iter,
                               np.arange(-cfg.span, cfg.span + 1))
    outcomes = [(key, fit) for key, fit in pending if not isinstance(fit, tuple)] + [*drained]
    return ([fit for fit in fits if fit[0] not in running]
            + list(_gather(outcomes, Counter(k for (k, _), _ in pending), out)))


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
    cover the windows or whose fit fails numerically is skipped with a diagnostic.  ``workers``
    defaults to ``cfg.workers``; a pool has at most one process per firm and CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cfg.workers if workers is None else workers, len(panel), cpus or 1))
    offsets = np.arange(-cfg.span, cfg.span + 1)
    shape = (len(FIRMDAY_LAYERS), len(panel), len(offsets))
    if workers <= 1:
        fits = _fit_block(panel, cfg, out := np.empty(shape))
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
        fits = _drain(replies, cfg, out)
    fits.sort(key=lambda fit: fit[0])
    return ([FirmFitResult(panel.firm_ids[k], panel.sector_codes[k], panel.district_codes[k],
                           DeviationSeries(offsets, out[0, k]), fit, out[3, k], out[4, k])
             for k, _, fit in fits if not isinstance(fit, str)],
            [(panel.firm_ids[k], fit) for k, _, fit in fits if isinstance(fit, str)])


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
