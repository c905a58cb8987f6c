"""EM of the two-regime HMM on a stream of deviation rows, a batch at a time, bit for bit as
``em_fit``.

``em_rows`` runs ``hmm``'s one E-step and one M-step (``_e_step_rows``, ``_m_step_rows``),
which ``em_fit`` runs on one row, on a batch: the recursions run side by side on (m,) vectors
and each weighted sum is a per-row BLAS dot, so every row rounds as it would alone.  A row
that leaves the batch makes room for the next one waiting, and ``_em_tail`` hands a stream's
last rows to ``em_fit``; a stream can instead hand its last rows back, each with its EM state,
its model's numbers and a log-likelihood trace as long as its update count, for a later
stream to finish.  A row's model is its column of the batch's (12, m) array, the 12 numbers
``em_fit`` keeps between its steps, those of ``RegimeModel.numbers`` and of a ``models.csv``
row.  A finished start's outcome is numbers too, not a ``FitReport``: its ``models.csv`` row,
trace and filter.  Only the fit imports this module, so the other stages do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from . import hmm
from .config import RunConfig
from .hmm import RegimeModel, _converged, _e_step_rows, _finish, _m_step_rows, sigma_floor
from .preprocess import DeviationSeries


SCALAR_ROWS = 16  # em_fit finishes a stream's last rows once this many or fewer still run


def em_rows(ys: np.ndarray, starts, width: int, tol=RunConfig.em_tol,
            max_iter=RunConfig.em_max_iter, offsets=None, hand_back=-1):
    """``em_fit`` on rows of the (n, T) grid ``ys``: ``starts`` yields (key, row of ``ys``,
    init), each key hashable and distinct, and each start's row is fitted from its init, a
    model or the state (its 12 numbers, trace, None) in which a stream handed it back, in a
    batch of at most ``width`` rows whose recursions run side by side as row vectors.

    ``starts`` is read as the batch has room, so a start's init is only made when its row
    joins.  Each row takes ``em_fit``'s operations in ``em_fit``'s order, so each start's
    outcome, yielded as (key, outcome) after the batch step that ends it, is ``em_fit``'s on
    ``DeviationSeries(offsets, row)`` (row if no offsets) alone, bit for bit: its exception, or
    ``hmm._finish``'s (row, trace, filter), whose ``hmm._fit_report`` is ``em_fit``'s report.
    Given a ``hand_back`` of 0 or more, once no start waits and at most ``max(hand_back,
    SCALAR_ROWS)`` rows run, each is yielded as (key, its state), its filter None, and the
    stream ends, never calling ``em_fit``; else once ``SCALAR_ROWS`` or fewer run, ``em_fit``
    itself finishes them, so a stream of that many starts or fewer takes one batch E-step.
    """
    ys = np.asarray(ys, dtype=float)
    starts = iter(starts)
    waiting = next(starts, None)
    T = ys.shape[1]
    t = np.arange(1, T + 1, dtype=float)
    last = max(hand_back, SCALAR_ROWS) if hand_back >= 0 else -1  # most running rows handed back
    out: dict = {}  # per key of a start that the last batch step finished, its outcome
    keys, rows, floors, traces = [], [], [], []  # per batch row
    model = np.empty((12, 0))  # per batch row its 12 numbers (``_views``)
    pool = np.empty(8 * width * T)  # the batch's rows and its E-step's buffers
    while True:
        yield from out.items()
        out.clear()
        if waiting is None and len(rows) <= last:
            yield from zip(keys, zip(model.T.tolist(), traces, [None] * len(keys)))
            return
        joining = []
        while waiting is not None and len(rows) < width:
            key, row, init = waiting
            numbers, trace = (init.numbers(), []) if isinstance(init, RegimeModel) else init[:2]
            joining.append(numbers)
            keys.append(key)
            rows.append(row)
            floors.append(sigma_floor(ys[row]))
            traces.append(list(trace))
            waiting = next(starts, None)
        if joining:
            model = np.concatenate((model, np.array(joining).T), axis=1)
        if not rows:
            return
        m = len(rows)
        y = pool[:m * T].reshape(m, T)
        np.take(ys, rows, axis=0, out=y, mode="clip")  # clip: unbuffered
        logliks, filtered, gamma, xi, errors = _e_step_rows(y, t, model, pool[m * T:], offsets)
        running = []
        for j, trace in enumerate(traces):
            if errors[j] is None and not math.isfinite(logliks[j]):
                errors[j] = RuntimeError("non-finite log-likelihood during EM")
            if errors[j] is not None:
                out[keys[j]] = errors[j]
                continue
            trace.append(logliks[j])
            updates = len(trace) - 1
            converged = _converged(trace, updates, tol, max_iter)
            if converged or updates >= max_iter:
                try:
                    out[keys[j]] = _finish(model[:, j], floors[j], filtered[:, :, j], trace,
                                           converged)
                except ValueError as exc:
                    out[keys[j]] = exc
            else:
                running.append(j)
        if waiting is None and hand_back < 0 and len(running) <= SCALAR_ROWS:
            kept = []
            for j in running:
                try:
                    init = RegimeModel.from_numbers(model[:, j])
                except ValueError:  # em_fit checks q and pi0 only at the end
                    kept.append(j)
                    continue
                out[keys[j]] = _em_tail(ys[rows[j]], offsets, init, traces[j], tol, max_iter)
            running = kept
        stepped = []
        if running:  # the M-step's temporaries go where the E-step's densities and filter were
            model, failures = _m_step_rows(y, t, gamma, xi, model, np.array(floors),
                                           pool[m * T:5 * m * T].reshape(2, m, 2, T))
            out.update((keys[j], failures[j]) for j in running if failures[j] is not None)
            stepped = [j for j in running if failures[j] is None]
        model = model.take(stepped, axis=1)
        keys, rows, floors, traces = ([x[j] for j in stepped]
                                      for x in (keys, rows, floors, traces))


def _em_tail(y: np.ndarray, offsets, init: RegimeModel, trace: list, tol, max_iter):
    """The row's fit by ``hmm.em_fit`` (looked up on the module, so that a wrapper set there sees
    it) from the model its ``len(trace) - 1`` updates reached, as ``hmm._finish``'s (row, trace,
    filter), its trace joined to ``trace``; or its error."""
    try:
        tail = hmm.em_fit(y if offsets is None else DeviationSeries(offsets, y), init, tol=tol,
                          max_iter=max_iter + 1 - len(trace))
    except (ValueError, RuntimeError) as exc:  # RuntimeError: FilterDegeneracyError, EM failure
        return exc
    joined = trace[:-1] + tail.loglik_trace.tolist()  # the tail's trace starts at the batch's last
    return ([*tail.model.numbers(), joined[-1], float(tail.converged), float(tail.degenerate)],
            joined, tail.filter.filtered)
