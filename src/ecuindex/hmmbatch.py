"""EM of the two-regime HMM on a stream of deviation rows, a batch at a time, bit for bit as
``em_fit``.

``em_fit`` runs its forward and backward recursions on Python floats, one firm at a time.
``em_rows`` runs the same recursions across the rows of a batch: each step is a few numpy
operations on (m,) vectors with one entry per row, the same operations in the same order as
``em_fit``'s, so every row rounds as it would alone.  Its M-step, ``_m_step_rows``, is
``_m_step``'s arithmetic on the whole batch, each weighted sum a per-row BLAS dot.  A row that
leaves the batch makes room for the next one waiting, and ``_em_tail`` hands a stream's last
rows to ``em_fit``.  Only the fit imports this module, so the other stages do not compile it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import hmm
from .config import RunConfig
from .hmm import (_HALF_LOG_2PI, RegimeModel, RegimeParams, _converged, _degeneracy, _report,
                  sigma_floor)
from .preprocess import DeviationSeries


SCALAR_ROWS = 16  # em_fit finishes a stream's last rows once this many or fewer still run


def em_rows(ys: np.ndarray, starts, width: int, tol=RunConfig.em_tol,
            max_iter=RunConfig.em_max_iter, offsets=None):
    """``em_fit`` on rows of the (n, T) grid ``ys``: ``starts`` yields pairs (row of ``ys``,
    init model), and each pair's row is fitted from its model in a batch of at most ``width``
    rows whose recursions run side by side as row vectors.

    ``starts`` is read as the batch has room, so a pair's init is only made when its row
    joins.  Each row takes ``em_fit``'s operations in ``em_fit``'s order, so each pair's outcome,
    yielded with its index after the batch step that ends it, is ``em_fit``'s ``FitReport`` or
    exception on ``DeviationSeries(offsets, row)`` (row if no offsets) alone, bit for bit.
    Once no pair waits and ``SCALAR_ROWS`` or fewer rows still run, ``em_fit`` itself finishes
    them, so a stream of that many pairs or fewer takes one batch E-step.
    """
    ys = np.asarray(ys, dtype=float)
    starts = iter(starts)
    waiting = next(starts, None)
    T = ys.shape[1]
    t = np.arange(1, T + 1, dtype=float)
    out: dict = {}  # per pair that the last batch step finished, its outcome
    joined = 0  # pairs read from starts
    slots, rows, floors, traces, updates = [], [], [], [], []  # per batch row
    model = np.empty((12, 0))  # per batch row its q, alpha/beta/sigma and pi0 (``_views``)
    pool = np.empty(8 * width * T)  # the batch's rows and its E-step's buffers
    while True:
        yield from out.items()
        out.clear()
        with np.errstate(all="ignore"):  # a failing row's NaNs stay in its own column
            joining = []
            while waiting is not None and len(rows) < width:
                row, init = waiting
                joining.append(init)
                slots.append(joined)
                joined += 1
                rows.append(row)
                floors.append(sigma_floor(ys[row]))
                traces.append([])
                updates.append(0)
                waiting = next(starts, None)
            if joining:
                model = np.concatenate((model, np.array([_column(m) for m in joining]).T), axis=1)
            if not rows:
                return
            m = len(rows)
            y = pool[:m * T].reshape(m, T)
            np.take(ys, rows, axis=0, out=y, mode="clip")  # clip: unbuffered
            logliks, filtered, gamma, xi, errors = _e_step_rows(y, t, model, pool[m * T:],
                                                                offsets)
            running = []
            for j, trace in enumerate(traces):
                if errors[j] is None and not math.isfinite(logliks[j]):
                    errors[j] = RuntimeError("non-finite log-likelihood during EM")
                if errors[j] is not None:
                    out[slots[j]] = errors[j]
                    continue
                trace.append(logliks[j])
                converged = _converged(trace, updates[j], tol, max_iter)
                if converged or updates[j] >= max_iter:
                    try:
                        out[slots[j]] = _report(*_row_model(model, j), floors[j],
                                                filtered[:, :, j], trace, updates[j], converged)
                    except ValueError as exc:
                        out[slots[j]] = exc
                else:
                    running.append(j)
            if waiting is None and len(running) <= SCALAR_ROWS:
                kept = []
                for j in running:
                    try:
                        init = RegimeModel(*_row_model(model, j))
                    except ValueError:  # em_fit checks q and pi0 only at the end
                        kept.append(j)
                        continue
                    out[slots[j]] = _em_tail(ys[rows[j]], offsets, init, traces[j], updates[j],
                                             tol, max_iter)
                running = kept
            stepped = []
            if running:
                model, failures = _m_step_rows(y, t, gamma, xi, model, np.array(floors))
            for j in running:
                if failures[j] is not None:
                    out[slots[j]] = failures[j]
                    continue
                updates[j] += 1
                stepped.append(j)
            model = model.take(stepped, axis=1)
            slots, rows, floors, traces, updates = ([x[j] for j in stepped]
                                                    for x in (slots, rows, floors, traces, updates))


def _em_tail(y: np.ndarray, offsets, init: RegimeModel, trace: list, updates, tol, max_iter):
    """The row's fit by ``hmm.em_fit`` (looked up on the module, so that a wrapper set there sees
    it) from the model reached after ``updates``, joined to ``trace``; or the exception raised."""
    try:
        tail = hmm.em_fit(y if offsets is None else DeviationSeries(offsets, y), init, tol=tol,
                          max_iter=max_iter - updates)
    except (ValueError, RuntimeError) as exc:  # RuntimeError: FilterDegeneracyError, EM failure
        return exc
    # the tail's trace starts with the last log-likelihood the batch took
    return replace(tail, iterations=updates + tail.iterations,
                   loglik_trace=np.concatenate((trace[:-1], tail.loglik_trace)))


def _column(init: RegimeModel) -> list:
    """``init`` as its column of a batch's (12, m) model array."""
    (a0, b0, s0), (a1, b1, s1) = [(p.alpha, p.beta, p.sigma) for p in init.params]
    return [*init.q.ravel().tolist(), a0, a1, b0, b1, s0, s1, *init.pi0.tolist()]


def _views(model: np.ndarray):
    """The (2, 2, m) q, the (3, 2, m) alpha/beta/sigma and the (2, m) pi0 of the (12, m)
    ``model``, as views."""
    m = model.shape[1]
    return model[:4].reshape(2, 2, m), model[4:10].reshape(3, 2, m), model[10:]


def _row_model(model: np.ndarray, j: int):
    """Batch row j's (q, params, pi0) on Python floats, as ``em_fit`` holds them."""
    col = model[:, j].tolist()
    return (np.array(col[:4]).reshape(2, 2),
            (RegimeParams(col[4], col[6], col[8]), RegimeParams(col[5], col[7], col[9])),
            np.array(col[10:]))


def _e_step_rows(y: np.ndarray, t: np.ndarray, model: np.ndarray, pool: np.ndarray, offsets):
    """``_forward_backward`` on the (m, T) rows ``y`` under their (12, m) ``model``, the
    recursions run over (m,) vectors of the m rows.

    Returns the log-likelihoods (a list), the filtered pairs (T, 2, m), the smoothed
    posteriors (m, 2, T), whose ``[j].T`` is row j's F-ordered (T, 2) array, the summed
    transition posteriors (2, 2, m) and per row None or its ``FilterDegeneracyError``.
    The arrays are views of ``pool`` (at least 7 * m * T floats), overwritten by the next call.
    """
    m, T = y.shape
    u = m * T
    q, (alpha, beta, sigma), pi0 = _views(model)  # q[i, j] is (m,)
    e = pool[:2 * u].reshape(T, 2, m)  # scaled emission densities, then ``inner``
    f = pool[2 * u:4 * u].reshape(T, 2, m)  # filtered pairs
    r = pool[4 * u:6 * u].reshape(m, 2, T)  # log-densities, backward variables, posteriors
    c = pool[6 * u:7 * u].reshape(T, m)  # normalizers
    z = c.reshape(m, T)  # scratch where c is not in use

    # emission_logdensity, shifted so that the larger of each pair is 0
    logb = r.reshape(2, m, T)
    for i in range(2):
        np.multiply(alpha[i][:, None], t, out=logb[i])
        logb[i] += beta[i][:, None]
        np.subtract(y, logb[i], out=logb[i])
        logb[i] /= sigma[i][:, None]
        np.multiply(0.5, logb[i], out=z)
        z *= logb[i]
        np.subtract((-np.log(sigma[i]) - _HALF_LOG_2PI)[:, None], z, out=logb[i])
    shift = np.maximum(logb[0], logb[1], out=z)
    shift_sums = shift.sum(axis=1)
    for i in range(2):
        logb[i] -= shift
        np.exp(logb[i], out=e[:, i].T)

    # _forward; the 2x2 products of each step in one call, summed over the state left
    mul, add, div = np.multiply, np.add, np.divide
    p, v, prod = pi0.copy(), np.empty((2, m)), np.empty((2, 2, m))  # p is written in place
    prod0, prod1 = prod
    for ek, fk, f0, f1, fk4, ck in zip(e, f, f[:, 0], f[:, 1], f[:, :, None], c):
        mul(p, ek, fk)
        add(f0, f1, ck)
        div(fk, ck, fk)
        mul(fk4, q, prod)  # f_i * q[i, j]
        add(prod0, prod1, p)
    bad = ~((c > 0.0) & (c < np.inf))
    errors = _degeneracies(bad, offsets)
    logc = logb[0]  # free: e holds the densities
    np.copyto(logc, c.T)  # each row's normalizers contiguous, as em_fit sums them
    logliks = (np.log(logc, out=logc).sum(axis=1) + shift_sums).tolist()

    # _backward into r, then inner = e[1:] * beta[1:] / c[1:] in place of e, gamma in place of r
    beta_hat = r.transpose(2, 1, 0)
    beta_hat[T - 1] = 1.0
    q_t, v4 = q.transpose(1, 0, 2), v[:, None]
    for ek, ck, bk, b_prev in zip(e[:0:-1], c[:0:-1], beta_hat[:0:-1], beta_hat[-2::-1]):
        mul(ek, bk, v)
        mul(q_t, v4, prod)  # q[i, j] * u_j
        add(prod0, prod1, p)
        div(p, ck, b_prev)
    inner = e[1:]
    inner *= beta_hat[1:]
    inner /= c[1:, None]
    gamma = np.multiply(r, f.transpose(2, 1, 0), out=r)
    total = np.add(gamma[:, 0], gamma[:, 1], out=z)
    bad = ~((total > 0.0) & (total < np.inf))
    gamma /= total[:, None]
    errors = [a or b for a, b in zip(errors, _degeneracies(bad.T, offsets))]

    # _forward_backward's einsum with a row axis: each (i, j, row) sums its products over t in
    # order, ((alpha * q) * inner) at a time
    xi = np.einsum("tim,ijm,tjm->ijm", f[:-1], q, inner)
    return logliks, f, gamma, xi, errors


def _dots(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w[j] @ x[j]`` for each row j of the (m, T) ``w`` (``w[j] @ x`` if ``x`` is 1-d): a
    stacked matmul of vectors calls BLAS's dot on each pair, as ``@`` does on one."""
    return np.matmul(w[:, None, :], x[..., None])[:, 0, 0]


def _m_step_rows(y: np.ndarray, t: np.ndarray, gamma: np.ndarray, xi: np.ndarray,
                 model: np.ndarray, floors: np.ndarray):
    """``_m_step`` on each row of a batch at once: the rows ``y`` (m, T), their posteriors
    ``gamma`` (m, 2, T) and ``xi`` (2, 2, m), their (12, m) ``model`` and (m,) sigma ``floors``.

    Returns the next (12, m) model and per row None or the ``ValueError`` ``_m_step`` raises
    on it, for regime 0 before regime 1.  Every operation is ``_m_step``'s (with
    ``_weighted_line``'s) on (m,) vectors, and every weighted sum is a BLAS dot per row, so each
    row rounds as ``_m_step`` rounds it alone.
    """
    q, params, _ = _views(model)
    new = np.empty_like(model)
    new_q, new_params, new_pi0 = _views(new)
    errors: list = [None] * len(floors)
    for i in range(2):
        w = gamma[:, i]
        sw = w.sum(axis=1)
        t_bar = _dots(w, t) / sw
        y_bar = _dots(w, y) / sw
        dt = t - t_bar[:, None]
        denom = _dots(w, dt * dt)
        flat = denom <= 0.0  # _weighted_line's flat line: slope 0 through the mean
        alpha = np.where(flat, 0.0, _dots(w, dt * (y - y_bar[:, None])) / denom)
        beta = np.where(flat, y_bar, y_bar - alpha * t_bar)
        resid = y - (alpha[:, None] * t + beta[:, None])
        sigma = np.maximum(np.sqrt(np.maximum(_dots(w, resid * resid) / sw, 0.0)), floors)
        moved = ~(sw <= 0.0)  # a state without weight keeps its values
        new_params[:, i] = np.where(moved, (alpha, beta, sigma), params[:, i])
        for j in np.flatnonzero(moved & ~(np.isfinite(sigma) & (sigma > 0.0))).tolist():
            try:
                RegimeParams(alpha[j], beta[j], float(sigma[j]))
            except ValueError as exc:
                errors[j] = errors[j] or exc
    den = xi[:, 0] + xi[:, 1]
    r = xi / den[:, None]
    new_q[...] = np.where((den > 0.0)[:, None], r / (r[:, 0] + r[:, 1])[:, None], q)
    g = gamma[:, :, 0].T
    np.divide(g, g[0] + g[1], out=new_pi0)
    return new, errors


def _degeneracies(bad: np.ndarray, offsets) -> list:
    """Per column of the (T, m) ``bad``, None or the degeneracy error at its first bad step."""
    first = bad.argmax(axis=0)
    return [_degeneracy(offsets, k) if any_bad else None
            for k, any_bad in zip(first.tolist(), bad.any(axis=0).tolist())]
