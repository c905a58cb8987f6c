"""EM of the two-regime HMM on a stack of deviation rows at once, bit for bit as ``em_fit``.

``em_fit`` runs its forward and backward recursions on Python floats, one firm at a time.
``em_rows`` runs the same recursions across the rows of an (n, T) stack: each step is a few
numpy operations on (n,) vectors with one entry per row, the same operations in the same order
as ``em_fit``'s, so every row rounds as it would alone.  Only the fit imports this module, so
the other stages do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .hmm import _HALF_LOG_2PI, RegimeModel, _degeneracy, _m_step, _report, sigma_floor


SCALAR_ROWS = 16  # em_fit finishes a stack of this many rows or fewer, and a batch's last ones


def em_rows(ys: np.ndarray, inits: list, tol=RunConfig.em_tol, max_iter=RunConfig.em_max_iter,
            offsets=None) -> list:
    """``em_fit`` on each row of the (n, T) stack ``ys`` from its model in ``inits``, with the
    rows' recursions run side by side as (n,) vectors.

    Each row takes ``em_fit``'s operations in ``em_fit``'s order, so its result is bit for bit
    ``em_fit``'s on that row alone.  Returns per row its ``FitReport``, the exception
    ``em_fit`` raises on it, or, once ``SCALAR_ROWS`` or fewer rows would take another M-step,
    a hand-off ``(model, trace, updates)``: the model before that M-step, the log-likelihoods
    so far and the updates made.  ``em_fit(y, model, tol, max_iter - updates)`` finishes the
    row, its trace starting with ``trace[-1]``.  A stack of ``SCALAR_ROWS`` rows or fewer is
    all handed off as it came in.
    """
    ys = np.ascontiguousarray(ys, dtype=float)  # em_fit's BLAS dot products need whole rows
    n, T = ys.shape
    if n <= SCALAR_ROWS:
        return [(init, [], 0) for init in inits]
    t = np.arange(1, T + 1, dtype=float)
    out: list = [None] * n
    rows = list(range(n))  # the stack row of each active row
    models = [(m.q, m.params, m.pi0) for m in inits]
    floors = [sigma_floor(y) for y in ys]
    traces: list[list[float]] = [[] for _ in range(n)]
    updates = [0] * n
    pool = np.empty(7 * n * T)  # the E-step's buffers, carved for the active rows
    with np.errstate(all="ignore"):  # a failing row's NaNs stay in its own column
        while rows:
            logliks, filtered, gamma, xi, errors = _e_step_rows(ys, rows, t, models, pool,
                                                                offsets)
            running = []
            for j, r in enumerate(rows):
                if errors[j] is None and not math.isfinite(logliks[j]):
                    errors[j] = RuntimeError("non-finite log-likelihood during EM")
                if errors[j] is not None:
                    out[r] = errors[j]
                    continue
                trace = traces[r]
                trace.append(logliks[j])
                converged = (updates[r] < max_iter and len(trace) > 1
                             and abs(trace[-1] - trace[-2]) < tol)
                if converged or updates[r] >= max_iter:
                    try:
                        out[r] = _report(*models[j], floors[r], filtered[:, :, j], trace,
                                         updates[r], converged)
                    except ValueError as exc:
                        out[r] = exc
                else:
                    running.append(j)
            if len(running) <= SCALAR_ROWS:
                kept = []
                for j in running:
                    try:
                        out[rows[j]] = (RegimeModel(*models[j]), traces[rows[j]],
                                        updates[rows[j]])
                    except ValueError:  # em_fit checks q and pi0 only at the end
                        kept.append(j)
                running = kept
            stepped = []
            for j in running:
                r = rows[j]
                try:
                    models[j] = _m_step(ys[r], t, gamma[j].T, xi[:, :, j], *models[j][:2],
                                        floors[r])
                except ValueError as exc:
                    out[r] = exc
                    continue
                updates[r] += 1
                stepped.append(j)
            rows = [rows[j] for j in stepped]
            models = [models[j] for j in stepped]
    return out


def _e_step_rows(ys: np.ndarray, rows: list, t: np.ndarray, models: list, pool: np.ndarray,
                 offsets):
    """``_forward_backward`` on the stack rows ``rows`` of ``ys`` under their ``models``, the
    recursions run over (m,) vectors of the m rows.

    Returns the log-likelihoods (a list), the filtered pairs (T, 2, m), the smoothed
    posteriors (m, 2, T), whose ``[j].T`` is row j's F-ordered (T, 2) array, the summed
    transition posteriors (2, 2, m) and per row None or its ``FilterDegeneracyError``.
    The arrays are views of ``pool`` (at least 7 * m * T floats), overwritten by the next call.
    """
    m, T = len(rows), len(t)
    u = m * T
    q = np.array([mq for mq, _, _ in models]).transpose(1, 2, 0).copy()  # q[i, j] is (m,)
    alpha, beta, sigma = np.array([[(p.alpha, p.beta, p.sigma) for p in params]
                                   for _, params, _ in models]).transpose(2, 1, 0)
    pi0 = np.array([p for _, _, p in models]).T.copy()
    e = pool[:2 * u].reshape(T, 2, m)  # scaled emission densities, then ``inner``
    f = pool[2 * u:4 * u].reshape(T, 2, m)  # the rows' values, then the filtered pairs
    r = pool[4 * u:6 * u].reshape(m, 2, T)  # log-densities, backward variables, posteriors
    c = pool[6 * u:7 * u].reshape(T, m)  # normalizers
    z = c.reshape(m, T)  # scratch where c is not in use

    # emission_logdensity, shifted so that the larger of each pair is 0
    y = np.take(ys, rows, axis=0, out=f.reshape(2, m, T)[0], mode="clip")  # clip: unbuffered
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
    p, v, prod = pi0, np.empty((2, m)), np.empty((2, 2, m))
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


def _degeneracies(bad: np.ndarray, offsets) -> list:
    """Per column of the (T, m) ``bad``, None or the degeneracy error at its first bad step."""
    first = bad.argmax(axis=0)
    return [_degeneracy(offsets, k) if any_bad else None
            for k, any_bad in zip(first.tolist(), bad.any(axis=0).tolist())]
