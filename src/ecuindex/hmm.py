"""Two-regime hidden Markov model on deviation series.

Each firm's deviation series is modeled with two unobserved regimes
(prosperous, recessionary).  Emissions are Gaussian around a per-regime
linear trend ``alpha * t + beta`` (t is the 1-based position in the
window), regimes follow a first-order Markov chain with a constant
transition matrix, and parameters are estimated per firm by EM.
The filtered regime probabilities come from the causal forward recursion:
the recessionary probability only builds up as deviations accumulate,
which is what the uncertainty index aggregates.

EM has one loop, ``em_rows``, which runs one E-step, ``_e_step_rows``, and one M-step,
``_m_step_rows``, on a stream of rows in a batch that refills as rows finish.  A row's model is
its column of a (12, m) array, the numbers of ``RegimeModel.numbers`` and of a ``models.csv``
row in ``MODEL_COLUMNS`` order.  The recursions run on (m,) vectors, or on Python floats while
one row runs, and each weighted sum is a per-row BLAS dot: the same operations in the same
order, so every row rounds as it would alone.  A finished start's outcome is numbers, its
``models.csv`` row, trace and filter; ``em_fit`` is the stream on one row and builds the
``FitReport`` of its outcome.  A wider stream hands its last rows to ``em_fit`` (``_em_tail``)
or back, each with its EM state, for a later stream to finish.  Only the fit stage imports
this module, so the other stages do not compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _SIMPLEX_TOL, MODEL_COLUMNS, RunConfig
from .preprocess import DeviationSeries

PROSPEROUS = 0
RECESSIONARY = 1

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class FilterDegeneracyError(RuntimeError):
    """All probability mass vanished numerically at some step (filter or posteriors)."""


@dataclass(frozen=True)
class RegimeParams:
    """Emission parameters of one regime: trend slope, intercept, residual std."""

    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def mean(self, t):
        """Trend value at 1-based position(s) ``t``."""
        return self.alpha * np.asarray(t, dtype=float) + self.beta


def _check_simplex(vec: np.ndarray, what: str) -> None:
    values = vec.tolist()  # Python floats: a model's three checks are most of its cost
    if not all(0.0 <= x <= 1.0 for x in values):  # so that a NaN fails
        raise ValueError(f"{what} entries must lie in [0, 1], got {vec}")
    if not abs(sum(values) - 1.0) <= _SIMPLEX_TOL:
        raise ValueError(f"{what} must sum to 1 within {_SIMPLEX_TOL}, got {vec}")


@dataclass(frozen=True)
class RegimeModel:
    """Transition matrix, per-regime emission parameters, initial state probabilities.

    By convention index 0 is the prosperous regime and index 1 the
    recessionary one once ``em_fit`` has labeled the model.
    """

    q: np.ndarray
    params: tuple[RegimeParams, RegimeParams]
    pi0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "pi0", np.asarray(self.pi0, dtype=float))
        object.__setattr__(self, "params", tuple(self.params))
        if self.q.shape != (2, 2):
            raise ValueError("q must be a 2x2 matrix")
        if len(self.params) != 2:
            raise ValueError("exactly two regimes are supported")
        for row in self.q:
            _check_simplex(row, "transition matrix row")
        if self.pi0.shape != (2,):
            raise ValueError("pi0 must have two entries")
        _check_simplex(self.pi0, "initial state probabilities")

    @classmethod
    def from_numbers(cls, row) -> RegimeModel:
        """The model of the first 12 numbers of ``row`` (a row of ``models.csv``'s numbers
        ends with the log-likelihood) in ``MODEL_COLUMNS`` order, built on Python floats, so
        that no view of ``row`` is kept, and checked in order: each regime's sigma, then the
        rows of q, then pi0."""
        a0, b0, s0, a1, b1, s1, *rest = np.asarray(row[:12], dtype=float).tolist()
        return cls(np.array(rest[:4]).reshape(2, 2),
                   (RegimeParams(a0, b0, s0), RegimeParams(a1, b1, s1)), np.array(rest[4:]))

    def numbers(self) -> list[float]:
        """The model's 12 numbers in ``MODEL_COLUMNS`` order, as Python floats."""
        return [*(float(x) for p in self.params for x in (p.alpha, p.beta, p.sigma)),
                *self.q.ravel().tolist(), *self.pi0.tolist()]

    @property
    def prosperous(self) -> RegimeParams:
        return self.params[PROSPEROUS]

    @property
    def recessionary(self) -> RegimeParams:
        return self.params[RECESSIONARY]


@dataclass(frozen=True)
class FilterOutput:
    """Forward-filter result: per-step filtered pairs plus the log-likelihood."""

    filtered: np.ndarray
    loglik: float

    def __post_init__(self):
        object.__setattr__(self, "filtered", np.asarray(self.filtered, dtype=float))
        if not np.isfinite(self.loglik):
            raise ValueError("log-likelihood must be finite")
        if not np.abs(self.filtered.sum(axis=1) - 1.0).max() <= _SIMPLEX_TOL:  # NaN fails
            raise ValueError(f"filtered probability pairs must sum to 1 within {_SIMPLEX_TOL}")

    @property
    def mu_p(self) -> np.ndarray:
        return self.filtered[:, PROSPEROUS]

    @property
    def mu_r(self) -> np.ndarray:
        return self.filtered[:, RECESSIONARY]


@dataclass(frozen=True)
class FitReport:
    """EM fit outcome: labeled model, its forward filter, iteration trace and quality flags."""

    model: RegimeModel
    filter: FilterOutput
    iterations: int
    loglik_trace: np.ndarray
    converged: bool
    degenerate: bool


def _as_observations(y) -> np.ndarray:
    arr = np.asarray(getattr(y, "y", y), dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("observations must be a nonempty 1-d sequence")
    return np.ascontiguousarray(arr)  # BLAS dot products round a strided vector differently


def _degeneracy(offsets, step: int) -> FilterDegeneracyError:
    """The error of a pass that degenerates at 0-based ``step``: named ``offsets[step]``, or the
    1-based step without offsets."""
    return FilterDegeneracyError("filter degeneracy at offset "
                                 f"{offsets[step] if offsets is not None else step + 1}")


def _views(model: np.ndarray):
    """The (2, 2, m) q, the (3, 2, m) alpha/beta/sigma and the (2, m) pi0 of the C-ordered
    (12, m) ``model``, as views."""
    m = model.shape[1]
    return model[6:10].reshape(2, 2, m), model[:6].reshape(2, 3, m).transpose(1, 0, 2), model[10:]


def _logdensities(y: np.ndarray, t: np.ndarray, model: np.ndarray, out: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
    """Into ``out[i]`` of the (2, m, T) ``out``, the log Gaussian density of each of the (m, T)
    rows ``y`` around regime i's trend ``alpha * t + beta`` of its column of the (12, m)
    ``model``, ``t`` the 1-based positions; ``z`` is (2, m, T) scratch.  Returns ``out``."""
    _, (alpha, beta, sigma), _ = _views(model)  # each (2, m)
    np.multiply(alpha[..., None], t, out=out)
    out += beta[..., None]
    np.subtract(y, out, out=out)
    out /= sigma[..., None]
    np.multiply(0.5, out, out=z)
    z *= out
    return np.subtract((-np.log(sigma) - _HALF_LOG_2PI)[..., None], z, out=out)


@np.errstate(all="ignore")  # a row that fails is told by its error, not by a warning
def _e_step_rows(y: np.ndarray, t: np.ndarray, model: np.ndarray, pool: np.ndarray, offsets):
    """Scaled forward-backward pass (Rabiner 1989, §V.A) on the (m, T) rows ``y`` under their
    (12, m) ``model``: on one row the recursions run on Python floats, their 2x2 products
    written out, and on more over (m,) vectors, the same operations in the same order.

    Returns the log-likelihoods (a list), the filtered pairs (T, 2, m), the smoothed
    posteriors (m, 2, T), whose ``[j].T`` is row j's F-ordered (T, 2) array, the summed
    transition posteriors (2, 2, m; None if a lone row's forward pass fails) and per row None
    or its ``FilterDegeneracyError``: a forward normalizer that is not positive and finite, or
    a posterior row that cannot be normalized, names ``offsets[t]`` (else the 1-based step).
    The arrays are views of ``pool`` (at least 7 * m * T floats), overwritten by the next call;
    its first 2 * m * T floats hold the scaled densities, of no use once it returns.
    """
    m, T = y.shape
    u = m * T
    q, _, pi0 = _views(model)  # q[i, j] is (m,)
    e = pool[:2 * u].reshape(T, 2, m)  # scaled emission densities, then ``inner``
    f = pool[2 * u:4 * u].reshape(T, 2, m)  # filtered pairs
    r = pool[4 * u:6 * u].reshape(m, 2, T)  # log-densities, backward variables, posteriors
    c = pool[6 * u:7 * u].reshape(T, m)  # normalizers
    z = c.reshape(m, T)  # scratch where c is not in use

    # the log-densities, shifted so that the larger of each pair is 0
    logb = _logdensities(y, t, model, r.reshape(2, m, T), e.reshape(2, m, T))
    shift = np.maximum(logb[0], logb[1], out=z)
    shift_sums = shift.sum(axis=1)
    for i in range(2):
        logb[i] -= shift
        np.exp(logb[i], out=e[:, i].T)

    beta_hat = r.transpose(2, 1, 0)
    if m == 1:  # a (1,) vector's numpy call costs more than its Python float arithmetic
        (q00, q01), (q10, q11) = q[:, :, 0].tolist()
        p0, p1 = pi0[:, 0].tolist()
        e0s, e1s = e[:, :, 0].T.tolist()
        f0s, f1s, norms = [], [], []  # forward: filtered pairs and normalizers
        for e0, e1 in zip(e0s, e1s):
            a0 = p0 * e0
            a1 = p1 * e1
            ck = a0 + a1
            if not (ck > 0.0 and ck < math.inf):
                return [math.nan], f, r, None, [_degeneracy(offsets, len(norms))]
            f0 = a0 / ck
            f1 = a1 / ck
            f0s.append(f0)
            f1s.append(f1)
            norms.append(ck)
            p0 = f0 * q00 + f1 * q10
            p1 = f0 * q01 + f1 * q11
        r0 = r1 = 1.0
        r0s, r1s = [r0], [r1]  # backward variables, last step first
        for e0, e1, ck in zip(e0s[:0:-1], e1s[:0:-1], norms[:0:-1]):
            u0 = e0 * r0
            u1 = e1 * r1
            r0 = (q00 * u0 + q01 * u1) / ck
            r1 = (q10 * u0 + q11 * u1) / ck
            r0s.append(r0)
            r1s.append(r1)
        f[:, 0, 0], f[:, 1, 0], c[:, 0], r[0, 0, ::-1], r[0, 1, ::-1] = f0s, f1s, norms, r0s, r1s
        errors = [None]
    else:  # the 2x2 products of each step in one call, summed over the state left
        mul, add, div = np.multiply, np.add, np.divide
        p, v, prod = pi0.copy(), np.empty((2, m)), np.empty((2, 2, m))  # p is written in place
        prod0, prod1 = prod
        for ek, fk, f0, f1, fk4, ck in zip(e, f, f[:, 0], f[:, 1], f[:, :, None], c):
            mul(p, ek, fk)
            add(f0, f1, ck)
            div(fk, ck, fk)
            mul(fk4, q, prod)  # f_i * q[i, j]
            add(prod0, prod1, p)
        errors = _degeneracies(~((c > 0.0) & (c < np.inf)), offsets)
        beta_hat[T - 1] = 1.0
        q_t, v4 = q.transpose(1, 0, 2), v[:, None]
        for ek, ck, bk, b_prev in zip(e[:0:-1], c[:0:-1], beta_hat[:0:-1], beta_hat[-2::-1]):
            mul(ek, bk, v)
            mul(q_t, v4, prod)  # q[i, j] * u_j
            add(prod0, prod1, p)
            div(p, ck, b_prev)
    logc = c.T.copy()  # each row's normalizers contiguous, as a lone row sums them
    logliks = (np.log(logc, out=logc).sum(axis=1) + shift_sums).tolist()

    # inner = e[1:] * beta[1:] / c[1:] in place of e, then gamma in place of beta
    inner = e[1:]
    inner *= beta_hat[1:]
    inner /= c[1:, None]
    gamma = np.multiply(r, f.transpose(2, 1, 0), out=r)
    total = np.add(gamma[:, 0], gamma[:, 1], out=z)
    bad = ~((total > 0.0) & (total < np.inf))  # 0 * inf, an overflowed unreachable state
    gamma /= total[:, None]
    if bad.any():
        errors = [a or b for a, b in zip(errors, _degeneracies(bad.T, offsets))]

    # each (i, j, row) sums its products over t in order, ((alpha * q) * inner) at a time
    xi = np.einsum("tim,ijm,tjm->ijm", f[:-1], q, inner)
    return logliks, f, gamma, xi, errors


def _degeneracies(bad: np.ndarray, offsets) -> list:
    """Per column of the (T, m) ``bad``, None or the degeneracy error at its first bad step."""
    first = bad.argmax(axis=0)
    return [_degeneracy(offsets, k) if any_bad else None
            for k, any_bad in zip(first.tolist(), bad.any(axis=0).tolist())]


def _weighted_line(t: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted least-squares line y ~ alpha*t + beta (centered)."""
    sw = float(w.sum())
    if sw <= 0.0:
        return 0.0, 0.0
    t_bar = float(w @ t) / sw
    y_bar = float(w @ y) / sw
    dt = t - t_bar
    denom = float(w @ (dt * dt))
    if denom <= 0.0:
        return 0.0, y_bar
    alpha = float(w @ (dt * (y - y_bar))) / denom
    return alpha, y_bar - alpha * t_bar


def sigma_floor(y) -> float:
    """Lower bound for regime stds: 1e-4 of the data spread (1e-4 flat if constant)."""
    sd = float(np.std(_as_observations(y)))
    return 1e-4 * (sd if sd > 0.0 else 1.0)


def _dots(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w[..., k, :] @ x[..., k, :]`` for each vector of ``w``, ``x`` broadcast to it (``w[...,
    k, :] @ x`` if ``x`` is 1-d): a stacked matmul of vectors calls BLAS's dot on each pair, as
    ``@`` does on one."""
    return np.matmul(w[..., None, :], x[..., None])[..., 0, 0]


@np.errstate(all="ignore")  # a weightless state's or a flat line's discarded division
def _m_step_rows(y: np.ndarray, t: np.ndarray, gamma: np.ndarray, xi: np.ndarray,
                 model: np.ndarray, floors: np.ndarray, scratch: np.ndarray):
    """Closed-form M-step on a batch: the rows ``y`` (m, T), their posteriors ``gamma``
    (m, 2, T) and ``xi`` (2, 2, m), their (12, m) ``model`` and (m,) sigma ``floors``; its
    (m, 2, T) temporaries go in the two halves of the (2, m, 2, T) ``scratch``.

    Returns the next (12, m) model, in which a state without weight keeps its values, and per
    row None or the ``ValueError`` of a sigma ``RegimeParams`` refuses, regime 0's first.  Each
    regime's line is ``_weighted_line``'s, both regimes' at once, every weighted sum a BLAS dot
    per row and regime, so that each row rounds as it would alone.
    """
    q, params, _ = _views(model)
    new = np.empty_like(model)
    new_q, new_params, new_pi0 = _views(new)
    y2 = y[:, None]  # each row beside both its regimes' weights
    dt, work = scratch
    sw = gamma.sum(axis=2)  # (m, 2), as t_bar and the other per-regime numbers
    t_bar = _dots(gamma, t) / sw
    y_bar = _dots(gamma, y2) / sw
    np.subtract(t, t_bar[..., None], out=dt)
    denom = _dots(gamma, np.multiply(dt, dt, out=work))
    flat = denom <= 0.0  # _weighted_line's flat line: slope 0 through the mean
    np.subtract(y2, y_bar[..., None], out=work)
    alpha = np.where(flat, 0.0, _dots(gamma, np.multiply(dt, work, out=work)) / denom)
    beta = np.where(flat, y_bar, y_bar - alpha * t_bar)
    resid = np.multiply(alpha[..., None], t, out=dt)  # y - (alpha * t + beta), in place
    resid += beta[..., None]
    var = _dots(gamma, np.square(np.subtract(y2, resid, out=resid), out=work)) / sw
    sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), floors[:, None])
    moved = ~(sw <= 0.0)  # a state without weight keeps its values
    new_params[...] = np.where(moved.T, (alpha.T, beta.T, sigma.T), params)
    errors: list = [None] * len(floors)
    for j, i in zip(*(moved & ~(np.isfinite(sigma) & (sigma > 0.0))).nonzero()):
        try:
            RegimeParams(alpha[j, i], beta[j, i], float(sigma[j, i]))
        except ValueError as exc:
            errors[j] = errors[j] or exc
    den = xi[:, 0] + xi[:, 1]
    r = xi / den[:, None]
    new_q[...] = np.where((den > 0.0)[:, None], r / (r[:, 0] + r[:, 1])[:, None], q)
    g = gamma[:, :, 0].T
    np.divide(g, g[0] + g[1], out=new_pi0)
    return new, errors


def _label(numbers: list) -> tuple[list, bool, bool]:
    """Order the states of a model's 12 Python floats (prosperous, recessionary) and report
    indistinguishability.

    The state with the smaller trend intercept is recessionary; intercept ties break toward the
    larger sigma, and a NaN comes first in each, as with ``np.argmin`` and ``np.argmax``.  If
    both tie the regimes are indistinguishable: the order is kept and the degenerate flag
    raised.  Returns the labeled numbers, whether the states were swapped, and the flag.
    """
    a0, b0, s0, a1, b1, s1, q00, q01, q10, q11, p0, p1 = numbers
    swapped = (b0 < b1 or b0 != b0) if b0 != b1 else (s0 > s1 or s0 != s0)
    labeled = [a1, b1, s1, a0, b0, s0, q11, q10, q01, q00, p1, p0] if swapped else list(numbers)
    return labeled, swapped, b0 == b1 and s0 == s1


def em_fit(y, init: RegimeModel, tol=RunConfig.em_tol, max_iter=RunConfig.em_max_iter) -> FitReport:
    """Maximum-likelihood fit by EM (forward-backward E-step, closed-form M-step), the
    steps of a batch (``_e_step_rows``, ``_m_step_rows``) on ``y`` as a batch of one row.

    Stops when the absolute log-likelihood change drops below ``tol``.
    The returned model is labeled; the trace ends with the log-likelihood
    of the returned model, and ``iterations`` counts M-step updates.
    ``filter`` is the last E-step's forward pass in label order, the causal filter of ``y``
    under the returned model (``forward_filter`` in ``tests/hmm_helpers.py`` reruns it).
    Sigma collapse is floored (see ``sigma_floor``) and, like regime
    indistinguishability, reported through the degenerate flag.  M-steps
    validate each new sigma; q and pi0 are validated once, at the end.
    """
    [(_, outcome)] = em_rows(_as_observations(y)[None], [(0, 0, init)], 1, tol, max_iter,
                             getattr(y, "offsets", None))
    if isinstance(outcome, Exception):
        raise outcome
    return _fit_report(*outcome)


SCALAR_ROWS = 16  # em_fit finishes a wider stream's last rows once this many or fewer run


def em_rows(ys: np.ndarray, starts, width: int, tol=RunConfig.em_tol,
            max_iter=RunConfig.em_max_iter, offsets=None, hand_back=-1):
    """``em_fit`` on rows of the (n, T) grid ``ys``: ``starts`` yields (key, row of ``ys``,
    init), each key hashable and distinct, and each start's row is fitted from its init, a
    model or the state (its 12 numbers, trace, None) in which a stream handed it back, in a
    batch of at most ``width`` rows whose recursions run side by side as row vectors (on
    Python floats while one row runs).

    ``starts`` is read as the batch has room, so a start's init is only made when its row
    joins.  Each row takes ``em_fit``'s operations in ``em_fit``'s order, so each start's
    outcome, yielded as (key, outcome) after the batch step that ends it, is ``em_fit``'s on
    ``DeviationSeries(offsets, row)`` (row if no offsets) alone, bit for bit: its exception, or
    ``_finish``'s (row, trace, filter), whose ``_fit_report`` is ``em_fit``'s report.  Given a
    ``hand_back`` of 0 or more, once no start waits and at most ``max(hand_back, SCALAR_ROWS)``
    rows run, each is yielded as (key, its state), its filter None, and the stream ends, never
    calling ``em_fit``.  Else a stream one row wide, as ``em_fit`` runs, takes its row to the
    end, and a wider one hands the rows still running to ``em_fit`` once no start waits and
    ``SCALAR_ROWS`` or fewer run, so that a wider stream of that many starts or fewer takes one
    batch E-step.
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
        if waiting is None and hand_back < 0 and width > 1 and len(running) <= SCALAR_ROWS:
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
    """The row's fit by ``em_fit`` (looked up on the module at each call, so that a wrapper set
    there sees it) from the model its ``len(trace) - 1`` updates reached, as ``_finish``'s (row,
    trace, filter), its trace joined to ``trace``; or its error."""
    try:
        tail = em_fit(y if offsets is None else DeviationSeries(offsets, y), init, tol=tol,
                      max_iter=max_iter + 1 - len(trace))
    except (ValueError, RuntimeError) as exc:  # RuntimeError: FilterDegeneracyError, EM failure
        return exc
    joined = trace[:-1] + tail.loglik_trace.tolist()  # the tail's trace starts at the batch's last
    return ([*tail.model.numbers(), joined[-1], float(tail.converged), float(tail.degenerate)],
            joined, tail.filter.filtered)


def _converged(trace: list, updates: int, tol, max_iter) -> bool:
    """EM's stop rule: the last E-step moved the log-likelihood by less than ``tol`` (after
    ``max_iter`` updates that E-step only ends the trace at the returned model)."""
    return updates < max_iter and len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol


def _finish(numbers, floor: float, filtered, trace: list, converged: bool) -> tuple:
    """EM's result as (row, trace, filter): the ``models.csv`` row of the model of the 12
    ``numbers`` labeled (its numbers, the last log-likelihood, then the converged and degenerate
    flags as 1.0 or 0.0), the trace, and a copy of the (T, 2) filter in label order.  A model
    ``RegimeModel`` refuses raises its ``ValueError``."""
    labeled, swapped, indistinct = _label(RegimeModel.from_numbers(numbers).numbers())
    floored = min(labeled[2], labeled[5]) <= floor * (1.0 + 1e-12)
    return ([*labeled, trace[-1], float(converged), float(indistinct or floored)], trace,
            filtered[:, [1, 0] if swapped else [0, 1]])


def _fit_report(row, trace, filtered) -> FitReport:
    """The ``FitReport`` of a model's ``models.csv`` row, its trace and its (T, 2) filter."""
    return FitReport(RegimeModel.from_numbers(row), FilterOutput(filtered, trace[-1]),
                     len(trace) - 1, np.asarray(trace, dtype=float), bool(row[13]), bool(row[14]))


def init_params(y) -> RegimeModel:
    """Deterministic EM starting point from a median split of the deviations.

    Values strictly below the median seed the recessionary regime's line,
    the rest seed the prosperous one (a constant series seeds both
    identically).  Transitions start sticky, initial state probabilities
    uniform.
    """
    yv = _as_observations(y)
    t = np.arange(1, len(yv) + 1, dtype=float)
    floor = sigma_floor(yv)
    med = _median(yv)
    below = yv < med
    if not below.any():
        below = np.ones(len(yv), dtype=bool)
    above = yv >= med
    if not above.any():
        above = np.ones(len(yv), dtype=bool)

    def seed(mask: np.ndarray) -> RegimeParams:
        tm, ym = t[mask], yv[mask]
        alpha, beta = _weighted_line(tm, ym, np.ones(mask.sum()))
        resid = ym - (alpha * tm + beta)
        sd = float(np.sqrt(np.mean(resid * resid))) if len(ym) else 0.0
        return RegimeParams(alpha, beta, max(sd, floor))

    return RegimeModel(
        q=np.array([[0.95, 0.05], [0.05, 0.95]]),
        params=(seed(above), seed(below)),
        pi0=np.array([0.5, 0.5]),
    )


def _median(v: np.ndarray) -> float:
    """``np.median`` of the nonempty 1-d ``v``, bit for bit: the same partition, the mean of its
    middle one or two values, or its last value if that is NaN.  ``np.median``'s own NaN check
    imports ``numpy.ma``, which the fit has no other use for."""
    n = len(v)
    part = np.partition(v, [*range((n - 1) // 2, n // 2 + 1), -1])
    return float(part[-1] if np.isnan(part[-1]) else part[(n - 1) // 2:n // 2 + 1].mean())


def random_init(y, rng: np.random.Generator) -> RegimeModel:
    """Randomized EM starting point for optional multi-start fitting."""
    yv = _as_observations(y)
    floor = sigma_floor(yv)
    lo, hi = np.quantile(yv, [0.1, 0.9])
    spread = float(np.std(yv)) or 1.0

    def seed() -> RegimeParams:
        beta = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
        alpha = float(rng.normal(0.0, spread / max(len(yv), 2)))
        sigma = max(float(rng.uniform(0.3, 2.0)) * spread, floor)
        return RegimeParams(alpha, beta, sigma)

    stay = rng.uniform(0.8, 0.99, size=2)
    q = np.array([[stay[0], 1.0 - stay[0]], [1.0 - stay[1], stay[1]]])
    p = float(rng.uniform(0.2, 0.8))
    return RegimeModel(q, (seed(), seed()), np.array([p, 1.0 - p]))

