"""Two-regime hidden Markov model on deviation series.

Each firm's deviation series is modeled with two unobserved regimes
(prosperous, recessionary).  Emissions are Gaussian around a per-regime
linear trend ``alpha * t + beta`` (t is the 1-based position in the
window), regimes follow a first-order Markov chain with a constant
transition matrix, and parameters are estimated per firm by EM.
The filtered regime probabilities come from the causal forward recursion:
the recessionary probability only builds up as deviations accumulate,
which is what the uncertainty index aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROSPEROUS = 0
RECESSIONARY = 1

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SIMPLEX_TOL = 1e-12


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
    if not (np.all(vec >= 0.0) and np.all(vec <= 1.0)):  # so that a NaN fails
        raise ValueError(f"{what} entries must lie in [0, 1], got {vec}")
    if not abs(float(vec.sum()) - 1.0) <= _SIMPLEX_TOL:
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


def emission_logdensity(y_t, t, params: RegimeParams):
    """Log Gaussian density of ``y_t`` around the regime trend at position ``t`` (1-based)."""
    resid = (np.asarray(y_t, dtype=float) - params.mean(t)) / params.sigma
    return -np.log(params.sigma) - _HALF_LOG_2PI - 0.5 * resid * resid


def _forward(yv: np.ndarray, t: np.ndarray, q: np.ndarray, params, pi0: np.ndarray, offsets=None):
    """Scaled forward recursion (Rabiner 1989, §V.A) on Python floats, 2x2 products written out.

    Returns (b, e0s, e1s, filtered, norms, c, loglik): emission densities
    scaled per step so the larger is 1, as a (T, 2) array and as one list
    per regime, filtered pairs, the per-step normalizers as a list and as
    an array, log-likelihood.
    A normalizer that is not positive and finite raises FilterDegeneracyError
    naming ``offsets[t]`` (else the 1-based step).
    """
    logb0, logb1 = (emission_logdensity(yv, t, p) for p in params)
    shift = np.maximum(logb0, logb1)
    b = np.empty((len(yv), 2))
    np.exp(logb0 - shift, out=b[:, 0])
    np.exp(logb1 - shift, out=b[:, 1])
    e0s, e1s = b.T.tolist()
    (q00, q01), (q10, q11) = q.tolist()
    p0, p1 = pi0.tolist()
    f0s, f1s, norms = [], [], []
    for e0, e1 in zip(e0s, e1s):
        a0 = p0 * e0
        a1 = p1 * e1
        c = a0 + a1
        if not (c > 0.0 and c < math.inf):
            where = offsets[len(norms)] if offsets is not None else len(norms) + 1
            raise FilterDegeneracyError(f"filter degeneracy at offset {where}")
        f0 = a0 / c
        f1 = a1 / c
        f0s.append(f0)
        f1s.append(f1)
        norms.append(c)
        p0 = f0 * q00 + f1 * q10
        p1 = f0 * q01 + f1 * q11
    c = np.fromiter(norms, float, len(norms))
    filtered = np.fromiter(f0s + f1s, float, 2 * len(norms)).reshape(2, -1).T  # F order, as gamma's
    return b, e0s, e1s, filtered, norms, c, float(np.log(c).sum() + shift.sum())


def _backward(e0s: list, e1s: list, norms: list, q: np.ndarray) -> np.ndarray:
    """Scaled backward variables from the forward pass's density and normalizer lists."""
    (q00, q01), (q10, q11) = q.tolist()
    r0 = r1 = 1.0
    r0s, r1s = [r0], [r1]
    for e0, e1, ct in zip(e0s[:0:-1], e1s[:0:-1], norms[:0:-1]):
        u0 = e0 * r0
        u1 = e1 * r1
        r0 = (q00 * u0 + q01 * u1) / ct
        r1 = (q10 * u0 + q11 * u1) / ct
        r0s.append(r0)
        r1s.append(r1)
    return np.fromiter(r0s + r1s, float, 2 * len(r0s)).reshape(2, -1).T[::-1]


def _forward_backward(yv: np.ndarray, t: np.ndarray, q: np.ndarray, params, pi0: np.ndarray,
                      offsets=None):
    """Scaled forward-backward pass.

    Returns (loglik, filtered, gamma, xi_sum): filtered pairs, smoothed
    posteriors and summed pairwise transition posteriors.  A posterior row
    that cannot be normalized raises FilterDegeneracyError named as in ``_forward``.
    """
    b, e0s, e1s, alpha_hat, norms, c, loglik = _forward(yv, t, q, params, pi0, offsets)
    beta_hat = _backward(e0s, e1s, norms, q)

    gamma = alpha_hat * beta_hat
    total = gamma[:, 0] + gamma[:, 1]
    bad = np.flatnonzero(~((total > 0.0) & (total < np.inf)))
    if len(bad):
        where = offsets[bad[0]] if offsets is not None else bad[0] + 1
        raise FilterDegeneracyError(f"filter degeneracy at offset {where}")
    gamma /= total[:, None]

    inner = (b[1:] * beta_hat[1:]) / c[1:, None]
    return loglik, alpha_hat, gamma, np.einsum("ti,ij,tj->ij", alpha_hat[:-1], q, inner)


def _weighted_line(t: np.ndarray, y: np.ndarray, w: np.ndarray, sw=None) -> tuple[float, float]:
    """Weighted least-squares line y ~ alpha*t + beta (centered); ``sw`` is ``w.sum()`` if given."""
    sw = w.sum() if sw is None else sw
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


def _m_step(yv, t, gamma, xi_sum, q: np.ndarray, params, floor: float):
    """Closed-form M-step: the next (q, params, pi0); a state without weight keeps its values.

    Each regime's weight sum is taken once; the q rows and pi0 are
    normalized on the Python floats of ``xi_sum`` and ``gamma[0]``.
    """
    new_params = []
    for i in range(2):
        w = gamma[:, i]
        sw = w.sum()
        if sw <= 0.0:
            new_params.append(params[i])
            continue
        alpha, beta = _weighted_line(t, yv, w, sw)
        resid = yv - (alpha * t + beta)
        var = float(w @ (resid * resid)) / float(sw)
        sigma = max(math.sqrt(max(var, 0.0)), floor)
        new_params.append(RegimeParams(alpha, beta, sigma))

    rows = q.tolist()
    for i, (x0, x1) in enumerate(xi_sum.tolist()):
        den = x0 + x1
        if den > 0.0:
            r0, r1 = x0 / den, x1 / den
            rows[i] = [r0 / (r0 + r1), r1 / (r0 + r1)]

    g0, g1 = gamma[0].tolist()
    return np.array(rows), tuple(new_params), np.array([g0 / (g0 + g1), g1 / (g0 + g1)])


def _label(model: RegimeModel) -> tuple[RegimeModel, np.ndarray, bool]:
    """Order the states (prosperous, recessionary) and report indistinguishability.

    The state with the smaller trend intercept is recessionary; intercept
    ties break toward the larger sigma.  If both tie the regimes are
    indistinguishable: the order is kept and the degenerate flag raised.
    Returns the relabeled model, the order applied (new state k is old state
    ``order[k]``) and the flag.
    """
    b = [p.beta for p in model.params]
    s = [p.sigma for p in model.params]
    degenerate = False
    if b[0] != b[1]:
        rec = int(np.argmin(b))
    elif s[0] != s[1]:
        rec = int(np.argmax(s))
    else:
        rec = RECESSIONARY
        degenerate = True
    order = np.array([1 - rec, rec])
    relabeled = RegimeModel(model.q[np.ix_(order, order)], tuple(model.params[i] for i in order),
                            model.pi0[order])
    return relabeled, order, degenerate


def em_fit(y, init: RegimeModel, tol: float = 1e-6, max_iter: int = 500) -> FitReport:
    """Maximum-likelihood fit by EM (forward-backward E-step, closed-form M-step).

    Stops when the absolute log-likelihood change drops below ``tol``.
    The returned model is labeled; the trace ends with the log-likelihood
    of the returned model, and ``iterations`` counts M-step updates.
    ``filter`` is the last E-step's forward pass in label order, the causal filter of ``y``
    under the returned model (``forward_filter`` in ``tests/hmm_helpers.py`` reruns it).
    Sigma collapse is floored (see ``sigma_floor``) and, like regime
    indistinguishability, reported through the degenerate flag.  M-steps
    validate each new sigma; q and pi0 are validated once, at the end.
    """
    offsets = getattr(y, "offsets", None)
    yv = _as_observations(y)
    t = np.arange(1, len(yv) + 1, dtype=float)
    floor = sigma_floor(yv)

    q, params, pi0 = init.q, init.params, init.pi0
    trace: list[float] = []
    updates = 0
    while True:
        loglik, filtered, gamma, xi_sum = _forward_backward(yv, t, q, params, pi0, offsets)
        if not math.isfinite(loglik):
            raise RuntimeError("non-finite log-likelihood during EM")
        trace.append(loglik)
        # after max_iter updates this E-step only ends the trace at the returned model
        converged = updates < max_iter and len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol
        if converged or updates >= max_iter:
            break
        q, params, pi0 = _m_step(yv, t, gamma, xi_sum, q, params, floor)
        updates += 1

    labeled, order, indistinct = _label(RegimeModel(q, params, pi0))
    floored = any(p.sigma <= floor * (1.0 + 1e-12) for p in labeled.params)
    return FitReport(
        model=labeled,
        filter=FilterOutput(filtered[:, order], loglik),
        iterations=updates,
        loglik_trace=np.asarray(trace),
        converged=converged,
        degenerate=indistinct or floored,
    )


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
    med = float(np.median(yv))
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

