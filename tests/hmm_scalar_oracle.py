"""The scalar EM kernel before its hand-offs moved to Python lists, kept as the test oracle.

``_forward``, ``_backward``, ``_forward_backward``, ``_m_step`` and
``em_fit`` are copied without change from the package version in which
the recursions first ran on Python floats: the forward pass builds the
emission densities with ``np.column_stack`` and walks ``b.tolist()``, the
backward pass slices and converts the arrays again, and the M-step works
on numpy rows and sums each regime's weights three times.  The package's
leaner kernel does the same arithmetic in the same order, so tests require
bit-identical fits, or the same error type and message.  ``_label`` is the
package's labeling from when it worked on a ``RegimeModel``, and
``emission_logdensity`` and ``_weighted_line`` are the package's scalar
density and weighted line, kept here so that the oracle imports none of the
code it checks.
"""

import math

import numpy as np

from ecuindex.hmm import (
    RECESSIONARY,
    FilterDegeneracyError,
    FilterOutput,
    FitReport,
    RegimeModel,
    RegimeParams,
    _as_observations,
    sigma_floor,
)

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def emission_logdensity(y_t, t, params: RegimeParams):
    """Log Gaussian density of ``y_t`` around the regime trend at position ``t`` (1-based)."""
    resid = (np.asarray(y_t, dtype=float) - params.mean(t)) / params.sigma
    return -np.log(params.sigma) - _HALF_LOG_2PI - 0.5 * resid * resid


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


def _forward(yv: np.ndarray, t: np.ndarray, q: np.ndarray, params, pi0: np.ndarray, offsets=None):
    """Scaled forward recursion (Rabiner 1989, §V.A) on Python floats, 2x2 products written out.

    Returns (b, filtered, c, loglik): emission densities scaled per step so
    the larger is 1, filtered pairs, per-step normalizers, log-likelihood.
    A normalizer that is not positive and finite raises FilterDegeneracyError
    naming ``offsets[t]`` (else the 1-based step).
    """
    logb = np.column_stack([emission_logdensity(yv, t, p) for p in params])
    shift = logb.max(axis=1)
    b = np.exp(logb - shift[:, None])
    (q00, q01), (q10, q11) = q.tolist()
    p0, p1 = pi0.tolist()
    f0s, f1s, norms = [], [], []
    for e0, e1 in b.tolist():
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
    c = np.array(norms)
    return b, np.array([f0s, f1s]).T, c, float(np.sum(np.log(c)) + np.sum(shift))


def _backward(b: np.ndarray, c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Scaled backward variables for the forward pass's normalizers, on Python floats."""
    (q00, q01), (q10, q11) = q.tolist()
    r0 = r1 = 1.0
    r0s, r1s = [r0], [r1]
    for (e0, e1), ct in zip(b[:0:-1].tolist(), c[:0:-1].tolist()):
        u0 = e0 * r0
        u1 = e1 * r1
        r0 = (q00 * u0 + q01 * u1) / ct
        r1 = (q10 * u0 + q11 * u1) / ct
        r0s.append(r0)
        r1s.append(r1)
    return np.array([r0s, r1s]).T[::-1]


def _forward_backward(yv: np.ndarray, t: np.ndarray, q: np.ndarray, params, pi0: np.ndarray,
                      offsets=None):
    """Scaled forward-backward pass.

    Returns (loglik, filtered, gamma, xi_sum): filtered pairs, smoothed
    posteriors and summed pairwise transition posteriors.  A posterior row
    that cannot be normalized raises FilterDegeneracyError named as in ``_forward``.
    """
    b, alpha_hat, c, loglik = _forward(yv, t, q, params, pi0, offsets)
    beta_hat = _backward(b, c, q)

    gamma = alpha_hat * beta_hat
    total = gamma.sum(axis=1, keepdims=True)
    bad = np.flatnonzero(~((total > 0.0) & (total < np.inf)))
    if len(bad):
        where = offsets[bad[0]] if offsets is not None else bad[0] + 1
        raise FilterDegeneracyError(f"filter degeneracy at offset {where}")
    gamma /= total

    inner = (b[1:] * beta_hat[1:]) / c[1:, None]
    return loglik, alpha_hat, gamma, np.einsum("ti,ij,tj->ij", alpha_hat[:-1], q, inner)


def _m_step(yv, t, gamma, xi_sum, q: np.ndarray, params, floor: float):
    """Closed-form M-step: the next (q, params, pi0); a state without weight keeps its values."""
    new_params = []
    for i in range(2):
        w = gamma[:, i]
        if w.sum() <= 0.0:
            new_params.append(params[i])
            continue
        alpha, beta = _weighted_line(t, yv, w)
        resid = yv - (alpha * t + beta)
        var = float(w @ (resid * resid)) / float(w.sum())
        sigma = max(np.sqrt(max(var, 0.0)), floor)
        new_params.append(RegimeParams(alpha, beta, sigma))

    q = q.copy()
    den = xi_sum.sum(axis=1)
    for i in range(2):
        if den[i] > 0.0:
            row = xi_sum[i] / den[i]
            q[i] = row / row.sum()

    return q, tuple(new_params), gamma[0] / gamma[0].sum()


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
    ``filter`` is the last E-step's forward pass in label order: ``forward_filter(y, model)``.
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
