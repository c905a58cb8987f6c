"""The numpy-per-step HMM recursions and EM loop, kept as the test oracle.

``forward_filter``, ``_forward_backward``, ``_m_step`` and ``em_fit`` are
the package's implementation from before the recursions moved to Python
floats: every step goes through small numpy calls and each EM iteration
builds a validated ``RegimeModel``.  Two changes follow the package's
API: ``forward_filter`` no longer keeps the predicted pairs, and
``em_fit`` fills ``FitReport.filter`` with a second pass, ``forward_filter``
on the labeled model, as the pipeline once did for every firm.  ``_label``
is the package's labeling from when it worked on a ``RegimeModel``, and
``emission_logdensity`` and ``_weighted_line`` are the package's scalar
density and weighted line, kept here so that the oracle imports none of the
code it checks.  Tests
compare the package against them within stated tolerances.
"""

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


def _emission_logmatrix(y: np.ndarray, model: RegimeModel) -> np.ndarray:
    t = np.arange(1, len(y) + 1, dtype=float)
    return np.column_stack([emission_logdensity(y, t, p) for p in model.params])


def _shifted_emissions(logb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # per-step max shift keeps the dominant regime's density at 1.0
    shift = logb.max(axis=1)
    return np.exp(logb - shift[:, None]), shift


def forward_filter(y, model: RegimeModel) -> FilterOutput:
    """Causal forward recursion: filtered regime probabilities and the log-likelihood.

    ``filtered[t]`` conditions on observations up to and including step t.
    The log-likelihood accumulates the per-step normalizers.
    """
    offsets = getattr(y, "offsets", None)
    yv = _as_observations(y)
    T = len(yv)
    b, shift = _shifted_emissions(_emission_logmatrix(yv, model))

    filtered = np.empty((T, 2))
    pred = model.pi0.astype(float)
    loglik = 0.0
    for t in range(T):
        joint = pred * b[t]
        c = joint.sum()
        if not (np.isfinite(c) and c > 0.0):
            where = offsets[t] if offsets is not None else t + 1
            raise FilterDegeneracyError(f"filter degeneracy at offset {where}")
        filtered[t] = joint / c
        loglik += np.log(c) + shift[t]
        pred = filtered[t] @ model.q
    return FilterOutput(filtered, float(loglik))


def _forward_backward(yv: np.ndarray, model: RegimeModel):
    """Scaled forward-backward pass.

    Returns (loglik, gamma, xi_sum): smoothed per-step posteriors and the
    summed pairwise transition posteriors.
    """
    T = len(yv)
    b, shift = _shifted_emissions(_emission_logmatrix(yv, model))
    q = model.q

    alpha_hat = np.empty((T, 2))
    c = np.empty(T)
    a = model.pi0 * b[0]
    c[0] = a.sum()
    if not (np.isfinite(c[0]) and c[0] > 0.0):
        raise FilterDegeneracyError("filter degeneracy at offset 1")
    alpha_hat[0] = a / c[0]
    for t in range(1, T):
        a = (alpha_hat[t - 1] @ q) * b[t]
        c[t] = a.sum()
        if not (np.isfinite(c[t]) and c[t] > 0.0):
            raise FilterDegeneracyError(f"filter degeneracy at offset {t + 1}")
        alpha_hat[t] = a / c[t]
    loglik = float(np.sum(np.log(c)) + np.sum(shift))

    beta_hat = np.empty((T, 2))
    beta_hat[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta_hat[t] = (q @ (b[t + 1] * beta_hat[t + 1])) / c[t + 1]

    gamma = alpha_hat * beta_hat
    gamma /= gamma.sum(axis=1, keepdims=True)

    if T > 1:
        inner = (b[1:] * beta_hat[1:]) / c[1:, None]
        xi_sum = np.einsum("ti,ij,tj->ij", alpha_hat[:-1], q, inner)
    else:
        xi_sum = np.zeros((2, 2))
    return loglik, gamma, xi_sum


def _m_step(yv, t, gamma, xi_sum, model: RegimeModel, floor: float) -> RegimeModel:
    params = []
    for i in range(2):
        w = gamma[:, i]
        if w.sum() <= 0.0:
            params.append(model.params[i])
            continue
        alpha, beta = _weighted_line(t, yv, w)
        resid = yv - (alpha * t + beta)
        var = float(w @ (resid * resid)) / float(w.sum())
        sigma = max(np.sqrt(max(var, 0.0)), floor)
        params.append(RegimeParams(alpha, beta, sigma))

    q = model.q.copy()
    den = xi_sum.sum(axis=1)
    for i in range(2):
        if den[i] > 0.0:
            row = xi_sum[i] / den[i]
            q[i] = row / row.sum()

    pi0 = gamma[0] / gamma[0].sum()
    return RegimeModel(q, tuple(params), pi0)


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
    Sigma collapse is floored (see ``sigma_floor``) and, like regime
    indistinguishability, reported through the degenerate flag.
    """
    yv = _as_observations(y)
    t = np.arange(1, len(yv) + 1, dtype=float)
    floor = sigma_floor(yv)

    model = init
    trace: list[float] = []
    converged = False
    updates = 0
    for _ in range(max_iter):
        loglik, gamma, xi_sum = _forward_backward(yv, model)
        if not np.isfinite(loglik):
            raise RuntimeError("non-finite log-likelihood during EM")
        trace.append(loglik)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        model = _m_step(yv, t, gamma, xi_sum, model, floor)
        updates += 1
    if not converged:
        # trace must end with the likelihood of the model being returned
        final_ll, _, _ = _forward_backward(yv, model)
        if not np.isfinite(final_ll):
            raise RuntimeError("non-finite log-likelihood during EM")
        trace.append(final_ll)

    labeled, _, indistinct = _label(model)
    floored = any(p.sigma <= floor * (1.0 + 1e-12) for p in labeled.params)
    return FitReport(
        model=labeled,
        filter=forward_filter(y, labeled),
        iterations=updates,
        loglik_trace=np.asarray(trace),
        converged=converged,
        degenerate=indistinct or floored,
    )
