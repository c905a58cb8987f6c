"""Regime-model helpers only tests use: rerun the causal filter, simulate a path."""

import numpy as np

from ecuindex.hmm import FilterOutput, RegimeModel, _as_observations, _forward


def forward_filter(y, model: RegimeModel) -> FilterOutput:
    """The causal filter EM ends on (``hmm._forward``), under ``model``: ``filtered[t]``
    conditions on observations up to and including step t."""
    yv = _as_observations(y)
    t = np.arange(1, len(yv) + 1, dtype=float)
    *_, filtered, _, _, loglik = _forward(yv, t, model.q, model.params, model.pi0,
                                          getattr(y, "offsets", None))
    return FilterOutput(filtered, loglik)


def sample_path(model: RegimeModel, T: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a state path and observations from the generative model.

    Deterministic per seed.  Returns (states, observations); states use the
    model's index convention.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(T)
    z = rng.standard_normal(T)

    states = np.empty(T, dtype=int)
    states[0] = 0 if u[0] < model.pi0[0] else 1
    stay0, stay1 = model.q[0, 0], model.q[1, 1]
    for t in range(1, T):
        stay = stay0 if states[t - 1] == 0 else stay1
        states[t] = states[t - 1] if u[t] < stay else 1 - states[t - 1]

    t_idx = np.arange(1, T + 1, dtype=float)
    alpha = np.array([p.alpha for p in model.params])
    beta = np.array([p.beta for p in model.params])
    sigma = np.array([p.sigma for p in model.params])
    y = alpha[states] * t_idx + beta[states] + sigma[states] * z
    return states, y
