#!/usr/bin/env python3
"""Fit the two-regime model to one shocked firm and read off the regimes.

The deviation series is built the same way as in demo_preprocess; here the
focus is the hidden Markov model: EM estimation, the fitted parameters,
and the causal filtered probability of being in the recessionary regime.
"""

import numpy as np

from ecuindex import (
    DeviationSeries,
    PanelConfig,
    em_fit,
    generate,
    init_params,
    preprocess_grid,
)
from ecuindex.config import build_run_config

cfg = PanelConfig(n_firms=1, seed=3, noise_frac=0.05,
                  shock_start=10, shock_half_life=12.0)
synthetic = generate(cfg)
panel = synthetic.panel
firm_id = panel.firm_ids[0]
truth = synthetic.truth[firm_id]

# the fit's preprocessing of the panel's grid rows, with the default settings
run_cfg = build_run_config({})
y, _, _, (error,) = preprocess_grid(panel.kwh, panel.lo, panel.hi, panel.day0,
                                    run_cfg.ref_base, run_cfg.test_base, run_cfg.span)
assert error is None, error
dev = DeviationSeries(np.arange(-run_cfg.span, run_cfg.span + 1), y[0])

report = em_fit(dev, init_params(dev))
model = report.model
print(f"firm {firm_id} (sector {panel.sector_codes[0]}), "
      f"shock depth {truth.shock_depth:.2f} at offset {truth.shock_start}")
print(f"EM converged after {report.iterations} iterations, "
      f"loglik {report.loglik_trace[-1]:.1f}")
print()
print("              alpha      beta     sigma")
print(f"prosperous   {model.prosperous.alpha:7.3f} {model.prosperous.beta:9.1f}"
      f" {model.prosperous.sigma:9.1f}")
print(f"recessionary {model.recessionary.alpha:7.3f} {model.recessionary.beta:9.1f}"
      f" {model.recessionary.sigma:9.1f}")
print(f"stay probabilities: q_pp {model.q[0, 0]:.3f}, q_rr {model.q[1, 1]:.3f}")

# the filter is causal: day t uses only days up to t, so this is what an
# analyst tracking the firm in real time would have seen; EM's last forward
# pass is that filter under the fitted model
mu_r = report.filter.mu_r

# regime calls at the 0.5 line, reported as offset ranges
calls = mu_r > 0.5
padded = np.r_[False, calls, False]
edges = np.flatnonzero(np.diff(padded.astype(int)))
print()
if not calls.any():
    print("never entered the recessionary regime")
else:
    for i, j in zip(edges[::2], edges[1::2]):
        s, e = int(dev.offsets[i]), int(dev.offsets[j - 1])
        print(f"recessionary from offset {s} to {e} ({e - s + 1} days)")
print(f"peak recession probability {mu_r.max():.3f} "
      f"at offset {int(dev.offsets[np.argmax(mu_r)])}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 6), sharex=True)
    ax1.axhline(0.0, color="gray", lw=0.5)
    ax1.plot(dev.offsets, dev.y, lw=1.0, label="deviation")
    t = np.arange(1, len(dev.y) + 1)
    ax1.plot(dev.offsets, model.prosperous.mean(t), "--", label="prosperous mean")
    ax1.plot(dev.offsets, model.recessionary.mean(t), "--", label="recessionary mean")
    ax1.set_ylabel("kWh deviation")
    ax1.legend()
    ax2.plot(dev.offsets, mu_r)
    ax2.axhline(0.5, color="gray", lw=0.5, ls=":")
    ax2.set_xlabel("days from base point")
    ax2.set_ylabel("P(recessionary)")
    ax2.set_ylim(-0.02, 1.02)
    fig.tight_layout()
    fig.savefig("demo_single_firm.png", dpi=120)
    print("wrote demo_single_firm.png")
