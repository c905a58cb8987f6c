#!/usr/bin/env python3
"""Small panel end to end: simulate, fit every firm, build the indexes.

Same flow as the command line (simulate -> fit -> index) but through the
library API, so intermediate objects stay inspectable. Prints the
aggregate index at a few milestones and the per-sector-level picture.
"""

import time

import numpy as np

from ecuindex import PanelConfig, ecu_grouped, generate, srpi
from ecuindex.config import build_run_config
from ecuindex.pipeline import fit_outputs, fit_panel
from ecuindex.sectors import DEFAULT_SECTOR_MIX, sector_level
from ecuindex.simgen import default_shock_depths

cfg = PanelConfig(
    n_firms=80,
    seed=17,
    noise_frac=0.06,
    shock_start=10,
    shock_half_life=10.0,
    shock_onset_jitter=10,
    shock_depth=default_shock_depths(
        list(DEFAULT_SECTOR_MIX), {1: 0.25, 2: 0.40, 3: 0.65}),
)
panel = generate(cfg)

run_cfg = build_run_config({})
t0 = time.perf_counter()
results, skipped = fit_panel(panel.records, run_cfg)
print(f"fitted {len(results)} firms in {time.perf_counter() - t0:.1f}s, "
      f"skipped {len(skipped)}")
n_deg = sum(r.report.degenerate for r in results)
print(f"{n_deg} degenerate fits (excluded from the index with a zero contribution)")

fit = fit_outputs(results)
agg = ecu_grouped(fit.panel, "none")[0]

print()
print("aggregate index through the window:")
for label, sel in [
    ("pre-holiday mean ", agg.offsets < 0),
    ("holiday window   ", (agg.offsets >= 0) & (agg.offsets < 10)),
    ("shock +20 days   ", agg.offsets == 30),
    ("shock +40 days   ", agg.offsets == 50),
    ("window end       ", agg.offsets == agg.offsets[-1]),
]:
    print(f"  {label} {float(agg.ecu[sel].mean()):.3f}")

# sector-level curves, weighted the same way the aggregate is
print()
print("peak index by sector level:")
for level, name in [(1, "primary"), (2, "secondary"), (3, "tertiary")]:
    sub = [r for r in results if sector_level(r.sector_code) == level]
    if not sub:
        continue
    series = ecu_grouped(fit_outputs(sub).panel, "none")[0]
    peak = int(np.nanargmax(series.ecu))
    print(f"  {name:9s} {float(series.ecu[peak]):.3f} at offset "
          f"{int(series.offsets[peak])} ({len(sub)} firms)")

# resumption volume: smoothed gap between this year's and last year's totals
vol = srpi(fit.panel, fit.reference_totals, window_days=run_cfg.smooth_window)
trough = int(np.argmin(vol.delta_srpi))
print()
print(f"resumption volume trough {vol.delta_srpi[trough]:.0f} kWh "
      f"at offset {int(vol.offsets[trough])}, "
      f"window-end gap {vol.delta_srpi[-1]:.0f} kWh")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(10, 4))
    ax.plot(agg.offsets, agg.ecu, label="aggregate")
    for level, name in [(2, "secondary"), (3, "tertiary")]:
        sub = [r for r in results if sector_level(r.sector_code) == level]
        series = ecu_grouped(fit_outputs(sub).panel, "none")[0]
        ax.plot(series.offsets, series.ecu, lw=0.8, label=name)
    ax.axvspan(0, 9, color="gray", alpha=0.15, label="holiday")
    ax.set_xlabel("days from base point")
    ax.set_ylabel("index")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_full_pipeline.png", dpi=120)
    print("wrote demo_full_pipeline.png")
