#!/usr/bin/env python3
"""Walk one firm's daily kWh series through the cleaning chain.

Generates a single synthetic firm with deliberate corruption (missing
days, spike/drop outliers), then applies each preprocessing step in
order and prints what changed. Finishes with the aligned deviation
series the regime model consumes. Plots if matplotlib is importable.
"""

import numpy as np

from ecuindex import (
    PanelConfig,
    RawSeries,
    align,
    detect_outliers,
    deviation,
    generate,
    interpolate,
    smooth,
)

cfg = PanelConfig(
    n_firms=1,
    seed=7,
    noise_frac=0.05,
    missing_rate=0.03,
    outlier_rate=0.02,
    shock_start=10,
)
panel = generate(cfg).panel
firm_id = panel.firm_ids[0]
# the firm's row of the panel's firm x day grid, as the series the steps below take
lo, hi = panel.lo[0], panel.hi[0]
raw = RawSeries(panel.day0 + np.arange(lo, hi), panel.kwh[0, lo:hi])

n_missing = int(np.isnan(raw.values).sum())
print(f"firm {firm_id}: {len(raw)} days of readings, {n_missing} missing")
print(f"  level around {np.nanmedian(raw.values):.0f} kWh/day")

# step 1: flag days that sit far outside their two-week neighborhood
mask = detect_outliers(raw, window_days=15, k=2.0)
print(f"  flagged {int(mask.sum())} outlier days")

# step 2: replace flagged and missing days with the trailing 14-day mean
clean = interpolate(raw, mask)
print(f"  after interpolation: {int(np.isnan(clean.values).sum())} gaps remain")

# step 3: trailing 7-day moving average knocks out the weekly rhythm
smoothed = smooth(clean, window_days=7)
weekday_spread_raw = np.nanstd(clean.values[:28])
weekday_spread_sm = np.nanstd(smoothed.values[:28])
print(f"  smoothing shrinks the first-month spread "
      f"{weekday_spread_raw:.1f} -> {weekday_spread_sm:.1f} kWh")

# step 4: cut the two 191-day windows, each centered on its New Year's Eve
# base point, and subtract reference from test
pair = align(smoothed, np.datetime64(cfg.ref_base), np.datetime64(cfg.test_base),
             span=cfg.span)
dev = deviation(pair)
print(f"  deviation series: offsets {dev.offsets[0]}..{dev.offsets[-1]}")
print(f"  pre-holiday mean deviation  {dev.y[dev.offsets < 0].mean():+.1f} kWh")
print(f"  post-holiday mean deviation {dev.y[dev.offsets >= 10].mean():+.1f} kWh")
print("  (the gap is the lockdown shock the generator planted at offset 10)")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 6), sharex=False)
    ax1.plot(raw.dates, raw.values, lw=0.5, alpha=0.5, label="raw")
    ax1.plot(smoothed.dates, smoothed.values, lw=1.5, label="cleaned + smoothed")
    ax1.scatter(raw.dates[mask], raw.values[mask], s=12, color="red",
                label="flagged outliers")
    ax1.set_ylabel("kWh/day")
    ax1.legend()
    ax2.axhline(0.0, color="gray", lw=0.5)
    ax2.plot(dev.offsets, dev.y)
    ax2.set_xlabel("days from New Year's Eve base point")
    ax2.set_ylabel("deviation (kWh)")
    fig.tight_layout()
    fig.savefig("demo_preprocess.png", dpi=120)
    print("wrote demo_preprocess.png")
