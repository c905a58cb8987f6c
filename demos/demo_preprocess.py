#!/usr/bin/env python3
"""Walk one firm's daily kWh through the cleaning steps the fit applies.

Generates a single synthetic firm with deliberate corruption (missing
days, spike/drop outliers) and runs its row of the panel's firm x day grid
through ``preprocess_grid``, as the fit does for every firm: outlier
rejection, interpolation, trailing smoothing, and the aligned deviation
series the regime model consumes. Prints what each step changed. Plots if
matplotlib is importable.
"""

import numpy as np

from ecuindex import PanelConfig, generate, preprocess_grid

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
lo, hi = panel.lo[0], panel.hi[0]
readings = panel.kwh[0, lo:hi]
print(f"firm {firm_id}: {hi - lo} days of readings, {int(np.isnan(readings).sum())} missing")
print(f"  level around {np.nanmedian(readings):.0f} kWh/day")

# the row's deviation and its cleaned but unsmoothed kWh on the two 191-day
# windows, each centered on its New Year's Eve base point; the defaults are
# a 15-day outlier window at k = 2, 14-day interpolation and 7-day smoothing
(y,), (ele_test,), (ele_ref,), (error,) = preprocess_grid(
    panel.kwh[:1], panel.lo[:1], panel.hi[:1], panel.day0, cfg.ref_base, cfg.test_base, cfg.span)
assert error is None, error
offsets = np.arange(-cfg.span, cfg.span + 1)

# steps 1-2: flagged and missing days are replaced by the trailing 14-day mean
test_days = np.datetime64(cfg.test_base) + offsets
raw_test = panel.kwh[0, (test_days - panel.day0) // np.timedelta64(1, "D")]
replaced = ~(raw_test == ele_test)
print(f"  interpolation replaced {int(replaced.sum())} of the test window's {len(offsets)} days "
      f"(missing or flagged as outliers), {int(np.isnan(ele_test).sum())} gaps remain")

# step 3: the trailing 7-day moving average knocks out the weekly rhythm
print(f"  smoothing shrinks the first-month spread of test minus reference "
      f"{np.std((ele_test - ele_ref)[:28]):.1f} -> {np.std(y[:28]):.1f} kWh")

# step 4: smoothed test minus smoothed reference, offset by offset
print(f"  deviation series: offsets {offsets[0]}..{offsets[-1]}")
print(f"  pre-holiday mean deviation  {y[offsets < 0].mean():+.1f} kWh")
print(f"  post-holiday mean deviation {y[offsets >= 10].mean():+.1f} kWh")
print("  (the gap is the lockdown shock the generator planted at offset 10)")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 6), sharex=True)
    ax1.plot(offsets, raw_test, lw=0.5, alpha=0.5, label="raw test window")
    ax1.plot(offsets, ele_test, lw=1.0, label="cleaned test window")
    ax1.plot(offsets, ele_ref, lw=1.0, label="cleaned reference window")
    ax1.scatter(offsets[replaced], ele_test[replaced], s=12, color="red",
                label="replaced days")
    ax1.set_ylabel("kWh/day")
    ax1.legend()
    ax2.axhline(0.0, color="gray", lw=0.5)
    ax2.plot(offsets, y)
    ax2.set_xlabel("days from New Year's Eve base point")
    ax2.set_ylabel("deviation (kWh)")
    fig.tight_layout()
    fig.savefig("demo_preprocess.png", dpi=120)
    print("wrote demo_preprocess.png")
