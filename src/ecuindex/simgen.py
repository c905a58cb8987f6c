"""Synthetic multi-firm daily-consumption panels.

Builds firm-level kWh series covering both comparison windows so the whole
pipeline can be exercised without proprietary meter data.  Each firm's level
is base load x weekly pattern x annual cycle x holiday trough, optionally hit
by a lockdown shock (full-depth plateau, then exponential recovery toward 1)
whose onset and depth can be jittered per firm.  Noise is proportional to the
level, and missing days / meter glitches are applied last.  All randomness
derives from the root seed; per-firm streams are keyed by a hash of the firm
id, so generation order (or parallel fan-out) cannot change the output.
The settings, ``PanelConfig``, and their checks live in ``config``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import PanelConfig
from .preprocess import DAY, KwhPanel, firm_rng

# industrial week: weekdays up, weekend down; exactly zero-mean so a 7-day
# trailing mean of the pure weekly pattern is flat
WEEKLY_SHAPE = np.array([0.35, 0.45, 0.45, 0.40, 0.30, -0.95, -1.00])

ANNUAL_PEAK = np.datetime64("2019-07-19")  # midsummer cooling peak


@dataclass(frozen=True)
class FirmTruth:
    """Ground-truth generation parameters for one firm."""

    base: float
    shocked: bool
    shock_start: int
    shock_depth: float


@dataclass(frozen=True)
class SyntheticPanel:
    """The generated panel, every firm over every day, and the ground truth by firm id."""

    config: PanelConfig
    panel: KwhPanel
    truth: dict[str, FirmTruth]


def quota_counts(n: int, mix: Mapping[str, float]) -> dict[str, int]:
    """Integer allocation by largest remainder; exact for any n, ties by code order."""
    codes = sorted(mix)
    shares = np.array([mix[c] for c in codes], dtype=float) * n
    counts = np.floor(shares).astype(int)
    rema = shares - counts
    short = n - int(counts.sum())
    for i in np.argsort(-rema, kind="stable")[:short]:
        counts[i] += 1
    return dict(zip(codes, counts))


def _quota_assign(n: int, mix: Mapping[str, float]) -> list[str]:
    out = []
    for code, count in quota_counts(n, mix).items():
        out.extend([code] * count)
    return out


def shock_multiplier(offsets, start: int, duration: int, depth: float,
                     half_life: float) -> np.ndarray:
    """Consumption multiplier: 1 before start, 1-depth through the plateau,
    then exponential recovery toward 1 with the given half-life."""
    offsets = np.asarray(offsets, dtype=float)
    mult = np.ones(len(offsets))
    plateau = (offsets >= start) & (offsets < start + duration)
    mult[plateau] = 1.0 - depth
    rec = offsets >= start + duration
    mult[rec] = 1.0 - depth * np.exp2(-(offsets[rec] - start - duration) / half_life)
    return mult


def generate(config: PanelConfig) -> SyntheticPanel:
    """Generate the panel. Deterministic: same config means identical output."""
    n = config.n_firms
    width = max(5, len(str(max(n - 1, 0))))
    firm_ids = [f"F{k:0{width}d}" for k in range(n)]

    sectors = _quota_assign(n, config.sector_mix)
    districts_sorted = _quota_assign(n, config.district_mix)
    perm = np.random.default_rng(np.random.SeedSequence([config.seed, 1])).permutation(n)
    districts = [""] * n
    for slot, k in enumerate(perm):
        districts[k] = districts_sorted[slot]

    first, last = config.date_range()
    days = np.arange(first, last + DAY, dtype="datetime64[D]")
    n_days = len(days)
    dow = (days.astype("int64") + 3) % 7  # 1970-01-01 was a Thursday
    weekly = 1.0 + config.weekly_amplitude * WEEKLY_SHAPE[dow]
    phase = (days - ANNUAL_PEAK) / DAY / 365.25
    annual = 1.0 + config.annual_amplitude * np.cos(2.0 * np.pi * phase.astype(float))
    holiday = np.ones(n_days)
    for start, length in ((config.holiday_ref, config.holiday_ref_days),
                          (config.holiday_test, config.holiday_test_days)):
        start = np.datetime64(start)
        holiday[(days >= start) & (days < start + int(length) * DAY)] = 1.0 - config.holiday_depth
    test_offsets = ((days - np.datetime64(config.test_base)) / DAY).astype(int)

    depths = config.depths()
    kwh = np.empty((n, n_days))
    truth: dict[str, FirmTruth] = {}
    for row, firm_id, sector in zip(kwh, firm_ids, sectors):
        rng = firm_rng(config.seed, firm_id)
        base = float(rng.uniform(config.base_lo, config.base_hi))
        onset = config.shock_start + int(rng.integers(0, config.shock_onset_jitter + 1))
        depth = depths.get(sector, 0.0)
        if config.shock_depth_jitter > 0.0:
            depth = depth * (1.0 + rng.uniform(-config.shock_depth_jitter,
                                               config.shock_depth_jitter))
            depth = min(max(depth, 0.0), 1.0)
        shocked = depth > 0.0

        level = base * weekly * annual * holiday
        if shocked:
            level = level * shock_multiplier(test_offsets, onset, config.shock_duration,
                                             depth, config.shock_half_life)

        z = rng.standard_normal(n_days)
        values = level * np.maximum(0.0, 1.0 + config.noise_frac * z)

        u_out = rng.random(n_days)
        up = rng.random(n_days) < 0.5
        factor = np.where(up, rng.uniform(2.5, 4.0, n_days), rng.uniform(0.0, 0.3, n_days))
        glitch = u_out < config.outlier_rate
        values = np.where(glitch, values * factor, values)

        row[:] = np.where(rng.random(n_days) < config.missing_rate, np.nan, values)
        truth[firm_id] = FirmTruth(base, shocked, onset, depth)

    panel = KwhPanel(firm_ids, sectors, districts, first, np.zeros(n, np.intp),
                     np.full(n, n_days), kwh)
    return SyntheticPanel(config, panel, truth)


def truth_labels(panel: SyntheticPanel, eps: float = 0.05) -> dict[str, np.ndarray]:
    """Ground-truth recession indicator per firm over the test-window offsets.

    A day counts as recessionary iff the shock multiplier actually applied
    to that firm is below 1 - eps.
    """
    cfg = panel.config
    offsets = np.arange(-cfg.span, cfg.span + 1)
    labels = {}
    for firm_id, t in panel.truth.items():
        if t.shocked:
            mult = shock_multiplier(offsets, t.shock_start, cfg.shock_duration,
                                    t.shock_depth, cfg.shock_half_life)
            labels[firm_id] = mult < 1.0 - eps
        else:
            labels[firm_id] = np.zeros(len(offsets), dtype=bool)
    return labels
