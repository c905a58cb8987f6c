"""Synthetic multi-firm daily-consumption panels.

Builds firm-level kWh series covering both comparison windows so the whole
pipeline can be exercised without proprietary meter data.  Each firm's level
is base load x weekly pattern x annual cycle x holiday trough, optionally hit
by a lockdown shock (full-depth plateau, then exponential recovery toward 1)
whose onset and depth can be jittered per firm.  Noise is proportional to the
level, and missing days / meter glitches are applied last.  All randomness
derives from the root seed; per-firm streams are keyed by a hash of the firm
id, so generation order (or parallel fan-out) cannot change the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .preprocess import FirmRecord, RawSeries, firm_rng
from .sectors import (
    DEFAULT_DISTRICT_MIX,
    DEFAULT_SECTOR_MIX,
    sector_level,
)

DAY = np.timedelta64(1, "D")

# industrial week: weekdays up, weekend down; exactly zero-mean so a 7-day
# trailing mean of the pure weekly pattern is flat
WEEKLY_SHAPE = np.array([0.35, 0.45, 0.45, 0.40, 0.30, -0.95, -1.00])

ANNUAL_PEAK = np.datetime64("2019-07-19")  # midsummer cooling peak

DEFAULT_LEVEL_DEPTHS = {1: 0.25, 2: 0.45, 3: 0.60}


def default_shock_depths(sector_codes, level_depths: Mapping[int, float] | None = None):
    """Per-sector shock depth from per-level defaults (tertiary hit hardest)."""
    depths = DEFAULT_LEVEL_DEPTHS if level_depths is None else dict(level_depths)
    return {code: depths[sector_level(code)] for code in sector_codes}


def _check_mix(mix: Mapping[str, float], what: str) -> None:
    if not mix:
        raise ValueError(f"{what} must not be empty")
    vals = np.array(list(mix.values()), dtype=float)
    if np.any(vals < 0):
        raise ValueError(f"{what} proportions must be non-negative")
    if abs(vals.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} proportions must sum to 1 within 1e-9, got {vals.sum()!r}")


def check_date(value: str, name: str) -> None:
    """Reject a setting that is not a calendar day written as YYYY-MM-DD."""
    try:
        ok = str(np.datetime64(value, "D")) == value != "NaT"
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a date written YYYY-MM-DD, got {value!r}")


@dataclass(frozen=True)
class PanelConfig:
    """Everything the generator needs; defaults give a plausible city panel."""

    n_firms: int = 100
    seed: int = 0
    sector_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_SECTOR_MIX))
    district_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DISTRICT_MIX))
    base_lo: float = 50.0
    base_hi: float = 5000.0
    weekly_amplitude: float = 0.15
    annual_amplitude: float = 0.10
    ref_base: str = "2019-02-04"
    test_base: str = "2020-01-24"
    span: int = 95
    holiday_ref: str = "2019-02-04"
    holiday_ref_days: int = 10
    holiday_test: str = "2020-01-24"
    holiday_test_days: int = 10
    holiday_depth: float = 0.35
    shock_start: int = 10
    shock_duration: int = 0
    shock_depth: Mapping[str, float] | None = None
    shock_half_life: float = 12.0
    shock_onset_jitter: int = 0
    shock_depth_jitter: float = 0.0
    noise_frac: float = 0.05
    missing_rate: float = 0.0
    outlier_rate: float = 0.0

    def validate(self) -> None:
        for name, low in (("n_firms", 0), ("span", 1), ("shock_duration", 0),
                          ("shock_onset_jitter", 0), ("noise_frac", 0), ("holiday_ref_days", 0),
                          ("holiday_test_days", 0)):
            if not getattr(self, name) >= low:  # NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        _check_mix(self.sector_mix, "sector_mix")
        _check_mix(self.district_mix, "district_mix")
        if not (0.0 < self.base_lo <= self.base_hi):
            raise ValueError("base_lo and base_hi must satisfy 0 < base_lo <= base_hi, got "
                             f"{self.base_lo} and {self.base_hi}")
        for name in ("weekly_amplitude", "annual_amplitude", "holiday_depth",
                     "shock_depth_jitter", "missing_rate", "outlier_rate"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if not self.shock_half_life > 0.0:
            raise ValueError(f"shock_half_life must be > 0, got {self.shock_half_life}")
        for name in ("ref_base", "test_base"):
            check_date(getattr(self, name), name)
        for name in ("holiday_ref", "holiday_test"):
            check_date(getattr(self, name), name)
        for code, depth in self.depths().items():
            if not (0.0 <= depth <= 1.0):
                raise ValueError(f"shock depth for {code} must lie in [0, 1], got {depth}")

    def depths(self) -> dict[str, float]:
        if self.shock_depth is None:
            return default_shock_depths(self.sector_mix)
        return dict(self.shock_depth)

    def date_range(self) -> tuple[np.datetime64, np.datetime64]:
        """First and last calendar day the panel must cover (both windows)."""
        ref = np.datetime64(self.ref_base)
        test = np.datetime64(self.test_base)
        return ref - self.span * DAY, test + self.span * DAY


@dataclass(frozen=True)
class FirmTruth:
    """Ground-truth generation parameters for one firm."""

    base: float
    shocked: bool
    shock_start: int
    shock_depth: float


@dataclass(frozen=True)
class SyntheticPanel:
    """Generated records, sorted by firm id, plus the ground truth keyed by firm id."""

    config: PanelConfig
    records: list[FirmRecord]
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
    config.validate()
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
    records: list[FirmRecord] = []
    truth: dict[str, FirmTruth] = {}
    for firm_id, sector, district in zip(firm_ids, sectors, districts):
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

        values = np.where(rng.random(n_days) < config.missing_rate, np.nan, values)

        records.append(FirmRecord(firm_id, sector, district, RawSeries(days, values)))
        truth[firm_id] = FirmTruth(base, shocked, onset, depth)

    return SyntheticPanel(config, records, truth)


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
