"""Consumption-weighted uncertainty indexes.

Aggregates per-firm filtered recessionary probabilities into an ECU series
(economy-wide, per sector, per district) where each firm's daily kWh is its
weight, plus the simplified resumption power index (total consumption and
its smoothed gap to the reference year).

Every sum goes through ``fsum_by_key``: rows are sorted by cell (group x
offset) once and each cell's contiguous slice is summed with ``math.fsum``.
``fsum`` is exact to the last bit, so results are independent of row order
and safe to partition across groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .preprocess import trailing_mean
from .sectors import DEFAULT_DISTRICTS, DEFAULT_SECTORS

GROUP_AGGREGATE = "aggregate"
GROUP_SECTOR = "sector"
GROUP_DISTRICT = "district"
AGGREGATE_KEY = "all"


@dataclass(frozen=True)
class FirmDayPanel:
    """Columnar firm-day records; the unit the aggregations operate on."""

    firm_id: np.ndarray
    offset: np.ndarray
    ele: np.ndarray
    mu_r: np.ndarray
    sector_code: np.ndarray
    district_code: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "firm_id", np.asarray(self.firm_id, dtype=object))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=int))
        object.__setattr__(self, "ele", np.asarray(self.ele, dtype=float))
        object.__setattr__(self, "mu_r", np.asarray(self.mu_r, dtype=float))
        object.__setattr__(self, "sector_code", np.asarray(self.sector_code, dtype=object))
        object.__setattr__(self, "district_code", np.asarray(self.district_code, dtype=object))
        n = len(self.firm_id)
        for name in ("offset", "ele", "mu_r", "sector_code", "district_code"):
            if len(getattr(self, name)) != n:
                raise ValueError("panel columns must have equal length")
        if n:
            if not np.isfinite(self.ele).all() or self.ele.min() < 0.0:
                raise ValueError("ele must be finite and >= 0")
            if not (self.mu_r.min() >= 0.0 and self.mu_r.max() <= 1.0):  # NaN fails too
                raise ValueError("mu_r must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.firm_id)


@dataclass(frozen=True)
class EcuSeries:
    """Per-offset index values for one group; NaN marks offsets with no consuming firms."""

    group_type: str
    group_key: str
    offsets: np.ndarray
    ecu: np.ndarray
    total_weight: np.ndarray
    firm_count: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=int))
        object.__setattr__(self, "ecu", np.asarray(self.ecu, dtype=float))
        object.__setattr__(self, "total_weight", np.asarray(self.total_weight, dtype=float))
        object.__setattr__(self, "firm_count", np.asarray(self.firm_count, dtype=int))
        n = len(self.offsets)
        if any(len(a) != n for a in (self.ecu, self.total_weight, self.firm_count)):
            raise ValueError("series columns must have equal length")
        if n == 0:
            raise ValueError("series must cover at least one offset")
        if not np.array_equal(self.offsets, np.arange(self.offsets[0], self.offsets[0] + n)):
            raise ValueError("offsets must be contiguous")
        vals = self.ecu[~np.isnan(self.ecu)]
        if len(vals) and (vals.min() < 0.0 or vals.max() > 1.0):
            raise ValueError("ECU values must lie in [0, 1]")


@dataclass(frozen=True)
class SrpiSeries:
    """Total consumption per offset and the smoothed gap to the reference year."""

    offsets: np.ndarray
    srpi: np.ndarray
    delta_srpi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=int))
        object.__setattr__(self, "srpi", np.asarray(self.srpi, dtype=float))
        object.__setattr__(self, "delta_srpi", np.asarray(self.delta_srpi, dtype=float))
        if not (len(self.offsets) == len(self.srpi) == len(self.delta_srpi)):
            raise ValueError("series columns must have equal length")


def fsum_by_key(keys: np.ndarray, *columns: np.ndarray):
    """Exact per-key sums: ``(distinct keys ascending, row counts, [sums per column])``.

    Rows are sorted by their integer key once; each key's rows then form one
    contiguous slice that ``math.fsum`` adds up.
    """
    order = np.argsort(keys, kind="stable")
    distinct, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    bounds = list(zip(starts.tolist(), (starts + counts).tolist()))
    sums = []
    for col in columns:
        vals = col[order].tolist()
        sums.append(np.array([math.fsum(vals[a:b]) for a, b in bounds], dtype=float))
    return distinct, counts, sums


def ecu_grouped(panel: FirmDayPanel, group_by: str = "none", known_codes=None) -> list[EcuSeries]:
    """ECU series per group over the panel's full offset span.

    ``group_by`` is "none" (one aggregate series), "sector" or "district".
    When grouping, codes are validated against ``known_codes`` (defaults to
    the built-in taxonomy).  Offsets where a group has no positive-weight
    record come out as NaN with a zero total weight; ``firm_count`` counts
    the consuming (positive-weight) records, so zero-weight firms leave
    every column untouched.
    """
    if len(panel) == 0:
        raise ValueError("panel is empty")

    if group_by == "none":
        group_keys, group = [AGGREGATE_KEY], np.zeros(len(panel), dtype=int)
        group_type = GROUP_AGGREGATE
    elif group_by in (GROUP_SECTOR, GROUP_DISTRICT):
        keys = panel.sector_code if group_by == GROUP_SECTOR else panel.district_code
        group_type = group_by
        known = known_codes
        if known is None:
            known = DEFAULT_SECTORS.keys() if group_by == GROUP_SECTOR else DEFAULT_DISTRICTS
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise ValueError(f"unknown {group_by} code {unknown[0]!r}")
        group_keys, group = np.unique(keys, return_inverse=True)
    else:
        raise ValueError(f"group_by must be 'none', 'sector' or 'district', got {group_by!r}")

    lo, hi = int(panel.offset.min()), int(panel.offset.max())
    span = np.arange(lo, hi + 1)

    consuming = panel.ele > 0.0
    ele = panel.ele[consuming]
    cells = group[consuming] * len(span) + (panel.offset[consuming] - lo)
    cell, count, (den, num) = fsum_by_key(cells, ele, ele * panel.mu_r[consuming])
    shape = (len(group_keys), len(span))
    ecu = np.full(shape, np.nan)
    tot = np.zeros(shape)
    cnt = np.zeros(shape, dtype=int)
    ecu.flat[cell] = num / den
    tot.flat[cell] = den
    cnt.flat[cell] = count
    return [EcuSeries(group_type, key, span.copy(), ecu[g], tot[g], cnt[g])
            for g, key in enumerate(group_keys)]


def srpi(panel: FirmDayPanel, reference_totals: Mapping[int, float],
         window_days: int = 7) -> SrpiSeries:
    """Total test-window consumption per offset and the smoothed year-over-year gap.

    ``reference_totals`` maps each offset of the panel's span to the same
    firms' total consumption at the aligned reference-window day; a missing
    offset is an alignment error.  The gap is smoothed with the same
    trailing mean the preprocessing uses.
    """
    if len(panel) == 0:
        raise ValueError("panel is empty")
    lo, hi = int(panel.offset.min()), int(panel.offset.max())
    span = np.arange(lo, hi + 1)

    offsets, _, (sums,) = fsum_by_key(panel.offset, panel.ele)
    totals = np.zeros(len(span))
    totals[offsets - lo] = sums

    missing = [int(off) for off in span if int(off) not in reference_totals]
    if missing:
        raise ValueError(f"reference totals missing offset {missing[0]}")
    ref = np.array([float(reference_totals[int(off)]) for off in span])

    delta = trailing_mean(totals - ref, window_days)
    return SrpiSeries(span, totals, delta)
