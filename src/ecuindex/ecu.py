"""Consumption-weighted uncertainty indexes.

Aggregates per-firm filtered recessionary probabilities into an ECU series
(economy-wide, per sector, per district) where each firm's daily kWh is its
weight, plus the simplified resumption power index (total consumption and
its smoothed gap to the reference year).

The inputs are firm x offset arrays.  Grouping sorts the N firms by group
once; each (group, offset) cell is then one ``math.fsum`` over that group's
slice of one offset's column.  ``fsum`` is correctly rounded, so results
are independent of firm order and safe to partition across groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .preprocess import trailing_mean
from .sectors import DEFAULT_DISTRICTS, DEFAULT_SECTORS

GROUP_AGGREGATE = "aggregate"
GROUP_SECTOR = "sector"
GROUP_DISTRICT = "district"
AGGREGATE_KEY = "all"


@dataclass(frozen=True)
class FirmDayPanel:
    """Firm x offset arrays; the unit the aggregations operate on.

    ``offsets`` (T,) are contiguous days.  Row i of ``ele`` and ``mu_r`` (N, T)
    is the i-th firm's weights (its kWh, 0 on a day it consumes nothing) and
    recessionary probabilities, ``sector_code[i]`` and ``district_code[i]``
    (N,) its group codes.  Firm order changes no aggregate.  The length is the
    firm-day count N * T.
    """

    offsets: np.ndarray
    ele: np.ndarray
    mu_r: np.ndarray
    sector_code: np.ndarray
    district_code: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=int))
        object.__setattr__(self, "ele", np.asarray(self.ele, dtype=float))
        object.__setattr__(self, "mu_r", np.asarray(self.mu_r, dtype=float))
        object.__setattr__(self, "sector_code", np.asarray(self.sector_code, dtype=object))
        object.__setattr__(self, "district_code", np.asarray(self.district_code, dtype=object))
        shape = (len(self.sector_code), len(self.offsets))
        if (self.offsets.ndim != 1 or self.ele.shape != shape or self.mu_r.shape != shape
                or self.district_code.shape != shape[:1]):
            raise ValueError("panel arrays must have shapes (T,), (N, T), (N, T), (N,) and (N,)")
        if len(self.offsets) and not np.array_equal(self.offsets - self.offsets[0],
                                                    np.arange(len(self.offsets))):
            raise ValueError("offsets must be contiguous")
        if self.ele.size:
            if not np.isfinite(self.ele).all() or self.ele.min() < 0.0:
                raise ValueError("ele must be finite and >= 0")
            if not (self.mu_r.min() >= 0.0 and self.mu_r.max() <= 1.0):  # NaN fails too
                raise ValueError("mu_r must lie in [0, 1]")

    def __len__(self) -> int:
        return self.ele.size


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


def column_fsums(values: np.ndarray, bounds) -> np.ndarray:
    """Exact sums of rows ``a:b`` of each column of ``values`` (N, T), per ``(a, b)`` of ``bounds``.

    Shape (len(bounds), T).  One column at a time is held as a Python list.
    """
    sums = np.empty((len(bounds), values.shape[1]))
    for j, column in enumerate(values.T):
        vals = column.tolist()
        sums[:, j] = [math.fsum(vals[a:b]) for a, b in bounds]
    return sums


def ecu_grouped(panel: FirmDayPanel, group_by: str = "none", known_codes=None) -> list[EcuSeries]:
    """ECU series per group over the panel's offsets.

    ``group_by`` is "none" (one aggregate series), "sector" or "district".
    When grouping, codes are validated against ``known_codes`` (defaults to
    the built-in taxonomy).  Offsets where a group has no positive-weight
    firm come out as NaN with a zero total weight; ``firm_count`` counts
    the consuming (positive-weight) firms, so zero-weight firms leave
    every column untouched.
    """
    if len(panel) == 0:
        raise ValueError("panel is empty")

    firms = len(panel.sector_code)
    if group_by == "none":
        group_keys, order, starts = [AGGREGATE_KEY], slice(None), np.zeros(1, dtype=int)
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
        order = np.argsort(group, kind="stable")
        starts = np.searchsorted(group[order], np.arange(len(group_keys)))
    else:
        raise ValueError(f"group_by must be 'none', 'sector' or 'district', got {group_by!r}")

    bounds = list(zip(starts.tolist(), starts[1:].tolist() + [firms]))
    ele = panel.ele[order]
    cnt = np.add.reduceat(ele > 0.0, starts, axis=0, dtype=int)
    den = column_fsums(ele, bounds)
    num = column_fsums(ele * panel.mu_r[order], bounds)  # a zero weight adds exact zeros
    ecu = np.full(den.shape, np.nan)
    np.divide(num, den, out=ecu, where=cnt > 0)
    tot = np.where(cnt > 0, den, 0.0)
    return [EcuSeries(group_type, key, panel.offsets.copy(), ecu[g], tot[g], cnt[g])
            for g, key in enumerate(group_keys)]


def srpi(panel: FirmDayPanel, reference_totals: np.ndarray,
         window_days: int = 7) -> SrpiSeries:
    """Total test-window consumption per offset and the smoothed year-over-year gap.

    ``reference_totals`` (T,) holds, at each offset of the panel, the same
    firms' total consumption at the aligned reference-window day; another
    shape is an alignment error.  The gap is smoothed with the same trailing
    mean the preprocessing uses.
    """
    if len(panel) == 0:
        raise ValueError("panel is empty")
    ref = np.asarray(reference_totals)
    if ref.shape != panel.offsets.shape:
        raise ValueError(f"reference totals have shape {ref.shape}; the panel's "
                         f"{len(panel.offsets)} offsets need shape {panel.offsets.shape}")
    (totals,) = column_fsums(panel.ele, [(0, len(panel.ele))])
    delta = trailing_mean(totals - ref, window_days)
    return SrpiSeries(panel.offsets.copy(), totals, delta)
