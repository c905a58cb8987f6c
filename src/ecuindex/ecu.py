"""Consumption-weighted uncertainty indexes.

Aggregates per-firm filtered recessionary probabilities into an ECU series
(economy-wide, per sector, per district) where each firm's daily kWh is its
weight, plus the simplified resumption power index (total consumption and
its smoothed gap to the reference year).

The inputs are firm x offset arrays.  Each (group, offset) cell is one
``math.fsum`` over that group's rows of one offset's column, gathered and
weighted a block of columns at a time, so no other firm x offset array is built.
``fsum`` is correctly rounded, so results are independent of firm order and
safe to partition across groups.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_DISTRICTS, DEFAULT_SECTORS, RunConfig

GROUP_AGGREGATE = "aggregate"
GROUP_SECTOR = "sector"
GROUP_DISTRICT = "district"
AGGREGATE_KEY = "all"
BLOCK_VALUES = 8192  # firm-days an exact sum gathers and multiplies at a time, or one column


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

    @functools.cached_property
    def totals(self) -> np.ndarray:
        """Exact sum of ``ele`` per offset: the aggregate ECU's weight and the sRPI."""
        return column_fsums(self.ele)


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


def trailing_mean(values, window: int) -> np.ndarray:
    """Trailing mean over ``window`` entries; leading entries use all available ones."""
    v = np.asarray(values, dtype=float)
    c = np.concatenate(([0.0], np.cumsum(v)))
    idx = np.arange(len(v))
    lo = np.maximum(idx - window + 1, 0)
    return (c[idx + 1] - c[lo]) / (idx + 1 - lo)


def column_fsums(values: np.ndarray, rows=slice(None), factor=None) -> np.ndarray:
    """Exact sum of each column of ``values[rows]`` (n, T), or of ``values[rows] * factor[rows]``,
    taken a block of about ``BLOCK_VALUES`` values at a time; one column at a time is held as a
    Python list."""
    sums, width = [], max(1, BLOCK_VALUES // max(1, len(values[rows, :0])))  # a block's columns
    for at in range(0, values.shape[1], width):
        block = values[rows, at:at + width]
        block = block if factor is None else block * factor[rows, at:at + width]
        sums += [math.fsum(column.tolist()) for column in block.T]
    return np.array(sums)


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

    if group_by == "none":
        groups, group_type = [(AGGREGATE_KEY, slice(None))], GROUP_AGGREGATE  # a view: no copy
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
        groups = [(key, np.flatnonzero(group == g)) for g, key in enumerate(group_keys)]
    else:
        raise ValueError(f"group_by must be 'none', 'sector' or 'district', got {group_by!r}")

    consuming = panel.ele > 0.0
    series = []
    for key, rows in groups:
        cnt = np.count_nonzero(consuming[rows], axis=0)
        den = panel.totals if group_type == GROUP_AGGREGATE else column_fsums(panel.ele, rows)
        num = column_fsums(panel.ele, rows, panel.mu_r)  # a zero weight adds exact zeros
        ecu = np.full(den.shape, np.nan)
        np.divide(num, den, out=ecu, where=cnt > 0)
        series.append(EcuSeries(group_type, key, panel.offsets.copy(), ecu,
                                np.where(cnt > 0, den, 0.0), cnt))
    return series


def srpi(panel: FirmDayPanel, reference_totals: np.ndarray,
         window_days: int = RunConfig.smooth_window) -> SrpiSeries:
    """Total test-window consumption per offset and the smoothed year-over-year gap.

    ``reference_totals`` (T,) holds, at each offset of the panel, the same
    firms' total consumption at the aligned reference-window day; another
    shape is an alignment error.  The gap is smoothed by ``trailing_mean``.
    """
    if len(panel) == 0:
        raise ValueError("panel is empty")
    ref = np.asarray(reference_totals)
    if ref.shape != panel.offsets.shape:
        raise ValueError(f"reference totals have shape {ref.shape}; the panel's "
                         f"{len(panel.offsets)} offsets need shape {panel.offsets.shape}")
    delta = trailing_mean(panel.totals - ref, window_days)
    return SrpiSeries(panel.offsets.copy(), panel.totals, delta)
