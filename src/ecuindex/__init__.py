"""Firm-level electricity consumption regime analysis.

The package turns daily kWh readings into year-over-year deviation
series, fits a two-regime Gaussian hidden Markov model to each firm,
and aggregates the filtered recession probabilities into
consumption-weighted indexes.
"""

from .ecu import (
    EcuSeries,
    FirmDayPanel,
    SrpiSeries,
    ecu_grouped,
    srpi,
)
from .hmm import (
    PROSPEROUS,
    RECESSIONARY,
    FilterDegeneracyError,
    FilterOutput,
    FitReport,
    RegimeModel,
    RegimeParams,
    em_fit,
    forward_filter,
    init_params,
    label_regimes,
    sample_path,
)
from .preprocess import (
    AlignedPair,
    CleanSeries,
    DeviationSeries,
    KwhPanel,
    RawSeries,
    align,
    detect_outliers,
    deviation,
    interpolate,
    preprocess_grid,
    smooth,
)
from .simgen import PanelConfig, SyntheticPanel, generate, truth_labels

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "CleanSeries",
    "DeviationSeries",
    "EcuSeries",
    "FilterDegeneracyError",
    "FilterOutput",
    "FirmDayPanel",
    "FitReport",
    "KwhPanel",
    "PROSPEROUS",
    "PanelConfig",
    "RECESSIONARY",
    "RawSeries",
    "RegimeModel",
    "RegimeParams",
    "SrpiSeries",
    "SyntheticPanel",
    "align",
    "detect_outliers",
    "deviation",
    "ecu_grouped",
    "em_fit",
    "forward_filter",
    "generate",
    "init_params",
    "interpolate",
    "label_regimes",
    "preprocess_grid",
    "sample_path",
    "smooth",
    "srpi",
    "truth_labels",
]
