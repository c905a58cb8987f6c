"""Firm-level electricity consumption regime analysis.

The package turns daily kWh readings into year-over-year deviation
series, fits a two-regime Gaussian hidden Markov model to each firm,
and aggregates the filtered recession probabilities into
consumption-weighted indexes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # a set value wins
    os.environ.setdefault(_var, "1")  # before numpy's import, or its BLAS starts idle threads

from .ecu import EcuSeries, FirmDayPanel, SrpiSeries, ecu_grouped, srpi
from .hmm import (
    PROSPEROUS,
    RECESSIONARY,
    FilterDegeneracyError,
    FilterOutput,
    FitReport,
    RegimeModel,
    RegimeParams,
    em_fit,
    init_params,
)
from .preprocess import DeviationSeries, KwhPanel, preprocess_grid
from .simgen import PanelConfig, SyntheticPanel, generate, truth_labels

__version__ = "0.1.0"

__all__ = [
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
    "RegimeModel",
    "RegimeParams",
    "SrpiSeries",
    "SyntheticPanel",
    "ecu_grouped",
    "em_fit",
    "generate",
    "init_params",
    "preprocess_grid",
    "srpi",
    "truth_labels",
]
