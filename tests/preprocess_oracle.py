"""The per-firm preprocessing chain, kept as the test oracle.

``preprocess_firm`` is the package's implementation from before the fit
preprocessed firms in blocks on a firm x day grid, copied without change:
each firm's series goes alone through ``detect_outliers`` → ``interpolate``
→ ``smooth`` → ``align`` (smoothed and clean) → ``deviation``, through the
per-series types.  Tests require the package's grid to give the same
deviation and windows bit for bit, and the same message for a firm it
refuses.
"""

import numpy as np

from ecuindex.preprocess import (
    AlignedPair,
    DeviationSeries,
    align,
    detect_outliers,
    deviation,
    interpolate,
    smooth,
)
from firm_records import FirmRecord


def preprocess_firm(record: FirmRecord, cfg) -> tuple[DeviationSeries, AlignedPair]:
    """Deviation series plus the aligned *unsmoothed* consumption windows.

    Raises ValueError when the series cannot cover both windows; the caller
    decides whether that skips the firm or aborts the run.
    """
    mask = detect_outliers(record.series, cfg.outlier_window, cfg.outlier_k)
    clean = interpolate(record.series, mask, cfg.interp_window)
    smoothed = smooth(clean, cfg.smooth_window)
    ref_base = np.datetime64(cfg.ref_base)
    test_base = np.datetime64(cfg.test_base)
    pair = align(smoothed, ref_base, test_base, cfg.span)
    raw_pair = align(clean, ref_base, test_base, cfg.span)
    return deviation(pair), raw_pair
