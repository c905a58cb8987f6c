"""The package's public names are its four stages, and nothing else."""

import ecuindex
from ecuindex import hmm, preprocess

# bench/spans.py times the functions in ecuindex.__all__ (without em_fit spans its --trace 1
# divides by zero) and bench/run.py imports generate and truth_labels from ecuindex, so em_fit,
# init_params, preprocess_grid, generate, truth_labels, ecu_grouped and srpi stay; run.py also
# reads each fit result's DeviationSeries (`.deviation.offsets`)
PUBLIC = ("DeviationSeries EcuSeries FilterDegeneracyError FilterOutput FirmDayPanel FitReport "
          "KwhPanel PROSPEROUS PanelConfig RECESSIONARY RegimeModel RegimeParams SrpiSeries "
          "SyntheticPanel ecu_grouped em_fit generate init_params preprocess_grid srpi "
          "truth_labels").split()
# the per-series chain (now tests/preprocess_oracle.py) and the test-only regime helpers
REMOVED = ("AlignedPair CleanSeries RawSeries align detect_outliers deviation interpolate smooth "
           "forward_filter label_regimes sample_path").split()


def test_public_names_are_the_four_stages():
    assert sorted(ecuindex.__all__) == sorted(PUBLIC) and len(PUBLIC) == 21
    assert all(hasattr(ecuindex, name) for name in PUBLIC)
    for module in (ecuindex, preprocess, hmm):  # without the attribute, `from module import` fails
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
