"""EM against the scalar kernel it replaced: the same fit, bit for bit.

``hmm_scalar_oracle`` holds the kernel from before the forward pass handed
its density and normalizer lists on to the backward pass and before the
M-step normalized on Python floats.  No operation that rounds changed, so
every fit must match the oracle's in every bit (trace, filter, model,
iteration count and flags), and every failed fit must fail with the same
error type and message.
"""

import numpy as np
from hypothesis import given, settings

import hmm_scalar_oracle as oracle
from ecuindex.hmm import em_fit, init_params, sample_path
from ecuindex.preprocess import DeviationSeries
from test_acceptance import TRUE_MODEL
from test_hmm import fit_bits
from test_hmm_oracle import series_and_model


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the failure itself is compared
        return None, (type(exc), str(exc))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_and_model())
def test_em_matches_scalar_oracle(case):
    y, model = case
    T = len(y)
    dev = DeviationSeries(np.arange(-(T // 2), T - T // 2), y)
    # the cap keeps hard cases short, as in test_hmm_oracle
    got, got_err = outcome(em_fit, dev, model, max_iter=50)
    want, want_err = outcome(oracle.em_fit, dev, model, max_iter=50)
    assert got_err == want_err
    if want is not None:
        assert fit_bits(got) == fit_bits(want)


def test_em_matches_scalar_oracle_on_recovery_fixtures():
    """The 200 firms of acceptance criterion 3, each fitted by both kernels."""
    for k in range(200):
        _, y = sample_path(TRUE_MODEL, 191, seed=3000 + k)
        assert fit_bits(em_fit(y, init_params(y))) == fit_bits(oracle.em_fit(y, init_params(y)))
