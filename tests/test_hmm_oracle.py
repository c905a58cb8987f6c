"""The Python-float recursions and EM loop against the numpy-per-step oracle.

``hmm_oracle`` holds the package's earlier numpy implementation.  The
recursions now write the 2x2 products out by hand, so they may round the
propagation step differently from ``vec @ q``; everything else is the same
arithmetic.  Where the oracle's smoothed posteriors hold a 0/0 NaN, the
package raises ``FilterDegeneracyError`` at that step instead.
Tolerances, fixed before comparing: log-likelihood and
posteriors within 1e-12 relative, summed transition posteriors within
1e-12 absolute, and after a full EM fit, parameters, filtered pairs and
the final log-likelihood within 1e-9 relative with identical iteration
counts and flags.  EM's filter, taken from its last E-step, must be
bit-identical to ``forward_filter`` run again on the returned model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmm_oracle as oracle
from ecuindex.hmm import (
    FilterDegeneracyError,
    RegimeModel,
    RegimeParams,
    _forward_backward,
    em_fit,
    init_params,
    random_init,
)
from ecuindex.preprocess import DeviationSeries
from hmm_helpers import forward_filter, sample_path
from test_acceptance import TRUE_MODEL

SHAPES = ("spike", "step", "flat", "ties", "noise")


def make_series(shape, T, level, noise, rng):
    t = np.arange(T)
    base = rng.normal(0.0, noise, T)
    if shape == "spike":
        idx = rng.integers(0, T, size=max(1, T // 40))
        base[idx] += rng.choice([-1.0, 1.0], size=len(idx)) * noise * 10.0 ** rng.uniform(1, 6)
    elif shape == "step":
        base += np.where(t < rng.integers(0, T + 1), 0.0, -noise * rng.uniform(1, 100))
    elif shape == "flat":
        base[:] = 0.0
    elif shape == "ties":
        base = np.round(base / noise) * noise
    return base + level


def hard_model(y, rng):
    """Absorbing or uniform transitions and very narrow or far-off regimes."""
    spread = float(np.std(y)) or 1.0
    rows = ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5])

    def regime():
        beta = float(rng.choice([np.median(y), y.min(), y.max(), np.mean(y) + 1e3 * spread]))
        sigma = spread * float(rng.choice([1e-12, 1e-3, 1.0, 1e3]))
        return RegimeParams(float(rng.normal(0.0, spread / len(y))), beta, sigma)

    q = np.array([rows[rng.integers(3)], rows[rng.integers(3)]])
    return RegimeModel(q, (regime(), regime()), np.array(rows[rng.integers(3)]))


@st.composite
def series_and_model(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.one_of(st.just(191), st.integers(1, 191)))
    level = draw(st.sampled_from([0.0, 1e6, -1e6]))
    noise = draw(st.sampled_from([1e-9, 1.0, 1e3]))
    y = make_series(draw(st.sampled_from(SHAPES)), T, level, noise, rng)
    kind = draw(st.sampled_from(["init", "random", "hard"]))
    if kind == "init":
        model = init_params(y)
    elif kind == "random":
        model = random_init(y, rng)
    else:
        model = hard_model(y, rng)
    return y, model


def outcome(fn, *args):
    try:
        return fn(*args), None
    except FilterDegeneracyError as exc:
        return None, str(exc)


def assert_rel(got, want, rtol):
    """Within rtol of ``want`` elementwise; NaN (a 0/0 posterior) only where ``want`` has it."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = np.isnan(want) | (np.abs(got - want) <= rtol * np.abs(want))
    assert ok.all(), (got[~ok], want[~ok])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(series_and_model())
def test_recursions_match_numpy_oracle(case):
    y, model = case
    T = len(y)
    dev = DeviationSeries(np.arange(-(T // 2), T - T // 2), y)

    filt, filt_err = outcome(forward_filter, dev, model)
    want_filt, want_filt_err = outcome(oracle.forward_filter, dev, model)
    assert filt_err == want_filt_err
    t = np.arange(1, T + 1, dtype=float)
    em, em_err = outcome(_forward_backward, y, t, model.q, model.params, model.pi0)
    want_em, want_em_err = outcome(oracle._forward_backward, y, model)
    if want_em_err is None:
        # a 0/0 posterior in the oracle is a degeneracy at its 1-based step
        nan_rows = np.flatnonzero(np.isnan(want_em[1]).any(axis=1))
        if len(nan_rows):
            want_em_err = f"filter degeneracy at offset {nan_rows[0] + 1}"
    assert em_err == want_em_err
    if want_filt_err is not None:
        return

    # a log-likelihood near zero is a difference of large terms: 1e-12 of 1 there
    assert abs(filt.loglik - want_filt.loglik) <= 1e-12 * max(1.0, abs(want_filt.loglik))
    assert_rel(filt.filtered, want_filt.filtered, 1e-12)
    assert np.abs(filt.filtered.sum(axis=1) - 1.0).max() <= 1e-12

    if em_err is not None:
        return
    loglik, filtered, gamma, xi_sum = em
    want_loglik, want_gamma, want_xi = want_em
    assert loglik == filt.loglik
    np.testing.assert_array_equal(filtered, filt.filtered)
    assert abs(loglik - want_loglik) <= 1e-12 * max(1.0, abs(want_loglik))
    assert_rel(gamma, want_gamma, 1e-12)
    np.testing.assert_allclose(xi_sum, want_xi, rtol=0, atol=1e-12)

    # the cap keeps hard cases short; capped fits take the same final E-step path
    try:
        report = em_fit(y, model, max_iter=50)
    except (ValueError, RuntimeError):  # a failed fit is skipped, as the pipeline does
        return
    again = forward_filter(y, report.model)
    np.testing.assert_array_equal(report.filter.filtered, again.filtered)
    assert report.filter.loglik == again.loglik == report.loglik_trace[-1]
    # the oracle's second pass on the returned model, as the pipeline once ran it
    two_pass = oracle.forward_filter(y, report.model)
    assert_rel(report.filter.filtered, two_pass.filtered, 1e-12)
    assert abs(report.filter.loglik - two_pass.loglik) <= 1e-12 * max(1.0, abs(two_pass.loglik))


def test_degeneracy_offset_matches_oracle():
    """Only regime 1 can emit the third value, but the chain is locked in regime 0."""
    model = RegimeModel(np.eye(2), (RegimeParams(0.0, 0.0, 1e-12), RegimeParams(0.0, 100.0, 1e-12)),
                        np.array([1.0, 0.0]))
    dev = DeviationSeries(np.array([-1, 0, 1, 2]), np.array([0.0, 0.0, 100.0, 0.0]))
    for fn in (forward_filter, oracle.forward_filter):
        with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 1$"):
            fn(dev, model)
    with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 1$"):
        em_fit(dev, model)
    # plain arrays carry no offsets: errors name the 1-based step
    t = np.arange(1.0, 5.0)
    with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 3$"):
        _forward_backward(dev.y, t, model.q, model.params, model.pi0)
    with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 3$"):
        em_fit(dev.y, model)
    with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 3$"):
        oracle._forward_backward(dev.y, model)


def test_posterior_degeneracy_is_raised_where_oracle_has_nan():
    """A chain locked in regime 1 whose emissions favour regime 0 a thousandfold.

    The forward pass is fine (every normalizer is about 1e-3), but the
    unreachable regime's scaled backward variable grows 1000x per step and
    overflows, so the oracle's first posterior row is 0 * inf = NaN.
    """
    model = RegimeModel(np.eye(2), (RegimeParams(0.0, 0.0, 1.0), RegimeParams(0.0, 0.0, 1e3)),
                        np.array([0.0, 1.0]))
    y = np.zeros(191)
    t = np.arange(1.0, 192.0)
    forward_filter(y, model)
    with np.errstate(all="ignore"):
        _, want_gamma, _ = oracle._forward_backward(y, model)
        assert np.isnan(want_gamma[0]).any()
        with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 1$"):
            _forward_backward(y, t, model.q, model.params, model.pi0)
        with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset 1$"):
            em_fit(y, model)
        with pytest.raises(FilterDegeneracyError, match="^filter degeneracy at offset -95$"):
            em_fit(DeviationSeries(np.arange(-95, 96), y), model)


def test_em_matches_oracle_on_recovery_fixtures():
    """The 200 firms of acceptance criterion 3, each fitted by both EM loops."""
    for k in range(200):
        _, y = sample_path(TRUE_MODEL, 191, seed=3000 + k)
        got, want = em_fit(y, init_params(y)), oracle.em_fit(y, init_params(y))
        assert (got.iterations, got.converged, got.degenerate) == \
            (want.iterations, want.converged, want.degenerate), k
        for pg, pw in zip(got.model.params, want.model.params):
            assert_rel([pg.alpha, pg.beta, pg.sigma], [pw.alpha, pw.beta, pw.sigma], 1e-9)
        assert_rel(got.model.q, want.model.q, 1e-9)
        assert_rel(got.model.pi0, want.model.pi0, 1e-9)
        assert_rel(got.loglik_trace[-1], want.loglik_trace[-1], 1e-9)
        assert_rel(got.filter.filtered, want.filter.filtered, 1e-9)
        assert_rel(got.filter.loglik, want.filter.loglik, 1e-9)


@pytest.mark.parametrize("max_iter", [0, 1, 8, 9])
def test_em_iteration_cap_matches_oracle(max_iter):
    """Firm 3001 converges after exactly 8 updates: a cap of 8 stops it one E-step short."""
    for k in range(5):
        _, y = sample_path(TRUE_MODEL, 191, seed=3000 + k)
        got = em_fit(y, init_params(y), max_iter=max_iter)
        want = oracle.em_fit(y, init_params(y), max_iter=max_iter)
        assert (got.iterations, got.converged, len(got.loglik_trace)) == \
            (want.iterations, want.converged, len(want.loglik_trace))
        assert_rel(got.loglik_trace, want.loglik_trace, 1e-9)
        assert_rel(got.filter.filtered, want.filter.filtered, 1e-9)
