"""Tests for the two-regime HMM: filter against brute-force path enumeration, EM properties."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecuindex import hmm
from ecuindex.hmm import (
    PROSPEROUS,
    RECESSIONARY,
    FilterDegeneracyError,
    FilterOutput,
    RegimeModel,
    RegimeParams,
    _label,
    em_fit,
    init_params,
    random_init,
    sigma_floor,
)
from ecuindex.preprocess import DeviationSeries
import hmm_scalar_oracle as scalar_oracle
from hmm_helpers import forward_filter, sample_path
from hmm_oracle import _label as oracle_label
from test_hmm_oracle import absorbing, series_and_model

# ---------------------------------------------------------------------------
# brute-force oracle: total likelihood by summing over every state path
# ---------------------------------------------------------------------------


def gauss_pdf(x, mean, sigma):
    return np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))


def enum_path_weights(y, model):
    """Probability weight of every one of the 2^T state paths, plus the paths."""
    T = len(y)
    paths = np.array(list(itertools.product((0, 1), repeat=T)))
    t = np.arange(1, T + 1, dtype=float)
    alpha = np.array([p.alpha for p in model.params])
    beta = np.array([p.beta for p in model.params])
    sigma = np.array([p.sigma for p in model.params])
    means = alpha[paths] * t[None, :] + beta[paths]
    w = model.pi0[paths[:, 0]] * gauss_pdf(y[None, :], means, sigma[paths]).prod(axis=1)
    if T > 1:
        w = w * model.q[paths[:, :-1], paths[:, 1:]].prod(axis=1)
    return w, paths


def enum_filtered(y, model):
    """Filtered P(state_t = r | y_1..t) for every t, by enumerating each prefix."""
    out = np.empty((len(y), 2))
    for t in range(len(y)):
        w, paths = enum_path_weights(y[: t + 1], model)
        total = w.sum()
        p_r = w[paths[:, -1] == 1].sum() / total
        out[t] = (1.0 - p_r, p_r)
    return out


def random_model(rng):
    stay = rng.uniform(0.6, 0.98, size=2)
    q = np.array([[stay[0], 1.0 - stay[0]], [1.0 - stay[1], stay[1]]])
    params = (
        RegimeParams(rng.normal(0.0, 0.05), rng.normal(2.0, 1.0), rng.uniform(0.5, 1.5)),
        RegimeParams(rng.normal(0.0, 0.05), rng.normal(-2.0, 1.0), rng.uniform(0.5, 1.5)),
    )
    p = rng.uniform(0.2, 0.8)
    return RegimeModel(q, params, np.array([p, 1.0 - p]))


# ---------------------------------------------------------------------------
# emission density
# ---------------------------------------------------------------------------


def logdensity(y, t, params: RegimeParams) -> np.ndarray:
    """The E-step's log density (``hmm._logdensities``) of each value of ``y``, a row, at the
    positions ``t`` under ``params``, as regime 0 of a model whose regime 1 is the same."""
    y, t = np.atleast_1d(np.asarray(y, dtype=float)), np.atleast_1d(np.asarray(t, dtype=float))
    model = np.array(RegimeModel(np.eye(2), (params, params), np.array([0.5, 0.5])).numbers())
    out = hmm._logdensities(y[None], t, model[:, None], np.empty((2, 1, len(y))),
                            np.empty((2, 1, len(y))))
    return out[0, 0]


def test_standard_normal_peak_logdensity():
    params = RegimeParams(0.0, 0.0, 1.0)
    assert logdensity(0.0, 1, params)[0] == -0.9189385332046727


def test_one_sigma_residual_costs_half():
    params = RegimeParams(0.0, 0.0, 1.0)
    assert logdensity(1.0, 5, params)[0] - logdensity(0.0, 5, params)[0] == -0.5


def test_logdensity_tracks_trend():
    params = RegimeParams(2.0, -3.0, 1.5)
    peak = -np.log(1.5) - 0.5 * np.log(2.0 * np.pi)
    assert logdensity(2.0 * 7 - 3.0, 7, params)[0] == pytest.approx(peak, abs=1e-15)


def test_logdensity_vectorizes():
    params = RegimeParams(0.5, 1.0, 2.0)
    t = np.arange(1, 6, dtype=float)
    y = np.array([1.0, 2.0, 2.5, 3.0, 3.5])
    got = logdensity(y, t, params)
    want = [logdensity(float(yi), float(ti), params)[0] for yi, ti in zip(y, t)]
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


def test_sigma_must_be_positive():
    with pytest.raises(ValueError, match="sigma"):
        RegimeParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        RegimeParams(0.0, 0.0, -1.0)


def test_transition_rows_must_sum_to_one():
    params = (RegimeParams(0, 1, 1), RegimeParams(0, -1, 1))
    with pytest.raises(ValueError, match="sum to 1"):
        RegimeModel(np.array([[0.9, 0.2], [0.3, 0.7]]), params, np.array([0.5, 0.5]))


def test_pi0_entries_must_be_probabilities():
    params = (RegimeParams(0, 1, 1), RegimeParams(0, -1, 1))
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RegimeModel(q, params, np.array([1.5, -0.5]))


def test_filter_output_checks_pair_sums():
    with pytest.raises(ValueError, match="sum to 1"):
        FilterOutput(np.array([[0.6, 0.6]]), -1.0)


def test_filter_output_rejects_nan_pairs():
    with pytest.raises(ValueError, match="sum to 1"):
        FilterOutput(np.array([[0.5, 0.5], [np.nan, np.nan]]), -1.0)


def test_model_rejects_nan_probabilities():
    params = (RegimeParams(0, 1, 1), RegimeParams(0, -1, 1))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RegimeModel(np.array([[np.nan, np.nan], [0.3, 0.7]]), params, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RegimeModel(np.array([[0.9, 0.1], [0.3, 0.7]]), params, np.array([np.nan, 0.5]))


SIMPLEX_PARAMS = (RegimeParams(0, 1, 1), RegimeParams(0, -1, 1))


@pytest.mark.parametrize("q, pi0, message", [
    ([[-0.1, 1.1], [0.3, 0.7]], [0.5, 0.5],
     "transition matrix row entries must lie in [0, 1], got [-0.1  1.1]"),
    ([[0.9, 0.1], [np.nan, 1.0]], [0.5, 0.5],
     "transition matrix row entries must lie in [0, 1], got [nan  1.]"),
    ([[0.9, 0.1], [0.3, -0.0]], [0.5, 0.5],
     "transition matrix row must sum to 1 within 1e-12, got [ 0.3 -0. ]"),
    ([[0.9, 0.1], [0.3, 0.7]], [np.inf, 0.0],
     "initial state probabilities entries must lie in [0, 1], got [inf  0.]"),
    ([[0.9, 0.1], [0.3, 0.7]], [0.6, 0.6],
     "initial state probabilities must sum to 1 within 1e-12, got [0.6 0.6]"),
    ([[0.9, 0.1], [0.3, 0.7]], [0.5, 0.5 + 2e-12],
     "initial state probabilities must sum to 1 within 1e-12, got [0.5 0.5]"),
])
def test_simplex_checks_refuse_with_their_messages(q, pi0, message):
    """A negative, NaN or infinite entry and a sum off by more than 1e-12 are refused, the
    message showing the vector as numpy prints it."""
    with pytest.raises(ValueError) as exc:
        RegimeModel(np.array(q), SIMPLEX_PARAMS, np.array(pi0))
    assert str(exc.value) == message


@pytest.mark.parametrize("q, pi0", [([[1.0, 0.0], [0.0, 1.0]], [-0.0, 1.0]),
                                    ([[0.9, 0.1], [0.3, 0.7]], [0.5, 0.5 + 5e-13])])
def test_simplex_checks_accept_the_edges_and_sums_within_tolerance(q, pi0):
    RegimeModel(np.array(q), SIMPLEX_PARAMS, np.array(pi0))


# a model's 12 numbers in hmm.MODEL_COLUMNS order
NUMBERS = [0.5, 2.0, 1.5, -0.25, -1.0, 0.75, 0.9, 0.1, 0.25, 0.75, 0.6, 0.4]


def test_a_model_round_trips_through_its_numbers():
    """``numbers`` gives the 12 numbers as Python floats in ``MODEL_COLUMNS`` order, whatever
    float type the params hold, and ``from_numbers`` builds the same model on Python floats from
    the first 12 numbers of a row, keeping no view of the array it was given."""
    m = RegimeModel(np.array([[0.9, 0.1], [0.25, 0.75]]),
                    (RegimeParams(np.float64(0.5), np.float64(2.0), 1.5),
                     RegimeParams(-0.25, -1.0, 0.75)), np.array([0.6, 0.4]))
    assert len(hmm.MODEL_COLUMNS) == len(NUMBERS)
    assert m.numbers() == NUMBERS and {type(x) for x in m.numbers()} == {float}
    row = np.array(m.numbers())
    back = RegimeModel.from_numbers(row)
    row[:] = np.nan
    assert back.params == m.params
    assert {type(x) for p in back.params for x in (p.alpha, p.beta, p.sigma)} == {float}
    assert back.q.tolist() == m.q.tolist() and back.pi0.tolist() == m.pi0.tolist()
    assert back.numbers() == NUMBERS
    assert RegimeModel.from_numbers([*NUMBERS, -123.5]).numbers() == NUMBERS  # a models row


@pytest.mark.parametrize("changes, message", [
    ({2: 0.0, 5: -1.0, 6: 2.0, 10: 2.0}, "sigma must be positive and finite, got 0.0"),
    ({5: np.nan, 6: 2.0, 10: 2.0}, "sigma must be positive and finite, got nan"),
    ({6: 2.0, 10: 2.0}, "transition matrix row entries must lie in [0, 1], got [2.  0.1]"),
    ({8: 0.5, 10: 2.0}, "transition matrix row must sum to 1 within 1e-12, got [0.5  0.75]"),
    ({10: 2.0}, "initial state probabilities entries must lie in [0, 1], got [2.  0.4]"),
    ({11: 0.5}, "initial state probabilities must sum to 1 within 1e-12, got [0.6 0.5]"),
])
def test_numbers_are_checked_sigmas_then_q_rows_then_pi0(changes, message):
    """``from_numbers`` refuses the first fault in the order the constructors check: regime 0's
    sigma, regime 1's, each row of q, then pi0."""
    row = [changes.get(k, x) for k, x in enumerate(NUMBERS)]
    with pytest.raises(ValueError) as exc:
        RegimeModel.from_numbers(row)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# forward filter
# ---------------------------------------------------------------------------


def test_filter_single_observation_closed_form():
    m = RegimeModel(
        np.array([[0.9, 0.1], [0.3, 0.7]]),
        (RegimeParams(0.0, 1.0, 1.0), RegimeParams(0.0, -1.0, 2.0)),
        np.array([0.4, 0.6]),
    )
    y = np.array([0.5])
    d_p = 0.4 * gauss_pdf(0.5, 1.0, 1.0)
    d_r = 0.6 * gauss_pdf(0.5, -1.0, 2.0)
    out = forward_filter(y, m)
    np.testing.assert_allclose(out.filtered[0], [d_p / (d_p + d_r), d_r / (d_p + d_r)], atol=1e-15)
    assert out.loglik == pytest.approx(np.log(d_p + d_r), abs=1e-12)


def test_filter_matches_path_enumeration():
    """Loglik and every filtered pair agree with 2^T brute force, 20 random draws."""
    rng = np.random.default_rng(202)
    for _ in range(20):
        m = random_model(rng)
        T = int(rng.integers(2, 11))
        y = rng.normal(0.0, 3.0, size=T)
        out = forward_filter(y, m)
        w, _ = enum_path_weights(y, m)
        assert out.loglik == pytest.approx(np.log(w.sum()), abs=1e-9)
        np.testing.assert_allclose(out.filtered, enum_filtered(y, m), atol=1e-9)


def test_filter_shift_invariance():
    """Adding a constant to y and both intercepts changes nothing."""
    rng = np.random.default_rng(5)
    m = random_model(rng)
    y = rng.normal(0.0, 2.0, size=60)
    shift = 123.456
    m2 = RegimeModel(
        m.q,
        tuple(RegimeParams(p.alpha, p.beta + shift, p.sigma) for p in m.params),
        m.pi0,
    )
    a, b = forward_filter(y, m), forward_filter(y + shift, m2)
    np.testing.assert_allclose(a.filtered, b.filtered, atol=1e-9)
    assert a.loglik == pytest.approx(b.loglik, abs=1e-9)


def test_filter_scale_behavior():
    """Scaling y and all emission parameters by lam rescales loglik by -T*log(lam)."""
    rng = np.random.default_rng(6)
    m = random_model(rng)
    y = rng.normal(0.0, 2.0, size=50)
    lam = 4.0
    m2 = RegimeModel(
        m.q,
        tuple(RegimeParams(p.alpha * lam, p.beta * lam, p.sigma * lam) for p in m.params),
        m.pi0,
    )
    a, b = forward_filter(y, m), forward_filter(y * lam, m2)
    np.testing.assert_allclose(a.filtered, b.filtered, atol=1e-9)
    assert b.loglik == pytest.approx(a.loglik - len(y) * np.log(lam), abs=1e-9)


def test_filter_accepts_deviation_series():
    rng = np.random.default_rng(9)
    m = random_model(rng)
    y = rng.normal(0.0, 2.0, size=5)
    dev = DeviationSeries(np.arange(-2, 3), y)
    np.testing.assert_array_equal(forward_filter(dev, m).filtered, forward_filter(y, m).filtered)


def test_filter_degeneracy_raises():
    # locked in state 0 by pi0 and an absorbing q, but only state 1 can emit y
    m = RegimeModel(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        (RegimeParams(0.0, 0.0, 1e-12), RegimeParams(0.0, 100.0, 1e-12)),
        np.array([1.0, 0.0]),
    )
    with pytest.raises(FilterDegeneracyError, match="filter degeneracy at offset 1"):
        forward_filter(np.array([100.0]), m)


def test_filter_degeneracy_names_series_offset():
    m = RegimeModel(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        (RegimeParams(0.0, 0.0, 1e-12), RegimeParams(0.0, 100.0, 1e-12)),
        np.array([1.0, 0.0]),
    )
    dev = DeviationSeries(np.array([-1, 0, 1]), np.array([0.0, 0.0, 100.0]))
    with pytest.raises(FilterDegeneracyError, match="at offset 1"):
        forward_filter(dev, m)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


def two_regime_series(seed=42, T=191):
    """Synthetic series with a clear mid-window downward break."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(T) < T // 2, 2.0, -8.0) + rng.normal(0.0, 1.0, T)
    return y


def test_em_loglik_never_decreases():
    rng = np.random.default_rng(77)
    for _ in range(10):
        T = int(rng.integers(30, 120))
        y = rng.normal(0.0, 2.0, size=T) + np.where(rng.random(T) < 0.3, -6.0, 0.0)
        trace = em_fit(y, init_params(y)).loglik_trace
        assert np.all(np.diff(trace) >= -1e-8)


def test_em_trace_ends_at_returned_model():
    y = two_regime_series()
    report = em_fit(y, init_params(y))
    assert forward_filter(y, report.model).loglik == pytest.approx(
        report.loglik_trace[-1], abs=1e-9
    )


def test_em_converges_on_clean_break():
    y = two_regime_series()
    report = em_fit(y, init_params(y))
    assert report.converged
    assert not report.degenerate
    assert report.iterations < 500


def test_em_recovers_generating_parameters():
    truth = RegimeModel(
        np.array([[0.97, 0.03], [0.05, 0.95]]),
        (RegimeParams(0.01, 5.0, 1.0), RegimeParams(-0.02, -10.0, 2.0)),
        np.array([0.6, 0.4]),
    )
    _, y = sample_path(truth, 1000, seed=3)
    report = em_fit(y, init_params(y))
    assert report.converged
    fit = report.model
    assert fit.prosperous.beta == pytest.approx(5.0, rel=0.15)
    assert fit.recessionary.beta == pytest.approx(-10.0, rel=0.15)
    assert fit.q[0, 0] == pytest.approx(0.97, abs=0.03)
    assert fit.q[1, 1] == pytest.approx(0.95, abs=0.05)


def test_em_fit_does_not_depend_on_memory_layout():
    """A strided column of a (T, N) array fits bit for bit like its contiguous copy."""
    truth = RegimeModel(np.array([[0.95, 0.05], [0.1, 0.9]]),
                        (RegimeParams(0.01, 1.0, 0.5), RegimeParams(-0.02, -1.0, 0.8)),
                        np.array([0.6, 0.4]))
    Y = np.stack([sample_path(truth, 191, seed)[1] for seed in range(4)], axis=1)
    for column in Y.T:
        strided, copied = (em_fit(y, init_params(y)) for y in (column, column.copy()))
        assert strided.model.params == copied.model.params
        for a, b in ((strided.model.q, copied.model.q), (strided.loglik_trace, copied.loglik_trace),
                     (strided.filter.filtered, copied.filter.filtered)):
            assert a.tobytes() == b.tobytes()


def test_em_output_is_labeled():
    y = two_regime_series(seed=8)
    m = em_fit(y, init_params(y)).model
    assert m.recessionary.beta < m.prosperous.beta


def test_em_label_invariant_to_init_order():
    """Swapping the two regimes in the init must not change the labeled fit."""
    y = two_regime_series(seed=15)
    init = init_params(y)
    swapped = RegimeModel(
        init.q[np.ix_([1, 0], [1, 0])], (init.params[1], init.params[0]), init.pi0[[1, 0]]
    )
    a, b = em_fit(y, init).model, em_fit(y, swapped).model
    for pa, pb in zip(a.params, b.params):
        assert pa.beta == pytest.approx(pb.beta, rel=1e-5, abs=1e-7)
        assert pa.sigma == pytest.approx(pb.sigma, rel=1e-5, abs=1e-7)
    np.testing.assert_allclose(a.q, b.q, atol=1e-6)


def swap_regimes(model):
    return RegimeModel(model.q[::-1, ::-1], model.params[::-1], model.pi0[::-1])


def unless_classified_failure(fn, *args, **kwargs):
    """``fn``'s result, or None where it fails as the pipeline expects a fit to fail."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError):  # RuntimeError: FilterDegeneracyError, EM failure
        return None


def fit_bits(report) -> list:
    """Iterations and flags, then the bytes of the trace, filter, model arrays and floats."""
    params = [[p.alpha, p.beta, p.sigma] for p in report.model.params]
    return [(report.iterations, report.converged, report.degenerate)] + [
        np.asarray(x, dtype=float).tobytes() for x in (
            report.loglik_trace, report.filter.filtered, report.filter.loglik, report.model.q,
            report.model.pi0, params)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_and_model())
def test_kernel_fails_only_as_classified_and_filters_probabilities(case):
    y, model = case
    for out in (unless_classified_failure(forward_filter, y, model),
                unless_classified_failure(em_fit, y, model, max_iter=50)):
        if out is not None:
            filtered = getattr(out, "filter", out).filtered
            assert ((filtered >= 0.0) & (filtered <= 1.0)).all()
            assert np.abs(filtered.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(series_and_model())
def test_swapped_init_gives_the_same_fit_bit_for_bit(case):
    """The regimes' order in the init changes no rounding, so a labelled fit cannot tell."""
    y, model = case
    report = unless_classified_failure(em_fit, y, model, max_iter=50)
    assert report is None or report.iterations == len(report.loglik_trace) - 1
    if report is None or report.degenerate:  # tied regimes would keep their init order
        return
    assert fit_bits(em_fit(y, swap_regimes(model), max_iter=50)) == fit_bits(report)


@st.composite
def stacked_cases(draw):
    """Two to six ``series_and_model`` cases of one length, their offsets (None in a drawn
    share), a hand-off size and a batch width for their stream; a width below their count makes
    rows join mid-stream, and offsets that are not the 1-based steps show which a failure names."""
    T = draw(st.one_of(st.just(191), st.integers(1, 191)))
    cases = [draw(series_and_model(T)) for _ in range(draw(st.integers(2, 6)))]
    offsets = draw(st.sampled_from([None, np.arange(T) * 3 - T]))
    return cases, offsets, draw(st.integers(0, len(cases))), draw(st.integers(1, len(cases)))


def stream(cases, offsets, width):
    """``em_rows`` on the cases, each series a row of one grid and started from its model; the
    outcomes in start order."""
    return [outcome for _, outcome in sorted(hmm.em_rows(
        np.array([y for y, _ in cases]), ((k, k, m) for k, (_, m) in enumerate(cases)), width,
        max_iter=50, offsets=offsets))]


def outcome_bits(fn, *args, **kwargs):
    """``fit_bits`` of ``fn``'s report, or the type and message of its classified failure."""
    try:
        with np.errstate(all="ignore"):  # as in the batch
            return fit_bits(fn(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:  # RuntimeError: FilterDegeneracyError, EM failure
        return type(exc), str(exc)


def assert_stream_is_em_fit(cases, offsets, scalar_rows, width):
    """Each outcome of the stream, with ``scalar_rows`` rows handed off, is ``em_fit``'s on its
    row alone, as a ``DeviationSeries`` when the stream has offsets."""
    with mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows):
        outs = stream(cases, offsets, width)
    assert len(outs) == len(cases)
    for (y, model), out in zip(cases, outs):
        assert_is_em_fit(out, y, model, offsets)


def handed_back(out) -> bool:
    """Whether an ``em_rows`` outcome is a handed-back state, (numbers, trace, None)."""
    return isinstance(out, tuple) and out[2] is None


def assert_is_em_fit(out, y, model, offsets, max_iter=50):
    """``out`` is ``em_fit``'s outcome on ``y`` alone from ``model``, as a ``DeviationSeries``
    when there are offsets: its failure, or the (row, trace, filter) of Python floats whose
    ``hmm._fit_report`` is its report."""
    assert isinstance(out, (tuple, ValueError, RuntimeError)) and not handed_back(out)
    if isinstance(out, Exception):
        got = type(out), str(out)
    else:
        row, trace, _ = out
        assert len(row) == 15 and row[12] == trace[-1]
        assert {type(x) for x in row + trace} == {float}
        report = hmm._fit_report(*out)
        assert report.iterations == len(report.loglik_trace) - 1
        got = fit_bits(report)
    series = y if offsets is None else DeviationSeries(offsets, y)
    assert got == outcome_bits(em_fit, series, model, max_iter=max_iter)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(stacked_cases())
def test_batched_em_is_em_fit_on_each_row_bit_for_bit(stacked):
    """Rows side by side round as ``em_fit`` rounds each alone, and fail as it fails."""
    cases, offsets, _, width = stacked
    assert_stream_is_em_fit(cases, offsets, 0, width)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(stacked_cases())
def test_rows_handed_off_finish_as_em_fit_bit_for_bit(stacked):
    """A row the batch hands to ``em_fit`` ends with ``em_fit``'s updates, trace and model."""
    assert_stream_is_em_fit(*stacked)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(stacked_cases())
def test_em_rows_yields_each_outcome_under_the_key_it_was_given(stacked):
    """Keys need not be integers nor rows distinct: each row is started twice, from its own
    model and from the next row's, under keys of several types; the stream yields each key
    once, with ``em_fit``'s outcome of its start."""
    cases, offsets, scalar_rows, width = stacked
    ys = np.array([y for y, _ in cases])
    starts = []
    for k, (_, model) in enumerate(cases):
        starts += [(f"row {k}", k, model), ((k, 0.5), k, cases[(k + 1) % len(cases)][1])]
    with mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows):
        yielded = list(hmm.em_rows(ys, iter(starts), width, max_iter=50, offsets=offsets))
    assert sorted(map(repr, (key for key, _ in yielded))) == sorted(repr(k) for k, *_ in starts)
    outcomes = dict(yielded)
    for key, k, model in starts:
        assert_is_em_fit(outcomes[key], ys[k], model, offsets)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(stacked_cases(), st.integers(0, 6))
def test_a_stream_handed_back_and_resumed_is_em_fit_bit_for_bit(stacked, hand_back):
    """A stream that hands its rows back once ``hand_back`` or fewer run, each with its state,
    and a second stream that resumes them among fresh starts of the same rows yield
    ``em_fit``'s outcome for every start."""
    cases, offsets, scalar_rows, width = stacked
    ys = np.array([y for y, _ in cases])
    with mock.patch.object(hmm, "SCALAR_ROWS", 0):
        first = list(hmm.em_rows(ys, [(k, k, m) for k, (_, m) in enumerate(cases)], width,
                                  max_iter=50, offsets=offsets, hand_back=hand_back))
    states = [(key, key, state) for key, state in first if handed_back(state)]
    assert len(states) <= hand_back
    fresh = [(("fresh", k), k, m) for k, (_, m) in enumerate(cases)]
    mixed = [start for pair in itertools.zip_longest(states, fresh) for start in pair if start]
    with mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows):
        second = list(hmm.em_rows(ys, mixed, width, max_iter=50, offsets=offsets))
    outcomes = dict([(key, out) for key, out in first if not handed_back(out)] + second)
    assert len(outcomes) == 2 * len(cases)
    for k, (y, model) in enumerate(cases):
        assert_is_em_fit(outcomes[k], y, model, offsets)
        assert_is_em_fit(outcomes[("fresh", k)], y, model, offsets)


def spike_models():
    """A series that is zero but for a spike at step 120, with two absorbing models of it: only
    state 1 can emit the spike and never holds mass, so ``late`` degenerates at its second
    E-step, once its wide state 0 is narrowed, and ``early`` at its first."""
    y = np.zeros(191)
    y[120] = 1e4
    late = RegimeModel(np.eye(2), (RegimeParams(0.0, 0.0, 1e4), RegimeParams(0.0, 1e4, 1e-300)),
                       np.array([0.5, 0.5]))
    early = RegimeModel(np.eye(2), (RegimeParams(0.0, 0.0, 1e-12),
                                    RegimeParams(0.0, 1e4, 1e-12)), np.array([1.0, 0.0]))
    return y, late, early


def counting(calls: list):
    """``hmm.em_fit`` that first appends its positional and keyword arguments to ``calls``."""
    plain = hmm.em_fit

    def counting_em_fit(*args, **kwargs):
        calls.append((args, kwargs))
        return plain(*args, **kwargs)
    return counting_em_fit


def test_rows_handed_back_end_as_em_fit_ends_them():
    """A row that fails before the cut, one that fails after it and one that reaches
    ``em_max_iter``, resumed beside a fresh start in the batch or handed straight to
    ``em_fit``'s tail, each end as ``em_fit`` ends them alone."""
    y, late, early = spike_models()
    walk = np.cumsum(np.random.default_rng(5).standard_normal(191))
    ys, walk_init = np.array([y, y, walk]), init_params(walk)
    first = dict(hmm.em_rows(ys, [(0, 0, late), (1, 1, early), (2, 2, walk_init)], 3,
                             max_iter=4, hand_back=3))
    assert isinstance(first[1], FilterDegeneracyError)
    # each handed back after one update
    assert [(handed_back(first[j]), len(first[j][1])) for j in (0, 2)] == [(True, 1)] * 2
    em_fit_of = {0: (y, late), 2: (walk, walk_init), "fresh": (walk, walk_init)}
    for scalar_rows, tails in ((0, 0), (16, 2)):
        calls = []
        with (mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows),
              mock.patch.object(hmm, "em_fit", counting(calls))):
            outs = dict(hmm.em_rows(
                ys, [(0, 0, first[0]), ("fresh", 2, walk_init), (2, 2, first[2])], 3, max_iter=4))
        assert len(calls) == tails
        assert isinstance(outs[0], FilterDegeneracyError)
        report = hmm._fit_report(*outs[2])
        assert (report.iterations, report.converged) == (4, False)
        for key, (series, model) in em_fit_of.items():
            assert_is_em_fit(outs[key], series, model, None, max_iter=4)


def test_a_stream_that_hands_back_never_calls_em_fit():
    """Given a hand-back count below ``SCALAR_ROWS`` and below the number of its rows, a stream
    still hands every row back once no more than ``SCALAR_ROWS`` run, each after one update,
    and never calls ``em_fit``."""
    ys = np.cumsum(np.random.default_rng(5).standard_normal((4, 191)), axis=1)
    calls = []
    with mock.patch.object(hmm, "em_fit", counting(calls)):
        out = dict(hmm.em_rows(ys, [(k, k, init_params(y)) for k, y in enumerate(ys)], 4,
                               hand_back=2))
    assert calls == []
    assert sorted(out) == [0, 1, 2, 3]
    assert [(len(numbers), len(trace), filtered) for numbers, trace, filtered in out.values()] == [
        (12, 1, None)] * 4


def test_a_tail_row_whose_model_is_refused_stays_in_the_batch():
    """A state whose q rows are off the simplex by 1e-9, which ``RegimeModel`` refuses and so
    ``em_fit`` cannot start from, takes its first update in the batch although the tail
    begins, and then goes to ``em_fit``; it ends bit for bit as in a stream without a tail.
    The stream is two rows wide, as a one-row stream has no tail; its other row degenerates at
    its first E-step, so only the refused row reaches the tail."""
    walk = np.cumsum(np.random.default_rng(5).standard_normal(191))
    numbers = init_params(walk).numbers()
    numbers[6:10] = [0.95 + 1e-9, 0.05, 0.05, 0.95 + 1e-9]
    with pytest.raises(ValueError, match="transition matrix row must sum to 1"):
        RegimeModel.from_numbers(numbers)
    spike, _, early = spike_models()
    outs = {}
    for scalar_rows, tails in ((16, [49]), (0, [])):  # each tail's max_iter
        calls = []
        with (mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows),
              mock.patch.object(hmm, "em_fit", counting(calls))):
            [(early_key, failed), (key, outs[scalar_rows])] = hmm.em_rows(
                np.array([walk, spike]), [("off", 0, (numbers, [], None)), ("early", 1, early)],
                2, max_iter=50)
        assert early_key == "early" and isinstance(failed, FilterDegeneracyError)
        assert (key, [kwargs["max_iter"] for _, kwargs in calls]) == ("off", tails)
    assert isinstance(outs[0], tuple) and hmm._fit_report(*outs[0]).iterations > 1
    assert fit_bits(hmm._fit_report(*outs[16])) == fit_bits(hmm._fit_report(*outs[0]))


def test_a_stream_one_row_wide_never_calls_em_fit():
    """A stream one row wide, as ``em_fit`` runs, takes each row to the end itself, none handed
    to ``em_fit``, and ends each as ``em_fit`` does."""
    ys = np.cumsum(np.random.default_rng(5).standard_normal((3, 191)), axis=1)
    calls = []
    with mock.patch.object(hmm, "em_fit", counting(calls)):
        outs = dict(hmm.em_rows(ys, [(k, k, init_params(y)) for k, y in enumerate(ys)], 1,
                                max_iter=50))
    assert calls == []
    for k, y in enumerate(ys):
        assert_is_em_fit(outs[k], y, init_params(y), None)


def test_batch_and_tail_failures_name_the_series_offset():
    """A row that degenerates at its first E-step fails in the batch, and one that degenerates
    only after an update fails in ``em_fit``'s tail; both name ``offsets[step]``."""
    T, k = 191, 120
    offsets = np.arange(T) * 3 - T
    y, late, early = spike_models()
    em_fit = hmm.em_fit
    for scalar_rows, tail_failures in ((0, 0), (2, 1)):
        failures = []

        def recording_em_fit(*args, **kwargs):
            try:
                return em_fit(*args, **kwargs)
            except FilterDegeneracyError as exc:
                failures.append(exc)
                raise

        with (mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows),
              mock.patch.object(hmm, "em_fit", recording_em_fit)):
            outs = [outcome for _, outcome in sorted(hmm.em_rows(
                np.array([y, y]), [(0, 0, late), (1, 1, early)], 2, offsets=offsets))]
        assert [(type(out), str(out)) for out in outs] == [
            (FilterDegeneracyError, f"filter degeneracy at offset {offsets[k]}")] * 2
        assert len(failures) == tail_failures


@st.composite
def m_step_rows(draw):
    """One to four rows of one length for an M-step: each a series, its posteriors, its
    model and sigma floor.  A regime's weights are zero, all on step 0 (a flat weighted line)
    or free; the series' scale of 1e160 makes its residual squares overflow to an infinite
    sigma; a row of the transition posteriors may be zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.one_of(st.just(191), st.integers(1, 40)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        y = rng.standard_normal(T) * draw(st.sampled_from([1.0, 1e-6, 1e160]))
        kinds = draw(st.sampled_from([(a, b) for a in ("zero", "flat", "free")
                                      for b in ("zero", "flat", "free") if (a, b) != ("zero",) * 2]))
        gamma = np.zeros((2, T))  # nonzero at step 0 for some regime, so pi0 is defined
        for i, kind in enumerate(kinds):
            if kind == "flat":
                gamma[i, 0] = draw(st.sampled_from([1.0, 0.3]))
            elif kind == "free":
                gamma[i] = rng.uniform(0.01, 1.0, T)
        xi = rng.uniform(0.0, 5.0, (2, 2)) * draw(st.sampled_from([[[1.0], [1.0]], [[0.0], [1.0]]]))
        model = random_init(y if np.ptp(y) < 1e100 else y * 1e-150, rng)
        with np.errstate(over="ignore"):  # the floor of an overflowing spread is 1e-4
            rows.append((y, gamma, xi, model, sigma_floor(y)))
    return rows


def m_step_bits(numbers) -> bytes:
    return np.asarray(numbers, dtype=float).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m_step_rows())
def test_batched_m_step_is_m_step_on_each_row_bit_for_bit(rows):
    """``_m_step_rows`` gives each row the scalar oracle's ``_m_step`` model, or its error, bit
    for bit, whatever its scratch planes held before."""
    T = len(rows[0][0])
    t = np.arange(1, T + 1, dtype=float)
    y = np.array([y for y, *_ in rows])
    gamma = np.array([gamma for _, gamma, *_ in rows])
    xi = np.stack([xi for _, _, xi, *_ in rows], axis=-1)
    model = np.array([model.numbers() for *_, model, _ in rows]).T
    with np.errstate(all="ignore"):
        new, errors = hmm._m_step_rows(y, t, gamma, xi, model,
                                       np.array([floor for *_, floor in rows]),
                                       np.full((2, len(y), 2, T), np.nan))
    for j, (yj, _, xj, mj, floor) in enumerate(rows):
        try:
            with np.errstate(all="ignore"):
                q, params, pi0 = scalar_oracle._m_step(yj, t, gamma[j].T, xj, mj.q, mj.params,
                                                       floor)
                want = m_step_bits([*(x for p in params for x in (p.alpha, p.beta, p.sigma)),
                                    *q.ravel(), *pi0])
        except ValueError as exc:
            want = type(exc), str(exc)
        back = None if errors[j] is not None else RegimeModel.from_numbers(new[:, j])
        got = ((type(errors[j]), str(errors[j])) if back is None
               else m_step_bits(back.numbers()))
        assert got == want


@st.composite
def e_step_rows(draw):
    """One to four ``series_and_model`` cases of one length, and their offsets (None in a drawn
    share); offsets that are not the 1-based steps show which a failure names."""
    T = draw(st.one_of(st.just(191), st.integers(1, 191)))
    cases = [draw(series_and_model(T)) for _ in range(draw(st.integers(1, 4)))]
    return cases, draw(st.sampled_from([None, np.arange(T) * 3 - T]))


def e_step_bits(loglik, filtered, gamma, xi_sum) -> list:
    return [np.asarray(x, dtype=float).tobytes() for x in (loglik, filtered, gamma, xi_sum)]


WALK = np.cumsum(np.random.default_rng(5).standard_normal(191))
SPIKE = np.array([0.0, 0.0, 100.0, 0.0])


# the absorbing models of ``test_recursions_match_numpy_oracle`` beside rows that fit: backward
# variables of the unreachable state that overflow (0 * inf), at two scales, and a chain locked
# in the one state that cannot emit a value (a 0/0 normalizer)
@example(([(np.zeros(191), absorbing((1.0, 1e3), (0.0, 1.0))), (WALK, init_params(WALK)),
           (np.zeros(191), absorbing((1e-9, 1e-6), (0.0, 1.0)))], None))
@example(([(SPIKE, absorbing((1e-12, 1e-12), (1.0, 0.0), (0.0, 100.0))),
           (SPIKE, random_init(SPIKE, np.random.default_rng(5)))], np.arange(4) * 3 - 4))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(e_step_rows())
def test_batched_e_step_is_e_step_on_each_row_bit_for_bit(case):
    """``_e_step_rows`` gives each row the scalar oracle's log-likelihood, filtered pairs,
    posteriors and summed transition posteriors (its ``_forward_backward``), or its error, bit
    for bit, whatever its pool held before; and each row alone, whose recursions run on
    Python floats, the outcome it has in the batch, whose recursions run on row vectors."""
    cases, offsets = case
    y = np.array([y for y, _ in cases])
    m, T = y.shape
    t = np.arange(1, T + 1, dtype=float)
    model = np.array([model.numbers() for _, model in cases]).T
    with np.errstate(all="ignore"):
        logliks, filtered, gamma, xi, errors = hmm._e_step_rows(
            y, t, model, np.full(7 * m * T, np.nan), offsets)
    for j, (yj, mj) in enumerate(cases):
        try:
            with np.errstate(all="ignore"):
                want = e_step_bits(*scalar_oracle._forward_backward(yj, t, mj.q, mj.params,
                                                                    mj.pi0, offsets))
        except FilterDegeneracyError as exc:
            want = type(exc), str(exc)
        got = ((type(errors[j]), str(errors[j])) if errors[j] is not None
               else e_step_bits(logliks[j], filtered[:, :, j], gamma[j].T, xi[:, :, j]))
        assert got == want
        alone = hmm._e_step_rows(yj[None], t, model[:, j:j + 1].copy(),
                                 np.full(7 * T, np.nan), offsets)
        assert ((type(alone[4][0]), str(alone[4][0])) if alone[4][0] is not None
                else e_step_bits(alone[0][0], alone[1][:, :, 0], alone[2][0].T,
                                 alone[3][:, :, 0])) == got


def test_em_zero_series_flagged_degenerate():
    y = np.zeros(191)
    report = em_fit(y, init_params(y))
    assert report.degenerate
    for p in report.model.params:
        assert p.sigma == pytest.approx(1e-4)


def test_em_constant_series_flagged_degenerate():
    y = np.full(100, 5.0)
    assert em_fit(y, init_params(y)).degenerate


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------


def label_numbers(betas, sigmas, q=(0.9, 0.1, 0.3, 0.7), pi0=(0.2, 0.8)) -> list:
    """A model's 12 numbers: slopes 0, the regimes' ``betas`` and ``sigmas``, ``q``, ``pi0``."""
    return [0.0, betas[0], sigmas[0], 0.0, betas[1], sigmas[1], *q, *pi0]


def test_label_swaps_rows_and_columns():
    # index 0 holds the smaller intercept, so labeling must swap
    labeled, swapped, degenerate = _label(label_numbers((-5.0, 5.0), (1.0, 1.0)))
    assert swapped and not degenerate
    model = RegimeModel.from_numbers(labeled)
    assert model.prosperous.beta == 5.0
    assert model.recessionary.beta == -5.0
    np.testing.assert_array_equal(model.q, np.array([[0.7, 0.3], [0.1, 0.9]]))
    np.testing.assert_array_equal(model.pi0, [0.8, 0.2])


def test_label_noop_when_already_ordered():
    numbers = label_numbers((5.0, -5.0), (1.0, 1.0))
    labeled, swapped, degenerate = _label(numbers)
    assert not swapped and not degenerate
    assert labeled == numbers
    np.testing.assert_array_equal(RegimeModel.from_numbers(labeled).q, [[0.9, 0.1], [0.3, 0.7]])


def test_label_intercept_tie_breaks_on_sigma():
    labeled, _, degenerate = _label(label_numbers((1.0, 1.0), (3.0, 1.0), pi0=(0.5, 0.5)))
    assert not degenerate
    assert RegimeModel.from_numbers(labeled).recessionary.sigma == 3.0


def test_label_full_tie_is_degenerate():
    *_, degenerate = _label(label_numbers((1.0, 1.0), (1.0, 1.0), pi0=(0.5, 0.5)))
    assert degenerate


@pytest.mark.parametrize("betas", [(np.nan, 5.0), (5.0, np.nan), (np.nan, np.nan),
                                   (-np.inf, np.inf), (np.inf, -np.inf), (1.0, 1.0)])
@pytest.mark.parametrize("sigmas", [(1.0, 2.0), (2.0, 1.0)])
def test_label_orders_as_np_argmin_and_argmax(betas, sigmas):
    """A NaN intercept, in either position or both, is the smaller one, as ``np.argmin`` finds
    it, so ``[nan, x]`` makes state 0 recessionary: the labeling is the oracle's, which orders
    the states by ``np.argmin`` of the intercepts and ``np.argmax`` of the sigmas."""
    numbers = label_numbers(betas, sigmas)
    labeled, swapped, degenerate = _label(numbers)
    relabeled, order, indistinct = oracle_label(RegimeModel.from_numbers(numbers))
    assert (swapped, degenerate) == (order.tolist() == [1, 0], indistinct)
    np.testing.assert_array_equal(labeled, relabeled.numbers())
    if betas[0] != betas[0]:
        assert swapped and labeled[4] != labeled[4]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_step_series_seeds_regimes():
    y = np.concatenate([np.zeros(96), np.full(95, -50.0)])
    init = init_params(y)
    assert init.params[RECESSIONARY].beta == pytest.approx(-50.0, abs=1e-9)
    assert init.params[RECESSIONARY].alpha == pytest.approx(0.0, abs=1e-12)
    assert init.params[PROSPEROUS].beta == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_array_equal(init.q, [[0.95, 0.05], [0.05, 0.95]])
    np.testing.assert_array_equal(init.pi0, [0.5, 0.5])


def test_init_constant_series_seeds_identically():
    init = init_params(np.full(50, 3.0))
    assert init.params[0] == init.params[1]


def test_init_is_deterministic():
    y = two_regime_series(seed=21)
    a, b = init_params(y), init_params(y)
    assert a.params == b.params
    np.testing.assert_array_equal(a.q, b.q)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
                          st.floats(width=64)), min_size=1, max_size=12))
def test_median_is_np_median_bit_for_bit(values):
    """``hmm._median``, which ``init_params`` splits at, is ``np.median`` bit for bit at odd and
    even lengths, on ties, signed zeros, infinities and NaN, and leaves its input as it was."""
    v = np.array(values)
    with np.errstate(invalid="ignore"):
        want = np.float64(np.median(v)).tobytes()
        assert np.float64(hmm._median(v)).tobytes() == want
    assert v.tobytes() == np.array(values).tobytes()


def test_random_init_valid_and_seeded():
    y = two_regime_series(seed=2)
    a = random_init(y, np.random.default_rng(123))
    b = random_init(y, np.random.default_rng(123))
    assert a.params == b.params
    np.testing.assert_array_equal(a.q, b.q)
    assert a.q.min() >= 0.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_path_deterministic_per_seed():
    m = random_model(np.random.default_rng(1))
    s1, y1 = sample_path(m, 200, seed=9)
    s2, y2 = sample_path(m, 200, seed=9)
    s3, _ = sample_path(m, 200, seed=10)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(y1, y2)
    assert not np.array_equal(s1, s3)


def test_sample_path_visits_match_stationary_distribution():
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    m = RegimeModel(
        q, (RegimeParams(0.0, 1.0, 1.0), RegimeParams(0.0, -1.0, 1.0)), np.array([0.75, 0.25])
    )
    states, _ = sample_path(m, 100_000, seed=7)
    assert np.mean(states == 0) == pytest.approx(0.75, abs=0.01)


def test_sample_path_emissions_follow_state_trend():
    m = RegimeModel(
        np.array([[0.8, 0.2], [0.2, 0.8]]),
        (RegimeParams(0.5, 2.0, 1e-9), RegimeParams(-0.5, -2.0, 1e-9)),
        np.array([0.5, 0.5]),
    )
    states, y = sample_path(m, 100, seed=4)
    t = np.arange(1, 101, dtype=float)
    alpha = np.where(states == 0, 0.5, -0.5)
    beta = np.where(states == 0, 2.0, -2.0)
    np.testing.assert_allclose(y, alpha * t + beta, atol=1e-6)


def test_sample_path_rejects_empty():
    m = random_model(np.random.default_rng(3))
    with pytest.raises(ValueError):
        sample_path(m, 0, seed=1)
