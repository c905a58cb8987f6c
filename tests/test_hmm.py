"""Tests for the two-regime HMM: filter against brute-force path enumeration, EM properties."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecuindex import hmm, hmmbatch
from ecuindex.hmm import (
    PROSPEROUS,
    RECESSIONARY,
    FilterDegeneracyError,
    FilterOutput,
    FitReport,
    RegimeModel,
    RegimeParams,
    _label,
    _m_step,
    em_fit,
    emission_logdensity,
    init_params,
    random_init,
    sigma_floor,
)
from ecuindex.preprocess import DeviationSeries
from hmm_helpers import forward_filter, sample_path
from test_hmm_oracle import series_and_model

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


def test_standard_normal_peak_logdensity():
    params = RegimeParams(0.0, 0.0, 1.0)
    assert emission_logdensity(0.0, 1, params) == -0.9189385332046727


def test_one_sigma_residual_costs_half():
    params = RegimeParams(0.0, 0.0, 1.0)
    assert emission_logdensity(1.0, 5, params) - emission_logdensity(0.0, 5, params) == -0.5


def test_logdensity_tracks_trend():
    params = RegimeParams(2.0, -3.0, 1.5)
    peak = -np.log(1.5) - 0.5 * np.log(2.0 * np.pi)
    assert emission_logdensity(2.0 * 7 - 3.0, 7, params) == pytest.approx(peak, abs=1e-15)


def test_logdensity_vectorizes():
    params = RegimeParams(0.5, 1.0, 2.0)
    t = np.arange(1, 6, dtype=float)
    y = np.array([1.0, 2.0, 2.5, 3.0, 3.5])
    got = emission_logdensity(y, t, params)
    want = [emission_logdensity(float(yi), float(ti), params) for yi, ti in zip(y, t)]
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
    return [outcome for _, outcome in sorted(hmmbatch.em_rows(
        np.array([y for y, _ in cases]), enumerate(m for _, m in cases), width, max_iter=50,
        offsets=offsets))]


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
    with mock.patch.object(hmmbatch, "SCALAR_ROWS", scalar_rows):
        outs = stream(cases, offsets, width)
    assert len(outs) == len(cases)
    for (y, model), out in zip(cases, outs):
        assert isinstance(out, (FitReport, ValueError, RuntimeError))
        got = (type(out), str(out)) if isinstance(out, Exception) else fit_bits(out)
        series = y if offsets is None else DeviationSeries(offsets, y)
        assert got == outcome_bits(em_fit, series, model, max_iter=50)


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


def test_batch_and_tail_failures_name_the_series_offset():
    """A row that degenerates at its first E-step fails in the batch, and one that degenerates
    only after an update fails in ``em_fit``'s tail; both name ``offsets[step]``."""
    T, k = 191, 120
    offsets = np.arange(T) * 3 - T
    y = np.zeros(T)
    y[k] = 1e4
    # only state 1 can emit the spike, and it never holds mass: the init's wide state 0 still
    # can, the state 0 of the first update cannot
    late = RegimeModel(np.eye(2), (RegimeParams(0.0, 0.0, 1e4), RegimeParams(0.0, 1e4, 1e-300)),
                       np.array([0.5, 0.5]))
    early = RegimeModel(np.eye(2), (RegimeParams(0.0, 0.0, 1e-12),
                                    RegimeParams(0.0, 1e4, 1e-12)), np.array([1.0, 0.0]))
    em_fit = hmm.em_fit
    for scalar_rows, tail_failures in ((0, 0), (2, 1)):
        failures = []

        def recording_em_fit(*args, **kwargs):
            try:
                return em_fit(*args, **kwargs)
            except FilterDegeneracyError as exc:
                failures.append(exc)
                raise

        with (mock.patch.object(hmmbatch, "SCALAR_ROWS", scalar_rows),
              mock.patch.object(hmm, "em_fit", recording_em_fit)):
            outs = [outcome for _, outcome in sorted(hmmbatch.em_rows(
                np.array([y, y]), enumerate([late, early]), 2, offsets=offsets))]
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


def m_step_bits(q, params, pi0) -> list:
    return [np.asarray(x, dtype=float).tobytes()
            for x in (q, [[p.alpha, p.beta, p.sigma] for p in params], pi0)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m_step_rows())
def test_batched_m_step_is_m_step_on_each_row_bit_for_bit(rows):
    """``_m_step_rows`` gives each row ``_m_step``'s model, or its error, bit for bit."""
    T = len(rows[0][0])
    t = np.arange(1, T + 1, dtype=float)
    y = np.array([y for y, *_ in rows])
    gamma = np.array([gamma for _, gamma, *_ in rows])
    xi = np.stack([xi for _, _, xi, *_ in rows], axis=-1)
    model = np.array([hmmbatch._column(model) for *_, model, _ in rows]).T
    with np.errstate(all="ignore"):
        new, errors = hmmbatch._m_step_rows(y, t, gamma, xi, model,
                                            np.array([floor for *_, floor in rows]))
    for j, (yj, _, xj, mj, floor) in enumerate(rows):
        try:
            with np.errstate(all="ignore"):
                want = m_step_bits(*_m_step(yj, t, gamma[j].T, xj, mj.q, mj.params, floor))
        except ValueError as exc:
            want = type(exc), str(exc)
        got = ((type(errors[j]), str(errors[j])) if errors[j] is not None
               else m_step_bits(*hmmbatch._row_model(new, j)))
        assert got == want


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


def test_label_swaps_rows_and_columns():
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    # index 0 holds the smaller intercept, so labeling must swap
    m = RegimeModel(q, (RegimeParams(0.0, -5.0, 1.0), RegimeParams(0.0, 5.0, 1.0)), np.array([0.2, 0.8]))
    labeled, _, degenerate = _label(m)
    assert not degenerate
    assert labeled.prosperous.beta == 5.0
    assert labeled.recessionary.beta == -5.0
    np.testing.assert_array_equal(labeled.q, np.array([[0.7, 0.3], [0.1, 0.9]]))
    np.testing.assert_array_equal(labeled.pi0, [0.8, 0.2])


def test_label_noop_when_already_ordered():
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    m = RegimeModel(q, (RegimeParams(0.0, 5.0, 1.0), RegimeParams(0.0, -5.0, 1.0)), np.array([0.2, 0.8]))
    labeled, _, degenerate = _label(m)
    assert not degenerate
    np.testing.assert_array_equal(labeled.q, q)


def test_label_intercept_tie_breaks_on_sigma():
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    m = RegimeModel(q, (RegimeParams(0.0, 1.0, 3.0), RegimeParams(0.0, 1.0, 1.0)), np.array([0.5, 0.5]))
    labeled, _, degenerate = _label(m)
    assert not degenerate
    assert labeled.recessionary.sigma == 3.0


def test_label_full_tie_is_degenerate():
    q = np.array([[0.9, 0.1], [0.3, 0.7]])
    m = RegimeModel(q, (RegimeParams(0.0, 1.0, 1.0), RegimeParams(0.0, 1.0, 1.0)), np.array([0.5, 0.5]))
    *_, degenerate = _label(m)
    assert degenerate


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
