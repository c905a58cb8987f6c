"""The firm x day grid preprocessing against the per-firm chain it replaced.

``preprocess_oracle`` holds that chain.  Firms here have their own first and
last days, NaN runs, flagged spikes at the edges of their range, leading
gaps that send interpolation to the first valid days, signed zeros, and
series too short or too late to cover the windows.  Each firm's deviation,
``ele_test`` and ``ele_ref`` must equal the oracle's bit for bit, and a
refused firm must get the oracle's message: alone, on a grid whose other
cells hold junk, and at any row of a panel that spans several blocks.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preprocess_oracle as oracle
from ecuindex import hmm, pipeline
from ecuindex.config import RunConfig
from ecuindex.preprocess import KwhPanel, preprocess_grid
from ecuindex.simgen import PanelConfig, generate
from firm_records import FirmRecord, panel_of, records_of
from preprocess_oracle import RawSeries

DAY0 = np.datetime64("2019-01-01")
FEATURES = ("nan_run", "leading_gap", "edge_spikes", "spikes", "all_nan", "constant",
            "signed_zeros", "inf")


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def oracle_rows(record, cfg):
    """The oracle's (y, ele_test, ele_ref) of ``record``, or its message."""
    try:
        dev, raw_pair = oracle.preprocess_firm(record, cfg)
    except ValueError as exc:
        return str(exc)
    return dev.y, raw_pair.test, raw_pair.reference


def assert_rows_match(got, want, firm_id):
    if isinstance(want, str):
        assert got == want, firm_id
    else:
        assert not isinstance(got, str), (firm_id, got)
        assert [bits(a) for a in got] == [bits(a) for a in want], firm_id


def make_firm(firm_id, start, length, level, features, seed):
    rng = np.random.default_rng(seed)
    values = level * rng.uniform(0.5, 1.5, length)
    if "constant" in features:
        values[:] = level
    if "spikes" in features and length:
        values[rng.integers(0, length, 3)] *= 20.0
    if "edge_spikes" in features and length:
        values[[0, -1]] = level * 30.0 + 1.0
    if "signed_zeros" in features and length:
        values[rng.integers(0, length, 4)] = -0.0
        values[0] = rng.choice([0.0, -0.0])
    if "nan_run" in features and length:
        at = int(rng.integers(0, length))
        values[at:at + int(rng.integers(1, 20))] = np.nan
    if "leading_gap" in features:
        values[:int(rng.integers(1, 6))] = np.nan
    if "inf" in features and length:
        values[rng.integers(0, length)] = np.inf
    if "all_nan" in features:
        values[:] = np.nan
    return FirmRecord(firm_id, "301", "D01", RawSeries(DAY0 + start + np.arange(length), values))


@st.composite
def panels(draw):
    span = draw(st.integers(1, 8))
    ref = draw(st.integers(12, 45))
    test = ref + draw(st.integers(-25, 30))
    cfg = RunConfig(ref_base=str(DAY0 + ref), test_base=str(DAY0 + test), span=span,
                    outlier_window=draw(st.sampled_from([3, 5, 7, 15])),
                    outlier_k=draw(st.sampled_from([1.0, 2.0, 3.5])),
                    interp_window=draw(st.sampled_from([1, 2, 5, 14])),
                    smooth_window=draw(st.sampled_from([1, 2, 3, 7])))
    records = []
    for k in range(draw(st.integers(1, 12))):
        features = draw(st.sets(st.sampled_from(FEATURES), max_size=3))
        records.append(make_firm(
            f"F{k:03d}", draw(st.integers(0, 30)), draw(st.integers(0, 110)),
            draw(st.sampled_from([0.0, 1e-3, 7.0, 350.0, 2e6])), features,
            draw(st.integers(0, 2**32 - 1))))
    order = draw(st.permutations(range(len(records))))
    return cfg, records, [records[k] for k in order], draw(st.integers(1, 5))


def grid_blocks(panel, cfg, block):
    """``preprocess_grid`` over ``block`` rows of the panel at a time, as the fit's jobs call it:
    the (y, ele_test, ele_ref) rows and messages of all of them."""
    parts = [preprocess_grid(panel[at:at + block], cfg) for at in range(0, len(panel), block)]
    *layers, errors = zip(*parts)
    return *(np.concatenate(layer) for layer in layers), [e for part in errors for e in part]


def pipeline_rows(record, cfg):
    """The grid's (y, ele_test, ele_ref) of ``record`` preprocessed alone, or its message."""
    y, ele_test, ele_ref, (error,) = grid_blocks(panel_of([record]), cfg, 1)
    return error if error is not None else (y[0], ele_test[0], ele_ref[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(panels())
def test_grid_matches_oracle_alone_and_in_any_block(case):
    cfg, records, permuted, block = case
    want = {rec.firm_id: oracle_rows(rec, cfg) for rec in records}
    for rec in records:
        assert_rows_match(pipeline_rows(rec, cfg), want[rec.firm_id], rec.firm_id)

    # ids prefixed by position keep the permuted order on the panel's rows
    panel = panel_of([replace(rec, firm_id=f"{k:02d}{rec.firm_id}")
                      for k, rec in enumerate(permuted)])
    y, ele_test, ele_ref, errors = grid_blocks(panel, cfg, block)
    for k, rec in enumerate(permuted):
        got = errors[k] if errors[k] is not None else (y[k], ele_test[k], ele_ref[k])
        assert_rows_match(got, want[rec.firm_id], rec.firm_id)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(panels(), st.sampled_from([np.nan, np.inf, 1e300, -5.0, -0.0]), st.integers(0, 20))
def test_cells_outside_a_row_are_ignored(case, junk, pad):
    """Each row's own columns are all the grid function reads of it."""
    cfg, records, _, _ = case
    lengths = [len(rec.series) for rec in records]
    lo = np.array([pad + int((rec.series.dates[0] - DAY0) // np.timedelta64(1, "D")) if n else 0
                   for rec, n in zip(records, lengths)])
    hi = lo + lengths
    kwh = np.full((len(records), hi.max() + pad + 1), junk)
    for row, rec, a, b in zip(kwh, records, lo, hi):
        row[a:b] = rec.series.values
    panel = KwhPanel([f"F{k:03d}" for k in range(len(records))], ["301"] * len(records),
                     ["D01"] * len(records), DAY0 - pad, lo, hi, kwh)
    with np.errstate(all="ignore"):
        y, ele_test, ele_ref, errors = preprocess_grid(panel, cfg)
    for k, rec in enumerate(records):
        got = errors[k] if errors[k] is not None else (y[k], ele_test[k], ele_ref[k])
        assert_rows_match(got, oracle_rows(rec, cfg), rec.firm_id)


def test_signed_zeros_from_a_firm_first_day_match_the_oracle():
    """A window on a firm's first days of -0.0 readings keeps the zero signs of its sums."""
    cfg = RunConfig(ref_base="2019-01-20", test_base="2019-01-05", span=3, smooth_window=3)
    record = FirmRecord("F", "301", "D01", RawSeries(DAY0 + 1 + np.arange(40), np.full(40, -0.0)))
    want = oracle_rows(record, cfg)
    assert np.signbit(want[0]).tolist() == [True] * 3 + [False] * 4
    assert_rows_match(pipeline_rows(record, cfg), want, "F")
    for block in (1, 3):
        y, ele_test, ele_ref, _ = grid_blocks(
            panel_of([make_firm("E", 0, 30, 5.0, (), 0), record]), cfg, block)
        assert_rows_match((y[1], ele_test[1], ele_ref[1]), want, "F")


def kwh_near_the_float_limit():
    holed, short_holed = np.full(60, 1.5e308), np.full(5, 1.5e308)
    holed[30] = short_holed[2] = np.nan
    return [holed, short_holed, np.full(60, 1e307), np.full(5, 1e308)]


@pytest.mark.parametrize("values", kwh_near_the_float_limit(),
                         ids=["mean-overflows", "short-and-mean-overflows", "sums-overflow",
                              "short-and-sums-overflow"])
def test_overflowing_kwh_is_refused_as_the_oracle_refuses_it(values):
    """An interpolated mean or a trailing sum that overflows refuses the firm, after the
    length check when the sums overflow and before it when a mean does."""
    cfg = RunConfig(ref_base="2019-01-20", test_base="2019-02-10", span=5)
    record = FirmRecord("F", "301", "D01", RawSeries(DAY0 + np.arange(len(values)), values))
    with np.errstate(all="ignore"):
        want = oracle_rows(record, cfg)
        assert isinstance(want, str)
        assert pipeline_rows(record, cfg) == want


def mixed_panel():
    """20 simulated firms, each cut to its own days and some holed, plus five to be skipped.

    The panel covers 25 days more than the fit's windows on either side.
    """
    records = records_of(generate(PanelConfig(n_firms=20, seed=4, span=120, missing_rate=0.03,
                                              outlier_rate=0.02)).panel)
    rng = np.random.default_rng(4)
    mixed = []
    for rec in records:
        dates, values = rec.series.dates, rec.series.values.copy()
        a, b = int(rng.integers(0, 25)), len(dates) - int(rng.integers(0, 25))
        values[int(rng.integers(a, b)):][:int(rng.integers(0, 16))] = np.nan
        mixed.append(replace(rec, series=RawSeries(dates[a:b], values[a:b])))
    dates, values = mixed[0].series.dates, mixed[0].series.values
    mixed += [replace(mixed[0], firm_id=firm_id, series=RawSeries(dates[cut], kwh[cut]))
              for firm_id, cut, kwh in (("ZEMPTY", slice(0), values),
                                        ("ZLATE", slice(60, None), values),
                                        ("ZNAN", slice(None), np.full(len(values), np.nan)),
                                        ("ZSHORT", slice(4), values),
                                        ("ZEARLY", slice(300), values))]
    return mixed


@pytest.fixture(scope="module")
def mixed():
    return mixed_panel(), RunConfig()


def test_fit_panel_skips_what_the_oracle_refuses(mixed):
    records, cfg = mixed
    results, skipped = pipeline.fit_panel(panel_of(records), cfg)
    want = {rec.firm_id: oracle_rows(rec, cfg) for rec in records}
    assert skipped == sorted((firm, w) for firm, w in want.items() if isinstance(w, str))
    assert len(skipped) == 5
    for r in results:
        assert_rows_match((r.deviation.y, r.ele_test, r.ele_ref), want[r.firm_id], r.firm_id)


def fit_fields(result):
    """Every field of a fit result, arrays as their bytes."""
    report = result.report
    return (result.firm_id, result.sector_code, result.district_code, report.model.params,
            report.iterations, report.converged, report.degenerate, report.filter.loglik,
            *map(bits, (report.model.q, report.model.pi0, report.loglik_trace,
                        report.filter.filtered, result.deviation.offsets, result.deviation.y,
                        result.ele_test, result.ele_ref)))


@pytest.fixture(scope="module")
def mixed_fits(mixed):
    """The workers=1 fits at the default block sizes, without and with two random inits."""
    records, cfg = mixed
    return {ms: pipeline.fit_panel(panel_of(records), replace(cfg, multi_start=ms), workers=1)
            for ms in (0, 2)}


# (EM_BLOCK, EM_BATCH, SCALAR_ROWS, multi_start): one firm's rows alone, a few firms', or all
# of them in one preprocessing grid and one batch, handed to em_fit at once (16; never in a
# batch one row wide) or never (0), and a grid smaller and larger than the batch
EM_CASES = [(size, size, scalar_rows, 0) for size in (1, 3, 16, 128) for scalar_rows in (0, 16)]
EM_CASES += [(3, 3, 0, 2), (128, 128, 16, 2), (3, 128, 16, 0), (128, 3, 0, 0)]


@pytest.mark.parametrize("em_block", [1, 3, 16, 128])
def test_fit_panel_blocks_and_workers_agree_on_a_mixed_panel(mixed, mixed_fits, em_block):
    """At any preprocessing grid size, EM batch width, hand-off size and worker count, each
    firm's fit and each skip are the workers=1 ones at the default sizes, bit for bit.  Each
    grid size takes the ``EM_CASES`` of its own, so the four take them all."""
    records, cfg = mixed
    for _, em_batch, scalar_rows, multi_start in [case for case in EM_CASES
                                                  if case[0] == em_block]:
        serial, serial_skipped = mixed_fits[multi_start]
        for workers in (1, 2):
            with mock.patch.object(pipeline, "EM_BLOCK", em_block), \
                    mock.patch.object(pipeline, "EM_BATCH", em_batch), \
                    mock.patch.object(hmm, "SCALAR_ROWS", scalar_rows):
                results, skipped = pipeline.fit_panel(
                    panel_of(records), replace(cfg, multi_start=multi_start), workers=workers)
            assert skipped == serial_skipped
            assert list(map(fit_fields, results)) == list(map(fit_fields, serial))
