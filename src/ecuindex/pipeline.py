"""Per-firm orchestration: raw series in, fitted model and index inputs out.

Chains the preprocessing and the EM fit, whose last forward pass is the
firm's causal filter, and carries along the cleaned consumption that the
index stage needs for weighting.  The panel-level driver fans firms out
across processes; every firm's computation depends only on its own record
and the run settings, so worker count cannot change any result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .config import RunConfig
from .ecu import FirmDayPanel, fsum_by_key
from .hmm import FilterOutput, FitReport, em_fit, init_params, random_init
from .panelio import FirmDayTable, ModelRow, read_firmdays, read_models
from .preprocess import (
    AlignedPair,
    DeviationSeries,
    FirmRecord,
    align,
    detect_outliers,
    deviation,
    firm_rng,
    interpolate,
    smooth,
)


@dataclass(frozen=True)
class FirmFitResult:
    """Everything downstream stages need for one fitted firm."""

    firm_id: str
    sector_code: str
    district_code: str
    deviation: DeviationSeries
    report: FitReport
    ele_test: np.ndarray  # cleaned kWh over the test window, the ECU weights
    ele_ref: np.ndarray   # cleaned kWh over the reference window, for the sRPI baseline

    @property
    def filtered(self) -> FilterOutput:
        """The causal filter under the fitted model: EM's last forward pass."""
        return self.report.filter


def preprocess_firm(record: FirmRecord, cfg: RunConfig) -> tuple[DeviationSeries, AlignedPair]:
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


def fit_deviation(dev: DeviationSeries, cfg: RunConfig, firm_id: str) -> FitReport:
    """EM fit from the deterministic init, optionally racing extra random starts.

    With ``multi_start`` > 0 that many random inits, drawn from the firm's
    stream 3, are fitted too and the highest final log-likelihood wins; the
    deterministic init wins ties, so multi_start=0 output is reproduced
    whenever it is already the best.
    """
    best = em_fit(dev, init_params(dev), tol=cfg.em_tol, max_iter=cfg.em_max_iter)
    if cfg.multi_start > 0:
        rng = firm_rng(cfg.seed, firm_id, 3)
        for _ in range(cfg.multi_start):
            cand = em_fit(dev, random_init(dev, rng), tol=cfg.em_tol, max_iter=cfg.em_max_iter)
            if cand.loglik_trace[-1] > best.loglik_trace[-1]:
                best = cand
    return best


def _economically_flat(dev: DeviationSeries, raw_pair: AlignedPair) -> bool:
    """Deviation amplitude below floating-point roundoff of the kWh level.

    The rolling-sum preprocessing leaves residuals of order 1e-13 of the
    consumption level even on a firm whose two years match exactly, so a
    strict zero test is meaningless.  Anything within 1e-8 of the level is
    still many orders below the smallest real consumption change and cannot
    evidence a regime distinction.
    """
    scale = float(np.mean(np.abs(raw_pair.test)))
    return float(np.abs(dev.y).max()) <= 1e-8 * (1.0 + scale)


def fit_firm(record: FirmRecord, cfg: RunConfig) -> FirmFitResult:
    dev, raw_pair = preprocess_firm(record, cfg)
    report = fit_deviation(dev, cfg, record.firm_id)
    if not report.degenerate and _economically_flat(dev, raw_pair):
        report = replace(report, degenerate=True)
    return FirmFitResult(
        firm_id=record.firm_id,
        sector_code=record.sector_code,
        district_code=record.district_code,
        deviation=dev,
        report=report,
        ele_test=raw_pair.test,
        ele_ref=raw_pair.reference,
    )


def _fit_one(args) -> tuple[str, FirmFitResult | None, str | None]:
    record, cfg = args
    try:
        return record.firm_id, fit_firm(record, cfg), None
    except (ValueError, RuntimeError) as exc:  # RuntimeError: FilterDegeneracyError, EM failure
        return record.firm_id, None, str(exc)


def fit_panel(records: list[FirmRecord], cfg: RunConfig,
              workers: int = 1) -> tuple[list[FirmFitResult], list[tuple[str, str]]]:
    """Fit every firm; returns (results sorted by firm id, skipped (id, reason)).

    A firm whose series cannot cover the windows or whose fit fails
    numerically is skipped with a diagnostic instead of failing the run.
    The pool starts at most one process per firm and per usable CPU.
    """
    jobs = [(rec, cfg) for rec in records]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(jobs), cpus or 1)
    if workers <= 1:
        outcomes = map(_fit_one, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for the import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_fit_one, jobs, chunksize=max(1, len(jobs) // (workers * 4))))
    results, skipped = [], []
    for firm_id, result, reason in outcomes:
        if result is not None:
            results.append(result)
        else:
            skipped.append((firm_id, reason))
    results.sort(key=lambda r: r.firm_id)
    skipped.sort()
    return results, skipped


def model_rows(results: Iterable[FirmFitResult]) -> dict[str, ModelRow]:
    """Per-firm rows of the models file, keyed by firm id."""
    return {r.firm_id: ModelRow(r.firm_id, r.sector_code, r.district_code, r.report.model,
                                float(r.report.loglik_trace[-1]), r.report.converged,
                                r.report.degenerate)
            for r in results}


def firmday_table(results: Iterable[FirmFitResult]) -> FirmDayTable:
    """Stack fit results into the firm-day table, sorted by firm id then offset."""
    rs = sorted(results, key=lambda r: r.firm_id)

    def stack(column):
        return np.concatenate([column(r) for r in rs]) if rs else np.empty(0)

    return FirmDayTable(
        firm_id=np.repeat(np.array([r.firm_id for r in rs], dtype=object),
                          [len(r.deviation.offsets) for r in rs]),
        offset=stack(lambda r: r.deviation.offsets),
        y=stack(lambda r: r.deviation.y),
        mu_p=stack(lambda r: r.filtered.mu_p),
        mu_r=stack(lambda r: r.filtered.mu_r),
        ele_test=stack(lambda r: r.ele_test),
        ele_ref=stack(lambda r: r.ele_ref),
    )


def _firm_codes(firm_id: np.ndarray) -> tuple[dict[str, int], np.ndarray]:
    """Each distinct firm id's position in first-seen order, and each row's firm position."""
    ids = firm_id.tolist()
    index = {f: k for k, f in enumerate(dict.fromkeys(ids))}
    return index, np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def _firmday_panel(table: FirmDayTable, models: Mapping[str, ModelRow], index: dict[str, int],
                   firm: np.ndarray) -> FirmDayPanel:
    """The columnar panel the index stage aggregates; ``index`` and ``firm`` as ``_firm_codes``.

    A degenerate fit cannot distinguish its regimes, so its recessionary
    probability is zeroed here (the audit flag stays in the model export).
    """
    rows = [models[firm_id] for firm_id in index]
    degenerate = np.array([m.degenerate for m in rows], dtype=bool)[firm]
    return FirmDayPanel(table.firm_id, table.offset, table.ele_test,
                        np.where(degenerate, 0.0, table.mu_r),
                        np.array([m.sector_code for m in rows], dtype=object)[firm],
                        np.array([m.district_code for m in rows], dtype=object)[firm])


def _reference_totals(table: FirmDayTable) -> dict[int, float]:
    offsets, _, (totals,) = fsum_by_key(table.offset, table.ele_ref)
    return dict(zip(offsets.tolist(), totals.tolist()))


def build_firmday_panel(results: list[FirmFitResult]) -> FirmDayPanel:
    """Stack fit results into the columnar panel the index stage aggregates."""
    table = firmday_table(results)
    return _firmday_panel(table, model_rows(results), *_firm_codes(table.firm_id))


def reference_totals(results: list[FirmFitResult]) -> dict[int, float]:
    """Summed reference-window consumption per offset (the sRPI baseline)."""
    return _reference_totals(firmday_table(results))


@dataclass(frozen=True)
class FitOutputs:
    """The fit stage's files read back, with the index inputs built from them."""

    models: dict[str, ModelRow]
    firmdays: FirmDayTable
    panel: FirmDayPanel
    reference_totals: dict[int, float]


def read_fit_outputs(directory) -> FitOutputs:
    """Load ``models.csv`` and ``firmdays.csv`` as written by the fit command.

    The panel and reference totals equal ``build_firmday_panel`` and
    ``reference_totals`` of the results the files were written from.  A firm
    repeated in ``models.csv`` or without a row there, a repeated firm-day,
    a firm of ``models.csv`` without a row for every offset of
    ``firmdays.csv``, and a ``firmdays.csv`` without rows next to a
    non-empty ``models.csv`` would miscount the indexes and are refused.
    """
    directory = Path(directory)
    for name in ("models.csv", "firmdays.csv"):
        if not (directory / name).exists():
            raise FileNotFoundError(f"missing fit output {directory / name}; "
                                    "run the fit command first")
    models = read_models(directory / "models.csv")
    path = directory / "firmdays.csv"
    table = read_firmdays(path)
    codes, firm = _firm_codes(table.firm_id)
    missing = sorted(codes.keys() - models.keys())
    if missing:
        raise ValueError(f"firmdays.csv has rows for firm {missing[0]} "
                         "but models.csv has no row for it")
    order = np.lexsort((table.offset, firm))  # stable: a repeat sorts after its first row
    repeats = order[1:][(np.diff(firm[order]) == 0) & (np.diff(table.offset[order]) == 0)]
    if repeats.size:
        n = int(repeats.min())
        raise ValueError(f"{path} data row {n + 1}: firm {table.firm_id[n]} already has "
                         f"a row for offset {table.offset[n]}")
    if models and not firm.size:  # with no offsets the coverage rule below holds vacuously
        raise ValueError(f"{path}: firm {min(models)} has no rows")
    # no repeats, so a firm with as many rows as the file has offsets has them all
    span = np.arange(table.offset.min(), table.offset.max() + 1) if firm.size else np.empty(0, int)
    counts = dict(zip(codes, np.bincount(firm, minlength=len(codes)).tolist()))
    short = next((f for f in sorted(models) if counts.get(f, 0) != span.size), None)
    if short is not None:
        missing = np.setdiff1d(span, table.offset[firm == codes.get(short, -1)])
        raise ValueError(f"{path}: firm {short} has no row for offset {missing[0]}")
    return FitOutputs(models, table, _firmday_panel(table, models, codes, firm),
                      _reference_totals(table))
