"""Per-firm orchestration: raw series in, fitted model and index inputs out.

Chains the preprocessing and the EM fit, whose last forward pass is the
firm's causal filter, and carries along the cleaned consumption that the
index stage needs for weighting.  The panel-level driver fans firms out
across processes; every firm's computation depends only on its own record
and the run settings, so worker count cannot change any result.  The fit's
product, in memory and on disk, is one ``FitOutputs``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import RunConfig
from .ecu import FirmDayPanel, column_fsums
from .hmm import FilterOutput, FitReport, em_fit, init_params, random_init
from .panelio import ModelRow, read_models, write_models
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


FIRMDAY_LAYERS = ("y", "mu_p", "mu_r", "ele_test", "ele_ref")  # firmdays.npy, axis 0


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


@dataclass(frozen=True)
class FitOutputs:
    """The fit's product, built from its results or read back from its files.

    ``models`` holds one row per firm, in id order, and ``firmdays`` is the
    (5, firms, T) float64 array of their ``FIRMDAY_LAYERS``, row k for the k-th
    model and column j for offset ``j - T // 2``.
    """

    models: dict[str, ModelRow]
    firmdays: np.ndarray

    @functools.cached_property
    def panel(self) -> FirmDayPanel:
        """The panel the index stage aggregates; ``ele`` is a view of the ``ele_test`` layer.

        A degenerate fit cannot distinguish its regimes, so its recessionary
        probabilities are zeroed here (the audit flag stays in the models).
        """
        _, _, mu_r, ele_test, _ = self.firmdays
        days = self.firmdays.shape[2]
        rows = list(self.models.values())
        degenerate = np.array([m.degenerate for m in rows], dtype=bool)
        return FirmDayPanel(np.arange(days) - days // 2, ele_test,
                            np.where(degenerate[:, None], 0.0, mu_r),
                            [m.sector_code for m in rows], [m.district_code for m in rows])

    @functools.cached_property
    def reference_totals(self) -> np.ndarray:
        """Exact sums of the ``ele_ref`` layer per offset, along ``panel.offsets``: the sRPI
        baseline."""
        *_, ele_ref = self.firmdays
        (totals,) = column_fsums(ele_ref, [(0, len(ele_ref))])
        return totals


def fit_outputs(results: Iterable[FirmFitResult]) -> FitOutputs:
    """The models and the stacked firm-day array of ``results``, firms in id order.

    Every firm's offsets must be the same ``-span..span``, so T is odd and implies them.
    """
    rs = sorted(results, key=lambda r: r.firm_id)
    span = len(rs[0].deviation.offsets) // 2 if rs else 0
    offsets = np.arange(-span, span + 1)
    layers = np.empty((len(FIRMDAY_LAYERS), len(rs), len(offsets)))
    models = {}
    for k, r in enumerate(rs):
        if not np.array_equal(r.deviation.offsets, offsets):
            raise ValueError(f"firm {r.firm_id}: offsets must run {-span}..{span} as the first "
                             "firm's do")
        layers[:, k] = r.deviation.y, r.filtered.mu_p, r.filtered.mu_r, r.ele_test, r.ele_ref
        models[r.firm_id] = ModelRow(r.firm_id, r.sector_code, r.district_code, r.report.model,
                                     float(r.report.loglik_trace[-1]), r.report.converged,
                                     r.report.degenerate)
    return FitOutputs(models, layers)


# bench/run.py calls these two; they go once fit_panel returns a FitOutputs
def build_firmday_panel(results: list[FirmFitResult]) -> FirmDayPanel:
    return fit_outputs(results).panel


def reference_totals(results: list[FirmFitResult]) -> np.ndarray:
    return fit_outputs(results).reference_totals


def _check_layers(path, firm_ids: list[str], layers: np.ndarray) -> None:
    """Refuse the first non-finite value of ``layers``, then the first probability outside
    [0, 1] or negative kWh, in (layer, firm, offset) order."""
    mu, kwh = layers[1:3], layers[3:]
    for first, bad, rule in ((0, ~np.isfinite(layers), "firm-day values must be finite"),
                             (1, (mu < 0.0) | (mu > 1.0), "probabilities must lie in [0, 1]"),
                             (3, kwh < 0.0, "kWh must not be negative")):
        if bad.any():
            layer, firm, day = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"{path}: column {FIRMDAY_LAYERS[first + layer]} of firm "
                             f"{firm_ids[firm]} is {layers[first + layer, firm, day]} at offset "
                             f"{day - layers.shape[2] // 2}; {rule}")


def write_fit_outputs(directory, fit: FitOutputs, comments=()) -> None:
    """Write ``models.csv`` and ``firmdays.npy`` into ``directory``.

    A value ``read_fit_outputs`` would refuse is refused first, and then neither file is
    written.
    """
    directory = Path(directory)
    _check_layers(directory / "firmdays.npy", list(fit.models), fit.firmdays)
    write_models(directory / "models.csv", fit.models.values(), comments)
    np.save(directory / "firmdays.npy", fit.firmdays)


def read_fit_outputs(directory) -> FitOutputs:
    """Load ``models.csv`` and ``firmdays.npy`` as written by the fit command.

    ``firmdays.npy`` is one native float64 array of shape (5, firms, T): the
    ``FIRMDAY_LAYERS`` of each firm, row k for the k-th firm of ``models.csv``,
    and T odd for the offsets ``-(T // 2)..T // 2``.  Rows are matched to firms
    by position, so the firm ids of ``models.csv`` must ascend strictly.  A
    repeated firm in ``models.csv``, a file that is not an ``.npy`` array
    (read with ``allow_pickle=False``), another dtype, rank or number of
    layers, another row count than ``models.csv``, an even T, a non-finite
    value, a ``mu_p`` or ``mu_r`` outside [0, 1] and a negative ``ele_test`` or
    ``ele_ref`` are refused.  The shape leaves no room for a repeated or missing
    firm-day.  The array, panel and reference totals equal bit for bit those of the
    ``fit_outputs`` the files were written from, and so does every model field they hold.
    """
    directory = Path(directory)
    for name in ("models.csv", "firmdays.npy"):
        if not (directory / name).exists():
            raise FileNotFoundError(f"missing fit output {directory / name}; "
                                    "run the fit command first")
    path = directory / "models.csv"
    models = read_models(path)
    firm_ids = list(models)
    late = next((k for k in range(1, len(firm_ids)) if firm_ids[k] <= firm_ids[k - 1]), None)
    if late is not None:
        raise ValueError(f"{path} data row {late + 1}: firm {firm_ids[late]} comes after "
                         f"{firm_ids[late - 1]}; firm ids must ascend")
    path = directory / "firmdays.npy"
    with open(path, "rb") as fh:
        try:
            layers = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path} is not a readable .npy file: {exc}") from None
    want = np.dtype(float)  # native byte order
    if layers.dtype != want or layers.ndim != 3 or len(layers) != len(FIRMDAY_LAYERS):
        raise ValueError(f"{path} holds a {layers.dtype.str} array of shape {layers.shape}; "
                         f"expected {want.str} of shape ({len(FIRMDAY_LAYERS)}, firms, days)")
    firms, days = layers.shape[1:]
    if firms != len(models):
        raise ValueError(f"{path} has {firms} firm rows but models.csv has {len(models)}")
    if days % 2 == 0:
        raise ValueError(f"{path} has {days} days per firm; offsets -span..span need an odd count")
    _check_layers(path, firm_ids, layers)
    return FitOutputs(models, layers)
