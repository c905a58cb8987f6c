"""Panel orchestration: a kWh panel in, fitted models and index inputs out.

``fit_panel`` runs one job, ``_fit_block``, on a ``KwhPanel``'s whole firm x day grid or, in a
process pool, one per worker on a contiguous share of its rows.  A job preprocesses its rows,
fits them by EM in a batch that refills as rows converge (``hmmbatch.em_rows``), and writes each
row's deviations, causal filter (EM's last forward pass) and the cleaned consumption that weights
the index into one firm-day array.  A firm's results depend only on its own row and the run
settings, not on the other firms in its job nor the worker count.  The fit's product, in memory
and on disk, is one ``FitOutputs``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import RunConfig
from .ecu import FirmDayPanel, column_fsums
from .hmm import FilterOutput, FitReport, init_params, random_init
from .panelio import ModelRow, read_models, write_models
from .preprocess import DeviationSeries, KwhPanel, firm_rng, preprocess_grid


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
EM_BLOCK = 64  # most rows in a preprocessing grid, about 15 arrays of 545 days a row
# most rows in an EM batch, 8 planes of 191 days (12 KB) a row: most of a batch E-step's cost
# is fixed (3.7 ms at 64 rows and 4.4 ms at 128 on a 2-vCPU VM), and 200 rows raised a 200-firm
# fit's peak RSS by 1.5%, 128 rows not at all
EM_BATCH = 128
_SHARED = []  # in a pool worker, the (panel, cfg, out) it inherited by fork


def _fit_block(block: KwhPanel, cfg: RunConfig,
               out: np.ndarray) -> tuple[list[tuple], list[tuple[str, str]]]:
    """Preprocess a block of the panel's rows on grids of at most ``EM_BLOCK`` rows and fit each
    row it keeps by EM in a batch of at most ``EM_BATCH`` rows, writing row k's
    ``FIRMDAY_LAYERS`` into ``out[:, k]``; returns in row order the fitted rows' (k, model,
    iterations, trace, converged, degenerate) and the skips.

    EM starts from the deterministic init and from ``multi_start`` random inits drawn from the
    firm's stream 3, each made as its row joins the EM batch and keyed (row, start index), by
    which a row's fits are gathered in whatever order they end.  A firm whose init or fit fails
    is skipped with the message of its first failure in init order; otherwise the highest final
    log-likelihood wins, the deterministic init on ties, so multi_start=0 output is reproduced
    whenever it is already the best.  A flat firm's fit is marked degenerate: one whose
    deviations lie within 1e-8 of (1 plus) its mean test-window kWh, far above the 1e-13
    residual the rolling sums leave where both years match, and below any real change.
    """
    from .hmmbatch import em_rows  # here, so that index, which imports this module, need not
                                   # compile it: that raised its peak RSS by 0.2 MB
    n, offsets = len(block), np.arange(-cfg.span, cfg.span + 1)
    y, ele_test = out[0], out[3]
    flat, errors = np.zeros(n, dtype=bool), []
    for at in range(0, n, EM_BLOCK):
        part = slice(at, at + EM_BLOCK)
        y[part], ele_test[part], out[4, part], part_errors = preprocess_grid(block[part], cfg)
        ok = at + np.flatnonzero([e is None for e in part_errors])  # a refused row is meaningless
        flat[ok] = np.abs(y[ok]).max(axis=1) <= 1e-8 * (1.0 + np.abs(ele_test[ok]).mean(axis=1))
        errors += part_errors

    def starts():  # (key (row, start), row, init) per EM start; a failed init goes to errors
        for k, error in enumerate(errors):
            if error is not None:
                continue
            rng = firm_rng(cfg.seed, block.firm_ids[k], 3) if cfg.multi_start > 0 else None
            try:
                dev = DeviationSeries(offsets, y[k])
                inits = [init_params(dev)] + [random_init(dev, rng)
                                              for _ in range(cfg.multi_start)]
            except (ValueError, RuntimeError) as exc:
                errors[k] = str(exc)
                continue
            yield from (((k, i), k, init) for i, init in enumerate(inits))

    fitted, known = [], {}  # per row whose fits are not all known, those known by start
    for (k, i), fit in em_rows(y, starts(), EM_BATCH, cfg.em_tol, cfg.em_max_iter, offsets):
        known.setdefault(k, {})[i] = fit
        if len(known[k]) <= cfg.multi_start:
            continue
        fits = [fit for _, fit in sorted(known.pop(k).items())]  # in init order
        errors[k] = next((str(fit) for fit in fits if isinstance(fit, Exception)), None)
        if errors[k] is None:
            best = max(fits, key=lambda fit: fit.loglik_trace[-1])  # the first of equal fits
            out[1:3, k] = best.filter.filtered.T  # now, so that few rows' filters are held
            fitted.append((k, best.model, best.iterations, best.loglik_trace, best.converged,
                           best.degenerate or bool(flat[k])))
    return sorted(fitted), [(block.firm_ids[k], e) for k, e in enumerate(errors) if e is not None]


def _fit_share(rows: slice) -> tuple[list[tuple], list[tuple[str, str]]]:
    """A pool job: ``_fit_block`` on a share of the panel's rows; sends back no length-T array."""
    panel, cfg, out = _SHARED
    fitted, skipped = _fit_block(panel[rows], cfg, out[:, rows])
    return [(rows.start + k, *record) for k, *record in fitted], skipped


def fit_panel(panel: KwhPanel, cfg: RunConfig,
              workers: int | None = None) -> tuple[list[FirmFitResult], list[tuple[str, str]]]:
    """Fit every firm; returns (results sorted by firm id, skipped (id, reason) sorted by id).

    One job, ``_fit_block``, preprocesses and fits rows of the panel's grid: all of them in a
    serial run, and in a pool one share per worker, the shares differing by at most one row.
    They write into one (5, firms, T) array, of which each result's arrays are views; a pool's
    is an anonymous shared mapping that the forked workers inherit with the panel, so neither is
    pickled, and a dead worker (``ChildProcessError``) leaves nothing to clean up.  A firm whose
    series cannot cover the windows or whose fit fails numerically is skipped with a diagnostic.
    ``workers`` defaults to ``cfg.workers``; a pool has at most one process per firm and CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cfg.workers if workers is None else workers, len(panel), cpus or 1))
    offsets = np.arange(-cfg.span, cfg.span + 1)
    shape = (len(FIRMDAY_LAYERS), len(panel), len(offsets))
    if workers <= 1:
        outcomes = [_fit_block(panel, cfg, out := np.empty(shape))]
    else:
        import mmap  # only a pool run pays for these imports
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from multiprocessing import get_context
        out = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * int(np.prod(shape))))
        shares = [slice(len(panel) * k // workers, len(panel) * (k + 1) // workers)
                  for k in range(workers)]
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                     initializer=_SHARED.extend,
                                     initargs=((panel, cfg, out),)) as pool:
                outcomes = list(pool.map(_fit_share, shares))
        except BrokenExecutor as exc:
            raise ChildProcessError(f"the fit's process pool broke: {exc}") from None
    results = []
    for k, model, iterations, trace, *flags in (r for fitted, _ in outcomes for r in fitted):
        report = FitReport(model, FilterOutput(out[1:3, k].T, trace[-1]), iterations, trace, *flags)
        results.append(FirmFitResult(panel.firm_ids[k], panel.sector_codes[k],
                                     panel.district_codes[k], DeviationSeries(offsets, out[0, k]),
                                     report, out[3, k], out[4, k]))
    return results, [s for _, skipped in outcomes for s in skipped]


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
        return column_fsums(ele_ref)


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


def _check_ids(path, firm_ids: list[str]) -> None:
    """Refuse firm ids that do not ascend strictly: array rows are matched to firms by position."""
    late = next((k for k in range(1, len(firm_ids)) if firm_ids[k] <= firm_ids[k - 1]), None)
    if late is not None:
        raise ValueError(f"{path} data row {late + 1}: firm {firm_ids[late]} comes after "
                         f"{firm_ids[late - 1]}; firm ids must ascend")


def _check_layers(path, firm_ids: list[str], layers: np.ndarray) -> None:
    """Refuse an array that is not the native float64 (5, firms, T) array of ``firm_ids`` with
    T odd, then its first non-finite value, then its first probability outside [0, 1] or
    negative kWh, in (layer, firm, offset) order."""
    want = np.dtype(float)  # native byte order
    if layers.dtype != want or layers.ndim != 3 or len(layers) != len(FIRMDAY_LAYERS):
        raise ValueError(f"{path} holds a {layers.dtype.str} array of shape {layers.shape}; "
                         f"expected {want.str} of shape ({len(FIRMDAY_LAYERS)}, firms, days)")
    firms, days = layers.shape[1:]
    if firms != len(firm_ids):
        raise ValueError(f"{path} has {firms} firm rows but models.csv has {len(firm_ids)}")
    if days % 2 == 0:
        raise ValueError(f"{path} has {days} days per firm; offsets -span..span need an odd count")
    for rule, checked, allowed in (
            ("firm-day values must be finite", range(len(FIRMDAY_LAYERS)), np.isfinite),
            ("probabilities must lie in [0, 1]", (1, 2), lambda v: (v >= 0.0) & (v <= 1.0)),
            ("kWh must not be negative", (3, 4), lambda v: v >= 0.0)):
        for layer in checked:  # one (firms, T) mask at a time
            ok = allowed(layers[layer])
            if not ok.all():
                firm, day = np.unravel_index(np.argmin(ok), ok.shape)
                raise ValueError(f"{path}: column {FIRMDAY_LAYERS[layer]} of firm "
                                 f"{firm_ids[firm]} is {layers[layer, firm, day]} at offset "
                                 f"{day - days // 2}; {rule}")


def write_fit_outputs(directory, fit: FitOutputs, comments=()) -> None:
    """Write ``models.csv`` and ``firmdays.npy`` into ``directory``; a pair ``read_fit_outputs``
    would refuse, such as models out of id order, is refused before either file is written."""
    directory = Path(directory)
    firm_ids = [m.firm_id for m in fit.models.values()]
    _check_ids(directory / "models.csv", firm_ids)
    _check_layers(directory / "firmdays.npy", firm_ids, fit.firmdays)
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
    _check_ids(path, list(models))
    path = directory / "firmdays.npy"
    with open(path, "rb") as fh:
        try:
            layers = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path} is not a readable .npy file: {exc}") from None
    _check_layers(path, list(models), layers)
    return FitOutputs(models, layers)
