"""Command-line pipeline: simulate -> fit -> index -> report.

Stages hand off through files in the output directory, so each one can be
rerun or inspected on its own: simulate writes ``panel.csv``, fit writes
``models.csv`` and the binary firm-day array ``firmdays.npy``, and index and
report read those two back through ``panelio.read_fit_outputs``.  Identical
inputs and root seed give byte-identical outputs regardless of worker count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, PanelConfig, RunConfig, build_panel_config,
                     build_run_config, load_config)
from .ecu import ecu_grouped, srpi
from .panelio import (read_code_map, read_fit_outputs, read_panel, seed_comment, write_ecu,
                      write_fit_outputs, write_panel, write_report, write_srpi)

EXIT_OK = 0
EXIT_RUNTIME = 1  # data and runtime failures, running out of memory included
EXIT_CONFIG = 2  # a ConfigError: the config file or a flag


def _load_raw(args) -> dict[str, str]:
    raw = load_config(args.config) if args.config else {}
    for key in ("seed", "out", "workers", "firm"):  # flags override the file
        if getattr(args, key, None) is not None:
            raw[key] = str(getattr(args, key))
    return raw


def _out_dir(raw: dict[str, str]) -> Path:
    return Path(raw.get("out", "out"))


def _panel_path(raw: dict[str, str]) -> Path:
    if "panel" in raw:
        return Path(raw["panel"])
    return _out_dir(raw) / "panel.csv"


def cmd_simulate(cfg: PanelConfig, out: Path, comments: list[str], raw: dict[str, str]) -> None:
    from .simgen import generate  # only simulate loads the generator
    panel = generate(cfg).panel
    out.mkdir(parents=True, exist_ok=True)
    path = out / "panel.csv"
    write_panel(path, panel, comments)
    print(f"wrote {path}: {len(panel)} firms x {panel.kwh.shape[1]} days")


def cmd_fit(cfg: RunConfig, out: Path, comments: list[str], raw: dict[str, str]) -> None:
    from .pipeline import fit_outputs, fit_panel  # only fit loads the fit's code
    # the panel's readings are dropped once fitted; the results are rows of the fit's one table
    results, skipped = fit_panel(read_panel(_panel_path(raw)), cfg)
    for firm_id, reason in skipped:
        print(f"skipped {firm_id}: {reason}")
    if not results:
        first = f"; first: {skipped[0][0]}: {skipped[0][1]}" if skipped else ""
        raise ValueError(f"no firm could be fitted ({len(skipped)} skipped){first}")

    fit = fit_outputs(results)
    out.mkdir(parents=True, exist_ok=True)
    write_fit_outputs(out, fit, comments)

    print(f"fitted {len(fit.firm_ids)} firms ({np.count_nonzero(fit.converged)} converged, "
          f"{np.count_nonzero(fit.degenerate)} degenerate), skipped {len(skipped)}")


def cmd_index(cfg: RunConfig, out: Path, comments: list[str], raw: dict[str, str]) -> None:
    fit = read_fit_outputs(out, ("mu_r", "ele_test", "ele_ref"))  # what it aggregates
    known_sectors = read_code_map(cfg.code_map) if cfg.code_map else None

    series = ecu_grouped(fit.panel, "none")
    for group_by in cfg.group_by:
        known = known_sectors if group_by == "sector" else None
        series.extend(ecu_grouped(fit.panel, group_by, known_codes=known))
    resumption = srpi(fit.panel, fit.reference_totals, window_days=cfg.smooth_window)

    write_ecu(out / "ecu.csv", series, cfg.test_base, comments)
    write_srpi(out / "srpi.csv", resumption, cfg.test_base, comments)
    print(f"wrote {out / 'ecu.csv'} ({len(series)} series) and {out / 'srpi.csv'}")


def cmd_report(cfg: RunConfig, out: Path, comments: list[str], raw: dict[str, str]) -> None:
    firm = raw["firm"]
    fit = read_fit_outputs(out, ("y", "mu_p", "mu_r"))
    if firm not in fit.firm_ids:
        raise ValueError(f"unknown firm id {firm!r}")
    k = fit.firm_ids.index(firm)
    y, mu_p, mu_r = (layer[k] for layer in fit.firmdays[:3])
    path = out / f"report_{firm}.csv"
    write_report(path, fit.offsets, (y, mu_p, mu_r), cfg.test_base, comments)

    peak = int(np.argmax(mu_r))
    print(f"firm {firm}")
    # read_models has checked the model; its numbers start with each regime's alpha, beta, sigma
    for regime, (alpha, beta, sigma) in zip(("prosperous", "recessionary"),
                                            fit.models[k, :6].reshape(2, 3)):
        print(f"  {regime + ':':<14}alpha={alpha:+.4f} beta={beta:+.2f} sigma={sigma:.2f}")
    print(f"  converged={str(fit.converged[k]).lower()} "
          f"degenerate={str(fit.degenerate[k]).lower()}")
    print(f"  mean mu_r={float(np.mean(mu_r)):.3f}, "
          f"peak mu_r={float(mu_r[peak]):.3f} at offset {int(fit.offsets[peak])}")
    print(f"wrote {path}")


def _add_common(sub, workers=False, firm=False):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--out", help="output directory (default: 'out' or config key)")
    sub.add_argument("--seed", type=int, help="root seed override")
    if workers:
        sub.add_argument("--workers", type=int, help="parallel fit processes")
    if firm:
        sub.add_argument("--firm", required=True, help="firm id to report on")


def main(argv=None) -> int:
    """Run one stage: merge the config file with the flags, build the stage's config, and
    call its command with the config, the output directory and the root seed line of every
    CSV it writes.  Returns 0, or 1 (data, runtime) or 2 (configuration) after one
    ``error:`` line."""
    parser = argparse.ArgumentParser(
        prog="ecuindex",
        description="Electricity-consumption uncertainty index pipeline",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(commands.add_parser("simulate", help="generate a synthetic panel"))
    _add_common(commands.add_parser("fit", help="fit per-firm regime models"), workers=True)
    _add_common(commands.add_parser("index", help="aggregate ECU and sRPI indexes"))
    _add_common(commands.add_parser("report", help="per-offset table for one firm"), firm=True)

    args = parser.parse_args(argv)
    run = {"simulate": cmd_simulate, "fit": cmd_fit, "index": cmd_index, "report": cmd_report}
    try:
        raw = _load_raw(args)
        cfg = (build_panel_config if args.command == "simulate" else build_run_config)(raw)
        run[args.command](cfg, _out_dir(raw), [seed_comment(cfg.seed)], raw)
    except (ValueError, OSError, MemoryError) as exc:  # OSError: a file that cannot be opened
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
