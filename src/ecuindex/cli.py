"""Command-line pipeline: simulate -> fit -> index -> report.

Stages hand off through files in the output directory, so each one can be
rerun or inspected on its own: simulate writes ``panel.csv``, fit writes
``models.csv`` and the binary firm-day array ``firmdays.npy``, and index and
report read those two back through ``pipeline.read_fit_outputs``.  Identical
inputs and root seed give byte-identical outputs regardless of worker count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_panel_config, build_run_config, load_config
from .ecu import ecu_grouped, srpi
from .panelio import read_panel, seed_comment, write_ecu, write_panel, write_srpi
from .pipeline import fit_outputs, fit_panel, read_fit_outputs, write_fit_outputs
from .sectors import load_code_map
from .simgen import generate

DAY = np.timedelta64(1, "D")

EXIT_OK = 0
EXIT_RUNTIME = 1  # data and runtime failures
EXIT_CONFIG = 2  # a ConfigError: the config file or a flag


def _load_raw(args) -> dict[str, str]:
    raw = load_config(args.config) if args.config else {}
    for key in ("seed", "out", "workers"):  # flags override the file
        if getattr(args, key, None) is not None:
            raw[key] = str(getattr(args, key))
    return raw


def _out_dir(raw: dict[str, str]) -> Path:
    return Path(raw.get("out", "out"))


def _panel_path(raw: dict[str, str]) -> Path:
    if "panel" in raw:
        return Path(raw["panel"])
    return _out_dir(raw) / "panel.csv"


def cmd_simulate(args) -> int:
    raw = _load_raw(args)
    cfg = build_panel_config(raw)
    out = _out_dir(raw)

    panel = generate(cfg)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "panel.csv"
    write_panel(path, panel.records, comments=[seed_comment(cfg.seed)])
    first, last = cfg.date_range()
    days = int((last - first) / DAY) + 1
    print(f"wrote {path}: {cfg.n_firms} firms x {days} days")
    return EXIT_OK


def cmd_fit(args) -> int:
    raw = _load_raw(args)
    cfg = build_run_config(raw)
    out = _out_dir(raw)

    # the panel's readings are dropped once fitted, before the outputs are built
    results, skipped = fit_panel(read_panel(_panel_path(raw)), cfg, workers=cfg.workers)
    for firm_id, reason in skipped:
        print(f"skipped {firm_id}: {reason}")
    if not results:
        first = f"; first: {skipped[0][0]}: {skipped[0][1]}" if skipped else ""
        raise ValueError(f"no firm could be fitted ({len(skipped)} skipped){first}")

    fit = fit_outputs(results)
    out.mkdir(parents=True, exist_ok=True)
    write_fit_outputs(out, fit, [seed_comment(cfg.seed)])

    converged = sum(m.converged for m in fit.models.values())
    degenerate = sum(m.degenerate for m in fit.models.values())
    print(f"fitted {len(fit.models)} firms ({converged} converged, {degenerate} degenerate), "
          f"skipped {len(skipped)}")
    return EXIT_OK


def cmd_index(args) -> int:
    raw = _load_raw(args)
    cfg = build_run_config(raw)
    out = _out_dir(raw)
    fit = read_fit_outputs(out)
    known_sectors = set(load_code_map(cfg.code_map)) if cfg.code_map else None

    series = ecu_grouped(fit.panel, "none")
    for group_by in cfg.group_by:
        known = known_sectors if group_by == "sector" else None
        series.extend(ecu_grouped(fit.panel, group_by, known_codes=known))
    resumption = srpi(fit.panel, fit.reference_totals, window_days=cfg.smooth_window)

    comments = [seed_comment(cfg.seed)]
    write_ecu(out / "ecu.csv", series, cfg.test_base, comments)
    write_srpi(out / "srpi.csv", resumption, cfg.test_base, comments)
    print(f"wrote {out / 'ecu.csv'} ({len(series)} series) and {out / 'srpi.csv'}")
    return EXIT_OK


def cmd_report(args) -> int:
    raw = _load_raw(args)
    cfg = build_run_config(raw)
    out = _out_dir(raw)
    firm = args.firm

    fit = read_fit_outputs(out)
    if firm not in fit.models:
        raise KeyError(f"unknown firm id {firm!r}")
    y, mu_p, mu_r, _, _ = fit.firmdays[:, list(fit.models).index(firm)]  # models.csv order
    offsets = np.arange(len(y)) - len(y) // 2
    base = np.datetime64(cfg.test_base)
    path = out / f"report_{firm}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {seed_comment(cfg.seed)}\n")
        fh.write("offset,date,y,mu_p,mu_r\n")
        for off, yv, p, r in zip(offsets.tolist(), y.tolist(), mu_p.tolist(), mu_r.tolist()):
            fh.write(f"{off},{base + off * DAY},{yv!r},{p!r},{r!r}\n")

    peak = int(np.argmax(mu_r))
    print(f"firm {firm}")
    row = fit.models[firm]
    p, r = row.model.prosperous, row.model.recessionary
    print(f"  prosperous:   alpha={p.alpha:+.4f} beta={p.beta:+.2f} sigma={p.sigma:.2f}")
    print(f"  recessionary: alpha={r.alpha:+.4f} beta={r.beta:+.2f} sigma={r.sigma:.2f}")
    print(f"  converged={str(row.converged).lower()} degenerate={str(row.degenerate).lower()}")
    print(f"  mean mu_r={float(np.mean(mu_r)):.3f}, "
          f"peak mu_r={float(mu_r[peak]):.3f} at offset {int(offsets[peak])}")
    print(f"wrote {path}")
    return EXIT_OK


def _add_common(sub, workers=False, firm=False):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--out", help="output directory (default: 'out' or config key)")
    sub.add_argument("--seed", type=int, help="root seed override")
    if workers:
        sub.add_argument("--workers", type=int, help="parallel fit processes")
    if firm:
        sub.add_argument("--firm", required=True, help="firm id to report on")


def main(argv=None) -> int:
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
    handler = {"simulate": cmd_simulate, "fit": cmd_fit,
               "index": cmd_index, "report": cmd_report}[args.command]
    try:
        return handler(args)
    except (ValueError, KeyError, OSError) as exc:  # OSError: a file that cannot be opened
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
