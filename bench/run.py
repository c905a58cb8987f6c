#!/usr/bin/env python3
"""Benchmark of the ecuindex CLI chain, end to end and layer by layer.

    python3 bench/run.py --workload shock --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload calm --trace 1
    python3 bench/run.py --workload calm --smoke          # tiny panel, seconds
    python3 bench/run.py --compare before.jsonl after.jsonl

Run it from the root of a source checkout; it imports the package from
``src/`` and never from an installed copy.

``--trace 0`` generates the workload's ``PANELS`` panels from ``--seed``,
then runs the real CLI stages (``ecuindex fit``, ``ecuindex index``) as
child processes, one after another: a closed loop with one client and no
more processes busy than the machine's two cores.  It fits the panels in
turn, each once at least, until ``--seconds`` is used up, and reports per
panel the median and over the panels the mean.

On a shared 2-vCPU VM the same work ran 20-60% slower or faster from one
minute to the next, so raw times spread too widely to bound.  The time metrics are
therefore CPU seconds at a reference host speed: each stage's CPU time
(``os.wait4`` rusage, the stage and its pool workers) times the speed a
probe (``calibrate.py``) measured on the stage's CPUs while the stage ran,
over ``REF_UNITS_PER_CPU_S``.  The probe runs a fixed unit of work at
nice 19 on each CPU, in slices between the stage's.  Wall times
(``time.perf_counter``) are printed and recorded next to them; peak RSS
comes from ``os.wait4`` too.

``--trace 1`` runs the same stages on the first panel in-process through
``cli.main``, without, with and again without spans around the package's
public calls (see ``spans.py``), and derives the per-layer metrics from the
spans.

Both modes check the CLI's ``ecu.csv`` and ``srpi.csv`` against an
in-process library run (``fit_panel`` at ``LIBRARY_WORKERS`` with --trace 0
and at workers=1 with --trace 1, then
``build_firmday_panel``/``ecu_grouped`` and ``reference_totals``/``srpi``,
written with ``write_ecu``/``write_srpi``): the bytes must be identical.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run appends its raw
values and environment to ``bench/out/runs.jsonl``; ``--compare`` reads
two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
RECORD = OUT / "runs.jsonl"

INDEX_SAMPLES_PER_FIT = 2  # two also check that the index stage reruns identically
LIBRARY_WORKERS = min(2, os.cpu_count() or 1)  # the untimed library check of --trace 0
# calibrate.py units per CPU second, in slices between a stage's, on the
# reference host (a 2-vCPU Intel Xeon VM at its usual speed): sets the scale
# of the *_cpu_s metrics and setup_s
REF_UNITS_PER_CPU_S = 1400.0
MIN_SPEED_SAMPLES = 8  # probe units a stage's speed is taken from, at least
RUN_DEADLINE_S = 170  # a run must end within 180 s; stages are killed after this
INDEX_FILES = ("ecu.csv", "srpi.csv")

# every workload: 2% missing days and 1% outliers
PANEL_BASE = {"missing_rate": "0.02", "outlier_rate": "0.01"}
SHOCKED = {"shock_start": "10", "shock_onset_jitter": "10", "shock_depth_jitter": "0.3"}
NO_SHOCK = {"shock_depth": "primary:0,secondary:0,tertiary:0"}


@dataclass(frozen=True)
class Workload:
    name: str
    n_firms: int
    workers: int
    panel: dict


# Why each workload exists is in BENCHMARK.json.  Sizes keep one run near
# 40 s on two cores, so the 48 runs of a full check fit in under an hour even
# when the host runs 40% slower.
WORKLOADS = {w.name: w for w in (
    Workload("shock", 200, 1, SHOCKED),
    Workload("calm", 200, 2, NO_SHOCK),
)}
# EM work differs from panel to panel (the interquartile range of total
# E-steps over 8 seeds was 9% of the median on a 250-firm shock panel, 12% on
# a 200-firm calm one), so a run fits PANELS different panels, each once,
# rather than one panel twice
PANELS = 2
SETUPS = 2  # set-ups per run, each simulating every panel; setup_s is their median
SMOKE_FIRMS = 12


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer there is no such percentile; the maximum is given.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return float(v[-1]), 100.0
    return float(v[n - 11]), 100.0 * (n - 10) / n


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=10).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha, "git_dirty": dirty}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class Run:
    """One benchmark invocation: its workload, sizes, directories and deadline."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.n_firms = SMOKE_FIRMS if smoke else wl.n_firms
        self.setups = 1 if smoke else SETUPS
        self.dir = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
        self.started = time.monotonic()
        self.deadline = self.started + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0

    def raw_config(self, panel: Path | None = None, k: int = 0) -> dict[str, str]:
        """Configuration of the run's panel ``k``, simulated from seed ``PANELS * seed + k``."""
        raw = {"n_firms": str(self.n_firms), "seed": str(PANELS * self.seed + k),
               "workers": str(self.wl.workers), **PANEL_BASE, **self.wl.panel}
        if panel is not None:
            raw["panel"] = str(panel)
        return raw

    def config_file(self, name: str, panel: Path | None = None, k: int = 0) -> Path:
        path = self.dir / name
        path.write_text("".join(f"{key} = {v}\n"
                                for key, v in self.raw_config(panel, k).items()),
                        encoding="utf-8")
        return path


def own_peak_rss_mb() -> float:
    """This process's peak RSS since its exec (VmHWM), which a spawned child inherits."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def read_outputs(directory: Path) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in INDEX_FILES}


def fit_files(directory: Path) -> list[Path]:
    """Files the fit stage wrote: everything but its input and the index outputs."""
    return sorted(p for p in directory.iterdir()
                  if p.is_file() and p.name != "panel.csv" and p.name not in INDEX_FILES)


def count_firms(run: Run, stage: str, output: str) -> int:
    """Count a fit stage's firms as attempted and its skipped firms as failed."""
    skipped = len(re.findall(r"^skipped \S+: ", output, flags=re.MULTILINE))
    if stage == "fit":
        run.attempted += run.n_firms
        run.failed += skipped
    return skipped


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


class HostSpeed:
    """One ``calibrate.py`` probe per CPU while the block runs, and their speed."""

    def __init__(self, run: Run, cpus: list[int]):
        self.logs = {cpu: run.dir / f"speed-cpu{cpu}.log" for cpu in cpus}
        self.env = run.env
        self.procs: list[subprocess.Popen] = []

    def __enter__(self):
        try:
            for cpu, log in self.logs.items():
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "calibrate.py"), "--cpu", str(cpu),
                     "--log", str(log), "--parent", str(os.getpid())],
                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL))
            ready_by = time.monotonic() + 30
            while not all(len(self.samples(cpu)) >= MIN_SPEED_SAMPLES for cpu in self.logs):
                if time.monotonic() > ready_by or any(p.poll() is not None for p in self.procs):
                    fail("the host-speed probe did not start")
                time.sleep(0.05)
        except BaseException:  # __exit__ is not called when __enter__ raises
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()

    def samples(self, cpu: int) -> list[tuple[float, float]]:
        """(perf_counter at the end, CPU seconds) of each unit the probe finished."""
        text = self.logs[cpu].read_text(encoding="utf-8") if self.logs[cpu].exists() else ""
        lines = text.split("\n")[:-1]  # the last piece is empty or still being written
        return [(float(t), float(c)) for t, c in (line.split() for line in lines)]

    def rate(self, cpus: list[int], start: float, end: float) -> float:
        """Probe units per CPU second on ``cpus`` from ``start`` to ``end``.

        Each CPU's rate pools the units that ended in the window, widened
        until it holds ``MIN_SPEED_SAMPLES``; the CPUs' rates are averaged.
        """
        rates = []
        for cpu in cpus:
            done = self.samples(cpu)
            lo, hi = start, end
            while True:
                inside = [c for t, c in done if lo <= t <= hi]
                if len(inside) >= MIN_SPEED_SAMPLES or (lo < done[0][0] and hi > done[-1][0]):
                    break
                lo, hi = lo - 0.25, hi + 0.25
            rates.append(len(inside) / sum(inside))
        return statistics.fmean(rates)


# ---------------------------------------------------------------------------
# CLI stages
# ---------------------------------------------------------------------------


def child_stage(run: Run, stage: str, config: Path, out: Path, speed: HostSpeed,
                cpus: list[int]) -> dict:
    """Run one CLI stage as a child process on ``cpus``.

    Returns its wall time, CPU time at the reference host speed, peak RSS,
    exit code and skipped firms.
    """
    out.mkdir(parents=True, exist_ok=True)
    log = run.dir / f"{stage}.log"
    argv = [sys.executable, "-m", "ecuindex.cli", stage, "--config", str(config),
            "--out", str(out)]
    run.attempted += 1
    load = loadavg()
    parent_peak_mb = own_peak_rss_mb()
    own_cpus = os.sched_getaffinity(0)
    with open(log, "w+", encoding="utf-8") as fh:
        os.sched_setaffinity(0, cpus)  # the child and its pool workers inherit it
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=run.env,
                                    cwd=ROOT)
        finally:
            os.sched_setaffinity(0, own_cpus)
        watchdog = threading.Timer(max(1.0, run.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # a stop signal, say: the stage must not outlive the run
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        text = fh.read()
    if proc.returncode != 0:
        fail(f"ecuindex {stage} exited with {proc.returncode}:\n{text}")
    cpu_s = usage.ru_utime + usage.ru_stime
    rate = speed.rate(cpus, start, start + wall)
    return {"stage": stage, "wall_s": wall, "cpu_s": cpu_s, "probe_rate": rate,
            "ref_cpu_s": cpu_s * rate / REF_UNITS_PER_CPU_S, "cpus": cpus,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "skipped": count_firms(run, stage, text), "loadavg": load,
            "parent_peak_rss_mb": parent_peak_mb}


def inprocess_stage(run: Run, stage: str, config: Path, out: Path, tracer=None) -> dict:
    """Run one CLI stage through ``cli.main`` in this process, in a span if tracing."""
    from ecuindex import cli

    out.mkdir(parents=True, exist_ok=True)
    run.attempted += 1
    buf = io.StringIO()
    span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([stage, "--config", str(config), "--out", str(out)])
    wall = time.perf_counter() - start
    if code != 0:
        fail(f"ecuindex {stage} (in-process) returned {code}:\n{buf.getvalue()}")
    return {"stage": stage, "wall_s": wall, "exit": code,
            "skipped": count_firms(run, stage, buf.getvalue())}


# ---------------------------------------------------------------------------
# library path and quality
# ---------------------------------------------------------------------------


def check_package() -> None:
    """The package imported in-process must be the checkout's own."""
    import ecuindex

    if Path(ecuindex.__file__).resolve().parent != (SRC / "ecuindex").resolve():
        fail(f"imported ecuindex from {ecuindex.__file__}, not from {SRC}")


def library_path(run: Run, panel_csv: Path, out: Path, workers: int):
    """The index computed in-process from the public API.

    Calls go through module attributes so that the traced run's wrappers
    see them.  Mirrors what ``ecuindex fit`` + ``ecuindex index`` compute.
    """
    from ecuindex import ecu, panelio, pipeline
    from ecuindex.config import build_run_config

    check_package()
    cfg = build_run_config(run.raw_config(panel_csv))
    out.mkdir(parents=True, exist_ok=True)
    records = panelio.read_panel(panel_csv)
    run.attempted += len(records)
    results, skipped = pipeline.fit_panel(records, cfg, workers=workers)
    run.failed += len(skipped)
    panel = pipeline.build_firmday_panel(results)
    series = ecu.ecu_grouped(panel, "none")
    for group_by in cfg.group_by:
        series.extend(ecu.ecu_grouped(panel, group_by, known_codes=None))
    resumption = ecu.srpi(panel, pipeline.reference_totals(results),
                          window_days=cfg.smooth_window)
    comments = [panelio.seed_comment(cfg.seed)]
    panelio.write_ecu(out / "ecu.csv", series, cfg.test_base, comments)
    panelio.write_srpi(out / "srpi.csv", resumption, cfg.test_base, comments)
    return results, skipped, panel


def auc(scores, labels) -> float:
    """Area under the ROC curve by the rank-sum formula, ties sharing ranks."""
    import numpy as np

    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def quality(run: Run, results) -> dict:
    """First panel's firm-day mu_r (degenerate fits zeroed) against its truth labels.

    Printed and recorded but not a BENCHMARK.json metric: it is fixed by the
    seed and spreads too widely from seed to seed for a bound, and there is
    no AUC without shocked firms.
    """
    import numpy as np
    from ecuindex import generate, truth_labels
    from ecuindex.config import build_panel_config

    panel = generate(build_panel_config(run.raw_config()))
    truth = truth_labels(panel)
    first_offset = -panel.config.span
    scores, labels = [], []
    for r in results:
        mu_r = np.zeros(len(r.deviation.offsets)) if r.report.degenerate else r.filtered.mu_r
        scores.append(mu_r)
        labels.append(truth[r.firm_id][np.asarray(r.deviation.offsets) - first_offset])
    scores = np.concatenate(scores)
    labels = np.concatenate(labels)
    out = {"false_alarm_share": float(np.mean(scores[~labels] > 0.5))}
    if labels.any():
        out["label_auc"] = auc(scores, labels)
    return out


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def measure(run: Run, record: dict) -> tuple[dict, dict, bool]:
    """--trace 0: end-to-end metrics from child processes."""
    checks = {}
    cpus = sorted(os.sched_getaffinity(0))
    one_cpu = cpus[-1:]  # single-process stages run here; the probe on it times them
    fit_cpus = one_cpu if run.wl.workers == 1 else cpus
    panels = [run.dir / f"panel{k}" for k in range(PANELS)]
    setup_cfgs = [run.config_file(f"setup{k}.cfg", k=k) for k in range(PANELS)]
    rep_cfgs = [run.config_file(f"reps{k}.cfg", panel=d / "panel.csv", k=k)
                for k, d in enumerate(panels)]
    setups, fits, indexes, outputs = [], [], [], {}

    def same(key: str, ok: bool) -> None:
        checks[key] = checks.get(key, True) and ok

    with HostSpeed(run, cpus) as speed:
        for i in range(run.setups):
            stages = []
            for k, panel_dir in enumerate(panels):
                d = panel_dir if i == 0 else run.dir / f"setup{i}-{k}"
                stages.append(child_stage(run, "simulate", setup_cfgs[k], d, speed, one_cpu))
                if i > 0:
                    same("setup_rerun_identical",
                         (d / "panel.csv").read_bytes() == (panel_dir / "panel.csv").read_bytes())
                    shutil.rmtree(d)
            setups.append({"ref_cpu_s": sum(st["ref_cpu_s"] for st in stages),
                           "wall_s": sum(st["wall_s"] for st in stages), "stages": stages})

        measured = 0.0
        while True:
            rep_start = time.perf_counter()
            k = len(fits) % PANELS
            d = run.dir / f"rep{len(fits)}"
            fits.append({**child_stage(run, "fit", rep_cfgs[k], d, speed, fit_cpus), "panel": k})
            fit_bytes = sum(p.stat().st_size for p in fit_files(d))
            for _ in range(INDEX_SAMPLES_PER_FIT):
                indexes.append({**child_stage(run, "index", rep_cfgs[k], d, speed, one_cpu),
                                "panel": k})
                got = read_outputs(d)
                same("cli_rerun_identical", outputs.setdefault(k, got) == got)
            shutil.rmtree(d)
            rep_s = time.perf_counter() - rep_start
            measured += rep_s
            if len(fits) >= PANELS and measured + rep_s > run.seconds:
                break

    # after every child stage: wait4 reports a child's peak RSS as at least
    # the parent's at spawn time, so the parent stays small until here
    simulated = [st for setup in setups for st in setup["stages"]]
    checks["peak_rss_is_the_stages_own"] = all(
        s["peak_rss_mb"] > s["parent_peak_rss_mb"] for s in simulated + fits + indexes)
    # one panel is enough to hold the CLI to the library path
    results, _, _ = library_path(run, panels[0] / "panel.csv", run.dir / "library",
                                 LIBRARY_WORKERS)
    checks["cli_matches_library"] = read_outputs(run.dir / "library") == outputs[0]
    checks["no_skips"] = run.failed == 0
    qual = quality(run, results)

    def med(stages, key):
        return median([s[key] for s in stages])

    def per_panel(stages, key):
        """Mean over the panels of each panel's median."""
        return statistics.fmean(med([s for s in stages if s["panel"] == k], key)
                                for k in range(PANELS))

    fit_cpu_s, index_cpu_s = per_panel(fits, "ref_cpu_s"), per_panel(indexes, "ref_cpu_s")
    metrics = {
        "pipeline_cpu_s": fit_cpu_s + index_cpu_s,
        "fit_cpu_s": fit_cpu_s,
        "index_cpu_s": index_cpu_s,
        "fit_firms_per_cpu_s": run.n_firms / fit_cpu_s,
        "fit_peak_rss_mb": med(fits, "peak_rss_mb"),
        "index_peak_rss_mb": med(indexes, "peak_rss_mb"),
        "setup_s": med(setups, "ref_cpu_s"),
    }
    stages = simulated + fits + indexes
    extra = {**qual, "fit_wall_s": per_panel(fits, "wall_s"),
             "index_wall_s": per_panel(indexes, "wall_s"),
             "setup_wall_s": med(setups, "wall_s"),
             "host_speed": median([s["probe_rate"] for s in stages]) / REF_UNITS_PER_CPU_S,
             "fit_samples": len(fits), "index_samples": len(indexes), "setups": len(setups),
             "fit_bytes": fit_bytes}
    record.update(setups=setups, fits=fits, indexes=indexes, checks=checks, extra=extra,
                  quality=qual)
    return metrics, extra, all(checks.values())


def chain(run: Run, config: Path, out: Path, tracer=None) -> float:
    """The timed stages (fit, index) in-process; returns their total wall time."""
    return sum(inprocess_stage(run, stage, config, out, tracer)["wall_s"]
               for stage in ("fit", "index"))


def trace(run: Run, record: dict) -> tuple[dict, dict, bool]:
    """--trace 1: per-layer metrics from spans around in-process calls."""
    import spans as sp

    check_package()
    wl = run.wl
    tracer = sp.Tracer()
    setup_dir = run.dir / "setup"
    cfg = run.config_file("setup.cfg")
    with sp.tracing(tracer), tracer.run("setup"):
        inprocess_stage(run, "simulate", cfg, setup_dir, tracer)
    panel_csv = setup_dir / "panel.csv"
    rep_cfg = run.config_file("reps.cfg", panel=panel_csv)
    untraced_dir, traced_dir = run.dir / "untraced", run.dir / "traced"

    # untraced before and after the traced chain, so warm-up does not bias the overhead
    untraced_s = [chain(run, rep_cfg, untraced_dir)]
    untraced_out = read_outputs(untraced_dir)
    with sp.tracing(tracer), tracer.run("stages"):
        traced_s = chain(run, rep_cfg, traced_dir, tracer)
    fit_bytes = sum(p.stat().st_size for p in fit_files(traced_dir))
    traced_out = read_outputs(traced_dir)
    untraced_s.append(chain(run, rep_cfg, untraced_dir))
    untraced_out2 = read_outputs(untraced_dir)
    with sp.tracing(tracer), tracer.run("library"):
        # workers=1: spans in pool workers are lost, and calm's workers=2 CLI
        # output must match a workers=1 library run
        results, skipped, panel = library_path(run, panel_csv, run.dir / "library", 1)

    S = tracer.spans
    cli_runs, lib = {"setup", "stages"}, {"library"}
    fit_stage = sp.select(S, "cli.fit", cli_runs)[0]
    index_stage = sp.select(S, "cli.index", cli_runs)[0]
    fit_panel = sp.select(S, "pipeline.fit_panel", cli_runs)[0]
    read = sp.select(S, "panelio.read_panel", cli_runs)[0]
    em = sp.select(S, "hmm.em_fit", lib)
    em_ms = [sp.duration(s) * 1e3 for s in em]
    steps = [s["e_steps"] for s in em]
    firms = sp.select(S, "pipeline.fit_firm", lib)
    em_s = sum(em_ms) / 1e3
    tail_ms, tail_pct = tail(em_ms)
    handoff = (sp.duration(fit_stage)
               - sp.children_time(S, fit_stage["id"], {"panelio.read_panel", "pipeline.fit_panel"})
               + sp.duration(index_stage)
               - sp.children_time(S, index_stage["id"], {"ecu.ecu_grouped", "ecu.srpi",
                                                         "panelio.write_ecu",
                                                         "panelio.write_srpi"}))
    metrics = {
        "panelio.read_panel_s": sp.duration(read),
        "panelio.read_panel_mb_per_s": panel_csv.stat().st_size / 1e6 / sp.duration(read),
        "panelio.fit_bytes": fit_bytes,
        "panelio.handoff_s": handoff,
        "panelio.write_index_s": (sp.total(S, "panelio.write_ecu", cli_runs)
                                  + sp.total(S, "panelio.write_srpi", cli_runs)),
        "preprocess.s": sp.total(S, "pipeline.preprocess_firm", lib),
        "preprocess.firms_skipped": len(skipped),
        "hmm.em_fit_s": em_s,
        "hmm.em_fit_ms_p50": median(em_ms),
        "hmm.em_fit_ms_tail": tail_ms,
        "hmm.em_us_per_iteration": em_s * 1e6 / sum(steps),
        "hmm.em_iterations": sum(steps),
        "hmm.em_iterations_p50": median(steps),
        "hmm.em_iterations_max": max(steps),
        "hmm.em_nonconverged": sum(not s["converged"] for s in em),
        "hmm.degenerate": sum(s["degenerate"] for s in firms),
        "hmm.forward_filter_s": sp.total(S, "hmm.forward_filter", lib),
        "pipeline.fit_panel_s": sp.duration(fit_panel),
        "pipeline.firms_fitted": fit_panel["fitted"],
        "pipeline.parallel_efficiency": (sum(sp.duration(s) for s in firms)
                                         / (wl.workers * sp.duration(fit_panel))),
        "pipeline.build_firmday_panel_s": sp.total(S, "pipeline.build_firmday_panel", lib),
        "ecu.ecu_grouped_s": sp.total(S, "ecu.ecu_grouped", cli_runs),
        "ecu.srpi_s": sp.total(S, "ecu.srpi", cli_runs),
        "ecu.firm_days": len(panel),
        "simgen.generate_s": sp.total(S, "simgen.generate", {"setup"}),
        "trace_overhead_s": traced_s - statistics.fmean(untraced_s),
    }
    layers = sp.self_time_by_layer(S, cli_runs)
    for layer in ("cli", "panelio", "preprocess", "hmm", "pipeline", "ecu", "simgen"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)

    in_fit = [s for s in S if s["id"] == fit_stage["id"] or sp.has_ancestor(S, s, "cli.fit")]
    fit_layers = sp.self_time_by_layer(in_fit, cli_runs)
    em_in_index = sum(sp.duration(s) for s in S
                      if s["name"].startswith("hmm.") and sp.has_ancestor(S, s, "cli.index"))
    checks = {
        "traced_matches_untraced": traced_out == untraced_out == untraced_out2,
        "cli_matches_library": read_outputs(run.dir / "library") == traced_out,
        "no_skips": run.failed == 0,
    }
    extra = {"em_fit_ms_tail_percentile": tail_pct, "traced_chain_s": traced_s,
             "untraced_chain_s": untraced_s,
             "fit_stage_largest_self_layer": max(fit_layers, key=fit_layers.get),
             "fit_stage_self_s_by_layer": fit_layers, "em_in_index_stage_s": em_in_index}
    spans_file = run.dir.parent / f"{run.dir.name}.spans.jsonl"
    tracer.dump(spans_file)
    record.update(checks=checks, extra=extra, spans_file=str(spans_file.relative_to(ROOT)))
    return metrics, extra, all(checks.values())


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: each side's median and quartiles, and a verdict."""
    spec = load_spec()
    bounded = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        groups: dict[tuple, dict[str, list[float]]] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"], rec.get("smoke", False))
            for name, value in {**rec["metrics"], **rec.get("quality", {})}.items():
                groups.setdefault(key, {}).setdefault(name, []).append(value)
        return groups

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<8} {'metric':<32} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, _, smoke = key
        for name in a[key]:
            if name not in b[key]:
                continue
            va, vb = a[key][name], b[key][name]
            ma, mb = median(va), median(vb)
            qa, qb = quartiles(va), quartiles(vb)
            change = (mb - ma) / abs(ma) if ma else math.nan
            verdict = "-"
            if name in bounded:
                bound, lower = bounded[name]["bound"], bounded[name]["better"] == "lower"
                spread = max((qa[1] - qa[0]) / abs(ma) if ma else math.inf,
                             (qb[1] - qb[0]) / abs(mb) if mb else math.inf)
                worse = change if lower else -change
                all_better = max(vb) < min(va) if lower else min(vb) > max(va)
                if spread > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                else:
                    verdict = "ok"
            label = workload + ("*" if smoke else "")
            print(f"{label:<8} {name:<32} "
                  f"{f'{ma:.4g} [{qa[0]:.4g}, {qa[1]:.4g}]':>32} "
                  f"{f'{mb:.4g} [{qb[0]:.4g}, {qb[1]:.4g}]':>32} {change:>+8.1%}  {verdict}"
                  f"  (n={len(va)}/{len(vb)})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_FIRMS}-firm panels")
    parser.add_argument("--compare", nargs=2, metavar=("A.jsonl", "B.jsonl"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    # a stop from outside unwinds like an error, so the probes are stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ecuindex" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'ecuindex'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    run = Run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), args.smoke)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    record = {"workload": run.wl.name, "seed": run.seed, "seconds": seconds,
              "trace": args.trace, "smoke": args.smoke, "n_firms": run.n_firms,
              "workers": run.wl.workers,
              "config": [run.raw_config(k=k) for k in range(PANELS)],
              "loadavg_before": loadavg(), "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    metrics, extra, correct = (trace if args.trace else measure)(run, record)
    record["env"] = environment()
    shutil.rmtree(run.dir)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    record.update(metrics=metrics, correct=correct, attempted=run.attempted, failed=run.failed,
                  run_wall_s=time.monotonic() - run.started)
    with open(RECORD, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    panels = 1 if args.trace else PANELS
    print(f"{run.wl.name}: {panels} x {run.n_firms} firms, workers={run.wl.workers}, "
          f"seed={run.seed}, trace={args.trace}")
    for name in units:
        print(f"  {name:<34} {metrics[name]:>14.6g} {units[name]}")
    if not args.trace:
        extra = {**extra, "failed_share": run.failed / run.attempted, "outputs_ok": int(correct)}
    for name, value in extra.items():
        print(f"  {name:<34} {value}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
