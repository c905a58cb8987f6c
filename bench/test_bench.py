"""Tests of the benchmark itself, on its smoke size (12-firm panels).

    python3 -m pytest bench/test_bench.py -q

Each workload runs in both modes; the last line must be the result object
the benchmark contract asks for, with every declared metric, and the
output checks must pass.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_fails_without_the_package_source(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = run_bench("--workload", "shock", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_marks_wide_spread_unresolved(tmp_path, capsys):
    def records(values):
        return "".join(json.dumps({"workload": "shock", "trace": 0, "smoke": False,
                                   "metrics": {"fit_cpu_s": v}}) + "\n" for v in values)

    steady, wide = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    steady.write_text(records([10.0, 10.1, 9.9, 10.0]))
    wide.write_text(records([5.0, 15.0, 9.0, 20.0]))
    bench.compare(str(steady), str(steady))
    assert re.search(r"\bok\b", capsys.readouterr().out)
    bench.compare(str(steady), str(wide))
    assert re.search(r"\bunresolved\b", capsys.readouterr().out)


def test_sigterm_stops_the_host_speed_probes():
    log_dir = bench.OUT / "shock-seed3-trace0-smoke"
    shutil.rmtree(log_dir, ignore_errors=True)
    proc = subprocess.Popen([sys.executable, "bench/run.py", "--workload", "shock", "--seed",
                             "3", "--seconds", "1", "--trace", "0", "--smoke"], cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(log_dir.glob("speed-cpu*.log")) and proc.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) != 0
    finally:
        proc.kill()
        proc.wait()

    def probes():
        found = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            if b"calibrate.py" in cmdline and str(log_dir).encode() in cmdline:
                found.append(pid)
        return found

    assert probes() == []


def test_host_speed_rate_widens_the_window_to_enough_units(tmp_path):
    speed = bench.HostSpeed(types.SimpleNamespace(dir=tmp_path, env={}), [0, 1])
    # units ending at t = 1..10 s; the first five took 1 ms of CPU, the rest 2 ms
    speed.logs[0].write_text("".join(f"{t} {0.001 if t <= 5 else 0.002}\n"
                                     for t in range(1, 11)) + "11 0.0")  # unfinished line
    speed.logs[1].write_text("".join(f"{t} 0.002\n" for t in range(1, 11)))
    assert len(speed.samples(0)) == 10
    assert speed.rate([0], 0.0, 20.0) == pytest.approx(10 / 0.015)
    assert speed.rate([0, 1], 0.0, 20.0) == pytest.approx((10 / 0.015 + 500) / 2)
    # a window with no unit in it widens by 0.25 s each side until it holds 8
    assert speed.rate([0], 2.9, 3.1) == pytest.approx(8 / 0.011)


def test_tail_leaves_ten_samples_beyond():
    value, pct = bench.tail(list(range(100)))
    assert value == 89 and pct == 90.0


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(60), 1)  # ties on purpose
    labels = rng.random(60) < 0.4
    pos, neg = scores[labels], scores[~labels]
    pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert bench.auc(scores, labels) == pytest.approx(pairs / (len(pos) * len(neg)))
