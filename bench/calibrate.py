#!/usr/bin/env python3
"""Host-speed probe: a fixed unit of work, timed again and again on one CPU.

    python3 bench/calibrate.py --cpu 1 --log bench/out/speed-cpu1.log --parent PID

Pinned to one CPU at the lowest priority (nice 19), it runs a fixed unit of
Python and small-array numpy work (the mix the package's hot loops are made
of), sleeps a little, and appends one line per unit to the log: the
``time.perf_counter`` clock (CLOCK_MONOTONIC, the same in every process) when
the unit ended and the CPU seconds the unit took.  While a benchmark stage
keeps that CPU busy the probe gets about 2% of
it, in slices between the stage's, so its units per CPU second say how fast
the host ran that CPU while the stage ran.  ``run.py`` scales each stage's CPU
time by that speed.  The probe exits when process ``--parent`` is no longer
its parent.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

TEXT = ",".join(f"{(i * 7919) % 1000 / 7.0:.4f}" for i in range(191))
TRANS = np.array([[0.95, 0.05], [0.10, 0.90]])
PAUSE_S = 0.02  # between units: the probe stays near 5% of an idle CPU


def unit() -> float:
    """One fixed unit of work (about a millisecond): parse, recurse, small arrays."""
    values = [float(x) for x in TEXT.split(",")]
    a, b = 0.5, 0.5
    for v in values:
        a, b = a * 0.9 + b * 0.2 + v * 1e-3, a * 0.1 + b * 0.8
        s = a + b
        a, b = a / s, b / s
    alpha = np.array([a, b])
    for v in values[:40]:
        alpha = TRANS.T @ alpha * np.exp(-0.5 * (v * 1e-3 - np.array([0.0, 0.1])) ** 2)
        alpha /= alpha.sum()
    return float(alpha[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--parent", type=int, required=True,
                        help="pid of the parent: given, not read, in case it ends first")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    os.nice(19)
    with open(args.log, "a", encoding="utf-8", buffering=1) as log:
        while os.getppid() == args.parent:
            start = time.process_time()
            unit()
            log.write(f"{time.perf_counter():.6f} {time.process_time() - start:.9f}\n")
            time.sleep(PAUSE_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
