"""A fixed reference piece of work that measures the machine's current speed.

On a shared virtual machine the same code runs up to 1.5 times faster or
slower from one minute to the next, in interpreted Python and in numpy
alike.  The worker runs `probe` after every task; dividing a task's wall
time by the probe times on either side of it gives the task's time at a
fixed reference speed, which is what the gated metrics report:

    1 ref_s = REF_PROBES probe runs

On the machine the benchmark was written on (2 vCPUs of an Intel Xeon at
2.0 GHz) one ref_s is roughly one wall second.  The probe does not touch the
program, so a change to the program moves ref_s figures as it moves wall
times.
"""

from __future__ import annotations

import time

import numpy as np

REF_PROBES = 250
REPEATS = 2  # the probe is the fastest of these, which drops interrupts
_X = np.linspace(-4.0, 4.0, 8192)


def _work():
    # interpreted arithmetic and small-array numpy, the two kinds of work
    # the program's hot paths mix
    acc = 0.0
    for k in range(40_000):
        acc += k * 0.5
    for _ in range(10):
        acc += float(np.sort(np.exp(-_X * _X) * np.cos(3.0 * _X)).sum())
    return acc


def probe():
    """Seconds the reference work takes now (fastest of REPEATS runs)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def ref_seconds(wall_s, probe_s):
    """Wall seconds at the machine speed the probe saw, in ref_s."""
    return wall_s / (REF_PROBES * probe_s)
