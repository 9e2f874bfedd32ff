#!/usr/bin/env python3
"""Benchmark the numba-jitted kernels against their pure-numpy fallbacks.

Times the two hot kernels (the oscillatory amplitude sum behind `branch=`
tomogram rows, and the Hermite-function recurrence) plus an end-to-end
tomogram grid build on each backend.

Usage:
    python benchmarks/benchmark_kernels.py [--repeats N]

Setting TOMO_DISABLE_NUMBA=1 makes the package itself run on the numpy path;
this script always times both implementations directly.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from optomo import GaussianState, fock, tomogram_grid
from optomo import kernels


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_amplitude(repeats):
    rows = []
    rng = np.random.default_rng(0)
    for n_y, n_x in ((512, 256), (2048, 256), (2048, 1024)):
        g = rng.normal(size=n_y) + 1j * rng.normal(size=n_y)
        y = np.linspace(-20, 20, n_y)
        x0, dx = -8.0, 16.0 / (n_x - 1)
        args = (g, y, 1.3, x0, dx, n_x)
        t_np = best_of(lambda: kernels._amplitude_rows_uniform_np(*args), repeats)
        if kernels.numba is not None:
            t_nb = best_of(lambda: kernels._amplitude_rows_uniform_nb(*args), repeats)
        else:
            t_nb = float("nan")
        rows.append((f"amplitude {n_y}x{n_x}", t_np, t_nb))
    return rows


def bench_hermite(repeats):
    rows = []
    for nmax, n_y in ((16, 4096), (64, 4096)):
        y = np.linspace(-16, 16, n_y)
        t_np = best_of(lambda: kernels._hermite_functions_np(nmax, y), repeats)
        if kernels.numba is not None:
            t_nb = best_of(lambda: kernels._hermite_functions_nb(nmax, y), repeats)
        else:
            t_nb = float("nan")
        rows.append((f"hermite n<={nmax} on {n_y} pts", t_np, t_nb))
    return rows


def bench_grid(repeats):
    import optomo.kernels as k

    state_g = GaussianState(0.5, -0.5, 2.0)
    state_f = fock(3)
    rows = []
    for label, state in (("gaussian grid 16 phases", state_g), ("fock-3 grid 16 phases", state_f)):
        saved = k.USE_NUMBA
        try:
            k.USE_NUMBA = False
            t_np = best_of(lambda: tomogram_grid(state, phases=16), repeats)
            if kernels.numba is not None:
                k.USE_NUMBA = True
                t_nb = best_of(lambda: tomogram_grid(state, phases=16), repeats)
            else:
                t_nb = float("nan")
        finally:
            k.USE_NUMBA = saved
        rows.append((label, t_np, t_nb))
    return rows


def main():
    parser = argparse.ArgumentParser(description="numba vs numpy kernel benchmark")
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeats")
    args = parser.parse_args()

    if kernels.numba is not None:
        print("warming up numba kernels...", flush=True)
        t0 = time.perf_counter()
        kernels.warm_up()
        print(f"  compile/load took {time.perf_counter() - t0:.2f}s")
    else:
        print("numba not available; timing numpy paths only")

    rows = []
    rows += bench_amplitude(args.repeats)
    rows += bench_hermite(args.repeats)
    rows += bench_grid(args.repeats)

    print()
    print(f"{'kernel':<32} {'numpy (ms)':>12} {'numba (ms)':>12} {'speedup':>9}")
    print("-" * 69)
    for label, t_np, t_nb in rows:
        speedup = t_np / t_nb if t_nb == t_nb and t_nb > 0 else float("nan")
        print(f"{label:<32} {t_np * 1e3:>12.3f} {t_nb * 1e3:>12.3f} {speedup:>8.2f}x")


if __name__ == "__main__":
    main()
