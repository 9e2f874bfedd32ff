#!/usr/bin/env python3
"""optomo benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload {cli-pipeline,fock-grids,purity-sampling}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Workloads (see workloads.py):

  cli-pipeline     the README pipeline, one `python -m optomo.cli` process
                   per subcommand, on seeded Gaussian states
  fock-grids       in-process 16-phase tomogram grids of Fock superpositions
                   and mixtures, with grid moments and the Heisenberg check
  purity-sampling  in-process purity overlaps, alternating with seeded
                   homodyne sampling whose CDF tables repeat 2/3 of the time

Every task is checked against an independent oracle; a mismatch, an
exception or an unexpected exit code counts as a failed task.

--trace 0 measures the end-to-end metrics: set-up time (median over three
fresh workload processes, each timed from launch to its first timed task),
throughput, median and tail task latency, and peak resident memory.
Throughput and latency are reported twice: in wall seconds, and in ref_s,
each task's wall time divided by the machine speed the reference probe
(probe.py) measured around it.  The ref_s figures are the gated ones: on a
shared host the wall figures drift by up to 1.5x between runs of the same
code, and the probe cancels most of that drift.
--trace 1 alternates schedule cycles without and with span recorders
wrapped around the package's public functions, and reports per-task
per-layer metrics from the traced cycles plus the tracing overhead (traced
over untraced tasks per second of task time).

A run ends at the first schedule-cycle boundary after S seconds, so every
run sees whole cycles of the workload's input mix.  The human-readable
report goes to stdout, then one JSON line with the metrics BENCHMARK.json
names.  Inputs, per-task results, the environment and spans are written to
perfbench/results/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

import workloads
from probe import REF_PROBES, ref_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
LAUNCH_REPEATS = 3
# at least ten tasks lie beyond the tail percentile in a 25 s run (26 CLI
# commands, ~100 grids, ~150 purity/sampling tasks); purity-sampling's p95
# falls between two kinds of task and swings with a few tasks, so it uses p90
TAIL_PERCENTILE = {"cli-pipeline": 60, "fock-grids": 90, "purity-sampling": 90}
PROBE_WINDOW = 2  # probes on each side of a task that set its machine speed
DEADLINE_S = 170.0
PER_TASK_UNITS = {"count": "count/task", "s": "s/task", "bytes": "bytes/task"}


class RunError(Exception):
    """The benchmark itself could not run (not a failed task)."""


def environment(load_at_start, cpus_usable):
    def cache_sizes():
        out = {}
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
            except OSError:
                continue
            if kind != "Instruction":
                out[f"L{level}"] = size
        return out

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "cpu_pinned_to": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workloads.PINNED_THREADS,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "loadavg_at_start": load_at_start,
    }


class Orchestrator:
    def __init__(self, workload, seed, seconds, out):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out = out
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = workloads.child_env()

    def _run(self, cmd, what):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError(f"out of time before {what}")
        # own process group, so a timeout also ends the worker's CLI children
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, start_new_session=True)
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RunError(f"{what} did not finish within the run's time limit") from exc
        if proc.returncode != 0:
            raise RunError(f"{what} exited with code {proc.returncode}")

    def worker(self, role, *extra):
        """Launch one worker; return (seconds from launch to ready, report)."""
        out = self.out / role
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), *extra]
        launched = time.monotonic()
        self._run(cmd, f"worker {role}")
        report = json.loads((out / "worker.json").read_text())
        return report["ready"] - launched, report

    def launch_time(self, code):
        """Median wall time of `python -c code` over a few launches."""
        times = []
        for _ in range(LAUNCH_REPEATS):
            t0 = time.perf_counter()
            self._run([sys.executable, "-c", code], f"launch {code!r}")
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def machine_speed(report):
    """Per task, the median probe time over the probes around it.

    Probe k runs just before task k; the machine's speed state lasts seconds,
    so a few probes on each side give a steadier reading than one.
    """
    probes = np.array([report["first_probe_s"]] + [t["probe_s"] for t in report["tasks"]])
    w = PROBE_WINDOW
    return np.array([np.median(probes[max(0, k - w + 1): k + w + 1]) for k in range(len(probes) - 1)])


def quantile(values, percent):
    """Harrell-Davis estimate: a weighted mean of every order statistic,
    steadier than a single one when a run holds a few dozen tasks."""
    return float(hdquantiles(values, prob=[percent / 100.0])[0])


def task_stats(report, tail_percentile):
    tasks = report["tasks"]
    times = np.array([t["seconds"] for t in tasks])
    probes = machine_speed(report)
    ref = ref_seconds(times, probes)
    busy = report["loop_s"] - report["client_s"]
    tail = quantile(times, tail_percentile)
    ref_tail = quantile(ref, tail_percentile)
    return {
        "tasks": len(tasks),
        "failed": sum(t["error"] is not None for t in tasks),
        "busy_s": busy,
        "throughput": len(tasks) / busy,
        "p50": quantile(times, 50),
        "tail": tail,
        "beyond_tail": int(np.sum(times > tail)),
        "ref_busy": float(ref.sum()),
        "ref_throughput": len(tasks) / float(ref.sum()),
        "ref_p50": quantile(ref, 50),
        "ref_tail": ref_tail,
        "probe_s": float(np.median(probes)),
        "probe_quartiles_s": [float(q) for q in np.percentile(probes, [25, 75])],
    }


def failures(report, label):
    return [
        {"run": label, "task": t["task"], "error": t["error"], "spec": t["spec"]}
        for t in report["tasks"] if t["error"] is not None
    ]


def measure_end_to_end(orc):
    setups = []
    for k in range(SETUP_SAMPLES - 1):
        setup, _ = orc.worker(f"setup{k}", "--setup-only")
        setups.append(setup)
    setup, report = orc.worker("timed", "--seconds", str(orc.seconds))
    setups.append(setup)
    st = task_stats(report, TAIL_PERCENTILE[orc.workload])
    rss = report["children_maxrss_mb"] if orc.workload == "cli-pipeline" else report["maxrss_mb"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_tasks_per_ref_s": (st["ref_throughput"], "1/ref_s"),
        "latency_p50_ref_s": (st["ref_p50"], "ref_s"),
        "latency_tail_ref_s": (st["ref_tail"], "ref_s"),
        "throughput_tasks_per_s": (st["throughput"], "1/s"),
        "latency_p50_s": (st["p50"], "s"),
        "latency_tail_s": (st["tail"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "error_rate": (st["failed"] / st["tasks"], "ratio"),
    }
    notes = {
        "setup_samples_s": setups,
        "tasks": st["tasks"],
        "tail_percentile": TAIL_PERCENTILE[orc.workload],
        "tasks_beyond_tail": st["beyond_tail"],
        "busy_s": st["busy_s"],
        "busy_ref_s": st["ref_busy"],
        "probe_median_s": st["probe_s"],
        "probe_quartiles_s": st["probe_quartiles_s"],
        "ref_s_is": f"{REF_PROBES} runs of the reference probe",
        "peak_rss_of": "child processes (max)" if orc.workload == "cli-pipeline" else "workload process",
    }
    return metrics, notes, st, failures(report, "timed")


def measure_layers(orc):
    interpreter = orc.launch_time("pass")
    imported = orc.launch_time("import optomo")
    _, report = orc.worker("traced", "--seconds", str(orc.seconds), "--trace")
    ref = ref_seconds(np.array([t["seconds"] for t in report["tasks"]]), machine_speed(report))
    rate = {}
    for flag in (False, True):
        times = [r for r, t in zip(ref, report["tasks"]) if t["traced"] is flag]
        rate[flag] = len(times) / sum(times)
    n = sum(t["traced"] for t in report["tasks"])
    # counts and busy times are per task, so runs that fit a different
    # number of tasks into the same seconds stay comparable
    metrics = {}
    for name, (value, unit) in report["layers"].items():
        if unit in PER_TASK_UNITS:
            value, unit = value / n, PER_TASK_UNITS[unit]
        metrics[name] = (value, unit)
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (imported - interpreter, "s")
    if report["handler_s"]:
        metrics["cli.handler_s"] = (statistics.median(report["handler_s"]), "s")
    share = report["properties"].get("homodyne.cdf_repeat_share")
    if share is not None:
        metrics["homodyne.cdf_repeat_share"] = (share, "ratio")
    metrics["trace.overhead_ratio"] = (rate[True] / rate[False], "ratio")
    metrics["machine.probe_s"] = (float(np.median(machine_speed(report))), "s")
    notes = {
        "tasks": len(report["tasks"]),
        "traced_tasks": n,
        "untraced_tasks_per_task_ref_s": rate[False],
        "traced_tasks_per_task_ref_s": rate[True],
    }
    return metrics, notes, task_stats(report, TAIL_PERCENTILE[orc.workload]), failures(report, "traced run")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_at_start = os.getloadavg()
    cpus_usable = len(os.sched_getaffinity(0))
    # one CPU for the benchmark and every process it starts: the reference
    # probe then measures the CPU the tasks run on, and no task migrates
    # between CPUs of different speed mid-run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    missing = [p for p in (workloads.SRC / "optomo" / "__init__.py", workloads.TESTS / "oracles.py")
               if not p.exists()]
    if missing:
        print(f"benchmark: cannot find {', '.join(map(str, missing))}; "
              "run from the root of an optomo checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    orc = Orchestrator(args.workload, args.seed, args.seconds, out)
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, notes, st, failed = measure(orc)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    env = environment(load_at_start, cpus_usable)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failed,
    }
    (out / "result.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"# optomo benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("# environment: " + json.dumps(env))
    print("# notes: " + json.dumps(notes))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}")
    for f in failed:
        print(f"FAILED {f['run']} task {f['task']} (seed {args.seed}): {f['error']}; "
              f"input {json.dumps(f['spec'], sort_keys=True)}")

    line = {
        "correct": not failed,
        "attempted": st["tasks"],
        "failed": st["failed"],
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], (0.0,))[0], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
