"""One workload process: set up, warm up, then run timed tasks in a loop.

    python3 perfbench/worker.py --workload W --seed N --out DIR --seconds S
        [--setup-only] [--trace]

The run.py orchestrator launches it with the program's ``src`` on
PYTHONPATH.  It writes DIR/worker.json (timings, failures, resource use and,
when traced, per-layer metrics), DIR/inputs.jsonl (every task's input, for
replay) and, when traced, DIR/spans.jsonl.  Set-up ends at the monotonic
timestamp ``ready``, taken just before the first timed task.

A reference probe (probe.py) runs before the first task and after every
task, untimed, so run.py can state each task's time at a fixed machine speed.

With --trace, odd schedule cycles run with span recorders and even ones
without, so the tracing overhead is measured under the same machine
conditions as the traced tasks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from probe import probe
from tracing import Tracer, summarize, write_jsonl

CLITRACE = Path(__file__).resolve().parent / "clitrace.py"


def _maxrss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.append(str(workloads.TESTS))  # tests/oracles.py
    tracer = Tracer() if args.trace else None
    span_dir = out / "cli-spans"
    kw = {}
    if tracer is not None and args.workload == "cli-pipeline":
        span_dir.mkdir(exist_ok=True)
        kw["launcher"] = lambda spec: (
            [sys.executable, str(CLITRACE), str(span_dir / f"task{spec['task']:05d}.json")]
            if _traced_cycle(spec["pass"])
            else [sys.executable, "-m", "optomo.cli"]
        )
    wl = workloads.make(args.workload, args.seed, out / "work", **kw)
    wl.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        (out / "worker.json").write_text(json.dumps({"ready": ready}) + "\n")
        return 0

    in_process = tracer is not None and args.workload != "cli-pipeline"
    min_cycles = 2 if tracer is not None else 1
    traced = False
    records, inputs = [], []
    client_s = 0.0
    i = 0
    first_probe_s = probe()
    start = time.perf_counter()
    while True:
        if i % wl.cycle == 0:
            cycle = i // wl.cycle
            if i:
                c0 = time.perf_counter()
                wl.finish_cycle(cycle - 1)
                client_s += time.perf_counter() - c0
            if traced and in_process:
                tracer.uninstall()
            if cycle >= min_cycles and time.perf_counter() - start >= args.seconds:
                break
            traced = tracer is not None and _traced_cycle(cycle)
            if traced and in_process:
                tracer.install()
        c0 = time.perf_counter()
        spec = wl.spec(i)
        inputs.append(spec)
        call_args = wl.prepare(spec)
        error = None
        t0 = time.perf_counter()
        client_s += t0 - c0
        try:
            if traced and in_process:
                with tracer.task_scope(i):
                    result = wl.run(call_args)
            else:
                result = wl.run(call_args)
        except Exception as exc:  # a failed task is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        t1 = time.perf_counter()
        probe_s = probe()
        if error is None:
            try:
                wl.check(spec, call_args, result)
            except workloads.Mismatch as exc:
                error = f"oracle mismatch: {exc}"
            except Exception as exc:
                error = f"oracle could not read the result: {type(exc).__name__}: {exc}"
        records.append(
            {"task": i, "seconds": t1 - t0, "probe_s": probe_s, "error": error, "traced": traced}
        )
        if error is not None:
            records[-1]["spec"] = spec
        client_s += time.perf_counter() - t1
        i += 1
    loop_s = time.perf_counter() - start

    result = {
        "ready": ready,
        "first_probe_s": first_probe_s,
        "loop_s": loop_s,
        "client_s": client_s,
        "tasks": records,
        "maxrss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "children_maxrss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
        "properties": wl.input_properties(len(records)),
    }
    if tracer is not None:
        if in_process:
            spans, warned = tracer.records(), tracer.truncation_warnings
            handler_s = []
        else:
            spans, warned, handler_s = _merge_cli_spans(span_dir, len(records))
        write_jsonl(spans, out / "spans.jsonl")
        result["layers"] = {k: list(v) for k, v in summarize(spans, warned).items()}
        result["handler_s"] = handler_s
    with open(out / "inputs.jsonl", "w") as fh:
        for spec in inputs:
            fh.write(json.dumps(spec, sort_keys=True) + "\n")
    (out / "worker.json").write_text(json.dumps(result) + "\n")
    return 0


def _traced_cycle(cycle):
    return cycle % 2 == 1


def _merge_cli_spans(span_dir, n_tasks):
    """Spans of every traced CLI child, renumbered into one id space."""
    spans, warned, handler_s = [], 0, []
    for task in range(n_tasks):
        path = span_dir / f"task{task:05d}.json"
        if not path.exists():  # untraced, or the child died before writing
            continue
        data = json.loads(path.read_text())
        offset = len(spans)
        for s in data["spans"]:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            s["task"] = task
            spans.append(s)
        warned += data["truncation_warnings"]
        handler_s.append(data["handler_s"])
    return spans, warned, handler_s


if __name__ == "__main__":
    sys.exit(main())
