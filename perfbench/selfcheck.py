#!/usr/bin/env python3
"""Determinism checks for the benchmark and the CLI, from outside the program.

    python3 perfbench/selfcheck.py [--seed N] [--tasks N]

1. For every workload, two fresh processes generate the first N task inputs
   of one seed; their JSON must be byte-identical (and differ for seed+1).
2. One cli-pipeline pass runs twice in separate directories; every
   subcommand's stdout and every file it writes (tomogram, dataset and plot
   CSVs, dataset sidecars) must be byte-identical across the two runs.

Exits 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "results" / "selfcheck"


def dump_inputs(workload, seed, n):
    wl = workloads.make(workload, seed, OUT / "dump")
    return "".join(json.dumps(wl.spec(i), sort_keys=True) + "\n" for i in range(n))


def generated(workload, seed, n):
    cmd = [sys.executable, __file__, "--dump", workload, "--seed", str(seed), "--tasks", str(n)]
    return subprocess.run(cmd, env=workloads.child_env(), capture_output=True, check=True).stdout


def cli_pass(seed, where):
    wl = workloads.make("cli-pipeline", seed, where)
    stdouts = []
    for i in range(wl.cycle):
        spec = wl.spec(i)
        wl.prepare(spec)
        rc, stdout, stderr = wl.run(spec)
        stdouts.append((spec["argv"], rc, stdout))
    files = {p.name: p.read_bytes() for p in sorted(wl.pass_dir(0).iterdir())}
    return stdouts, files


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tasks", type=int, default=60)
    ap.add_argument("--dump", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    if args.dump:
        sys.stdout.write(dump_inputs(args.dump, args.seed, args.tasks))
        return 0

    problems = []
    for workload in workloads.WORKLOADS:
        a = generated(workload, args.seed, args.tasks)
        b = generated(workload, args.seed, args.tasks)
        other = generated(workload, args.seed + 1, args.tasks)
        ok = a == b and a != other
        print(f"inputs {workload}: {'identical' if a == b else 'DIFFER'} across processes, "
              f"{'distinct' if a != other else 'SAME'} for another seed")
        if not ok:
            problems.append(f"inputs of {workload}")

    shutil.rmtree(OUT, ignore_errors=True)
    out_a, files_a = cli_pass(args.seed, OUT / "a")
    out_b, files_b = cli_pass(args.seed, OUT / "b")
    for (argv_a, rc_a, so_a), (_, rc_b, so_b) in zip(out_a, out_b):
        same = rc_a == rc_b and so_a == so_b
        print(f"cli {' '.join(argv_a[:2]):20s} exit {rc_a}: stdout {'identical' if same else 'DIFFERS'}")
        if not same:
            problems.append(f"stdout of {argv_a}")
    for name in sorted(set(files_a) | set(files_b)):
        same = files_a.get(name) == files_b.get(name)
        print(f"cli file {name:12s} {len(files_a.get(name, b'')):>10d} bytes: {'identical' if same else 'DIFFERS'}")
        if not same:
            problems.append(f"file {name}")
    shutil.rmtree(OUT, ignore_errors=True)

    if problems:
        print("selfcheck FAILED: " + "; ".join(problems))
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
