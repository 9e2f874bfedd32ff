"""The three benchmark workloads: seeded inputs, task execution and oracles.

Every input is a pure function of (workload, seed, task index), so a seed
replays exactly.  Tasks run one at a time in a closed loop with one client.
Each workload object exposes

    cycle            tasks per schedule cycle; runs end on a cycle boundary
    spec(i)          JSON-able input of task i (what the replay file holds)
    prepare(spec)    turn a spec into call arguments (untimed)
    run(args)        the timed call into the program
    check(spec, args, result)   oracle check; raises Mismatch on disagreement
    finish_cycle(c)  untimed clean-up after cycle c

Oracles are independent routes: closed-form moments (`analytic_moments`,
`operator_trifonov_lhs`), dense-trapezoid overlaps of the wavefunctions in
``tests/oracles.py``, the standard-error band of sampled moments, and the
exit codes and JSON fields the CLI documents.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

WORKLOADS = ("cli-pipeline", "fock-grids", "purity-sampling")
_SALT = {"cli-pipeline": 101, "fock-grids": 202, "purity-sampling": 303}
HALF_PI = math.pi / 2.0
CLI_TIMEOUT_S = 120.0

# one BLAS thread: the machine is small and shared, and no hot path here is
# a large matrix product, so extra threads only add run-to-run noise
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Mismatch(Exception):
    """A task's result disagrees with its oracle."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _rng(workload, seed, *key):
    return np.random.default_rng([_SALT[workload], int(seed), *key])


def _close(name, got, want, tol):
    if not (abs(got - want) <= tol):
        raise Mismatch(f"{name}: got {got!r}, oracle {want!r}, tolerance {tol:.3g}")


def _expect(name, cond, detail=""):
    if not cond:
        raise Mismatch(f"{name}{': ' + detail if detail else ''}")


# --------------------------------------------------------------------------
# state specs (the JSON format `optomo.state_from_dict` reads)
# --------------------------------------------------------------------------

def gaussian_spec(rng):
    return {
        "type": "gaussian",
        "mean_q": float(rng.uniform(-1.0, 1.0)),
        "mean_p": float(rng.uniform(-1.0, 1.0)),
        "squeeze": float(rng.uniform(0.5, 2.0)),
    }


def fock_spec(rng, cutoff):
    c = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    return {"type": "fock", "coeffs": [[float(v.real), float(v.imag)] for v in c]}


def _cutoff(k):
    """Fock cutoff 1..8 stepped by a schedule index, not drawn from the seed,
    so the mix of problem sizes is the same for every seed."""
    return k % 8 + 1


def _pair(cycle):
    """Sizes step once per pair of cycles, so in a traced run (which traces
    odd cycles only) each traced cycle has the size mix of the untraced
    cycle before it."""
    return cycle // 2


def mixed_spec(first, second, weight):
    return {
        "type": "mixed",
        "components": [
            {"weight": weight, "state": first},
            {"weight": 1.0 - weight, "state": second},
        ],
    }


# --------------------------------------------------------------------------
# fock-grids: tomogram grids of Fock superpositions and mixtures
# --------------------------------------------------------------------------

class FockGrids:
    """Each task builds `tomogram_grid(state, phases=16)` for a fresh state,
    takes `tomographic_moments` at every phase and runs `heisenberg_lhs`.

    A cycle of ten tasks holds one Fock superposition of each cutoff 1..8,
    one Fock+Gaussian mixture and one Fock+Fock mixture, in seeded order.
    The mixtures' cutoffs step through 1..8 with the cycle pair, so every
    seed sees the same mix of sizes; the seed draws the coefficients,
    Gaussian parameters, weights and order.
    """

    name = "fock-grids"
    cycle = 10
    n_phases = 16
    moment_tol = 1e-6

    def __init__(self, seed, workdir):
        import optomo

        self.o = optomo
        self.seed = seed

    def spec(self, i):
        cycle, slot = divmod(i, self.cycle)
        q = _pair(cycle)
        kind = int(_rng(self.name, self.seed, 0, cycle).permutation(self.cycle)[slot])
        rng = _rng(self.name, self.seed, 1, i)
        if kind < 8:
            state = fock_spec(rng, kind + 1)
        elif kind == 8:
            state = mixed_spec(fock_spec(rng, _cutoff(q)), gaussian_spec(rng), float(rng.uniform(0.2, 0.8)))
        else:
            first, second = fock_spec(rng, _cutoff(q + 3)), fock_spec(rng, _cutoff(q + 6))
            state = mixed_spec(first, second, float(rng.uniform(0.2, 0.8)))
        return {"task": i, "state": state, "phases": self.n_phases}

    def prepare(self, spec):
        return self.o.state_from_dict(spec["state"])

    def run(self, state):
        o = self.o
        grid = o.tomogram_grid(state, phases=self.n_phases)
        moments = [o.tomographic_moments(grid, float(t)) for t in grid.phases]
        return grid, moments, o.heisenberg_lhs(grid)

    def check(self, spec, state, result):
        o = self.o
        grid, moments, report = result
        _expect("grid phases", grid.n_phases == self.n_phases)
        for m in moments:
            want = o.analytic_moments(state, m.phase)
            _close(f"mean at {m.phase:.6g}", m.mean, want.mean, self.moment_tol)
            _close(f"variance at {m.phase:.6g}", m.variance, want.variance, self.moment_tol)
        lhs = o.analytic_moments(state, 0.0).variance * o.analytic_moments(state, HALF_PI).variance
        _close("heisenberg lhs", report.lhs, lhs, 1e-5)
        _expect("heisenberg satisfied", report.satisfied, f"lhs {report.lhs!r}")

    def finish_cycle(self, cycle):
        pass

    def warm_up(self):
        spec = {"state": fock_spec(_rng(self.name, self.seed, 2), 1)}
        state = self.prepare(spec)
        self.check(spec, state, self.run(state))

    def input_properties(self, n_tasks):
        return {}


# --------------------------------------------------------------------------
# purity-sampling: characteristic-function purity and homodyne sampling
# --------------------------------------------------------------------------

def _gaussian_wavefunction(spec, y):
    s = spec["squeeze"]
    return (math.pi * s) ** -0.25 * np.exp(
        -((y - spec["mean_q"]) ** 2) / (2.0 * s) + 1j * spec["mean_p"] * y
    )


def purity_oracle(spec):
    """Tr rho^2 from dense-trapezoid overlaps of explicit wavefunctions."""
    if spec["type"] != "mixed":
        return 1.0
    import oracles  # tests/oracles.py

    ys = np.linspace(-24.0, 24.0, 24001)

    def psi(pure):
        if pure["type"] == "gaussian":
            return _gaussian_wavefunction(pure, ys)
        coeffs = np.array([complex(re, im) for re, im in pure["coeffs"]])
        coeffs /= np.linalg.norm(coeffs)
        return oracles.fock_position_amplitude(coeffs, ys)

    weights = [c["weight"] for c in spec["components"]]
    waves = [psi(c["state"]) for c in spec["components"]]
    total = 0.0
    for wi, pi in zip(weights, waves):
        for wj, pj in zip(weights, waves):
            total += wi * wj * abs(np.trapezoid(np.conj(pi) * pj, ys)) ** 2
    return total


class PuritySampling:
    """Half the tasks run `purity_overlap(s, s)` on a fresh state; the other
    half sample a state from a fixed pool of six at four off-axis phases and
    estimate its moments.

    A cycle of six tasks is: purity(Fock), sampling(fresh phases),
    purity(Fock), sampling(repeat), purity(Gaussian, or a Fock+Gaussian
    mixture in every other pair of cycles), sampling(repeat).  The two
    repeats reuse the fresh task's state and phases with new sampling seeds,
    so 2/3 of (state, phase) entries repeat and hit the CDF cache.  Fock
    cutoffs step with the cycle pair and the pool's are fixed (1, 3, 5), so
    every seed sees the same mix of sizes.  Fock purity tasks are the middle
    third by cost, so the median task time falls inside one kind of task.
    """

    name = "purity-sampling"
    cycle = 6
    shots = 20_000
    purity_tol = 1e-3
    n_sigma = 5.0
    _slots = (
        ("purity", "fock"),
        ("sample", "fresh"),
        ("purity", "fock"),
        ("sample", "repeat"),
        ("purity", "gaussian or mixed"),
        ("sample", "repeat"),
    )

    def __init__(self, seed, workdir):
        import optomo

        self.o = optomo
        self.seed = seed
        rng = _rng(self.name, seed, 0)
        # cutoffs 1, 3, 5: above 5 a 4097-point CDF row near theta = pi/4
        # needs 1024 quadrature nodes for some coefficient draws and not for
        # others, which would make peak memory depend on the seed
        self.pool = [gaussian_spec(rng) if k % 2 == 0 else fock_spec(rng, k) for k in range(6)]
        self.pool_states = [optomo.state_from_dict(s) for s in self.pool]

    def spec(self, i):
        cycle, slot = divmod(i, self.cycle)
        q = _pair(cycle)
        kind, variant = self._slots[slot]
        rng = _rng(self.name, self.seed, 1, i)
        if kind == "purity":
            if variant == "fock":
                state = fock_spec(rng, _cutoff(q + slot))
            elif q % 2 == 0:
                state = gaussian_spec(rng)
            else:
                state = mixed_spec(fock_spec(rng, _cutoff(q + 4)), gaussian_spec(rng), float(rng.uniform(0.2, 0.8)))
            return {"task": i, "kind": "purity", "state": state}
        # the first phase of each pair falls in one of four equal bins of
        # [0.1, pi/2 - 0.1], the second in the opposite bin; the bin steps
        # once per pass over the pool, so each pool state meets several bins
        group = _rng(self.name, self.seed, 2, cycle)
        width = (HALF_PI - 0.2) / 4
        k = (q // len(self.pool)) % 4
        a, b = (0.1 + width * (bin_ + float(group.random())) for bin_ in (k, (k + 2) % 4))
        return {
            "task": i,
            "kind": "sample",
            "variant": variant,
            "pool_index": q % len(self.pool),
            "schedule": [[a, self.shots], [a + HALF_PI, self.shots], [b, self.shots], [b + HALF_PI, self.shots]],
            "sample_seed": int(rng.integers(0, 2**31)),
        }

    def prepare(self, spec):
        if spec["kind"] == "purity":
            return ("purity", self.o.state_from_dict(spec["state"]))
        state = self.pool_states[spec["pool_index"]]
        schedule = [(phase, count) for phase, count in spec["schedule"]]
        return ("sample", state, schedule, spec["sample_seed"])

    def run(self, args):
        o = self.o
        if args[0] == "purity":
            return o.purity_overlap(args[1], args[1])
        _, state, schedule, seed = args
        ds = o.sample(state, schedule, seed)
        estimates = [o.estimate_moments(ds, phase) for phase, _ in schedule]
        trifonov = [o.empirical_trifonov(ds, ds, schedule[k][0]) for k in (0, 2)]
        return ds, estimates, trifonov

    def check(self, spec, args, result):
        o = self.o
        if args[0] == "purity":
            _close("purity overlap", result, purity_oracle(spec["state"]), self.purity_tol)
            return
        _, state, schedule, _ = args
        ds, estimates, trifonov = result
        _expect("record count", ds.n_records == self.shots * len(schedule))
        for est in estimates:
            want = o.analytic_moments(state, est.phase)
            _expect("count", est.count == self.shots)
            _close(f"sampled mean at {est.phase:.6g}", est.mean, want.mean, self.n_sigma * est.mean_stderr)
            _close(
                f"sampled variance at {est.phase:.6g}",
                est.variance,
                want.variance,
                self.n_sigma * est.variance_stderr,
            )
        for rep in trifonov:
            want = o.operator_trifonov_lhs(state, state, rep.phase)
            # both arguments are one dataset, so its two cross terms are the
            # same product: the true standard error is sqrt(2) times the
            # reported one, which assumes independent datasets
            _close(f"empirical trifonov at {rep.phase:.6g}", rep.lhs, want, self.n_sigma * math.sqrt(2.0) * rep.stderr)

    def finish_cycle(self, cycle):
        pass

    def warm_up(self):
        spec = {"kind": "purity", "state": fock_spec(_rng(self.name, self.seed, 3), 1)}
        args = self.prepare(spec)
        self.check(spec, args, self.run(args))

    def input_properties(self, n_tasks):
        seen = set()
        repeats = entries = 0
        for i in range(n_tasks):
            spec = self.spec(i)
            if spec["kind"] != "sample":
                continue
            for phase, _ in spec["schedule"]:
                key = (spec["pool_index"], phase)
                entries += 1
                repeats += key in seen
                seen.add(key)
        return {"homodyne.cdf_repeat_share": repeats / entries if entries else 0.0}


# --------------------------------------------------------------------------
# cli-pipeline: the README pipeline as separate processes
# --------------------------------------------------------------------------

class CliPipeline:
    """The README pipeline, one subcommand per task, each in its own process.

    A cycle is one pass of 13 subcommands over two Gaussian states drawn from
    the seed, run in a fresh directory with relative paths so stdout and
    files replay byte for byte.
    """

    name = "cli-pipeline"
    shots = 100_000
    n_phases = 64
    tol = 1e-6
    purity_tol = 1e-3
    n_sigma = 5.0

    def __init__(self, seed, workdir, launcher=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = child_env()
        # the command that runs one CLI invocation; the traced run swaps in
        # a wrapper that records spans inside the child
        self.launcher = launcher or (lambda task: [sys.executable, "-m", "optomo.cli"])
        self.o = None
        self.cycle = len(self.commands(self.pass_inputs(0)))

    def pass_inputs(self, p):
        rng = _rng(self.name, self.seed, p)
        k = int(rng.integers(1, self.n_phases // 2))
        return {
            "pass": p,
            "state1": gaussian_spec(rng),
            "state2": gaussian_spec(rng),
            # a stored grid phase off both axes, so `plotdata row` finds it
            "theta": k * (math.pi / self.n_phases),
            "seed1": int(rng.integers(0, 2**31)),
            "seed2": int(rng.integers(0, 2**31)),
        }

    def commands(self, inp):
        th = repr(inp["theta"])
        thetas = f"{inp['theta']!r},{inp['theta'] + HALF_PI!r}"
        n = str(self.n_phases)
        shots = str(self.shots)
        pair = ["--state1", "s1.json", "--state2", "s2.json"]
        return [
            ["state", "validate", "--state", "s1.json"],
            ["tomogram", "--state", "s1.json", "--phases", n, "--out", "w1.csv"],
            ["check", "heisenberg", "--tomogram", "w1.csv"],
            ["check", "trifonov", *pair, "--theta", th],
            ["sweep", "trifonov", *pair, "--phases", n],
            ["check", "purity", "--state", "s1.json"],
            ["check", "purity", "--tomogram", "w1.csv"],
            ["simulate", "--state", "s1.json", "--thetas", thetas, "--shots", shots,
             "--seed", str(inp["seed1"]), "--out", "d1.csv"],
            ["simulate", "--state", "s2.json", "--thetas", thetas, "--shots", shots,
             "--seed", str(inp["seed2"]), "--out", "d2.csv"],
            ["estimate", "--data", "d1.csv", "--theta", th],
            ["check", "trifonov", "--data1", "d1.csv", "--data2", "d2.csv", "--theta", th],
            ["plotdata", "row", "--tomogram", "w1.csv", "--theta", th, "--out", "row.csv"],
            ["plotdata", "sweep", *pair, "--out", "sweep.csv"],
        ]

    def pass_dir(self, p):
        return self.workdir / f"pass{p:04d}"

    def spec(self, i):
        p, slot = divmod(i, self.cycle)
        inp = self.pass_inputs(p)
        return {"task": i, "pass": p, "argv": self.commands(inp)[slot], "inputs": inp}

    def prepare(self, spec):
        d = self.pass_dir(spec["pass"])
        if not d.exists():
            d.mkdir(parents=True)
            for k in ("1", "2"):
                with open(d / f"s{k}.json", "w") as fh:
                    json.dump(spec["inputs"][f"state{k}"], fh, indent=2)
                    fh.write("\n")
        return spec

    def run(self, spec):
        cmd = self.launcher(spec) + spec["argv"]
        proc = subprocess.run(
            cmd,
            cwd=self.pass_dir(spec["pass"]),
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    # -- oracle checks ------------------------------------------------------

    def _payload(self, stdout):
        lines = stdout.decode().strip().splitlines()
        _expect("stdout", bool(lines), "no output")
        return json.loads(lines[-1])

    def check(self, spec, _args, result):
        if self.o is None:
            import optomo

            self.o = optomo
        o = self.o
        rc, stdout, stderr = result
        argv = spec["argv"]
        inp = spec["inputs"]
        d = self.pass_dir(spec["pass"])
        s1 = o.state_from_dict(inp["state1"])
        s2 = o.state_from_dict(inp["state2"])
        theta = inp["theta"]
        head = " ".join(argv[:2])
        _expect("exit code", rc in (0, 1), f"{rc}; stderr: {stderr.decode()[-400:]}")
        out = self._payload(stdout)

        def ok_exit():
            _expect("exit code", rc == 0, f"{rc}")

        def check_exit_matches():
            _expect("exit code vs satisfied", rc == (0 if out["satisfied"] else 1), f"{rc}")

        if head == "state validate":
            ok_exit()
            _expect("valid", out["valid"] is True)
            _expect("spec round trip", out["spec"] == inp["state1"])
        elif argv[0] == "tomogram":
            ok_exit()
            _expect("n_phases", out["n_phases"] == self.n_phases)
            _expect("grid file", (d / "w1.csv").stat().st_size > 0)
        elif head == "check heisenberg":
            ok_exit()
            want = o.analytic_moments(s1, 0.0).variance * o.analytic_moments(s1, HALF_PI).variance
            _close("heisenberg lhs", out["lhs"], want, self.tol)
            _expect("satisfied", out["satisfied"] is True)
        elif head == "check trifonov" and "--data1" in argv:
            want = o.operator_trifonov_lhs(s1, s2, theta)
            _close("empirical trifonov lhs", out["lhs"], want, self.n_sigma * out["stderr"])
            check_exit_matches()
        elif head == "check trifonov":
            ok_exit()
            _close("trifonov lhs", out["lhs"], o.operator_trifonov_lhs(s1, s2, theta), self.tol)
            _expect("satisfied", out["satisfied"] is True)
        elif head == "sweep trifonov":
            ok_exit()
            want = min(o.operator_trifonov_lhs(s1, s2, float(t)) for t in o.uniform_phases(self.n_phases))
            _close("sweep lhs", out["lhs"], want, self.tol)
            _expect("satisfied", out["satisfied"] is True)
        elif head == "check purity":
            ok_exit()
            _close("purity overlap", out["overlap"], 1.0, self.purity_tol)
            _expect("classification", out["classification"] == "pure", out["classification"])
        elif argv[0] == "simulate":
            ok_exit()
            _expect("records", out["records"] == 2 * self.shots, str(out["records"]))
            _expect("seed", out["seed"] == int(argv[argv.index("--seed") + 1]))
            _expect("dataset file", (d / out["out"]).stat().st_size > 0)
        elif argv[0] == "estimate":
            ok_exit()
            want = o.analytic_moments(s1, theta)
            _expect("count", out["count"] == self.shots, str(out["count"]))
            _close("estimated mean", out["mean"], want.mean, self.n_sigma * out["mean_stderr"])
            _close("estimated variance", out["variance"], want.variance, self.n_sigma * out["variance_stderr"])
        elif head == "plotdata row":
            ok_exit()
            data = np.loadtxt(d / "row.csv", delimiter=",", skiprows=1)
            _expect("points", out["points"] == data.shape[0])
            xs, row = data[:, 0], data[:, 1]
            want = o.analytic_moments(s1, theta)
            _close("row mass", float(np.trapezoid(row, xs)), 1.0, self.tol)
            _close("row mean", float(np.trapezoid(row * xs, xs)), want.mean, self.tol)
        elif head == "plotdata sweep":
            ok_exit()
            data = np.loadtxt(d / "sweep.csv", delimiter=",", skiprows=1)
            _expect("points", out["points"] == data.shape[0] == self.n_phases)
            for t, lhs in data:
                _close(f"sweep point {t:.6g}", lhs, o.operator_trifonov_lhs(s1, s2, float(t)), self.tol)
        else:
            raise Mismatch(f"no oracle for {argv}")

    def finish_cycle(self, cycle):
        # datasets are ~8 MB each; keep the checkout small across runs
        shutil.rmtree(self.pass_dir(cycle), ignore_errors=True)

    def warm_up(self):
        # no oracle here: importing optomo in this process would bill the
        # benchmark's own import to the pipeline's set-up time
        spec = self.spec(0)
        self.prepare(spec)
        rc, _, stderr = self.run(spec)
        if rc != 0:
            raise Mismatch(f"warm-up {spec['argv']} exited {rc}: {stderr.decode()[-400:]}")

    def input_properties(self, n_tasks):
        return {"homodyne.cdf_repeat_share": 0.0}


def make(workload, seed, workdir, **kw):
    cls = {"cli-pipeline": CliPipeline, "fock-grids": FockGrids, "purity-sampling": PuritySampling}[workload]
    return cls(seed, workdir, **kw)
