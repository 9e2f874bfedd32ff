"""Simulated homodyne detection: seeded quadrature sampling and estimation.

Samples are drawn per phase by inverse-CDF lookup on a finely tabulated
tomogram row (4097 points over the 8-sigma window keeps the CDF interpolation
error well under 1e-4 in probability).  The RNG is numpy's PCG64 seeded
through SeedSequence, with one spawned child stream per schedule entry, so a
(state, schedule, seed) triple reproduces the dataset bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .inequalities import BOUND, InequalityReport
from .states import State, grid_halfwidth, state_label
from .tomography import _state_row, wrap_phase

__all__ = [
    "GENERATOR_NAME",
    "HomodyneDataset",
    "MomentEstimate",
    "sample",
    "estimate_moments",
    "empirical_trifonov",
    "save_dataset_csv",
    "load_dataset_csv",
]

GENERATOR_NAME = "numpy-PCG64(SeedSequence-spawn-per-phase)"
MIN_SAMPLES = 30
CDF_POINTS = 4097
PHASE_MATCH_TOL = 1e-9
CSV_BLOCK_LINES = 4096


@dataclass(frozen=True, eq=False)
class HomodyneDataset:
    """Quadrature records (theta_i, x_i) plus provenance metadata."""

    thetas: np.ndarray
    xs: np.ndarray
    seed: int
    state_label: str
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        xs = np.array(self.xs, dtype=float)
        if thetas.ndim != 1 or thetas.shape != xs.shape:
            raise InputError("thetas and xs must be matching 1-D arrays")
        if not np.all(np.isfinite(xs)):
            raise InputError("quadrature values must be finite")
        if thetas.size and (
            not np.all(np.isfinite(thetas))
            or thetas.min() < 0.0
            or thetas.max() >= math.pi
        ):
            raise InputError("phases must lie in [0, pi)")
        thetas.setflags(write=False)
        xs.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xs", xs)

    @property
    def n_records(self) -> int:
        return self.xs.size

    def phases(self) -> np.ndarray:
        return np.unique(self.thetas)

    def values_at(self, phase: float) -> np.ndarray:
        mask = np.abs(self.thetas - float(phase)) <= PHASE_MATCH_TOL
        return self.xs[mask]


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean/variance at one phase with delta-method standard errors."""

    mean: float
    variance: float
    phase: float
    count: int
    mean_stderr: float
    variance_stderr: float


def _tabulated_cdf(state: State, phase: float):
    half = grid_halfwidth(state)
    xs = np.linspace(-half, half, CDF_POINTS)
    row = _state_row(state, float(phase), xs)
    dx = xs[1] - xs[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (row[1:] + row[:-1]) * dx)))
    total = cdf[-1]
    if total <= 0.0:
        raise InputError("density row has no mass; cannot sample")
    cdf /= total
    # strictly increasing knots keep the inverse lookup single-valued
    eps = np.arange(CDF_POINTS) * (1e-15 / CDF_POINTS)
    cdf = np.maximum.accumulate(cdf + eps)
    cdf /= cdf[-1]
    return cdf, xs


def sample(state: State, phase_schedule, seed: int) -> HomodyneDataset:
    """Draw quadrature samples for each (phase, count) entry of the schedule.

    Deterministic: the seed and schedule fully determine the dataset.  Each
    entry tabulates its own CDF; nothing is kept between calls.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    schedule = list(phase_schedule)
    if not schedule:
        raise InputError("phase schedule must be non-empty")
    parsed = []
    for entry in schedule:
        try:
            phase, count = entry
        except (TypeError, ValueError) as exc:
            raise InputError("schedule entries must be (phase, count) pairs") from exc
        phase = float(phase)
        if not math.isfinite(phase) or not (0.0 <= phase < math.pi):
            raise InputError(f"scheduled phase must lie in [0, pi), got {phase}")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise InputError(f"sample count must be a positive integer, got {count!r}")
        parsed.append((phase, count))

    children = np.random.SeedSequence(seed).spawn(len(parsed))
    theta_parts = []
    x_parts = []
    for (phase, count), child in zip(parsed, children):
        cdf, xs = _tabulated_cdf(state, phase)
        rng = np.random.Generator(np.random.PCG64(child))
        u = rng.random(count)
        x_parts.append(np.interp(u, cdf, xs))
        theta_parts.append(np.full(count, phase))
    return HomodyneDataset(
        thetas=np.concatenate(theta_parts),
        xs=np.concatenate(x_parts),
        seed=seed,
        state_label=state_label(state),
    )


def estimate_moments(ds: HomodyneDataset, phase: float) -> MomentEstimate:
    """Sample mean and unbiased variance at one phase, with standard errors.

    SE(mean) = s/sqrt(N); SE(variance) from the fourth-moment formula
    Var(s^2) ~= (m4 - s^4 (N-3)/(N-1)) / N.  Any phase is read through the
    parity rule: theta + pi holds the records of theta with the mean negated.
    """
    reduced, mirrored = wrap_phase(phase)
    values = ds.values_at(reduced)
    n = values.size
    if n < MIN_SAMPLES:
        raise InputError(
            f"need at least {MIN_SAMPLES} records at phase {float(phase):.6g}, got {n}"
        )
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    squared = (values - mean) ** 2
    m4 = float(np.mean(squared * squared))
    var_of_var = max(0.0, (m4 - var * var * (n - 3) / (n - 1)) / n)
    return MomentEstimate(
        mean=-mean if mirrored else mean,
        variance=var,
        phase=float(phase),
        count=int(n),
        mean_stderr=math.sqrt(var / n),
        variance_stderr=math.sqrt(var_of_var),
    )


def empirical_trifonov(
    ds1: HomodyneDataset, ds2: HomodyneDataset, phase: float
) -> InequalityReport:
    """Two-state dispersion check from sampled data, with propagated stderr.

    First-order (delta-method) propagation across the four variance
    estimates; satisfied means lhs >= 1/4 - 3*stderr.
    """
    phase = float(phase)
    other, _ = wrap_phase(phase + math.pi / 2.0)
    e1 = estimate_moments(ds1, phase)
    e1_rot = estimate_moments(ds1, other)
    e2 = estimate_moments(ds2, phase)
    e2_rot = estimate_moments(ds2, other)
    lhs = 0.5 * (e1.variance * e2_rot.variance) + 0.5 * (e2.variance * e1_rot.variance)
    grad_sq = (
        (0.5 * e2_rot.variance * e1.variance_stderr) ** 2
        + (0.5 * e1.variance * e2_rot.variance_stderr) ** 2
        + (0.5 * e1_rot.variance * e2.variance_stderr) ** 2
        + (0.5 * e2.variance * e1_rot.variance_stderr) ** 2
    )
    stderr = math.sqrt(grad_sq)
    tolerance = 3.0 * stderr
    margin = lhs - BOUND
    return InequalityReport(
        kind="trifonov",
        phase=phase,
        lhs=float(lhs),
        bound=BOUND,
        margin=float(margin),
        satisfied=bool(margin >= -tolerance),
        stderr=stderr,
        tolerance=tolerance,
    )


# --------------------------------------------------------------------------
# CSV persistence (metadata goes to a JSON sidecar next to the CSV)
# --------------------------------------------------------------------------

def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_dataset_csv(ds: HomodyneDataset, path):
    """Write "theta,x" records and the JSON metadata sidecar.  Lines are
    formatted in blocks of ``CSV_BLOCK_LINES``; a run of equal phases shares
    one formatted prefix (runs split on the bits, since 0.0 and -0.0 print
    differently)."""
    n = ds.n_records
    bits = ds.thetas.view(np.int64)
    edges = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
    starts = [0, *edges] if n else []
    with open(path, "w") as fh:
        fh.write("theta,x\n")
        for lo, hi in zip(starts, [*edges, n]):
            prefix = f"{float(ds.thetas[lo]):.17g},"
            for a in range(lo, hi, CSV_BLOCK_LINES):
                block = ds.xs[a:min(a + CSV_BLOCK_LINES, hi)].tolist()
                fh.write("".join([f"{prefix}{x:.17g}\n" for x in block]))
    meta = {"seed": ds.seed, "state_label": ds.state_label, "generator": ds.generator}
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_dataset_csv(path) -> HomodyneDataset:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "theta,x":
                raise InputError(f"{path}: expected header 'theta,x', got {header!r}")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise InputError(f"{path}: malformed CSV: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read dataset file {path}: {exc}") from exc
    if data.size == 0:
        thetas = np.empty(0)
        xs = np.empty(0)
    elif data.shape[1] != 2:
        raise InputError(f"{path}: expected two columns theta,x")
    else:
        thetas, xs = data[:, 0], data[:, 1]
    meta_path = _sidecar_path(path)
    seed, label, generator = -1, "unknown", "unknown"
    if meta_path.exists():
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            seed = int(meta.get("seed", -1))
            label = str(meta.get("state_label", "unknown"))
            generator = str(meta.get("generator", "unknown"))
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
            raise InputError(f"invalid metadata sidecar {meta_path}: {exc}") from exc
    return HomodyneDataset(
        thetas=thetas, xs=xs, seed=seed, state_label=label, generator=generator
    )
