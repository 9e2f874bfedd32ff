"""Simulated homodyne detection: seeded quadrature sampling and estimation.

Samples are drawn per phase by inverse-CDF lookup on a finely tabulated
tomogram row (4097 points over the 8-sigma window keeps the CDF interpolation
error well under 1e-4 in probability).  Each ``sample`` call tabulates the
rows of its schedule's distinct reduced phases in one batched row evaluation,
and builds each row's lookup once.  The lookup is a guide table (Chen &
Asau 1974; Devroye 1986, sec. III.2.4): the uniform draw's bin among
2 * (CDF_POINTS - 1) equal bins of [0, 1) names the knot interval, so each
shot costs a few array reads instead of a binary search, and the result is
bitwise what ``np.interp`` gives.  A schedule phase outside [0, pi) is
reduced through the parity rule w(X, theta + pi) = w(-X, theta): its records
are stored at the reduced phase and drawn there, negated on a mirrored
phase.  The RNG is numpy's PCG64 seeded through SeedSequence, with one
spawned child stream per schedule entry, so a (state, schedule, seed) triple
reproduces the dataset bit for bit.  A dataset stores its phases as runs
of records at one phase, as ``sample`` writes them (one run per group of
consecutive entries at one reduced phase), and derives the per-record
``thetas`` only when it is read; queries, moments and the CSV writer work on
the runs.  A dataset computes the moments of each set of matching runs once
and keeps them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import InputError
from .inequalities import InequalityReport, _report
from .states import State, _integer, grid_halfwidth, state_label
from .tomography import PHASE_TOL, _nearest_phase, _read_csv, _state_rows, wrap_phase

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
CDF_POINTS = 4097  # CDF_POINTS - 1 must be a power of two: see _inverse_cdf
# with 4096-line blocks the "%" formatting raised the peak RSS of writing
# 2 x 100k records by ~1.5 MB; 1024-line blocks did not, and write as fast
CSV_BLOCK_LINES = 1024


def _split_runs(values):
    """(phases, bounds): the runs of consecutive equal bits in ``values``,
    run k being entries bounds[k]:bounds[k + 1] at phases[k].  0.0 and -0.0
    start separate runs (they print differently)."""
    bits = values.view(np.int64)
    first = np.ones(values.size, dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    bounds = np.append(np.flatnonzero(first), values.size)
    return values[bounds[:-1]], bounds


@dataclass(frozen=True, eq=False, init=False)
class HomodyneDataset:
    """Quadrature records (theta_i, x_i) plus provenance metadata.

    The phases are stored as runs, ``_runs = (phases, bounds)``: run k is
    records bounds[k]:bounds[k + 1], all at phases[k], split on the bits so
    that 0.0 and -0.0 keep separate runs that every query matches alike.
    ``sample`` writes one run per group of consecutive schedule entries at
    one reduced phase; the constructor splits the ``thetas`` it is given.
    The per-record array ``thetas`` is derived from the runs on first read,
    bitwise the array the records were made from, and read-only.
    """

    xs: np.ndarray
    seed: int
    state_label: str
    generator: str

    def __init__(self, thetas, xs, seed, state_label, generator=GENERATOR_NAME):
        thetas = np.asarray(thetas, dtype=float)
        xs = np.array(xs, dtype=float)
        if thetas.ndim != 1 or thetas.shape != xs.shape:
            raise InputError("thetas and xs must be matching 1-D arrays")
        self._init(*_split_runs(thetas), xs, seed, state_label, generator)

    @classmethod
    def _adopt(cls, phases, bounds, xs, seed, state_label):
        """A dataset over runs and a float array of records that no one else
        holds, as ``sample`` fills them: validated and frozen in place
        instead of copied."""
        ds = object.__new__(cls)
        ds._init(phases, bounds, xs, seed, state_label, GENERATOR_NAME)
        return ds

    def _init(self, phases, bounds, xs, seed, state_label, generator):
        if not np.all(np.isfinite(xs)):
            raise InputError("quadrature values must be finite")
        if phases.size and (
            not np.all(np.isfinite(phases))
            or phases.min() < 0.0
            or phases.max() >= math.pi
        ):
            raise InputError("phases must lie in [0, pi)")
        for array in (phases, bounds, xs):
            array.setflags(write=False)
        # frozen: the fields are set once, past the dataclass __setattr__
        self.__dict__.update(
            xs=xs, seed=seed, state_label=state_label, generator=generator, _runs=(phases, bounds)
        )

    @cached_property
    def thetas(self) -> np.ndarray:
        """Each record's phase, read-only: the runs' phases repeated over
        their lengths, built on first read."""
        phases, bounds = self._runs
        thetas = np.repeat(phases, np.diff(bounds))
        thetas.setflags(write=False)
        return thetas

    @property
    def n_records(self) -> int:
        return self.xs.size

    def _match(self, phase):
        """(hit, mirrored): the runs whose phase lies within PHASE_TOL of any
        real phase on the pi-circle (``tomography._nearest_phase``), and
        whether X is mirrored there."""
        phases, _ = self._runs
        if not phases.size:
            return np.empty(0, dtype=np.intp), False
        _, mirrored, gaps = _nearest_phase(phases, phase)
        return (gaps <= PHASE_TOL).nonzero()[0], mirrored

    def _stored_values(self, hit):
        """The records of the runs ``hit``, in record order; one run, as
        ``sample`` writes a phase, is a slice of ``xs``."""
        phases, bounds = self._runs
        if hit.size == 1:
            return self.xs[bounds[hit[0]]:bounds[hit[0] + 1]]
        # no run matches, or several do: a phase stored in several runs, or
        # distinct stored phases within the tolerance
        hit_flags = np.zeros(phases.size, dtype=bool)
        hit_flags[hit] = True
        return self.xs[np.repeat(hit_flags, np.diff(bounds))]

    def values_at(self, phase: float) -> np.ndarray:
        """The records that answer any real phase, in record order and
        negated where X is mirrored, as a read-only array.  An unmirrored
        phase held in one run, as ``sample`` writes them, is read in place."""
        hit, mirrored = self._match(phase)
        values = self._stored_values(hit)
        if mirrored:
            values = -values
        values.setflags(write=False)
        return values

    @cached_property
    def _run_moments(self):
        """(mean, var, m4, n) of the unmirrored records of each matched run
        set, keyed by its run indices; filled by ``_moments_at``."""
        return {}

    def _moments_at(self, phase):
        """(mean, var, m4, n) of the records that answer ``phase``: the mean
        and unbiased variance, the fourth central moment and the count.

        Each run set's moments are computed once.  A mirrored phase negates
        the mean only, which is bitwise the moments of the negated records:
        mean(-v) = -mean(v), and the centred squares are unchanged.  Fewer
        than MIN_SAMPLES records raise InputError on every call.
        """
        hit, mirrored = self._match(phase)
        _, bounds = self._runs
        n = int((bounds[hit + 1] - bounds[hit]).sum())
        if n < MIN_SAMPLES:
            raise InputError(
                f"need at least {MIN_SAMPLES} records at phase {float(phase):.6g}, got {n}"
            )
        key = tuple(hit.tolist())
        moments = self._run_moments.get(key)
        if moments is None:
            values = self._stored_values(hit)
            mean = float(values.mean())
            squared = values - mean
            squared *= squared
            # bitwise values.var(ddof=1): numpy sums the same squares
            var = float(squared.sum() / (n - 1))
            squared *= squared
            moments = self._run_moments[key] = (mean, var, float(squared.mean()), n)
        if mirrored:
            mean, var, m4, n = moments
            return -mean, var, m4, n
        return moments


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean/variance at one phase with delta-method standard errors."""

    mean: float
    variance: float
    phase: float
    count: int
    mean_stderr: float
    variance_stderr: float


def _tabulated_cdf(state: State, phases):
    """(cdf, xs): the normalised CDF of each phase's row, shape
    (len(phases), CDF_POINTS), over one grid xs of CDF_POINTS knots spanning
    the state's window; the rows come from one ``_state_rows`` call."""
    half = grid_halfwidth(state)
    xs = np.linspace(-half, half, CDF_POINTS)
    rows = _state_rows(state, phases, xs)
    dx = xs[1] - xs[0]
    cdf = np.zeros(rows.shape)
    np.cumsum(0.5 * (rows[:, 1:] + rows[:, :-1]) * dx, axis=1, out=cdf[:, 1:])
    total = cdf[:, -1:].copy()
    if np.any(total <= 0.0):
        raise InputError("density row has no mass; cannot sample")
    cdf /= total
    # the tiny ramp lifts the flat left tail; near 1 its steps fall below
    # ulp(1), so the right tail keeps plateaus of equal knots.  The lookup
    # needs only cdf[0] = 0, cdf[-1] = 1 and a non-decreasing table: a draw
    # u < 1 always lies in an interval cdf[j] <= u < cdf[j + 1].  Rows are
    # >= 0, so the cumsum, the division by a positive total and the added
    # increasing ramp are each non-decreasing under rounding
    cdf += np.arange(CDF_POINTS) * (1e-15 / CDF_POINTS)
    cdf /= cdf[:, -1:].copy()
    return cdf, xs


def _guide_table(cdf, bins):
    """guide[k] = the last knot i with cdf[i] <= k / bins, for k = 0..bins,
    i.e. ``searchsorted(cdf, arange(bins + 1) / bins, side="right") - 1``,
    from one counting pass over the knots.

    bins is a power of two, so cdf[i] * bins is exact and cdf[i] <= k / bins
    exactly when ceil(cdf[i] * bins) <= k; cdf lies in [0, 1], so the counts
    have bins + 1 entries.
    """
    return np.cumsum(np.bincount(np.ceil(cdf * bins).astype(np.intp), minlength=bins + 1)) - 1


def _inverse_cdf(cdf, xs):
    """The inverse of one CDF row by guide-table lookup: a function that
    overwrites draws u in [0, 1) with ``np.interp(u, cdf, xs)``, bit for bit.

    Bin k of B equal bins of [0, 1) (B a power of two, so k / B <= u is exact
    for k = floor(u * B)) starts in knot interval guide[k].  A bin that spans at
    most one knot settles j with one comparison against cdf[guide[k] + 1];
    a wider bin, always in the tails, starts at -2 instead, so its draws come
    out with j < 0 and take a binary search.  The interval j then gives
    numpy's own formula slope[j] * (u - cdf[j]) + xs[j].
    Its slopes are finite, since cdf[j] < cdf[j + 1], so a draw equal to a
    knot gives xs[j] exactly, as np.interp's special case does.  The tables
    are built once per row, however many draws it inverts.
    """
    bins = 2 * (CDF_POINTS - 1)
    guide = _guide_table(cdf, bins)
    # for k < bins, k / bins < cdf[-1] = 1, so guide[k] + 1 is a knot
    upper = cdf[guide[:-1] + 1]
    start = np.where(np.diff(guide) > 1, -2, guide[:-1])
    with np.errstate(divide="ignore"):  # plateau intervals are never used
        slopes = np.diff(xs) / np.diff(cdf)

    def invert(u):
        k = (u * bins).astype(np.intp)
        j = start.take(k)
        j += u >= upper.take(k)
        wide = j < 0
        if wide.any():
            j[wide] = np.searchsorted(cdf, u[wide], side="right") - 1
        u -= cdf.take(j)
        u *= slopes.take(j)
        u += xs.take(j)

    return invert


def sample(state: State, phase_schedule, seed: int) -> HomodyneDataset:
    """Draw quadrature samples for each (phase, count) entry of the schedule.

    Deterministic: the seed and schedule fully determine the dataset.  The
    CDFs of the schedule's distinct reduced phases are tabulated in one pass
    and each is inverted by guide-table lookup (``_inverse_cdf``, bitwise
    ``np.interp``), straight into the dataset's records; entries at one
    reduced phase share its table, and nothing is kept between calls.  A
    phase outside [0, pi) (any finite phase below MAX_PHASE in magnitude) is
    reduced mod pi: its records are stored at the reduced phase, with the
    drawn values negated where the reduction mirrors the X axis.  Counts and
    the seed may be any integers (numpy's included) but bools.
    """
    seed_value = _integer(seed)
    if seed_value is None or seed_value < 0:
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
        reduced, mirrored = wrap_phase(phase)
        n = _integer(count)
        if n is None or n < 1:
            raise InputError(f"sample count must be a positive integer, got {count!r}")
        parsed.append((reduced, mirrored, n))

    # entries at one reduced phase share a row
    entry_phases = np.array([phase for phase, _, _ in parsed])
    distinct, row_of = np.unique(entry_phases, return_inverse=True)
    cdf, xs = _tabulated_cdf(state, distinct)
    inverses = [_inverse_cdf(row, xs) for row in cdf]
    children = np.random.SeedSequence(seed_value).spawn(len(parsed))
    starts = list(accumulate((count for _, _, count in parsed), initial=0))
    values = np.empty(starts[-1])
    for (_, mirrored, count), lo, row, child in zip(parsed, starts, row_of.tolist(), children):
        drawn = values[lo:lo + count]
        np.random.Generator(np.random.PCG64(child)).random(out=drawn)
        inverses[row](drawn)
        if mirrored:
            np.negative(drawn, out=drawn)
    # consecutive entries at one reduced phase make one run of records
    phases, first_entries = _split_runs(entry_phases)
    bounds = np.array(starts)[first_entries]
    return HomodyneDataset._adopt(phases, bounds, values, seed_value, state_label(state))


def estimate_moments(ds: HomodyneDataset, phase: float) -> MomentEstimate:
    """Sample mean and unbiased variance at one phase, with standard errors.

    SE(mean) = s/sqrt(N); SE(variance) from the fourth-moment formula
    Var(s^2) ~= (m4 - s^4 (N-3)/(N-1)) / N.  Any phase is read through the
    parity rule: theta + pi holds the records of theta with the mean negated.
    The dataset computes each set of matching runs' moments once.
    """
    mean, var, m4, n = ds._moments_at(phase)
    var_of_var = max(0.0, (m4 - var * var * (n - 3) / (n - 1)) / n)
    return MomentEstimate(
        mean=mean,
        variance=var,
        phase=float(phase),
        count=n,
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
    other = phase + math.pi / 2.0
    e1 = estimate_moments(ds1, phase)
    e1_rot = estimate_moments(ds1, other)
    # xs first: datasets with different records never build their thetas
    same = ds2 is ds1 or (
        np.array_equal(ds1.xs, ds2.xs) and np.array_equal(ds1.thetas, ds2.thetas)
    )
    if same:
        e2, e2_rot = e1, e1_rot
    else:
        e2 = estimate_moments(ds2, phase)
        e2_rot = estimate_moments(ds2, other)
    lhs = 0.5 * (e1.variance * e2_rot.variance) + 0.5 * (e2.variance * e1_rot.variance)
    grad_sq = (
        (0.5 * e2_rot.variance * e1.variance_stderr) ** 2
        + (0.5 * e1.variance * e2_rot.variance_stderr) ** 2
        + (0.5 * e1_rot.variance * e2.variance_stderr) ** 2
        + (0.5 * e2.variance * e1_rot.variance_stderr) ** 2
    )
    # on equal records each estimate's two equal gradient terms add before squaring
    stderr = math.sqrt(2.0 * grad_sq if same else grad_sq)
    return _report("trifonov", phase, lhs, 3.0 * stderr, stderr)


# --------------------------------------------------------------------------
# CSV persistence (metadata goes to a JSON sidecar next to the CSV)
# --------------------------------------------------------------------------

def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_dataset_csv(ds: HomodyneDataset, path):
    """Write "theta,x" records and the JSON metadata sidecar.  Each run of
    the dataset (``HomodyneDataset._runs``, split on the bits) shares one
    line template with its phase formatted in, so every record keeps its own
    phase, -0.0 included.  Records are written in blocks of
    ``CSV_BLOCK_LINES``, each one C-level ``%`` of the joined templates of
    the runs it covers, so a short run costs no slice or write of its own."""
    phases, bounds = ds._runs
    lines = [f"{theta:.17g},%.17g\n" for theta in phases.tolist()]
    ends = bounds[1:].tolist()
    n = ds.n_records
    run = 0
    with open(path, "w") as fh:
        fh.write("theta,x\n")
        for lo in range(0, n, CSV_BLOCK_LINES):
            hi = min(lo + CSV_BLOCK_LINES, n)
            block = tuple(ds.xs[lo:hi].tolist())
            template = []
            while lo < hi:
                end = min(ends[run], hi)
                template.append(lines[run] * (end - lo))
                if end == ends[run]:
                    run += 1
                lo = end
            fh.write("".join(template) % block)
    meta = {"seed": ds.seed, "state_label": ds.state_label, "generator": ds.generator}
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_dataset_csv(path) -> HomodyneDataset:
    data = _read_csv(path, "theta,x", "dataset")
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
