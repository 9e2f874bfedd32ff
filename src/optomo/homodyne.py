"""Simulated homodyne detection: seeded quadrature sampling and estimation.

A Gaussian state's quadrature at each phase is exactly normal, so its
samples are drawn in closed form: sigma(theta) * z + mean(theta), z the
entry's standard normal draws, with the mean and variance of the state's
mean vector and covariance at that phase; no table is built.  Every other
state (Fock superpositions, and every mixture, Gaussian components included)
is sampled by inverse-CDF lookup on a finely tabulated tomogram row (4097
points over the 8-sigma window keeps the CDF interpolation error well under
1e-4 in probability).  Each ``sample`` call tabulates the rows that its
schedule's entries share in one batched row evaluation, and builds each
row's lookup once, just before the entries that use it, and drops it before
the next.  The lookup is a guide table (Chen & Asau 1974; Devroye
1986, sec. III.2.4): the uniform draw's bin among 2 * (CDF_POINTS - 1) equal
bins of [0, 1) names the knot interval, so each shot costs a few array reads
instead of a binary search, and the result is bitwise what ``np.interp``
gives.  Draws are inverted in place in blocks of INVERT_BLOCK through scratch
buffers kept with the lookup, so apart from the records a ``sample`` call's
memory does not grow with the shot count.  A schedule phase outside [0, pi)
is reduced through the parity rule w(X, theta + pi) = w(-X, theta): a shot x
at theta + pi is the record (theta, -x), so its records are drawn and stored
at the reduced phase.  Entries whose reduced phases lie within PHASE_TOL of
each other on the pi-circle (0.3 and 0.3 + pi, which reduces to 0.2999999999999998;
0 and pi - 1e-12) share one row, at the first such entry's phase.  The RNG is
numpy's SFC64 seeded through SeedSequence, with one spawned child stream per schedule
entry, so a (state, schedule, seed) triple reproduces the dataset bit for
bit; SFC64 replaced PCG64 because its normal draws cost less (README
"Performance").  A dataset stores its phases as runs of records at one
phase, as ``sample`` writes them (one run per group of consecutive entries
that share a row), and derives the per-record ``thetas`` only when it is
read; queries, moments and the CSV writer work on the runs.  A dataset
computes the moments of each set of matching runs once and keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from pathlib import Path

import numpy as np

from .errors import InputError
from .inequalities import InequalityReport, _report, _trifonov_product
from .states import (
    _MAX_COUNT,
    GaussianState,
    State,
    _as_points,
    _finite_real,
    _integer,
    _mean_and_covariance,
    _read_json,
    _rotated_moments,
    _write_json,
    grid_halfwidth,
    state_label,
)
from .tomography import (
    PHASE_TOL,
    _PHASE_RULE,
    _csv_fields,
    _nearest_phase,
    _read_csv,
    _state_rows,
    _write_csv,
    wrap_phase,
)

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

GENERATOR_NAME = "numpy-SFC64(SeedSequence-spawn-per-phase)"
MIN_SAMPLES = 30
STDERR_SIGMAS = 3.0  # the dataset check allows this many standard errors
CDF_POINTS = 4097  # CDF_POINTS - 1 must be a power of two: see _inverse_cdf
# draws per block of _inverse_cdf, whose scratch buffers take ~200 KB: on
# 20k draws, 1024-draw blocks took 2.1x as long as 8192-draw ones, and one
# 32768-draw block saved another 10-14 % at four times the memory
INVERT_BLOCK = 8192


def _provenance(seed, state_label, generator):
    """(seed as an int, state_label, generator) if the seed is an integer and both texts are strings."""
    seed_value = _integer(seed)
    if seed_value is None:
        raise InputError(f"seed must be an integer, got {seed!r}")
    for name, text in (("state_label", state_label), ("generator", generator)):
        if not isinstance(text, str):
            raise InputError(f"{name} must be a string, got {text!r}")
    return seed_value, state_label, generator


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
    ``sample`` writes one run per group of consecutive schedule entries that
    share a row; the constructor splits the ``thetas`` it is given.
    The per-record array ``thetas`` is derived from the runs on first read,
    bitwise the array the records were made from, and read-only.
    """

    xs: np.ndarray
    seed: int
    state_label: str
    generator: str

    def __init__(self, thetas, xs, seed, state_label, generator=GENERATOR_NAME):
        thetas = _as_points(thetas, "phases", _PHASE_RULE)
        xs = _as_points(xs, "quadrature values", "be finite").copy()
        if thetas.ndim != 1 or thetas.shape != xs.shape:
            raise InputError("thetas and xs must be matching 1-D arrays")
        phases, bounds = _split_runs(thetas)
        if phases.size and (phases.min() < 0.0 or phases.max() >= math.pi):
            raise InputError(f"phases must {_PHASE_RULE}")
        self._init(phases, bounds, xs, *_provenance(seed, state_label, generator))

    @classmethod
    def _adopt(cls, phases, bounds, xs, seed, state_label):
        """A dataset over checked runs, records and provenance, as ``sample`` makes
        them; no one else holds the records, so they are frozen in place, not copied."""
        ds = object.__new__(cls)
        ds._init(phases, bounds, xs, seed, state_label, GENERATOR_NAME)
        return ds

    def _init(self, phases, bounds, xs, seed, state_label, generator):
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
        whether X is mirrored there.  The phase is checked here, once, even with no runs."""
        reduced, mirrored = wrap_phase(phase)
        phases, _ = self._runs
        if not phases.size:
            return np.empty(0, dtype=np.intp), mirrored
        _, mirrored, gaps = _nearest_phase(phases, reduced, mirrored)
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
                f"need at least {MIN_SAMPLES} records at phase {phase:.6g}, got {n}"
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


def _dataset(ds):
    """``ds`` if it is a HomodyneDataset, else an InputError naming its type."""
    if not isinstance(ds, HomodyneDataset):
        raise InputError(f"expected a HomodyneDataset, got {type(ds).__name__}")
    return ds


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
    # the trapezoid increments 0.5 * s * dx and their running sum, in place:
    # multiplying by 0.5, then by dx, rounds as the left-to-right product does
    steps = cdf[:, 1:]
    np.add(rows[:, 1:], rows[:, :-1], out=steps)
    steps *= 0.5
    steps *= dx
    np.cumsum(steps, axis=1, out=steps)
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

    The draws are inverted in blocks of INVERT_BLOCK through four scratch
    buffers allocated with the tables, so the working memory is the same
    for one draw or millions; each block goes through the same operations,
    in the same order, as one pass over all the draws would.
    """
    bins = 2 * (CDF_POINTS - 1)
    guide = _guide_table(cdf, bins)
    # for k < bins, k / bins < cdf[-1] = 1, so guide[k] + 1 is a knot
    upper = cdf[guide[:-1] + 1]
    start = np.where(np.diff(guide) > 1, -2, guide[:-1])
    with np.errstate(divide="ignore"):  # plateau intervals are never used
        slopes = np.diff(xs) / np.diff(cdf)
    bin_buf = np.empty(INVERT_BLOCK, dtype=np.intp)
    knot_buf = np.empty(INVERT_BLOCK, dtype=np.intp)
    value_buf = np.empty(INVERT_BLOCK)
    flag_buf = np.empty(INVERT_BLOCK, dtype=bool)

    def invert(draws):
        for lo in range(0, draws.size, INVERT_BLOCK):
            u = draws[lo:lo + INVERT_BLOCK]
            n = u.size
            k, j, value, flag = bin_buf[:n], knot_buf[:n], value_buf[:n], flag_buf[:n]
            np.multiply(u, bins, out=value)
            np.copyto(k, value, casting="unsafe")  # truncates, as astype does
            # every index is in range, and mode="raise" would copy each
            # output through a temporary of its own
            start.take(k, out=j, mode="wrap")
            upper.take(k, out=value, mode="wrap")
            np.greater_equal(u, value, out=flag)
            j += flag
            np.less(j, 0, out=flag)
            if flag.any():
                j[flag] = np.searchsorted(cdf, u[flag], side="right") - 1
            u -= cdf.take(j, out=value, mode="wrap")
            u *= slopes.take(j, out=value, mode="wrap")
            u += xs.take(j, out=value, mode="wrap")

    return invert


def _table_draw(cdf, xs):
    """draw(generator, out): uniform draws into ``out``, inverted in place
    through the CDF row ``cdf`` over the knots ``xs`` (``_inverse_cdf``)."""
    invert = _inverse_cdf(cdf, xs)

    def draw(generator, out):
        generator.random(out=out)
        invert(out)

    return draw


def _normal_draw(mean, sigma):
    """draw(generator, out): sigma * z + mean in place in ``out``, z the
    generator's standard normal draws; exact, with no table."""

    def draw(generator, out):
        generator.standard_normal(out=out)
        out *= sigma
        out += mean

    return draw


def _row_draws(state, phases):
    """draw_of(k): the draw of the row at phases[k] (reduced phases), as
    ``_normal_draw`` or ``_table_draw`` give it.  A Gaussian state's rows are
    exactly N(mean, variance) at each phase, drawn in closed form; every other
    state's CDF rows are tabulated here in one batched pass, and a row's lookup
    is built only when draw_of(k) is called."""
    if isinstance(state, GaussianState):
        means, variances = _rotated_moments(_mean_and_covariance(state), phases)
        sigmas = np.sqrt(variances)
        return lambda k: _normal_draw(means[k], sigmas[k])
    cdf, xs = _tabulated_cdf(state, phases)
    return lambda k: _table_draw(cdf[k], xs)


def _shared_rows(reduced):
    """(rows, row_of): the increasing phases of the rows that schedule entries
    at the reduced phases ``reduced`` share, and each entry's row.

    An entry within PHASE_TOL of a row's phase on the pi-circle (``_nearest_phase``,
    seam included) shares that row, the nearer if two are, the lower on a tie;
    any other entry opens a row at its own phase.  So a row keeps its first
    entry's reduced phase, rows lie more than PHASE_TOL apart on the circle, and
    theta + pi, which ``wrap_phase`` may reduce to a float beside theta, shares theta's row.
    """
    rows, picked = [reduced[0]], []
    for phase in reduced:
        i, _, gaps = _nearest_phase(np.array(rows), phase)
        if gaps[i] <= PHASE_TOL:
            phase = rows[i]
        else:  # kept increasing, so a tie goes to the lower row
            rows = sorted([*rows, phase])
        picked.append(phase)
    rows = np.array(rows)
    return rows, rows.searchsorted(picked)


def sample(state: State, phase_schedule, seed: int) -> HomodyneDataset:
    """Draw quadrature samples for each (phase, count) entry of the schedule.

    Deterministic: the seed and schedule fully determine the dataset.
    Entries whose reduced phases lie within PHASE_TOL of each other on the pi-circle
    share one row (``_shared_rows``).  Each row gets one draw (``_row_draws``), built
    just before the entries that share it and dropped before the next row's,
    and each entry's draw writes straight into its slice of the records.  A
    Gaussian state's draws are sigma * z + mean from the closed form, with
    no table.  Any other state's CDFs are tabulated in one pass
    and each is inverted by guide-table lookup (``_inverse_cdf``, bitwise
    ``np.interp``) in fixed blocks, so at most one lookup is alive and the
    working memory beside the records stays fixed; nothing is kept between
    calls.  A phase outside [0, pi) (any finite phase below MAX_PHASE in
    magnitude) is reduced mod pi, and its records are drawn and stored at its
    row's phase: by the parity rule a shot x at theta + pi is the record
    (theta, -x), and -x follows the law at theta.  Counts and the seed may be
    any integers (numpy's included) but bools.
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
        reduced, _ = wrap_phase(phase)
        n = _integer(count)
        if n is None or n < 1:
            raise InputError(f"sample count must be a positive integer, got {count!r}")
        parsed.append((reduced, n))

    starts = list(accumulate((count for _, count in parsed), initial=0))
    if starts[-1] > _MAX_COUNT:
        raise InputError(f"{starts[-1]} samples are more than an array can address")
    distinct, row_of = _shared_rows([phase for phase, _ in parsed])
    draw_of = _row_draws(state, distinct)
    children = np.random.SeedSequence(seed_value).spawn(len(parsed))
    values = np.empty(starts[-1])
    # one row's draw at a time, built just before the entries that use it:
    # each entry fills its own slice from its own stream, so the order in
    # which the rows are visited changes no bit
    entries_of = [[] for _ in range(distinct.size)]
    for entry, row in enumerate(row_of.tolist()):
        entries_of[row].append(entry)
    for row, entries in enumerate(entries_of):
        draw = draw_of(row)
        for entry in entries:
            generator = np.random.Generator(np.random.SFC64(children[entry]))
            draw(generator, values[starts[entry]:starts[entry + 1]])
        del draw  # before the next row's lookup is built
    # consecutive entries that share a row make one run of records
    phases, first_entries = _split_runs(distinct[row_of])
    bounds = np.array(starts)[first_entries]
    return HomodyneDataset._adopt(phases, bounds, values, seed_value, state_label(state))


def estimate_moments(ds: HomodyneDataset, phase: float) -> MomentEstimate:
    """Sample mean and unbiased variance at one phase, with standard errors.

    SE(mean) = s/sqrt(N); SE(variance) from the fourth-moment formula
    Var(s^2) ~= (m4 - s^4 (N-3)/(N-1)) / N.  Any phase is read through the
    parity rule: theta + pi holds the records of theta with the mean negated.
    The dataset computes each set of matching runs' moments once.
    """
    mean, var, m4, n = _dataset(ds)._moments_at(phase)  # the one check of the phase
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
    estimates; satisfied means lhs >= 1/4 - STDERR_SIGMAS * stderr.
    """
    phase = _finite_real("phase", phase)
    other = phase + math.pi / 2.0
    e1 = estimate_moments(ds1, phase)
    e1_rot = estimate_moments(ds1, other)
    # xs first: datasets with different records never build their thetas
    same = ds2 is ds1 or (
        np.array_equal(ds1.xs, _dataset(ds2).xs) and np.array_equal(ds1.thetas, ds2.thetas)
    )
    if same:
        e2, e2_rot = e1, e1_rot
    else:
        e2 = estimate_moments(ds2, phase)
        e2_rot = estimate_moments(ds2, other)
    lhs = _trifonov_product(e1.variance, e1_rot.variance, e2.variance, e2_rot.variance)
    grad_sq = (
        (0.5 * e2_rot.variance * e1.variance_stderr) ** 2
        + (0.5 * e1.variance * e2_rot.variance_stderr) ** 2
        + (0.5 * e1_rot.variance * e2.variance_stderr) ** 2
        + (0.5 * e2.variance * e1_rot.variance_stderr) ** 2
    )
    # on equal records each estimate's two equal gradient terms add before squaring
    stderr = math.sqrt(2.0 * grad_sq if same else grad_sq)
    return _report("trifonov", phase, lhs, STDERR_SIGMAS * stderr, stderr)


# --------------------------------------------------------------------------
# CSV persistence (metadata goes to a JSON sidecar next to the CSV)
# --------------------------------------------------------------------------

def _dataset_paths(path):
    """(records, sidecar): the CSV at ``path`` and its JSON metadata, named by the
    CSV's stem and ".json"; a ".json" path, which would be its own sidecar, is refused."""
    records = Path(path)
    if records.suffix == ".json":
        raise InputError(f"{path}: a dataset cannot take the name of its .json metadata sidecar")
    return records, records.parent / (records.stem + ".json")


def save_dataset_csv(ds: HomodyneDataset, path):
    """Write "theta,x" records and the JSON metadata sidecar at ``_dataset_paths``, which
    may refuse the path before anything is written.  Each run of the dataset (``_runs``,
    split on the bits) formats its phase once, so each record keeps its own phase, -0.0 too."""
    _, sidecar = _dataset_paths(path)
    phases, bounds = _dataset(ds)._runs
    prefixes = chain.from_iterable(map(repeat, _csv_fields(phases), np.diff(bounds).tolist()))
    _write_csv(path, "theta,x", prefixes, ds.xs)
    _write_json(sidecar, {"seed": ds.seed, "state_label": ds.state_label, "generator": ds.generator})


def load_dataset_csv(path) -> HomodyneDataset:
    _, meta_path = _dataset_paths(path)
    data = _read_csv(path, "theta,x", "dataset file")
    if data.size and data.shape[1] != 2:
        raise InputError(f"{path}: expected two columns theta,x")
    thetas, xs = data.reshape(-1, 2).T
    seed, label, generator = -1, "unknown", "unknown"
    if meta_path.exists():
        meta = _read_json(meta_path, "metadata sidecar")
        try:
            seed, label, generator = _provenance(
                meta.get("seed", seed), meta.get("state_label", label), meta.get("generator", generator)
            )
        except (AttributeError, InputError) as exc:  # AttributeError: not an object
            raise InputError(f"invalid metadata sidecar {meta_path}: {exc}") from exc
    return HomodyneDataset(thetas, xs, seed, label, generator)
