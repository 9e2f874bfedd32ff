import json
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hyp_st

from optomo import (
    FockSuperposition,
    GaussianState,
    HomodyneDataset,
    InputError,
    MixedState,
    analytic_moments,
    empirical_trifonov,
    estimate_moments,
    fock,
    load_dataset_csv,
    operator_trifonov_lhs,
    sample,
    save_dataset_csv,
    thermal_state,
    uniform_phases,
    vacuum,
)
from optomo import homodyne
from optomo.homodyne import (
    CDF_POINTS,
    INVERT_BLOCK,
    MIN_SAMPLES,
    MomentEstimate,
    _guide_table,
    _inverse_cdf,
    _tabulated_cdf,
)
from optomo.states import MAX_PHASE, _mean_and_covariance, _rotated_moments
from optomo.tomography import CSV_BLOCK_LINES, PHASE_TOL, _state_rows, wrap_phase
from oracles import random_fock, random_gaussian, random_state

S2 = GaussianState(0.0, 0.0, 2.0)
SHALF = GaussianState(0.0, 0.0, 0.5)
HALF_PI = math.pi / 2


def test_identical_inputs_give_bitwise_identical_datasets():
    schedule = [(0.0, 500), (HALF_PI, 500)]
    a = sample(vacuum(), schedule, seed=7)
    b = sample(vacuum(), schedule, seed=7)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.thetas, b.thetas)
    c = sample(vacuum(), schedule, seed=8)
    assert not np.array_equal(a.xs, c.xs)


def test_schedule_validation():
    with pytest.raises(InputError):
        sample(vacuum(), [], seed=1)
    with pytest.raises(InputError):
        sample(vacuum(), [(0.0, 0)], seed=1)
    with pytest.raises(InputError, match="finite"):
        sample(vacuum(), [(math.nan, 10)], seed=1)
    with pytest.raises(InputError, match="MAX_PHASE"):
        sample(vacuum(), [(MAX_PHASE, 10)], seed=1)
    with pytest.raises(InputError):
        sample(vacuum(), [(0.0, 10)], seed=1.5)


def test_a_phase_outside_zero_to_pi_is_drawn_and_stored_at_its_reduced_phase():
    # a shot x at theta + pi is the record (theta, -x), and -x follows the
    # law at theta: the entry's records are its draws at the reduced phase
    state = GaussianState(0.8, -0.5, 2.0)
    for query in (0.4 + math.pi, 0.4 - math.pi, 0.4 + 2 * math.pi, -2.0, 1e6):
        reduced, _ = wrap_phase(query)
        ds = sample(state, [(query, 300), (1.0, 200)], seed=6)
        base = sample(state, [(reduced, 300), (1.0, 200)], seed=6)
        assert np.array_equal(ds.thetas, base.thetas)
        assert np.array_equal(ds.xs, base.xs)


@given(seed=hyp_st.integers(0, 2**32 - 1), phase=hyp_st.floats(0.0, math.pi, exclude_max=True))
def test_inverse_cdf_is_bitwise_np_interp(seed, phase):
    rng = np.random.default_rng(seed)
    (cdf,), xs = _tabulated_cdf(random_state(rng), [phase])
    # 0, every knot below 1 (tail plateaus, exact knot hits, bins spanning
    # many knots), the largest draw below 1 and uniform draws
    u = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], cdf[cdf < 1.0], rng.random(20_000)))
    want = np.interp(u, cdf, xs)
    # some draws fall in bins spanning several knots, whose guide entry is
    # the negative sentinel
    bins = 2 * (CDF_POINTS - 1)
    assert (np.diff(_guide_table(cdf, bins)) > 1)[(u * bins).astype(np.intp)].any()
    _inverse_cdf(cdf, xs)(u)  # in place
    assert np.array_equal(u.view(np.int64), want.view(np.int64))


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    phase=hyp_st.floats(0.0, math.pi, exclude_max=True),
    n_knots=hyp_st.integers(2, 200),
)
def test_guide_table_is_bitwise_searchsorted(seed, phase, n_knots):
    bins = 2 * (CDF_POINTS - 1)
    rng = np.random.default_rng(seed)
    (cdf,), _ = _tabulated_cdf(random_state(rng), [phase])
    # a short table with knots on bin edges k / bins, one ulp off them, inside
    # bins, and in plateaus
    edges = rng.integers(0, bins + 1, size=n_knots) / bins
    knots = np.choose(
        rng.integers(0, 4, size=n_knots),
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), rng.random(n_knots)],
    )
    short = np.concatenate(([0.0], np.sort(knots), [1.0]))
    short = np.maximum.accumulate(np.repeat(short, rng.integers(1, 3, size=short.size)))
    for table in (cdf, short):
        want = np.searchsorted(table, np.arange(bins + 1) / bins, side="right") - 1
        assert np.array_equal(_guide_table(table, bins), want)


def test_sampled_records_are_the_per_entry_draws_in_schedule_order(monkeypatch):
    # counts one short of, at, one past and past twice a block of draws; 0.5
    # recurs non-adjacently and as 0.5 + pi.  0.5 + pi and 2.0 + pi reduce to
    # 0.5 and 2.0 exactly, and -0.0 == 0.0; 0.3 + pi reduces to
    # 0.2999999999999998, within PHASE_TOL of 0.3, so it shares 0.3's row
    block = INVERT_BLOCK
    schedule = [
        (0.5, block + 1),
        (2.0 + math.pi, 1),
        (-0.0, block),
        (0.5 + math.pi, block - 1),
        (2.0, 2 * block + 3),
        (0.0, 60),
        (0.3, 40),
        (0.3 + math.pi, 50),
        (0.5, 1),
    ]
    states = (
        GaussianState(0.3, -0.2, 1.5),
        FockSuperposition((0.5, 0.3j, -0.4, 0.2)),
        MixedState(
            ((0.4, FockSuperposition((0.6, 0.0, 0.8))), (0.6, GaussianState(0.3, -0.2, 1.5)))
        ),
    )
    distinct = np.array([0.0, 0.3, 0.5, 2.0])
    calls = []

    def recording_rows(st, phases, xs):
        calls.append(np.array(phases))
        return _state_rows(st, phases, xs)

    monkeypatch.setattr(homodyne, "_state_rows", recording_rows)
    for state in states:
        calls.clear()
        ds = sample(state, schedule, seed=11)
        if isinstance(state, GaussianState):
            # drawn in closed form: no row is tabulated
            assert not calls
            means, variances = _rotated_moments(_mean_and_covariance(state), distinct)

            def draws(row, generator, count):
                return generator.standard_normal(count) * math.sqrt(variances[row]) + means[row]
        else:
            # one row per distinct reduced phase: theta and theta + pi share one
            assert len(calls) == 1 and np.array_equal(calls[0], distinct)
            cdf, grid = _tabulated_cdf(state, distinct)

            def draws(row, generator, count):
                return np.interp(generator.random(count), cdf[row], grid)

        children = np.random.SeedSequence(11).spawn(len(schedule))
        thetas, xs = [], []
        for (phase, count), child in zip(schedule, children):
            reduced, _ = wrap_phase(phase)
            row = np.flatnonzero(np.abs(distinct - reduced) <= PHASE_TOL)[0]
            xs.append(draws(row, np.random.Generator(np.random.SFC64(child)), count))
            thetas.append(np.full(count, distinct[row]))
        assert np.array_equal(ds.thetas.view(np.int64), np.concatenate(thetas).view(np.int64))
        assert np.array_equal(ds.xs.view(np.int64), np.concatenate(xs).view(np.int64))
        assert not ds.thetas.flags.writeable and not ds.xs.flags.writeable
        # 0.3 and 0.3 + pi are one run, read in place
        phases, bounds = ds._runs
        assert phases.tolist() == [0.5, 2.0, 0.0, 0.5, 2.0, 0.0, 0.3, 0.5]
        assert bounds[7] - bounds[6] == 90
        assert ds.values_at(0.3).base is ds.xs


def _normal_ks_distance(values, mean, variance):
    """The Kolmogorov-Smirnov distance of ``values`` from N(mean, variance)."""
    scale = math.sqrt(2.0 * variance)
    cdf = np.array([0.5 * (1.0 + math.erf((x - mean) / scale)) for x in np.sort(values)])
    n = cdf.size
    return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))


@pytest.mark.parametrize(
    "state, seed",
    [(GaussianState(0.8, -0.5, 2.0), 17), (GaussianState(-1.2, 0.4, 0.3), 18), (vacuum(), 19)],
    ids=["displaced-squeezed", "displaced-antisqueezed", "vacuum"],
)
def test_gaussian_records_follow_the_exact_normal_law(state, seed):
    # phases across [0, pi), a theta + pi entry and a phase just below pi,
    # which shares the row at 0 across the seam: both answer 2n records
    below_pi = np.nextafter(math.pi, 0.0)
    phases = [0.0, 0.7, HALF_PI, 2.6, 1.9 + math.pi, below_pi]
    n = 20_000
    ds = sample(state, [(phase, n) for phase in phases], seed=seed)
    critical = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) / math.sqrt(n)  # KS at alpha = 1e-3
    for phase in phases:
        want = analytic_moments(state, phase)
        values = ds.values_at(phase)
        assert values.size == (2 * n if phase in (0.0, below_pi) else n)
        assert _normal_ks_distance(values, want.mean, want.variance) < critical, phase


def _ks_distance(cdf_values):
    """The Kolmogorov-Smirnov distance of a sample whose sorted values have
    the model CDF values ``cdf_values`` from that model."""
    n = cdf_values.size
    return max(np.max(np.arange(1, n + 1) / n - cdf_values), np.max(cdf_values - np.arange(n) / n))


@pytest.mark.parametrize(
    "state, seed",
    [
        (FockSuperposition((0.5, 0.3j, -0.4, 0.2)), 23),
        (
            MixedState(
                ((0.4, FockSuperposition((0.6, 0.0, 0.8))), (0.6, GaussianState(0.3, -0.2, 1.5)))
            ),
            24,
        ),
    ],
    ids=["fock-superposition", "fock+gaussian"],
)
def test_table_records_follow_their_tabulated_law(state, seed):
    # the uniform stream and the guide-table inversion together: each run's
    # records against the CDF row it was drawn from, linear between knots
    phases = [0.0, 0.7, HALF_PI, 2.6, 1.9 + math.pi, np.nextafter(math.pi, 0.0)]
    n = 20_000
    ds = sample(state, [(phase, n) for phase in phases], seed=seed)
    stored, bounds = ds._runs
    assert np.array_equal(np.diff(bounds), np.full(len(phases), n))
    cdf, xs = _tabulated_cdf(state, stored)
    critical = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) / math.sqrt(n)  # KS at alpha = 1e-3
    for k, phase in enumerate(stored.tolist()):
        records = np.sort(ds.xs[bounds[k]:bounds[k + 1]])
        assert _ks_distance(np.interp(records, xs, cdf[k])) < critical, phase


@pytest.mark.parametrize(
    "state",
    [FockSuperposition((0.5, 0.3j, -0.4, 0.2)), GaussianState(0.8, -0.5, 2.0)],
    ids=["fock", "gaussian"],
)
@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_sampling_memory_beside_the_records_does_not_grow_with_the_shots(n, state):
    sample(state, [(0.3, 10), (1.2, 10)], 5)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        ds = sample(state, [(0.3, n), (1.2, n)], 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - ds.xs.nbytes < 2_000_000


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    phases=hyp_st.lists(hyp_st.floats(0.0, math.pi, exclude_max=True), min_size=1, max_size=5),
)
def test_batched_cdf_rows_match_the_single_phase_tables(seed, phases):
    state = random_state(np.random.default_rng(seed))
    cdf, xs = _tabulated_cdf(state, phases)
    assert cdf.shape == (len(phases), CDF_POINTS)
    for phase, row in zip(phases, cdf):
        (want,), want_xs = _tabulated_cdf(state, [phase])
        assert np.array_equal(xs, want_xs)
        assert row[0] == 0.0 and row[-1] == 1.0 and np.all(np.diff(row) >= 0.0)
        if isinstance(state, GaussianState):
            assert np.array_equal(row.view(np.int64), want.view(np.int64))
        else:
            # the batched matrix product may round differently in the last bit
            assert np.max(np.abs(row - want)) <= 1e-15


_TABLE_STATES = {
    "fock": random_fock,
    "gaussian": random_gaussian,
    "fock+gaussian": lambda rng: MixedState(
        ((0.4, random_fock(rng)), (0.6, random_gaussian(rng)))
    ),
    "thermal": lambda rng: thermal_state(1.0),
}


@pytest.mark.parametrize("kind", list(_TABLE_STATES))
@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    phases=hyp_st.lists(hyp_st.floats(-7.0, 7.0), min_size=1, max_size=4),
)
def test_cdf_tables_are_monotone_without_a_running_maximum(kind, seed, phases):
    # phases outside [0, pi) give mirrored rows
    cdf, _ = _tabulated_cdf(_TABLE_STATES[kind](np.random.default_rng(seed)), phases)
    assert np.all(cdf[:, 0] == 0.0) and np.all(cdf[:, -1] == 1.0)
    assert np.all(np.diff(cdf, axis=1) >= 0.0)


def test_entries_within_phase_tol_share_one_row_at_the_first_phase():
    # a row keeps its first entry's phase; 1.0 + 1.8e-9 is farther than
    # PHASE_TOL from the row at 1.0, and 0.0 shares the row at below_pi
    # across the seam at 0 = pi
    below_pi = np.nextafter(math.pi, 0.0)
    reduced = [wrap_phase(0.3 + math.pi)[0], 0.3, 1.0, 1.0 + 0.9e-9, 1.0 + 1.8e-9, below_pi, 0.0]
    rows, row_of = homodyne._shared_rows(reduced)
    assert reduced[0] == 0.2999999999999998
    assert rows.tolist() == [reduced[0], 1.0, 1.0 + 1.8e-9, below_pi]
    assert row_of.tolist() == [0, 0, 1, 1, 2, 3, 3]
    ds = sample(fock(1), [(0.3 + math.pi, 40), (0.3, 50), (0.3 - 1e-10, 60), (0.0, 40)], seed=3)
    phases, bounds = ds._runs
    assert phases.tolist() == [reduced[0], 0.0] and bounds.tolist() == [0, 150, 190]
    assert estimate_moments(ds, 0.3).count == estimate_moments(ds, 0.3 + math.pi).count == 150


def test_consecutive_entries_at_one_reduced_phase_make_one_run():
    # 0.5 + pi reduces to 0.5 exactly, and -0.0 is stored as 0.0
    schedule = [(0.5, 100), (0.5 + math.pi, 50), (2.0, 30), (2.0, 20), (0.5, 10), (-0.0, 5), (0.0, 7)]
    ds = sample(FockSuperposition((0.5, 0.3j, -0.4, 0.2)), schedule, seed=4)
    phases, bounds = ds._runs
    assert phases.tolist() == [0.5, 2.0, 0.5, 0.0] and not np.signbit(phases).any()
    assert bounds.tolist() == [0, 150, 200, 210, 222]
    assert "thetas" not in vars(ds)  # built on first read only
    want = np.concatenate([np.full(count, wrap_phase(phase)[0]) for phase, count in schedule])
    assert np.array_equal(ds.thetas.view(np.int64), want.view(np.int64))
    assert not ds.thetas.flags.writeable


def test_the_sampling_path_never_builds_thetas(tmp_path):
    schedule = [(0.3, 400), (0.3 + HALF_PI, 400)]
    ds = sample(GaussianState(0.2, 0.1, 1.5), schedule, seed=5)
    other = sample(GaussianState(0.2, 0.1, 1.5), schedule, seed=6)
    for phase, _ in schedule:
        estimate_moments(ds, phase)
        estimate_moments(ds, phase + math.pi)
    empirical_trifonov(ds, ds, 0.3)
    empirical_trifonov(ds, other, 0.3)
    save_dataset_csv(ds, tmp_path / "d.csv")
    assert "thetas" not in vars(ds) and "thetas" not in vars(other)


@pytest.mark.parametrize("to_numpy", [np.int64, np.int32])
def test_numpy_integer_counts_and_seeds_are_accepted(to_numpy):
    state = FockSuperposition((0.6, 0.0, 0.8))
    want = sample(state, [(0.3, 100), (1.2, 50)], seed=7)
    got = sample(state, [(0.3, to_numpy(100)), (1.2, to_numpy(50))], seed=to_numpy(7))
    assert np.array_equal(got.thetas.view(np.int64), want.thetas.view(np.int64))
    assert np.array_equal(got.xs.view(np.int64), want.xs.view(np.int64))
    assert type(got.seed) is int and got.seed == 7
    with pytest.raises(InputError, match="sample count"):
        sample(state, [(0.3, True)], seed=7)
    with pytest.raises(InputError, match="seed"):
        sample(state, [(0.3, 100)], seed=True)
    with pytest.raises(InputError, match="seed"):
        sample(state, [(0.3, 100)], seed=to_numpy(-1))


def test_caller_arrays_are_copied_and_stay_writable():
    thetas = np.array([0.1, 0.1, 0.5])
    xs = np.array([1.0, -2.0, 0.5])
    ds = HomodyneDataset(thetas, xs, seed=0, state_label="x")
    assert thetas.flags.writeable and xs.flags.writeable
    assert not np.shares_memory(ds.thetas, thetas) and not np.shares_memory(ds.xs, xs)
    thetas[0], xs[0] = 0.2, 9.0
    assert ds.thetas[0] == 0.1 and ds.xs[0] == 1.0
    assert not ds.thetas.flags.writeable and not ds.xs.flags.writeable


def test_values_at_is_the_phase_mask_in_record_order():
    rng = np.random.default_rng(8)
    close = 0.3 + 0.5 * PHASE_TOL  # a second stored phase matching 0.3
    for stored in ([0.1, 0.5, 1.2], [0.3, close, 2.0]):
        one_run = np.repeat(stored[::-1], 1000)  # as sample writes them
        two_runs = np.tile(np.repeat(stored, 500), 2)
        for thetas in (rng.choice(stored, size=3000), one_run, two_runs):
            ds = HomodyneDataset(thetas, rng.normal(size=3000), seed=0, state_label="x")
            for query in (*stored, 0.3 + 2 * PHASE_TOL, 0.7):
                want = ds.xs[np.abs(ds.thetas - query) <= PHASE_TOL]
                got = ds.values_at(query)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert not got.flags.writeable
                # a phase held in one run is read in place
                single = thetas is one_run and want.size and query not in (0.3, close)
                assert (got.base is ds.xs) == bool(single)
    empty = HomodyneDataset(np.empty(0), np.empty(0), seed=0, state_label="x")
    assert empty.values_at(0.0).size == 0


@given(
    n=hyp_st.integers(1, 6),
    shift=hyp_st.one_of(hyp_st.just(0.0), hyp_st.floats(0.0, 1.0, exclude_max=True)),
    pick=hyp_st.integers(0, 5),
    k=hyp_st.integers(-3, 3),
    delta=hyp_st.floats(-PHASE_TOL / 2, PHASE_TOL / 2),
)
def test_values_at_reads_the_stored_phase_across_half_turns(n, shift, pick, k, delta):
    # shift = 0 puts a stored phase at 0, so delta < 0 crosses the seam
    phases = uniform_phases(n) + shift * (math.pi / n)
    assume(phases[-1] < math.pi)
    ds = sample(GaussianState(0.8, -0.5, 2.0), [(p, 40) for p in phases], seed=3)
    s = pick % n
    stored = ds.xs[ds.thetas == phases[s]]
    want = -stored if k % 2 else stored
    got = ds.values_at(phases[s] + k * math.pi + delta)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not got.flags.writeable
    assert ds.values_at(phases[s] + math.pi / (2 * n) + k * math.pi).size == 0


_BASES = (0.0, 0.4, HALF_PI, 2.9)


@given(
    entries=hyp_st.lists(
        hyp_st.tuples(
            hyp_st.sampled_from(_BASES),
            hyp_st.integers(-2, 2),
            hyp_st.floats(-0.45 * PHASE_TOL, 0.45 * PHASE_TOL),
            hyp_st.integers(MIN_SAMPLES, 60),
        ),
        min_size=1,
        max_size=6,
    )
)
@example(entries=[(0.0, 0, 0.0, 30), (0.0, 1, -1e-10, 30)])
@example(entries=[(0.0, 0, -0.4e-9, 30), (0.4, 0, 0.0, 30), (0.0, -1, 0.4e-9, 30)])
def test_schedule_entries_of_one_direction_share_their_rows(entries):
    # entries spread over 0.9 PHASE_TOL around a base phase, k half turns on
    # and across the seam at 0 = pi, answer one query together
    schedule = [(base + k * math.pi + jitter, count) for base, k, jitter, count in entries]
    ds = sample(vacuum(), schedule, seed=2)
    stored = np.unique(ds._runs[0])
    gaps = np.abs(stored[:, None] - stored)
    circle = np.minimum(gaps, math.pi - gaps)[~np.eye(stored.size, dtype=bool)]
    assert np.all(circle > PHASE_TOL), stored
    for (base, _, _, _), (phase, _) in zip(entries, schedule):
        want = sum(count for b, _, _, count in entries if b == base)
        assert estimate_moments(ds, phase).count == want, (phase, stored)


def test_dataset_phases_just_below_a_stored_phase_read_it():
    ds = sample(GaussianState(0.8, -0.5, 2.0), [(0.0, 400), (HALF_PI, 400)], seed=5)
    for phase, stored in ((-1e-12, 0.0), (1.5707963267, HALF_PI)):
        assert estimate_moments(ds, phase) == replace(estimate_moments(ds, stored), phase=phase)
        report = empirical_trifonov(ds, ds, phase)
        assert report == replace(empirical_trifonov(ds, ds, stored), phase=phase)


def _record_estimate(values, phase):
    """estimate_moments computed from explicit records with numpy's own
    mean and var, one pass per call."""
    n = values.size
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    squared = (values - mean) ** 2
    m4 = float(np.mean(squared * squared))
    var_of_var = max(0.0, (m4 - var * var * (n - 3) / (n - 1)) / n)
    return MomentEstimate(mean, var, float(phase), n, math.sqrt(var / n), math.sqrt(var_of_var))


def _bits(estimate):
    return [float(v).hex() for v in astuple(estimate)]


# a phase held in one run (as sample writes it), a phase stored in two runs,
# and a phase near two stored phases (0.3 and 0.3 + PHASE_TOL / 2)
_CLOSE = 0.3 + 0.5 * PHASE_TOL
_RUN_DATASETS = (
    (np.repeat([1.2, 0.3, 2.0], 200), (1.2, 0.3, 2.0)),
    (np.tile(np.repeat([0.3, 1.2], 100), 2), (0.3, 1.2)),
    (np.repeat([0.3, _CLOSE, 2.0], 200), (0.3, _CLOSE, 2.0)),
)


def _queries(stored):
    # every stored phase, mirrored (+ pi, - pi), 1e-13 off it, and 0.6
    # PHASE_TOL below it: 0.3 - 0.6 PHASE_TOL matches 0.3 but not _CLOSE
    return [
        q
        for p in stored
        for q in (p, p + math.pi, p - math.pi, p + 1e-13 * (-1) ** int(p), p - 0.6 * PHASE_TOL)
    ]


def test_estimates_are_the_record_formulas_on_every_path():
    rng = np.random.default_rng(17)
    for thetas, stored in _RUN_DATASETS:
        ds = HomodyneDataset(thetas, rng.normal(0.4, 1.3, size=thetas.size), seed=0, state_label="x")
        for query in _queries(stored) * 2:  # the second pass reads kept moments
            want = _record_estimate(ds.values_at(query), query)
            assert _bits(estimate_moments(ds, query)) == _bits(want)
        # the mask path runs once per matched run set, not once per query
        assert len(ds._run_moments) == len(stored)


@given(order=hyp_st.permutations(range(15)), pick=hyp_st.integers(0, 2))
def test_estimates_do_not_depend_on_the_call_order(order, pick):
    thetas, stored = _RUN_DATASETS[pick]
    xs = np.random.default_rng(pick).normal(-0.2, 0.8, size=thetas.size)
    ds = HomodyneDataset(thetas, xs, seed=0, state_label="x")
    queries = _queries(stored)
    for i in order:
        query = queries[i % len(queries)]
        fresh = HomodyneDataset(thetas, xs, seed=0, state_label="x")
        assert _bits(estimate_moments(ds, query)) == _bits(estimate_moments(fresh, query))


def test_several_matched_runs_read_the_records_of_their_phases():
    rng = np.random.default_rng(23)
    stored = [0.3, _CLOSE, 1.2]
    # interleaved records, and each phase in two runs
    for thetas in (rng.choice(stored, size=3000), np.tile(np.repeat(stored, 500), 2)):
        xs = rng.normal(0.4, 1.3, size=thetas.size)
        ds = HomodyneDataset(thetas, xs, seed=0, state_label="x")
        for query, matched in (
            (0.3, [0.3, _CLOSE]),
            (0.3 + math.pi, [0.3, _CLOSE]),
            (1.2, [1.2]),
            (1.2 - math.pi, [1.2]),
            (0.7, []),
        ):
            want = xs[np.isin(thetas, matched)]
            if wrap_phase(query)[1]:
                want = -want
            assert np.array_equal(ds.values_at(query).view(np.int64), want.view(np.int64))
            if matched:
                assert _bits(estimate_moments(ds, query)) == _bits(_record_estimate(want, query))
        assert "thetas" not in vars(ds)


def test_a_mirrored_phase_negates_only_the_mean():
    ds = sample(FockSuperposition((0.5, 0.3j, -0.4, 0.2)), [(0.7, 500)], seed=2)
    base = estimate_moments(ds, 0.7)
    for query in (0.7 + math.pi, 0.7 - 3 * math.pi):
        est = estimate_moments(ds, query)
        assert est.mean == -base.mean and est.mean != 0.0
        assert _bits(replace(est, mean=base.mean, phase=0.7)) == _bits(base)
        assert _bits(est) == _bits(_record_estimate(-ds.values_at(0.7), query))


def test_too_few_records_raise_on_every_call():
    ds = HomodyneDataset(np.repeat([0.0, 1.0], [MIN_SAMPLES - 1, 100]), np.arange(129.0), 0, "x")
    for _ in range(2):
        with pytest.raises(InputError, match=f"got {MIN_SAMPLES - 1}"):
            estimate_moments(ds, 0.0)
        with pytest.raises(InputError, match="got 0"):
            estimate_moments(ds, 0.5)
        estimate_moments(ds, 1.0)
        with pytest.raises(InputError, match=f"got {MIN_SAMPLES - 1}"):
            estimate_moments(ds, math.pi)
    assert list(ds._run_moments) == [(1,)]


def test_one_dataset_trifonov_check_is_the_record_formula():
    ds = sample(GaussianState(0.2, 0.1, 1.5), [(0.3, 400), (0.3 + HALF_PI, 400)], seed=5)
    for phase in (0.3, 0.3 + math.pi, 0.3 - HALF_PI):
        e = _record_estimate(ds.values_at(phase), phase)
        e_rot = _record_estimate(ds.values_at(phase + HALF_PI), phase + HALF_PI)
        lhs = 0.5 * (e.variance * e_rot.variance) + 0.5 * (e.variance * e_rot.variance)
        grad_sq = 2 * (0.5 * e_rot.variance * e.variance_stderr) ** 2 + 2 * (
            0.5 * e.variance * e_rot.variance_stderr
        ) ** 2
        rep = empirical_trifonov(ds, ds, phase)
        assert rep.lhs == lhs
        assert rep.stderr == pytest.approx(math.sqrt(2.0 * grad_sq), rel=1e-15)
        assert rep.tolerance == pytest.approx(3.0 * rep.stderr, rel=1e-15)


def test_dataset_invariants():
    with pytest.raises(InputError):
        HomodyneDataset(np.array([0.0, math.pi]), np.array([0.0, 1.0]), 0, "x")
    for bad in (math.nan, math.inf, -math.inf):
        for where in (0, 2, 4):
            xs = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
            xs[where] = bad
            with pytest.raises(InputError, match="^quadrature values must be finite$"):
                HomodyneDataset(np.full(5, 0.3), xs, 0, "x")
    assert HomodyneDataset(np.empty(0), np.empty(0), 0, "x").n_records == 0


def test_vacuum_sample_variance_converges():
    ds = sample(vacuum(), [(0.0, 100_000)], seed=11)
    est = estimate_moments(ds, 0.0)
    assert abs(est.variance - 0.5) <= 3.0 * est.variance_stderr
    assert abs(est.mean - 0.0) <= 3.0 * est.mean_stderr


def test_squeezed_sample_variance_converges():
    ds = sample(S2, [(0.0, 100_000)], seed=12)
    est = estimate_moments(ds, 0.0)
    assert abs(est.variance - 1.0) <= 3.0 * est.variance_stderr


def test_single_photon_histogram_dips_at_the_origin():
    ds = sample(fock(1), [(0.7, 100_000)], seed=13)
    values = ds.values_at(0.7)
    central = np.mean(np.abs(values) < 0.1)
    density = central / 0.2
    assert density < 0.02  # |psi_1|^2 vanishes at the origin
    # and the overall variance is n + 1/2
    est = estimate_moments(ds, 0.7)
    assert abs(est.variance - 1.5) <= 3.0 * est.variance_stderr


def test_minimum_sample_count_is_enforced():
    ds = sample(vacuum(), [(0.0, 29)], seed=1)
    with pytest.raises(InputError, match="got 29"):
        estimate_moments(ds, 0.0)
    ds = sample(vacuum(), [(0.0, 30)], seed=1)
    estimate_moments(ds, 0.0)


def test_variance_estimator_is_unbiased_at_small_n():
    estimates = []
    for seed in range(100):
        ds = sample(vacuum(), [(0.0, 1000)], seed=seed)
        estimates.append(estimate_moments(ds, 0.0).variance)
    assert np.mean(estimates) == pytest.approx(0.5, abs=1e-2)


def test_estimates_tighten_through_the_sample_ladder():
    errors_by_n = {}
    for n in (1_000, 10_000, 100_000):
        errs = []
        for seed in range(5):
            ds = sample(S2, [(0.0, n)], seed=seed)
            est = estimate_moments(ds, 0.0)
            errs.append(abs(est.variance - 1.0))
            assert abs(est.variance - 1.0) <= 3.0 * est.variance_stderr
        errors_by_n[n] = np.median(errs)
    assert errors_by_n[100_000] < errors_by_n[1_000]


def test_empirical_two_state_check_matches_the_closed_form():
    n = 100_000
    ds1 = sample(S2, [(0.0, n), (HALF_PI, n)], seed=21)
    ds2 = sample(SHALF, [(0.0, n), (HALF_PI, n)], seed=22)
    rep = empirical_trifonov(ds1, ds2, 0.0)
    assert rep.stderr is not None and rep.stderr > 0
    assert abs(rep.lhs - 0.53125) <= 3.0 * rep.stderr
    assert rep.satisfied
    assert rep.tolerance == pytest.approx(3.0 * rep.stderr)


@pytest.mark.parametrize("two_datasets", [False, True])
def test_empirical_stderr_covers_the_closed_form(two_datasets):
    # over a fixed seed list, |lhs - closed form| <= 2 stderr must hold about
    # as often as for a normal estimate (95.45 %), within 3 binomial sd
    other = GaussianState(0.3, -0.2, 0.7) if two_datasets else S2
    schedule = [(0.3, 2000), (0.3 + HALF_PI, 2000)]
    truth = operator_trifonov_lhs(S2, other, 0.3)
    seeds = range(200)
    hits = 0
    for seed in seeds:
        ds1 = sample(S2, schedule, seed)
        ds2 = sample(other, schedule, 10_000 + seed) if two_datasets else ds1
        rep = empirical_trifonov(ds1, ds2, 0.3)
        hits += abs(rep.lhs - truth) <= 2.0 * rep.stderr
    p = math.erf(2.0 / math.sqrt(2.0))
    band = 3.0 * math.sqrt(p * (1.0 - p) / len(seeds))
    assert abs(hits / len(seeds) - p) <= band


def test_classical_dataset_violates_the_bound():
    rng = np.random.default_rng(5)
    n = 100_000
    xs = rng.normal(0.0, math.sqrt(0.1), size=2 * n)
    thetas = np.concatenate([np.zeros(n), np.full(n, HALF_PI)])
    ds = HomodyneDataset(thetas, xs, seed=5, state_label="classical-witness")
    rep = empirical_trifonov(ds, ds, 0.0)
    assert rep.lhs == pytest.approx(0.01, abs=2e-3)
    assert not rep.satisfied


def test_one_dataset_on_both_sides_matches_a_separate_copy():
    ds = sample(GaussianState(0.2, 0.1, 1.5), [(0.3, 400), (0.3 + HALF_PI, 400)], seed=5)
    copy = HomodyneDataset(ds.thetas, ds.xs, seed=ds.seed, state_label=ds.state_label)
    for phase in (0.3, 0.3 + math.pi):
        assert empirical_trifonov(ds, ds, phase) == empirical_trifonov(ds, copy, phase)


def test_phase_wrap_reaches_the_partner_phase():
    n = 2_000
    theta = 2.0  # partner 2 + pi/2 wraps to 2 - pi/2
    partner = math.fmod(theta + HALF_PI, math.pi)
    ds = sample(vacuum(), [(theta, n), (partner, n)], seed=3)
    rep = empirical_trifonov(ds, ds, theta)
    assert rep.satisfied


def test_any_phase_reads_the_records_of_its_parity_partner():
    # records at 0.4 and 0.4 + pi/2 answer every phase congruent to them mod pi
    theta = 0.4
    ds = sample(GaussianState(0.8, -0.5, 2.0), [(theta, 500), (theta + HALF_PI, 500)], seed=4)
    base = estimate_moments(ds, theta)
    base_check = empirical_trifonov(ds, ds, theta)
    for k in (-3, -1, 1, 2):
        query = theta + k * math.pi
        est = estimate_moments(ds, query)
        assert est.phase == query
        assert est.mean == (-base.mean if k % 2 else base.mean)
        assert (est.variance, est.count) == (base.variance, base.count)
        assert (est.mean_stderr, est.variance_stderr) == (
            base.mean_stderr, base.variance_stderr
        )
        check = empirical_trifonov(ds, ds, query)
        assert check.phase == query
        assert (check.lhs, check.stderr) == (base_check.lhs, base_check.stderr)


def test_missing_partner_phase_is_an_input_error():
    ds = sample(vacuum(), [(0.0, 1000)], seed=3)
    with pytest.raises(InputError, match="at phase"):
        empirical_trifonov(ds, ds, 0.0)


@given(seed=hyp_st.integers(0, 2**32 - 1))
def test_dataset_csv_round_trip(tmp_path_factory, seed):
    ds = sample(random_state(np.random.default_rng(seed)), [(0.0, 200), (1.1, 100)], seed=9)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_dataset_csv(ds, path)
    assert path.with_suffix(".json").exists()
    again = load_dataset_csv(path)
    assert np.array_equal(again.xs, ds.xs)
    assert np.array_equal(again.thetas, ds.thetas)
    assert again.seed == ds.seed
    assert again.state_label == ds.state_label
    assert again.generator == ds.generator


def test_records_at_both_zero_signs_keep_their_own_prefix(tmp_path):
    # 520 groups of 8 records span several CSV blocks, each ending inside a
    # run (a group's last record joins the next group's first)
    thetas = np.array([0.0, -0.0, -0.0, 1.0, 0.0, -0.0, 1.0, 0.0] * 520)
    assert thetas.size > 2 * CSV_BLOCK_LINES and CSV_BLOCK_LINES % 8 == 0
    xs = np.arange(thetas.size) / 7.0
    ds = HomodyneDataset(thetas, xs, seed=1, state_label="test")
    path = tmp_path / "d.csv"
    save_dataset_csv(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,x"
    assert lines[1:] == [f"{t:.17g},{x:.17g}" for t, x in zip(thetas.tolist(), xs.tolist())]
    again = load_dataset_csv(path)
    assert np.array_equal(again.thetas.view(np.int64), thetas.view(np.int64))
    assert np.array_equal(again.xs, xs)
    # runs split on the bits (7 per block of 8, the last joining the next
    # block's first); a query matches both signs, in record order
    phases, bounds = ds._runs
    assert phases.size == 6 * 520 + 1 and bounds[-1] == thetas.size
    for phase in (0.0, -0.0, math.pi):
        expected = xs[thetas == 0.0]
        assert np.array_equal(ds.values_at(phase), expected if phase < 1 else -expected)
    assert estimate_moments(ds, -0.0).count == estimate_moments(ds, 0.0).count == 6 * 520


def test_runs_spanning_whole_blocks_keep_their_prefix(tmp_path):
    lengths = [2 * CSV_BLOCK_LINES + 3, 1, CSV_BLOCK_LINES, CSV_BLOCK_LINES - 4, 5]
    thetas = np.repeat([0.5, -0.0, 0.0, 3.0, 1e-300], lengths)
    xs = np.arange(thetas.size) * -0.3
    path = tmp_path / "d.csv"
    save_dataset_csv(HomodyneDataset(thetas, xs, seed=1, state_label="test"), path)
    assert path.read_text().splitlines() == ["theta,x"] + [
        f"{t:.17g},{x:.17g}" for t, x in zip(thetas.tolist(), xs.tolist())
    ]


def test_dataset_metadata_content(tmp_path):
    ds = sample(vacuum(), [(0.0, 50)], seed=4)
    path = tmp_path / "d.csv"
    save_dataset_csv(ds, path)
    meta = json.loads((tmp_path / "d.json").read_text())
    assert meta["seed"] == 4
    assert "gaussian" in meta["state_label"]
    assert "SFC64" in meta["generator"]


def test_a_dataset_path_that_is_its_own_sidecar_is_refused(tmp_path):
    ds = sample(vacuum(), [(0.0, 50)], seed=4)
    kept = tmp_path / "kept.json"
    kept.write_text('{"type": "gaussian"}\n')
    for path in (kept, tmp_path / "new.json"):
        with pytest.raises(InputError, match="sidecar"):
            save_dataset_csv(ds, path)
    assert kept.read_text() == '{"type": "gaussian"}\n'
    assert list(tmp_path.iterdir()) == [kept]


def test_negative_seed_is_an_input_error():
    with pytest.raises(InputError, match="non-negative"):
        sample(vacuum(), [(0.0, 40)], seed=-1)


def test_a_dataset_path_that_is_its_own_sidecar_is_refused_on_load(tmp_path):
    # the loader and the writer share one rule for a dataset's two paths
    text = "a dataset cannot take the name of its .json metadata sidecar"
    path = tmp_path / "d.json"
    with pytest.raises(InputError, match=text):
        load_dataset_csv(path)  # no such file: the name alone is refused
    path.write_text("theta,x\n" + "0,0.5\n" * 40)
    with pytest.raises(InputError, match=text):
        load_dataset_csv(path)
    with pytest.raises(InputError, match=text):
        save_dataset_csv(sample(vacuum(), [(0.0, 40)], seed=1), path)
