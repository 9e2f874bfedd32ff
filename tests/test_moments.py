import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hyp_st

from optomo import (
    GaussianState,
    InputError,
    MomentSet,
    NumericalError,
    TomogramGrid,
    TruncationWarning,
    analytic_moments,
    fock,
    gaussian_row,
    heisenberg_lhs,
    moments_from_state,
    row_mean,
    row_variance,
    tomogram_grid,
    tomographic_mean,
    tomographic_moments,
    tomographic_variance,
    trifonov_lhs,
    trifonov_sweep,
    vacuum,
)
from optomo.moments import STATE_ROW_POINTS, _guard_window, _row_moments
from optomo.states import grid_halfwidth
from optomo.tomography import _state_row
from oracles import random_state, trapz_mean, trapz_var


def test_vacuum_mean_is_zero_and_variance_half():
    grid = tomogram_grid(vacuum(), phases=4)
    for theta in grid.phases:
        assert tomographic_mean(grid, float(theta)) == pytest.approx(0.0, abs=1e-10)
        assert tomographic_variance(grid, float(theta)) == pytest.approx(0.5, abs=1e-9)


def test_displaced_state_means_surface_at_the_right_phases():
    grid = tomogram_grid(GaussianState(1.0, 2.0, 1.0), phases=4)
    assert tomographic_mean(grid, 0.0) == pytest.approx(1.0, abs=1e-8)
    assert tomographic_mean(grid, math.pi / 2) == pytest.approx(2.0, abs=1e-8)


def test_fock_two_variance_at_any_phase():
    grid = tomogram_grid(fock(2), phases=4)
    for theta in grid.phases:
        assert tomographic_variance(grid, float(theta)) == pytest.approx(2.5, abs=1e-7)


def test_squeezed_variances_at_the_frame_axes():
    grid = tomogram_grid(GaussianState(0.0, 0.0, 2.0), phases=4)
    assert tomographic_variance(grid, 0.0) == pytest.approx(1.0, abs=1e-8)
    assert tomographic_variance(grid, math.pi / 2) == pytest.approx(0.25, abs=1e-8)


def test_mirrored_phase_negates_mean_and_keeps_variance():
    grid = tomogram_grid(GaussianState(1.5, -0.5, 1.0), phases=8)
    theta = float(grid.phases[3])
    assert tomographic_mean(grid, theta + math.pi) == pytest.approx(
        -tomographic_mean(grid, theta), abs=1e-12
    )
    assert tomographic_variance(grid, theta + math.pi) == pytest.approx(
        tomographic_variance(grid, theta), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(8))
def test_grid_moments_match_closed_form_oracle(seed):
    state = random_state(np.random.default_rng(seed))
    grid = tomogram_grid(state, phases=8)
    for theta in grid.phases[::3]:
        oracle = analytic_moments(state, float(theta))
        m = tomographic_moments(grid, float(theta))
        assert m.mean == pytest.approx(oracle.mean, abs=1e-6)
        assert m.variance == pytest.approx(oracle.variance, abs=1e-6)


def test_256_point_grid_moments_match_the_closed_form():
    """The trapezoid rule that accepts a row as a density also gives its
    moments to the closed form's precision at every stored phase."""
    for seed in range(300):
        state = random_state(np.random.default_rng(seed))
        grid = tomogram_grid(state, phases=16, n_x=256)
        for theta in grid.phases.tolist():
            m = tomographic_moments(grid, theta)
            oracle = analytic_moments(state, theta)
            assert abs(m.mean - oracle.mean) <= 1e-9, (seed, theta)
            assert abs(m.variance - oracle.variance) <= 1e-9, (seed, theta)


def test_coarse_accepted_grids_keep_the_closed_form_moments():
    report = heisenberg_lhs(tomogram_grid(vacuum(), phases=16, n_x=20))
    assert report.satisfied and abs(report.lhs - 0.25) <= 1e-9
    grid = tomogram_grid(fock(4), phases=16, n_x=64)
    for theta in grid.phases.tolist():
        assert abs(tomographic_variance(grid, theta) - 4.5) <= 1e-6


@pytest.mark.parametrize("n_x", [None, 64, 256])
def test_grid_moments_are_the_trapezoid_moments_of_the_stored_rows(n_x):
    checked = 0
    for seed in range(100):
        state = random_state(np.random.default_rng(seed))
        try:
            grid = tomogram_grid(state, phases=16, n_x=n_x)
        except InputError as exc:
            assert "integrates to" in str(exc)  # too few points for this state's rows
            continue
        checked += 1
        means, variances = grid.row_moments
        for row, mean, var in zip(grid.values, means.tolist(), variances.tolist()):
            want_mean, want_var = trapz_mean(grid.xs, row), trapz_var(grid.xs, row)
            assert abs(mean - want_mean) <= 1e-14 * max(1.0, abs(want_mean))
            assert abs(var - want_var) <= 1e-14 * max(1.0, abs(want_var))
    assert checked >= 50


def test_refining_the_grid_does_not_move_the_variance():
    state = GaussianState(0.4, -0.8, 1.6)
    coarse = tomogram_grid(state, phases=np.array([0.7]), n_x=256)
    fine = tomogram_grid(state, phases=np.array([0.7]), n_x=512)
    a = tomographic_variance(coarse, 0.7)
    b = tomographic_variance(fine, 0.7)
    assert abs(a - b) < 1e-8


def test_moments_from_state_bypass_grids():
    state = GaussianState(-0.6, 0.9, 2.5)
    for theta in (0.0, 1.1, 4.0):
        m = moments_from_state(state, theta)
        oracle = analytic_moments(state, theta)
        assert m.mean == pytest.approx(oracle.mean, abs=1e-8)
        assert m.variance == pytest.approx(oracle.variance, abs=1e-8)


@given(seed=hyp_st.integers(0, 2**32 - 1), theta=hyp_st.floats(-7.0, 7.0))
def test_moments_from_state_is_the_two_call_form_bitwise(seed, theta):
    state = random_state(np.random.default_rng(seed))
    half = grid_halfwidth(state)
    xs = np.linspace(-half, half, STATE_ROW_POINTS)
    row = _state_row(state, theta, xs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        expected = (row_mean(xs, row), row_variance(xs, row))
        m = moments_from_state(state, theta)
    assert (m.mean, m.variance, m.phase) == (*expected, theta)


def test_unnormalized_row_rejected():
    xs = np.linspace(-5, 5, 101)
    with pytest.raises(InputError, match="integrates"):
        row_variance(xs, gaussian_row(xs, 0.0, 0.5) * 1.01)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            return fn(*args)
        except (InputError, NumericalError) as exc:
            return type(exc), str(exc)


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    n_phases=hyp_st.integers(1, 20),
    n_x=hyp_st.one_of(hyp_st.none(), hyp_st.integers(200, 700)),
)
def test_grid_moments_equal_the_row_path_bitwise(seed, n_phases, n_x):
    state = random_state(np.random.default_rng(seed))
    grid = tomogram_grid(state, phases=n_phases, n_x=n_x)
    for theta in grid.phases:
        for phase in (float(theta), float(theta) + math.pi):
            row, mirrored = grid.row_at(phase)
            mean = _outcome(row_mean, grid.xs, row)
            mean = -mean if mirrored else mean
            var = _outcome(row_variance, grid.xs, row)
            assert _outcome(tomographic_mean, grid, phase) == mean
            assert _outcome(tomographic_variance, grid, phase) == var
            moments = _outcome(tomographic_moments, grid, phase)
            assert moments == (MomentSet(mean, var, phase) if isinstance(var, float) else var)


def test_non_increasing_grid_rejected():
    xs = np.linspace(-5, 5, 101)
    row = gaussian_row(xs, 0.0, 0.5)
    with pytest.raises(InputError, match="strictly increasing"):
        row_mean(xs[::-1], row[::-1])
    repeated = xs.copy()
    repeated[50] = repeated[49]
    with pytest.raises(InputError, match="strictly increasing"):
        row_mean(repeated, row)


def test_narrow_window_warns_when_tails_are_small():
    # 6 sigma does not fit, but the boundary density is negligible
    xs = np.linspace(-10.0, 10.0, 501)
    row = gaussian_row(xs, 7.2, 0.25)
    with pytest.warns(TruncationWarning):
        var = row_variance(xs, row)
    assert var == pytest.approx(0.25, abs=1e-3)


def test_narrow_window_grid_warns_on_every_variance_query():
    xs = np.linspace(-10.0, 10.0, 501)
    grid = TomogramGrid(np.array([0.0]), xs, gaussian_row(xs, 7.2, 0.25)[None, :])
    for phase in (0.0, 0.0, math.pi):
        with pytest.warns(TruncationWarning):
            assert tomographic_variance(grid, phase) == pytest.approx(0.25, abs=1e-3)
        with pytest.warns(TruncationWarning):
            assert tomographic_moments(grid, phase).variance == pytest.approx(0.25, abs=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            tomographic_mean(grid, phase)  # the mean has no window guard


def _acts(call, *args):
    """Whether call(*args) warns or raises NumericalError, as the window
    guard does when it acts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call(*args)
        except NumericalError:
            return True
    return bool(caught)


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    n_phases=hyp_st.integers(1, 12),
    shrink=hyp_st.floats(0.65, 1.0),
    shift=hyp_st.floats(-0.1, 0.1),
)
def test_kept_guard_flags_are_the_window_guards_decision(seed, n_phases, shrink, shift):
    state = random_state(np.random.default_rng(seed))
    half = grid_halfwidth(state) * shrink
    try:
        grid = tomogram_grid(state, phases=n_phases, window=(-half + shift, half + shift))
    except InputError:
        return  # the narrowed window cut more than the normalisation allows
    means, variances, narrow = grid._moment_table
    assert (means, variances) == (grid.row_moments[0].tolist(), grid.row_moments[1].tolist())
    for i, theta in enumerate(grid.phases.tolist()):
        assert narrow[i] == _acts(_guard_window, grid.xs, grid.values[i], means[i], variances[i])
        assert narrow[i] == _acts(tomographic_variance, grid, theta)


def _row_whose_six_sigma_reach_is(xs, side):
    """(row, mean, variance): a normalised Gaussian row on xs whose three
    values at one end (side -1 the left, +1 the right) are 0, so its moments
    do not depend on that end point, with its centre bisected until
    mean + side * 6 sigma is within 1e-10 dx of that end point."""
    end, zeros = (-1, slice(-3, None)) if side > 0 else (0, slice(0, 3))

    def build(centre):
        row = gaussian_row(xs, centre, 0.5)
        row[zeros] = 0.0
        row /= np.trapezoid(row, xs)
        _, _, mean, var = _row_moments(xs, row)
        return row, mean, var

    target = xs[end]
    lo, hi = sorted((0.0, target))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        row, mean, var = build(mid)
        reach = mean + side * 6.0 * math.sqrt(var)
        if abs(reach - target) <= 1e-10 * (xs[1] - xs[0]):
            return row, mean, var
        lo, hi = (mid, hi) if reach < target else (lo, mid)
    raise AssertionError("bisection did not reach the target")


@pytest.mark.parametrize("side", [-1, 1])
def test_a_row_reaching_the_window_edge_exactly_is_not_guarded(side):
    xs = np.linspace(-6.0, 6.0, 241)
    row, mean, var = _row_whose_six_sigma_reach_is(xs, side)
    edge = mean + side * 6.0 * math.sqrt(var)
    end = -1 if side > 0 else 0
    # the edge exactly is covered; one ulp inward, the reach leaves the window
    for moved, guarded in ((edge, False), (np.nextafter(edge, -side * math.inf), True)):
        edged = xs.copy()
        edged[end] = moved
        grid = TomogramGrid([0.0], edged, [row])
        assert grid.row_moments[0][0] == mean and grid.row_moments[1][0] == var
        assert grid._moment_table[2] == [guarded]
        assert _acts(_guard_window, grid.xs, row, mean, var) == guarded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                assert tomographic_variance(grid, 0.0) == var
                assert tomographic_moments(grid, math.pi).variance == var
        # a flagged row warns on every query, pointing at the caller
        assert len(caught) == (4 if guarded else 0)
        assert all(w.category is TruncationWarning and w.filename == __file__ for w in caught)


def test_grid_with_two_x_points_is_rejected_at_query_time():
    grid = TomogramGrid(np.array([0.0]), np.array([0.0, 1.0]), np.array([[1.0, 1.0]]))
    for query in (tomographic_mean, tomographic_variance, tomographic_moments):
        with pytest.raises(InputError, match=">= 3 points"):
            query(grid, 0.0)


def test_narrow_window_with_heavy_boundary_density_is_an_error():
    xs = np.linspace(-5.0, 5.0, 501)
    pedestal = np.full_like(xs, 1.0 / (xs[-1] - xs[0]))
    row = 0.97 * gaussian_row(xs, 0.0, 0.64) + 0.03 * pedestal
    row /= np.trapezoid(row, xs)
    with pytest.raises(NumericalError, match="6 sigma"):
        row_variance(xs, row)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-11, -0.1, "infinite x"])
def test_loose_rows_get_the_grid_density_check(bad):
    xs = np.linspace(-6.0, 6.0, 241)
    row = gaussian_row(xs, 0.0, 0.5)
    if bad == "infinite x":
        row[-2:] = 0.0  # so the mass is NaN, not infinite
        xs[-1] = math.inf
    else:
        row[5] = bad  # in the tail, where -1e-11 leaves the mass at 1
    if bad == -0.1:
        row /= np.trapezoid(row, xs)
    for call in (row_mean, row_variance, lambda xs, row: TomogramGrid([0.0], xs, [row])):
        with pytest.raises(InputError):
            call(xs, row)


def _pinned_rows():
    xs = np.linspace(-6.0, 6.0, 241)
    gauss = gaussian_row(xs, 0.3, 0.7)
    yield xs, gauss / np.trapezoid(gauss, xs)
    xs = np.linspace(-10.0, 10.0, 321)
    yield xs, _state_row(fock(2), 0.4, xs)
    xs = np.sort(np.concatenate([np.linspace(-6.0, 6.0, 150), [0.01, 0.3333, 2.71]]))
    gauss = gaussian_row(xs, -0.2, 0.5)
    yield xs, gauss / np.trapezoid(gauss, xs)


def test_accepted_loose_rows_keep_their_moments_bitwise():
    pinned = [
        ("0x1.33333332b7d18p-2", "0x1.66666665029bdp-1"),
        ("0x1.0000000000000p-53", "0x1.4000000000002p+1"),
        ("-0x1.997dfe0b2aca8p-3", "0x1.fff50bba37657p-2"),
    ]
    for (xs, row), (mean, var) in zip(_pinned_rows(), pinned):
        assert row_mean(xs, row) == float.fromhex(mean)
        assert row_variance(xs, row) == float.fromhex(var)


def test_moment_lookup_requires_grid_phase():
    grid = tomogram_grid(vacuum(), phases=4)
    with pytest.raises(InputError, match="not on the grid"):
        tomographic_variance(grid, 0.123)


NARROW_VACUUM = tomogram_grid(vacuum(), phases=16, window=(-4.0, 4.0))
WARNING_CALLS = {
    "tomographic_variance": lambda: tomographic_variance(NARROW_VACUUM, 0.0),
    "tomographic_moments": lambda: tomographic_moments(NARROW_VACUUM, 0.0),
    "heisenberg_lhs": lambda: heisenberg_lhs(NARROW_VACUUM),
    "trifonov_lhs": lambda: trifonov_lhs(NARROW_VACUUM, NARROW_VACUUM, math.pi / 16.0),
    "trifonov_sweep": lambda: trifonov_sweep(NARROW_VACUUM, NARROW_VACUUM),
}


@pytest.mark.parametrize("name", WARNING_CALLS)
def test_a_truncation_warning_points_at_the_caller_outside_the_package(name):
    # every row of the narrowed window is flagged, so every variance read warns
    assert all(NARROW_VACUUM._moment_table[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WARNING_CALLS[name]()
    assert caught
    assert all(w.category is TruncationWarning and w.filename == __file__ for w in caught)
