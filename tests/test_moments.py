import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hyp_st
from hypothesis.extra.numpy import arrays

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
    moments_from_state,
    row_mean,
    row_variance,
    tomogram_grid,
    tomographic_mean,
    tomographic_moments,
    tomographic_variance,
    vacuum,
)
from optomo.moments import STATE_ROW_POINTS, _guard_window
from optomo.quadrature import simpson, simpson_moments
from optomo.states import grid_halfwidth
from optomo.tomography import _state_row
from oracles import random_state


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10, 33, 256, 257, 2048, 2049])
def test_simpson_matches_scipy(n):
    from scipy.integrate import simpson as scipy_simpson

    rng = np.random.default_rng(n)
    for _ in range(10):
        uniform = np.linspace(-6.0, rng.uniform(-2.0, 8.0), n)
        irregular = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
        for xs in (uniform, irregular):
            y = rng.uniform(0.1, 1.0, n)
            want = scipy_simpson(y, x=xs)
            assert abs(simpson(y, xs) - want) <= 1e-15 * abs(want)
            # several rows at once: each as scipy's axis=-1 result, and
            # bitwise the 1-D call on that row
            rows = rng.uniform(0.1, 1.0, (5, n))
            got = simpson(rows, xs)
            want_rows = scipy_simpson(rows, x=xs, axis=-1)
            assert got.shape == (5,)
            assert np.all(np.abs(got - want_rows) <= 1e-15 * np.abs(want_rows))
            assert got.tolist() == [simpson(row, xs) for row in rows]


def _two_call_moments(xs, rows):
    mean = simpson(rows * xs, xs)
    var = simpson(rows * xs * xs, xs) - mean * mean
    return mean, np.where(var < 0.0, 0.0, var)


@given(
    data=hyp_st.data(),
    n=hyp_st.integers(3, 40),
    n_rows=hyp_st.integers(0, 4),
    uniform=hyp_st.booleans(),
)
@example(data=None, n=256, n_rows=16, uniform=True)
@example(data=None, n=257, n_rows=0, uniform=True)
def test_simpson_moments_are_the_two_call_form_bitwise(data, n, n_rows, uniform):
    shape = (n_rows, n) if n_rows else (n,)
    if data is None:
        rng = np.random.default_rng(n)
        rows, steps, x0 = rng.uniform(0.0, 1.0, shape), rng.uniform(0.01, 1.0, n - 1), -3.0
    else:
        rows = data.draw(arrays(np.float64, shape, elements=hyp_st.floats(0.0, 1e3)))
        steps = data.draw(arrays(np.float64, n - 1, elements=hyp_st.floats(1e-3, 2.0)))
        x0 = data.draw(hyp_st.floats(-50.0, 50.0))
    xs = np.linspace(x0, x0 + steps.sum(), n) if uniform else x0 + np.cumsum(np.r_[0.0, steps])
    got = simpson_moments(xs, rows)
    want = _two_call_moments(xs, rows)
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


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
    values at one end (side -1 the left, +1 the right) are 0, so its Simpson
    moments do not depend on that end point, with its centre bisected until
    mean + side * 6 sigma is within 1e-10 dx of that end point."""
    end, zeros = (-1, slice(-3, None)) if side > 0 else (0, slice(0, 3))

    def build(centre):
        row = gaussian_row(xs, centre, 0.5)
        row[zeros] = 0.0
        row /= np.trapezoid(row, xs)
        mean, var = (float(v) for v in simpson_moments(xs, row))
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


def test_moment_lookup_requires_grid_phase():
    grid = tomogram_grid(vacuum(), phases=4)
    with pytest.raises(InputError, match="not on the grid"):
        tomographic_variance(grid, 0.123)
