import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hyp_st
from hypothesis.extra.numpy import arrays

from optomo import (
    ExtrapolationError,
    FockSuperposition,
    GaussianState,
    HomodyneDataset,
    InputError,
    MixedState,
    QuadratureError,
    ResolutionError,
    TomogramGrid,
    analytic_moments,
    estimate_moments,
    fock,
    gaussian_row,
    heisenberg_lhs,
    load_dataset_csv,
    load_tomogram_csv,
    optical_tomogram,
    purity_classify,
    purity_overlap,
    sample,
    save_tomogram_csv,
    state_label,
    symplectic_tomogram,
    thermal_state,
    tomogram_characteristic,
    tomogram_grid,
    tomographic_moments,
    trifonov_sweep,
    uniform_phases,
    vacuum,
)
from optomo import homodyne, inequalities, kernels, quadrature, tomography
from optomo.moments import moments_from_state, tomographic_mean
from optomo.states import MAX_PHASE, _mean_and_covariance, _rotated_moments, _wrap_phases
from optomo.tomography import (
    PHASE_TOL,
    _state_row,
    _state_rows,
    _trapezoid_weights,
    wrap_phase,
)
from oracles import fock_row, gaussian_tomogram_row, random_state, state_row

SQRT_PI_INV = math.pi ** -0.5


# --------------------------------------------------------------------------
# default rows vs the independent oracles
# --------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.35, math.pi / 4, 1.2, math.pi / 2, 2.5])
def test_vacuum_row_is_phase_invariant_gaussian(theta):
    xs = np.linspace(-5, 5, 101)
    row = optical_tomogram(vacuum(), theta, xs)
    assert np.allclose(row, SQRT_PI_INV * np.exp(-xs * xs), atol=1e-10)


@pytest.mark.parametrize(
    "state",
    [
        GaussianState(1.0, -0.7, 2.0),
        GaussianState(-0.5, 1.5, 0.3),
        GaussianState(0.0, 0.0, 7.0),
    ],
)
@pytest.mark.parametrize("theta", [0.15, 0.9, math.pi / 4, 2.0, 3.0])
def test_gaussian_rows_match_closed_form(state, theta):
    def oracle(phase, xs):
        return gaussian_tomogram_row(state.mean_q, state.mean_p, state.squeeze, phase, xs)

    xs = np.linspace(-8, 8, 161)
    for phase in (theta, theta + math.pi):  # the second reads theta mirrored
        assert np.allclose(optical_tomogram(state, phase, xs), oracle(phase, xs), atol=1e-9)
    # every row of a 16-phase grid through theta is one more input
    grid = tomogram_grid(state, phases=np.sort(np.mod(theta + uniform_phases(16), math.pi)))
    for phase, row in zip(grid.phases, grid.values):
        assert np.allclose(row, oracle(phase, grid.xs), atol=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.6, math.pi / 4, 1.4, math.pi / 2])
def test_fock_superposition_rows_match_rotated_coefficient_form(theta):
    state = FockSuperposition((0.5, 0.5j, -0.3, 0.2 + 0.1j, 0.4))
    xs = np.linspace(-7, 7, 141)
    row = optical_tomogram(state, theta, xs)
    assert np.allclose(row, fock_row(state.coeffs, theta, xs), atol=1e-9)


def test_single_photon_row_vanishes_at_origin_for_any_phase():
    assert optical_tomogram(fock(1), math.pi / 3, np.array([0.0]))[0] < 1e-12


def test_fock_rows_are_phase_invariant():
    xs = np.linspace(-6, 6, 121)
    base = optical_tomogram(fock(2), 0.0, xs)
    for theta in np.linspace(0.0, math.pi, 9, endpoint=False):
        assert np.allclose(optical_tomogram(fock(2), theta, xs), base, atol=1e-8)


def test_row_parity_under_half_turn():
    state = GaussianState(1.2, 0.4, 1.5)
    xs = np.linspace(-7, 7, 141)
    theta = 0.8
    shifted = optical_tomogram(state, theta + math.pi, xs)
    mirrored = optical_tomogram(state, theta, -xs)
    assert np.allclose(shifted, mirrored, atol=1e-12)


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    theta=hyp_st.floats(1e-6, math.pi - 1e-6),
    k=hyp_st.integers(-3, 3),
)
def test_a_row_k_half_turns_on_is_the_reduced_row_at_plus_minus_x_bitwise(seed, theta, k):
    # w(X, theta + k pi) = w((-1)^k X, theta), bit for bit, on the public route
    state = random_state(np.random.default_rng(seed))
    xs = np.linspace(-7, 7, 57)
    reduced, mirrored = wrap_phase(theta + k * math.pi)
    assert mirrored == (k % 2 == 1)
    want = optical_tomogram(state, reduced, (-1) ** k * xs)
    assert np.array_equal(optical_tomogram(state, theta + k * math.pi, xs), want)


def test_closed_form_rows_take_phases_in_zero_to_pi(monkeypatch):
    # every phase is reduced where it enters: the row engine never sees one
    # outside [0, pi), and an explicit grid phase there is refused first
    seen = []
    engine = tomography._state_rows

    def spy(state, phases, xs):
        seen.append(np.array(phases, dtype=float))
        return engine(state, phases, xs)

    monkeypatch.setattr(tomography, "_state_rows", spy)
    monkeypatch.setattr(homodyne, "_state_rows", spy)
    theta, xs = 0.7, np.linspace(-5, 5, 11)
    calls = [
        lambda s: tomogram_grid(s, 8),
        lambda s: tomogram_grid(s, [0.0, theta, math.nextafter(math.pi, 0.0)]),
        lambda s: optical_tomogram(s, theta + math.pi, xs),
        lambda s: optical_tomogram(s, -theta, xs),
        lambda s: symplectic_tomogram(s, 0.3, -0.7, -0.4),
        lambda s: moments_from_state(s, theta + math.pi),
        lambda s: sample(s, [(theta, 20), (theta + math.pi, 20), (-theta, 20)], seed=1),
    ]
    fsup = FockSuperposition((0.5, 0.3j, -0.4, 0.2))
    for state in (fsup, MixedState(((0.5, fsup), (0.5, GaussianState(0.3, -0.2, 1.5))))):
        for call in calls:
            seen.clear()
            call(state)
            assert seen and all(((p >= 0.0) & (p < math.pi)).all() for p in seen), seen
        seen.clear()
        with pytest.raises(InputError, match=r"lie in \[0, pi\)"):
            tomogram_grid(state, [0.5, theta + math.pi])
        assert not seen


def test_phase_matching_takes_queries_already_in_zero_to_pi(monkeypatch):
    # each caller reduces its phase where it enters, so _nearest_phase never
    # sees a query outside [0, pi); sampling shares its rows through it too
    seen = []
    match = tomography._nearest_phase

    def spy(stored, reduced, mirrored=False):
        seen.append(reduced)
        return match(stored, reduced, mirrored)

    for module in (tomography, homodyne, inequalities):
        monkeypatch.setattr(module, "_nearest_phase", spy)
    theta = 0.7
    grid = tomogram_grid(vacuum(), 8)
    off = grid.phases[3] + 0.5 * PHASE_TOL  # no dictionary hit
    ds = sample(vacuum(), [(theta, 40), (0.0, 40)], seed=1)
    seam = [(0.0, 30), (math.nextafter(math.pi, 0.0), 30), (-1e-10, 30), (math.pi + 1e-10, 30)]
    calls = [
        lambda: grid.lookup(off + math.pi),
        lambda: grid.lookup(-off),
        lambda: grid.lookup(-1e-10),
        lambda: symplectic_tomogram(grid, 0.3, -0.7, -0.4),
        lambda: symplectic_tomogram(grid, 0.3, -0.7, 0.4),
        lambda: ds.values_at(theta + math.pi),
        lambda: estimate_moments(ds, theta + math.pi),
        lambda: estimate_moments(ds, -1e-10),
        lambda: trifonov_sweep(grid, tomogram_grid(vacuum(), 16)),
        lambda: sample(fock(1), seam, seed=2),
    ]
    for call in calls:
        seen.clear()
        call()
        assert seen and all(0.0 <= q < math.pi for q in seen), seen
    # the seam entries all share the row at 0.0, in one run
    assert sample(fock(1), seam, seed=2)._runs[0].tolist() == [0.0]


# --------------------------------------------------------------------------
# endpoint and dual-branch consistency of the quadrature itself
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "state",
    [GaussianState(1.0, 2.0, 1.0), FockSuperposition((0.6, 0.0, 0.8j))],
)
def test_quadrature_branch_reproduces_position_marginal_at_zero(state):
    from optomo import eval_position_wavefunction

    xs = np.linspace(-6, 6, 121)
    row = optical_tomogram(state, 0.0, xs, branch="momentum")
    marginal = np.abs(np.asarray(eval_position_wavefunction(state, xs))) ** 2
    assert np.max(np.abs(row - marginal)) < 1e-8


@pytest.mark.parametrize(
    "state",
    [GaussianState(1.0, 2.0, 1.0), FockSuperposition((0.6, 0.0, 0.8j))],
)
def test_quadrature_branch_reproduces_momentum_marginal_at_half_pi(state):
    from optomo import eval_momentum_wavefunction

    xs = np.linspace(-6, 6, 121)
    row = optical_tomogram(state, math.pi / 2, xs, branch="position")
    marginal = np.abs(np.asarray(eval_momentum_wavefunction(state, xs))) ** 2
    assert np.max(np.abs(row - marginal)) < 1e-8


@pytest.mark.parametrize("theta", [math.pi / 4 - 0.2, math.pi / 4, math.pi / 4 + 0.2])
def test_both_branches_agree_where_both_are_stable(theta):
    state = FockSuperposition((0.5, 0.5, 0.5, 0.5))
    xs = np.linspace(-7, 7, 141)
    via_position = optical_tomogram(state, theta, xs, branch="position")
    via_momentum = optical_tomogram(state, theta, xs, branch="momentum")
    assert np.max(np.abs(via_position - via_momentum)) < 1e-7


def test_forcing_a_singular_branch_raises():
    with pytest.raises(InputError):
        optical_tomogram(vacuum(), 0.0, np.array([0.0]), branch="position")
    with pytest.raises(InputError):
        optical_tomogram(vacuum(), math.pi / 2, np.array([0.0]), branch="momentum")


# --------------------------------------------------------------------------
# closed-form rows against the oscillatory transform
# --------------------------------------------------------------------------

@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    branch=hyp_st.sampled_from(["position", "momentum"]),
    offset=hyp_st.floats(0.35, math.pi - 0.35),
)
def test_closed_rows_match_the_oscillatory_transform(seed, branch, offset):
    state = random_state(np.random.default_rng(seed))
    # the offset keeps theta at least 0.35 rad from the branch's singular
    # phase: 0 for "position", pi/2 for "momentum"
    theta, _ = wrap_phase(offset if branch == "position" else offset + math.pi / 2)
    grid = tomogram_grid(state, phases=np.array([theta]))
    xs = grid.xs[::8]
    components = state.components if isinstance(state, MixedState) else ((1.0, state),)
    transform = sum(
        w * optical_tomogram(s, theta, xs, branch=branch) for w, s in components
    )
    assert np.max(np.abs(grid.values[0, ::8] - transform)) <= 1e-10
    # parity rule on the closed path, mirrored phases included
    assert np.allclose(
        _state_row(state, theta + math.pi, xs), _state_row(state, theta, -xs),
        rtol=0.0, atol=1e-12,
    )


def _complex_reference_rows(state, phases, xs):
    """Rows summed over components in the package's order: |C @ H|^2 from a
    complex product for each Fock component (C rotated at the reduced phases,
    odd coefficients negated where X is mirrored), the Gaussian density at
    the rotated mean and variance for each Gaussian one."""
    reduced, mirrored = _wrap_phases(phases)
    components = state.components if isinstance(state, MixedState) else ((1.0, state),)
    herm = kernels.hermite_functions(64, xs)
    total = np.zeros((reduced.size, xs.size))
    for weight, comp in components:
        if isinstance(comp, FockSuperposition):
            c = comp.coeff_array()
            n = np.arange(c.size)
            rotated = c * np.exp(-1j * np.outer(reduced, n))
            rotated = np.where(mirrored[:, None], rotated * (-1.0) ** n, rotated)
            amp = rotated @ herm[: c.size].astype(complex)
            total += weight * (amp.real ** 2 + amp.imag ** 2)
        else:
            mean, var = _rotated_moments(_mean_and_covariance(comp), reduced[:, None])
            total += weight * gaussian_row(xs, np.where(mirrored[:, None], -mean, mean), var)
    return total


@given(seed=hyp_st.integers(0, 2**32 - 1), n_phases=hyp_st.integers(1, 20))
def test_grid_rows_in_real_arithmetic_match_the_complex_product(seed, n_phases):
    state = random_state(np.random.default_rng(seed))
    grid = tomogram_grid(state, phases=n_phases)
    if isinstance(state, GaussianState):
        # Gaussian rows take no product: bitwise the normal density
        mean, var = _rotated_moments(_mean_and_covariance(state), grid.phases[:, None])
        assert np.array_equal(grid.values, gaussian_row(grid.xs, mean, var))
        return
    want = _complex_reference_rows(state, grid.phases, grid.xs)
    assert np.abs(grid.values - want).max() <= 1e-15
    for phase, row in zip(grid.phases, grid.values):
        assert np.allclose(row, state_row(state, phase, grid.xs), rtol=0.0, atol=1e-9)
    # mirrored phases: the single-row entry reads a row at theta + pi as the
    # row at its reduced phase, read at -X
    for phase in grid.phases + math.pi:
        reduced, mirrored = wrap_phase(phase)
        row = _state_row(state, phase, grid.xs)
        assert mirrored
        assert np.array_equal(row, _state_rows(state, np.array([reduced]), -grid.xs)[0])
        assert np.abs(row - _complex_reference_rows(state, [phase], grid.xs)[0]).max() <= 1e-15


def test_default_grids_never_run_the_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("default rows must not use the oscillatory transform")

    monkeypatch.setattr(quadrature, "adaptive", forbidden)
    monkeypatch.setattr(kernels, "amplitude_rows", forbidden)
    monkeypatch.setattr(kernels, "amplitude_rows_uniform", forbidden)
    states = [
        FockSuperposition((0.6, 0.0, 0.8j, 0.1)),
        GaussianState(1.0, -0.5, 2.0),
        MixedState(
            ((0.4, FockSuperposition((0.5, 0.5j, 0.5))), (0.6, GaussianState(0.3, 0.2, 0.7)))
        ),
    ]
    for state in states:
        assert tomogram_grid(state, phases=16).n_phases == 16
    with pytest.raises(AssertionError, match="oscillatory transform"):
        optical_tomogram(vacuum(), 0.7, np.array([0.0]), branch="position")


def test_quadrature_that_never_settles_reports_the_node_cap():
    # the estimate is the node count, so every refinement changes it
    with pytest.raises(QuadratureError) as info:
        quadrature.adaptive(lambda y, w: float(y.size), 0.0, 1.0, label="a restless integrand")
    message = str(info.value)
    assert "for a restless integrand" in message
    assert f"last change {quadrature.MAX_NODES / 2:.3e}" in message
    assert f"at {quadrature.MAX_NODES} nodes" in message


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

def test_grid_rows_are_normalized_and_non_negative():
    grid = tomogram_grid(GaussianState(0.8, -0.3, 3.0), phases=8)
    masses = np.trapezoid(grid.values, grid.xs, axis=1)
    assert np.allclose(masses, 1.0, atol=1e-6)
    assert grid.values.min() >= 0.0


_XS = np.linspace(-5.0, 5.0, 64)
_ROW = gaussian_row(_XS, 0.0, 0.5)


def _with(xs, index, value):
    out = np.array(xs, dtype=float)
    out[index] = value
    return out


# (phases, xs, values, the InputError message), one case per check
_GRID_ERRORS = [
    ([], _XS, np.empty((0, 64)), "phases must be a non-empty 1-D array"),
    ([[0.0]], _XS, [_ROW], "phases must be a non-empty 1-D array"),
    ([math.nan], _XS, [_ROW], "phases must be finite and lie in [0, pi)"),
    ([-0.1], _XS, [_ROW], "phases must be finite and lie in [0, pi)"),
    ([math.pi], _XS, [_ROW], "phases must be finite and lie in [0, pi)"),
    ([0.3, 0.3], _XS, [_ROW, _ROW], "phases must be strictly increasing"),
    ([0.0], [0.0], [[1.0]], "x grid needs at least two points"),
    ([0.0], _with(_XS, 40, _XS[40] + 1e-3), [_ROW], "x grid must be uniform and increasing"),
    ([0.0], _XS[::-1], [_ROW], "x grid must be uniform and increasing"),
    ([0.0], _with(_XS, 0, math.nan), [_ROW], "x grid must be uniform and increasing"),
    ([0.0], _with(_XS, 30, math.nan), [_ROW], "x grid must be uniform and increasing"),
    ([0.0], _with(_XS, 0, -math.inf), [_ROW], "x grid must be uniform and increasing"),
    ([0.0], _with(_XS, -1, math.inf), [_ROW], "x grid must be uniform and increasing"),
    ([0.0], [-math.inf, math.inf], [[0.0, 0.0]], "x grid must be uniform and increasing"),
    ([0.0], _XS, [_ROW[:-1]], "values shape (1, 63) does not match (1, 64)"),
    ([0.0, 1.0], _XS, [_ROW], "values shape (1, 64) does not match (2, 64)"),
    ([0.0], _XS, [_with(_ROW, 5, math.inf)], "tomogram values must be finite"),
    ([0.0], _XS, [_with(_ROW, 5, -1e-6)], "tomogram values must be >= -1e-12, got -1e-06"),
    (
        [0.0, 1.0],
        _XS,
        [_ROW, _ROW * 1.01],
        "row at phase 1 integrates to 1.01000000, outside 1 +/- 1e-06",
    ),
    (
        [0.0, 1.0],
        _XS,
        [_ROW, _ROW * (1.0 + 1.1e-6)],
        "row at phase 1 integrates to 1.00000110, outside 1 +/- 1e-06",
    ),
    (
        [0.0, 1.0],
        _XS,
        [_ROW * (1.0 - 1.1e-6), _ROW],
        "row at phase 0 integrates to 0.99999890, outside 1 +/- 1e-06",
    ),
]


def test_grid_validation_rejects_bad_input():
    for phases, xs, values, message in _GRID_ERRORS:
        with pytest.raises(InputError) as caught:
            TomogramGrid(np.array(phases, dtype=float), np.array(xs, dtype=float), values)
        assert str(caught.value) == message


# the last pair's width, 2e308, is past the float range
@pytest.mark.parametrize("window", [(1.0, -1.0), (2.0, 2.0), (-1.0, 0.0, 1.0), (-1e308, 1e308)])
def test_a_window_that_is_not_an_increasing_pair_is_refused(window):
    for state in (vacuum(), fock(2)):
        with pytest.raises(InputError, match="^invalid window"):
            tomogram_grid(state, 4, window=window)


@pytest.mark.parametrize("variance", [0.0, -0.5, np.array([[1.0], [0.0]])])
def test_a_gaussian_row_needs_a_positive_variance(variance):
    with pytest.raises(InputError, match="^variance must be > 0"):
        gaussian_row(_XS, 0.0, variance)


@pytest.mark.parametrize("source", ["junk", 1.0, np.zeros(2)])
def test_an_object_that_is_no_state_or_grid_is_refused_by_name(source):
    name = type(source).__name__
    with pytest.raises(InputError, match=f"expected a TomogramGrid or state, got {name}$"):
        tomogram_characteristic(source, 0.0, 1.0)
    with pytest.raises(InputError, match=f"expected a TomogramGrid or state, got {name}$"):
        symplectic_tomogram(source, 0.1, 1.0, 0.0)
    with pytest.raises(InputError, match=f"expected a state, got {name}$"):
        state_label(source)


def test_grid_accepts_row_masses_within_the_tolerance():
    for scale in (1.0 + 0.9e-6, 1.0 - 0.9e-6):
        TomogramGrid([0.0, 1.0], _XS, [_ROW, _ROW * scale])


@pytest.mark.parametrize("n_x", [2, 3, 512])
def test_trapezoid_weights_give_the_trapezoid_masses(n_x):
    rng = np.random.default_rng(n_x)
    for lo, hi in ((-1.0, 1.0), (-7.3, 12.9), (0.0, 1e-3)):
        xs = np.linspace(lo, hi, n_x)
        values = rng.random((5, n_x)) / (hi - lo)
        masses = values @ _trapezoid_weights(np.diff(xs))
        assert np.abs(masses - np.trapezoid(values, xs, axis=1)).max() <= 1e-14
        TomogramGrid([0.0], xs, values[:1] / np.trapezoid(values[0], xs))


def test_grid_copies_what_it_keeps_and_leaves_the_callers_arrays_alone():
    phases, xs, values = np.array([0.0, 1.0]), _XS.copy(), np.array([_ROW, _ROW])
    values[0, 0] = -1e-13
    grid = TomogramGrid(phases, xs, values)
    for kept, given_ in ((grid.phases, phases), (grid.xs, xs), (grid.values, values)):
        assert not np.shares_memory(kept, given_)
        assert not kept.flags.writeable and given_.flags.writeable
    assert values[0, 0] == -1e-13 and grid.values[0, 0] == 0.0


def test_grid_clamps_tiny_negative_values():
    xs = np.linspace(-5, 5, 64)
    row = gaussian_row(xs, 0.0, 0.5)
    row[0] = -1e-13
    grid = TomogramGrid(np.array([0.0]), xs, np.array([row]))
    assert grid.values.min() == 0.0


def test_wrap_phase_reduction():
    reduced, mirrored = wrap_phase(math.pi + 0.3)
    assert reduced == pytest.approx(0.3)
    assert mirrored
    reduced, mirrored = wrap_phase(-0.3)
    assert reduced == pytest.approx(math.pi - 0.3)
    assert mirrored
    reduced, mirrored = wrap_phase(2 * math.pi + 0.1)
    assert reduced == pytest.approx(0.1)
    assert not mirrored
    # -0.0 comes back as 0.0, as from _wrap_phases
    reduced, mirrored = wrap_phase(-0.0)
    assert math.copysign(1.0, reduced) == 1.0 and not mirrored


@given(phase=hyp_st.floats(-50.0, 50.0), turns=hyp_st.integers(-4, 4))
@example(phase=-5e-324, turns=0)  # phase / pi underflows to -0.0
def test_wrap_phase_is_consistent_under_full_turns(phase, turns):
    reduced, mirrored = wrap_phase(phase)
    assert 0.0 <= reduced < math.pi
    assert wrap_phase(reduced) == (reduced, False)
    # the scalar view agrees with the array reduction, in range or not
    arr_reduced, arr_mirrored = _wrap_phases(np.array([phase, reduced]))
    assert arr_reduced.tolist() == [reduced, reduced]
    assert arr_mirrored.tolist() == [mirrored, False]
    # near-exact multiples of pi legitimately round across the seam
    assume(1e-6 < reduced < math.pi - 1e-6)
    again, mirrored_again = wrap_phase(phase + 2.0 * math.pi * turns)
    assert again == pytest.approx(reduced, abs=1e-9)
    assert mirrored_again == mirrored
    flipped, mirrored_flipped = wrap_phase(phase + math.pi)
    assert flipped == pytest.approx(reduced, abs=1e-9)
    assert mirrored_flipped is (not mirrored)


@given(phase=hyp_st.floats(-MAX_PHASE, MAX_PHASE, exclude_min=True, exclude_max=True))
@example(phase=math.nextafter(MAX_PHASE, 0.0))
@example(phase=-math.nextafter(MAX_PHASE, 0.0))
def test_every_phase_below_the_limit_reduces_into_range(phase):
    reduced, _ = wrap_phase(phase)
    assert 0.0 <= reduced < math.pi
    arr_reduced, _ = _wrap_phases(np.array([phase]))
    assert arr_reduced.tolist() == [reduced]


@pytest.mark.parametrize(
    "phase", [1.2647924331046307e57, MAX_PHASE, -MAX_PHASE, 1e300, -1e20]
)
def test_phases_at_or_past_the_limit_are_rejected(phase):
    with pytest.raises(InputError, match=r"2\*\*52"):
        wrap_phase(phase)
    with pytest.raises(InputError, match=r"2\*\*52"):
        analytic_moments(vacuum(), phase)
    with pytest.raises(InputError, match=r"2\*\*52"):
        _wrap_phases(np.array([0.5, phase]))
    # a dataset query checks its phase once, before it counts any record
    for ds in (HomodyneDataset(np.empty(0), np.empty(0), 0, "x"), sample(vacuum(), [(0.3, 40)], 1)):
        with pytest.raises(InputError, match=r"2\*\*52"):
            estimate_moments(ds, phase)
        with pytest.raises(InputError, match=r"2\*\*52"):
            ds.values_at(phase)


@given(
    phases=arrays(
        np.float64,
        hyp_st.integers(1, 20),
        elements=hyp_st.floats(0.0, math.pi, exclude_max=True),
    )
)
@example(phases=np.array([-0.0]))
@example(phases=np.array([-0.0, 0.0, math.nextafter(math.pi, 0.0)]))
@example(phases=uniform_phases(16))
def test_in_range_phases_take_the_fast_path_bitwise(phases):
    fast, fast_mirrored = _wrap_phases(phases)
    # a phase past pi sends the whole array through the general reduction
    general, general_mirrored = _wrap_phases(np.append(phases, 4.0))
    assert fast.tobytes() == general[:-1].tobytes()
    assert not np.signbit(fast).any()  # -0.0 comes back as 0.0
    assert fast.dtype == general.dtype and fast_mirrored.dtype == general_mirrored.dtype
    assert fast_mirrored.tolist() == general_mirrored[:-1].tolist() == [False] * phases.size
    assert not np.shares_memory(fast, phases)
    grid_phases, _ = _wrap_phases(phases.reshape(1, -1))
    assert grid_phases.shape == (1, phases.size)


def test_phase_lookup_uses_parity_and_rejects_off_grid():
    grid = tomogram_grid(vacuum(), phases=8)
    row, mirrored = grid.row_at(grid.phases[3] + math.pi)
    assert mirrored
    assert np.array_equal(row, grid.values[3])
    with pytest.raises(InputError, match="not on the grid"):
        grid.lookup(0.123456)


@given(
    n=hyp_st.integers(1, 12),
    shift=hyp_st.one_of(hyp_st.just(0.0), hyp_st.floats(0.0, 1.0, exclude_max=True)),
    pick=hyp_st.integers(0, 11),
    k=hyp_st.integers(-3, 3),
    delta=hyp_st.floats(-PHASE_TOL / 2, PHASE_TOL / 2),
)
def test_lookup_reads_the_stored_phase_across_half_turns(n, shift, pick, k, delta):
    # shift = 0 puts a stored phase at 0, so delta < 0 crosses the seam
    phases = uniform_phases(n) + shift * (math.pi / n)
    assume(phases[-1] < math.pi)
    grid = tomogram_grid(GaussianState(0.8, -0.5, 2.0), phases, n_x=64)
    s = pick % n
    query = phases[s] + k * math.pi + delta
    assert grid.lookup(query) == (s, k % 2 == 1)
    row, mirrored = grid.row_at(query)
    assert np.array_equal(row, grid.values[s]) and mirrored == (k % 2 == 1)
    mean = tomographic_mean(grid, phases[s])
    assert tomographic_mean(grid, query) == (-mean if k % 2 else mean)
    with pytest.raises(InputError, match="not on the grid"):
        grid.lookup(phases[s] + math.pi / (2 * n) + k * math.pi)


def test_counts_are_integers_numpy_included_and_never_bools():
    state = FockSuperposition((0.6, 0.3j, 0.8))
    want = tomogram_grid(state, phases=8)
    got = tomogram_grid(state, phases=np.int64(8))
    assert got.phases.tobytes() == want.phases.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    with pytest.raises(InputError, match="phases must be an integer count or a 1-D list"):
        tomogram_grid(state, phases=True)
    assert uniform_phases(np.int32(4)).tobytes() == uniform_phases(4).tobytes()
    for bad in (3.5, 4.0, True, "4"):
        with pytest.raises(InputError, match="phase count must be an integer"):
            uniform_phases(bad)
    with pytest.raises(InputError, match="need at least one phase"):
        uniform_phases(np.int64(0))
    want = tomogram_grid(state, phases=4, n_x=300)
    got = tomogram_grid(state, phases=4, n_x=np.int64(300))
    assert got.n_x == 300 and got.values.tobytes() == want.values.tobytes()
    for bad in (300.7, 300.0, True):
        with pytest.raises(InputError, match="n_x must be an integer"):
            tomogram_grid(state, phases=4, n_x=bad)
    with pytest.raises(InputError, match="n_x must be >= 2"):
        tomogram_grid(state, phases=4, n_x=np.int64(1))


def test_mixture_of_one_component_equals_the_pure_tomogram():
    mix = MixedState(((1.0, vacuum()),))
    phases = uniform_phases(4)
    a = tomogram_grid(mix, phases)
    b = tomogram_grid(vacuum(), phases)
    assert np.allclose(a.values, b.values, atol=1e-14)


def test_equal_mixture_value_at_origin():
    mix = MixedState(((0.5, fock(0)), (0.5, fock(1))))
    for theta in (0.0, 0.7, 1.9):
        row = np.asarray(
            [w * optical_tomogram(s, theta, np.array([0.0]))[0] for w, s in mix.components]
        ).sum()
        assert row == pytest.approx(0.5 * SQRT_PI_INV, abs=1e-10)
    grid = tomogram_grid(mix, phases=4)
    mid = np.argmin(np.abs(grid.xs))  # grid is symmetric, includes x near 0
    assert grid.values[0, mid] == pytest.approx(
        0.5 * SQRT_PI_INV * math.exp(-grid.xs[mid] ** 2)
        + 0.5 * fock_row((0, 1), 0.0, grid.xs[mid : mid + 1])[0],
        abs=1e-9,
    )


def test_thermal_tomogram_converges_to_gaussian_density():
    state = thermal_state(1.0)
    xs = np.linspace(-8, 8, 161)
    for theta in (0.0, 1.0):
        row = sum(w * optical_tomogram(s, theta, xs) for w, s in state.components)
        oracle = gaussian_row(xs, 0.0, 1.5)
        assert np.max(np.abs(row - oracle)) < 1e-8


@pytest.mark.parametrize(
    "state",
    [thermal_state(1.0),
     MixedState(((0.3, GaussianState(0.4, -0.2, 1.7)),
                 (0.7, FockSuperposition((0.5, 0.3j, -0.4)))))],
    ids=["thermal", "gaussian+fock"],
)
def test_a_mixture_row_is_the_weighted_sum_of_its_component_rows(state):
    xs = np.linspace(-8, 8, 161)
    for theta in (0.0, 1.0, 4.0):
        want = sum(w * optical_tomogram(s, theta, xs) for w, s in state.components)
        assert np.max(np.abs(optical_tomogram(state, theta, xs) - want)) <= 1e-15
    # the transform reads a wavefunction, which only a pure state has
    for branch in ("position", "momentum"):
        with pytest.raises(InputError, match="^expected a pure state, got MixedState$"):
            optical_tomogram(state, 1.0, xs, branch=branch)


# --------------------------------------------------------------------------
# symplectic rescaling
# --------------------------------------------------------------------------

def test_identity_direction_returns_the_stored_row():
    grid = tomogram_grid(vacuum(), phases=8)
    theta = float(grid.phases[2])
    x = 0.7
    val = symplectic_tomogram(grid, x, math.cos(theta), math.sin(theta))
    assert val == pytest.approx(float(np.interp(x, grid.xs, grid.values[2])), abs=1e-12)


def test_vacuum_scaling_closed_form():
    grid = tomogram_grid(vacuum(), phases=8)
    for x in (0.0, 0.8, -1.4):
        expected = 0.5 * SQRT_PI_INV * math.exp(-x * x / 4.0)
        assert symplectic_tomogram(vacuum(), x, 2.0, 0.0) == pytest.approx(expected, abs=1e-10)
        assert symplectic_tomogram(grid, x, 2.0, 0.0) == pytest.approx(expected, abs=1e-3)


def test_negative_direction_mirrors_the_position_density():
    state = GaussianState(1.0, 0.0, 1.0)
    for x in (0.4, -0.9):
        got = symplectic_tomogram(state, x, -1.0, 0.0)
        expected = SQRT_PI_INV * math.exp(-((-x) - 1.0) ** 2)
        assert got == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_scaling_homogeneity(lam):
    state = fock(1)
    grid = tomogram_grid(state, phases=8)
    for source in (state, grid):
        for x, mu, nu in [(0.6, 1.0, 0.4), (-0.4, 0.3, -1.1), (0.2, -0.8, 0.5)]:
            lhs = symplectic_tomogram(source, lam * x, lam * mu, lam * nu)
            rhs = symplectic_tomogram(source, x, mu, nu) / lam
            assert lhs == pytest.approx(rhs, abs=1e-6)


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    x=hyp_st.floats(-4.0, 4.0),
    angle=hyp_st.floats(-2.0 * math.pi, 2.0 * math.pi),
    length=hyp_st.floats(0.2, 5.0),
)
def test_a_state_gives_the_closed_form_symplectic_tomogram(seed, x, angle, length):
    state = random_state(np.random.default_rng(seed))
    mu, nu = length * math.cos(angle), length * math.sin(angle)
    r = math.hypot(mu, nu)
    want = float(state_row(state, math.atan2(nu, mu), np.array([x / r]))[0]) / r
    assert symplectic_tomogram(state, x, mu, nu) == pytest.approx(want, rel=0.0, abs=1e-9)


def test_zero_direction_rejected():
    grid = tomogram_grid(vacuum(), phases=4)
    with pytest.raises(InputError):
        symplectic_tomogram(grid, 0.0, 0.0, 0.0)


def test_extrapolation_beyond_grid_rejected():
    grid = tomogram_grid(vacuum(), phases=4)
    with pytest.raises(ExtrapolationError):
        symplectic_tomogram(grid, grid.xs[-1] * 2.0, 0.5, 0.0)


# --------------------------------------------------------------------------
# characteristic functions
# --------------------------------------------------------------------------

def test_vacuum_characteristic_is_gaussian():
    rs = np.linspace(0, 6, 25)
    got = tomogram_characteristic(vacuum(), 0.9, rs)
    assert np.allclose(got, np.exp(-rs * rs / 4.0), atol=1e-12)


def test_characteristic_at_zero_is_normalization():
    for source in (vacuum(), fock(3), thermal_state(0.5)):
        assert tomogram_characteristic(source, 0.4, 0.0) == pytest.approx(1.0, abs=1e-10)
    grid = tomogram_grid(vacuum(), phases=4)
    assert tomogram_characteristic(grid, 0.0, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_single_photon_characteristic_closed_form():
    rs = np.linspace(0, 5, 21)
    got = tomogram_characteristic(fock(1), 1.3, rs)
    assert np.allclose(got, (1 - rs * rs / 2) * np.exp(-rs * rs / 4), atol=1e-12)
    # cross-check by dense quadrature over the density row
    xs = np.linspace(-12, 12, 8001)
    row = fock_row((0, 1), 1.3, xs)
    quad = np.array([np.trapezoid(row * np.exp(1j * r * xs), xs) for r in rs])
    assert np.allclose(got, quad, atol=1e-9)


def test_grid_route_matches_state_route():
    state = FockSuperposition((0.8, 0.0, 0.6))
    grid = tomogram_grid(state, phases=8)
    theta = float(grid.phases[5])
    rs = np.linspace(0.0, 8.0, 17)
    assert np.allclose(
        tomogram_characteristic(grid, theta, rs),
        tomogram_characteristic(state, theta, rs),
        atol=1e-8,
    )


def test_characteristic_respects_parity_rule():
    state = GaussianState(1.0, -0.5, 2.0)
    rs = np.linspace(0.0, 4.0, 9)
    direct = tomogram_characteristic(state, 0.4, rs)
    reflected = tomogram_characteristic(state, 0.4 + math.pi, rs)
    assert np.allclose(reflected, np.conj(direct), atol=1e-12)


@given(
    seed=hyp_st.integers(0, 2**32 - 1),
    theta=hyp_st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
def test_characteristic_matches_dense_fourier_transform_of_the_row(seed, theta):
    # cutoffs up to the package maximum; the oracle never uses the Laguerre
    # recurrence, only the explicit Hermite rows and a dense trapezoid sum
    state = random_state(np.random.default_rng(seed), max_cutoff=64)
    rs = np.linspace(0.0, 20.0, 21)
    xs = np.linspace(-26.0, 26.0, 5201)
    row = state_row(state, theta, xs)
    quad = np.array([np.trapezoid(row * np.exp(1j * r * xs), xs) for r in rs])
    got = tomogram_characteristic(state, theta, rs)
    assert np.max(np.abs(got - quad)) <= 1e-9


def test_phase_arrays_match_scalar_calls():
    fock_part = FockSuperposition((0.3, -0.5j, 0.7, 0.2 + 0.4j))
    mixture = MixedState(((0.4, fock_part), (0.6, GaussianState(0.7, -0.3, 1.9))))
    grid = tomogram_grid(FockSuperposition((0.8, 0.0, 0.6)), phases=8)
    rs = np.linspace(0.0, 6.0, 13)
    for source in (mixture, grid):
        phases = np.concatenate([grid.phases, grid.phases + math.pi])  # mirrored half
        batch = tomogram_characteristic(source, phases, rs)
        assert batch.shape == (phases.size, rs.size)
        rows = np.array([tomogram_characteristic(source, float(t), rs) for t in phases])
        assert np.allclose(batch, rows, rtol=0.0, atol=1e-14)
        assert np.allclose(batch[8:], np.conj(batch[:8]), rtol=0.0, atol=1e-14)
        single = tomogram_characteristic(source, phases, 2.5)
        assert single.shape == (phases.size,)
        assert np.allclose(single, batch[:, 5], rtol=0.0, atol=1e-14)


def test_bare_grid_characteristic_reads_phase_zero_across_the_seam():
    grid = tomogram_grid(GaussianState(0.8, -0.5, 2.0), phases=8)
    rs = np.linspace(0.0, 3.0, 7)
    at_zero = tomogram_characteristic(grid, 0.0, rs)
    below_pi = tomogram_characteristic(grid, math.pi - 1e-12, rs)
    assert np.array_equal(below_pi.view(np.int64), np.conj(at_zero).view(np.int64))
    below_zero = tomogram_characteristic(grid, -1e-12, rs)
    assert np.array_equal(below_zero.view(np.int64), at_zero.view(np.int64))


def test_bare_grid_characteristic_is_the_trapezoid_sum_of_its_rows():
    grid = tomogram_grid(FockSuperposition((0.6, 0.3j, -0.5, 0.2)), phases=8)
    rs = np.linspace(0.0, 5.0, 11)
    weighted = grid.values * _trapezoid_weights(np.diff(grid.xs))
    want = kernels.amplitude_rows(weighted.T, grid.xs, -1.0, rs).T
    assert np.array_equal(tomogram_characteristic(grid, grid.phases, rs), want)


def test_nyquist_guard_on_coarse_grids():
    xs = np.linspace(-6, 6, 24)
    grid = TomogramGrid(np.array([0.0]), xs, np.array([gaussian_row(xs, 0.0, 0.5)]))
    with pytest.raises(ResolutionError):
        tomogram_characteristic(grid, 0.0, 20.0)


def test_negative_r_rejected():
    with pytest.raises(InputError):
        tomogram_characteristic(vacuum(), 0.0, -1.0)


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------

@given(seed=hyp_st.integers(0, 2**32 - 1))
def test_csv_round_trip_is_exact(tmp_path_factory, seed):
    grid = tomogram_grid(random_state(np.random.default_rng(seed)), phases=5)
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    save_tomogram_csv(grid, path)
    again = load_tomogram_csv(path)
    assert np.array_equal(again.phases, grid.phases)
    assert np.array_equal(again.xs, grid.xs)
    assert np.array_equal(again.values, grid.values)


def _outcome(call):
    """What call() gives, comparable bit for bit: the result (arrays as their
    bytes, anything else as its repr) or the type and text of what it raised,
    and the text of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
            result = result.tobytes() if isinstance(result, np.ndarray) else repr(result)
        except Exception as exc:  # which exception is part of the outcome
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


@given(seed=hyp_st.integers(0, 2**32 - 1), n_phases=hyp_st.integers(16, 64))
@example(seed=1115, n_phases=16)  # a squeezed state whose 16-phase overlap reads above 1
def test_a_grid_gives_the_same_results_after_a_csv_round_trip(tmp_path_factory, seed, n_phases):
    grid = tomogram_grid(random_state(np.random.default_rng(seed)), phases=n_phases)
    path = tmp_path_factory.mktemp("csv") / "w.csv"
    save_tomogram_csv(grid, path)
    again = load_tomogram_csv(path)
    rs = np.linspace(0.0, 6.0, 13)
    probes = [(0.3, 0.7, 0.4), (-0.5, -1.0, 0.2), (1.1, 0.0, -2.0)]
    phases = [float(t) for t in grid.phases[::5]] + [float(grid.phases[1]) + math.pi / 2.0]
    calls = [
        lambda g: purity_overlap(g, g),
        lambda g: purity_classify(g),
        lambda g: tomogram_characteristic(g, g.phases, rs),
        lambda g: heisenberg_lhs(g),
        lambda g: trifonov_sweep(g, g),
    ]
    calls += [lambda g, p=p: symplectic_tomogram(g, *p) for p in probes]
    calls += [lambda g, t=t: tomographic_moments(g, t) for t in phases]
    for call in calls:
        assert _outcome(lambda: call(again)) == _outcome(lambda: call(grid))


def test_tomogram_csv_lines_are_17_digit_renderings(tmp_path):
    # 5 rows of 257 points: the lines cross the writer's block ends inside rows
    grid = tomogram_grid(vacuum(), phases=5, n_x=257)
    path = tmp_path / "w.csv"
    save_tomogram_csv(grid, path)
    assert path.read_text().splitlines() == ["theta,x,w"] + [
        f"{theta:.17g},{x:.17g},{w:.17g}"
        for theta, row in zip(grid.phases.tolist(), grid.values.tolist())
        for x, w in zip(grid.xs.tolist(), row)
    ]


_LOADERS = [(load_tomogram_csv, "theta,x,w", "tomogram"), (load_dataset_csv, "theta,x", "dataset")]


@pytest.mark.parametrize("load, header, what", _LOADERS)
def test_csv_loaders_report_unreadable_files_alike(tmp_path, load, header, what):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,beta\n")
    with pytest.raises(InputError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: expected header '{header}', got 'alpha,beta'"
    path.write_text(f"{header}\n0,zz\n")
    with pytest.raises(InputError) as caught:
        load(path)
    assert str(caught.value).startswith(f"{path}: malformed CSV: could not convert string 'zz'")
    for target, errno in ((tmp_path / "missing.csv", "[Errno 2]"), (tmp_path, "[Errno 21]")):
        with pytest.raises(InputError) as caught:
            load(target)
        assert str(caught.value).startswith(f"cannot read {what} file {target}: {errno}")
    # a header-only file warns nothing; each loader judges the empty data
    path.write_text(f"{header}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if what == "dataset":
            assert load(path).n_records == 0
        else:
            with pytest.raises(InputError, match="expected three columns theta,x,w"):
                load(path)


def test_csv_loader_validates(tmp_path):
    path = tmp_path / "bad.csv"
    xs = np.linspace(-5, 5, 32)
    row = gaussian_row(xs, 0.0, 0.5) * 1.02  # denormalized
    lines = ["theta,x,w"]
    lines += [f"0,{x},{v}" for x, v in zip(xs, row)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="integrates"):
        load_tomogram_csv(path)
