import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optomo import (
    FockSuperposition,
    GaussianState,
    InputError,
    MixedState,
    MomentSet,
    analytic_moments,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    fock,
    load_state,
    save_state,
    state_from_dict,
    state_to_dict,
    thermal_state,
    vacuum,
)
from oracles import (
    fourier_transform_minus,
    hermite_psi,
    random_state,
    state_row,
    trapz_mean,
    trapz_var,
)

PI4TH = math.pi ** -0.25


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

def test_gaussian_requires_positive_squeeze():
    with pytest.raises(InputError):
        GaussianState(0.0, 0.0, 0.0)
    with pytest.raises(InputError):
        GaussianState(0.0, 0.0, -1.0)
    with pytest.raises(InputError):
        GaussianState(math.nan, 0.0, 1.0)


def test_fock_coefficients_are_normalized_at_construction():
    state = FockSuperposition((3.0, 4.0j))
    assert abs(sum(abs(c) ** 2 for c in state.coeffs) - 1.0) < 1e-12
    assert state.coeffs[0] == pytest.approx(0.6)
    assert state.coeffs[1] == pytest.approx(0.8j)


def test_fock_rejects_zero_norm_and_oversized_cutoff():
    with pytest.raises(InputError):
        FockSuperposition((0.0, 0.0))
    with pytest.raises(InputError):
        FockSuperposition((1.0,) + (0.0,) * 65)
    FockSuperposition((1.0,) + (0.0,) * 64)  # cutoff 64 is allowed


def test_mixed_state_weight_validation():
    with pytest.raises(InputError):
        MixedState(((0.5, vacuum()), (0.6, fock(1))))
    with pytest.raises(InputError):
        MixedState(((-0.1, vacuum()), (1.1, fock(1))))
    with pytest.raises(InputError):
        MixedState(((1.0, MixedState(((1.0, vacuum()),))),))


def test_moment_set_clamps_round_off_but_rejects_negative_variance():
    assert MomentSet(0.0, -1e-14, 0.0).variance == 0.0
    with pytest.raises(InputError):
        MomentSet(0.0, -1e-3, 0.0)


# --------------------------------------------------------------------------
# wavefunctions
# --------------------------------------------------------------------------

def test_vacuum_wavefunction_at_origin():
    assert eval_position_wavefunction(vacuum(), 0.0) == pytest.approx(PI4TH)


def test_single_photon_wavefunction_vanishes_at_origin():
    assert eval_position_wavefunction(fock(1), 0.0) == pytest.approx(0.0, abs=1e-15)


def test_displaced_gaussian_peak_value():
    assert eval_position_wavefunction(GaussianState(1.0, 0.0, 1.0), 1.0) == pytest.approx(
        PI4TH
    )


def test_non_finite_argument_rejected():
    with pytest.raises(InputError):
        eval_position_wavefunction(vacuum(), math.inf)
    with pytest.raises(InputError):
        eval_momentum_wavefunction(vacuum(), math.nan)


def test_momentum_wavefunction_of_vacuum_is_fourier_invariant():
    assert eval_momentum_wavefunction(vacuum(), 0.0) == pytest.approx(PI4TH)


def test_momentum_displacement_moves_the_peak():
    # exp(i mean_p y) in the position wavefunction puts the momentum peak at
    # +mean_p; cross-checked against a dense direct Fourier transform
    state = GaussianState(0.0, 2.0, 1.0)
    assert abs(eval_momentum_wavefunction(state, 2.0)) == pytest.approx(PI4TH)
    y = np.linspace(-30, 30, 20001)
    psi = np.asarray(eval_position_wavefunction(state, y))
    via_quadrature = fourier_transform_minus(y, psi, np.array([2.0, 1.3, -0.4]))
    direct = eval_momentum_wavefunction(state, np.array([2.0, 1.3, -0.4]))
    assert np.allclose(direct, via_quadrature, atol=1e-9)


def test_fock_momentum_wavefunction_phase_factor():
    # Hermite functions are Fourier eigenfunctions; |2> maps to -psi_2
    xs = np.linspace(-4, 4, 9)
    got = eval_momentum_wavefunction(fock(2), xs)
    assert np.allclose(got, -hermite_psi(2, xs), atol=1e-12)
    # and the same values come out of the integral itself
    y = np.linspace(-25, 25, 20001)
    psi = np.asarray(eval_position_wavefunction(fock(2), y))
    assert np.allclose(fourier_transform_minus(y, psi, xs), got, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_normalization_and_parseval_by_quadrature(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng)
    if isinstance(state, MixedState):
        components = state.components
    else:
        components = ((1.0, state),)
    for _, pure in components:
        y = np.linspace(-40, 40, 40001)
        pos = np.abs(np.asarray(eval_position_wavefunction(pure, y))) ** 2
        mom = np.abs(np.asarray(eval_momentum_wavefunction(pure, y))) ** 2
        assert np.trapezoid(pos, y) == pytest.approx(1.0, abs=1e-8)
        assert np.trapezoid(mom, y) == pytest.approx(1.0, abs=1e-8)


# --------------------------------------------------------------------------
# closed-form moments
# --------------------------------------------------------------------------

def test_vacuum_moments():
    m = analytic_moments(vacuum(), 0.0)
    assert m.mean == pytest.approx(0.0)
    assert m.variance == pytest.approx(0.5)


def test_fock_two_moments_match_density_quadrature():
    for theta in (0.0, 0.7, math.pi / 2):
        m = analytic_moments(fock(2), theta)
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        assert m.variance == pytest.approx(2.5, abs=1e-12)
    xs = np.linspace(-12, 12, 12001)
    density = np.abs(hermite_psi(2, xs)) ** 2
    assert trapz_var(xs, density) == pytest.approx(2.5, abs=1e-9)


def test_squeezed_rotated_variance():
    m = analytic_moments(GaussianState(0.0, 0.0, 2.0), math.pi / 4)
    assert m.variance == pytest.approx(0.625)


def test_fock_superposition_moments_match_density_quadrature():
    state = FockSuperposition((0.5, 0.5j, -0.3, 0.2 + 0.1j))
    theta = 0.9
    m = analytic_moments(state, theta)
    xs = np.linspace(-15, 15, 15001)
    rotated = [c * np.exp(-1j * n * theta) for n, c in enumerate(state.coeffs)]
    density = np.abs(sum(c * hermite_psi(n, xs) for n, c in enumerate(rotated))) ** 2
    assert m.mean == pytest.approx(
        float(np.trapezoid(density * xs, xs)), abs=1e-9
    )
    assert m.variance == pytest.approx(trapz_var(xs, density), abs=1e-9)


def test_mixture_moments_follow_total_variance_law():
    a = GaussianState(1.0, 0.0, 1.0)
    b = GaussianState(-2.0, 0.5, 3.0)
    mix = MixedState(((0.3, a), (0.7, b)))
    theta = 0.4
    ma, mb, mm = (analytic_moments(s, theta) for s in (a, b, mix))
    mean = 0.3 * ma.mean + 0.7 * mb.mean
    var = (
        0.3 * (ma.variance + ma.mean ** 2)
        + 0.7 * (mb.variance + mb.mean ** 2)
        - mean ** 2
    )
    assert mm.mean == pytest.approx(mean, abs=1e-12)
    assert mm.variance == pytest.approx(var, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-10.0, 10.0))
def test_moments_match_dense_trapezoid_moments_of_the_row(seed, theta):
    # Gaussians, Fock superpositions up to cutoff 8 and two-component mixtures
    state = random_state(np.random.default_rng(seed))
    xs = np.linspace(-30.0, 30.0, 6001)
    row = state_row(state, theta, xs)
    m = analytic_moments(state, theta)
    assert m.mean == pytest.approx(trapz_mean(xs, row), abs=1e-9)
    assert m.variance == pytest.approx(trapz_var(xs, row), abs=1e-9)


@given(
    theta=st.floats(-10.0, 10.0),
    mq=st.floats(-3.0, 3.0),
    mp=st.floats(-3.0, 3.0),
    log_s=st.floats(math.log(0.1), math.log(10.0)),
)
def test_half_turn_negates_mean_and_keeps_variance(theta, mq, mp, log_s):
    state = GaussianState(mq, mp, math.exp(log_s))
    a = analytic_moments(state, theta)
    b = analytic_moments(state, theta + math.pi)
    assert b.mean == pytest.approx(-a.mean, abs=1e-9)
    assert b.variance == pytest.approx(a.variance, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_analytic_uncertainty_product_respects_bound(seed):
    state = random_state(np.random.default_rng(seed))
    v0 = analytic_moments(state, 0.0).variance
    v1 = analytic_moments(state, math.pi / 2).variance
    assert v0 * v1 >= 0.25 - 1e-12


def test_thermal_state_truncation_and_moments():
    state = thermal_state(1.0)
    weights = [w for w, _ in state.components]
    assert abs(sum(weights) - 1.0) < 1e-10
    assert 1.0 - sum(weights) < 1e-10
    assert weights[0] == pytest.approx(0.5)
    assert weights[1] == pytest.approx(0.25)
    for theta in (0.0, 1.1):
        m = analytic_moments(state, theta)
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        # truncated weight sits at large n, so the variance deficit is
        # roughly (cutoff + 1/2) * tail ~ 2e-9
        assert m.variance == pytest.approx(1.5, abs=1e-8)


@pytest.mark.parametrize("tail", [0.0, -1.0, math.nan, math.inf, 1.0, 2.0])
def test_thermal_state_rejects_a_tail_outside_zero_to_one(tail):
    with pytest.raises(InputError, match="tail must lie in"):
        thermal_state(1.0, tail=tail)


# --------------------------------------------------------------------------
# JSON state specs
# --------------------------------------------------------------------------

finite_coeff = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)
).map(lambda t: complex(*t))

gaussian_states = st.builds(
    GaussianState,
    mean_q=st.floats(-3.0, 3.0),
    mean_p=st.floats(-3.0, 3.0),
    squeeze=st.floats(0.1, 10.0),
)
fock_states = st.lists(finite_coeff, min_size=1, max_size=9).filter(
    lambda cs: sum(abs(c) ** 2 for c in cs) > 1e-6
).map(lambda cs: FockSuperposition(tuple(cs)))
pure_states = st.one_of(gaussian_states, fock_states)
any_states = st.one_of(
    pure_states,
    st.tuples(st.floats(0.05, 0.95), pure_states, pure_states).map(
        lambda t: MixedState(((t[0], t[1]), (1.0 - t[0], t[2])))
    ),
)


@given(state=any_states)
def test_state_dict_round_trip(state):
    again = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
    assert type(again) is type(state)
    assert analytic_moments(again, 0.3).variance == pytest.approx(
        analytic_moments(state, 0.3).variance, abs=1e-12
    )
    assert analytic_moments(again, 0.3).mean == pytest.approx(
        analytic_moments(state, 0.3).mean, abs=1e-12
    )


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    state = GaussianState(0.5, -1.5, 2.0)
    save_state(state, path)
    assert load_state(path) == state


def test_unknown_fields_rejected():
    with pytest.raises(InputError, match="unknown"):
        state_from_dict(
            {"type": "gaussian", "mean_q": 0, "mean_p": 0, "squeeze": 1, "extra": 2}
        )


def test_missing_fields_rejected():
    with pytest.raises(InputError, match="missing"):
        state_from_dict({"type": "gaussian", "mean_q": 0})


def test_unknown_type_rejected():
    with pytest.raises(InputError, match="unknown state type"):
        state_from_dict({"type": "wigner"})


def test_bad_fock_coefficients_rejected():
    with pytest.raises(InputError):
        state_from_dict({"type": "fock", "coeffs": [[1.0]]})
    with pytest.raises(InputError):
        state_from_dict({"type": "fock", "coeffs": [[1.0, "x"]]})


def test_nested_mixture_rejected():
    inner = {"type": "mixed", "components": [{"weight": 1.0, "state": {"type": "gaussian", "mean_q": 0, "mean_p": 0, "squeeze": 1}}]}
    with pytest.raises(InputError, match="pure"):
        state_from_dict({"type": "mixed", "components": [{"weight": 1.0, "state": inner}]})
