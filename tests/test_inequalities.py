import json
import math

import numpy as np
import pytest

from optomo import (
    BOUND,
    GaussianState,
    InequalityReport,
    InputError,
    TomogramGrid,
    analytic_moments,
    fock,
    gaussian_row,
    heisenberg_lhs,
    operator_trifonov_lhs,
    tomogram_grid,
    tomographic_variance,
    trifonov_lhs,
    trifonov_sweep,
    uniform_phases,
    vacuum,
)
from optomo.tomography import DEFAULT_N_PHASES
from oracles import random_pure_state, random_state, state_row, trapz_var

S2 = GaussianState(0.0, 0.0, 2.0)
SHALF = GaussianState(0.0, 0.0, 0.5)


def classical_witness_grid(variance=0.1, n_phases=8, n_x=257):
    """Sub-quantum rows: identical Gaussians of the given variance at every
    phase.  Not derived from any wavefunction."""
    xs = np.linspace(-4.0, 4.0, n_x)
    row = gaussian_row(xs, 0.0, variance)
    row = row / np.trapezoid(row, xs)
    phases = uniform_phases(n_phases)
    return TomogramGrid(phases, xs, np.tile(row, (n_phases, 1)))


# --------------------------------------------------------------------------
# single-state product check
# --------------------------------------------------------------------------

def test_vacuum_saturates_the_bound():
    rep = heisenberg_lhs(tomogram_grid(vacuum(), phases=4))
    assert rep.lhs == pytest.approx(0.25, abs=1e-9)
    assert rep.margin == pytest.approx(0.0, abs=1e-9)
    assert rep.satisfied
    assert rep.kind == "heisenberg"
    assert rep.bound == BOUND


def test_single_photon_product():
    rep = heisenberg_lhs(tomogram_grid(fock(1), phases=4))
    assert rep.lhs == pytest.approx(2.25, abs=1e-7)


def test_pure_squeezed_state_saturates():
    rep = heisenberg_lhs(tomogram_grid(S2, phases=4))
    assert rep.lhs == pytest.approx(0.25, abs=1e-8)


def test_missing_axes_phases_rejected():
    grid = tomogram_grid(vacuum(), phases=np.array([0.3, 0.9]))
    with pytest.raises(InputError, match="not on the grid"):
        heisenberg_lhs(grid)


# --------------------------------------------------------------------------
# two-state cross product
# --------------------------------------------------------------------------

def test_identical_vacuum_pair_reduces_to_single_state_check():
    grid = tomogram_grid(vacuum(), phases=4)
    rep = trifonov_lhs(grid, grid, 0.0)
    assert rep.lhs == pytest.approx(0.25, abs=1e-9)


def test_squeezed_pair_closed_form_values():
    w1 = tomogram_grid(S2, phases=8)
    w2 = tomogram_grid(SHALF, phases=8)
    assert trifonov_lhs(w1, w2, 0.0).lhs == pytest.approx(0.53125, abs=1e-7)
    assert trifonov_lhs(w1, w2, math.pi / 4).lhs == pytest.approx(0.390625, abs=1e-7)


def test_two_state_check_is_symmetric():
    w1 = tomogram_grid(S2, phases=8)
    w2 = tomogram_grid(fock(1), phases=8)
    a = trifonov_lhs(w1, w2, math.pi / 8)
    b = trifonov_lhs(w2, w1, math.pi / 8)
    assert a.lhs == b.lhs  # exactly: the symmetrized sum commutes


@pytest.mark.parametrize("seed", range(10))
def test_identical_arguments_recover_the_single_state_product(seed):
    state = random_pure_state(np.random.default_rng(seed))
    grid = tomogram_grid(state, phases=8)
    pair = trifonov_lhs(grid, grid, 0.0)
    single = heisenberg_lhs(grid)
    assert abs(pair.lhs - single.lhs) < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_grid_route_matches_closed_form_route(seed):
    rng = np.random.default_rng(100 + seed)
    s1, s2 = random_pure_state(rng), random_pure_state(rng)
    w1 = tomogram_grid(s1, phases=8)
    w2 = tomogram_grid(s2, phases=8)
    assert trifonov_lhs(w1, w2, 0.0).lhs == pytest.approx(
        operator_trifonov_lhs(s1, s2), abs=1e-6
    )


@pytest.mark.parametrize("seed", range(12))
def test_bound_holds_for_random_quantum_pairs(seed):
    rng = np.random.default_rng(200 + seed)
    s1, s2 = random_pure_state(rng), random_pure_state(rng)
    offset = rng.uniform(0.0, math.pi / 4)
    phases = offset + np.arange(4) * (math.pi / 4)
    w1 = tomogram_grid(s1, phases)
    w2 = tomogram_grid(s2, phases)
    for theta in phases:
        assert trifonov_lhs(w1, w2, float(theta)).margin >= -1e-9


@pytest.mark.parametrize(
    "phase, stored", [(math.pi / 2 - 1e-12, math.pi / 2), (-1e-12, 0.0), (math.pi - 1e-12, 0.0)]
)
def test_phases_just_below_a_stored_phase_read_it(phase, stored):
    w1 = tomogram_grid(GaussianState(0.8, -0.5, 2.0), phases=8)
    w2 = tomogram_grid(fock(1), phases=8)
    assert tomographic_variance(w1, phase) == tomographic_variance(w1, stored)
    assert trifonov_lhs(w1, w2, phase).lhs == trifonov_lhs(w1, w2, stored).lhs


def test_classical_rows_violate_the_bound():
    witness = classical_witness_grid()
    rep = trifonov_lhs(witness, witness, 0.0)
    assert rep.lhs == pytest.approx(0.01, abs=1e-4)
    assert not rep.satisfied
    assert rep.margin < 0


# --------------------------------------------------------------------------
# operator-route oracle
# --------------------------------------------------------------------------

def test_operator_route_closed_form_values():
    assert operator_trifonov_lhs(vacuum(), vacuum()) == pytest.approx(0.25)
    assert operator_trifonov_lhs(fock(1), vacuum()) == pytest.approx(0.75)
    assert operator_trifonov_lhs(S2, SHALF) == pytest.approx(0.53125)


# --------------------------------------------------------------------------
# phase sweep
# --------------------------------------------------------------------------

def test_vacuum_sweep_is_flat_at_the_bound():
    grid = tomogram_grid(vacuum(), phases=64)
    rep = trifonov_sweep(grid, grid)
    assert rep.kind == "trifonov_sweep"
    assert rep.lhs == pytest.approx(0.25, abs=1e-8)
    for theta in grid.phases[::8]:
        assert trifonov_lhs(grid, grid, float(theta)).lhs == pytest.approx(0.25, abs=1e-8)


def test_identical_squeezed_pair_minimum_sits_at_zero():
    grid = tomogram_grid(S2, phases=64)
    rep = trifonov_sweep(grid, grid)
    assert rep.lhs == pytest.approx(0.25, abs=1e-8)
    assert rep.phase == 0.0  # ties break toward the smallest phase


def test_opposite_squeezing_minimum_near_quarter_pi():
    w1 = tomogram_grid(S2, phases=64)
    w2 = tomogram_grid(SHALF, phases=64)
    rep = trifonov_sweep(w1, w2)
    assert rep.lhs == pytest.approx(0.390625, abs=1e-6)
    assert abs(rep.phase - math.pi / 4) <= math.pi / 64 + 1e-12


def test_empty_sweep_rejected():
    grid = tomogram_grid(vacuum(), phases=4)
    with pytest.raises(InputError, match="non-empty"):
        trifonov_sweep(grid, grid, [])


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def test_report_json_round_trip():
    rep = trifonov_lhs(tomogram_grid(S2, phases=4), tomogram_grid(SHALF, phases=4), 0.0)
    parsed = InequalityReport.from_dict(json.loads(rep.to_json()))
    assert parsed == rep


def test_report_field_layout():
    rep = heisenberg_lhs(tomogram_grid(vacuum(), phases=4))
    d = rep.to_dict()
    fields = ["kind", "phase", "lhs", "bound", "margin", "satisfied", "stderr", "tolerance"]
    assert list(d) == fields
    assert rep.to_json() == json.dumps({name: getattr(rep, name) for name in fields})
    assert d["stderr"] is None
    assert d["bound"] == 0.25
    rep = InequalityReport("trifonov", 0.5, 0.3, 0.25, 0.05, True, 0.01, 0.03)
    assert rep.to_json() == (
        '{"kind": "trifonov", "phase": 0.5, "lhs": 0.3, "bound": 0.25, '
        '"margin": 0.05, "satisfied": true, "stderr": 0.01, "tolerance": 0.03}'
    )


def test_sweep_ties_go_to_the_smallest_phase_in_any_order():
    # every row is the same density, so every phase gives the same lhs bits
    phases = uniform_phases(8)
    xs = np.linspace(-6.0, 6.0, 257)
    grid = TomogramGrid(phases, xs, np.tile(gaussian_row(xs, 0.2, 0.7), (8, 1)))
    (lhs,) = {trifonov_lhs(grid, grid, theta).lhs for theta in phases}
    for order in (phases[::-1], np.roll(phases, 3), phases):
        rep = trifonov_sweep(grid, grid, order)
        assert (rep.phase, rep.lhs) == (0.0, lhs)


def test_report_rejects_foreign_bound_or_kind():
    with pytest.raises(InputError):
        InequalityReport("heisenberg", 0.0, 1.0, 0.5, 0.5, True)
    with pytest.raises(InputError):
        InequalityReport("banana", 0.0, 1.0, 0.25, 0.75, True)


# --------------------------------------------------------------------------
# states: the checks read a state's closed form, a grid's stored rows
# --------------------------------------------------------------------------

def _closed_form_variance(state, phase):
    return analytic_moments(state, phase).variance


@pytest.mark.parametrize("seed", range(8))
def test_a_state_pair_gives_the_operator_lhs_bit_for_bit(seed):
    rng = np.random.default_rng(2500 + seed)
    s1, s2 = random_state(rng), random_state(rng)
    for theta in (0.0, 0.3, math.pi / 2, 2.0, 3.0, -1.2, 7.5, 1e3):
        lhs = trifonov_lhs(s1, s2, theta).lhs
        assert lhs == operator_trifonov_lhs(s1, s2, theta)
        # the closed form at the unreduced phases agrees to rounding
        other = theta + math.pi / 2
        direct = 0.5 * _closed_form_variance(s1, theta) * _closed_form_variance(s2, other)
        direct += 0.5 * _closed_form_variance(s2, theta) * _closed_form_variance(s1, other)
        assert lhs == pytest.approx(direct, rel=1e-11)


@pytest.mark.parametrize("seed", range(8))
def test_a_state_heisenberg_product_is_the_closed_form_product(seed):
    state = random_state(np.random.default_rng(2600 + seed))
    want = _closed_form_variance(state, 0.0) * _closed_form_variance(state, math.pi / 2)
    rep = heisenberg_lhs(state)
    assert (rep.kind, rep.phase, rep.lhs) == ("heisenberg", 0.0, want)
    assert heisenberg_lhs(vacuum()).lhs == 0.25


_DENSE_XS = np.linspace(-30.0, 30.0, 6001)


@pytest.mark.parametrize("seed", range(10))
def test_state_checks_match_dense_trapezoid_variances(seed):
    # an oracle outside the closed form: each variance is a trapezoid sum over
    # the state's explicit row (Hermite polynomials, Gaussian densities, the
    # mixture's weighted rows); on this grid the sums agree with the closed
    # form to within 1e-14 relative at every phase of these seeds, and 1e-9
    # leaves room for rounding in the products
    rng = np.random.default_rng(2700 + seed)
    s1, s2 = random_state(rng), random_state(rng)
    phases = uniform_phases(DEFAULT_N_PHASES).tolist()
    theta = float(rng.uniform(-math.pi, 2.0 * math.pi))
    var = {
        (state, phase): trapz_var(_DENSE_XS, state_row(state, phase, _DENSE_XS))
        for state in (s1, s2)
        for phase in [0.0, theta] + phases
        for phase in (phase, phase + math.pi / 2)
    }

    def cross(phase):
        other = phase + math.pi / 2
        return 0.5 * var[s1, phase] * var[s2, other] + 0.5 * var[s2, phase] * var[s1, other]

    for state in (s1, s2):
        want = var[state, 0.0] * var[state, math.pi / 2]
        assert heisenberg_lhs(state).lhs == pytest.approx(want, rel=1e-9)
    assert trifonov_lhs(s1, s2, theta).lhs == pytest.approx(cross(theta), rel=1e-9)
    sweep = trifonov_sweep(s1, s2)
    assert sweep.phase in phases
    assert sweep.lhs == pytest.approx(min(map(cross, phases)), rel=1e-9)
    assert sweep.lhs == pytest.approx(cross(sweep.phase), rel=1e-9)


def test_a_state_pairs_with_a_grid():
    grid = tomogram_grid(S2, phases=16)
    for theta in grid.phases[::3].tolist():
        rep = trifonov_lhs(SHALF, grid, theta)
        assert rep.lhs == trifonov_lhs(grid, SHALF, theta).lhs
        assert rep.lhs == pytest.approx(operator_trifonov_lhs(SHALF, S2, theta), abs=1e-9)
    # the sweep runs over the grid's phases; pi/4 is one of them
    rep = trifonov_sweep(SHALF, grid)
    assert rep == trifonov_sweep(SHALF, grid, grid.phases)
    assert rep.phase == math.pi / 4
    assert rep.lhs == pytest.approx(0.390625, abs=1e-9)


def test_a_sweep_of_two_grids_runs_over_the_phases_both_hold():
    g16 = tomogram_grid(S2, phases=16)
    g8 = tomogram_grid(SHALF, phases=8)
    rep = trifonov_sweep(g16, g8)
    assert rep == trifonov_sweep(g16, g8, g8.phases) == trifonov_sweep(g8, g16)
    assert rep.phase == math.pi / 4
    off = tomogram_grid(SHALF, phases=g8.phases + 0.1)
    with pytest.raises(InputError, match="no phase in common"):
        trifonov_sweep(g16, off)


def test_a_sweep_of_two_states_runs_over_the_default_phases():
    rep = trifonov_sweep(S2, SHALF)
    phases = uniform_phases(DEFAULT_N_PHASES)
    assert rep == trifonov_sweep(S2, SHALF, phases)
    assert (rep.lhs, rep.phase) == min(
        (operator_trifonov_lhs(S2, SHALF, theta), theta) for theta in phases.tolist()
    )
    assert rep.lhs == pytest.approx(0.390625, abs=1e-12)


def test_state_checks_refuse_unreducible_phases_and_other_objects():
    grid = tomogram_grid(vacuum(), phases=4)
    calls = [
        lambda: trifonov_lhs(vacuum(), vacuum(), 1e57),
        lambda: trifonov_lhs(vacuum(), grid, -1e57),
        lambda: operator_trifonov_lhs(fock(1), S2, 1e57),
        lambda: trifonov_sweep(vacuum(), S2, [0.0, 1e57]),
    ]
    for call in calls:
        with pytest.raises(InputError, match="cannot be reduced mod pi"):
            call()
    for call in (lambda: trifonov_lhs("x", grid, 0.0), lambda: heisenberg_lhs(None)):
        with pytest.raises(InputError, match="expected a state"):
            call()
