import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hyp_st

from optomo import (
    FockSuperposition,
    GaussianState,
    InputError,
    MixedState,
    ResolutionError,
    TomogramGrid,
    fock,
    gaussian_row,
    purity_classify,
    purity_overlap,
    thermal_state,
    tomogram_grid,
    uniform_phases,
    vacuum,
)
import optomo.purity as purity_module
from optomo import quadrature
from optomo.states import MAX_FOCK_CUTOFF, _fock_amplitudes
from optomo.tomography import tomogram_characteristic
from oracles import (
    fock_trace_product,
    gaussian_wavefunction,
    hermite_psi,
    random_state,
    trace_product,
)


def test_every_pure_family_has_unit_self_overlap():
    for state in (
        vacuum(),
        fock(1),
        fock(3),
        GaussianState(0.0, 0.0, 2.0),
        GaussianState(1.3, -0.8, 2.5),
        FockSuperposition((0.5, 0.5j, -0.3, 0.2 + 0.1j)),
    ):
        assert purity_overlap(state, state) == pytest.approx(1.0, abs=1e-3)


def test_orthogonal_states_have_zero_overlap():
    assert purity_overlap(vacuum(), fock(1)) == pytest.approx(0.0, abs=1e-3)


def test_thermal_self_overlap():
    state = thermal_state(1.0)
    assert purity_overlap(state, state) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_equal_mixture_self_overlap():
    mix = MixedState(((0.5, fock(0)), (0.5, fock(1))))
    assert purity_overlap(mix, mix) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
def test_two_component_mixture_follows_weight_squares(lam):
    if lam in (0.0, 1.0):
        # degenerate mixtures are just the surviving pure component
        state = fock(1) if lam == 0.0 else fock(0)
        expected = 1.0
    else:
        state = MixedState(((lam, fock(0)), (1.0 - lam, fock(1))))
        expected = lam ** 2 + (1.0 - lam) ** 2
    assert purity_overlap(state, state) == pytest.approx(expected, abs=1e-3)


def test_displaced_vacuum_cross_overlap():
    # overlap with the vacuum is exp(-(mq^2 + mp^2)/2)
    state = GaussianState(1.0, 0.5, 1.0)
    expected = math.exp(-(1.0 ** 2 + 0.5 ** 2) / 2.0)
    assert purity_overlap(vacuum(), state) == pytest.approx(expected, abs=1e-6)


def test_overlap_is_symmetric():
    a = GaussianState(0.4, -0.2, 1.8)
    b = FockSuperposition((0.6, 0.8))
    assert abs(purity_overlap(a, b) - purity_overlap(b, a)) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_self_overlap_stays_in_the_unit_interval(seed):
    state = random_state(np.random.default_rng(300 + seed))
    value = purity_overlap(state, state)
    assert -1e-6 <= value <= 1.0 + 1e-6


def test_grid_route_agrees_with_state_route():
    state = FockSuperposition((0.8, 0.0, 0.6))
    grid = tomogram_grid(state, phases=64)
    assert purity_overlap(grid, grid) == pytest.approx(
        purity_overlap(state, state), abs=1e-4
    )


def test_classify_labels_and_report_fields():
    rep = purity_classify(vacuum())
    assert rep.classification == "pure"
    assert rep.overlap == pytest.approx(1.0, abs=1e-3)
    assert rep.to_dict() == {
        "overlap": rep.overlap,
        "classification": "pure",
        "tolerance": 1e-3,
    }
    assert list(rep.to_dict()) == ["overlap", "classification", "tolerance"]
    rep = purity_module.PurityReport(overlap=0.5, classification="mixed", tolerance=1e-3)
    assert rep.to_json() == '{"overlap": 0.5, "classification": "mixed", "tolerance": 0.001}'
    rep = purity_classify(thermal_state(1.0))
    assert rep.classification == "mixed"
    assert rep.overlap == pytest.approx(1.0 / 3.0, abs=1e-3)


@pytest.mark.parametrize(
    "excess, label",
    [(-2.0, "mixed"), (-1.0, "pure"), (0.0, "pure"), (1.0, "pure"), (2.0, "non-physical")],
)
def test_classify_labels_an_overlap_above_one_plus_tol_non_physical(monkeypatch, excess, label):
    # excess is in units of the tolerance: the label's edges are 1 - tol and 1 + tol
    tol = 0.125  # a power of two, so 1 +/- excess * tol is exact
    monkeypatch.setattr(purity_module, "purity_overlap", lambda a, b: 1.0 + excess * tol)
    report = purity_classify(vacuum(), tol=tol)
    assert (report.overlap, report.classification) == (1.0 + excess * tol, label)


def test_grids_whose_overlap_exceeds_one_are_non_physical():
    # normal rows with Var(theta) = 0.6 + 0.5 sin 2 theta: a classical
    # phase-space density, the tomogram of no quantum state
    xs, phases = np.linspace(-8.0, 8.0, 256), uniform_phases(64)
    var = 0.6 + 0.5 * np.sin(2.0 * phases)
    report = purity_classify(TomogramGrid(phases, xs, gaussian_row(xs, 0.0, var[:, None])))
    assert report.overlap == pytest.approx(1.5075567228888072, abs=1e-9)
    assert report.classification == "non-physical"
    # a squeezed Gaussian's 16-phase grid under-resolves its overlap
    grid = tomogram_grid(random_state(np.random.default_rng(1115)), phases=16)
    report = purity_classify(grid)
    assert report.overlap == pytest.approx(1.0727545683960138, abs=1e-9)
    assert report.classification == "non-physical"


@pytest.mark.parametrize("junk", ["junk", None, 0.0])
def test_a_source_that_is_no_state_or_grid_is_rejected(junk):
    for a, b in ((junk, vacuum()), (vacuum(), junk), (junk, junk)):
        with pytest.raises(InputError, match="expected a TomogramGrid or state"):
            purity_overlap(a, b)


def test_classify_rejects_nonpositive_tolerance():
    with pytest.raises(InputError):
        purity_classify(vacuum(), tol=0.0)
    # an infinite tolerance would classify anything pure, and is not JSON
    with pytest.raises(InputError, match="finite"):
        purity_classify(vacuum(), tol=math.inf)


@pytest.mark.parametrize("n_x", [59, 66, 68, 82])
def test_vacuum_bare_grids_reach_their_nyquist_limit(n_x):
    # at these sizes the radial cutoff lands on pi / (2 dx) exactly, which
    # the characteristic-function guard must accept
    grid = tomogram_grid(vacuum(), phases=16, n_x=n_x)
    assert purity_overlap(grid, grid) == pytest.approx(1.0, abs=1e-9)
    assert purity_classify(grid).classification == "pure"


def test_coarse_grid_rows_are_rejected():
    xs = np.linspace(-6.0, 6.0, 16)
    row = gaussian_row(xs, 0.0, 0.5)
    row = row / np.trapezoid(row, xs)
    grid = TomogramGrid(uniform_phases(4), xs, np.tile(row, (4, 1)))
    with pytest.raises(ResolutionError):
        purity_overlap(grid, grid)


def test_mismatched_grid_phases_rejected():
    state = vacuum()
    g1 = tomogram_grid(state, phases=8)
    g2 = tomogram_grid(state, phases=16)
    with pytest.raises(InputError, match="share"):
        purity_overlap(g1, g2)


def _fock_only_state(rng, max_cutoff):
    """An oracles.random_state draw with no Gaussian component."""
    while True:
        state = random_state(rng, max_cutoff=max_cutoff)
        parts = state.components if isinstance(state, MixedState) else ((1.0, state),)
        if all(isinstance(s, FockSuperposition) for _, s in parts):
            return state


def _overlap_and_final_nodes(a, b):
    """purity_overlap(a, b) and the radial nodes and weights of the estimate
    it returned (the last refinement of its adaptive quadrature)."""
    adaptive = quadrature.adaptive
    seen = []

    def recording(f, lo, hi, **kw):
        def g(r, wts):
            seen.append((r, wts))
            return f(r, wts)

        return adaptive(g, lo, hi, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "adaptive", recording)
        value = purity_overlap(a, b)
    return value, seen[-1]


def _phase_sum(a, b, phases, r, wts):
    """The overlap as a sum over phases on [0, pi) and their parity partners,
    with the radial nodes given: the phase integral done numerically."""
    phi_a = tomogram_characteristic(a, phases, r)
    phi_b = tomogram_characteristic(b, phases, r)
    half_sum = complex(np.sum(np.sum(wts * r * phi_a * np.conj(phi_b), axis=1)))
    total = half_sum + np.conj(half_sum)
    return float((total * (math.pi / phases.size) / (2.0 * math.pi)).real)


@given(seed=hyp_st.integers(0, 2**32 - 1), same=hyp_st.booleans())
def test_fock_only_overlap_is_the_fock_trace_product(seed, same):
    rng = np.random.default_rng(seed)
    a = _fock_only_state(rng, 64)
    b = a if same else _fock_only_state(rng, 64)
    assert purity_overlap(a, b) == pytest.approx(fock_trace_product(a, b), abs=1e-11)


@given(seed=hyp_st.integers(0, 2**32 - 1), same=hyp_st.booleans())
def test_state_pairs_match_the_dense_wavefunction_oracle(seed, same):
    rng = np.random.default_rng(seed)
    a = random_state(rng, max_cutoff=16)
    b = a if same else random_state(rng, max_cutoff=16)
    assert abs(purity_overlap(a, b) - trace_product(a, b)) <= 1e-12


def test_gaussian_fock_amplitudes_match_a_dense_hermite_projection():
    y = np.linspace(-30.0, 30.0, 24001)
    herm = np.array([hermite_psi(n, y) for n in range(MAX_FOCK_CUTOFF + 1)])
    rng = np.random.default_rng(17)
    for squeeze in np.geomspace(1e-2, 1e2, 9):
        g = GaussianState(*rng.uniform(-2.0, 2.0, size=2), squeeze)
        dense = np.trapezoid(herm * gaussian_wavefunction(g, y), y, axis=1)
        assert np.max(np.abs(_fock_amplitudes(g, MAX_FOCK_CUTOFF + 1) - dense)) <= 1e-12


def test_state_pairs_take_neither_the_quadrature_nor_the_characteristic_function():
    def forbidden(*args, **kwargs):
        raise AssertionError("state pairs are summed in closed form")

    mixture = MixedState(
        ((0.4, FockSuperposition((0.6, 0.0, 0.8j))), (0.6, GaussianState(0.3, -0.5, 1.7)))
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "adaptive", forbidden)
        mp.setattr(purity_module, "tomogram_characteristic", forbidden)
        for a, b in (
            (mixture, mixture),
            (mixture, fock(2)),
            (thermal_state(1.0), vacuum()),
        ):
            purity_overlap(a, b)


def test_state_against_bare_grid_matches_the_closed_form():
    mixture = MixedState(((0.5, fock(1)), (0.5, GaussianState(0.4, 0.2, 1.5))))
    for state, other in (
        (FockSuperposition((0.8, 0.0, 0.6)), GaussianState(0.3, -0.2, 1.4)),
        (GaussianState(0.5, 0.1, 2.0), mixture),
        (thermal_state(0.5), fock(1)),
    ):
        grid = tomogram_grid(state, phases=64)
        assert purity_overlap(grid, other) == pytest.approx(trace_product(state, other), abs=1e-4)
        assert purity_overlap(other, grid) == pytest.approx(trace_product(other, state), abs=1e-4)


def test_bare_grid_pairs_average_the_stored_phases():
    state = FockSuperposition((0.8, 0.0, 0.6))
    grid = tomogram_grid(state, phases=64)
    # the same grid twice, and two equal grids
    for a, b in ((grid, grid), (grid, tomogram_grid(state, phases=64))):
        value, (r, wts) = _overlap_and_final_nodes(a, b)
        assert value == _phase_sum(a, b, grid.phases, r, wts)
