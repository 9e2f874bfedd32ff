"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values are closed forms frozen from independent derivations; see
tests/oracles.py for the brute-force cross-checks backing them.
"""

import math
import time

import numpy as np
import pytest

from optomo import (
    FockSuperposition,
    GaussianState,
    MixedState,
    analytic_moments,
    empirical_trifonov,
    estimate_moments,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    fock,
    gaussian_row,
    heisenberg_lhs,
    optical_tomogram,
    purity_overlap,
    sample,
    symplectic_tomogram,
    thermal_state,
    tomogram_grid,
    tomographic_moments,
    trifonov_lhs,
    trifonov_sweep,
    uniform_phases,
    vacuum,
)
from optomo.tomography import TomogramGrid
from oracles import random_pure_state, random_state

S2 = GaussianState(0.0, 0.0, 2.0)
SHALF = GaussianState(0.0, 0.0, 0.5)
HALF_PI = math.pi / 2
AXES = np.array([0.0, HALF_PI])


def _announce(num, name):
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


def test_c01_vacuum_saturation():
    start = time.perf_counter()
    grid = tomogram_grid(vacuum())
    report = heisenberg_lhs(grid)
    elapsed = time.perf_counter() - start
    assert report.lhs == pytest.approx(0.25, abs=1e-6)
    assert report.satisfied
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(1, "vacuum saturation")


def test_c02_fock_ladder():
    for n in range(4):
        grid = tomogram_grid(fock(n), phases=4)
        for theta in grid.phases:
            m = tomographic_moments(grid, float(theta))
            assert m.variance == pytest.approx(n + 0.5, abs=1e-6)
        report = heisenberg_lhs(grid)
        assert report.lhs == pytest.approx((n + 0.5) ** 2, abs=1e-5)
    _announce(2, "fock ladder variances and products")


def test_c03_opposite_squeezing_closed_forms():
    w1 = tomogram_grid(S2)
    w2 = tomogram_grid(SHALF)
    assert trifonov_lhs(w1, w2, 0.0).lhs == pytest.approx(0.53125, abs=1e-6)
    assert trifonov_lhs(w1, w2, math.pi / 4).lhs == pytest.approx(0.390625, abs=1e-6)
    sweep = trifonov_sweep(w1, w2)
    step = math.pi / w1.n_phases
    assert abs(sweep.phase - math.pi / 4) <= step + 1e-12
    assert sweep.lhs == pytest.approx(0.390625, abs=1e-6)
    _announce(3, "opposite-squeezing closed-form pair")


def test_c04_identical_pair_reduction():
    for seed in range(50):
        state = random_state(np.random.default_rng(10_000 + seed))
        grid = tomogram_grid(state, phases=AXES)
        pair = trifonov_lhs(grid, grid, 0.0)
        single = heisenberg_lhs(grid)
        assert abs(pair.lhs - single.lhs) < 1e-8
    _announce(4, "identical-pair reduction, 50 random states")


def test_c05_bound_property_and_classical_witness():
    start = time.perf_counter()
    worst = math.inf
    for seed in range(200):
        rng = np.random.default_rng(20_000 + seed)
        s1, s2 = random_pure_state(rng), random_pure_state(rng)
        offset = rng.uniform(0.0, math.pi / 8)
        phases = offset + np.arange(8) * (math.pi / 8)
        w1 = tomogram_grid(s1, phases)
        w2 = tomogram_grid(s2, phases)
        for theta in phases:
            report = trifonov_lhs(w1, w2, float(theta))
            worst = min(worst, report.margin)
            assert report.margin >= -1e-9
    # sub-quantum rows with Var = 0.1 at every phase violate the bound
    xs = np.linspace(-4.0, 4.0, 257)
    row = gaussian_row(xs, 0.0, 0.1)
    row = row / np.trapezoid(row, xs)
    witness = TomogramGrid(uniform_phases(8), xs, np.tile(row, (8, 1)))
    violation = trifonov_lhs(witness, witness, 0.0)
    assert violation.lhs == pytest.approx(0.01, abs=1e-4)
    assert not violation.satisfied
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(5, f"bound property, 200 pairs x 8 phases (worst margin {worst:.2e})")


def test_c06_moment_oracle_equivalence():
    battery = [
        vacuum(),
        GaussianState(1.0, -0.5, 1.0),
        S2,
        GaussianState(0.7, 1.2, 0.5),
        fock(0),
        fock(1),
        fock(2),
        fock(3),
        FockSuperposition((0.5, 0.5j, -0.3, 0.2 + 0.1j)),
        MixedState(((0.3, GaussianState(1.0, 0.0, 1.0)), (0.7, fock(2)))),
        thermal_state(1.0),
    ]
    worst = 0.0
    for state in battery:
        grid = tomogram_grid(state, phases=64)
        for theta in grid.phases:
            oracle = analytic_moments(state, float(theta))
            m = tomographic_moments(grid, float(theta))
            worst = max(worst, abs(m.mean - oracle.mean), abs(m.variance - oracle.variance))
            assert m.mean == pytest.approx(oracle.mean, abs=1e-6)
            assert m.variance == pytest.approx(oracle.variance, abs=1e-6)
    _announce(6, f"moment oracle equivalence, 64 phases (worst dev {worst:.2e})")


def test_c07_endpoint_and_branch_consistency():
    states = [GaussianState(1.0, 2.0, 1.0), FockSuperposition((0.6, 0.0, 0.8j))]
    xs = np.linspace(-6.0, 6.0, 121)
    for state in states:
        position_marginal = np.abs(np.asarray(eval_position_wavefunction(state, xs))) ** 2
        momentum_marginal = np.abs(np.asarray(eval_momentum_wavefunction(state, xs))) ** 2
        via_quadrature = optical_tomogram(state, 0.0, xs, branch="momentum")
        assert np.max(np.abs(via_quadrature - position_marginal)) < 1e-8
        via_quadrature = optical_tomogram(state, HALF_PI, xs, branch="position")
        assert np.max(np.abs(via_quadrature - momentum_marginal)) < 1e-8
        for theta in (math.pi / 4 - 0.2, math.pi / 4 + 0.2):
            a = optical_tomogram(state, theta, xs, branch="position")
            b = optical_tomogram(state, theta, xs, branch="momentum")
            assert np.max(np.abs(a - b)) < 1e-7
    _announce(7, "endpoint marginals and dual-branch agreement")


def test_c08_scaling_homogeneity():
    probes = [(0.6, 1.0, 0.4), (-0.4, 0.3, -1.1), (0.2, -0.8, 0.5), (0.0, 2.0, 0.0)]
    for state in (S2, fock(1)):
        grid = tomogram_grid(state, phases=16)
        for lam in (0.5, 2.0, 3.0):
            for source in (state, grid):
                for x, mu, nu in probes:
                    lhs = symplectic_tomogram(source, lam * x, lam * mu, lam * nu)
                    rhs = symplectic_tomogram(source, x, mu, nu) / lam
                    assert lhs == pytest.approx(rhs, abs=1e-6)
    _announce(8, "symplectic scaling homogeneity")


def test_c09_overlap_functional_values():
    start = time.perf_counter()
    assert purity_overlap(vacuum(), vacuum()) == pytest.approx(1.0, abs=1e-3)
    assert purity_overlap(fock(1), fock(1)) == pytest.approx(1.0, abs=1e-3)
    assert purity_overlap(S2, S2) == pytest.approx(1.0, abs=1e-3)
    th = thermal_state(1.0)
    assert purity_overlap(th, th) == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert purity_overlap(vacuum(), fock(1)) == pytest.approx(0.0, abs=1e-3)
    mix = MixedState(((0.5, fock(0)), (0.5, fock(1))))
    assert purity_overlap(mix, mix) == pytest.approx(0.5, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _announce(9, "overlap functional values")


def test_c10_monte_carlo_contract():
    start = time.perf_counter()
    n_top = 100_000
    schedule = [(0.0, n_top), (HALF_PI, n_top)]
    hits = 0
    for seed in range(20):
        ds1 = sample(S2, schedule, seed=seed)
        ds2 = sample(SHALF, schedule, seed=1_000 + seed)
        report = empirical_trifonov(ds1, ds2, 0.0)
        if abs(report.lhs - 0.53125) <= 3.0 * report.stderr:
            hits += 1
    assert hits >= 19, f"only {hits}/20 seeds within 3 stderr"

    for state, truth in ((S2, 1.0), (SHALF, 0.25)):
        medians = []
        for n in (1_000, 10_000, 100_000):
            in_band = 0
            errs = []
            for seed in range(20):
                ds = sample(state, [(0.0, n)], seed=5_000 + seed)
                est = estimate_moments(ds, 0.0)
                errs.append(abs(est.variance - truth))
                if abs(est.variance - truth) <= 3.0 * est.variance_stderr:
                    in_band += 1
            assert in_band >= 19, f"N={n}: only {in_band}/20 within 3 SE"
            medians.append(float(np.median(errs)))
        assert medians[2] < medians[0], f"no convergence: {medians}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _announce(10, f"monte-carlo contract ({hits}/20 seeds in band)")


def test_c11_determinism():
    schedule = [(0.0, 2_000), (HALF_PI, 2_000)]
    ds_a = sample(S2, schedule, seed=31)
    ds_b = sample(S2, schedule, seed=31)
    assert np.array_equal(ds_a.xs, ds_b.xs)
    assert np.array_equal(ds_a.thetas, ds_b.thetas)
    other_a = sample(SHALF, schedule, seed=32)
    other_b = sample(SHALF, schedule, seed=32)
    rep_a = empirical_trifonov(ds_a, other_a, 0.0)
    rep_b = empirical_trifonov(ds_b, other_b, 0.0)
    assert rep_a.to_json() == rep_b.to_json()
    grid_a = tomogram_grid(S2, phases=8)
    grid_b = tomogram_grid(S2, phases=8)
    assert np.array_equal(grid_a.values, grid_b.values)
    _announce(11, "bitwise determinism of datasets and reports")
