import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hyp_st

from optomo import (
    GaussianState,
    HomodyneDataset,
    InputError,
    empirical_trifonov,
    estimate_moments,
    fock,
    load_dataset_csv,
    sample,
    save_dataset_csv,
    vacuum,
)
from oracles import random_state

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
    with pytest.raises(InputError):
        sample(vacuum(), [(math.pi, 10)], seed=1)  # phases live on [0, pi)
    with pytest.raises(InputError):
        sample(vacuum(), [(-0.1, 10)], seed=1)
    with pytest.raises(InputError):
        sample(vacuum(), [(0.0, 10)], seed=1.5)


def test_dataset_invariants():
    with pytest.raises(InputError):
        HomodyneDataset(np.array([0.0, math.pi]), np.array([0.0, 1.0]), 0, "x")
    with pytest.raises(InputError):
        HomodyneDataset(np.array([0.0]), np.array([math.inf]), 0, "x")


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


def test_classical_dataset_violates_the_bound():
    rng = np.random.default_rng(5)
    n = 100_000
    xs = rng.normal(0.0, math.sqrt(0.1), size=2 * n)
    thetas = np.concatenate([np.zeros(n), np.full(n, HALF_PI)])
    ds = HomodyneDataset(thetas, xs, seed=5, state_label="classical-witness")
    rep = empirical_trifonov(ds, ds, 0.0)
    assert rep.lhs == pytest.approx(0.01, abs=2e-3)
    assert not rep.satisfied


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


def test_dataset_metadata_content(tmp_path):
    ds = sample(vacuum(), [(0.0, 50)], seed=4)
    path = tmp_path / "d.csv"
    save_dataset_csv(ds, path)
    meta = json.loads((tmp_path / "d.json").read_text())
    assert meta["seed"] == 4
    assert "gaussian" in meta["state_label"]
    assert "PCG64" in meta["generator"]


def test_negative_seed_is_an_input_error():
    with pytest.raises(InputError, match="non-negative"):
        sample(vacuum(), [(0.0, 40)], seed=-1)
