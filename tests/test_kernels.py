import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import optomo
from optomo import fock, kernels, optical_tomogram, symplectic_tomogram, tomogram_grid
from oracles import hermite_psi, random_state

rng = np.random.default_rng(1234)


def _reference_amplitudes(g, y, c, xs):
    return np.array([np.sum(g * np.exp(-1j * c * x * y)) for x in xs])


def test_amplitude_rows_matches_reference():
    g = rng.normal(size=300) + 1j * rng.normal(size=300)
    y = np.sort(rng.uniform(-8, 8, size=300))
    xs = rng.uniform(-5, 5, size=40)
    out = kernels.amplitude_rows(g, y, 1.7, xs)
    assert np.allclose(out, _reference_amplitudes(g, y, 1.7, xs), atol=1e-11)


def test_amplitude_rows_uniform_matches_general():
    g = rng.normal(size=500) + 1j * rng.normal(size=500)
    y = np.linspace(-9, 9, 500)
    x0, dx, n = -4.0, 0.013, 1200
    xs = x0 + dx * np.arange(n)
    fast = kernels.amplitude_rows_uniform(g, y, -2.3, x0, dx, n)
    slow = kernels.amplitude_rows(g, y, -2.3, xs)
    assert np.allclose(fast, slow, atol=1e-11)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
def test_hermite_functions_match_explicit_formula(n):
    y = np.linspace(-6, 6, 201)
    table = kernels.hermite_functions(n, y)
    assert np.allclose(table[n], hermite_psi(n, y), atol=1e-12)


def test_hermite_functions_orthonormal_at_high_order():
    # the explicit-formula oracle overflows long before n = 60; orthonormality
    # on a dense grid checks the recurrence stays stable there
    y = np.linspace(-16, 16, 6001)
    table = kernels.hermite_functions(60, y)
    for n in (0, 17, 42, 60):
        assert np.trapezoid(table[n] ** 2, y) == pytest.approx(1.0, abs=1e-8)
    assert abs(np.trapezoid(table[60] * table[58], y)) < 1e-8


def _plain_recurrence(nmax, y):
    """The Hermite table as the recurrence reads, sqrt(2) y psi_0 formed first."""
    out = np.empty((nmax + 1, y.size))
    out[0] = np.exp(-0.5 * y * y) * np.pi ** -0.25
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for n in range(2, nmax + 1):
        out[n] = y * math.sqrt(2.0 / n) * out[n - 1] - out[n - 2] * math.sqrt((n - 1.0) / n)
    return out


def test_hermite_table_is_bitwise_the_plain_recurrence_wherever_it_is_finite():
    # the X grids of 16-phase tomogram grids of random states, and points
    # where psi_0 underflows but sqrt(2) y is still finite
    rng = np.random.default_rng(34)
    grids = [tomogram_grid(random_state(rng), 16).xs for _ in range(24)]
    grids.append(np.array([0.0, -0.0, 38.5, -38.7, 1e100, -1e154, 2e154, 1e300, -1.2e308]))
    for y in grids:
        for nmax in (0, 1, 2, 5, 8, 30):
            with np.errstate(over="ignore"):
                want = _plain_recurrence(nmax, y)
            got = kernels.hermite_functions(nmax, y)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (nmax, y)


def test_rows_where_sqrt2_x_overflows_are_zero_without_a_warning():
    # sqrt(2) X is inf past ~1.27e308, where psi_0 is 0: inf * 0 gave nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert optical_tomogram(fock(2), 0.0, [1.7e308]).tolist() == [0.0]
        assert optical_tomogram(fock(5), 2.0, [-1.7e308, 1.7e308]).tolist() == [0.0, 0.0]
        # x / r overflows to inf here
        assert symplectic_tomogram(fock(1), 1e308, 1e-10, 0.0) == 0.0
        assert symplectic_tomogram(fock(3), -1e308, 1e-10, 0.0) == 0.0
    assert np.isfinite(kernels.hermite_functions(8, np.array([np.inf, -np.inf]))).all()



def test_import_loads_no_third_party_package_but_numpy():
    # neither scipy nor a compiled-kernel backend is loaded
    src = str(Path(optomo.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import optomo; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "['numpy', 'optomo']"


def test_purity_and_characteristic_functions_run_without_scipy():
    src = str(Path(optomo.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from optomo import fock, purity_classify, thermal_state, tomogram_characteristic\n"
        "print(purity_classify(thermal_state(1.0)).classification)\n"
        "print(abs(tomogram_characteristic(fock(3), 0.4, 1.0)) > 0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["mixed", "True"]
