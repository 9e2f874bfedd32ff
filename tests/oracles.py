"""Independent brute-force oracles shared by the test suite.

Everything here is implemented from first principles (explicit Hermite
polynomials, dense trapezoid grids, slow direct sums) so the package's
quadrature and kernel machinery never ends up checking itself.
"""

import math

import numpy as np
from scipy.special import eval_hermite

from optomo import FockSuperposition, GaussianState, MixedState


def hermite_psi(n, x):
    """psi_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2), explicit form.

    Only usable for small n (factorial overflow), which is the point: it is
    independent of the package's recurrence.
    """
    x = np.asarray(x, dtype=float)
    norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    return norm * eval_hermite(n, x) * np.exp(-x * x / 2.0)


def fock_position_amplitude(coeffs, x):
    amp = np.zeros(np.shape(x), dtype=complex)
    for n, c in enumerate(coeffs):
        amp = amp + c * hermite_psi(n, x)
    return amp


def fock_row(coeffs, theta, xs):
    """Closed-form tomogram row of a Fock superposition: a phase rotation
    multiplies each coefficient by exp(-i n theta), after which the row is a
    plain position density."""
    rotated = [c * np.exp(-1j * n * theta) for n, c in enumerate(coeffs)]
    return np.abs(fock_position_amplitude(rotated, xs)) ** 2


def gaussian_tomogram_row(mean_q, mean_p, squeeze, theta, xs):
    mean = mean_q * math.cos(theta) + mean_p * math.sin(theta)
    var = 0.5 * squeeze * math.cos(theta) ** 2 + 0.5 / squeeze * math.sin(theta) ** 2
    return np.exp(-((xs - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def state_row(state, theta, xs):
    """Closed-form tomogram row of any state: the weighted sum of its
    components' explicit Fock or Gaussian rows."""
    components = state.components if isinstance(state, MixedState) else ((1.0, state),)
    row = np.zeros(np.shape(xs))
    for w, s in components:
        if isinstance(s, GaussianState):
            row = row + w * gaussian_tomogram_row(s.mean_q, s.mean_p, s.squeeze, theta, xs)
        else:
            row = row + w * fock_row(s.coeffs, theta, xs)
    return row


def trapz_mean(xs, row):
    return float(np.trapezoid(row * xs, xs))


def trapz_var(xs, row):
    m = trapz_mean(xs, row)
    return float(np.trapezoid(row * xs * xs, xs)) - m * m


def fourier_transform_minus(xs, fvals, ps):
    """(2 pi)^(-1/2) integral f(y) exp(-i p y) dy by dense trapezoid."""
    out = np.array(
        [np.trapezoid(fvals * np.exp(-1j * p * xs), xs) for p in np.atleast_1d(ps)]
    )
    return out / math.sqrt(2.0 * math.pi)


def random_gaussian(rng, s_lo=0.1, s_hi=10.0):
    return GaussianState(
        rng.uniform(-2.0, 2.0),
        rng.uniform(-2.0, 2.0),
        math.exp(rng.uniform(math.log(s_lo), math.log(s_hi))),
    )


def random_fock(rng, max_cutoff=8):
    k = int(rng.integers(1, max_cutoff + 1))
    c = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
    return FockSuperposition(tuple(c))


def random_pure_state(rng, max_cutoff=8):
    return random_gaussian(rng) if rng.random() < 0.5 else random_fock(rng, max_cutoff)


def random_state(rng, max_cutoff=8):
    roll = rng.random()
    if roll < 0.4:
        return random_gaussian(rng)
    if roll < 0.8:
        return random_fock(rng, max_cutoff)
    w = rng.uniform(0.05, 0.95)
    return MixedState(
        (
            (w, random_pure_state(rng, max_cutoff)),
            (1.0 - w, random_pure_state(rng, max_cutoff)),
        )
    )


def fock_trace_product(a, b):
    """Tr rho_a rho_b for states whose components are all Fock superpositions:
    sum over component pairs of w_i v_j |<psi_i|phi_j>|^2, with the inner
    products taken directly over the (re-normalised) coefficient vectors."""

    def parts(state):
        components = state.components if isinstance(state, MixedState) else ((1.0, state),)
        out = []
        for w, s in components:
            c = np.zeros(65, dtype=complex)
            c[: len(s.coeffs)] = s.coeffs
            out.append((w, c / np.linalg.norm(c)))
        return out

    return float(
        sum(wi * wj * abs(np.vdot(ci, cj)) ** 2 for wi, ci in parts(a) for wj, cj in parts(b))
    )


def gaussian_wavefunction(state, y):
    """(pi s)^(-1/4) exp(-(y - mean_q)^2 / (2 s) + i mean_p y), explicit form."""
    s = state.squeeze
    return (math.pi * s) ** -0.25 * np.exp(
        -((y - state.mean_q) ** 2) / (2.0 * s) + 1j * state.mean_p * y
    )


def trace_product(a, b):
    """Tr rho_a rho_b for any two states: sum over component pairs of
    w_i v_j |<psi_i|phi_j>|^2, each inner product a dense trapezoid over
    explicit position wavefunctions (Gaussian formula, explicit Hermite
    functions), so neither density matrices nor ladder recurrences enter."""
    y = np.linspace(-30.0, 30.0, 12001)

    def parts(state):
        components = state.components if isinstance(state, MixedState) else ((1.0, state),)
        return [
            (w, gaussian_wavefunction(s, y) if isinstance(s, GaussianState)
             else fock_position_amplitude(s.coeffs, y))
            for w, s in components
        ]

    return float(
        sum(
            wi * wj * abs(np.trapezoid(np.conj(psi) * phi, y)) ** 2
            for wi, psi in parts(a)
            for wj, phi in parts(b)
        )
    )


def array_mean_and_covariance(state):
    """(mean_q, mean_p, var_q, var_p, cov_qp) by whole-array formulas: a Fock
    superposition's ladder sums <a>, <a^2> and <n> as numpy sums over the
    coefficient vector, a mixture's law of total covariance as dot products
    over its components' rows, a Gaussian's the closed form."""
    if isinstance(state, GaussianState):
        return state.mean_q, state.mean_p, 0.5 * state.squeeze, 0.5 / state.squeeze, 0.0
    if isinstance(state, FockSuperposition):
        c = np.asarray(state.coeffs, dtype=complex)
        n = np.arange(c.size)
        a1 = complex(np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(n[1:])))
        a2 = complex(np.sum(np.conj(c[:-2]) * c[2:] * np.sqrt(n[2:] * (n[2:] - 1))))
        x2 = 0.5 + float(np.sum(n * np.abs(c) ** 2))
        mq, mp = math.sqrt(2.0) * a1.real, math.sqrt(2.0) * a1.imag
        return mq, mp, x2 + a2.real - mq * mq, x2 - a2.real - mp * mp, a2.imag - mq * mp
    w = np.array([weight for weight, _ in state.components])
    mq, mp, vq, vp, cqp = np.array(
        [array_mean_and_covariance(s) for _, s in state.components]
    ).T
    dq, dp = mq - w @ mq, mp - w @ mp
    return w @ mq, w @ mp, w @ (vq + dq * dq), w @ (vp + dp * dp), w @ (cqp + dq * dp)
