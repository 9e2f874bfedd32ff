"""Single-mode oscillator states and their closed-form quadrature moments.

hbar = 1 throughout.  Three immutable families cover the desk-scale zoo:
Gaussian wavepackets (coherent/squeezed), Fock superpositions over the
Hermite-function basis, and convex mixtures of the two.  Every state reduces
to one mean vector (<q>, <p>) and symmetrised covariance matrix, from which the
closed-form moments of the rotated quadrature q cos(theta) + p sin(theta)
follow at every phase; the tomographic pipeline is tested against them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from typing import Union

import numpy as np

from .errors import InputError
from .kernels import hermite_functions

__all__ = [
    "MAX_FOCK_CUTOFF",
    "GaussianState",
    "FockSuperposition",
    "MixedState",
    "MomentSet",
    "PureState",
    "State",
    "vacuum",
    "fock",
    "thermal_state",
    "eval_position_wavefunction",
    "eval_momentum_wavefunction",
    "analytic_moments",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
    "state_label",
]

MAX_FOCK_CUTOFF = 64
WEIGHT_TOL = 1e-10
GRID_SIGMAS = 8.0


@dataclass(frozen=True)
class GaussianState:
    """Wavepacket (pi s)^(-1/4) exp(-(y - mean_q)^2 / (2 s) + i mean_p y).

    The width parameter ``squeeze`` (= s) sets the quadrature dispersions
    s/2 in position and 1/(2 s) in momentum; s = 1 is a coherent state and
    mean_q = mean_p = 0, s = 1 the vacuum.
    """

    mean_q: float = 0.0
    mean_p: float = 0.0
    squeeze: float = 1.0

    def __post_init__(self):
        for name in ("mean_q", "mean_p", "squeeze"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                raise InputError(f"{name} must be a finite real number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.squeeze <= 0.0:
            raise InputError(f"squeeze must be > 0, got {self.squeeze}")


@dataclass(frozen=True)
class FockSuperposition:
    """Superposition sum_n c_n |n> over number states, n = 0..cutoff.

    Coefficients are normalized at construction; sum |c_n|^2 = 1 afterwards.
    """

    coeffs: tuple

    def __post_init__(self):
        try:
            cs = tuple(complex(v) for v in self.coeffs)
        except TypeError as exc:
            raise InputError(f"coeffs must be a sequence of numbers: {exc}") from exc
        if not cs:
            raise InputError("coeffs must be non-empty")
        if len(cs) - 1 > MAX_FOCK_CUTOFF:
            raise InputError(
                f"cutoff {len(cs) - 1} exceeds the maximum {MAX_FOCK_CUTOFF}"
            )
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in cs):
            raise InputError("coeffs must be finite")
        norm = math.sqrt(sum(abs(v) ** 2 for v in cs))
        if norm < 1e-12:
            raise InputError("coeffs have (numerically) zero norm")
        object.__setattr__(self, "coeffs", tuple(v / norm for v in cs))

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def coeff_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


PureState = Union[GaussianState, FockSuperposition]


@dataclass(frozen=True)
class MixedState:
    """Convex combination of pure states: ((weight, state), ...)."""

    components: tuple

    def __post_init__(self):
        comps = []
        for item in self.components:
            try:
                weight, state = item
            except (TypeError, ValueError) as exc:
                raise InputError("components must be (weight, state) pairs") from exc
            if isinstance(weight, bool) or not isinstance(weight, Real):
                raise InputError(f"weight must be a real number, got {weight!r}")
            weight = float(weight)
            if not math.isfinite(weight) or weight < 0.0:
                raise InputError(f"weights must be finite and >= 0, got {weight}")
            if not isinstance(state, (GaussianState, FockSuperposition)):
                raise InputError(
                    "mixture components must be pure states "
                    f"(got {type(state).__name__})"
                )
            comps.append((weight, state))
        if not comps:
            raise InputError("mixture needs at least one component")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InputError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
        object.__setattr__(self, "components", tuple(comps))


State = Union[PureState, MixedState]


@dataclass(frozen=True)
class MomentSet:
    """Mean and variance of the rotated quadrature at one phase (radians)."""

    mean: float
    variance: float
    phase: float

    def __post_init__(self):
        if self.variance < 0.0:
            if self.variance < -1e-12:
                raise InputError(f"variance must be >= 0, got {self.variance}")
            object.__setattr__(self, "variance", 0.0)


def vacuum() -> GaussianState:
    return GaussianState(0.0, 0.0, 1.0)


def fock(n: int) -> FockSuperposition:
    """The number state |n>."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"n must be a non-negative integer, got {n!r}")
    return FockSuperposition((0.0,) * n + (1.0,))


def thermal_state(nbar: float, tail: float = 1e-10) -> MixedState:
    """Thermal mixture sum_n p_n |n><n| with p_n = nbar^n / (1+nbar)^(n+1).

    Truncated at the smallest cutoff whose discarded weight is below ``tail``.
    """
    nbar, tail = float(nbar), float(tail)
    if not math.isfinite(nbar) or nbar <= 0.0:
        raise InputError(f"nbar must be > 0, got {nbar}")
    if not 0.0 < tail < 1.0:
        raise InputError(f"tail must lie in (0, 1), got {tail}")
    ratio = nbar / (1.0 + nbar)
    cutoff = max(0, int(math.ceil(math.log(tail) / math.log(ratio))) - 1)
    while ratio ** (cutoff + 1) >= tail:
        cutoff += 1
    if cutoff > MAX_FOCK_CUTOFF:
        raise InputError(
            f"thermal truncation needs cutoff {cutoff} > {MAX_FOCK_CUTOFF}; "
            "reduce nbar or loosen tail"
        )
    weights = [(nbar ** n) / (1.0 + nbar) ** (n + 1) for n in range(cutoff + 1)]
    return MixedState(tuple((w, fock(n)) for n, w in enumerate(weights)))


# --------------------------------------------------------------------------
# wavefunctions
# --------------------------------------------------------------------------

def _as_points(values, name):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


def _maybe_scalar(values, out):
    if np.ndim(values) == 0:
        return complex(out[()] if out.ndim == 0 else out[0])
    return out


def eval_position_wavefunction(state: PureState, y):
    """Psi(y) for a pure state; accepts scalars or arrays."""
    arr = _as_points(y, "y")
    flat = np.atleast_1d(arr)
    if isinstance(state, GaussianState):
        s = state.squeeze
        out = (np.pi * s) ** -0.25 * np.exp(
            -((flat - state.mean_q) ** 2) / (2.0 * s) + 1j * state.mean_p * flat
        )
    elif isinstance(state, FockSuperposition):
        psi = hermite_functions(state.cutoff, flat)
        out = np.tensordot(state.coeff_array(), psi, axes=(0, 0))
    else:
        raise InputError(f"expected a pure state, got {type(state).__name__}")
    return _maybe_scalar(y, out)


def eval_momentum_wavefunction(state: PureState, p):
    """Momentum-representation wavefunction, convention
    Psi~(p) = (2 pi)^(-1/2) * integral Psi(y) exp(-i p y) dy.

    This is the convention under which the quadrature distribution at phase
    pi/2 is |Psi~(X)|^2 and a factor exp(i m p y) in Psi displaces the peak to
    +m_p; Fock components pick up the Fourier eigenvalue (-i)^n.
    """
    arr = _as_points(p, "p")
    flat = np.atleast_1d(arr)
    if isinstance(state, GaussianState):
        s = state.squeeze
        dp = flat - state.mean_p
        out = (s / np.pi) ** 0.25 * np.exp(-s * dp ** 2 / 2.0 - 1j * dp * state.mean_q)
    elif isinstance(state, FockSuperposition):
        psi = hermite_functions(state.cutoff, flat)
        phased = state.coeff_array() * (-1j) ** np.arange(state.cutoff + 1)
        out = np.tensordot(phased, psi, axes=(0, 0))
    else:
        raise InputError(f"expected a pure state, got {type(state).__name__}")
    return _maybe_scalar(p, out)


# --------------------------------------------------------------------------
# closed-form moments of the rotated quadrature
# --------------------------------------------------------------------------

def _mean_and_covariance(state):
    """(mean_q, mean_p, var_q, var_p, cov_qp) of ``state``: its mean vector and
    symmetrised covariance matrix, which fix the moments at every phase.

    A Fock superposition's come from the ladder sums <a>, <a^2> and <n>; a
    mixture's from the law of total covariance over its components.
    """
    if isinstance(state, GaussianState):
        return state.mean_q, state.mean_p, 0.5 * state.squeeze, 0.5 / state.squeeze, 0.0
    if isinstance(state, FockSuperposition):
        c = state.coeff_array()
        n = np.arange(c.size)
        a1 = complex(np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(n[1:])))
        a2 = complex(np.sum(np.conj(c[:-2]) * c[2:] * np.sqrt(n[2:] * (n[2:] - 1))))
        x2 = 0.5 + float(np.sum(n * np.abs(c) ** 2))
        mq, mp = math.sqrt(2.0) * a1.real, math.sqrt(2.0) * a1.imag
        return mq, mp, x2 + a2.real - mq * mq, x2 - a2.real - mp * mp, a2.imag - mq * mp
    if isinstance(state, MixedState):
        w = np.array([weight for weight, _ in state.components])
        mq, mp, vq, vp, cqp = np.array([_mean_and_covariance(s) for _, s in state.components]).T
        dq, dp = mq - w @ mq, mp - w @ mp
        return w @ mq, w @ mp, w @ (vq + dq * dq), w @ (vp + dp * dp), w @ (cqp + dq * dp)
    raise InputError(f"expected a state, got {type(state).__name__}")


def _rotated_moments(moments, phases):
    """(mean, variance) of q cos(theta) + p sin(theta) at ``phases`` (a number
    or an array) from the five numbers of ``_mean_and_covariance``."""
    mq, mp, vq, vp, cqp = moments
    ct, st = np.cos(phases), np.sin(phases)
    return mq * ct + mp * st, vq * ct * ct + vp * st * st + 2.0 * cqp * st * ct


def analytic_moments(state: State, phase: float) -> MomentSet:
    """Closed-form mean/variance of q cos(theta) + p sin(theta) in ``state``."""
    theta = float(phase)
    if not math.isfinite(theta):
        raise InputError("phase must be finite")
    mean, var = _rotated_moments(_mean_and_covariance(state), theta)
    return MomentSet(float(mean), float(var), theta)


def _extremes(state: PureState):
    """(largest |mean|, largest and smallest variance) over all phases: the
    mean traces one harmonic and Var = A + B cos 2theta + C sin 2theta."""
    mq, mp, vq, vp, cqp = _mean_and_covariance(state)
    a, spread = 0.5 * (vq + vp), math.hypot(0.5 * (vq - vp), cqp)
    return math.hypot(mq, mp), a + spread, max(a - spread, 1e-6)


def grid_halfwidth(state: State) -> float:
    """Half-width of an X window covering every rotated density of ``state``:
    the largest rotated mean plus ``GRID_SIGMAS`` (8) standard deviations."""
    if isinstance(state, MixedState):
        return max(grid_halfwidth(s) for _, s in state.components)
    amplitude, top, _ = _extremes(state)
    return amplitude + GRID_SIGMAS * math.sqrt(top)


def quadrature_halfwidth(state: PureState) -> float:
    """Half-width of the y (or p) integration window for tomogram quadrature.

    Gaussians get the conservative 8 * sqrt(2 var) window; for Fock
    superpositions the wavefunction ends at the top component's classical
    turning point, and +8 clears the Airy tail to below 1e-20 (the variance
    window overshoots quadratically in the cutoff there).
    """
    amplitude, top, _ = _extremes(state)
    if isinstance(state, FockSuperposition):
        return amplitude + (math.sqrt(2.0 * state.cutoff + 1.0) + 8.0)
    return amplitude + 8.0 * math.sqrt(2.0 * top)


def density_bandwidth(state: State) -> float:
    """Frequency extent of the rotated densities' Fourier transforms.

    Used to pick an X spacing that keeps trapezoid sums on rows spectrally
    accurate.  Gaussians decay like exp(-r^2 v/2); Fock components contribute
    out to twice the classical momentum scale.
    """
    if isinstance(state, MixedState):
        return max(density_bandwidth(s) for _, s in state.components)
    bw = math.sqrt(2.0 * math.log(1e10) / _extremes(state)[2])
    if isinstance(state, FockSuperposition):
        bw = max(bw, 2.0 * math.sqrt(2.0 * state.cutoff + 1.0) + 10.0)
    return bw


# --------------------------------------------------------------------------
# JSON state-spec format
# --------------------------------------------------------------------------

def _require_fields(d, expected, what):
    got = set(d)
    if got != expected:
        unknown = sorted(got - expected)
        missing = sorted(expected - got)
        parts = []
        if unknown:
            parts.append(f"unknown fields {unknown}")
        if missing:
            parts.append(f"missing fields {missing}")
        raise InputError(f"{what}: " + "; ".join(parts))


def _number(d, key, what):
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, Real):
        raise InputError(f"{what}: field {key!r} must be a number, got {v!r}")
    return float(v)


def state_to_dict(state: State) -> dict:
    if isinstance(state, GaussianState):
        return {
            "type": "gaussian",
            "mean_q": state.mean_q,
            "mean_p": state.mean_p,
            "squeeze": state.squeeze,
        }
    if isinstance(state, FockSuperposition):
        return {"type": "fock", "coeffs": [[c.real, c.imag] for c in state.coeffs]}
    if isinstance(state, MixedState):
        return {
            "type": "mixed",
            "components": [
                {"weight": w, "state": state_to_dict(s)} for w, s in state.components
            ],
        }
    raise InputError(f"expected a state, got {type(state).__name__}")


def state_from_dict(d) -> State:
    if not isinstance(d, dict):
        raise InputError(f"state spec must be a JSON object, got {type(d).__name__}")
    kind = d.get("type")
    if kind == "gaussian":
        _require_fields(d, {"type", "mean_q", "mean_p", "squeeze"}, "gaussian state")
        return GaussianState(
            _number(d, "mean_q", "gaussian state"),
            _number(d, "mean_p", "gaussian state"),
            _number(d, "squeeze", "gaussian state"),
        )
    if kind == "fock":
        _require_fields(d, {"type", "coeffs"}, "fock state")
        raw = d["coeffs"]
        if not isinstance(raw, list):
            raise InputError("fock state: coeffs must be a list of [re, im] pairs")
        coeffs = []
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or any(isinstance(v, bool) or not isinstance(v, Real) for v in item)
            ):
                raise InputError(
                    f"fock state: each coefficient must be an [re, im] pair, got {item!r}"
                )
            coeffs.append(complex(item[0], item[1]))
        return FockSuperposition(tuple(coeffs))
    if kind == "mixed":
        _require_fields(d, {"type", "components"}, "mixed state")
        raw = d["components"]
        if not isinstance(raw, list) or not raw:
            raise InputError("mixed state: components must be a non-empty list")
        comps = []
        for item in raw:
            if not isinstance(item, dict):
                raise InputError("mixed state: each component must be an object")
            _require_fields(item, {"weight", "state"}, "mixture component")
            sub = state_from_dict(item["state"])
            if isinstance(sub, MixedState):
                raise InputError("mixture components must be pure states")
            comps.append((_number(item, "weight", "mixture component"), sub))
        return MixedState(tuple(comps))
    raise InputError(f"unknown state type {kind!r}")


def save_state(state: State, path):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=2)
        fh.write("\n")


def load_state(path) -> State:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in state file {path}: {exc}") from exc
    return state_from_dict(data)


def state_label(state: State) -> str:
    """Short human-readable tag used in dataset metadata."""
    if isinstance(state, GaussianState):
        return (
            f"gaussian(mean_q={state.mean_q:g}, mean_p={state.mean_p:g}, "
            f"squeeze={state.squeeze:g})"
        )
    if isinstance(state, FockSuperposition):
        nonzero = [n for n, c in enumerate(state.coeffs) if abs(c) > 0]
        if len(nonzero) == 1:
            return f"fock(n={nonzero[0]})"
        return f"fock-superposition(cutoff={state.cutoff})"
    if isinstance(state, MixedState):
        return f"mixed({len(state.components)} components)"
    return type(state).__name__
