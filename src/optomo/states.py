"""Single-mode oscillator states and their closed-form quadrature moments.

hbar = 1 throughout.  Three immutable families cover the desk-scale zoo:
Gaussian wavepackets (coherent/squeezed), Fock superpositions over the
Hermite-function basis, and convex mixtures of the two.  Every state reduces
to one mean vector (<q>, <p>) and symmetrised covariance matrix, from which the
closed-form moments of the rotated quadrature q cos(theta) + p sin(theta)
follow at every phase; the tomographic pipeline is tested against them.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
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
# past 2**52 neighbouring doubles are >= 1 rad apart: no phase is left mod pi
MAX_PHASE = 2.0 ** 52


_REAL_TYPES = (int, float, np.integer, np.floating)


def _finite_real(name, value, rule="be a finite real number", valid=None):
    """``value`` as a float if it is a finite int or float (numpy's included;
    not a bool or a 0-d array) for which ``valid`` holds, else an InputError
    saying that ``name`` must ``rule``.  Every real number a caller passes
    in goes through it; the common float is tested first."""
    number = math.nan
    if type(value) is float:
        number = value
    elif isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            pass
    if not (math.isfinite(number) and (valid is None or valid(number))):
        raise InputError(f"{name} must {rule}, got {value!r}")
    return number


def _wrap_phases(phases):
    """(reduced, mirrored) arrays: every phase mapped into [0, pi), with the
    flag saying the X axis is mirrored there.

    Implements w(X, theta + pi) = w(-X, theta).  An array (not 0-d) that
    already lies in [0, pi), as grid phases do, returns at once.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim and phases.size and 0.0 <= phases.min() and phases.max() < math.pi:
        # + 0.0 turns -0.0 into 0.0, as the reduction below does
        return phases + 0.0, np.zeros(phases.shape, dtype=bool)
    too_large = np.abs(phases) >= MAX_PHASE
    if np.any(too_large):
        raise InputError(
            f"phase {phases[too_large].flat[0]:.17g} cannot be reduced mod pi: "
            f"|phase| must be below 2**52 (MAX_PHASE = {MAX_PHASE:.0f})"
        )
    k = np.floor(phases / math.pi)
    reduced = phases - k * math.pi
    # a remainder below 0 is folded back: phase / pi underflows to -0.0 for
    # the smallest negative phases, and can round up to the next integer
    below = reduced < 0.0
    reduced = np.where(below, reduced + math.pi, reduced)
    k = k - below
    above = reduced >= math.pi
    reduced = np.where(above, reduced - math.pi, reduced)
    k = k + above
    return reduced, k % 2 == 1


def wrap_phase(phase: float):
    """Map a phase into [0, pi); the flag says the X axis is mirrored there.

    The scalar view of ``_wrap_phases``, through ``_finite_real``.  A phase
    already in [0, pi), as every stored grid phase is, comes back without a
    numpy call; + 0.0 turns -0.0 into 0.0, as ``_wrap_phases`` does.
    """
    phase = _finite_real("phase", phase)
    if 0.0 <= phase < math.pi:
        return phase + 0.0, False
    reduced, mirrored = _wrap_phases(phase)
    return float(reduced), bool(mirrored)


def _check_cutoff(cutoff):
    if cutoff > MAX_FOCK_CUTOFF:
        raise InputError(f"cutoff {cutoff} exceeds the maximum {MAX_FOCK_CUTOFF}")


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
            object.__setattr__(self, name, _finite_real(name, getattr(self, name)))
        if self.squeeze <= 0.0:
            raise InputError(f"squeeze must be > 0, got {self.squeeze}")

    @cached_property
    def _moments(self):
        return _compute_moments(self)


@dataclass(frozen=True)
class FockSuperposition:
    """Superposition sum_n c_n |n> over number states, n = 0..cutoff.

    Coefficients are normalized at construction; sum |c_n|^2 = 1 afterwards.
    Coefficients whose norm is already within 1e-14 of 1 are kept as given:
    one normalization leaves the norm a few ulp from 1, and dividing by it
    again would move them, so a state rebuilt from its own coefficients (a
    JSON round trip) is equal to it.
    """

    coeffs: tuple

    def __post_init__(self):
        rule = "be a sequence of finite ints, floats or complex numbers"
        arr = _as_points(self.coeffs, "coeffs", rule, complex)
        if arr.ndim != 1:
            raise InputError(f"coeffs must {rule}")
        cs = tuple(arr.tolist())
        if not cs:
            raise InputError("coeffs must be non-empty")
        _check_cutoff(len(cs) - 1)
        try:
            norm = math.sqrt(sum(abs(v) ** 2 for v in cs))
        except OverflowError:  # a square past the float range
            norm = math.inf
        if norm < 1e-12:
            raise InputError("coeffs have (numerically) zero norm")
        if norm == math.inf:
            raise InputError("coeffs have (numerically) infinite norm")
        if abs(norm - 1.0) > 1e-14:
            cs = tuple(v / norm for v in cs)
        object.__setattr__(self, "coeffs", cs)

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def coeff_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    @cached_property
    def _moments(self):
        return _compute_moments(self)


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
            weight = _finite_real("weight", weight, "be finite and >= 0", lambda w: w >= 0.0)
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

    @cached_property
    def _moments(self):
        return _compute_moments(self)


State = Union[PureState, MixedState]
_STATE_TYPES = (GaussianState, FockSuperposition, MixedState)


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


def _integer(value):
    """``value`` as an int if it is an integer, numpy's included, and not a
    bool; else None.  Every count and seed the package takes goes through it."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    return None


# the most float64 values one numpy array can address: a count past it is
# refused before anything is allocated
_MAX_COUNT = np.iinfo(np.intp).max // 8


def fock(n: int) -> FockSuperposition:
    """The number state |n>."""
    count = _integer(n)
    if count is None or count < 0:
        raise InputError(f"n must be a non-negative integer, got {n!r}")
    _check_cutoff(count)
    return FockSuperposition((0.0,) * count + (1.0,))


def thermal_state(nbar: float) -> MixedState:
    """Thermal mixture sum_n p_n |n><n| with p_n = nbar^n / (1+nbar)^(n+1).

    Truncated at the smallest cutoff whose discarded weight is below ``WEIGHT_TOL``.
    """
    nbar = _finite_real("nbar", nbar, "be finite and > 0", lambda n: n > 0.0)
    ratio = nbar / (1.0 + nbar)
    cutoff = max(0, int(math.ceil(math.log(WEIGHT_TOL) / math.log(ratio))) - 1)
    while ratio ** (cutoff + 1) >= WEIGHT_TOL:
        cutoff += 1
    if cutoff > MAX_FOCK_CUTOFF:
        raise InputError(f"thermal truncation needs cutoff {cutoff} > {MAX_FOCK_CUTOFF}; reduce nbar")
    weights = [(nbar ** n) / (1.0 + nbar) ** (n + 1) for n in range(cutoff + 1)]
    return MixedState(tuple((w, fock(n)) for n, w in enumerate(weights)))


# --------------------------------------------------------------------------
# wavefunctions
# --------------------------------------------------------------------------

def _holds_bool(values):
    """Whether ``values`` is a bool (numpy's included) or a list or tuple
    holding one at any depth, which numpy would make 0 or 1 beside numbers."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_))


def _as_points(values, name, rule="be finite real numbers", dtype=float):
    """``values`` as a ``dtype`` array (itself, not a copy, if it has that dtype) if their
    dtype is integer or float, or complex for ``dtype=complex`` (Fock coefficients), and
    every entry is finite, else an InputError saying that ``name`` must ``rule``; every array
    a caller passes in goes through it.  Strings, bools (in a list or tuple too), objects
    and a ragged nesting are refused."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise InputError(f"{name} must {rule}") from None
    kinds = "iufc" if dtype is complex else "iuf"
    if arr.dtype.kind not in kinds or _holds_bool(values) or not np.isfinite(arr).all():
        raise InputError(f"{name} must {rule}")
    return arr.astype(dtype, copy=False)


def _maybe_scalar(values, out):
    if np.ndim(values) == 0:
        return complex(out[()] if out.ndim == 0 else out[0])
    return out


def eval_position_wavefunction(state: PureState, y):
    """Psi(y) for a pure state; accepts scalars or arrays."""
    flat = np.atleast_1d(_as_points(y, "y"))
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
    flat = np.atleast_1d(_as_points(p, "p"))
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

    Computed on first use and kept on the state (its ``_moments``), so the
    grid window, the bandwidth and the Gaussian rows of one state share one
    computation.  The kept value is not a field: equality, hashing and the
    JSON spec ignore it.
    """
    if not isinstance(state, _STATE_TYPES):
        raise InputError(f"expected a state, got {type(state).__name__}")
    return state._moments


def _compute_moments(state):
    """``_mean_and_covariance`` from scratch.  A Fock superposition's come
    from the ladder sums <a>, <a^2> and <n>; a mixture's from the law of total
    covariance over its components."""
    if isinstance(state, GaussianState):
        return state.mean_q, state.mean_p, 0.5 * state.squeeze, 0.5 / state.squeeze, 0.0
    if isinstance(state, FockSuperposition):
        # one pass over the coefficients, c_(n-2) and c_(n-1) carried along
        a1 = a2 = before = last = 0j
        number = 0.0
        for n, c in enumerate(state.coeffs):
            a1 += last.conjugate() * c * math.sqrt(n)
            a2 += before.conjugate() * c * math.sqrt(n * (n - 1))
            number += n * (c.real * c.real + c.imag * c.imag)
            before, last = last, c
        x2 = 0.5 + number
        mq, mp = math.sqrt(2.0) * a1.real, math.sqrt(2.0) * a1.imag
        return mq, mp, x2 + a2.real - mq * mq, x2 - a2.real - mp * mp, a2.imag - mq * mp
    parts = [(w, _mean_and_covariance(s)) for w, s in state.components]
    mq = sum(w * m[0] for w, m in parts)
    mp = sum(w * m[1] for w, m in parts)
    vq = vp = cqp = 0.0
    for w, (q, p, sq, sp, sc) in parts:
        dq, dp = q - mq, p - mp
        vq += w * (sq + dq * dq)
        vp += w * (sp + dp * dp)
        cqp += w * (sc + dq * dp)
    return mq, mp, vq, vp, cqp


def _gaussian_overlap(a, b):
    """Tr rho_a rho_b of two Gaussian states: exp(-D^T S^-1 D / 2) / sqrt(det S),
    D the difference of their means, S the sum of their covariances."""
    ma, mb = np.array(_mean_and_covariance(a)), np.array(_mean_and_covariance(b))
    dq, dp = ma[:2] - mb[:2]
    sq, sp, sc = ma[2:] + mb[2:]
    det = sq * sp - sc * sc
    return math.exp(-0.5 * (sp * dq * dq - 2.0 * sc * dq * dp + sq * dp * dp) / det) / math.sqrt(det)


def _fock_amplitudes(state, n):
    """<k|psi> for k < n of a Gaussian state: c_0 is a Gaussian integral, and
    the eigen-equation (y + s d/dy) psi = (q + i s p) psi in ladder form gives
    sqrt(k+1) (1+s) c_(k+1) = sqrt(2) (q + i s p) c_k - (1-s) sqrt(k) c_(k-1)."""
    q, p, s = state.mean_q, state.mean_p, state.squeeze
    z = math.sqrt(2.0) * complex(q, s * p)
    c0 = math.sqrt(2.0 / (1.0 + s)) * s ** 0.25
    c = [c0 * cmath.exp(-complex(q * q + s * p * p, -2.0 * q * p) / (2.0 * (1.0 + s)))]
    for k in range(n - 1):  # at k = 0, c[k - 1] is c[0] with weight sqrt(0)
        c.append((z * c[k] - (1.0 - s) * math.sqrt(k) * c[k - 1]) / (math.sqrt(k + 1.0) * (1.0 + s)))
    return np.array(c)


def _rotated_moments(moments, phases):
    """(mean, variance) of q cos(theta) + p sin(theta) at ``phases`` (a number
    or an array) from the five numbers of ``_mean_and_covariance``."""
    mq, mp, vq, vp, cqp = moments
    ct, st = np.cos(phases), np.sin(phases)
    return mq * ct + mp * st, vq * ct * ct + vp * st * st + 2.0 * cqp * st * ct


def analytic_moments(state: State, phase: float) -> MomentSet:
    """Closed-form mean/variance of q cos(theta) + p sin(theta) in ``state``, via ``wrap_phase``."""
    reduced, mirrored = wrap_phase(phase)
    mean, var = _rotated_moments(_mean_and_covariance(state), reduced)
    return MomentSet(float(-mean if mirrored else mean), float(var), float(phase))


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
            *(_finite_real(f"gaussian state: field {key!r}", d[key])
              for key in ("mean_q", "mean_p", "squeeze"))
        )
    if kind == "fock":
        _require_fields(d, {"type", "coeffs"}, "fock state")
        raw = d["coeffs"]
        if not isinstance(raw, list):
            raise InputError("fock state: coeffs must be a list of [re, im] pairs")
        coeffs = []
        for item in raw:
            if not isinstance(item, list) or len(item) != 2:
                raise InputError(
                    f"fock state: each coefficient must be an [re, im] pair, got {item!r}"
                )
            coeffs.append(complex(*(_finite_real("fock state: coefficient part", v) for v in item)))
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
            comps.append((_finite_real("mixture component: field 'weight'", item["weight"]), sub))
        return MixedState(tuple(comps))
    raise InputError(f"unknown state type {kind!r}")


def _open_input(path, what, encoding=None):
    """The file at ``path`` opened to read; one that cannot be (a NUL byte too) is an InputError."""
    try:
        return open(path, encoding=encoding)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path, what):
    """The JSON value in the file at ``path``, the one JSON reader; ``what`` names the file
    when it cannot be read or decoded (bad JSON, not UTF-8, or nested too deep)."""
    with _open_input(path, what, "utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON in {what} {path}: {exc}") from exc


def _write_json(path, data):
    """Write ``data`` (a state spec or a metadata sidecar) as JSON indented by 2, one newline after."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def save_state(state: State, path):
    _write_json(path, state_to_dict(state))


def load_state(path) -> State:
    return state_from_dict(_read_json(path, "state file"))


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
    raise InputError(f"expected a state, got {type(state).__name__}")
