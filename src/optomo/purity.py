"""Overlap functional of tomogram pairs and pure/mixed classification.

The 4-D overlap integral over two scaled tomograms collapses, after the polar
substitution (mu, nu) = (r cos t, r sin t) and the scaling homogeneity of the
tomogram, to a 2-D integral over characteristic functions of the rows:

    overlap = (1/2pi) * integral_0^{2pi} dt integral_0^inf r dr
              phi_1(r, t) conj(phi_2(r, t)),

with the t in [pi, 2pi) half supplied by the parity rule phi(r, t + pi) =
conj(phi(r, t)).  For two Fock-only sources the t integral is exact
(Parseval over the Fourier coefficients in t); otherwise it is a rectangle
rule over uniform phases.  Self-overlap equals 1 exactly for pure states and
drops below 1 for mixtures (it agrees with the Fock-diagonal purity oracle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import InputError, NumericalError, ResolutionError
from .states import FockSuperposition, GaussianState, MixedState
from .tomography import (
    PHASE_TOL,
    TomogramGrid,
    _components,
    _fock_coefficients,
    _fock_density,
    tomogram_characteristic,
    uniform_phases,
)

__all__ = ["PurityReport", "purity_overlap", "purity_classify"]

DEFAULT_STATE_PHASES = 256
R_START = 12.0
R_CAP = 64.0
PHI_TAIL = 1e-10
TAIL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
RADIAL_TOL = 1e-12


@dataclass(frozen=True)
class PurityReport:
    overlap: float
    classification: str
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "overlap": self.overlap,
            "classification": self.classification,
            "tolerance": self.tolerance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _is_state(obj):
    return isinstance(obj, (GaussianState, FockSuperposition, MixedState))


def _phase_grid(a, b):
    grids = [s for s in (a, b) if isinstance(s, TomogramGrid) and s.source is None]
    if grids:
        phases = grids[0].phases
        if len(grids) == 2 and (
            grids[1].n_phases != phases.size
            or not np.allclose(grids[1].phases, phases, atol=PHASE_TOL, rtol=0)
        ):
            raise InputError("the two tomograms must share one phase grid")
    else:
        phases = uniform_phases(DEFAULT_STATE_PHASES)
    n = phases.size
    if not np.allclose(phases, uniform_phases(n), atol=PHASE_TOL, rtol=0):
        raise InputError(
            "overlap integration needs phases uniform on [0, pi) starting at 0"
        )
    return phases


def _check_source(obj, name):
    if isinstance(obj, TomogramGrid) or _is_state(obj):
        return obj
    raise InputError(f"{name} must be a TomogramGrid or a state spec")


def _nyquist_limit(src):
    if isinstance(src, TomogramGrid) and src.source is None:
        return math.pi / (2.0 * src.dx)
    return math.inf


def _fock_only(src):
    """The state behind a source when all its components are Fock
    superpositions, else None (Gaussian components, bare grids)."""
    state = src.source if isinstance(src, TomogramGrid) else src
    if all(isinstance(s, FockSuperposition) for _, s in _components(state)):
        return state
    return None


def purity_overlap(a, b) -> float:
    """The tomogram-pair overlap functional (equals Tr rho_a rho_b).

    Sources are state specs (characteristic functions in closed form) or bare
    tomogram grids (row quadrature on their stored phases).  When both
    sources are Fock-only (Fock superpositions, mixtures of them, or grids
    carrying one) the phase integral is exact: at each radial node it is the
    sum over Fourier frequencies of the products of the two characteristic
    functions' Laguerre coefficients (Parseval).  Any other pair is averaged
    over 256 uniform phases (``DEFAULT_STATE_PHASES``) or the grid's stored
    phases.  The radial cutoff grows from r = 12 (``R_START``) by factors of
    1.3 until both characteristic functions have decayed below 1e-10 on those
    phases, up to r = 64 or the grid's Nyquist limit; the radial integral is
    refined until it changes by at most 1e-12 (``RADIAL_TOL``).
    """
    a = _check_source(a, "first source")
    b = _check_source(b, "second source")
    phases = _phase_grid(a, b)

    def phis(r):
        phi_a = tomogram_characteristic(a, phases, r)
        return phi_a, phi_a if b is a else tomogram_characteristic(b, phases, r)

    r_limit = min(_nyquist_limit(a), _nyquist_limit(b), R_CAP)
    r_max = min(R_START, r_limit)
    phi_a, phi_b = phis(r_max)
    while r_max < r_limit and max(np.max(np.abs(phi_a)), np.max(np.abs(phi_b))) > PHI_TAIL:
        r_max = min(r_max * 1.3, r_limit)
        phi_a, phi_b = phis(r_max)
    tail = float(np.max(np.abs(phi_a * np.conj(phi_b)))) * r_max ** 2
    if tail > TAIL_TOL:
        raise ResolutionError(
            f"radial truncation at r = {r_max:.4g} leaves a tail estimate "
            f"{tail:.3g} > {TAIL_TOL}; the sources decay too slowly (or the "
            "grid is too coarse to extend r further)"
        )

    fock_a, fock_b = _fock_only(a), _fock_only(b)
    if fock_a is not None and fock_b is not None:
        # phi(r, theta) = sum_j exp(-i f_j theta) c_j(r) over distinct
        # frequencies |f_j| <= MAX_FOCK_CUTOFF, so the mean of phi_a conj(phi_b)
        # over theta in [0, 2pi) is sum_j c_a,j conj(c_b,j) exactly.  The phase
        # path below gives the same number: over 2 * DEFAULT_STATE_PHASES = 512
        # uniform phases its rectangle rule is exact for every frequency below
        # 512, and phi_a conj(phi_b) has degree at most 2 * MAX_FOCK_CUTOFF = 128
        rho_a, rho_b = _fock_density(fock_a), _fock_density(fock_b)
        n = max(rho_a.shape[0], rho_b.shape[0])
        rho_a, rho_b = (np.pad(rho, (0, n - rho.shape[0])) for rho in (rho_a, rho_b))

        def radial(r, wts):
            c_a = _fock_coefficients(rho_a, r)[1]
            c_b = c_a if b is a else _fock_coefficients(rho_b, r)[1]
            return np.sum(c_a * np.conj(c_b), axis=0) @ (wts * r)

        value = complex(
            quadrature.adaptive(radial, 0.0, r_max, n0=128, tol=RADIAL_TOL, label="radial overlap")
        )
    else:
        def radial_all(r, wts):
            # one radial integral per phase
            phi_a = tomogram_characteristic(a, phases, r)
            phi_b = phi_a if b is a else tomogram_characteristic(b, phases, r)
            return np.sum(wts * r * phi_a * np.conj(phi_b), axis=1)

        per_theta = quadrature.adaptive(
            radial_all, 0.0, r_max, n0=128, tol=RADIAL_TOL, label="radial overlap"
        )
        half_sum = complex(np.sum(per_theta))
        # the [pi, 2pi) half contributes the conjugate of each term (parity rule)
        total = half_sum + np.conj(half_sum)
        value = total * (math.pi / phases.size) / (2.0 * math.pi)
    # guards the Parseval sum: on the phase path the imaginary part of
    # half_sum + conj(half_sum) is exactly 0, so the check cannot fire there
    if abs(value.imag) > RESIDUAL_TOL:
        raise NumericalError(
            f"overlap has imaginary residual {value.imag:.3e} > {RESIDUAL_TOL}"
        )
    return float(value.real)


def purity_classify(src, tol: float = 1e-3) -> PurityReport:
    """Label a source pure when its self-overlap is within ``tol`` of 1."""
    if not tol > 0:
        raise InputError(f"tolerance must be > 0, got {tol}")
    value = purity_overlap(src, src)
    label = "pure" if abs(value - 1.0) <= tol else "mixed"
    return PurityReport(overlap=value, classification=label, tolerance=float(tol))
