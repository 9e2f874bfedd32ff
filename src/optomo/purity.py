"""Overlap functional of tomogram pairs and pure/mixed classification.

The 4-D overlap integral over two scaled tomograms equals Tr rho_a rho_b, in
closed form for two state specs.  A grid is read from its stored rows alone,
whatever it was computed from: the integral collapses, after the polar
substitution (mu, nu) = (r cos t, r sin t) and the scaling homogeneity of
the tomogram, to a 2-D integral over characteristic functions of the rows:

    overlap = (1/2pi) * integral_0^{2pi} dt integral_0^inf r dr
              phi_1(r, t) conj(phi_2(r, t)),

a rectangle rule over the grid's uniform phases, with the t in [pi, 2pi)
half supplied by the parity rule phi(r, t + pi) = conj(phi(r, t)).
Self-overlap equals 1 for pure states and drops below 1 for mixtures; no
state has one above 1, so a grid whose overlap exceeds it is non-physical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import quadrature
from .errors import InputError, ResolutionError
from .states import GaussianState, _finite_real, _fock_amplitudes, _gaussian_overlap
from .tomography import (
    PHASE_TOL,
    _components,
    _fock_density,
    _state_of,
    tomogram_characteristic,
    uniform_phases,
)

__all__ = ["PurityReport", "purity_overlap", "purity_classify"]

R_START = 12.0
R_CAP = 64.0
PHI_TAIL = 1e-10
TAIL_TOL = 1e-8
RADIAL_TOL = 1e-12
PURITY_TOL = 1e-3


@dataclass(frozen=True)
class PurityReport:
    overlap: float
    classification: str
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _phase_grid(grids):
    phases = grids[0].phases
    if len(grids) == 2 and (
        grids[1].n_phases != phases.size
        or not np.allclose(grids[1].phases, phases, atol=PHASE_TOL, rtol=0)
    ):
        raise InputError("the two tomograms must share one phase grid")
    if not np.allclose(phases, uniform_phases(phases.size), atol=PHASE_TOL, rtol=0):
        raise InputError(
            "overlap integration needs phases uniform on [0, pi) starting at 0"
        )
    return phases


def _trace_product(a, b):
    """Tr rho_a rho_b of two state specs, summed in closed form over pairs of
    components; the Fock density matrices store conj(c) c^T."""
    rho_a, rho_b = _fock_density(a), _fock_density(b)
    gauss_a, gauss_b = (
        [(w, s) for w, s in _components(state) if isinstance(s, GaussianState)]
        for state in (a, b)
    )
    total = 0.0
    if rho_a is not None and rho_b is not None:
        n = min(rho_a.shape[0], rho_b.shape[0])
        total += np.vdot(rho_a[:n, :n], rho_b[:n, :n]).real
    for rho, gauss in ((rho_a, gauss_b), (rho_b, gauss_a)):
        for w, g in gauss if rho is not None else ():
            amps = _fock_amplitudes(g, rho.shape[0])
            total += w * (amps @ rho @ np.conj(amps)).real
    for wa, ga in gauss_a:
        for wb, gb in gauss_b:
            total += wa * wb * _gaussian_overlap(ga, gb)
    return float(total)


def purity_overlap(a, b) -> float:
    """The tomogram-pair overlap functional (equals Tr rho_a rho_b).

    Two state specs give ``_trace_product`` in closed form.  A pair with a
    grid integrates over the grid's stored phases: the radial cutoff grows
    from r = 12 (``R_START``) by factors of 1.3 until both characteristic
    functions have decayed below 1e-10, up to r = 64 or the Nyquist limit,
    and the radial integral is refined until it changes by at most 1e-12
    (``RADIAL_TOL``).
    """
    states = [_state_of(a), _state_of(b)]
    if None not in states:
        return _trace_product(*states)
    grids = [src for src, state in zip((a, b), states) if state is None]
    phases = _phase_grid(grids)

    def phis(r):
        phi_a = tomogram_characteristic(a, phases, r)
        return phi_a, phi_a if b is a else tomogram_characteristic(b, phases, r)

    r_limit = min([g._nyquist_r for g in grids] + [R_CAP])
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

    def radial_all(r, wts):
        # one radial integral per phase
        phi_a, phi_b = phis(r)
        return np.sum(wts * r * phi_a * np.conj(phi_b), axis=1)

    per_theta = quadrature.adaptive(
        radial_all, 0.0, r_max, n0=128, tol=RADIAL_TOL, label="radial overlap"
    )
    half_sum = complex(np.sum(per_theta))
    # the [pi, 2pi) half contributes the conjugate of each term (parity rule)
    total = half_sum + np.conj(half_sum)
    return float((total * (math.pi / phases.size) / (2.0 * math.pi)).real)


def purity_classify(src, tol: float = PURITY_TOL) -> PurityReport:
    """Label a source by its self-overlap: "pure" within ``tol`` of 1,
    "non-physical" above 1 + ``tol`` (no state has Tr rho^2 > 1), else "mixed"."""
    tol = _finite_real("tolerance", tol, "be finite and > 0", lambda t: t > 0.0)
    value = purity_overlap(src, src)
    label = "pure" if abs(value - 1.0) <= tol else "non-physical" if value > 1.0 else "mixed"
    return PurityReport(overlap=value, classification=label, tolerance=tol)
