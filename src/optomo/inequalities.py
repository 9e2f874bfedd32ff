"""Uncertainty-relation checks on tomogram variances.

Two checks share the bound 1/4 (hbar = 1): the single-state product
Var(theta=0) * Var(theta=pi/2), and the two-state symmetric cross product

    1/2 Var_1(theta) Var_2(theta + pi/2) + 1/2 Var_2(theta) Var_1(theta + pi/2),

which reduces to the former for identical states.  A grid's variances come
from its stored rows, a state's from its closed form.  Any normalized
non-negative rows are accepted, so sub-quantum rows can show a violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import InputError
from .moments import tomographic_variance
from .states import State, _as_points, _finite_real, analytic_moments
from .tomography import (
    DEFAULT_N_PHASES, PHASE_TOL, TomogramGrid, _nearest_phase, uniform_phases
)

__all__ = [
    "BOUND",
    "InequalityReport",
    "heisenberg_lhs",
    "trifonov_lhs",
    "trifonov_sweep",
    "operator_trifonov_lhs",
]

BOUND = 0.25
DEFAULT_TOLERANCE = 1e-9
_KINDS = ("heisenberg", "trifonov", "trifonov_sweep")


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one bound check; ``margin = lhs - bound`` and the check is
    satisfied when margin >= -tolerance (a multiple of stderr for empirical checks)."""

    kind: str
    phase: float
    lhs: float
    bound: float
    margin: float
    satisfied: bool
    stderr: float | None = None
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.bound != BOUND:
            raise InputError(f"bound is fixed at {BOUND}, got {self.bound}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "InequalityReport":
        """The report that ``to_dict`` wrote; ``satisfied`` must be a JSON boolean."""
        try:
            fields = {key: d[key] for key in ("kind", "phase", "lhs", "bound", "margin")}
            satisfied = fields["satisfied"] = d["satisfied"]
        except KeyError as exc:
            raise InputError(f"report is missing field {exc}") from exc
        fields.update(stderr=d.get("stderr"), tolerance=d.get("tolerance", DEFAULT_TOLERANCE))
        for key in ("phase", "lhs", "bound", "margin", "stderr", "tolerance"):
            if key != "stderr" or fields[key] is not None:
                fields[key] = _finite_real(f"report field {key!r}", fields[key])
        if not isinstance(satisfied, bool):
            raise InputError(f"report field 'satisfied' must be a boolean, got {satisfied!r}")
        return cls(**fields)


def _report(kind, phase, lhs, tolerance, stderr=None):
    tolerance = _finite_real("tolerance", tolerance, "be finite and >= 0", lambda t: t >= 0.0)
    margin = lhs - BOUND
    return InequalityReport(
        kind=kind,
        phase=phase,
        lhs=float(lhs),
        bound=BOUND,
        margin=float(margin),
        satisfied=bool(margin >= -tolerance),
        stderr=stderr,
        tolerance=tolerance,
    )


def _variance(source, phase: float) -> float:
    """Var at a real ``phase``: a grid's from its stored rows, any other source's
    from the closed form (InputError for a non-state)."""
    if isinstance(source, TomogramGrid):
        return tomographic_variance(source, phase)
    return analytic_moments(source, phase).variance


def heisenberg_lhs(grid, *, tolerance: float = DEFAULT_TOLERANCE) -> InequalityReport:
    """Var at phase 0 times Var at phase pi/2 of a grid or state, against the bound 1/4."""
    lhs = _variance(grid, 0.0) * _variance(grid, math.pi / 2.0)
    return _report("heisenberg", 0.0, lhs, tolerance)


def _trifonov_product(v1, v1_rot, v2, v2_rot) -> float:
    """1/2 V1(theta) V2(theta + pi/2) + 1/2 V2(theta) V1(theta + pi/2) from the
    four variances: the one Trifonov cross product, for grids, states and datasets."""
    return 0.5 * (v1 * v2_rot) + 0.5 * (v2 * v1_rot)


def _trifonov_cross(w1, w2, phase: float) -> float:
    """``_trifonov_product`` of the two sources' variances at a real ``phase``."""
    other = phase + math.pi / 2.0
    return _trifonov_product(*(_variance(w, theta) for w in (w1, w2) for theta in (phase, other)))


def trifonov_lhs(w1, w2, phase: float, *, tolerance: float = DEFAULT_TOLERANCE) -> InequalityReport:
    """Symmetric two-state dispersion cross product of two grids or states at one phase."""
    phase = _finite_real("phase", phase)
    return _report("trifonov", phase, _trifonov_cross(w1, w2, phase), tolerance)


def _sweep_phases(w1, w2, phases=None):
    """The phases a sweep runs over: ``phases`` when given; else the first grid's
    phases that the other holds (a gap on the pi-circle, seam included, within
    PHASE_TOL; an InputError when there are none); else DEFAULT_N_PHASES uniform phases."""
    if phases is not None:
        phase_arr = _as_points(phases, "phases")
        if phase_arr.ndim != 1 or phase_arr.size == 0:
            raise InputError("phase list must be non-empty")
        return phase_arr
    grids = [w for w in (w1, w2) if isinstance(w, TomogramGrid)]
    if not grids:
        return uniform_phases(DEFAULT_N_PHASES)
    thetas = grids[0].phases
    thetas = thetas[[_nearest_phase(grids[-1].phases, t)[2].min() <= PHASE_TOL for t in thetas]]
    if not thetas.size:
        raise InputError("the two grids hold no phase in common")
    return thetas


def _sweep(w1, w2, phases=None):
    """[(lhs, theta)] over ``_sweep_phases``: the one sweep, read by the check and its plot data."""
    return [(_trifonov_cross(w1, w2, theta), theta) for theta in _sweep_phases(w1, w2, phases).tolist()]


def trifonov_sweep(w1, w2, phases=None, *, tolerance: float = DEFAULT_TOLERANCE) -> InequalityReport:
    """Minimum of the two-state check over ``_sweep``, at its smallest argmin phase."""
    lhs, phase = min(_sweep(w1, w2, phases))
    return _report("trifonov_sweep", phase, lhs, tolerance)


def operator_trifonov_lhs(s1: State, s2: State, phase: float = 0.0) -> float:
    """The same two-state quantity from two states' closed-form moments (no
    tomograms); serves as the anti-drift oracle for the tomographic route."""
    return _trifonov_cross(s1, s2, _finite_real("phase", phase))
