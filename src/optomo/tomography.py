"""Optical tomograms: quadrature distributions w(X, theta) of photon states.

Rows come from closed forms.  A phase rotation multiplies the Fock
coefficients c_n by exp(-i n theta), so a Fock-superposition row is

    w(X, theta) = |sum_n c_n exp(-i n theta) psi_n(X)|^2

over the Hermite functions psi_n; a Gaussian row is the normal density with
the mean and variance that the state's mean vector and covariance give at
theta, for every phase in one expression; a mixture's row is the weighted sum
of its components' rows.  A grid is one product C(theta) @ H per Fock
component over a single Hermite table H shared by every phase and component.

The oscillatory transform of the wavefunction,

    w(X, theta) = |integral Psi(y) exp(i y^2 cot(theta)/2 - i X y / sin(theta)) dy|^2
                  / (2 pi |sin theta|),

is kept as an independent cross-check, run only when ``optical_tomogram`` is
given ``branch="position"`` (the integral above, singular at theta = 0) or
``branch="momentum"`` (the same transform over the momentum wavefunction,
shifted by pi/2, singular at theta = pi/2).

Phases are reduced to [0, pi) by ``_wrap_phases`` (``wrap_phase`` is its
scalar view); any other phase is reached through the parity rule
w(X, theta + pi) = w(-X, theta).  Phases of magnitude 2**52 (``MAX_PHASE``)
or more are rejected.  ``_nearest_phase`` matches a query to stored phases,
so a query just below pi (or 0) reads the stored phase 0, mirrored.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from . import kernels, quadrature
from .errors import ExtrapolationError, InputError, ResolutionError
from .states import (
    FockSuperposition,
    GaussianState,
    MixedState,
    State,
    _STATE_TYPES,
    _integer,
    _mean_and_covariance,
    _rotated_moments,
    density_bandwidth,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    grid_halfwidth,
    quadrature_halfwidth,
)

__all__ = [
    "DEFAULT_N_PHASES",
    "DEFAULT_N_X",
    "TomogramGrid",
    "uniform_phases",
    "wrap_phase",
    "gaussian_row",
    "optical_tomogram",
    "tomogram_grid",
    "symplectic_tomogram",
    "tomogram_characteristic",
    "save_tomogram_csv",
    "load_tomogram_csv",
]

DEFAULT_N_PHASES = 64
DEFAULT_N_X = 256
MAX_N_X = 4096
NEGATIVE_TOL = 1e-12
NORM_TOL = 1e-6
# moment queries guard a row whose mean +/- this many sigma leaves the window
WINDOW_SIGMAS = 6.0
PHASE_TOL = 1e-9
# past 2**52 neighbouring doubles are >= 1 rad apart: no phase is left mod pi
MAX_PHASE = 2.0 ** 52
TRANSFORM_TOL = 1e-11
_ENDPOINT_EPS = 1e-12


def uniform_phases(n: int) -> np.ndarray:
    """n phases uniformly spaced on [0, pi)."""
    count = _integer(n)
    if count is None:
        raise InputError(f"phase count must be an integer, got {n!r}")
    if count < 1:
        raise InputError(f"need at least one phase, got {n}")
    return np.arange(count) * (math.pi / count)


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
    if not np.all(np.isfinite(phases)):
        raise InputError("phase must be finite")
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

    The scalar view of ``_wrap_phases``.  A phase already in [0, pi), as
    every stored grid phase is, comes back without a numpy call; + 0.0 turns
    -0.0 into 0.0, as ``_wrap_phases`` does.
    """
    phase = float(phase)
    if 0.0 <= phase < math.pi:
        return phase + 0.0, False
    reduced, mirrored = _wrap_phases(phase)
    return float(reduced), bool(mirrored)


def _nearest_phase(stored, phase):
    """(index, mirrored, gaps): the entry of ``stored`` (phases in [0, pi))
    nearest to ``phase`` on the pi-circle, whether X is mirrored there, and
    every entry's gap to the query.  The query is reduced once; the gaps are
    direct when the nearest is within PHASE_TOL, else taken across the seam
    at 0 = pi if that is nearer, which mirrors X once more."""
    reduced, mirrored = wrap_phase(phase)
    gaps = np.abs(stored - reduced)
    i = int(gaps.argmin())  # the method form skips np.argmin's Python dispatch
    if gaps[i] > PHASE_TOL:
        seam = math.pi - gaps
        j = int(seam.argmin())
        if seam[j] < gaps[i]:
            return j, not mirrored, seam
    return i, mirrored, gaps


def gaussian_row(xs, mean: float, variance: float) -> np.ndarray:
    """Normal density on a grid: a Gaussian state's row, or a test row not
    derived from any state.  ``mean`` and ``variance`` broadcast against
    ``xs``, so columns of them give one row per phase."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.asarray(variance) <= 0):
        raise InputError(f"variance must be > 0, got {variance}")
    return np.exp(-((xs - mean) ** 2) / (2.0 * variance)) / np.sqrt(
        2.0 * math.pi * variance
    )


def _trapezoid_weights(steps):
    """(dx_0/2, (dx_0 + dx_1)/2, ..., dx_last/2) for the steps of an x grid:
    ``rows @ weights`` is ``np.trapezoid(rows, xs, axis=-1)`` up to rounding."""
    weights = np.zeros(steps.size + 1)
    weights[:-1] = steps
    weights[1:] += steps
    weights /= 2.0
    return weights


@dataclass(frozen=True, eq=False)
class TomogramGrid:
    """Sampled tomogram w[theta_index, x_index] on phases x uniform X grid.

    Rows are probability densities: non-negative (values below -1e-12 are
    rejected, small negatives clamped to zero) and trapezoid-normalized to 1
    within 1e-6.  ``source`` is None (a bare grid) or the originating state
    spec, enabling exact re-evaluation off the grid.  The arrays are
    read-only, so ``row_moments``, and the per-row table that moment queries
    read, are computed once and kept.
    """

    phases: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    source: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.source is not None and not isinstance(self.source, _STATE_TYPES):
            raise InputError(
                f"source must be a state spec or None, got {type(self.source).__name__}"
            )
        phases = np.array(self.phases, dtype=float)
        xs = np.array(self.xs, dtype=float)
        # not copied: the clamp below makes the array the grid keeps
        values = np.asarray(self.values, dtype=float)
        if phases.ndim != 1 or phases.size < 1:
            raise InputError("phases must be a non-empty 1-D array")
        if not np.isfinite(phases).all() or phases[0] < 0 or phases[-1] >= math.pi:
            raise InputError("phases must be finite and lie in [0, pi)")
        if (phases[1:] <= phases[:-1]).any():
            raise InputError("phases must be strictly increasing")
        if xs.ndim != 1 or xs.size < 2:
            raise InputError("x grid needs at least two points")
        steps = xs[1:] - xs[:-1]
        step = steps[0]
        # a NaN or infinite x leaves a NaN or infinite step, which fails this
        if not 0.0 < step < math.inf or not (np.abs(steps - step) <= 1e-9 * step).all():
            raise InputError("x grid must be uniform and increasing")
        if values.shape != (phases.size, xs.size):
            raise InputError(
                f"values shape {values.shape} does not match "
                f"({phases.size}, {xs.size})"
            )
        if not np.isfinite(values).all():
            raise InputError("tomogram values must be finite")
        vmin = float(values.min())
        if vmin < -NEGATIVE_TOL:
            raise InputError(f"tomogram values must be >= -{NEGATIVE_TOL}, got {vmin}")
        values = np.maximum(values, 0.0)
        masses = values @ _trapezoid_weights(steps)
        bad = np.abs(masses - 1.0).argmax()
        if abs(masses[bad] - 1.0) > NORM_TOL:
            raise InputError(
                f"row at phase {phases[bad]:.6g} integrates to {masses[bad]:.8f}, "
                f"outside 1 +/- {NORM_TOL}"
            )
        for arr in (phases, xs, values):
            arr.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    @property
    def n_phases(self) -> int:
        return self.phases.size

    @property
    def n_x(self) -> int:
        return self.xs.size

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @cached_property
    def _row_of(self):
        """Stored phase -> row index."""
        return {theta: i for i, theta in enumerate(self.phases.tolist())}

    def lookup(self, phase: float):
        """(index, mirrored): the stored phase that answers any real phase on
        the pi-circle (``_nearest_phase``), and whether the density there is
        the stored row at -X; a phase farther than PHASE_TOL from every
        stored phase is rejected.  A phase that reduces to a stored phase
        exactly is a dictionary hit."""
        reduced, mirrored = wrap_phase(phase)
        i = self._row_of.get(reduced)
        if i is None:
            i, seam, gaps = _nearest_phase(self.phases, reduced)
            if gaps[i] > PHASE_TOL:
                raise InputError(
                    f"phase {phase:.9g} (reduced {reduced:.9g}) is not on "
                    f"the grid; nearest stored phase is {self.phases[i]:.9g}"
                )
            mirrored = mirrored != seam
        return i, mirrored

    @cached_property
    def row_moments(self):
        """(means, variances): every row's Simpson mean and variance, computed
        in one pass on first use; variances are clamped at zero."""
        if self.n_x < 3:
            raise InputError(f"moments need >= 3 points per row, the grid has {self.n_x}")
        means, variances = quadrature.simpson_moments(self.xs, self.values)
        means.setflags(write=False)
        variances.setflags(write=False)
        return means, variances

    @cached_property
    def _moment_table(self):
        """(means, variances, narrow): ``row_moments`` as lists of floats, and
        per row whether mean +/- WINDOW_SIGMAS sigma leaves the x window, the
        test that ``moments._guard_window`` makes, operation for operation."""
        means, variances = (arr.tolist() for arr in self.row_moments)
        lo, hi = float(self.xs[0]), float(self.xs[-1])
        narrow = [
            mean - WINDOW_SIGMAS * math.sqrt(var) < lo or mean + WINDOW_SIGMAS * math.sqrt(var) > hi
            for mean, var in zip(means, variances)
        ]
        return means, variances, narrow

    def row_at(self, phase: float):
        """(row, mirrored) for any real phase; mirrored means the density at
        the query phase is row evaluated at -X."""
        i, mirrored = self.lookup(phase)
        return self.values[i], mirrored


# --------------------------------------------------------------------------
# row evaluation: closed forms by default, the oscillatory transform on request
# --------------------------------------------------------------------------

def _components(state):
    return state.components if isinstance(state, MixedState) else ((1.0, state),)


def _fock_rows(coeffs, reduced, mirrored, herm):
    """|C(theta) @ H|^2 for every phase at once; row i of C holds the rotated
    coefficients c_n exp(-i n theta_i), with the odd ones negated on mirrored
    phases since psi_n(-X) = (-1)^n psi_n(X).  H is real, so the row is
    (Re C @ H)^2 + (Im C @ H)^2: one real product of Re C stacked over Im C,
    squared and summed in place, with no complex copy of H."""
    n = np.arange(coeffs.size)
    rotated = coeffs * np.exp(reduced[:, None] * (-1j * n))
    if mirrored.any():
        rotated *= np.where(mirrored[:, None], (-1.0) ** n, 1.0)
    k = reduced.size
    parts = rotated.view(float).reshape(k, n.size, 2).transpose(2, 0, 1).reshape(2 * k, n.size)
    amp = parts @ herm[: n.size]
    rows, imag = amp[:k], amp[k:]
    rows *= rows
    imag *= imag
    rows += imag
    return rows


def _state_rows(state, phases, xs) -> np.ndarray:
    """Closed-form rows w(X, phase), shape (len(phases), len(xs)), for a pure
    or mixed state; every Fock component shares one Hermite table."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    reduced, mirrored = _wrap_phases(phases)
    components = _components(state)
    cutoffs = [s.cutoff for _, s in components if isinstance(s, FockSuperposition)]
    herm = kernels.hermite_functions(max(cutoffs), xs) if cutoffs else None
    total = None
    for weight, comp in components:
        if isinstance(comp, FockSuperposition):
            rows = _fock_rows(comp.coeff_array(), reduced, mirrored, herm)
        else:
            mean, var = _rotated_moments(_mean_and_covariance(comp), reduced[:, None])
            rows = gaussian_row(xs, np.where(mirrored[:, None], -mean, mean), var)
        # rows are >= 0, so starting the sum from them is bitwise 0 + w * rows
        if weight != 1.0:
            rows *= weight
        if total is None:
            total = rows
        else:
            total += rows
    return total


def _state_row(state, phase, xs):
    return _state_rows(state, [phase], xs)[0]


def _transform_row(state, theta, xs, branch):
    """Row of a pure state at theta in [0, pi) from the oscillatory transform
    over the position or momentum wavefunction."""
    st, ct = math.sin(theta), math.cos(theta)
    if branch == "position":
        if abs(st) < _ENDPOINT_EPS:
            raise InputError("position-representation branch is singular at theta = 0")
        chirp = ct / (2.0 * st)
        freq = 1.0 / st
        prefactor = 1.0 / (2.0 * math.pi * abs(st))
        wavefunction = eval_position_wavefunction
    else:
        if abs(ct) < _ENDPOINT_EPS:
            raise InputError(
                "momentum-representation branch is singular at theta = pi/2"
            )
        chirp = -st / (2.0 * ct)
        freq = -1.0 / ct
        prefactor = 1.0 / (2.0 * math.pi * abs(ct))
        wavefunction = eval_momentum_wavefunction

    halfwidth = quadrature_halfwidth(state)
    while halfwidth < 1024.0:
        edge = abs(wavefunction(state, -halfwidth)) ** 2 + abs(
            wavefunction(state, halfwidth)
        ) ** 2
        if edge * halfwidth < 1e-12:
            break
        halfwidth *= 2.0

    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    x_extent = max(abs(float(xs[0])), abs(float(xs[-1])), 1.0)
    state_rate = (
        2.0 * math.sqrt(2.0 * state.cutoff + 1.0)
        if isinstance(state, FockSuperposition)
        else 2.0
    )
    total_phase = (
        abs(chirp) * halfwidth ** 2
        + abs(freq) * x_extent * halfwidth
        + state_rate * halfwidth
    )
    n0 = quadrature.pow2_at_least(max(128.0, total_phase / 2.0))

    def estimate(y, wts):
        g = wavefunction(state, y) * np.exp(1j * chirp * y * y) * wts
        amp = kernels.amplitude_rows(g, y, freq, xs)
        return (amp.real ** 2 + amp.imag ** 2) * prefactor

    return quadrature.adaptive(
        estimate,
        -halfwidth,
        halfwidth,
        n0=n0,
        tol=TRANSFORM_TOL,
        label=f"tomogram row at theta={theta:.6g}",
    )


def optical_tomogram(
    state,
    phase: float,
    xs,
    *,
    branch: str | None = None,
) -> np.ndarray:
    """One tomogram row w(X, phase) of a pure state on the given X points.

    By default the row is the closed form: |sum_n c_n exp(-i n theta)
    psi_n(X)|^2 for a Fock superposition, the normal density with the
    ``analytic_moments`` mean and variance for a Gaussian.  ``branch``
    ("position" or "momentum") instead evaluates the oscillatory transform of
    that wavefunction, refined until successive estimates differ by at most
    1e-11 (``TRANSFORM_TOL``); it is an independent cross-check of the closed
    form, valid wherever the branch is not singular (theta = 0 for
    "position", pi/2 for "momentum").
    """
    if not isinstance(state, (GaussianState, FockSuperposition)):
        raise InputError(f"expected a pure state, got {type(state).__name__}")
    if branch not in (None, "position", "momentum"):
        raise InputError(f"branch must be 'position' or 'momentum', got {branch!r}")
    pts = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise InputError("x points must be finite")
    if branch is None:
        return _state_row(state, phase, pts)
    reduced, mirrored = wrap_phase(phase)
    return _transform_row(state, reduced, -pts if mirrored else pts, branch)


def _resolve_phases(phases):
    if _integer(phases) is not None:
        return uniform_phases(phases)
    arr = np.asarray(phases, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError("phases must be an integer count or a 1-D list")
    return arr


def default_n_x(state, window, requested=None):
    """X-point count: the 256-point default, raised when the state's densities
    oscillate too fast for it (trapezoid sums on rows stay spectrally exact)."""
    if requested is not None:
        count = _integer(requested)
        if count is None:
            raise InputError(f"n_x must be an integer, got {requested!r}")
        if count < 2:
            raise InputError(f"n_x must be >= 2, got {requested}")
        return count
    width = window[1] - window[0]
    needed = width * density_bandwidth(state) / math.pi * 1.25
    return min(MAX_N_X, max(DEFAULT_N_X, quadrature.pow2_at_least(needed)))


def tomogram_grid(
    state: State,
    phases=DEFAULT_N_PHASES,
    n_x: int | None = None,
    window=None,
) -> TomogramGrid:
    """Compute a full tomogram grid for a pure or mixed state.

    ``phases`` is either a count (uniform on [0, pi)) or an explicit list;
    ``window`` defaults to the symmetric 8-sigma window of the state.  All
    rows come from one closed-form pass over a shared Hermite table.
    """
    if not isinstance(state, _STATE_TYPES):
        raise InputError(f"expected a state, got {type(state).__name__}")
    phase_arr = _resolve_phases(phases)
    if window is None:
        half = grid_halfwidth(state)
        window = (-half, half)
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise InputError(f"invalid window {window!r}")
    xs = np.linspace(lo, hi, default_n_x(state, (lo, hi), n_x))
    return TomogramGrid(phase_arr, xs, _state_rows(state, phase_arr, xs), source=state)


# --------------------------------------------------------------------------
# symplectic (scaled) tomogram
# --------------------------------------------------------------------------

def symplectic_tomogram(
    grid: TomogramGrid, x: float, mu: float, nu: float, *, exact: bool | None = None
) -> float:
    """w(x, mu, nu) = (1/r) w_opt(x/r, angle(mu, nu)) with r = hypot(mu, nu).

    The angle is mapped into [0, pi) through the parity rule.  With a source
    state attached the row value is re-evaluated exactly; otherwise the stored
    grid is linearly interpolated in X using the stored phase nearest on the
    pi-circle (``_nearest_phase``, with no tolerance).
    """
    for name, v in (("x", x), ("mu", mu), ("nu", nu)):
        if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
            raise InputError(f"{name} must be a finite real number, got {v!r}")
    if mu == 0.0 and nu == 0.0:
        raise InputError("(mu, nu) = (0, 0) is not a valid quadrature direction")
    r = math.hypot(mu, nu)
    if exact is None:
        exact = grid.source is not None
    if exact:
        if grid.source is None:
            raise InputError("exact evaluation requires a grid with a source state")
        return float(_state_row(grid.source, math.atan2(nu, mu), np.array([x / r]))[0]) / r

    j, mirrored, _ = _nearest_phase(grid.phases, math.atan2(nu, mu))
    u = -(x / r) if mirrored else x / r
    xs = grid.xs
    if u < xs[0] or u > xs[-1]:
        raise ExtrapolationError(
            f"scaled quadrature x/r = {u:.6g} falls outside the stored grid "
            f"[{xs[0]:.6g}, {xs[-1]:.6g}]"
        )
    return float(np.interp(u, xs, grid.values[j])) / r


# --------------------------------------------------------------------------
# characteristic functions of tomogram rows
# --------------------------------------------------------------------------

def _fock_density(state):
    """rho = sum_i w_i conj(c_i) c_i^T over the Fock components of a state, at
    the largest cutoff; None when the state has no Fock component."""
    fock = [(w, s.coeff_array()) for w, s in _components(state) if isinstance(s, FockSuperposition)]
    if not fock:
        return None
    n = max(c.size for _, c in fock)
    rho = np.zeros((n, n), dtype=complex)
    for w, c in fock:
        rho[: c.size, : c.size] += w * np.outer(np.conj(c), c)
    return rho


def _fock_coefficients(rho, r):
    """(freqs, coeffs): Tr[rho exp(i r X(theta))] = sum_j exp(-i freqs[j]
    theta) coeffs[j], with freqs = (0, 1, ..., n-1, -1, ..., -(n-1)) and
    coeffs of shape (2n - 1, len(r)), for a Fock-basis density matrix rho.

    With x = r^2/2 the unrotated matrix elements are <m| exp(i r X(0)) |m+k> =
    v_k h_m^(k): v_k = <k|D(i r/sqrt(2))|0> and h_m^(k) = sqrt(k! m!/(m+k)!)
    L_m^(k)(x), the normalised generalised Laguerre polynomial, run up its
    three-term recurrence in m for every k at once.  The matrix is symmetric,
    and a rotation by theta multiplies its k-th upper (lower) diagonal by
    exp(-i k theta) (exp(i k theta)).
    """
    n = rho.shape[0]
    x = 0.5 * r * r
    k = np.arange(n)
    up = np.zeros((n, r.size), dtype=complex)  # sum_m rho[m, m+k] h_m^(k)
    down = np.zeros((n, r.size), dtype=complex)  # sum_m rho[m+k, m] h_m^(k)
    h_prev, h = None, np.ones((n, r.size))
    for m in range(n):
        kk = k[: n - m, None]
        if m == 1:
            h_prev, h = h, (1.0 + kk - x) / np.sqrt(kk + 1.0)
        elif m >= 2:
            a = np.sqrt(m / (m + kk)) * (2 * m - 1 + kk - x)
            b = (m - 1 + kk) * np.sqrt(m * (m - 1) / ((m + kk) * (m + kk - 1)))
            h_prev, h = h, (a * h[: n - m] - b * h_prev[: n - m]) / m
        up[: n - m] += rho[m, m:, None] * h[: n - m]
        down[: n - m] += rho[m:, m, None] * h[: n - m]
    # v_0 = exp(-x/2), v_k = v_(k-1) i r / sqrt(2k)
    v = np.cumprod(np.vstack([np.exp(-0.5 * x), 1j * r / np.sqrt(2.0 * k[1:, None])]), axis=0)
    return np.concatenate([k, -k[1:]]), np.concatenate([v * up, (v * down)[1:]])


def _state_of(source):
    """The state spec a source stands for: the source itself, the state a
    grid carries, or None for a bare grid; anything else is an InputError."""
    if isinstance(source, TomogramGrid):
        return source.source
    if isinstance(source, _STATE_TYPES):
        return source
    raise InputError(f"expected a TomogramGrid or state, got {type(source).__name__}")


def _grid_characteristic(grid, phases, r):
    hits = [grid.lookup(theta) for theta in phases]
    rows = grid.values[[i for i, _ in hits]]
    r_top = float(r.max()) if r.size else 0.0
    if r_top * grid.dx > math.pi / 2.0:
        raise ResolutionError(
            f"x grid spacing {grid.dx:.4g} is too coarse for r = {r_top:.4g} "
            f"(need r*dx <= pi/2)"
        )
    wts = np.full(grid.n_x, grid.dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    amp = kernels.amplitude_rows((rows * wts).T, grid.xs, -1.0, r).T
    return amp, np.array([m for _, m in hits], dtype=bool)


def _state_characteristic(state, reduced, r):
    """phi(r, theta) of a state at phases in [0, pi), shape (len(reduced),
    len(r)); all Fock components are summed into one density matrix."""
    total = np.zeros((reduced.size, r.size), dtype=complex)
    rho = _fock_density(state)
    if rho is not None:
        freqs, coeffs = _fock_coefficients(rho, r)
        total += np.exp(-1j * np.outer(reduced, freqs)) @ coeffs
    for w, s in _components(state):
        if isinstance(s, GaussianState):
            mean, var = _rotated_moments(_mean_and_covariance(s), reduced[:, None])
            total += w * np.exp(1j * r * mean - 0.5 * r * r * var)
    return total


def tomogram_characteristic(source, phase, r):
    """phi(r, theta) = integral w(U, theta) exp(i r U) dU for r >= 0.

    ``phase`` and ``r`` are numbers or arrays; the result has shape
    ``np.shape(phase) + np.shape(r)`` (a complex number for two scalars).
    ``source`` is a state spec (closed form; also used when a grid carries
    one) or a bare TomogramGrid (trapezoid sums over the stored rows, guarded
    against X-grid aliasing).  Phases outside [0, pi) use the parity rule
    phi(r, theta + pi) = conj(phi(r, theta)).
    """
    r_arr = np.ravel(np.asarray(r, dtype=float))
    if not np.all(np.isfinite(r_arr)):
        raise InputError("r must be finite")
    if np.any(r_arr < 0.0):
        raise InputError("r must be >= 0")
    phases = np.ravel(phase)
    state = _state_of(source)
    if state is None:
        out, mirrored = _grid_characteristic(source, phases, r_arr)
    else:
        reduced, mirrored = _wrap_phases(phases)
        out = _state_characteristic(state, reduced, r_arr)
    out = np.where(mirrored[:, None], np.conj(out), out)
    shape = np.shape(phase) + np.shape(r)
    return out.reshape(shape) if shape else complex(out[0, 0])


# --------------------------------------------------------------------------
# CSV persistence
# --------------------------------------------------------------------------

def save_tomogram_csv(grid: TomogramGrid, path):
    """Write "theta,x,w" rows, row-major by phase, full float precision."""
    xs = [f"{x:.17g}," for x in grid.xs.tolist()]
    with open(path, "w") as fh:
        fh.write("theta,x,w\n")
        for theta, row in zip(grid.phases.tolist(), grid.values):
            prefix = f"{theta:.17g},"
            fh.write("".join([f"{prefix}{x}{w:.17g}\n" for x, w in zip(xs, row.tolist())]))


def _read_csv(path, header, what):
    """The records of a CSV file whose first line is ``header``, as a 2-D
    float array; ``what`` names the kind of file when it cannot be read."""
    try:
        with open(path) as fh:
            found = fh.readline().strip()
            if found != header:
                raise InputError(f"{path}: expected header {header!r}, got {found!r}")
            try:
                with warnings.catch_warnings():
                    # a header-only file is empty data, which each loader judges
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    return np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise InputError(f"{path}: malformed CSV: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def load_tomogram_csv(path) -> TomogramGrid:
    """Read a tomogram CSV; validates layout and row normalization."""
    data = _read_csv(path, "theta,x,w", "tomogram")
    if data.size == 0 or data.shape[1] != 3:
        raise InputError(f"{path}: expected three columns theta,x,w")
    thetas = data[:, 0]
    change = np.nonzero(np.diff(thetas) != 0.0)[0]
    n_x = int(change[0] + 1) if change.size else thetas.size
    if thetas.size % n_x != 0:
        raise InputError(f"{path}: ragged phase blocks")
    n_phases = thetas.size // n_x
    theta_blocks = thetas.reshape(n_phases, n_x)
    if not np.all(theta_blocks == theta_blocks[:, :1]):
        raise InputError(f"{path}: phase column is not constant within blocks")
    x_blocks = data[:, 1].reshape(n_phases, n_x)
    if not np.all(x_blocks == x_blocks[0]):
        raise InputError(f"{path}: x grid differs between phase blocks")
    values = data[:, 2].reshape(n_phases, n_x)
    return TomogramGrid(theta_blocks[:, 0], x_blocks[0], values)
