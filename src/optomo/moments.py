"""Means and dispersions extracted from tomogram rows.

All moments use Simpson's rule (``quadrature.simpson``).  A grid computes
every row's mean and variance in one pass on its first moment query and
keeps them (``TomogramGrid.row_moments``), with each row's moments as floats
and a flag saying whether the window-coverage guard acts on it; a query at a
grid phase is a lookup, two list reads and the mirror sign, and only a
flagged row goes through the guard (on every query).  Loose rows
(``row_mean``, ``row_variance``) are validated on every call.  Moments taken
directly from a state bypass the stored grid through a dedicated fine row,
so estimator accuracy is not tied to grid resolution.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InputError, NumericalError, TruncationWarning
from .quadrature import simpson, simpson_moments
from .states import MomentSet, State, grid_halfwidth
from .tomography import NORM_TOL, WINDOW_SIGMAS, TomogramGrid, _state_row

__all__ = [
    "row_mean",
    "row_variance",
    "tomographic_mean",
    "tomographic_variance",
    "tomographic_moments",
    "moments_from_state",
]

TAIL_TOL = 1e-6
STATE_ROW_POINTS = 2049


def _checked(xs, row):
    xs = np.asarray(xs, dtype=float)
    row = np.asarray(row, dtype=float)
    if xs.ndim != 1 or xs.shape != row.shape or xs.size < 3:
        raise InputError("row and x grid must be matching 1-D arrays (>= 3 points)")
    if not np.all(np.diff(xs) > 0.0):
        raise InputError("x grid must be strictly increasing")
    mass = float(np.trapezoid(row, xs))
    if abs(mass - 1.0) > NORM_TOL:
        raise InputError(
            f"row integrates to {mass:.8f}, outside 1 +/- {NORM_TOL}; "
            "normalize it before taking moments"
        )
    return xs, row


def _guard_window(xs, row, mean, var):
    """Warn (or raise, when the boundary density is not negligible) if the
    window does not cover mean +/- 6 sigma (``WINDOW_SIGMAS``) of the row."""
    sigma = math.sqrt(var)
    if mean - WINDOW_SIGMAS * sigma < xs[0] or mean + WINDOW_SIGMAS * sigma > xs[-1]:
        tail_estimate = (float(row[0]) + float(row[-1])) * max(sigma, 1e-3)
        if tail_estimate > TAIL_TOL:
            raise NumericalError(
                f"grid window [{xs[0]:.4g}, {xs[-1]:.4g}] is narrower than 6 sigma "
                f"around mean {mean:.4g} and the boundary tail estimate "
                f"{tail_estimate:.3g} exceeds {TAIL_TOL}"
            )
        warnings.warn(
            f"grid window is narrower than 6 sigma around mean {mean:.4g}; "
            "variance may be slightly truncated",
            TruncationWarning,
            stacklevel=3,  # the caller of the public moment function
        )


def row_mean(xs, row) -> float:
    """integral w(X) X dX over the grid (Simpson)."""
    xs, row = _checked(xs, row)
    return float(simpson(row * xs, xs))


def row_variance(xs, row) -> float:
    """integral w X^2 dX - (integral w X dX)^2, with a window-coverage guard."""
    xs, row = _checked(xs, row)
    mean, var = simpson_moments(xs, row)
    mean, var = float(mean), float(var)
    _guard_window(xs, row, mean, var)
    return var


def _grid_moments(grid, phase):
    """(mean, variance, row, mirrored): the kept moments of the stored row at
    a grid phase, the mean that of the unmirrored row; row is that stored
    row when the window guard acts on it, else None."""
    i, mirrored = grid.lookup(phase)
    means, variances, narrow = grid._moment_table
    return means[i], variances[i], grid.values[i] if narrow[i] else None, mirrored


def tomographic_mean(grid: TomogramGrid, phase: float) -> float:
    mean, _, _, mirrored = _grid_moments(grid, phase)
    return -mean if mirrored else mean


def tomographic_variance(grid: TomogramGrid, phase: float) -> float:
    # variance is invariant under X -> -X
    mean, var, row, _ = _grid_moments(grid, phase)
    if row is not None:
        _guard_window(grid.xs, row, mean, var)
    return var


def tomographic_moments(grid: TomogramGrid, phase: float) -> MomentSet:
    mean, var, row, mirrored = _grid_moments(grid, phase)
    if row is not None:
        _guard_window(grid.xs, row, mean, var)
    return MomentSet(-mean if mirrored else mean, var, float(phase))


def moments_from_state(state: State, phase: float) -> MomentSet:
    """Tomographic moments from a dedicated fine row (2049 points over the
    state's window), independent of any grid."""
    half = grid_halfwidth(state)
    xs = np.linspace(-half, half, STATE_ROW_POINTS)
    xs, row = _checked(xs, _state_row(state, phase, xs))
    mean, var = simpson_moments(xs, row)
    mean, var = float(mean), float(var)
    _guard_window(xs, row, mean, var)
    return MomentSet(mean, var, float(phase))
