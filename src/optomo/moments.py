"""Means and dispersions extracted from tomogram rows.

Moments on stored grids use Simpson's rule; moments taken directly from a
state bypass the stored grid through a dedicated fine row, so estimator
accuracy is not tied to grid resolution.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InputError, NumericalError, TruncationWarning
from .states import MomentSet, State, grid_halfwidth
from .tomography import TomogramGrid, _state_row

__all__ = [
    "row_mean",
    "row_variance",
    "tomographic_mean",
    "tomographic_variance",
    "tomographic_moments",
    "moments_from_state",
]

NORM_TOL = 1e-6
TAIL_TOL = 1e-6
STATE_ROW_POINTS = 2049


def _simpson(y, xs):
    """Simpson's rule for samples y on the strictly increasing grid xs.

    Reproduces ``scipy.integrate.simpson(y, x=xs)``: the composite rule for
    irregular spacing over pairs of intervals; for an even point count it
    covers the first N-3 intervals and adds Cartwright's correction for the
    last one.
    """
    n = xs.size
    h = np.diff(xs)
    stop = n - 2 if n % 2 else n - 3
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    total = np.sum(
        hsum / 6.0 * (
            y[0:stop:2] * (2.0 - 1.0 / ratio)
            + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
            + y[2:stop + 2:2] * (2.0 - ratio)
        )
    )
    if n % 2 == 0:
        # one-element arrays, as in scipy: a scalar hb ** 3 can round differently
        ha, hb = h[-2:-1], h[-1:]
        alpha = (2 * hb ** 2 + 3 * ha * hb) / (6 * (hb + ha))
        beta = (hb ** 2 + 3.0 * ha * hb) / (6 * ha)
        eta = hb ** 3 / (6 * ha * (ha + hb))
        total += (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0]
    return float(total)


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


def row_mean(xs, row) -> float:
    """integral w(X) X dX over the grid (Simpson)."""
    xs, row = _checked(xs, row)
    return _simpson(row * xs, xs)


def row_variance(xs, row) -> float:
    """integral w X^2 dX - (integral w X dX)^2, with a window-coverage guard."""
    xs, row = _checked(xs, row)
    mean = _simpson(row * xs, xs)
    var = _simpson(row * xs * xs, xs) - mean * mean
    var = max(var, 0.0)
    sigma = math.sqrt(var)
    if mean - 6.0 * sigma < xs[0] or mean + 6.0 * sigma > xs[-1]:
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
            stacklevel=2,
        )
    return var


def tomographic_mean(grid: TomogramGrid, phase: float) -> float:
    row, mirrored = grid.row_at(phase)
    mean = row_mean(grid.xs, row)
    return -mean if mirrored else mean


def tomographic_variance(grid: TomogramGrid, phase: float) -> float:
    row, _ = grid.row_at(phase)  # variance is invariant under X -> -X
    return row_variance(grid.xs, row)


def tomographic_moments(grid: TomogramGrid, phase: float) -> MomentSet:
    return MomentSet(
        tomographic_mean(grid, phase),
        tomographic_variance(grid, phase),
        float(phase),
    )


def moments_from_state(state: State, phase: float) -> MomentSet:
    """Tomographic moments from a dedicated fine row (2049 points over the
    state's window), independent of any grid."""
    half = grid_halfwidth(state)
    xs = np.linspace(-half, half, STATE_ROW_POINTS)
    row = _state_row(state, phase, xs)
    return MomentSet(row_mean(xs, row), row_variance(xs, row), float(phase))
