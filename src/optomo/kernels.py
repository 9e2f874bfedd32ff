"""Hot numeric kernels, written in numpy only.

``hermite_functions`` builds the shared table of every closed-form row;
``amplitude_rows`` evaluates the oscillatory sums of the transform
cross-check and of grid characteristic functions.  ``amplitude_rows_uniform``
is the same sum on a uniform grid; the package no longer calls it, and it
stays because ``perfbench/tracing.py`` looks it up by name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "amplitude_rows",
    "amplitude_rows_uniform",
    "hermite_functions",
]

# cap numpy scratch matrices at ~64 MB of complex128
_CHUNK_ELEMS = 4 << 20


def amplitude_rows(g, y, c, xs):
    """``out[i] = sum_k g[k] * exp(-1j * c * xs[i] * y[k])`` for arbitrary xs;
    columns of a 2-D ``g`` share one exponential table (``out[i, j]``)."""
    g = np.ascontiguousarray(g, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.float64)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    c = float(c)
    out = np.empty((xs.size,) + g.shape[1:], dtype=np.complex128)
    block = max(1, _CHUNK_ELEMS // max(1, y.size))
    for lo in range(0, xs.size, block):
        hi = min(lo + block, xs.size)
        out[lo:hi] = np.exp(-1j * c * np.outer(xs[lo:hi], y)) @ g
    return out


def amplitude_rows_uniform(g, y, c, x0, dx, n):
    """Same sum as :func:`amplitude_rows` on the uniform grid x0 + dx*arange(n)."""
    xs = float(x0) + float(dx) * np.arange(int(n))
    return amplitude_rows(g, y, c, xs)


def hermite_functions(nmax, y):
    """Hermite functions psi_0..psi_nmax on y, by the stable recurrence on psi.

    psi_n(y) = (2^n n! sqrt(pi))^(-1/2) H_n(y) exp(-y^2/2); the recurrence
    psi_n = sqrt(2/n) y psi_{n-1} - sqrt((n-1)/n) psi_{n-2} never touches the
    overflowing H_n or n! factors.  y is clipped to +-1e154, where every psi_n
    is +-0 either way, so sqrt(2) y stays finite and no inf * 0 gives nan.
    """
    y = np.minimum(np.maximum(np.ascontiguousarray(y, dtype=np.float64), -1e154), 1e154)
    nmax = int(nmax)
    out = np.empty((nmax + 1, y.size))
    # each row is built in place, operation for operation as in the formulas
    np.multiply(-0.5 * y, y, out=out[0])
    np.exp(out[0], out=out[0])
    out[0] *= np.pi ** -0.25
    if nmax >= 1:
        np.multiply(math.sqrt(2.0) * y, out[0], out=out[1])
    scratch = np.empty(y.size)
    for n in range(2, nmax + 1):
        row = out[n]
        np.multiply(y, math.sqrt(2.0 / n), out=row)
        row *= out[n - 1]
        np.multiply(out[n - 2], math.sqrt((n - 1.0) / n), out=scratch)
        row -= scratch
    return out
