"""Quadrature rules: composite Gauss-Legendre with node-doubling refinement,
and Simpson's rule over sampled rows.

Fixed 256-node panels are chained across the window; refining doubles the
panel count.  All supported integrands are smooth and rapidly decaying, so a
resolved estimate gains digits superexponentially per refinement.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

PANEL_NODES = 256
MAX_NODES = 1 << 14


@lru_cache(maxsize=8)
def _panel(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def nodes(n_total, a, b):
    """Nodes/weights over [a, b]: ceil(n_total / m) equal panels of m = min(n_total, 256) nodes."""
    m = min(n_total, PANEL_NODES)
    k = int(np.ceil(n_total / m))
    x, w = _panel(m)
    edges = np.linspace(a, b, k + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    ys = (half * x[None, :] + mids[:, None]).ravel()
    ws = np.tile(w * half, k)
    return ys, ws


def simpson(y, xs):
    """Simpson's rule along the last axis of y, sampled on the strictly
    increasing grid xs; one call integrates every row of a 2-D y.

    Reproduces ``scipy.integrate.simpson(y, x=xs, axis=-1)``: the composite
    rule for irregular spacing over pairs of intervals; for an even point
    count it covers the first N-3 intervals and adds Cartwright's correction
    for the last one.  Each row's result is bitwise that of a 1-D call.
    """
    n = xs.size
    h = np.diff(xs)
    stop = n - 2 if n % 2 else n - 3
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    # hsum / 6 * (y0 (2 - 1/ratio) + y1 hsum^2 / (h0 h1) + y2 (2 - ratio)),
    # evaluated in place in that order
    terms = y[..., 0:stop:2] * (2.0 - 1.0 / ratio)
    scratch = y[..., 1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
    terms += scratch
    np.multiply(y[..., 2:stop + 2:2], 2.0 - ratio, out=scratch)
    terms += scratch
    terms *= hsum / 6.0
    total = np.sum(terms, axis=-1)
    if n % 2 == 0:
        # scipy's one-element array arithmetic on floats, which rounds the
        # same; hb ** 3 stays an array power, as a scalar one can round differently
        ha, hb = float(h[-2]), float(h[-1])
        alpha = (2 * (hb * hb) + 3 * ha * hb) / (6 * (hb + ha))
        beta = (hb * hb + 3.0 * ha * hb) / (6 * ha)
        eta = float((h[-1:] ** 3)[0]) / (6 * ha * (ha + hb))
        total = total + (alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3])
    return total


def simpson_moments(xs, rows):
    """(mean, variance) of the densities in rows along the last axis, by
    Simpson's rule; a variance that rounds below zero is clamped to 0.

    rows * xs and rows * xs * xs are stacked and integrated in one ``simpson``
    call, which gives each bitwise what a call of its own would."""
    products = np.empty((2,) + np.shape(rows))
    np.multiply(rows, xs, out=products[0])
    np.multiply(products[0], xs, out=products[1])
    mean, second = simpson(products, xs)
    var = second - mean * mean
    return mean, np.where(var < 0.0, 0.0, var)


def pow2_at_least(x):
    return 1 << max(0, int(np.ceil(np.log2(max(1.0, float(x))))))


def adaptive(f, a, b, *, n0=128, tol=1e-11, label=""):
    """Refine ``f(nodes, weights) -> estimate`` until the sup-norm change <= tol.

    The estimate may be a scalar or an ndarray.  Raises QuadratureError with
    diagnostics when refinement reaches ``MAX_NODES``.
    """
    n = min(pow2_at_least(n0), MAX_NODES // 2)
    y, w = nodes(n, a, b)
    prev = f(y, w)
    err = np.inf
    while n < MAX_NODES:
        n *= 2
        y, w = nodes(n, a, b)
        cur = f(y, w)
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol:
            return cur
        prev = cur
    what = f" for {label}" if label else ""
    raise QuadratureError(
        f"quadrature did not converge{what}: last change {err:.3e} > {tol:.3e} "
        f"at {MAX_NODES} nodes on [{a:.6g}, {b:.6g}]"
    )
