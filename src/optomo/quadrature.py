"""Quadrature rule for integrands that can be evaluated anywhere: composite
Gauss-Legendre with node-doubling refinement.  (Stored rows are integrated
by their trapezoid weights, ``tomography._trapezoid_weights``.)

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
