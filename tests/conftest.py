"""Shared numeric oracles for the test suite.

The Green's-theorem oracle computes area integrals over the region
bounded by a level oval with machinery disjoint from the package's
line-integral path: radial root finding plus Gauss-Legendre in r and a
periodic trapezoid in theta.  Ovals must be star shaped around the
supplied center for the radial parametrization to be single valued.

It also puts ``src`` on ``PYTHONPATH``, so the ``python -m folia`` and
``python -c`` children that some tests start import the package under
test without an install, as pytest itself does through ``pythonpath``.
"""

import math
import os
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src")]
    + [p for p in [os.environ.get("PYTHONPATH")] if p])

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _radial_extent(f_fn, center, t, theta, r_step, r_max):
    """First sign change of f - t along the ray, refined by brentq."""
    cx, cy = center
    u, v = math.cos(theta), math.sin(theta)

    def g(r):
        return f_fn(cx + r * u, cy + r * v) - t

    g0 = g(0.0)
    r_prev, g_prev = 0.0, g0
    r = r_step
    while r <= r_max:
        gr = g(r)
        if math.isfinite(gr) and g_prev * gr < 0.0:
            return brentq(g, r_prev, r, xtol=1e-14, rtol=8.9e-16)
        if math.isfinite(gr):
            r_prev, g_prev = r, gr
        r += r_step
    raise AssertionError(f"no level crossing along theta={theta}")


def greens_m1(f_fn, center, t, integrand, r_step=0.02, r_max=40.0,
              n_theta=512):
    """-integral of the integrand over the oval's interior.

    For omega1 = A dx + B dy the first Melnikov value over the
    counterclockwise oval equals -double-integral of (B_x - A_y); pass
    that combination, already divided by the integrating factor when
    there is one, as a callable of (x, y).
    """
    cx, cy = center
    total = 0.0
    dtheta = 2.0 * math.pi / n_theta
    for k in range(n_theta):
        theta = k * dtheta
        rr = _radial_extent(f_fn, center, t, theta, r_step, r_max)
        # map Gauss-Legendre nodes from [-1, 1] to [0, R]
        rs = 0.5 * rr * (_GL_NODES + 1.0)
        ws = 0.5 * rr * _GL_WEIGHTS
        xs = cx + rs * math.cos(theta)
        ys = cy + rs * math.sin(theta)
        vals = np.asarray(integrand(xs, ys), dtype=float)
        total += float(np.sum(vals * rs * ws)) * dtheta
    return -total
