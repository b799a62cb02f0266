"""Periods and Picard-Fuchs systems.

Two views of the same structure on the fibrations ``y^2 = p(x) + t``:

* numeric periods of polynomial 1-forms over a cycle of the fiber,
  integrated on an elliptic contour around a branch-point pair with the
  square root continued along the contour;
* the exact Gauss-Manin connection on the basis ``x^i dx / y``,
  ``i = 0 .. deg(p) - 2``, derived by rewriting ``chi(t) x^i / y^3``
  in Q[t][x] (division by ``p + t``, the Bezout cofactors of
  ``(p + t, p')`` over the critical-value polynomial chi, and the
  integration-by-parts relations ``d(x^j y) ~ 0``), each entry a
  numerator over chi, reduced only when printed.

The Brieskorn module of ``y^2 - x^m`` lives in ``folia.brieskorn``,
which needs no numerics; its names are re-exported here.

The Gelfand-Leray check ties the pieces to the flow module: for a
Hamiltonian level family, d/dt of a period equals the period of the
quotient form ``d omega / df``, and both sides are computed from traced
real ovals.  The numeric modules (``flow``, ``melnikov``,
``foliation``) are imported by the functions that use them, so the
exact connection loads none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .brieskorn import (BrieskornBasis, brieskorn_basis,  # re-exported
                        brieskorn_reduce)
from .errors import InputError, NumericError
from .monodromy import (_critical_values, _descending, _genericity_failure,
                        _match_roots, _polished_roots, _real_fraction_coeffs)
from .poly import Poly
from .ratfunc import RatFrac, UPoly, fiber_bezout, tx_add, tx_divmod, tx_mul

if TYPE_CHECKING:
    from .flow import CycleApprox
    from .forms import DifferentialForm

PERIOD_REL_TOL = 1e-11
GL_REL_TOL = 1e-10      # node doubling on both sides of Gelfand-Leray
PAD_FRACTION = 0.45
FIBER_NEWTON_STEPS = 4


# ---- numeric periods on hyperelliptic fibers --------------------------------

def _descending_coeffs(p: Poly) -> np.ndarray:
    fr = _real_fraction_coeffs(p)
    if len(fr) < 3:
        raise InputError("fiber polynomial must have degree at least 2")
    return _descending(fr)


def _seg_dist(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    s = ((z - a) / ab).real if ab != 0 else 0.0
    s = min(1.0, max(0.0, s))
    return abs(z - (a + s * ab))


def _clearance(roots: np.ndarray, k: int) -> float | None:
    """Distance from the segment roots[k], roots[k+1] to the nearest
    other root; None when there is no other root."""
    others = np.delete(roots, [k, k + 1])
    return min((_seg_dist(z, roots[k], roots[k + 1]) for z in others),
               default=None)


def _pair_contour(roots: np.ndarray, pair: int):
    """Ellipse around the branch pair (pair, pair+1), clear of the rest.

    Returns (z(theta), dz(theta)) as vectorized callables on [0, 2pi).
    """
    r1, r2 = roots[pair], roots[pair + 1]
    gap = abs(r2 - r1)
    if gap == 0.0:
        raise NumericError("coincident branch points; no separating contour")
    clear = _clearance(roots, pair)
    if clear is None:
        clear = max(gap, 1.0)
    if clear <= 1e-12 * (1.0 + float(np.max(np.abs(roots)))):
        raise NumericError("a third branch point sits on the pair segment")
    c = 0.5 * (r1 + r2)
    u = (r2 - r1) / gap
    a_ax = 0.5 * gap + PAD_FRACTION * clear
    b_ax = PAD_FRACTION * clear

    def z_of(theta):
        return c + u * (a_ax * np.cos(theta) + 1j * b_ax * np.sin(theta))

    def dz_of(theta):
        return u * (-a_ax * np.sin(theta) + 1j * b_ax * np.cos(theta))

    return z_of, dz_of


def _best_pair(roots: np.ndarray) -> int:
    """Consecutive pair (in (Re, Im) order) with the widest clearance."""
    best, score = 0, -1.0
    for k in range(len(roots) - 1):
        gap = max(abs(roots[k + 1] - roots[k]), 1e-300)
        cl = _clearance(roots, k)
        cl = (1.0 if cl is None else cl) / gap
        if cl > score:
            best, score = k, cl
    return best


def _continued_sqrt(w: np.ndarray) -> np.ndarray:
    """Branch-continuous square root along a closed sample loop."""
    s = np.sqrt(w)
    y = s.copy()
    for j in range(1, len(y)):
        if abs(s[j] - y[j - 1]) > abs(s[j] + y[j - 1]):
            y[j] = -s[j]
    # closing the loop must come back to the starting branch: the contour
    # encloses an even number of branch points
    if abs(y[0] - y[-1]) > abs(y[0] + y[-1]):
        raise NumericError(
            "square root does not close up; contour encloses odd branching"
        )
    return y


def _contour_quad(coeffs: np.ndarray, t: complex, roots: np.ndarray, pair: int,
                  fn: Callable) -> complex:
    """Integrate fn(z, y, dz) over the pair contour, doubling nodes."""
    from .melnikov import N_MAX, node_doubling
    z_of, dz_of = _pair_contour(roots, pair)
    ct = coeffs.copy()
    ct[-1] += t

    def at(n):
        theta = np.arange(n) * (2.0 * math.pi / n)
        z = z_of(theta)
        w = np.polyval(ct, z)
        if np.min(np.abs(w)) == 0.0:
            raise NumericError("contour passes through a branch point")
        y = _continued_sqrt(w)
        vals = fn(z, y, dz_of(theta))
        return complex(np.sum(vals) * (2.0 * math.pi / n))

    return node_doubling(
        at, PERIOD_REL_TOL,
        f"period quadrature did not stabilize within {N_MAX} nodes")


def _fiber_roots(coeffs: np.ndarray, t: complex, pair: int | None,
                 ref_roots: np.ndarray | None = None):
    """Branch points of the fiber at t and the index of the enclosed pair.

    The roots follow ``ref_roots`` when given, else (Re, Im) order; a
    missing ``pair`` is the best-cleared consecutive one.
    """
    roots = _polished_roots(coeffs, FIBER_NEWTON_STEPS, shift=t)
    if ref_roots is not None:
        roots = _match_roots(ref_roots, roots)
    else:
        roots = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
    if pair is None:
        pair = _best_pair(roots)
    if not (0 <= pair < len(roots) - 1):
        raise InputError(f"pair index {pair} out of range")
    return roots, pair


def basis_periods(p: Poly, t: complex, pair: int | None = None,
                  ref_roots: np.ndarray | None = None) -> np.ndarray:
    """Periods of ``x^i dx / y``, i = 0..deg(p)-2, over one fiber cycle.

    ``ref_roots`` carries the branch configuration of a nearby fiber so
    that finite-difference sweeps integrate over a continuously varying
    contour; ``pair`` indexes the enclosed branch pair in that ordering.
    """
    coeffs = _descending_coeffs(p)
    roots, pair = _fiber_roots(coeffs, t, pair, ref_roots)
    m = len(coeffs) - 1
    out = np.empty(m - 1, dtype=complex)
    for i in range(m - 1):
        out[i] = _contour_quad(coeffs, t, roots, pair,
                               lambda z, y, dz, i=i: z**i / y * dz)
    return out


def period_of_form(p: Poly, omega: DifferentialForm, t: complex,
                   pair: int | None = None) -> complex:
    """Period of a polynomial 1-form ``a dx + b dy`` over one fiber cycle.

    On the fiber, ``dy = p'(x) dx / (2y)``; both coefficients are
    evaluated with y continued along the contour.
    """
    if omega.degree != 1 or len(omega.vars) != 2:
        raise InputError("periods are defined for plane 1-forms")
    coeffs = _descending_coeffs(p)
    roots, pair = _fiber_roots(coeffs, t, pair)
    a_poly, b_poly = omega.coefficients()
    a_fn, b_fn = a_poly.compiled(), b_poly.compiled()
    dp = np.polyder(coeffs)

    def fn(z, y, dz):
        dy = np.polyval(dp, z) * dz / (2.0 * y)
        return a_fn(z, y) * dz + b_fn(z, y) * dy

    return _contour_quad(coeffs, t, roots, pair, fn)


# ---- exact Picard-Fuchs connection -------------------------------------------

@dataclass
class ConnectionMatrix:
    """d/dt (periods) = (numerators / chi) @ (periods), over Q[t].

    ``chi`` is the monic critical-value polynomial, so the matrix is
    regular at every t other than a critical value.  Entries are put in
    lowest terms only when printed.
    """

    p: Poly
    size: int
    chi: UPoly
    numerators: tuple[tuple[UPoly, ...], ...]
    critical_values: tuple[complex, ...]

    def entry_strings(self) -> list[list[str]]:
        return [[RatFrac(n, self.chi).to_str() for n in row]
                for row in self.numerators]

    @cached_property
    def _stack(self) -> np.ndarray:
        # numerator coefficients, highest power first: (length, size, size)
        deg = max(len(n.coeffs) for row in self.numerators for n in row) or 1
        return np.array([[[0.0] * (deg - len(n.coeffs))
                          + [float(c) for c in n.coeffs[::-1]] for n in row]
                         for row in self.numerators]).transpose(2, 0, 1)

    def evaluate(self, t: complex) -> np.ndarray:
        scale = 1.0 + max(abs(c) for c in self.critical_values)
        if min(abs(t - c) for c in self.critical_values) < 1e-9 * scale:
            raise NumericError(f"connection matrix has a pole at t = {t}")
        t = complex(t)
        chi = np.polyval([float(c) for c in self.chi.coeffs[::-1]], t)
        return np.polyval(self._stack, t) / chi


def picard_fuchs(p: Poly) -> ConnectionMatrix:
    """Gauss-Manin connection for ``{x^i dx / y}`` on ``y^2 = p(x) + t``.

    Differentiation under the integral gives ``-x^i / (2 y^3)``; the
    ``y^-3`` terms are pushed back to the basis with the Bezout identity
    ``v0 (p + t) - w p' = chi`` and the exact-form relations.  Every
    divisor has a rational leading coefficient, so all of it stays in
    Q[t][x], and each entry is one numerator over chi(t).
    """
    fr = _real_fraction_coeffs(p)
    m = len(fr) - 1
    if m < 2:
        raise InputError("need a fiber polynomial of degree at least 2")
    chi, v0, w = fiber_bezout(fr)
    reason = _genericity_failure(fr, chi)
    if reason is not None:
        raise InputError(f"non-generic polynomial: {reason}")

    pt = tx_add([UPoly.constant(c) for c in fr], [UPoly.x()])   # p(x) + t
    dp = [UPoly.constant(c * k) for k, c in enumerate(fr)][1:]  # p'(x)
    half = Fraction(1, 2)
    rows: list[tuple[UPoly, ...]] = []
    for i in range(m - 1):
        # chi x^i = x^i v0 (p + t) - x^i w p', and -x^i w = quot (p + t) + v
        shift = [UPoly.zero()] * i
        quot, v = tx_divmod(shift + [-c for c in w], pt)
        b = tx_add(tx_add(shift + v0, tx_mul(quot, dp)),
                   [c * (2 * k) for k, c in enumerate(v)][1:])
        # reduce x^k, k >= m-1, with (k-m+1) x^(k-m) (p+t) + x^(k-m+1) p'/2 ~ 0
        while len(b) >= m:
            j = len(b) - m
            rel = [UPoly.zero()] * j + [c * half for c in dp]
            if j >= 1:
                rel = tx_add(rel, [UPoly.zero()] * (j - 1) + [c * j for c in pt])
            b = tx_add(b, tx_mul(rel, [b[-1] * (-1 / rel[-1].lc())]))
        b += [UPoly.zero()] * (m - 1 - len(b))
        rows.append(tuple(c * -half for c in b))

    return ConnectionMatrix(p=p, size=m - 1, chi=chi, numerators=tuple(rows),
                            critical_values=tuple(_critical_values(fr)))


def pf_residual(conn: ConnectionMatrix, ts: Sequence[complex]) -> float:
    """Worst relative defect of d/dt(periods) = matrix @ periods.

    The derivative is a 4th-order central difference of numeric periods
    along a continuously tracked contour around the best-cleared pair.
    """
    coeffs = _descending_coeffs(conn.p)
    h = 1e-2
    worst = 0.0
    for t in ts:
        t = complex(t)
        ref, k = _fiber_roots(coeffs, t, None)
        stencil = {}
        for step in (-2, -1, 0, 1, 2):
            stencil[step] = basis_periods(conn.p, t + step * h, pair=k,
                                          ref_roots=ref)
        fd = (stencil[-2] - 8 * stencil[-1] + 8 * stencil[1] - stencil[2]) \
            / (12.0 * h)
        mv = conn.evaluate(t) @ stencil[0]
        den = max(float(np.linalg.norm(mv)), float(np.linalg.norm(fd)), 1e-300)
        worst = max(worst, float(np.linalg.norm(fd - mv)) / den)
    return worst


# ---- Gelfand-Leray on real ovals ---------------------------------------------

def _eta_integral(cycle: CycleApprox, g_fn, fx_fn, fy_fn) -> float:
    """Integral of the quotient form ``d omega / df`` over a traced oval.

    Pointwise the larger of |f_x|, |f_y| picks the patch: the two
    expressions -(g/f_y) dx and (g/f_x) dy restrict to the same form on
    the level curve, so mixing them along the cycle is exact.
    """
    from .melnikov import N_MAX, node_doubling

    def at(n):
        pts, w = cycle.quadrature_nodes(n)
        x, y = pts[:, 0], pts[:, 1]
        gv = np.asarray(g_fn(x, y), dtype=float)
        fxv = np.broadcast_to(np.asarray(fx_fn(x, y), dtype=float), x.shape)
        fyv = np.broadcast_to(np.asarray(fy_fn(x, y), dtype=float), x.shape)
        mag = np.maximum(np.abs(fxv), np.abs(fyv))
        if np.min(mag) < 1e-9 * max(1.0, float(np.max(mag))):
            raise NumericError("gradient vanishes on the cycle; "
                               "no Gelfand-Leray patch applies")
        use_y = np.abs(fyv) >= np.abs(fxv)
        contrib = np.where(use_y,
                           -gv * w[:, 0] / np.where(use_y, fyv, 1.0),
                           gv * w[:, 1] / np.where(use_y, 1.0, fxv))
        return float(np.sum(contrib))

    return node_doubling(
        at, GL_REL_TOL,
        f"quotient-form quadrature did not stabilize within {N_MAX} nodes")


def gelfand_leray_check(f: Poly, omega: DifferentialForm,
                        levels: Sequence[float],
                        center: Sequence[float] | None = None) -> float:
    """Max relative error of d/dt (period of omega) = period of d omega/df.

    Cycles are the real ovals of the Hamiltonian level family through the
    given (or census-detected) center; the left side is a 4th-order
    finite difference across neighboring levels.  Levels where both sides
    sit below 1e-8 count as exact (an exact omega makes both
    sides zero, where a relative comparison has no meaning).
    """
    from . import melnikov  # make_problem is read when called: a tracer may swap it
    from .foliation import hamiltonian
    from .melnikov import cycle_at, m1_on_cycle
    record = hamiltonian(f)
    prob = melnikov.make_problem(record, omega, center=center)
    two_form = omega.exterior_d()
    g = two_form.coeff(0, 1)
    g_fn = g.compiled()
    fx_fn = f.diff(0).compiled()
    fy_fn = f.diff(1).compiled()

    def period(t: float) -> float:
        return -m1_on_cycle(prob, cycle_at(prob, t), rel_tol=GL_REL_TOL)

    h = 1e-3
    worst = 0.0
    for t in levels:
        t = float(t)
        fd = (period(t - 2 * h) - 8 * period(t - h)
              + 8 * period(t + h) - period(t + 2 * h)) / (12.0 * h)
        rhs = _eta_integral(cycle_at(prob, t), g_fn, fx_fn, fy_fn)
        den = max(abs(fd), abs(rhs))
        if den < 1e-8:
            continue
        worst = max(worst, abs(fd - rhs) / den)
    return worst
