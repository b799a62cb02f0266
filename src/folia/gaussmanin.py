"""Periods, Picard-Fuchs systems, and Brieskorn reduction.

Three views of the same structure on the fibrations ``y^2 = p(x) + t``:

* numeric periods of polynomial 1-forms over a cycle of the fiber,
  integrated on an elliptic contour around a branch-point pair with the
  square root continued along the contour;
* the exact Gauss-Manin connection on the basis ``x^i dx / y``,
  ``i = 0 .. deg(p) - 2``, derived by rewriting ``x^i / y^3`` inside the
  module generated by the basis over Q(t) (division by ``p + t``, Bezout
  cofactors of ``(p + t, p')``, and the integration-by-parts relations
  ``d(x^j y) ~ 0``);
* the Brieskorn module of the quasi-homogeneous ``f = y^2 - x^m``, where
  every polynomial 1-form has a unique normal form on the monomial
  classes ``x^a y dx``, ``a = 0 .. m - 2``, with coefficients polynomial
  in t acting as multiplication by f.

The Gelfand-Leray check ties the pieces to the flow module: for a
Hamiltonian level family, d/dt of a period equals the period of the
quotient form ``d omega / df``, and both sides are computed from traced
real ovals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError
from .flow import CycleApprox
from .foliation import hamiltonian
from .forms import DifferentialForm
from .melnikov import cycle_at, m1_on_cycle, make_problem
from .monodromy import (_critical_values, _descending, _genericity_failure,
                        _match_roots, _polished_roots, _real_fraction_coeffs)
from .poly import Poly
from .ratfunc import (
    RatFrac,
    UPoly,
    xp_add,
    xp_degree,
    xp_diff,
    xp_divmod,
    xp_from_fractions,
    xp_mul,
    xp_normalize,
    xp_scale,
    xp_sub,
    xp_xgcd,
)

PERIOD_N_START = 64
PERIOD_N_MAX = 65536
PERIOD_REL_TOL = 1e-11
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


def _pair_contour(roots: np.ndarray, pair: int):
    """Ellipse around the branch pair (pair, pair+1), clear of the rest.

    Returns (z(theta), dz(theta)) as vectorized callables on [0, 2pi).
    """
    r1, r2 = roots[pair], roots[pair + 1]
    others = np.delete(roots, [pair, pair + 1])
    gap = abs(r2 - r1)
    if gap == 0.0:
        raise NumericError("coincident branch points; no separating contour")
    if len(others):
        clear = min(_seg_dist(z, r1, r2) for z in others)
    else:
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
        others = np.delete(roots, [k, k + 1])
        if len(others):
            cl = min(_seg_dist(z, roots[k], roots[k + 1]) for z in others)
        else:
            cl = 1.0
        cl = cl / max(abs(roots[k + 1] - roots[k]), 1e-300)
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
                  fn: Callable, rel_tol: float) -> complex:
    """Integrate fn(z, y, dz) over the pair contour, doubling nodes."""
    z_of, dz_of = _pair_contour(roots, pair)
    ct = coeffs.copy()
    ct[-1] += t
    n = PERIOD_N_START
    prev = None
    while n <= PERIOD_N_MAX:
        theta = np.arange(n) * (2.0 * math.pi / n)
        z = z_of(theta)
        w = np.polyval(ct, z)
        if np.min(np.abs(w)) == 0.0:
            raise NumericError("contour passes through a branch point")
        y = _continued_sqrt(w)
        vals = fn(z, y, dz_of(theta))
        cur = complex(np.sum(vals) * (2.0 * math.pi / n))
        if prev is not None and abs(cur - prev) <= rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise NumericError(
        f"period quadrature did not stabilize within {PERIOD_N_MAX} nodes"
    )


def basis_periods(p: Poly, t: complex, pair: int | None = None,
                  rel_tol: float = PERIOD_REL_TOL,
                  ref_roots: np.ndarray | None = None) -> np.ndarray:
    """Periods of ``x^i dx / y``, i = 0..deg(p)-2, over one fiber cycle.

    ``ref_roots`` carries the branch configuration of a nearby fiber so
    that finite-difference sweeps integrate over a continuously varying
    contour; ``pair`` indexes the enclosed branch pair in that ordering.
    """
    coeffs = _descending_coeffs(p)
    roots = _polished_roots(coeffs, FIBER_NEWTON_STEPS, shift=t)
    if ref_roots is not None:
        roots = _match_roots(ref_roots, roots)
    else:
        roots = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
    if pair is None:
        pair = _best_pair(roots)
    if not (0 <= pair < len(roots) - 1):
        raise InputError(f"pair index {pair} out of range")
    m = len(coeffs) - 1
    out = np.empty(m - 1, dtype=complex)
    for i in range(m - 1):
        out[i] = _contour_quad(coeffs, t, roots, pair,
                               lambda z, y, dz, i=i: z**i / y * dz, rel_tol)
    return out


def period_of_form(p: Poly, omega: DifferentialForm, t: complex,
                   pair: int | None = None,
                   rel_tol: float = PERIOD_REL_TOL) -> complex:
    """Period of a polynomial 1-form ``a dx + b dy`` over one fiber cycle.

    On the fiber, ``dy = p'(x) dx / (2y)``; both coefficients are
    evaluated with y continued along the contour.
    """
    if omega.degree != 1 or len(omega.vars) != 2:
        raise InputError("periods are defined for plane 1-forms")
    coeffs = _descending_coeffs(p)
    roots = _polished_roots(coeffs, FIBER_NEWTON_STEPS, shift=t)
    roots = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
    if pair is None:
        pair = _best_pair(roots)
    if not (0 <= pair < len(roots) - 1):
        raise InputError(f"pair index {pair} out of range")
    a_poly, b_poly = omega.coefficients()
    a_fn, b_fn = a_poly.compiled(), b_poly.compiled()
    dp = np.polyder(coeffs)

    def fn(z, y, dz):
        dy = np.polyval(dp, z) * dz / (2.0 * y)
        return a_fn(z, y) * dz + b_fn(z, y) * dy

    return _contour_quad(coeffs, t, roots, pair, fn, rel_tol)


# ---- exact Picard-Fuchs connection -------------------------------------------

@dataclass
class ConnectionMatrix:
    """d/dt (periods) = entries @ (periods), entries in Q(t).

    Denominators vanish only at critical values of the fibration; the
    matrix is regular at every other t.
    """

    p: Poly
    size: int
    entries: tuple[tuple[RatFrac, ...], ...]
    critical_values: tuple[complex, ...]

    def entry_strings(self) -> list[list[str]]:
        return [[e.to_str("t") for e in row] for row in self.entries]

    def evaluate(self, t: complex) -> np.ndarray:
        scale = 1.0 + max(abs(c) for c in self.critical_values)
        if min(abs(t - c) for c in self.critical_values) < 1e-9 * scale:
            raise NumericError(f"connection matrix has a pole at t = {t}")
        out = np.empty((self.size, self.size), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[i, j] = e.eval_numeric(complex(t))
        return out


def _x_power(i: int) -> list[RatFrac]:
    return [RatFrac.zero()] * i + [RatFrac.one()]


def picard_fuchs(p: Poly) -> ConnectionMatrix:
    """Gauss-Manin connection for ``{x^i dx / y}`` on ``y^2 = p(x) + t``.

    Differentiation under the integral gives ``-x^i / (2 y^3)``; the
    ``y^-3`` terms are pushed back to the basis with the Bezout identity
    for ``(p + t, p')`` and the exact-form relations, all over Q(t).
    """
    fr = _real_fraction_coeffs(p)
    m = len(fr) - 1
    if m < 2:
        raise InputError("need a fiber polynomial of degree at least 2")
    reason = _genericity_failure(fr)
    if reason is not None:
        raise InputError(f"non-generic polynomial: {reason}")

    pp = xp_add(xp_from_fractions(fr), [RatFrac.t()])   # p(x) + t
    dp = xp_diff(pp)                                    # p'(x), t-free
    g, s_cof, t_cof = xp_xgcd(pp, dp)
    if xp_degree(g) != 0:
        raise InputError("fiber polynomial is not squarefree over Q(t)")

    half = RatFrac.from_fraction(Fraction(1, 2))
    rows: list[tuple[RatFrac, ...]] = []
    for i in range(m - 1):
        a = _x_power(i)
        at = xp_mul(a, t_cof)
        quot, v = xp_divmod(at, pp)
        u = xp_add(xp_mul(a, s_cof), xp_mul(quot, dp))
        b = xp_add(u, xp_scale(xp_diff(v), RatFrac.from_fraction(Fraction(2))))
        # reduce x^k, k >= m-1, with (k-m+1) x^(k-m) (p+t) + x^(k-m+1) p'/2 ~ 0
        while xp_degree(b) >= m - 1:
            k = xp_degree(b)
            j = k - m + 1
            rel = xp_scale(xp_mul(_x_power(j), dp), half)
            if j >= 1:
                rel = xp_add(rel, xp_scale(xp_mul(_x_power(j - 1), pp),
                                           RatFrac.from_fraction(Fraction(j))))
            if xp_degree(rel) != k or rel[-1].is_zero:
                raise NumericError("degree reduction lost its leading term")
            b = xp_sub(b, xp_scale(rel, b[-1] / rel[-1]))
        b = b + [RatFrac.zero()] * (m - 1 - len(b))
        rows.append(tuple(-half * c for c in b[: m - 1]))

    return ConnectionMatrix(p=p, size=m - 1, entries=tuple(rows),
                            critical_values=tuple(_critical_values(fr)))


def pf_residual(conn: ConnectionMatrix, ts: Sequence[complex],
                h: float = 1e-2, pair: int | None = None,
                rel_tol: float = PERIOD_REL_TOL) -> float:
    """Worst relative defect of d/dt(periods) = matrix @ periods.

    The derivative is a 4th-order central difference of numeric periods
    along a continuously tracked contour.
    """
    coeffs = _descending_coeffs(conn.p)
    worst = 0.0
    for t in ts:
        t = complex(t)
        ref = _polished_roots(coeffs, FIBER_NEWTON_STEPS, shift=t)
        ref = np.array(sorted(ref, key=lambda z: (z.real, z.imag)))
        k = _best_pair(ref) if pair is None else pair
        stencil = {}
        for step in (-2, -1, 0, 1, 2):
            stencil[step] = basis_periods(conn.p, t + step * h, pair=k,
                                          rel_tol=rel_tol, ref_roots=ref)
        fd = (stencil[-2] - 8 * stencil[-1] + 8 * stencil[1] - stencil[2]) \
            / (12.0 * h)
        mv = conn.evaluate(t) @ stencil[0]
        den = max(float(np.linalg.norm(mv)), float(np.linalg.norm(fd)), 1e-300)
        worst = max(worst, float(np.linalg.norm(fd - mv)) / den)
    return worst


# ---- Gelfand-Leray on real ovals ---------------------------------------------

def _eta_integral(cycle: CycleApprox, g_fn, fx_fn, fy_fn,
                  rel_tol: float) -> float:
    """Integral of the quotient form ``d omega / df`` over a traced oval.

    Pointwise the larger of |f_x|, |f_y| picks the patch: the two
    expressions -(g/f_y) dx and (g/f_x) dy restrict to the same form on
    the level curve, so mixing them along the cycle is exact.
    """
    n = PERIOD_N_START
    prev = None
    while n <= PERIOD_N_MAX:
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
        cur = float(np.sum(contrib))
        if prev is not None and abs(cur - prev) <= rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise NumericError(
        f"quotient-form quadrature did not stabilize within {PERIOD_N_MAX} nodes"
    )


def gelfand_leray_check(f: Poly, omega: DifferentialForm,
                        levels: Sequence[float],
                        center: Sequence[float] | None = None,
                        h: float = 1e-3,
                        rel_tol: float = 1e-10,
                        zero_floor: float = 1e-8) -> float:
    """Max relative error of d/dt (period of omega) = period of d omega/df.

    Cycles are the real ovals of the Hamiltonian level family through the
    given (or census-detected) center; the left side is a 4th-order
    finite difference across neighboring levels.  Levels where both sides
    sit below ``zero_floor`` count as exact (an exact omega makes both
    sides zero, where a relative comparison has no meaning).
    """
    record = hamiltonian(f)
    prob = make_problem(record, omega, center=center)
    two_form = omega.exterior_d()
    g = two_form.coeff(0, 1)
    g_fn = g.compiled()
    fx_fn = f.diff(0).compiled()
    fy_fn = f.diff(1).compiled()

    def period(t: float) -> float:
        return -m1_on_cycle(prob, cycle_at(prob, t), rel_tol=rel_tol)

    worst = 0.0
    for t in levels:
        t = float(t)
        fd = (period(t - 2 * h) - 8 * period(t - h)
              + 8 * period(t + h) - period(t + 2 * h)) / (12.0 * h)
        rhs = _eta_integral(cycle_at(prob, t), g_fn, fx_fn, fy_fn, rel_tol)
        den = max(abs(fd), abs(rhs))
        if den < zero_floor:
            continue
        worst = max(worst, abs(fd - rhs) / den)
    return worst


# ---- Brieskorn module of y^2 - x^m -------------------------------------------

@dataclass
class BrieskornBasis:
    """Normal-form data for the quasi-homogeneous family ``y^2 - x^m``.

    The module of polynomial 1-forms modulo ``d(anything)`` and
    ``(anything) df`` is free of rank m - 1 over polynomials in t (t
    acting as multiplication by f), on the classes ``x^a y dx``.
    """

    m: int
    f: Poly
    forms: tuple[DifferentialForm, ...]
    labels: tuple[str, ...]


def brieskorn_basis(m: int, variables: Sequence[str] = ("x", "y")) -> BrieskornBasis:
    if not isinstance(m, int) or m < 2:
        raise InputError("the family y^2 - x^m needs an integer m >= 2")
    vs = tuple(variables)
    if len(vs) != 2:
        raise InputError("the Brieskorn family lives in two variables")
    f = Poly(vs, {(0, 2): 1, (m, 0): -1})
    forms = tuple(
        DifferentialForm(vs, 1, {(0,): Poly(vs, {(a, 1): 1})})
        for a in range(m - 1)
    )
    labels = tuple(
        (f"{vs[1]}*d{vs[0]}" if a == 0 else
         f"{vs[0]}^{a}*{vs[1]}*d{vs[0]}" if a > 1 else
         f"{vs[0]}*{vs[1]}*d{vs[0]}")
        for a in range(m - 1)
    )
    return BrieskornBasis(m=m, f=f, forms=forms, labels=labels)


def brieskorn_reduce(basis: BrieskornBasis,
                     omega: DifferentialForm) -> tuple[Poly, ...]:
    """Normal form of a polynomial 1-form on the classes ``x^a y dx``.

    Exact in the Gaussian rationals; returns one coefficient polynomial
    in t per basis class.  Exact forms and multiples of df reduce to the
    zero vector identically.

    Rewrite rules, with f = y^2 - x^m and df = 2y dy - m x^(m-1) dx:
      x^i y^j dy -> (m/2) x^(i+m-1) y^(j-1) dx          (j >= 1, via df)
      x^i dy     -> -i x^(i-1) y dx                     (via d(x^i y))
      x^i y^(2k) dx -> 0                                (f^l x^n dx is exact
                                                         modulo lower terms)
      y^(2k+1)   -> y (t + x^m)^k                       (t acts as f)
      x^n y dx   -> -2q/(3m+2q) t x^(n-m) y dx, q=n-m+1 (n >= m; n = m-1
                                                         reduces to zero)
    """
    if omega.degree != 1:
        raise InputError("Brieskorn reduction takes a 1-form")
    if omega.vars != basis.f.vars:
        raise InputError(
            f"form variables {omega.vars} disagree with the family's "
            f"{basis.f.vars}"
        )
    m = basis.m
    a_poly, b_poly = omega.coefficients()

    # working monomials c * x^i y^j t^l dx, keyed by (i, j, l)
    work: dict[tuple[int, int, int], object] = {}

    def put(key, c):
        if key in work:
            s = work[key] + c
            if s.is_zero:
                del work[key]
            else:
                work[key] = s
        elif not c.is_zero:
            work[key] = c

    for (i, j), c in b_poly.terms.items():
        if j >= 1:
            put((i + m - 1, j - 1, 0), c * Fraction(m, 2))
        elif i >= 1:
            put((i - 1, 1, 0), c * Fraction(-i))
        # dy alone is exact
    for (i, j), c in a_poly.terms.items():
        put((i, j, 0), c)

    # odd y-powers fold down to y; even ones are exact and vanish
    changed = True
    while changed:
        changed = False
        for key in list(work.keys()):
            if key not in work:
                continue    # cancelled by an earlier rewrite this pass
            i, j, l = key
            if j == 1:
                continue
            c = work.pop(key)
            changed = True
            if j % 2 == 0:
                continue
            k = (j - 1) // 2
            for l2 in range(k + 1):
                put((i + m * (k - l2), 1, l + l2), c * math.comb(k, l2))

    # x-degree reduction inside the y dx stratum
    changed = True
    while changed:
        changed = False
        for key in list(work.keys()):
            if key not in work:
                continue
            i, _, l = key
            if i <= m - 2:
                continue
            c = work.pop(key)
            changed = True
            q = i - m + 1
            if q == 0:
                continue    # x^(m-1) y dx is exact
            put((i - m, 1, l + 1), c * Fraction(-2 * q, 3 * m + 2 * q))

    tv = ("t",)
    out = [Poly.zero(tv) for _ in range(m - 1)]
    for (i, j, l), c in work.items():
        if j != 1 or i > m - 2:
            raise NumericError("Brieskorn rewrite failed to terminate")
        out[i] = out[i] + Poly(tv, {(l,): c})
    return tuple(out)
