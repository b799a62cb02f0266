"""Brieskorn module of the quasi-homogeneous ``f = y^2 - x^m``.

Every polynomial 1-form has a unique normal form on the monomial classes
``x^a y dx``, ``a = 0 .. m - 2``, with coefficients polynomial in t
acting as multiplication by f.  The reduction is exact in the Gaussian
rationals and needs no numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NumericError
from .forms import DifferentialForm
from .poly import Poly


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


def brieskorn_basis(m: int) -> BrieskornBasis:
    if not isinstance(m, int) or m < 2:
        raise InputError("the family y^2 - x^m needs an integer m >= 2")
    vs = ("x", "y")
    f = Poly(vs, {(0, 2): 1, (m, 0): -1})
    forms = tuple(
        DifferentialForm(vs, 1, {(0,): Poly(vs, {(a, 1): 1})})
        for a in range(m - 1)
    )
    labels = tuple("y*dx" if a == 0 else "x*y*dx" if a == 1 else f"x^{a}*y*dx"
                   for a in range(m - 1))
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

    # odd y-powers fold down to y; even ones are exact and vanish.  The
    # fold only makes j = 1 keys, so one pass over the others suffices.
    for key in [key for key in work if key[1] != 1]:
        i, j, l = key
        c = work.pop(key)
        if j % 2:
            k = (j - 1) // 2
            for l2 in range(k + 1):
                put((i + m * (k - l2), 1, l + l2), c * math.comb(k, l2))

    # x-degree reduction inside the y dx stratum: the rule lowers i by m,
    # so one pass from the largest i down leaves nothing above m - 2
    for i in range(max((key[0] for key in work), default=-1), m - 2, -1):
        q = i - m + 1
        for key in [key for key in work if key[0] == i]:
            c = work.pop(key)
            if q:       # x^(m-1) y dx is exact
                put((i - m, 1, key[2] + 1), c * Fraction(-2 * q, 3 * m + 2 * q))

    tv = ("t",)
    out = [Poly.zero(tv) for _ in range(m - 1)]
    for (i, j, l), c in work.items():
        if j != 1 or i > m - 2:
            raise NumericError("Brieskorn rewrite failed to terminate")
        out[i] = out[i] + Poly(tv, {(l,): c})
    return tuple(out)
