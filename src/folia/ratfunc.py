"""Univariate exact arithmetic: Q[t], Q[t][x], and the print-time reduction.

The Picard-Fuchs reduction works in the ring Q[t][x]: fiber polynomials
``q(x) = p(x) + t`` have coefficients polynomial in the level value t,
and the one denominator, the critical-value polynomial chi(t), is known
in advance.  Nothing here is numeric.

``UPoly``   dense polynomial over Fraction, trailing zeros stripped.
``RatFrac`` a Picard-Fuchs entry put in lowest terms for printing: a
            numerator over chi(t) with the common factor cancelled and
            the denominator made monic.
``tx_*``    helpers treating ``list[UPoly]`` as polynomials in x over Q[t].
``fiber_*`` the critical-value polynomial chi(t) and the Bezout
            cofactors of ``(p + t, p')``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .poly import join_terms


class UPoly:
    """Dense univariate polynomial over Q, coefficients ascending,
    printed in the variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "UPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UPoly(a)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(other)
        if self.is_zero or other.is_zero:
            return UPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UPoly(out)

    def __divmod__(self, other: "UPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlc = other.lc()
        dd = other.degree
        q = [Fraction(0)] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlc
            q[k] = f
            for j, c in enumerate(other.coeffs):
                rem[k + j] -= f * c
            rem.pop()
        return UPoly(q), UPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly.constant(other)
        return NotImplemented

    def __bool__(self):
        return not self.is_zero

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        l = self.lc()
        return UPoly([c / l for c in self.coeffs])

    def diff(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_str(self) -> str:
        return join_terms(
            (c < 0, abs(c), "" if i == 0 else "t" if i == 1 else f"t^{i}")
            for i, c in reversed(list(enumerate(self.coeffs))) if c)

    def __repr__(self):
        return f"UPoly({self.to_str()!r})"


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


class RatFrac:
    """Quotient of two UPoly in lowest terms, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if num.is_zero:
            self.num, self.den = UPoly.zero(), UPoly.one()
            return
        g = upoly_gcd(num, den)
        if g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        l = den.lc()
        if l != 1:
            num = UPoly([c / l for c in num.coeffs])
            den = UPoly([c / l for c in den.coeffs])
        self.num, self.den = num, den

    def to_str(self) -> str:
        ns = self.num.to_str()
        if self.den == UPoly.one():
            return ns
        return f"({ns})/({self.den.to_str()})"

    def __repr__(self):
        return f"RatFrac({self.to_str()!r})"


# ---- polynomials in x over Q[t], as plain lists ----------------------------


def tx_trim(a: list[UPoly]) -> list[UPoly]:
    while a and a[-1].is_zero:
        a.pop()
    return a


def tx_add(a: list[UPoly], b: list[UPoly]) -> list[UPoly]:
    if len(a) < len(b):
        a, b = b, a
    return tx_trim([c + b[i] if i < len(b) else c for i, c in enumerate(a)])


def tx_mul(a: list[UPoly], b: list[UPoly]) -> list[UPoly]:
    if not a or not b:
        return []
    out = [UPoly.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return tx_trim(out)


def tx_divmod(a: list[UPoly], b: list[UPoly]):
    """Quotient and remainder in Q[t][x]; the leading coefficient of ``b``
    must be a rational constant, so nothing is divided by a polynomial in t."""
    if not b or b[-1].degree != 0:
        raise InputError("divisor needs a nonzero constant leading coefficient")
    inv, n = 1 / b[-1].lc(), len(b) - 1
    rem = list(a)
    q = [UPoly.zero()] * max(0, len(rem) - n)
    for k in range(len(q) - 1, -1, -1):
        f = q[k] = rem[k + n] * inv
        if f:
            for j, c in enumerate(b):
                rem[k + j] = rem[k + j] - f * c
    return tx_trim(q), tx_trim(rem[:n])


def fiber_adjugate(p: Sequence[Fraction]) -> tuple[UPoly, list[UPoly]]:
    """``(chi, v0)`` with ``(p + t) v0 = chi`` modulo p', for ascending ``p``.

    ``chi(t) = det(tI + M)``, where M multiplies by ``r = p mod p'`` on
    Q[x]/(p'), is monic of degree deg(p) - 1: a nonzero constant times
    ``Res_x(p', p + t)``, with the critical values as roots.  One
    Faddeev-LeVerrier pass over ``tI - B``, ``B = -M``, gives chi and the
    first column of adj(tI + M), which read in the basis ``x^i`` is v0.
    Every matrix of the pass is a polynomial in B, so it is kept as the
    residue it multiplies by, and traces come from the power sums of the
    roots of p'.
    """
    up = UPoly(p)
    dp = up.diff()
    n, a = dp.degree, dp.monic().coeffs
    sums = [Fraction(n)]                    # Newton's identities for p'
    for k in range(1, n):
        sums.append(-k * a[n - k]
                    - sum(a[n - i] * sums[k - i] for i in range(1, k)))
    neg_r = -(up % dp)
    # N_0 = 1; N_k = B N_(k-1) + c_k with c_k = -tr(B N_(k-1)) / k
    nk, cs, firsts = UPoly.one(), [Fraction(1)], []
    for k in range(1, n + 1):
        firsts.append(nk.coeffs + (Fraction(0),) * (n - len(nk.coeffs)))
        bn = (neg_r * nk) % dp
        cs.append(-sum(c * s for c, s in zip(bn.coeffs, sums)) / k)
        nk = bn + cs[-1]
    chi = UPoly(cs[::-1])
    v0 = tx_trim([UPoly([firsts[n - 1 - e][i] for e in range(n)])
                  for i in range(n)])
    return chi, v0


def fiber_bezout(p: Sequence[Fraction]):
    """``(chi, v0, w)`` with ``v0 (p + t) - w p' = chi``: the cofactors of
    ``fiber_adjugate`` and w from one exact division by p'."""
    chi, v0 = fiber_adjugate(p)
    up = UPoly(p)
    dp = up.diff()
    pt = tx_add([UPoly.constant(c) for c in up.coeffs], [UPoly.x()])
    w = tx_divmod(tx_add(tx_mul(pt, v0), [-chi]),
                  [UPoly.constant(c) for c in dp.coeffs])[0]
    return chi, v0, w
