"""Univariate exact arithmetic: Q[t], the field Q(t), and Q(t)[x].

The Picard-Fuchs reduction works in the ring Q(t)[x]: fiber polynomials
``q(x) = p(x) + t`` have rational-function coefficients in the level
value t.  Nothing here is numeric; evaluation helpers convert on demand.

``UPoly``   dense polynomial over Fraction, trailing zeros stripped.
``RatFrac`` reduced fraction of two UPoly with monic denominator.
``xp_*``    helpers treating ``list[RatFrac]`` as polynomials in x.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError


class UPoly:
    """Dense univariate polynomial over Q, coefficients ascending."""

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

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative power of a polynomial")
        r = UPoly.one()
        for _ in range(n):
            r = r * self
        return r

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        l = self.lc()
        return UPoly([c / l for c in self.coeffs])

    def diff(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_exact(self, v: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval_numeric(self, z):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + float(c)
        return acc

    def to_str(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"UPoly({self.to_str()!r})"


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


class RatFrac:
    """Element of Q(t): reduced quotient of UPoly, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly | None = None):
        if not isinstance(num, UPoly):
            num = UPoly.constant(num)
        if den is None:
            den = UPoly.one()
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

    @classmethod
    def zero(cls) -> "RatFrac":
        return cls(UPoly.zero())

    @classmethod
    def one(cls) -> "RatFrac":
        return cls(UPoly.one())

    @classmethod
    def t(cls) -> "RatFrac":
        return cls(UPoly.x())

    @classmethod
    def from_fraction(cls, c) -> "RatFrac":
        return cls(UPoly.constant(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @staticmethod
    def _coerce(v) -> "RatFrac":
        if isinstance(v, RatFrac):
            return v
        if isinstance(v, UPoly):
            return RatFrac(v)
        if isinstance(v, (int, Fraction)):
            return RatFrac(UPoly.constant(v))
        raise InputError(f"cannot coerce {v!r} into Q(t)")

    def __add__(self, other):
        o = self._coerce(other)
        return RatFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RatFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero in Q(t)")
        return RatFrac(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except InputError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def diff(self) -> "RatFrac":
        return RatFrac(
            self.num.diff() * self.den - self.num * self.den.diff(),
            self.den * self.den,
        )

    def eval_exact(self, v: Fraction) -> Fraction:
        d = self.den.eval_exact(v)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {v}")
        return self.num.eval_exact(v) / d

    def eval_numeric(self, z):
        d = self.den.eval_numeric(z)
        return self.num.eval_numeric(z) / d

    def to_str(self, var: str = "t") -> str:
        ns = self.num.to_str(var)
        if self.den == UPoly.one():
            return ns
        return f"({ns})/({self.den.to_str(var)})"

    def __repr__(self):
        return f"RatFrac({self.to_str()!r})"


# ---- polynomials in x over Q(t), as plain lists ---------------------------


def xp_normalize(a: list[RatFrac]) -> list[RatFrac]:
    a = list(a)
    while a and a[-1].is_zero:
        a.pop()
    return a


def xp_degree(a: list[RatFrac]) -> int:
    return len(a) - 1


def xp_add(a: list[RatFrac], b: list[RatFrac]) -> list[RatFrac]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else RatFrac.zero()
        y = b[i] if i < len(b) else RatFrac.zero()
        out.append(x + y)
    return xp_normalize(out)


def xp_sub(a: list[RatFrac], b: list[RatFrac]) -> list[RatFrac]:
    return xp_add(a, [-c for c in b])


def xp_scale(a: list[RatFrac], c: RatFrac) -> list[RatFrac]:
    if c.is_zero:
        return []
    return xp_normalize([x * c for x in a])


def xp_mul(a: list[RatFrac], b: list[RatFrac]) -> list[RatFrac]:
    if not a or not b:
        return []
    out = [RatFrac.zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return xp_normalize(out)


def xp_divmod(a: list[RatFrac], b: list[RatFrac]):
    b = xp_normalize(list(b))
    if not b:
        raise ZeroDivisionError("division by zero in Q(t)[x]")
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [RatFrac.zero() for _ in range(max(0, len(rem) - db))]
    while True:
        rem = xp_normalize(rem)
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = rem[-1] / lb
        q[k] = q[k] + f
        for j, c in enumerate(b):
            rem[k + j] = rem[k + j] - f * c
    return xp_normalize(q), rem


def xp_diff(a: list[RatFrac]) -> list[RatFrac]:
    return xp_normalize([a[i] * Fraction(i) for i in range(1, len(a))])


def xp_xgcd(a: list[RatFrac], b: list[RatFrac]):
    """Extended Euclid in Q(t)[x]: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = xp_normalize(list(a)), xp_normalize(list(b))
    s0, s1 = [RatFrac.one()], []
    t0, t1 = [], [RatFrac.one()]
    while r1:
        q, r = xp_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, xp_sub(s0, xp_mul(q, s1))
        t0, t1 = t1, xp_sub(t0, xp_mul(q, t1))
    if not r0:
        return [], s0, t0
    lead = r0[-1]
    inv = RatFrac.one() / lead
    return xp_scale(r0, inv), xp_scale(s0, inv), xp_scale(t0, inv)


def xp_from_fractions(coeffs: Sequence[Fraction]) -> list[RatFrac]:
    return xp_normalize([RatFrac.from_fraction(c) for c in coeffs])
