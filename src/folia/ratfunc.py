"""Univariate exact arithmetic: Q[t], Q[t][x], and the print-time reduction.

The Picard-Fuchs reduction works in the ring Q[t][x]: fiber polynomials
``q(x) = p(x) + t`` have coefficients polynomial in the level value t,
and the one denominator, the critical-value polynomial chi(t), is known
in advance.  Nothing here is numeric.

``UPoly``   dense polynomial over Fraction, trailing zeros stripped.
``upoly_gcd`` the monic gcd over Q, by Brown's modular algorithm.
``RatFrac`` a Picard-Fuchs entry put in lowest terms for printing: a
            numerator over chi(t) with the common factor cancelled and
            the denominator made monic.
``tx_*``    helpers treating ``list[UPoly]`` as polynomials in x over Q[t].
``fiber_*`` the critical-value polynomial chi(t) and the Bezout
            cofactors of ``(p + t, p')``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
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


# ---- the monic gcd over Q, by Brown's modular algorithm ---------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The moduli of ``upoly_gcd``: the primes below 2^31, descending."""
    n = 2**31 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _integral(a: UPoly) -> list[int]:
    """``a`` times the lcm of its denominators, as integers."""
    l = lcm(*(c.denominator for c in a.coeffs))
    return [c.numerator * (l // c.denominator) for c in a.coeffs]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[t] of two reduced coefficient lists whose leading
    coefficients are nonzero mod p; the lists are overwritten."""
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            f, k = a[-1] * inv % p, len(a) - 1 - db
            for j in range(db):
                a[k + j] = (a[k + j] - f * b[j]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _rational(u: int, m: int) -> Fraction | None:
    """The fraction r/s = u mod m with |r|, s <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _divides(c: list[int], a: list[int]) -> bool:
    """Whether the primitive ``c`` divides ``a`` in Z[t] (so also in Q[t])."""
    rem, lc, dc = list(a), c[-1], len(c) - 1
    for k in range(len(a) - 1 - dc, -1, -1):
        q, r = divmod(rem[k + dc], lc)
        if r:
            return False
        if q:
            for j in range(dc):
                rem[k + j] -= q * c[j]
    return not any(rem[:dc])


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd over Q (zero only for two zeros), by Brown's modular
    algorithm (JACM 18, 1971).

    With denominators cleared, the gcd modulo a prime that divides
    neither leading coefficient has at least the degree of the true one,
    so degree 0 at one prime proves the inputs coprime.  Otherwise the
    images of the lowest degree seen are combined by CRT, their
    coefficients read back by rational reconstruction, and the candidate
    is accepted only when it divides both inputs exactly; every further
    prime either lowers the degree or enlarges the modulus.
    """
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    ia, ib = _integral(a), _integral(b)
    lead = ia[-1] * ib[-1]
    size, m, crt = len(ia) + len(ib), 1, []     # no image is that long
    for p in _primes():
        if lead % p == 0:
            continue
        img = _gcd_mod([c % p for c in ia], [c % p for c in ib], p)
        if len(img) == 1:
            return UPoly.one()
        if len(img) > size:
            continue                                # an unlucky prime
        if len(img) < size:
            size, m, crt = len(img), 1, [0] * len(img)
        inv = pow(m, -1, p)
        crt = [u + m * ((v - u) * inv % p) for u, v in zip(crt, img)]
        m *= p
        coeffs = [_rational(u, m) for u in crt]
        if None not in coeffs:
            g = UPoly(coeffs)
            z = _integral(g)
            if _divides(z, ia) and _divides(z, ib):
                return g


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
