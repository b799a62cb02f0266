"""Univariate exact arithmetic: Q[t], Q[t][x], and the print-time reduction.

The Picard-Fuchs reduction works in the ring Q[t][x]: fiber polynomials
``q(x) = p(x) + t`` have coefficients polynomial in the level value t,
and the one denominator, the critical-value polynomial chi(t), is known
in advance.  Nothing here is numeric, and the polynomial arithmetic runs
on integers: a Fraction appears only as a single scalar (a leading
coefficient, a trace of ``fiber_adjugate``) and in the ``coeffs`` view.

``UPoly``   a polynomial in Q[t] as integer numerators (ascending) over
            one positive denominator, canonical: no trailing zero and
            ``gcd(den, *num) == 1``, so equality is structural.
            ``coeffs`` is the derived Fraction view of the coefficients.
``upoly_gcd`` the monic gcd over Q with its two cofactors, by Brown's
            modular algorithm.
``RatFrac`` a Picard-Fuchs entry put in lowest terms for printing: a
            numerator over chi(t) divided by their gcd, read off the
            cofactors, with the denominator made monic.
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


def _make(num: list[int], den: int) -> "UPoly":
    """The canonical ``num / den`` for integer numerators (the list is
    consumed) and a positive integer denominator."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    u = object.__new__(UPoly)
    u.num, u.den = tuple(num), den
    return u


class UPoly:
    """Univariate polynomial over Q, printed in the variable t: the
    integer numerators ``num`` of the coefficients, ascending, over the
    positive denominator ``den``, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        u = _make([c.numerator * (den // c.denominator) for c in cs], den)
        self.num, self.den = u.num, u.den

    @staticmethod
    def zero() -> "UPoly":
        return _make([], 1)

    @staticmethod
    def one() -> "UPoly":
        return _make([1], 1)

    @staticmethod
    def constant(c) -> "UPoly":
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        return _make([c.numerator], c.denominator)

    @staticmethod
    def x() -> "UPoly":
        return _make([0, 1], 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def lc(self) -> Fraction:
        if not self.num:
            raise InputError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __add__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(other)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            g = gcd(den, other.den)
            sa, sb = other.den // g, den // g
            a, b, den = [c * sa for c in a], [c * sb for c in b], den * sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out, den)

    def __neg__(self):
        return _make([-c for c in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            f = other if isinstance(other, Fraction) else Fraction(other)
            return _make([c * f.numerator for c in self.num],
                         self.den * f.denominator)
        a, b = self.num, other.num
        if not a or not b:
            return UPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(out, self.den * other.den)

    def __divmod__(self, other: "UPoly"):
        """Quotient and remainder over Q by pseudo-division: each step
        scales the running remainder only by ``lc / gcd(lc, top)``, and
        ``s`` collects those factors, so ``s * num = q * other.num + rem``."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b, dd = other.num, other.degree
        lc = b[-1]
        rem, s = list(self.num), 1
        q = [0] * max(0, len(rem) - dd)
        for k in range(len(q) - 1, -1, -1):
            top = rem.pop()
            if top:
                g = gcd(top, lc)
                f, c = abs(lc) // g, top // g if lc > 0 else -top // g
                if f != 1:
                    rem = [x * f for x in rem]
                    q = [x * f for x in q]
                    s *= f
                q[k] = c
                for j in range(dd):
                    rem[k + j] -= c * b[j]
        # self = (q / s) other.num / self.den + rem / (s self.den)
        return (_make([x * other.den for x in q], s * self.den),
                _make(rem, s * self.den))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == UPoly.constant(other)
        return NotImplemented

    def __bool__(self):
        return not self.is_zero

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        l = self.num[-1]
        if l < 0:
            return _make([-c for c in self.num], -l)
        return _make(list(self.num), l)

    def diff(self) -> "UPoly":
        return _make([i * c for i, c in enumerate(self.num)][1:], self.den)

    def to_str(self) -> str:
        den = self.den

        def magnitude(c):       # |c| / den as a Fraction prints
            g = gcd(c, den)
            return abs(c) // g if g == den else f"{abs(c) // g}/{den // g}"

        return join_terms(
            (c < 0, magnitude(c), "" if i == 0 else "t" if i == 1 else f"t^{i}")
            for i, c in reversed(list(enumerate(self.num))) if c)

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


# the largest primes below 2^31: testing them again in every gcd call
# costs about 20 us a call, and almost every call needs only the first
_FIRST_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579,
                 2147483563, 2147483549, 2147483543, 2147483497)


def _primes():
    """The moduli of ``upoly_gcd``: the primes below 2^31, descending."""
    yield from _FIRST_PRIMES
    n = _FIRST_PRIMES[-1] - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


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


def _quotient(c: tuple[int, ...], a: tuple[int, ...]) -> list[int] | None:
    """``a / c`` in Z[t] for a primitive ``c``, or None when c does not
    divide a (in Z[t], so by Gauss's lemma not in Q[t] either)."""
    rem, lc, dc = list(a), c[-1], len(c) - 1
    q = [0] * max(0, len(a) - dc)
    for k in range(len(q) - 1, -1, -1):
        qk, r = divmod(rem[k + dc], lc)
        if r:
            return None
        if qk:
            q[k] = qk
            for j in range(dc):
                rem[k + j] -= qk * c[j]
    return None if any(rem[:dc]) else q


def upoly_gcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """``(g, a / g, b / g)`` for the monic gcd g over Q (zero only for two
    zeros, with zero cofactors), by Brown's modular algorithm (JACM 18,
    1971).

    The integer numerators of a and b are their denominators cleared.
    The gcd modulo a prime that divides neither leading coefficient has
    at least the degree of the true one, so degree 0 at one prime proves
    the inputs coprime.  Otherwise the images of the lowest degree seen
    are combined by CRT, their coefficients read back by rational
    reconstruction, and the candidate is accepted only when it divides
    both numerators exactly; those quotients are the cofactors.  Every
    further prime either lowers the degree or enlarges the modulus.
    """
    if a.is_zero or b.is_zero:
        g = (b if a.is_zero else a).monic()
        return (g, a, b) if g.is_zero else (g, divmod(a, g)[0], divmod(b, g)[0])
    ia, ib = a.num, b.num
    lead = ia[-1] * ib[-1]
    size, m, crt = len(ia) + len(ib), 1, []     # no image is that long
    for p in _primes():
        if lead % p == 0:
            continue
        img = _gcd_mod([c % p for c in ia], [c % p for c in ib], p)
        if len(img) == 1:
            return UPoly.one(), a, b
        if len(img) > size:
            continue                                # an unlucky prime
        if len(img) < size:
            size, m, crt = len(img), 1, [0] * len(img)
        inv = pow(m, -1, p)
        crt = [u + m * ((v - u) * inv % p) for u, v in zip(crt, img)]
        m *= p
        coeffs = [_rational(u, m) for u in crt]
        if None not in coeffs:
            g = UPoly(coeffs)       # monic and canonical: num is primitive
            qa, qb = _quotient(g.num, ia), _quotient(g.num, ib)
            if qa is not None and qb is not None:
                # a = g.num qa / a.den = g (g.den qa / a.den)
                return (g, _make([c * g.den for c in qa], a.den),
                        _make([c * g.den for c in qb], b.den))


class RatFrac:
    """Quotient of two UPoly in lowest terms, monic denominator.  The
    cofactors of ``upoly_gcd`` are the reduced numerator and denominator;
    both are divided by the latter's leading coefficient, and nothing is
    divided by the gcd a second time."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if num.is_zero:
            self.num, self.den = UPoly.zero(), UPoly.one()
            return
        _, num, den = upoly_gcd(num, den)
        l = den.lc()
        if l != 1:
            num, den = num * (1 / l), den.monic()
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
    roots of p'.  With ``d`` the integer numerators of p' and ``l`` their
    leading one, the k-th power sum times ``l^k`` is an integer, so each
    trace is one integer over ``l^(n-1)`` times the residue's denominator.
    """
    up = UPoly(p)
    dp = up.diff()
    d, n = dp.num, dp.degree
    l = d[-1]
    sums = [n]                      # Newton's identities for p', times l^k
    for k in range(1, n):
        sums.append(-k * d[n - k] * l ** (k - 1)
                    - sum(d[n - i] * l ** (i - 1) * sums[k - i]
                          for i in range(1, k)))
    weights = [s * l ** (n - 1 - i) for i, s in enumerate(sums)]
    neg_r = -(up % dp)
    # N_0 = 1; N_k = B N_(k-1) + c_k with c_k = -tr(B N_(k-1)) / k
    nk, cs, firsts = UPoly.one(), [Fraction(1)], []
    for k in range(1, n + 1):
        firsts.append(nk)
        bn = (neg_r * nk) % dp
        cs.append(Fraction(-sum(c * w for c, w in zip(bn.num, weights)),
                           k * l ** (n - 1) * bn.den))
        nk = bn + cs[-1]
    chi = UPoly(cs[::-1])
    # v0[i] has coefficient i of N_(n-1-e) at t^e
    den = lcm(*(f.den for f in firsts))
    v0 = tx_trim([_make([f.num[i] * (den // f.den) if i < len(f.num) else 0
                         for f in reversed(firsts)], den) for i in range(n)])
    return chi, v0


def fiber_bezout(p: Sequence[Fraction]):
    """``(chi, v0, w)`` with ``v0 (p + t) - w p' = chi``: the cofactors of
    ``fiber_adjugate`` and w from one exact division by p'."""
    chi, v0 = fiber_adjugate(p)
    dp = UPoly(p).diff()
    pt = tx_add([UPoly.constant(c) for c in p], [UPoly.x()])
    w = tx_divmod(tx_add(tx_mul(pt, v0), [-chi]),
                  [_make([c], dp.den) for c in dp.num])[0]
    return chi, v0, w
