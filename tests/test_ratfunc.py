"""``UPoly`` on integers against plain Fraction-list arithmetic.

A ``UPoly`` is integer numerators over one positive denominator, kept
canonical: no trailing zero and ``gcd(den, *num) == 1``.  Every
operation below is checked on seeded operands (mixed denominators,
negative leading coefficients, zero, constants, coefficients up to
10^30) against a reference that computes the same thing coefficient by
coefficient over ``Fraction``, and every result is checked canonical.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from folia import ratfunc
from folia.ratfunc import UPoly


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    rem, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        f = q[k] = rem[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[k + j] -= f * c
    return _trim(q), _trim(rem)


def _ref_monic(a):
    return tuple(c / a[-1] for c in a)


def _ref_diff(a):
    return _trim(i * c for i, c in enumerate(a))[1:] if len(a) > 1 else ()


def _coeff(rng, height):
    den = rng.choice((1, 1, 2, 6, 7 ** 5, rng.randint(1, height),
                      10 ** rng.randint(1, 30)))
    return Fraction(rng.randint(-height, height), den)


def _draw(rng):
    """Ascending Fraction coefficients: zero, a constant, or degree 1 to 7,
    the leading coefficient nonzero of either sign."""
    shape = rng.random()
    if shape < 0.1:
        return ()
    deg = 0 if shape < 0.25 else rng.randint(1, 7)
    height = 10 ** rng.choice((1, 3, 30))
    cs = [_coeff(rng, height) for _ in range(deg)]
    lead = Fraction(0)
    while lead == 0:
        lead = _coeff(rng, height)
    return tuple(cs) + (lead,)


def _canonical(u: UPoly, want) -> None:
    assert u.coeffs == want
    assert isinstance(u.den, int) and u.den > 0
    assert all(isinstance(c, int) for c in u.num)
    assert gcd(u.den, *u.num) == 1
    assert not u.num or u.num[-1] != 0


PAIRS = 300


@pytest.fixture
def pairs():
    rng = random.Random("upoly-integers")
    return [(_draw(rng), _draw(rng)) for _ in range(PAIRS)]


def test_construction_and_ring_operations_match_fractions(pairs):
    for a, b in pairs:
        ua, ub = UPoly(a), UPoly(b)
        _canonical(ua, a)
        _canonical(ua + ub, _ref_add(a, b))
        _canonical(ua - ub, _ref_add(a, tuple(-c for c in b)))
        _canonical(-ua, tuple(-c for c in a))
        _canonical(ua * ub, _ref_mul(a, b))
        _canonical(ua - ua, ())
        assert (ua == ub) == (a == b)
        assert ua + ub == ub + ua and ua * ub == ub * ua


def test_scalar_products_match_fractions(pairs):
    rng = random.Random("upoly-scalars")
    for a, _ in pairs:
        ua = UPoly(a)
        for k in (0, 1, -1, rng.randint(-10**30, 10**30), _coeff(rng, 10**30),
                  Fraction(-3, 4)):
            _canonical(ua * k, _trim(c * k for c in a))
        if a:
            _canonical(ua + a[0], _ref_add(a, (a[0],)))


def test_division_monic_and_derivative_match_fractions(pairs):
    for a, b in pairs:
        ua, ub = UPoly(a), UPoly(b)
        if b:
            q, r = divmod(ua, ub)
            want_q, want_r = _ref_divmod(a, b)
            _canonical(q, want_q)
            _canonical(r, want_r)
            _canonical(ua % ub, want_r)
        else:
            with pytest.raises(ZeroDivisionError):
                divmod(ua, ub)
        _canonical(ua.monic(), _ref_monic(a))
        _canonical(ua.diff(), _ref_diff(a))
        if a:
            assert ua.lc() == a[-1] and ua.degree == len(a) - 1


def test_small_cases_are_canonical():
    zero = UPoly()
    assert (zero.num, zero.den) == ((), 1)
    assert UPoly([Fraction(2, 4), 0, 0]) == UPoly.constant(Fraction(1, 2))
    u = UPoly([Fraction(-3, 4), Fraction(1, 6), Fraction(-5, 2)])
    assert (u.num, u.den) == ((-9, 2, -30), 12)
    m = u.monic()
    assert (m.num, m.den) == ((9, -2, 30), 30)
    assert (UPoly([2, 4]) * Fraction(1, 2)).num == (1, 2)
    assert UPoly([2, 4]) * Fraction(1, 2) == UPoly([1, 2])
    assert UPoly.constant(3) == 3 and UPoly.constant(Fraction(3, 2)) == Fraction(3, 2)
    assert UPoly([0, 0, Fraction(1, 3)]).diff() == UPoly([0, Fraction(2, 3)])


def test_the_gcd_moduli_are_the_primes_below_2_31():
    # the first few are written out in ratfunc; the search continues below
    want, n = [], 2**31
    while len(want) < 12:
        n = sympy.prevprime(n)
        want.append(n)
    assert list(itertools.islice(ratfunc._primes(), 12)) == want
