import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

from folia import parse_poly, ratfunc
from folia.errors import InputError, NumericError
from folia.forms import DifferentialForm, d_poly
from folia.gaussmanin import (
    BrieskornBasis,
    basis_periods,
    brieskorn_basis,
    brieskorn_reduce,
    gelfand_leray_check,
    period_of_form,
    pf_residual,
    picard_fuchs,
)
from folia.monodromy import _genericity_failure, _real_fraction_coeffs
from folia.poly import Poly, resultant
from folia.ratfunc import RatFrac, UPoly, fiber_bezout, tx_add, tx_mul, upoly_gcd

GOLDEN = Path(__file__).parent / "data" / "picard_fuchs_golden.json"
HIGH_GOLDEN = Path(__file__).parent / "data" / "picard_fuchs_high_golden.json"

X = ("x",)
XY = ("x", "y")


def P(s, vs=XY):
    return parse_poly(s, vs)


def form(a, b):
    return DifferentialForm.one_form([P(a), P(b)])


# ---- Picard-Fuchs connection ---------------------------------------------

def test_pf_cubic_matrix_frozen():
    conn = picard_fuchs(P("x^3 - 3*x", X))
    assert conn.size == 2
    assert conn.entry_strings() == [
        ["(-1/6*t)/(t^2 - 4)", "(1/3)/(t^2 - 4)"],
        ["(-1/3)/(t^2 - 4)", "(1/6*t)/(t^2 - 4)"],
    ]
    cv = sorted(conn.critical_values, key=lambda z: z.real)
    assert abs(cv[0] + 2.0) <= 1e-10 and abs(cv[1] - 2.0) <= 1e-10


def test_pf_cubic_residual():
    conn = picard_fuchs(P("x^3 - 3*x", X))
    assert pf_residual(conn, [0.0, 1.0, 3j]) < 1e-5


def test_pf_quartic_residual():
    conn = picard_fuchs(P("x^4 + x^3 - 4*x", X))
    assert pf_residual(conn, [0.0, 2.0]) < 1e-5


def test_pf_regular_at_noncritical_t():
    conn = picard_fuchs(P("x^5 - 5*x", X))
    assert conn.size == 4
    vals = conn.evaluate(10.0)
    assert vals.shape == (4, 4) and np.all(np.isfinite(vals))
    with pytest.raises(NumericError, match="pole"):
        conn.evaluate(conn.critical_values[0])


def test_pf_quadratic_connection_vanishes():
    # oint dx/y around both branch points of x^2 - 1 + t is 2 pi i for
    # every t, so the 1x1 connection is identically zero
    conn = picard_fuchs(P("x^2 - 1", X))
    assert conn.entry_strings() == [["0"]]


def test_pf_rejections():
    with pytest.raises(InputError, match="repeated critical values"):
        picard_fuchs(P("x^4 - 2*x^2", X))
    with pytest.raises(InputError, match="repeated critical points"):
        picard_fuchs(P("x^4 + 1", X))
    with pytest.raises(InputError):
        picard_fuchs(P("x + 1", X))
    with pytest.raises(InputError):
        picard_fuchs(P("x*y"))


def test_pf_matches_the_golden_record():
    # 64 fibers of degree 2 to 7 whose entries were recorded with the
    # reduction over the field Q(t) (the file's "about" says which); the
    # strings must agree exactly
    t0 = time.perf_counter()
    fibers = json.loads(GOLDEN.read_text())["fibers"]
    assert len(fibers) == 64
    for e in fibers:
        p = P(e["p"], X)
        if "error" in e:
            with pytest.raises(InputError) as info:
                picard_fuchs(p)
            assert str(info.value) == e["error"]
        else:
            assert picard_fuchs(p).entry_strings() == e["entries"], e["p"]
    assert time.perf_counter() - t0 < 15.0


def test_pf_high_degree_matches_the_record():
    # degree 9 to 17, recorded with the Euclid gcd over Q; lowest terms
    # at degree 17 within 2 s (about 30 s with that gcd)
    fibers = json.loads(HIGH_GOLDEN.read_text())["fibers"]
    assert [e["degree"] for e in fibers] == [9, 11, 13, 15, 17]
    for e in fibers:
        conn = picard_fuchs(P(e["p"], X))
        t0 = time.perf_counter()
        entries = conn.entry_strings()
        took = time.perf_counter() - t0
        assert entries == e["entries"], e["degree"]
    assert took < 2.0


def test_pf_reduces_entries_only_when_printed(monkeypatch):
    # the connection is chi plus numerators; each entry's gcd runs only
    # when entry_strings puts it in lowest terms
    made = []
    init = RatFrac.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(RatFrac, "__init__", counted)
    conn = picard_fuchs(P("x^5 - 3*x^4 + 4*x^2 + x - 2", X))
    assert made == []
    conn.entry_strings()
    assert len(made) == conn.size ** 2 == 16


def _exact_at(u: UPoly, t: Fraction) -> Fraction:
    return sum((c * t ** k for k, c in enumerate(u.coeffs)), Fraction(0))


def test_pf_evaluate_matches_exact_values():
    # evaluate(t) against numerators / chi evaluated in Fraction arithmetic
    # at rational non-critical t, on the golden fibers of degree <= 6.  The
    # error is judged relative to the Horner condition of n / chi, the
    # numerator and chi evaluated with |coefficients| at |t|: t = -7/5
    # lies 0.025 from a critical value of one fiber, where chi(t) cancels
    # to 1/16000 of its terms and any float evaluation loses those digits
    checked = 0
    for e in json.loads(GOLDEN.read_text())["fibers"]:
        p = P(e["p"], X)
        if "error" in e or p.total_degree() > 6:
            continue
        conn = picard_fuchs(p)
        for t in (Fraction(1, 3), Fraction(-7, 5)):
            chi = _exact_at(conn.chi, t)
            assert chi != 0
            chi_abs = _exact_at(UPoly([abs(c) for c in conn.chi.coeffs]), abs(t))
            got = conn.evaluate(float(t))
            assert got.shape == (conn.size, conn.size)
            assert np.all(got.imag == 0.0)
            for i, row in enumerate(conn.numerators):
                for j, n in enumerate(row):
                    want = _exact_at(n, t) / chi
                    n_abs = _exact_at(UPoly([abs(c) for c in n.coeffs]), abs(t))
                    cond = float((n_abs + abs(want) * chi_abs) / abs(chi))
                    assert abs(got[i, j].real - float(want)) <= 1e-14 * cond, \
                        (e["p"], t, i, j)
            checked += 1
    assert checked == 118


@pytest.mark.parametrize("text, ts, budget", [
    ("x^5 - 3*x^4 + 4*x^2 + x - 2", [0.5, 2.0 + 1.0j], None),
    ("2*x^6 - 2*x^5 - 2*x^4 - 4*x^3 - 4*x^2 - 1", [0.5, 3.0j], None),
    ("3*x^7 + x^6 - 3*x^5 - 4*x^4 - 3*x^3 + 3*x^2 - 3*x + 4", [0.5, 2.0j],
     None),
    ("3*x^9 - 3*x^8 - 3*x^7 + 4*x^6 - 4*x^5 + x^4 - x^3 + 4*x^2 + 2*x - 2",
     [0.5, 2.0j], 2.0),
    ("x^11 + 3*x^10 + 2*x^9 + 2*x^8 + 4*x^7 - 4*x^6 - 2*x^5 + 4*x^4 "
     "- 2*x^3 + 3*x^2 - 4*x - 2", [0.5, 2.0j], 5.0),
], ids=["deg5", "deg6", "deg7", "deg9", "deg11"])
def test_pf_residual_past_degree_seven(text, ts, budget):
    # degree 9 and 11 are the first generic draws of random.Random("fiber:9")
    # and ("fiber:11"); the budget is on the exact reduction alone
    t0 = time.perf_counter()
    conn = picard_fuchs(P(text, X))
    if budget is not None:
        assert time.perf_counter() - t0 < budget
    assert pf_residual(conn, ts) < 1e-5


def test_periods_match_quadpack():
    # real oval of y^2 = x^3 - 3x over [-sqrt(3), 0]; QUADPACK handles the
    # inverse-square-root endpoints through the algebraic weight
    s3 = math.sqrt(3.0)
    i0, _ = quad(lambda x: (s3 - x) ** -0.5, -s3, 0.0,
                 weight="alg", wvar=(-0.5, -0.5))
    i1, _ = quad(lambda x: -((s3 - x) ** -0.5), -s3, 0.0,
                 weight="alg", wvar=(-0.5, 0.5))
    per = basis_periods(P("x^3 - 3*x", X), 0.0, pair=0)
    assert abs(per[0] - 2.0 * i0) <= 1e-10
    assert abs(per[1] - 2.0 * i1) <= 1e-10
    assert abs(per[0].imag) <= 1e-12 and abs(per[1].imag) <= 1e-12


# ---- Gelfand-Leray --------------------------------------------------------

def test_gl_identity_three_systems():
    circle = P("1/2*x^2 + 1/2*y^2")
    assert gelfand_leray_check(circle, form("0", "x"),
                               [0.2, 0.5, 0.9]) < 1e-5
    elliptic = P("y^2 - x^3 + 3*x")
    assert gelfand_leray_check(elliptic, form("x*y", "0"),
                               [-1.9, -1.5, -1.0],
                               center=(-1.0, 0.0)) < 1e-5
    cubic = P("1/2*x^2 + 1/2*y^2 - 1/3*x^3")
    assert gelfand_leray_check(cubic, form("-y", "x^2"),
                               [0.02, 0.05, 0.1]) < 1e-5


def test_gl_tight_on_circle():
    circle = P("1/2*x^2 + 1/2*y^2")
    assert gelfand_leray_check(circle, form("0", "x"), [0.3, 0.7]) < 1e-8


def test_gl_exact_form_gives_zero():
    circle = P("1/2*x^2 + 1/2*y^2")
    err = gelfand_leray_check(circle, d_poly(P("x^3*y + x*y^2")), [0.3, 0.7])
    assert err == 0.0


# ---- Brieskorn reduction ---------------------------------------------------

def T(s):
    return parse_poly(s, ("t",))


def test_brieskorn_basis_shapes():
    for m in range(2, 7):
        b = brieskorn_basis(m)
        assert len(b.forms) == m - 1
        assert len(b.labels) == m - 1
    b3 = brieskorn_basis(3)
    assert b3.labels == ("y*dx", "x*y*dx")
    assert str(b3.f) in ("-x^3 + y^2", "y^2 - x^3")


def test_brieskorn_frozen_reductions():
    b = brieskorn_basis(3)
    cases = [
        (form("x^3*y", "0"), ("-2/11*t", "0")),
        (form("y^3", "0"), ("9/11*t", "0")),
        (form("0", "x^2"), ("0", "-2")),
        (form("x*y^3", "-x^2*y"), ("0", "9/13*t")),
    ]
    for w, expect in cases:
        got = brieskorn_reduce(b, w)
        assert tuple(str(q) for q in got) == expect

    b5 = brieskorn_basis(5)
    got = brieskorn_reduce(b5, form("x^7*y", "0"))
    assert tuple(str(q) for q in got) == ("0", "0", "-2/7*t", "0")


def _random_poly(rng, max_deg=4):
    terms = {}
    for _ in range(6):
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        c = rng.randint(-5, 5)
        if c:
            terms[(i, j)] = terms.get((i, j), 0) + c
    return Poly(XY, terms)


def test_brieskorn_kernel_contains_exact_and_df_multiples():
    rng = random.Random(4)
    b = brieskorn_basis(3)
    df = d_poly(b.f)
    for _ in range(50):
        g = _random_poly(rng)
        assert all(q.is_zero for q in brieskorn_reduce(b, d_poly(g)))
        assert all(q.is_zero for q in brieskorn_reduce(b, df * g))


def test_brieskorn_reduction_is_module_map():
    rng = random.Random(11)
    tmul = Poly(("t",), {(1,): 1})
    for m in (3, 4):
        b = brieskorn_basis(m)
        for _ in range(25):
            w = DifferentialForm.one_form(
                [_random_poly(rng), _random_poly(rng)]
            )
            lifted = brieskorn_reduce(b, w * b.f)
            plain = brieskorn_reduce(b, w)
            assert all((a - tmul * q).is_zero for a, q in zip(lifted, plain))


def test_brieskorn_period_identity():
    # numeric periods on y^2 = x^3 + t must satisfy the reduced identity
    b = brieskorn_basis(3)
    p = P("x^3", X)
    t = 1.0
    per = [period_of_form(p, w, t, pair=0) for w in b.forms]
    for w in [form("x^3*y", "0"), form("y^3", "0"), form("0", "x^2"),
              form("x*y^3", "-x^2*y")]:
        vec = brieskorn_reduce(b, w)
        lhs = period_of_form(p, w, t, pair=0)
        rhs = sum(complex(q.compiled()(t)) * per[a] for a, q in enumerate(vec))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), 1.0)


def test_brieskorn_rejections():
    with pytest.raises(InputError):
        brieskorn_basis(1)
    with pytest.raises(InputError, match="m <= 24"):
        brieskorn_basis(25)
    b = brieskorn_basis(3)
    with pytest.raises(InputError):
        brieskorn_reduce(b, DifferentialForm.function(P("x")))
    with pytest.raises(InputError, match="variables"):
        other = DifferentialForm.one_form([parse_poly("u", ("u", "v")),
                                           parse_poly("0", ("u", "v"))])
        brieskorn_reduce(b, other)


# ---- exact rational arithmetic ---------------------------------------------

def _random_upoly(rng, deg):
    return UPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(deg + 1)])


def test_upoly_division_property():
    rng = random.Random(7)
    for _ in range(30):
        a = _random_upoly(rng, rng.randint(0, 6))
        b = _random_upoly(rng, rng.randint(0, 4))
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_fiber_bezout_identity_and_discriminant():
    # v0 (p + t) - w p' = chi exactly in Q[t][x], chi monic of degree
    # deg(p) - 1 and a constant multiple of Res_x(p', p + t), which
    # folia.poly.resultant computes independently
    rng = random.Random(9)
    xt = ("x", "t")
    for deg in range(2, 11):
        fr = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(deg)] + [Fraction(rng.choice([1, 2, -3]))]
        chi, v0, w = fiber_bezout(fr)
        pt = tx_add([UPoly.constant(c) for c in fr], [UPoly.x()])
        dp = [UPoly.constant(c * k) for k, c in enumerate(fr)][1:]
        assert tx_add(tx_mul(v0, pt), [-c for c in tx_mul(w, dp)]) == [chi]
        assert chi.degree == deg - 1 and chi.lc() == 1
        p2 = Poly(xt, {(k, 0): c for k, c in enumerate(fr) if c})
        res = resultant(p2.diff(0), p2 + Poly(xt, {(0, 1): 1}), 0)
        rc = UPoly([c.coefficient((0, 0)).re for c in res.univariate_in(1)])
        assert rc == chi * rc.lc()


def test_genericity_verdicts():
    def verdict(text):
        return _genericity_failure(_real_fraction_coeffs(P(text, X)))
    assert verdict("x^4 - 2*x^2") == "repeated critical values"
    assert verdict("x^4 + 1") == "repeated critical points"
    assert verdict("x^3") == "repeated critical points"
    assert verdict("x^3 - 3*x") is None


def _sympy_gcd(a: UPoly, b: UPoly) -> UPoly:
    t = sympy.Symbol("t")

    def to_sympy(u):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(u.coeffs)] or [0], t, domain="QQ")

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    return UPoly([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())])


def test_upoly_gcd_matches_sympy(monkeypatch):
    # seeded pairs over Q, every other one with a planted common factor;
    # the tall factors need several primes before reconstruction holds
    primes, used = ratfunc._primes, []

    def counted():
        used.append(0)
        for p in primes():
            used[-1] += 1
            yield p

    monkeypatch.setattr(ratfunc, "_primes", counted)
    rng = random.Random("upoly_gcd")

    def draw(deg, height):
        return UPoly([Fraction(rng.randint(-height, height), rng.randint(1, 6))
                      for _ in range(deg)] + [Fraction(rng.randint(1, height))])

    planted = 0
    for k in range(80):
        height = 10**rng.choice((1, 1, 6, 30))
        g = draw(rng.randint(1, 5), height) if k % 2 else UPoly.one()
        a = draw(rng.randint(0, 7), 9) * g
        b = draw(rng.randint(0, 7), 9) * g
        got = upoly_gcd(a, b)
        assert got == _sympy_gcd(a, b), (a, b)
        assert upoly_gcd(b, a) == got
        planted += got.degree > 0
    assert planted == 40
    assert max(used) >= 4
    c, u = UPoly([Fraction(3, 4)]), UPoly([Fraction(1, 2), 0, 3])
    zero = UPoly()
    assert upoly_gcd(zero, zero) == zero == _sympy_gcd(zero, zero)
    for a, b in ((u, zero), (zero, u), (c, u), (u, c), (c, zero), (c, c)):
        assert upoly_gcd(a, b) == _sympy_gcd(a, b)
    assert upoly_gcd(u, zero).coeffs == (Fraction(1, 6), 0, 1)


def test_upoly_gcd_survives_an_unlucky_first_prime(monkeypatch):
    # modulo 101, t + 1 and t + 102 agree, so the first image has one
    # degree too many and reconstructs to a common factor of too high a
    # degree; only the exact division rejects it
    primes = ratfunc._primes
    monkeypatch.setattr(ratfunc, "_primes",
                        lambda: itertools.chain([101], primes()))
    g = UPoly([1, 1, 1])
    assert upoly_gcd(g * UPoly([1, 1]), g * UPoly([102, 1])) == g
    assert upoly_gcd(UPoly([1, 1]), UPoly([102, 1])) == UPoly.one()
    # a prime that divides a leading coefficient is skipped: modulo 101
    # the common factor 101 t + 1 would become a unit
    h = UPoly([1, 101])
    assert upoly_gcd(h * UPoly([2, 1]), h * UPoly([3, 1])) == h.monic()


def test_ratfrac_lowest_terms_and_text():
    n = UPoly([1, 2])          # 1 + 2t
    d = UPoly([-4, 0, 1])      # t^2 - 4
    g = UPoly([3, -1])         # 3 - t, a common factor to cancel
    r = RatFrac(n * g * 5, d * g * 3)
    assert r.num.coeffs == (Fraction(5, 3), Fraction(10, 3))
    assert r.den.coeffs == (-4, 0, 1)
    assert r.to_str() == "(10/3*t + 5/3)/(t^2 - 4)"
    assert RatFrac(n, UPoly([Fraction(1, 2)])).to_str() == "4*t + 2"
    assert RatFrac(UPoly(), d).to_str() == "0"
    with pytest.raises(ZeroDivisionError):
        RatFrac(n, UPoly([0]))
