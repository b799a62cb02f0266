"""Exact-algebra tests: parser, printer, ring ops, resultants.

The parser oracle is an independent recursive evaluator that interprets
the expression text directly over Fraction arithmetic, sharing no code
with the package.
"""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
import sympy

from folia import GaussianRational, InputError, ParseError, Poly, parse_poly, resultant
from folia.foliation import logarithmic


# ---------------------------------------------------------------------------
# independent expression evaluator (oracle)

_TOK = re.compile(r"\s*(\d+|[A-Za-z_]\w*|[-+*^()/])")


def _naive_eval(text, env):
    """Evaluate the grammar directly at a point, no polynomials involved."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            raise AssertionError(f"oracle lexer stuck at {pos}")
        toks.append(m.group(1))
        pos = m.end()
    toks.append(None)
    idx = [0]

    def peek():
        return toks[idx[0]]

    def eat():
        t = toks[idx[0]]
        idx[0] += 1
        return t

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if eat() == "-" else 1
        v = sign * term()
        while peek() in ("+", "-"):
            if eat() == "-":
                v = v - term()
            else:
                v = v + term()
        return v

    def term():
        v = factor()
        while peek() == "*":
            eat()
            v = v * factor()
        return v

    def factor():
        v = base()
        if peek() == "^":
            eat()
            return v ** int(eat())
        return v

    def base():
        t = eat()
        if t == "(":
            v = expr()
            assert eat() == ")"
            return v
        if t.isdigit():
            if peek() == "/":
                eat()
                return Fraction(int(t), int(eat()))
            return Fraction(int(t))
        return env[t]

    v = expr()
    assert peek() is None
    return v


def _random_poly(rng, variables, max_terms=8, max_exp=5, allow_zero=True):
    n = len(variables)
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(variables, terms)


# ---------------------------------------------------------------------------
# GaussianRational

def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(-2, 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.conjugate() == Fraction(1, 4) + Fraction(9, 16)
    assert -(-a) == a
    one = GaussianRational(1)
    assert a / a == one
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_gaussian_rational_str():
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(GaussianRational(1, -3)) == "1-3*i"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(-1, 2), Fraction(1, 3))) == "-1/2+1/3*i"


def test_gaussian_rational_from_float_is_exact():
    assert GaussianRational.from_number(0.5) == Fraction(1, 2)
    assert GaussianRational.from_number(0.1) == Fraction(0.1)  # binary value
    assert GaussianRational.from_number(complex(0.25, -1.5)) == GaussianRational(
        Fraction(1, 4), Fraction(-3, 2)
    )


# ---------------------------------------------------------------------------
# parsing against the naive oracle

def test_parse_matches_naive_evaluator():
    rng = random.Random(20260801)
    exprs = [
        "x^2 + y^2 - 1",
        "x*y - 3/2*x + (x - y)^3",
        "-x + 1/7",
        "((x))*((y^2 - 2))",
        "2*x^2*y - y^3 + 5",
        "-(x - y)*(x + y) + x^2",
        "0",
        "1/3",
        "x^0 + y^0",
    ]
    for text in exprs:
        p = parse_poly(text, ("x", "y"))
        for _ in range(5):
            env = {
                "x": Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                "y": Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            }
            got = p.eval_exact([env["x"], env["y"]])
            want = _naive_eval(text, env)
            assert got.is_real and got.re == want, text


def test_print_parse_round_trip():
    rng = random.Random(99173)
    varsets = [("x",), ("x", "y"), ("x", "y", "z")]
    for k in range(1000):
        vs = varsets[k % 3]
        p = _random_poly(rng, vs)
        q = parse_poly(str(p), vs)
        assert q == p, f"round-trip failed for {p}"


def test_printing_is_graded_lex_descending():
    p = parse_poly("y^2 - x^3 + 3*x", ("x", "y"))
    assert str(p) == "-x^3 + y^2 + 3*x"
    q = parse_poly("x^2 + x*y + y^2", ("x", "y"))
    assert str(q) == "x^2 + x*y + y^2"
    assert str(Poly.zero(("x", "y"))) == "0"
    assert str(parse_poly("x - x", ("x",))) == "0"


def test_printing_deterministic_under_insertion_order():
    a = Poly(("x", "y"), {(1, 0): 2, (0, 1): 3, (2, 2): Fraction(1, 2)})
    b = Poly(("x", "y"), {(2, 2): Fraction(1, 2), (0, 1): 3, (1, 0): 2})
    assert str(a) == str(b) == "1/2*x^2*y^2 + 2*x + 3*y"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as ei:
        parse_poly("x + $", ("x",))
    assert ei.value.offset == 4
    with pytest.raises(ParseError) as ei:
        parse_poly("x + z", ("x", "y"))
    assert ei.value.offset == 4
    with pytest.raises(ParseError) as ei:
        parse_poly("1/0", ("x",))
    assert ei.value.offset == 2
    with pytest.raises(ParseError):
        parse_poly("x^y", ("x", "y"))
    with pytest.raises(ParseError):
        parse_poly("x + ", ("x",))
    with pytest.raises(ParseError):
        parse_poly("x y", ("x", "y"))  # no implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("(x", ("x",))
    with pytest.raises(ParseError, match="degree 25 is above") as ei:
        parse_poly("x^20*x^5", ("x",))
    assert ei.value.offset == 4
    with pytest.raises(ParseError, match="exponent 25 is above"):
        parse_poly("2^25", ("x",))
    with pytest.raises(ParseError, match="too long"):
        parse_poly("1" * 5000, ("x",))
    assert issubclass(ParseError, InputError)


# ---------------------------------------------------------------------------
# ring structure

def test_ring_axioms_random():
    rng = random.Random(5511)
    vs = ("x", "y")
    for _ in range(60):
        a = _random_poly(rng, vs, max_terms=5, max_exp=3)
        b = _random_poly(rng, vs, max_terms=5, max_exp=3)
        c = _random_poly(rng, vs, max_terms=5, max_exp=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly.zero(vs)
        assert a * Poly.constant(vs, 1) == a
        assert a * Poly.zero(vs) == Poly.zero(vs)


def test_eval_is_ring_homomorphism():
    rng = random.Random(7202)
    vs = ("x", "y")
    for _ in range(40):
        a = _random_poly(rng, vs, max_terms=5, max_exp=4)
        b = _random_poly(rng, vs, max_terms=5, max_exp=4)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in vs]
        assert (a * b).eval_exact(pt) == a.eval_exact(pt) * b.eval_exact(pt)
        assert (a + b).eval_exact(pt) == a.eval_exact(pt) + b.eval_exact(pt)


def test_numeric_eval_agrees_with_exact():
    p = parse_poly("x^3 - 2*x*y + 1/4", ("x", "y"))
    exact = p.eval_exact([Fraction(1, 3), Fraction(-2)])
    assert abs(p(1 / 3, -2.0) - float(exact.re)) < 1e-12


def test_diff_product_rule():
    rng = random.Random(31007)
    vs = ("x", "y")
    for _ in range(25):
        a = _random_poly(rng, vs, max_terms=4, max_exp=4)
        b = _random_poly(rng, vs, max_terms=4, max_exp=4)
        for i in range(2):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_compose_into_other_variables():
    p = parse_poly("x^2 + y^2", ("x", "y"))
    u = parse_poly("u - v", ("u", "v"))
    v = parse_poly("u + v", ("u", "v"))
    q = p.compose([u, v])
    assert q == parse_poly("2*u^2 + 2*v^2", ("u", "v"))


# ---------------------------------------------------------------------------
# resultants

def test_resultant_frozen_examples():
    vs = ("x", "y")
    a = parse_poly("x^2 + y^2 - 1", vs)
    b = parse_poly("x - y", vs)
    assert resultant(a, b, 0) == parse_poly("2*y^2 - 1", vs)
    assert resultant(parse_poly("x", vs), parse_poly("y", vs), 0) == parse_poly("y", vs)
    assert resultant(parse_poly("x - 1", vs), parse_poly("x - 1", vs), 0).is_zero


def test_resultant_degenerate_degrees():
    vs = ("x", "y")
    c5 = parse_poly("5", vs)
    c2 = parse_poly("2", vs)
    # both constant in x
    assert resultant(c5, c2, 0) == parse_poly("1", vs)
    # one constant: c ** deg(other)
    assert resultant(parse_poly("y - 3", vs), parse_poly("x^2 + 1", vs), 0) == parse_poly(
        "y^2 - 6*y + 9", vs
    )
    assert resultant(parse_poly("x^3", vs), c2, 0) == parse_poly("8", vs)
    assert resultant(Poly.zero(vs), c2, 0).is_zero


def test_resultant_against_closed_form_quadratic_linear():
    # res_x(a x^2 + b x + c, d x + e) = a e^2 - b e d + c d^2
    vs = ("x", "y")
    x = Poly.variable(vs, "x")
    y = Poly.variable(vs, "y")
    rng = random.Random(4242)
    for _ in range(40):
        a, b, c, d, e = (
            _random_poly(rng, vs, max_terms=2, max_exp=0, allow_zero=False)
            for _ in range(5)
        )
        # make coefficients depend on y so elimination is nontrivial
        a = a + y * rng.randint(0, 2)
        d = d + y * rng.randint(0, 2)
        if a.is_zero or d.is_zero:
            continue
        f = a * x**2 + b * x + c
        g = d * x + e
        if f.degree_in(0) != 2 or g.degree_in(0) != 1:
            continue
        want = a * e * e - b * e * d + c * d * d
        assert resultant(f, g, 0) == want


def test_resultant_detects_common_factor():
    vs = ("x", "y")
    common = parse_poly("x - y", vs)
    f = common * parse_poly("x + 1", vs)
    g = common * parse_poly("x - 2", vs)
    assert resultant(f, g, 0).is_zero
    # and a coprime pair does not vanish
    f2 = parse_poly("x^2 - y", vs)
    g2 = parse_poly("x - 1", vs)
    r = resultant(f2, g2, 0)
    assert r == parse_poly("1 - y", vs) or r == parse_poly("-(1 - y)", vs)
    assert r.degree_in(0) <= 0


# sympy's resultant is the oracle: it shares no code with the package


def _to_sympy(p):
    syms = sympy.symbols(p.vars)
    return sympy.Add(*[
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * sympy.Mul(*[s**e for s, e in zip(syms, exps)])
        for exps, c in p.terms.items()])


def _assert_sympy_resultant(a, b, i):
    got = resultant(a, b, i)
    # sympy 1.14 can miss the sign (-1)^(da*db) when the first argument has
    # the lower degree (Res(y - 1, y^3) comes out as -1), so the higher
    # degree goes first and Res(a, b) = (-1)^(da*db) Res(b, a) restores it
    v = sympy.Symbol(a.vars[i])
    da, db = a.degree_in(i), b.degree_in(i)
    if da < db:
        want = (-1) ** (da * db) * sympy.resultant(_to_sympy(b), _to_sympy(a), v)
    else:
        want = sympy.resultant(_to_sympy(a), _to_sympy(b), v)
    assert sympy.expand(want - _to_sympy(got)) == 0, (str(a), str(b), i)
    return got


def _gauss_poly(rng, variables, degree, dense=False):
    """Seeded polynomial of total degree at most ``degree`` with
    coefficients in Q(i); ``dense`` gives every monomial a nonzero one."""
    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=len(variables)):
        if sum(exps) > degree or not (dense or rng.random() < 0.4):
            continue
        re = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else 0
        terms[exps] = GaussianRational(re, im)
    return Poly(variables, terms)


def test_resultant_matches_sympy_on_seeded_pairs():
    vs = ("x", "y")
    rng = random.Random(1971)
    for _ in range(48):
        a = _gauss_poly(rng, vs, rng.randint(1, 4))
        b = _gauss_poly(rng, vs, rng.randint(1, 4))
        for i in range(2):
            _assert_sympy_resultant(a, b, i)


def test_resultant_leading_coefficient_vanishing_at_nodes():
    # the leading coefficients in x vanish at y = 0, +-1, +-2, all nodes
    vs = ("x", "y")
    a = parse_poly("(y^2 - 1)*x^2 + (y - 2)*x + y^3 - 3/2", vs)
    b = parse_poly("y*(y + 2)*x^3 + x*y^2 - 5*y + 1/3", vs)
    for i in range(2):
        _assert_sympy_resultant(a, b, i)
    # a leading coefficient that vanishes identically after scaling
    c = parse_poly("(y^2 - 1)*(y^2 - 4)*y*x + x^2 - y", vs)
    _assert_sympy_resultant(c, b, 0)


def test_resultant_reaches_its_degree_bound_on_dense_pairs():
    # dense bivariate pairs of total degrees m, n: Res in x has degree
    # exactly m*n in y, the bound the interpolation runs to
    vs = ("x", "y")
    rng = random.Random(36)
    for m, n in ((1, 1), (2, 3), (3, 3), (4, 2), (4, 4), (5, 3)):
        a = _gauss_poly(rng, vs, m, dense=True)
        b = _gauss_poly(rng, vs, n, dense=True)
        for i in range(2):
            r = _assert_sympy_resultant(a, b, i)
            assert r.degree_in(1 - i) == m * n


def test_resultant_matches_sympy_on_common_factor_and_other_arities():
    rng = random.Random(5)
    vs = ("x", "y")
    f = _gauss_poly(rng, vs, 2, dense=True)
    a = f * _gauss_poly(rng, vs, 2, dense=True)
    b = f * _gauss_poly(rng, vs, 3, dense=True)
    for i in range(2):
        assert _assert_sympy_resultant(a, b, i).is_zero
    # univariate: the resultant is a constant of Q(i)
    x = ("x",)
    r = _assert_sympy_resultant(_gauss_poly(rng, x, 4, dense=True),
                                _gauss_poly(rng, x, 3, dense=True), 0)
    assert r.is_constant and not r.is_zero
    # three variables: two levels of evaluation and interpolation
    xyz = ("x", "y", "z")
    a = _gauss_poly(rng, xyz, 2, dense=True)
    b = _gauss_poly(rng, xyz, 2)
    for i in range(3):
        _assert_sympy_resultant(a, b, i)


def test_resultant_of_a_dense_degree_12_field_within_budget():
    # every monomial of degree <= 12 drawn from random.Random(12), in
    # [-3, 3]; P = f_y and Q = -f_x have degree 11 and their eliminants
    # degree 121.  About 0.4 s each on a 2-core x86 host
    rng = random.Random(12)
    f = Poly(("x", "y"), {(i, n - i): rng.randint(-3, 3)
                          for n in range(13) for i in range(n + 1)})
    p, q = f.diff(1), -f.diff(0)
    for i in range(2):
        t0 = time.perf_counter()
        r = resultant(p, q, i)
        assert time.perf_counter() - t0 < 5.0
        assert r.degree_in(1 - i) == 121


def test_defect_a_eliminants_match_sympy():
    # the degree-6 logarithmic record whose census exceeds the Bezout bound
    vs = ("x", "y")
    rec = logarithmic([parse_poly(t, vs) for t in ("x^3+y^3-1", "x^2-y", "x+y^2-5")],
                      [1, 2, 3])
    for i in range(2):
        assert _assert_sympy_resultant(rec.P, rec.Q, i).degree_in(1 - i) == 34


def test_poly_structure_queries():
    vs = ("x", "y")
    p = parse_poly("x^2*y + 3*x - 7", vs)
    assert p.total_degree() == 3
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 1
    assert not p.is_constant
    assert parse_poly("5/3", vs).constant_value() == Fraction(5, 3)
    assert Poly.zero(vs).total_degree() == -1
    cs = p.univariate_in(0)
    assert len(cs) == 3
    assert cs[0] == parse_poly("3*x - 7", vs) - parse_poly("3*x", vs)  # -7
    assert cs[2] == parse_poly("y", vs)


def test_variable_mismatch_rejected():
    p = parse_poly("x", ("x", "y"))
    q = parse_poly("x", ("x", "z"))
    with pytest.raises(InputError):
        _ = p + q
    with pytest.raises(InputError):
        Poly(("x", "x"), {})
