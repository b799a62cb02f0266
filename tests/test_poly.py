"""Exact-algebra tests: parser, printer, ring ops, resultants.

The parser oracle is an independent recursive evaluator that interprets
the expression text directly over Fraction arithmetic, sharing no code
with the package.
"""

import random
import re
from fractions import Fraction

import pytest

from folia import GaussianRational, InputError, ParseError, Poly, parse_poly, resultant


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


def test_exact_div():
    vs = ("x", "y")
    rng = random.Random(881)
    for _ in range(30):
        a = _random_poly(rng, vs, max_terms=4, max_exp=3, allow_zero=False)
        b = _random_poly(rng, vs, max_terms=4, max_exp=3, allow_zero=False)
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a
    with pytest.raises(ValueError):
        parse_poly("x^2 + 1", vs).exact_div(parse_poly("y", vs))


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
