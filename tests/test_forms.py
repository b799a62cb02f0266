"""Exterior algebra invariants: d^2 = 0, antisymmetry, Leibniz."""

import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folia import InputError, Poly, parse_poly
from folia.forms import DifferentialForm, d_poly, dual_field, pq_form
from folia.poly import GaussianRational


def _rand_poly(rng, vs, terms=4, deg=3):
    t = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, deg) for _ in vs)
        t[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(vs, t)


def _rand_one_form(rng, vs):
    return DifferentialForm.one_form([_rand_poly(rng, vs) for _ in vs])


def test_d_squared_is_zero():
    rng = random.Random(1311)
    for vs in [("x", "y"), ("x1", "x2", "x3")]:
        for _ in range(20):
            f = _rand_poly(rng, vs)
            assert DifferentialForm.function(f).exterior_d().exterior_d().is_zero
            w = _rand_one_form(rng, vs)
            assert w.exterior_d().exterior_d().is_zero


def test_wedge_antisymmetry_and_self_annihilation():
    rng = random.Random(7077)
    vs = ("x1", "x2", "x3")
    for _ in range(20):
        a = _rand_one_form(rng, vs)
        b = _rand_one_form(rng, vs)
        assert a.wedge(b) == -(b.wedge(a))
        assert a.wedge(a).is_zero


def test_d_is_antiderivation_on_function_times_form():
    # d(f w) = df ^ w + f dw for a function f and 1-form w
    rng = random.Random(2024)
    vs = ("x", "y", "z")
    for _ in range(15):
        f = _rand_poly(rng, vs)
        w = _rand_one_form(rng, vs)
        left = (w * f).exterior_d()
        right = d_poly(f).wedge(w) + w.exterior_d() * f
        assert left == right


def test_plane_conventions():
    vs = ("x", "y")
    p = parse_poly("y", vs)       # X = (y, -x): clockwise circles
    q = parse_poly("-x", vs)
    w = pq_form(p, q)
    # omega = P dy - Q dx = y dy + x dx = d((x^2+y^2)/2)
    f = parse_poly("1/2*x^2 + 1/2*y^2", vs)
    assert w == d_poly(f)
    assert dual_field(w) == (p, q)
    # omega annihilates its dual field
    assert w.contract([p, q]).comps == {}


def test_contract_is_alternating_on_two_forms():
    vs = ("x", "y", "z")
    rng = random.Random(99)
    w = _rand_one_form(rng, vs)
    dw = w.exterior_d()
    fld = [_rand_poly(rng, vs) for _ in vs]
    # i_X i_X = 0
    assert dw.contract(fld).contract(fld).is_zero if dw.degree == 2 else True


def test_integrability_obstruction_dimension_three():
    vs = ("x1", "x2", "x3")
    x1 = Poly.variable(vs, "x1")
    x2 = Poly.variable(vs, "x2")
    x3 = Poly.variable(vs, "x3")
    # omega = d(x1 x2 x3) is integrable: omega ^ d omega = 0 (d omega = 0)
    w = d_poly(x1 * x2 * x3)
    assert w.exterior_d().is_zero
    assert w.wedge(w.exterior_d()).is_zero
    # omega = x2 dx1 + dx2 + dx3 is a contact-like form: obstruction nonzero
    one = Poly.constant(vs, 1)
    zero = Poly.zero(vs)
    w2 = DifferentialForm.one_form([x2, one, one])
    obstruction = w2.wedge(w2.exterior_d())
    assert not obstruction.is_zero
    assert obstruction.coeff(0, 1, 2) == -one


def test_degree_bookkeeping_errors():
    vs = ("x", "y")
    w = DifferentialForm.one_form([Poly.variable(vs, "x"), Poly.zero(vs)])
    with pytest.raises(InputError):
        DifferentialForm(vs, 3, {})
    with pytest.raises(InputError):
        w + DifferentialForm.zero(vs, 2)
    with pytest.raises(InputError):
        w * w  # products of forms go through wedge()
    # wedge beyond the dimension collapses to the zero top form
    top = w.wedge(w.exterior_d())
    assert top.is_zero and top.degree == 2


# ---- the term accumulator --------------------------------------------------
#
# Every sum of terms in Poly and DifferentialForm goes through one
# accumulator that drops a key when its sum vanishes.  The references here
# sum naively into a flat dict, zeros kept, and filter once at the end.

_VARS = ("x", "y", "z")
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_COEFF = st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
                   st.integers(-2, 2), st.integers(-1, 1), st.integers(1, 2))


def _raw_terms(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), _COEFF,
                           max_size=5)


def _poly(n):
    return _raw_terms(n).map(lambda t: Poly(_VARS[:n], t))


def _naive(contributions):
    acc = defaultdict(lambda: GaussianRational(0))
    for key, c in contributions:
        acc[key] = acc[key] + c
    return {k: c for k, c in acc.items() if not c.is_zero}


def _sign(idx):
    if len(set(idx)) < len(idx):
        return 0, None
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
    return (-1) ** inversions, tuple(sorted(idx))


def _flat(form):
    return [((idx, e), c) for idx, p in form.comps.items()
            for e, c in p.terms.items()]


def _add_exps(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def _naive_wedge(a, b):
    out = []
    for (i1, e1), c1 in _flat(a):
        for (i2, e2), c2 in _flat(b):
            sign, key = _sign(i1 + i2)
            if sign:
                out.append(((key, _add_exps(e1, e2)), c1 * c2 * sign))
    return _naive(out)


def _naive_d(form):
    out = []
    for (idx, e), c in _flat(form):
        for i in range(len(e)):
            sign, key = _sign((i,) + idx)
            if sign and e[i]:
                de = e[:i] + (e[i] - 1,) + e[i + 1:]
                out.append(((key, de), c * e[i] * sign))
    return _naive(out)


def _naive_contract(form, field):
    out = []
    for (idx, e), c in _flat(form):
        for pos, i in enumerate(idx):
            for ef, cf in field[i].terms.items():
                key = idx[:pos] + idx[pos + 1:]
                out.append(((key, _add_exps(e, ef)), c * cf * (-1) ** pos))
    return _naive(out)


def _assert_poly(p, ref):
    assert all(not c.is_zero for c in p.terms.values())
    assert p.terms == ref


def _assert_form(w, ref):
    assert all(not p.is_zero for p in w.comps.values())
    assert all(not c.is_zero for _, c in _flat(w))
    assert dict(_flat(w)) == ref


@st.composite
def _poly_cases(draw):
    n = draw(st.integers(2, 3))
    raw = draw(_raw_terms(n))
    p = Poly(_VARS[:n], raw)
    # q cancels p at a drawn subset of p's terms
    q_raw = draw(_raw_terms(n))
    for e, c in p.terms.items():
        if draw(st.booleans()):
            q_raw[e] = -c
    return raw, p, Poly(_VARS[:n], q_raw)


@_SETTINGS
@given(_poly_cases())
def test_poly_operations_keep_no_zero_terms(case):
    raw, p, q = case
    _assert_poly(p, _naive(raw.items()))
    _assert_poly(p + q, _naive([*p.terms.items(), *q.terms.items()]))
    _assert_poly(p + (-p), {})
    s, t = p + q, p - q
    for a, b in ((p, q), (s, t)):       # (p + q)(p - q) cancels p*q - q*p
        _assert_poly(a * b, _naive([(_add_exps(e1, e2), c1 * c2)
                                    for e1, c1 in a.terms.items()
                                    for e2, c2 in b.terms.items()]))
    for i in range(p.nvars):
        _assert_poly(p.diff(i), _naive([(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                                        for e, c in p.terms.items() if e[i]]))


@st.composite
def _form_cases(draw):
    n = draw(st.integers(2, 3))
    vs = _VARS[:n]
    coeffs = [draw(_poly(n)) for _ in vs]
    w = DifferentialForm.one_form(coeffs)
    # v cancels w on a drawn subset of its components
    v = DifferentialForm.one_form([-c if draw(st.booleans()) else draw(_poly(n))
                                   for c in coeffs])
    two = DifferentialForm(vs, 2, {(i, j): draw(_poly(n))
                                   for i in range(n) for j in range(i + 1, n)})
    field = [draw(_poly(n)) for _ in vs]
    return coeffs, w, v, two, field, draw(_poly(n))


@_SETTINGS
@given(_form_cases())
def test_form_operations_keep_no_zero_components(case):
    coeffs, w, v, two, field, f = case
    n = len(coeffs)
    _assert_form(w, _naive([(((i,), e), c) for i, p in enumerate(coeffs)
                            for e, c in p.terms.items()]))
    _assert_form(w + v, _naive([*_flat(w), *_flat(v)]))
    _assert_form(w + (-w), {})
    _assert_form(w.wedge(w), {})
    for a, b in ((w, v), (w, two), (two, w)):
        _assert_form(a.wedge(b), _naive_wedge(a, b))
    fn = DifferentialForm.function(f)
    _assert_form(fn.exterior_d().exterior_d(), {})
    for form in (fn, w, two):
        _assert_form(form.exterior_d(), _naive_d(form))
    for form in (w, two):
        _assert_form(form.contract(field), _naive_contract(form, field))
    # the dual field (B, -A, 0, ...) of w = A dx + B dy + ... annihilates w
    dual = [coeffs[1], -coeffs[0], *[Poly.zero(w.vars)] * (n - 2)]
    _assert_form(w.contract(dual), {})
