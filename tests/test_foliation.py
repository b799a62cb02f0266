"""Families, singular points, classification, and the center census."""

import random
from fractions import Fraction

import numpy as np
import pytest

from folia import InputError, NumericError, Poly, parse_poly, poly
from folia.foliation import (
    _roots,
    CenterCensus,
    PolyMap,
    classify_singularity,
    count_centers,
    dulac_family,
    elementary_log_form,
    expected_center_count,
    find_singularities,
    hamiltonian,
    integrability_obstruction,
    logarithmic,
    pullback_form,
    FoliationRecord,
)
from folia.forms import DifferentialForm, d_poly

VS = ("x", "y")


def P(s):
    return parse_poly(s, VS)


# ---------------------------------------------------------------------------
# families

def test_hamiltonian_circle_record():
    f = P("1/2*x^2 + 1/2*y^2")
    rec = hamiltonian(f)
    assert rec.P == P("y") and rec.Q == P("-x")
    assert rec.omega == d_poly(f)
    assert rec.degree == 1
    assert rec.kind == "hamiltonian"


def test_logarithmic_three_lines_is_hamiltonian_of_product():
    factors = [P("x"), P("y"), P("x + y - 1")]
    rec = logarithmic(factors, [1, 1, 1])
    f = factors[0] * factors[1] * factors[2]
    assert rec.omega == d_poly(f)
    assert rec.degree == 2  # sum of degrees minus one


def test_logarithmic_rejects_bad_data():
    with pytest.raises(InputError):
        logarithmic([P("x")], [0])           # zero residue
    with pytest.raises(InputError):
        logarithmic([P("x"), P("y")], [1])   # arity mismatch
    with pytest.raises(InputError):
        logarithmic([P("2")], [1])           # constant factor


def test_dulac_families_match_normal_forms():
    a0 = dulac_family("A", 0, VS)
    assert a0.omega == DifferentialForm(VS, 1, {(0,): P("1"), (1,): P("x")})
    a1 = dulac_family("A", 1, VS)
    assert a1.omega == DifferentialForm(VS, 1, {(0,): P("x - y"), (1,): P("x")})
    b1 = dulac_family("B1", 1, VS)
    assert b1.omega == DifferentialForm(VS, 1, {(0,): P("y"), (1,): P("1")})
    # clearing factor s makes s * dF/F polynomial and equal to omega
    assert a1.dulac.clearing_factor == P("x^2")
    assert b1.dulac.clearing_factor == P("y")
    with pytest.raises(InputError):
        dulac_family("B1", 2, VS)
    with pytest.raises(InputError):
        dulac_family("C", 0, VS)


def test_dulac_clearing_factor_identity():
    # for A_i: s = p^(i+1), F = p exp(q/p^i), s dF/F = p^i dp + p dq - i q dp
    for i in [0, 1, 2, 3]:
        rec = dulac_family("A", i, VS)
        x, y = P("x"), P("y")
        want = DifferentialForm(VS, 1, {(0,): x**i - y * i, (1,): x})
        assert rec.omega == want


# ---------------------------------------------------------------------------
# singular points

def test_find_singularities_cubic_line():
    rec = FoliationRecord(P=P("y"), Q=P("x^3 + x^2 - 2*x"))
    pts = find_singularities(rec)
    xs = [p.x for p in pts]
    assert len(pts) == 3
    assert abs(xs[0] - (-2)) < 1e-9 and abs(xs[1]) < 1e-9 and abs(xs[2] - 1) < 1e-9
    assert all(abs(p.y) < 1e-9 and p.residual < 1e-8 for p in pts)


def test_find_singularities_complex_points():
    # x^2 + 1 = 0 has no real roots; the two complex ones must be found
    rec = FoliationRecord(P=P("x^2 + 1"), Q=P("y"))
    pts = find_singularities(rec)
    assert len(pts) == 2
    assert sorted(round(p.x.imag, 6) for p in pts) == [-1.0, 1.0]


def test_find_singularities_rejects_common_factor():
    rec = FoliationRecord(P=P("x*y"), Q=P("x*(x + y - 3)"))
    with pytest.raises(InputError):
        find_singularities(rec)


def test_find_singularities_multiple_root_collapses():
    rec = FoliationRecord(P=P("x^2"), Q=P("y"))
    pts = find_singularities(rec)
    assert len(pts) == 1
    sp = classify_singularity(rec, pts[0].location)
    assert sp.classification == "non_reduced"


def test_classify_center_and_saddle():
    rec = hamiltonian(P("1/2*x^2 + 1/2*y^2"))
    sp = classify_singularity(rec, (0, 0))
    assert sp.classification == "center_candidate"
    l1, l2 = sp.eigenvalues
    assert abs(l1.real) < 1e-9 and abs(abs(l1.imag) - 1) < 1e-9
    assert abs(sp.eigenvalue_ratio + 1) < 1e-9
    # a complex saddle of a Hamiltonian is a center candidate too
    rec2 = hamiltonian(P("x*y"))
    sp2 = classify_singularity(rec2, (0, 0))
    assert sp2.classification == "center_candidate"


def test_classify_ratio_for_unequal_residues():
    # lambda = (1, 2) on the axes: ratio of small to large eigenvalue is -1/2
    rec = logarithmic([P("x"), P("y")], [1, 2])
    sp = classify_singularity(rec, (0, 0))
    assert abs(sp.eigenvalue_ratio + 0.5) < 1e-9
    assert sp.classification == "generic_reduced"
    assert "polar_intersection" in sp.notes


def test_classify_dicritical_candidate():
    rec = logarithmic([P("x"), P("y")], [1, -1])
    sp = classify_singularity(rec, (0, 0))
    assert sp.classification == "dicritical_candidate"


def test_classify_rejects_regular_point():
    rec = hamiltonian(P("1/2*x^2 + 1/2*y^2"))
    with pytest.raises(InputError):
        classify_singularity(rec, (1.0, 0.0))


def test_classify_complex_residues_do_not_crash():
    rec = logarithmic([P("x"), P("y")], [1, complex(0, 1)])
    sp = classify_singularity(rec, (0, 0))
    assert sp.classification in ("generic_reduced", "resonant_other")


# the two root extractors that ``_roots`` replaced, kept as its references


def _roots_of_poly_in(p: Poly, var_index: int) -> np.ndarray:
    """Roots of an exact polynomial that depends on one variable only."""
    import numpy as np
    coeffs = p.univariate_in(var_index)
    vals = [complex(c.constant_value()) for c in coeffs]  # ascending, exact zeros kept
    while vals and vals[-1] == 0:
        vals.pop()
    if len(vals) <= 1:
        return np.array([], dtype=complex)
    arr = np.array(vals[::-1], dtype=complex)
    arr = arr / np.max(np.abs(arr))
    return np.roots(arr)


def _y_roots_at(y_coeffs, x0: complex) -> np.ndarray | None:
    """Roots in y of a polynomial at x = x0, given the evaluators of its
    coefficients in y (ascending degree).

    Returns None when the frozen polynomial is numerically degenerate
    (all coefficients tiny, or no dependence left).
    """
    import numpy as np
    vals = [complex(c(x0, 0.0)) for c in y_coeffs]
    if not vals:
        return None
    top = max(abs(v) for v in vals)
    if top == 0.0:
        return None
    while vals and abs(vals[-1]) <= 1e-12 * top:
        vals.pop()
    if len(vals) <= 1:
        return None
    return np.roots(np.array(vals[::-1], dtype=complex) / top)


def _assert_same_roots(got, ref):
    if ref is None or got is None:
        assert got is None and ref is None
    else:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _eliminant_cases():
    rng = random.Random("census-roots-eliminant")
    tiny = Fraction(1, 10**400)     # nonzero, but 0.0 as a double
    cases = [{}, {0: 3}, {0: 1, 1: 2}, {0: -2, 1: 0, 2: 1, 3: tiny},
             {0: 1, 2: -tiny, 3: tiny}, {2: 5}, {1: tiny, 0: tiny}]
    for _ in range(60):
        cases.append({k: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) *
                      10**rng.randint(-8, 8) for k in range(rng.randint(1, 9))})
    return [Poly(VS, {(k, 0): c for k, c in case.items()}) for case in cases]


def test_roots_equals_the_eliminant_extractor_bit_for_bit():
    for p in _eliminant_cases():
        ref = _roots_of_poly_in(p, 0)
        got = _roots([complex(c.constant_value()) for c in p.univariate_in(0)], 0.0)
        # the reference says "no roots" with an empty array, _roots with None
        _assert_same_roots(got, ref if ref.size else None)


def test_roots_on_complex_eliminants_differs_at_most_in_the_scale():
    # np.abs of a complex double is not always libm's hypot, which abs()
    # is: numpy's SIMD loops compute it another way, and differ by an ulp
    # or two on some hosts.  The reference scaled by np.abs, _roots scales
    # by abs(); with equal scales the roots are equal bit for bit.  (Real
    # eliminants, those of every real record, always have equal scales.)
    rng = random.Random("census-roots-complex-eliminant")
    for _ in range(60):
        vals = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                for _ in range(rng.randint(2, 9))]
        arr = np.array(vals[::-1], dtype=complex)
        ref_top, top = np.max(np.abs(arr)), max(map(abs, vals))
        assert abs(ref_top - top) <= 4 * np.spacing(top)
        got = _roots(vals, 0.0)
        if ref_top == top:
            _assert_same_roots(got, np.roots(arr / ref_top))
        else:
            ref = np.roots(arr / ref_top)
            assert np.allclose(np.sort_complex(got), np.sort_complex(ref),
                               rtol=1e-9, atol=1e-9)


def _slice_cases():
    rng = random.Random("census-roots-slice")
    top = 2.0       # 1e-12 * top is then exact
    at_cut = 1e-12 * top
    above = np.nextafter(at_cut, np.inf)
    cases = [[], [0.0], [0.0, 0.0, 0.0], [3.0], [1j], [complex(0.0, -0.0), 0.0],
             [1.0, top, at_cut], [1.0, top, above], [1.0, top, 1j * at_cut],
             [1.0, top, -1j * above], [top, at_cut, at_cut],
             [top, 1.0, 0.0, -at_cut], [at_cut, top, above, at_cut]]
    for _ in range(80):
        n = rng.randint(1, 9)
        scale = 10.0 ** rng.randint(-20, 20)
        if rng.random() < 0.5:
            vals = [rng.uniform(-1, 1) * scale for _ in range(n)]
        else:
            vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
                    for _ in range(n)]
        if rng.random() < 0.3:    # leading coefficients near the cut
            vals += [v * 1e-13 for v in vals[:rng.randint(1, n)]]
        cases.append(vals)
    return [[complex(v) for v in vals] for vals in cases]


def test_roots_equals_the_slice_extractor_bit_for_bit():
    for vals in _slice_cases():
        evaluators = [lambda x, y, v=v: v for v in vals]
        _assert_same_roots(_roots(vals, 1e-12), _y_roots_at(evaluators, 0.5))


# ---------------------------------------------------------------------------
# census

def test_census_builds_each_evaluator_once(monkeypatch):
    """Evaluators are built once per record, not once per eliminant root,
    and classification reuses the record's Jacobian."""
    built, inits = [], []
    factory, init = poly._evaluator_factory, Poly.__init__

    def counting_factory(*key):
        built.append(key)
        return factory(*key)

    def counting_init(self, *args, **kw):
        inits.append(args)
        init(self, *args, **kw)

    # ROADMAP defect (a): the census gives up, after the same work
    rec = logarithmic([P("x^3 + y^3 - 1"), P("x^2 - y"), P("x + y^2 - 5")],
                      [1, 2, 3])
    monkeypatch.setattr(poly, "_evaluator_factory", counting_factory)
    with pytest.raises(NumericError, match="above the Bezout bound 36"):
        find_singularities(rec)
    assert len(built) <= 20   # 414 when each x-root rebuilt the y-coefficients

    tri = logarithmic([P("x"), P("y"), P("1 - x - y")], [1, 2, 3])
    classify_singularity(tri, (0, 0))   # builds the evaluators it needs
    built.clear()
    monkeypatch.setattr(Poly, "__init__", counting_init)
    for point in ((1, 0), (0, 1)):
        classify_singularity(tri, point)
    assert built == [] and inits == []


def test_expected_center_count_table():
    assert expected_center_count([1, 1, 1]) == 1
    assert expected_center_count([1, 1]) == 0
    assert expected_center_count([2, 1]) == 2
    assert expected_center_count([2, 2]) == 5
    assert expected_center_count([1, 1, 1, 1]) == 3
    with pytest.raises(InputError):
        expected_center_count([])
    with pytest.raises(InputError):
        expected_center_count([0, 1])


def test_census_three_generic_lines():
    rec = logarithmic([P("x"), P("y"), P("x + y - 1")], [1, 1, 1])
    census = count_centers(rec)
    assert len(census.centers) == 1
    assert len(census.intersections) == 3
    assert len(census.other) == 0
    assert census.expected_centers == 1
    assert census.total == 4
    c = census.centers[0]
    assert abs(c.x - 1 / 3) < 1e-8 and abs(c.y - 1 / 3) < 1e-8


def test_census_two_lines_no_centers():
    rec = logarithmic([P("x"), P("y")], [1, 1])
    census = count_centers(rec)
    assert len(census.centers) == 0
    assert len(census.intersections) == 1
    assert census.expected_centers == 0


def test_census_conic_and_line():
    rec = logarithmic([P("x^2 + y^2 - 1"), P("x - 3")], [1, 1])
    census = count_centers(rec)
    assert census.expected_centers == 2
    assert len(census.centers) == 2
    assert len(census.intersections) == 2  # complex intersections of curve and line
    assert census.total == 4


def test_census_affine_invariance():
    # same foliation after an affine substitution: identical census shape
    rec1 = logarithmic([P("x"), P("y"), P("x + y - 1")], [1, 1, 1])
    sub = [P("x - 2"), P("y + 5")]
    factors2 = [f.compose(sub) for f in [P("x"), P("y"), P("x + y - 1")]]
    rec2 = logarithmic(factors2, [1, 1, 1])
    c1, c2 = count_centers(rec1), count_centers(rec2)
    assert len(c1.centers) == len(c2.centers) == 1
    assert len(c1.intersections) == len(c2.intersections) == 3
    # the center moved by exactly the shift
    assert abs(c2.centers[0].x - (c1.centers[0].x + 2)) < 1e-7
    assert abs(c2.centers[0].y - (c1.centers[0].y - 5)) < 1e-7


def test_census_hamiltonian_counts_all_morse_points():
    # without a logarithmic structure every ratio -1 point is a candidate
    rec = hamiltonian(P("x") * P("y") * P("x + y - 1"))
    census = count_centers(rec)
    assert len(census.centers) == 4
    assert len(census.intersections) == 0


def test_bezout_bound_respected_on_random_hamiltonians():
    rng = random.Random(40813)
    for _ in range(5):
        terms = {}
        for _ in range(6):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = Fraction(rng.randint(-4, 4))
        f = Poly(VS, terms) + P("x^3") + P("y^3")
        rec = hamiltonian(f)
        pts = find_singularities(rec)
        assert len(pts) <= rec.P.total_degree() * rec.Q.total_degree()


# ---------------------------------------------------------------------------
# maps, pullbacks, integrability

V3 = ("x1", "x2", "x3")


def test_pullback_chain_rule_on_functions():
    rng = random.Random(660)
    phi = PolyMap(components=(
        parse_poly("u^2 - v", ("u", "v")),
        parse_poly("u + v", ("u", "v")),
        parse_poly("u*v", ("u", "v")),
    ))
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            terms[e] = Fraction(rng.randint(-5, 5))
        g = Poly(V3, terms)
        # phi^*(dg) = d(g o phi)
        assert pullback_form(phi, d_poly(g)) == d_poly(g.compose(list(phi.components)))


def test_pullback_commutes_with_wedge():
    rng = random.Random(661)
    phi = PolyMap(components=(
        parse_poly("u", ("u", "v", "w")),
        parse_poly("v^2", ("u", "v", "w")),
        parse_poly("u + w", ("u", "v", "w")),
    ))

    def rand_one_form():
        cs = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                e = tuple(rng.randint(0, 1) for _ in range(3))
                terms[e] = Fraction(rng.randint(-3, 3))
            cs.append(Poly(V3, terms))
        return DifferentialForm.one_form(cs)

    for _ in range(8):
        a, b = rand_one_form(), rand_one_form()
        assert pullback_form(phi, a.wedge(b)) == \
            pullback_form(phi, a).wedge(pullback_form(phi, b))


def test_log_forms_are_always_integrable():
    rng = random.Random(662)
    for _ in range(10):
        factors = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                e = tuple(rng.randint(0, 1) for _ in range(3))
                terms[e] = Fraction(rng.randint(-3, 3))
            f = Poly(V3, terms)
            if f.total_degree() < 1:
                f = f + Poly.variable(V3, "x1")
            factors.append(f)
        lams = [rng.randint(1, 5) for _ in range(3)]
        w = elementary_log_form(factors, lams)
        assert integrability_obstruction(w).is_zero


def test_non_integrable_form_detected():
    x2 = Poly.variable(V3, "x2")
    one = Poly.constant(V3, 1)
    w = DifferentialForm.one_form([x2, one, one])
    assert not integrability_obstruction(w).is_zero
