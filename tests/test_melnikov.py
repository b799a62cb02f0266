import math
import random
from fractions import Fraction

import pytest

from folia import parse_poly
from folia.errors import InputError
from folia.flow import holonomy, trace_cycle
from folia.foliation import dulac_family, hamiltonian, logarithmic
from folia.forms import DifferentialForm, d_poly
from folia.melnikov import (
    cycle_at,
    m1,
    m1_on_cycle,
    m1_sweep,
    make_problem,
    perturbed_record,
    tangency_test,
)

from conftest import greens_m1

XY = ("x", "y")


def P(s):
    return parse_poly(s, XY)


def form(a, b):
    return DifferentialForm.one_form([P(a), P(b)])


CIRCLE = hamiltonian(P("1/2*x^2 + 1/2*y^2"))
GRID9 = [0.1 * k for k in range(1, 10)]


# ---- frozen laws on the circle ---------------------------------------------

def test_rotation_number_law():
    # omega1 = x dy - y dx integrates to twice the enclosed area
    prob = make_problem(CIRCLE, form("-y", "x"), center=(0.0, 0.0))
    for t in GRID9:
        val = m1(prob, t)
        assert abs(val - (-4.0 * math.pi * t)) <= 1e-6 * abs(4.0 * math.pi * t)
    assert abs(m1(prob, 0.5) - (-2.0 * math.pi)) <= 1e-8


def test_cubic_weighted_rotation_law():
    # (x^2 + y^2)(x dy - y dx) picks up an extra factor 2t on the circle
    w = form("-y", "x") * P("x^2 + y^2")
    prob = make_problem(CIRCLE, w, center=(0.0, 0.0))
    for t in (0.2, 0.5, 0.8):
        expect = -8.0 * math.pi * t * t
        assert abs(m1(prob, t) - expect) <= 1e-6 * abs(expect)


def test_shear_laws():
    # y dx --> +2 pi t, x dy --> -2 pi t, x^3 dy --> -3 pi t^2
    cases = [
        (form("y", "0"), lambda t: 2.0 * math.pi * t),
        (form("0", "x"), lambda t: -2.0 * math.pi * t),
        (form("0", "x^3"), lambda t: -3.0 * math.pi * t * t),
    ]
    for w, law in cases:
        prob = make_problem(CIRCLE, w, center=(0.0, 0.0))
        for t in (0.3, 0.7):
            assert abs(m1(prob, t) - law(t)) <= 1e-6 * max(1.0, abs(law(t)))


def test_even_perturbation_vanishes():
    prob = make_problem(CIRCLE, form("0", "x^2"), center=(0.0, 0.0))
    sweep = m1_sweep(prob, GRID9)
    assert sweep.identically_zero
    assert sweep.multiplicity is None
    assert all(abs(v) < 1e-9 for v in sweep.values)


def test_multiplicity_estimates():
    lin = m1_sweep(make_problem(CIRCLE, form("0", "x"), center=(0.0, 0.0)),
                   GRID9)
    assert not lin.identically_zero
    assert lin.multiplicity == 1
    assert lin.fit_residual < 1e-6

    quad = m1_sweep(
        make_problem(CIRCLE, form("-y", "x") * P("x^2 + y^2"),
                     center=(0.0, 0.0)),
        GRID9,
    )
    assert quad.multiplicity == 2
    assert quad.fit_residual < 1e-6


# ---- kernel and linearity ---------------------------------------------------

def test_exact_perturbations_vanish():
    prob = make_problem(CIRCLE, form("0", "x"), center=(0.0, 0.0))
    cycle = cycle_at(prob, 0.5)
    rng = random.Random(7)
    for _ in range(20):
        g = P("0")
        for _ in range(6):
            i, j = rng.randrange(4), rng.randrange(4)
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            g = g + P("x") ** i * P("y") ** j * c
        w = d_poly(g)
        if w.is_zero:
            continue
        pg = make_problem(CIRCLE, w, center=(0.0, 0.0))
        assert abs(m1_on_cycle(pg, cycle)) < 1e-9


def test_linearity():
    a, b = Fraction(3, 2), Fraction(-2, 7)
    alpha, beta = form("0", "x"), form("y", "x^3")
    combo = alpha * a + beta * b
    cycle = cycle_at(make_problem(CIRCLE, alpha, center=(0.0, 0.0)), 0.5)
    va = m1_on_cycle(make_problem(CIRCLE, alpha, center=(0.0, 0.0)), cycle)
    vb = m1_on_cycle(make_problem(CIRCLE, beta, center=(0.0, 0.0)), cycle)
    vc = m1_on_cycle(make_problem(CIRCLE, combo, center=(0.0, 0.0)), cycle)
    assert abs(vc - (float(a) * va + float(b) * vb)) <= 1e-9 * max(1.0, abs(vc))


# ---- area oracle ------------------------------------------------------------

def test_against_area_oracle():
    systems = [
        ("1/2*x^2 + 1/2*y^2", (0.0, 0.0), 0.5, form("-y", "x"),
         lambda x, y: 2.0 + 0.0 * x),
        ("1/2*x^2 + y^2", (0.0, 0.0), 0.3, form("0", "x^3"),
         lambda x, y: 3.0 * x * x),
        ("1/2*x^2 + 1/2*y^2 + 1/5*x^3", (0.0, 0.0), 0.1, form("0", "x^2"),
         lambda x, y: 2.0 * x),
        ("x*y*(1 - x - y)", (1.0 / 3.0, 1.0 / 3.0), 0.02, form("0", "x"),
         lambda x, y: 1.0 + 0.0 * x),
        ("1/2*x^2 + 1/2*y^2 + 1/4*x^4 + 1/4*y^4", (0.0, 0.0), 0.7,
         form("y^2", "x^3 + x"), lambda x, y: 3.0 * x * x + 1.0 - 2.0 * y),
    ]
    for f_text, center, t, w, integrand in systems:
        f = P(f_text)
        rec = hamiltonian(f)
        prob = make_problem(rec, w, center=center)
        got = m1(prob, t)
        want = greens_m1(f.compiled(), center, t, integrand)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), f_text


# ---- logarithmic records ----------------------------------------------------

def test_log_unit_residues_match_hamiltonian():
    facs = [P("x"), P("y"), P("1 - x - y")]
    rec_log = logarithmic(facs, [1, 1, 1])
    rec_ham = hamiltonian(P("x*y*(1 - x - y)"))
    w = form("0", "x")
    pl = make_problem(rec_log, w, center=(1.0 / 3.0, 1.0 / 3.0))
    ph = make_problem(rec_ham, w, center=(1.0 / 3.0, 1.0 / 3.0))
    assert pl.s_is_one is False
    for t in (0.01, 0.02):
        vl, vh = m1(pl, t), m1(ph, t)
        assert abs(vl - vh) <= 1e-8 * max(1.0, abs(vh))


def test_log_center_found_by_census():
    rec = logarithmic([P("x"), P("y"), P("1 - x - y")], [1, 1, 1])
    auto = make_problem(rec, form("0", "x"))
    assert abs(auto.center[0] - 1.0 / 3.0) < 1e-8
    assert abs(auto.center[1] - 1.0 / 3.0) < 1e-8
    assert abs(auto.center_level - 1.0 / 27.0) < 1e-10


def test_log_nonunit_residues_against_oracle():
    # s = 1/(1 - x - y); the oracle integrates over {f > t} around (1/4, 1/4)
    facs = [P("x"), P("y"), P("1 - x - y")]
    rec = logarithmic(facs, [1, 1, 2])
    w = form("0", "x")
    prob = make_problem(rec, w, center=(0.25, 0.25))
    assert abs(prob.center_level - 1.0 / 64.0) < 1e-12

    f1, f2, f3 = (f.compiled() for f in facs)

    def f_fn(x, y):
        return f1(x, y) * f2(x, y) * f3(x, y) ** 2

    for t in (0.008, 0.013):
        got = m1(prob, t)
        # omega1 / s = x (1 - x - y) dy, so the curl is 1 - 2x - y
        want = greens_m1(f_fn, (0.25, 0.25), t,
                         lambda x, y: 1.0 - 2.0 * x - y, r_step=0.005)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_center_outside_positive_region_rejected():
    rec = logarithmic([P("x"), P("y"), P("1 - x - y")], [1, 1, 1])
    with pytest.raises(InputError):
        make_problem(rec, form("0", "x"), center=(-0.5, -0.5))


# ---- holonomy consistency ---------------------------------------------------

def test_first_order_holonomy_displacement():
    w = form("0", "x")
    prob = make_problem(CIRCLE, w, center=(0.0, 0.0))
    t = 0.5
    predicted = m1(prob, t)
    eps = 1e-4
    pert = perturbed_record(CIRCLE, w, eps)
    cyc = trace_cycle(CIRCLE, (math.sqrt(2.0 * t), 0.0))
    h = holonomy(pert, cyc)
    measured = (h.t_out - h.t_in) / eps
    assert abs(measured - predicted) <= 0.05 * abs(predicted)


# ---- guards ------------------------------------------------------------------

def test_unsupported_records_rejected():
    with pytest.raises(InputError):
        make_problem(perturbed_record(CIRCLE, form("0", "x"), 0.1),
                     form("0", "x"))
    with pytest.raises(InputError):
        make_problem(dulac_family("A", 1, XY), form("0", "x"))


def test_short_grids_get_values_without_a_fit():
    prob = make_problem(CIRCLE, form("0", "x"), center=(0.0, 0.0))
    for grid in ([0.25, 0.5], [0.2, 0.4, 0.6]):
        sweep = m1_sweep(prob, grid)
        assert sweep.multiplicity is None and sweep.fit_residual is None
        assert sweep.identically_zero is False
        assert sweep.values == [m1(prob, t) for t in grid]
    exact = make_problem(CIRCLE, form("x", "y"), center=(0.0, 0.0))
    sweep = m1_sweep(exact, [0.2, 0.4, 0.6])
    assert sweep.identically_zero is True and sweep.multiplicity is None


def test_bad_grids_rejected():
    prob = make_problem(CIRCLE, form("0", "x"), center=(0.0, 0.0))
    with pytest.raises(InputError):
        m1_sweep(prob, [0.5, 0.4, 0.6])
    with pytest.raises(InputError):
        m1_sweep(prob, [0.5])
    with pytest.raises(InputError):
        m1_sweep(prob, [0.6, 0.4])


def test_tangency_verdicts():
    good = tangency_test(
        make_problem(CIRCLE, d_poly(P("x^3 + x*y")), center=(0.0, 0.0)),
        [0.25, 0.5, 0.75],
    )
    assert good.compatible
    assert good.max_abs < 1e-9

    bad = tangency_test(
        make_problem(CIRCLE, form("0", "x"), center=(0.0, 0.0)),
        [0.25, 0.5, 0.75],
    )
    assert not bad.compatible
    assert bad.max_abs > 1.0
