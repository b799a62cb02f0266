"""The package's acceptance suite, runnable without pytest.

Eight numbered criteria cover the census, Melnikov, holonomy, monodromy,
Gauss-Manin, integrability, and determinism contracts.  Each criterion
function returns a :class:`CriterionResult` whose detail strings are
fully deterministic (seeded draws, 12-significant-digit floats, no
timings), so the rendered report is byte-identical between runs.  The
``selftest`` CLI command prints the rendered report and maps its verdict
to the exit code.

Independent work items inside a criterion run through
``folia.flow.parallel_map``, which maps over them serially and in input
order.  The work is pure Python and holds the interpreter lock, so
threads do not speed it up.

``run_acceptance(rel_tol=...)`` exists as a negative control: it
replaces the quadrature and integrator tolerances in the holonomy
criteria, and a nonsense value like 1e2 must make them fail loudly
rather than quietly return numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# the criteria call library functions through their modules, so that a
# function swapped in its module (as the benchmark's tracer does) is the
# one called here, however late this module is imported
from . import (brieskorn, flow, foliation, formats, forms, gaussmanin,
               melnikov, monodromy, poly)
from .errors import FoliaError, InputError
from .flow import parallel_map
from .foliation import PolyMap
from .forms import DifferentialForm
from .poly import Poly

__all__ = [
    "CriterionResult", "AcceptanceReport", "parallel_map",
    "run_acceptance", "render_report", "CRITERIA",
]

XY = ("x", "y")


def _p(s: str, vs=XY) -> Poly:
    return poly.parse_poly(s, vs)


def _form(a: str, b: str) -> DifferentialForm:
    return DifferentialForm.one_form([_p(a), _p(b)])


def _f(x: float) -> str:
    return f"{formats.fmt_float(x):.12g}"


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    failures: tuple[str, ...] = ()


@dataclass
class AcceptanceReport:
    results: list[CriterionResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# criterion 1: center census of logarithmic line arrangements


def _random_line(rng) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        a, b, c = (Fraction(rng.randint(-9, 9)) for _ in range(3))
        if a or b:
            return (a, b, c)


def _vertex(l1, l2) -> tuple[Fraction, Fraction]:
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    den = a1 * b2 - a2 * b1
    return ((-c1 * b2 + c2 * b1) / den, (-a1 * c2 + a2 * c1) / den)


def _generic_triple(rng) -> list[Poly]:
    """Three lines, pairwise transverse, not concurrent, well separated.

    The separation floor is part of genericity here: it keeps the three
    vertices resolvable by the numeric singularity finder, which is what
    the census criterion is exercising.
    """
    while True:
        ls = [_random_line(rng) for _ in range(3)]
        dets = [ls[i][0] * ls[j][1] - ls[j][0] * ls[i][1]
                for i in range(3) for j in range(i + 1, 3)]
        if any(d == 0 for d in dets):
            continue
        verts = [_vertex(ls[0], ls[1]), _vertex(ls[0], ls[2]),
                 _vertex(ls[1], ls[2])]
        if any(abs(x) > 200 or abs(y) > 200 for x, y in verts):
            continue
        gaps = [max(abs(p[0] - q[0]), abs(p[1] - q[1]))
                for p, q in ((verts[0], verts[1]), (verts[0], verts[2]),
                             (verts[1], verts[2]))]
        if min(gaps) < Fraction(1, 20):
            continue
        return [Poly(XY, {(1, 0): a, (0, 1): b, (0, 0): c}) for a, b, c in ls]


def criterion_1_census() -> CriterionResult:
    rng = random.Random(20260819)
    triples = [_generic_triple(rng) for _ in range(20)]

    def census_shape(factors):
        c = foliation.count_centers(foliation.logarithmic(factors, [1, 1, 1]))
        return (c.total, len(c.centers), len(c.intersections), c.expected_centers)

    fails = []
    shapes = parallel_map(census_shape, triples)
    for k, shape in enumerate(shapes):
        if shape != (4, 1, 3, 1):
            fails.append(f"triple {k}: got (total, centers, intersections, "
                         f"expected) = {shape}, want (4, 1, 3, 1)")

    two = foliation.count_centers(
        foliation.logarithmic([_p("x"), _p("y")], [1, 1]))
    if (len(two.centers), two.expected_centers) != (0, 0):
        fails.append(f"degrees (1,1): {len(two.centers)} centers, "
                     f"expected count {two.expected_centers}, want 0 and 0")
    conic = foliation.count_centers(
        foliation.logarithmic([_p("x^2 + y^2 - 1"), _p("x - 3")], [1, 1]))
    if (len(conic.centers), conic.expected_centers) != (2, 2):
        fails.append(f"degrees (2,1): {len(conic.centers)} centers, "
                     f"expected count {conic.expected_centers}, want 2 and 2")

    detail = ("20/20 random generic line triples gave 4 points, 1 center, "
              "3 intersections; degrees (1,1) gave 0 centers and (2,1) gave 2")
    return CriterionResult(1, "logarithmic center census", not fails,
                           detail, tuple(fails))


# ---------------------------------------------------------------------------
# criterion 2: first Melnikov function of the circle


CIRCLE_F = "1/2*x^2 + 1/2*y^2"
M1_GRID = tuple(formats.fmt_float(0.1 * k) for k in range(1, 10))


def criterion_2_melnikov(rel_tol: float | None = None) -> CriterionResult:
    rel = melnikov.REL_TOL if rel_tol is None else rel_tol
    circle = foliation.hamiltonian(_p(CIRCLE_F))
    rot = melnikov.make_problem(circle, _form("-y", "x"), center=(0.0, 0.0))

    def rot_err(t):
        m1 = melnikov.m1(rot, t, rel_tol=rel)
        return abs(m1 - (-4.0 * math.pi * t)) / (4.0 * math.pi * t)

    errs = parallel_map(rot_err, M1_GRID)
    fails = [f"rotation law at t={_f(t)}: relative error {_f(e)} > 1e-6"
             for t, e in zip(M1_GRID, errs) if not e <= 1e-6]

    exact = [("exact differential", forms.d_poly(_p("x^3*y + y^3 - 2*x"))),
             ("multiple of df", _form("x^3", "x^2*y"))]
    worst_exact = 0.0
    for label, w in exact:
        prob = melnikov.make_problem(circle, w, center=(0.0, 0.0))
        vals = parallel_map(
            lambda t, pr=prob: abs(melnikov.m1(pr, t, rel_tol=rel)), M1_GRID)
        worst_exact = max(worst_exact, max(vals))
        for t, v in zip(M1_GRID, vals):
            if not v <= 1e-9:
                fails.append(f"{label} at t={_f(t)}: |M1| = {_f(v)} > 1e-9")

    detail = (f"rotation law matched -4*pi*t on 9 levels (worst relative error "
              f"{_f(max(errs))}); exact perturbations stayed below 1e-9 "
              f"(worst {_f(worst_exact)})")
    return CriterionResult(2, "circle Melnikov laws", not fails, detail, tuple(fails))


# ---------------------------------------------------------------------------
# criterion 3: M1 against the measured holonomy displacement


def criterion_3_holonomy_consistency(rel_tol: float | None = None) -> CriterionResult:
    rel = melnikov.REL_TOL if rel_tol is None else rel_tol
    rtol = flow.RTOL if rel_tol is None else rel_tol
    atol = flow.ATOL if rel_tol is None else rel_tol
    eps = 1e-4
    circle = foliation.hamiltonian(_p(CIRCLE_F))
    perts = [("rotation", _form("-y", "x")),
             ("vertical shear", _form("0", "x")),
             ("horizontal shear", _form("y", "0"))]
    cases = [(label, w, t) for label, w in perts for t in (0.25, 0.5)]

    def check(case):
        label, w, t = case
        try:
            prob = melnikov.make_problem(circle, w, center=(0.0, 0.0))
            predicted = melnikov.m1(prob, t, rel_tol=rel)
            cyc = flow.trace_cycle(circle, (math.sqrt(2.0 * t), 0.0),
                                   rtol=rtol, atol=atol)
            h = flow.holonomy(melnikov.perturbed_record(circle, w, eps), cyc,
                              rtol=rtol, atol=atol)
            measured = (h.t_out - h.t_in) / eps
        except FoliaError as e:
            return (False, f"{label} at t={_f(t)}: {e}")
        err = abs(measured - predicted)
        if not err <= 0.05 * abs(predicted):
            return (False,
                    f"{label} at t={_f(t)}: |(h(t)-t)/eps - M1| = {_f(err)} "
                    f"exceeds 5% of |M1| = {_f(abs(predicted))}")
        return (True, f"{label} at t={_f(t)}: within {_f(err / abs(predicted))} of M1")

    outcomes = parallel_map(check, cases)
    fails = tuple(msg for ok, msg in outcomes if not ok)
    detail = ("holonomy displacement at eps=1e-4 matched M1 within 5% for "
              "3 perturbations at t in {0.25, 0.5}")
    return CriterionResult(3, "holonomy matches Melnikov", not fails, detail, fails)


# ---------------------------------------------------------------------------
# criterion 4: the return map of an integrable record is the identity


INTEGRABLE_SYSTEMS = (
    ("circle", CIRCLE_F, [(0.3 + 0.12 * k, 0.0) for k in range(10)]),
    ("ellipse", "1/2*x^2 + y^2", [(0.3 + 0.12 * k, 0.0) for k in range(10)]),
    ("quartic well", "1/4*x^4 + 1/4*y^4 + 1/2*x^2 + 1/2*y^2",
     [(0.3 + 0.09 * k, 0.0) for k in range(10)]),
    ("cubic well", "1/2*x^2 + 1/2*y^2 - 1/3*x^3",
     [(0.05 + 0.04 * k, 0.0) for k in range(10)]),
    ("triangle product", "x*y - x^2*y - x*y^2",
     [(1.0 / 3.0 + 0.02 + 0.018 * k, 1.0 / 3.0) for k in range(10)]),
)


def criterion_4_integral_identity(rel_tol: float | None = None) -> CriterionResult:
    rtol = flow.RTOL if rel_tol is None else rel_tol
    atol = flow.ATOL if rel_tol is None else rel_tol
    cases = [(name, f_str, seed)
             for name, f_str, seeds in INTEGRABLE_SYSTEMS for seed in seeds]

    def check(case):
        name, f_str, seed = case
        rec = foliation.hamiltonian(_p(f_str))
        try:
            cyc = flow.trace_cycle(rec, seed, rtol=rtol, atol=atol)
            h = flow.holonomy(rec, cyc, rtol=rtol, atol=atol)
        except FoliaError as e:
            return (False, f"{name} from {seed}: {e}", 0.0)
        defect = abs(h.t_out - h.t_in)
        if not defect <= 1e-8:
            return (False, f"{name} at t={_f(h.t_in)}: |h(t) - t| = {_f(defect)} "
                           f"> 1e-8", defect)
        return (True, "", defect)

    outcomes = parallel_map(check, cases)
    fails = tuple(msg for ok, msg, _ in outcomes if not ok)
    worst = max(d for _, _, d in outcomes)
    detail = (f"5 polynomial-integral systems, 10 levels each: worst "
              f"|h(t) - t| = {_f(worst)} (allowed 1e-8)")
    return CriterionResult(4, "integrable return map is trivial", not fails,
                           detail, fails)


# ---------------------------------------------------------------------------
# criterion 5: Picard-Lefschetz data of hyperelliptic fibrations


def _preserves(mat, s) -> bool:
    n = len(s)
    for i in range(n):
        for j in range(n):
            lhs = sum(mat[k][i] * s[k][l] * mat[l][j]
                      for k in range(n) for l in range(n))
            if lhs != s[i][j]:
                return False
    return True


def _det_int(mat) -> int:
    # Fraction elimination, kept apart from poly._gaussian_det on purpose:
    # this is criterion 5's independent oracle for det = 1.
    m = [list(map(Fraction, row)) for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


def _random_fiber_poly(rng, deg) -> Poly:
    terms = {(deg,): rng.choice([1, 2, -1, 3])}
    for k in range(deg):
        c = rng.randint(-6, 6)
        if c and rng.random() < 0.8:
            terms[(k,)] = c
    return Poly(("x",), terms)


def criterion_5_monodromy() -> CriterionResult:
    fails = []

    model = monodromy.build_model(_p("x^3 - 3*x", ("x",)))
    cvs = sorted(model.critical_values, key=lambda z: z.real)
    for got, want in zip(cvs, (-2.0, 2.0)):
        if abs(got - want) > 1e-10:
            fails.append(f"critical value {got} is not within 1e-10 of {want}")
    ops = monodromy.monodromy_generators(model)
    s = model.lattice.intersection
    for op in ops:
        if any(not isinstance(e, int) for row in op.matrix for e in row):
            fails.append(f"operator at {_f(op.critical_value.real)} is not integer")
        if _det_int(op.matrix) != 1:
            fails.append(f"operator at {_f(op.critical_value.real)} has det != 1")
        if not _preserves(op.matrix, s):
            fails.append(f"operator at {_f(op.critical_value.real)} "
                         "does not preserve the intersection form")
    if monodromy.orbit_span(model, ops, (1, 0)).rank != 2:
        fails.append("cubic orbit rank is not 2")

    rng = random.Random(731001)
    draws = []
    while len(draws) < 20:
        deg = rng.randint(3, 7)
        p = _random_fiber_poly(rng, deg)
        try:
            draws.append((p, monodromy.build_model(p)))
        except InputError:
            continue

    def stress(item):
        p, m = item
        ops = monodromy.monodromy_generators(m)
        n = m.lattice.rank
        sm = m.lattice.intersection
        problems = []
        for op in ops:
            if _det_int(op.matrix) != 1 or not _preserves(op.matrix, sm):
                problems.append(f"{p}: operator violates det/pairing")
        start = (1,) + (0,) * (n - 1)
        rank = monodromy.orbit_span(m, ops, start).rank
        if rank != n:
            problems.append(f"{p}: single-cycle orbit rank {rank}, want {n}")
        v = monodromy.cycle_at_infinity(m)
        if v is not None and any(op(v) != v for op in ops):
            problems.append(f"{p}: cycle at infinity moved")
        return problems

    for problems in parallel_map(stress, draws):
        fails.extend(problems)

    detail = ("cubic model: critical values {-2, 2} to 1e-10, integer "
              "unimodular pairing-preserving operators, orbit rank 2; "
              "20 random fibrations of degree 3..7 all gave single-cycle "
              "orbit rank deg - 1")
    return CriterionResult(5, "Picard-Lefschetz monodromy", not fails,
                           detail, tuple(fails))


# ---------------------------------------------------------------------------
# criterion 6: Gauss-Manin connection, Gelfand-Leray, Brieskorn reduction


def criterion_6_gauss_manin() -> CriterionResult:
    fails = []

    conn = gaussmanin.picard_fuchs(_p("x^3 - 3*x", ("x",)))
    res = gaussmanin.pf_residual(conn, [0.0, 1.0, 3.0j])
    if not res < 1e-5:
        fails.append(f"Picard-Fuchs residual {_f(res)} >= 1e-5 for the cubic")

    gl_cases = [
        ("circle", CIRCLE_F, _form("0", "x"), [0.2, 0.5, 0.9], None),
        ("elliptic", "y^2 - x^3 + 3*x", _form("x*y", "0"),
         [-1.9, -1.5, -1.0], (-1.0, 0.0)),
        ("perturbed well", "1/2*x^2 + 1/2*y^2 - 1/3*x^3",
         _form("-y", "x^2"), [0.02, 0.05, 0.1], None),
    ]
    gl_worst = 0.0

    def gl(case):
        name, f_str, w, levels, center = case
        return name, gaussmanin.gelfand_leray_check(_p(f_str), w, levels,
                                                    center=center)

    for name, err in parallel_map(gl, gl_cases):
        gl_worst = max(gl_worst, err)
        if not err < 1e-5:
            fails.append(f"Gelfand-Leray mismatch {_f(err)} >= 1e-5 on {name}")

    basis = brieskorn.brieskorn_basis(3)
    f = _p("y^2 - x^3")
    rng = random.Random(20260804)
    nonzero = []
    for k in range(50):
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-5, 5))
        g = Poly(XY, terms)
        for label, w in (("dg", forms.d_poly(g)), ("g*df", forms.d_poly(f) * g)):
            vec = brieskorn.brieskorn_reduce(basis, w)
            if any(not q.is_zero for q in vec):
                nonzero.append(f"draw {k}: {label} did not reduce to zero")
    fails.extend(nonzero)

    p = _p("x^3", ("x",))
    t = 1.0
    per = [gaussmanin.period_of_form(p, w, t, pair=0) for w in basis.forms]
    id_worst = 0.0
    for w in [_form("x^3*y", "0"), _form("y^3", "0"), _form("0", "x^2"),
              _form("x*y^3", "-x^2*y")]:
        vec = brieskorn.brieskorn_reduce(basis, w)
        lhs = gaussmanin.period_of_form(p, w, t, pair=0)
        rhs = sum(complex(q.compiled()(t)) * per[a] for a, q in enumerate(vec))
        err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        id_worst = max(id_worst, err)
        if not err <= 1e-6:
            fails.append(f"period identity off by {_f(err)} > 1e-6")

    detail = (f"cubic Picard-Fuchs residual {_f(res)}; worst Gelfand-Leray "
              f"mismatch {_f(gl_worst)}; 50/50 exact and df-multiple forms "
              f"reduced to zero; period identity worst error {_f(id_worst)}")
    return CriterionResult(6, "Gauss-Manin and Brieskorn contracts", not fails,
                           detail, tuple(fails))


# ---------------------------------------------------------------------------
# criterion 7: integrability of pullback logarithmic forms


V3 = ("x", "y", "z")
UV = ("u", "v")


def _random_poly_in(rng, vs, deg, tries) -> Poly:
    terms = {}
    for _ in range(tries):
        e = tuple(rng.randint(0, deg) for _ in vs)
        if sum(e) > deg:
            continue
        terms[e] = Fraction(rng.randint(-3, 3))
    return Poly(vs, terms)


def criterion_7_integrability() -> CriterionResult:
    rng = random.Random(711)
    fails = []
    built = 0
    while built < 10:
        factors = []
        for _ in range(2):
            f = _random_poly_in(rng, UV, 2, 4)
            if f.total_degree() < 1:
                f = f + Poly.variable(UV, "u")
            factors.append(f)
        residues = [rng.randint(1, 5), rng.randint(1, 5)]
        phi = PolyMap(components=(_random_poly_in(rng, V3, 2, 4),
                                  _random_poly_in(rng, V3, 2, 4)))
        w2 = foliation.elementary_log_form(factors, residues)
        w3 = foliation.pullback_form(phi, w2)
        if w3.is_zero:
            continue
        built += 1
        if not foliation.integrability_obstruction(w3).is_zero:
            fails.append(f"pullback form {built} has nonzero obstruction")

    bad = DifferentialForm.one_form([Poly.variable(V3, "y"),
                                     Poly.constant(V3, 1),
                                     Poly.constant(V3, 1)])
    if foliation.integrability_obstruction(bad).is_zero:
        fails.append("the non-integrable control form was accepted")

    detail = ("10/10 pullbacks of plane logarithmic forms satisfied "
              "w ^ dw = 0 exactly; the non-integrable control was rejected")
    return CriterionResult(7, "Frobenius integrability of pullbacks",
                           not fails, detail, tuple(fails))


# ---------------------------------------------------------------------------
# criterion 8: parse/print round trips and output determinism


def criterion_8_determinism() -> CriterionResult:
    rng = random.Random(88)
    names = ("x", "y", "z")
    fails = []
    for k in range(1000):
        nv = rng.randint(1, 3)
        vs = names[:nv]
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 4) for _ in vs)
            terms[e] = Fraction(rng.randint(-99, 99), rng.randint(1, 12))
        p = Poly(vs, terms)
        q = poly.parse_poly(str(p), vs)
        if q != p:
            fails.append(f"case {k}: {p} reparsed as {q}")

    probe = [0.1 * k - 2.5 for k in range(64)]

    def render(t):
        return f"{formats.fmt_float(math.sin(t) * math.exp(t / 8.0)):.12g}"

    if parallel_map(render, probe) != [render(t) for t in probe]:
        fails.append("mapped rendering differed from the plain loop")

    detail = ("1000/1000 polynomials reparsed to themselves exactly; "
              "rendered output is identical across thread counts")
    return CriterionResult(8, "round trips and determinism", not fails,
                           detail, tuple(fails))


# ---------------------------------------------------------------------------
# runner


CRITERIA = (
    criterion_1_census,
    criterion_2_melnikov,
    criterion_3_holonomy_consistency,
    criterion_4_integral_identity,
    criterion_5_monodromy,
    criterion_6_gauss_manin,
    criterion_7_integrability,
    criterion_8_determinism,
)


def run_acceptance(rel_tol: float | None = None,
                   only: tuple[int, ...] | None = None) -> AcceptanceReport:
    """Run the acceptance criteria, optionally with loosened tolerances.

    ``rel_tol`` overrides both the Melnikov quadrature tolerance and the
    holonomy integrator tolerance in criteria 2, 3, and 4.  It exists so
    a deliberately broken tolerance demonstrably breaks the suite; it is
    not a way to make a failing install pass.
    """
    if rel_tol is not None and rel_tol <= 0.0:
        raise InputError("rel_tol must be positive")
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if only is not None and idx not in only:
            continue
        results.append(fn(rel_tol=rel_tol) if idx in (2, 3, 4) else fn())
    return AcceptanceReport(results)


def render_report(report: AcceptanceReport) -> str:
    lines = []
    for r in report.results:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.index} {verdict} {r.name}: {r.detail}")
        for msg in r.failures[:8]:
            lines.append(f"  - {msg}")
        if len(r.failures) > 8:
            lines.append(f"  - ... and {len(r.failures) - 8} more")
    n_pass = sum(1 for r in report.results if r.passed)
    lines.append(f"acceptance: {n_pass}/{len(report.results)} criteria passed")
    return "\n".join(lines) + "\n"
