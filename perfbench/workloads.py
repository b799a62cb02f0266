"""Seeded inputs and fixed job lists for the three workloads.

A job is one folia command: ``{"id", "kind", "argv", "meta"}``.  Paths
inside ``argv`` start with ``@/`` and are resolved against the input
directory at run time, so two preparations with one seed write
byte-identical job lists.  ``meta`` carries what the checker needs to
know about the input (never a copy of an expected program output).

Genericity is decided here with sympy, apart from the program: fiber
polynomials have a squarefree ``p'`` and distinct, separated critical
values.  A draw is redrawn only when it fails one of these tests, never
because the program fails on it.  The census inputs are fixed, not
drawn: on seeded line triples the program's census fails for some draws,
and a job whose failure depends on the seed cannot be kept.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sp

X, Y, Z, U, V, T = sp.symbols("x y z u v t")
XY_GENS = (X, Y)

# Relative separation of critical values below which a fiber draw counts
# as degenerate.  Part of the workload definition: it keeps every draw
# inside the regime the program's accuracy contracts describe.
CV_SEPARATION = 1e-2

PF_DEGREES = (3, 4, 5, 6, 7)
MONODROMY_DEGREES = (3, 4, 5, 6, 7, 8)
MELNIKOV_GRID = ("0.1", "1", "9")       # t0, t1, samples
HOLONOMY_LEVELS = 10

# ROADMAP defect (a): kept as one named job that fails until the census
# is mended.  Its inputs do not depend on the seed.
DEFECT_A = {"kind": "logarithmic", "variables": ["x", "y"],
            "factors": ["x^3 + y^3 - 1", "x^2 - y", "x + y^2 - 5"],
            "residues": [1, 2, 3]}

CONIC_LINE = {"kind": "logarithmic", "variables": ["x", "y"],
              "factors": ["x^2 + y^2 - 1", "x - 3"], "residues": [1, 1]}
CIRCLE = {"kind": "hamiltonian", "variables": ["x", "y"],
          "f": "1/2*x^2 + 1/2*y^2"}
ROT = {"kind": "form", "variables": ["x", "y"], "coefficients": ["-y", "x"]}
TRI = {"kind": "logarithmic", "variables": ["x", "y"],
       "factors": ["x", "y", "1 - x - y"], "residues": ["1", "1", "1"]}


# ---- program syntax ----------------------------------------------------------

def poly_text(expr, gens) -> str:
    """Render a sympy polynomial in folia's input syntax (``3/4*x^2*y``)."""
    p = sp.Poly(sp.expand(expr), *gens, domain="QQ")
    if p.is_zero:
        return "0"
    parts = []
    for monom, c in p.terms():
        c = sp.Rational(c)
        factors = [str(abs(c))] if abs(c) != 1 or not any(monom) else []
        for g, e in zip(gens, monom):
            if e == 1:
                factors.append(str(g))
            elif e > 1:
                factors.append(f"{g}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def parse_text(text: str, gens):
    """Inverse of :func:`poly_text` for program outputs (``^`` powers)."""
    return sp.sympify(text.replace("^", "**"),
                      locals={str(g): g for g in gens})


# ---- draws -------------------------------------------------------------------

def _fiber_coeffs(rng, deg):
    lead = rng.choice([1, 2, 3])
    return [lead] + [rng.randint(-4, 4) for _ in range(deg)]   # descending


def fiber_is_generic(coeffs) -> bool:
    """Squarefree p', distinct critical values, separated by CV_SEPARATION."""
    p = sp.Poly(coeffs, X, domain="QQ")
    dp = p.diff(X)
    if sp.gcd(dp, dp.diff(X)).degree() > 0:
        return False
    r = sp.Poly(sp.resultant(dp.as_expr(), p.as_expr() + T, X), T)
    if sp.gcd(r, r.diff(T)).degree() > 0:
        return False
    cvs = [complex(-p.eval(c)) for c in sp.Poly(dp, X).nroots(n=30)]
    scale = 1.0 + max(abs(c) for c in cvs)
    return all(abs(a - b) >= CV_SEPARATION * scale
               for i, a in enumerate(cvs) for b in cvs[i + 1:])


def draw_fiber(rng, deg) -> str:
    while True:
        coeffs = _fiber_coeffs(rng, deg)
        if fiber_is_generic(coeffs):
            return poly_text(sp.Poly(coeffs, X).as_expr(), (X,))


def fiber_variant(rng, deg) -> str:
    """One of four cost-equivalent forms s * p(r * x), r, s in {1, -1}, of
    a fixed generic fiber of this degree (still generic: the critical
    values are those of p, times s).  Degree-7 Picard-Fuchs time ranged
    from 1.1 to 1.6 s over ten random fibers, which would swamp the spread
    of every metric across seeds; the variants share the coefficient
    heights and so the work."""
    text = draw_fiber(random.Random(f"fiber:{deg}"), deg)
    base = sp.Poly(parse_text(text, (X,)), X)
    r, s = rng.choice((1, -1)), rng.choice((1, -1))
    coeffs = [s * r ** (deg - k) * c for k, c in enumerate(base.all_coeffs())]
    return poly_text(sp.Poly(coeffs, X).as_expr(), (X,))


def _small_poly(rng, gens, deg, terms, lo=-3, hi=3):
    out = 0
    for _ in range(terms):
        e = [rng.randint(0, deg) for _ in gens]
        if sum(e) > deg:
            continue
        out += rng.randint(lo, hi) * sp.prod([g ** k for g, k in zip(gens, e)])
    return sp.expand(out)


def draw_well(rng) -> str:
    """1/2 x^2 + 1/2 y^2 plus a positive quartic: every level is one oval,
    star shaped around the origin."""
    a, b = Fraction(rng.randint(1, 4), 8), Fraction(rng.randint(1, 4), 8)
    c = Fraction(rng.randint(0, 3), 8)
    f = (sp.Rational(1, 2) * (X**2 + Y**2) + sp.Rational(a) * X**4
         + sp.Rational(b) * Y**4 + sp.Rational(c) * X**2 * Y**2)
    return poly_text(f, (X, Y))


def well_variant(rng):
    """A fixed well and perturbation seen through one of the eight
    symmetries (x, y) -> (+-x, +-y), possibly swapped: the integration and
    quadrature work does not depend on which one, so seeds differ in
    inputs and not in cost."""
    f = parse_text(draw_well(random.Random("well")), XY_GENS)
    a, b = (parse_text(c, XY_GENS)
            for c in draw_perturbation(random.Random("well-perturbation")))
    rx, ry = rng.choice((1, -1)), rng.choice((1, -1))
    sub = {X: rx * X, Y: ry * Y}
    f = f.subs(sub, simultaneous=True)
    a, b = rx * a.subs(sub, simultaneous=True), ry * b.subs(sub, simultaneous=True)
    if rng.random() < 0.5:      # the swap x <-> y carries A dx + B dy to B dx + A dy
        swap = {X: Y, Y: X}
        f = f.subs(swap, simultaneous=True)
        a, b = b.subs(swap, simultaneous=True), a.subs(swap, simultaneous=True)
    return poly_text(f, XY_GENS), [poly_text(a, XY_GENS), poly_text(b, XY_GENS)]


def draw_perturbation(rng):
    """A dx + B dy of degree <= 3 whose curl B_x - A_y is nonzero at the
    origin, so M1 vanishes to order exactly 1 at the center level."""
    while True:
        a = _small_poly(rng, (X, Y), 3, 4)
        b = _small_poly(rng, (X, Y), 3, 4)
        curl = sp.expand(sp.diff(b, X) - sp.diff(a, Y))
        if curl.subs({X: 0, Y: 0}) != 0:
            return [poly_text(a, (X, Y)), poly_text(b, (X, Y))]


def _levels(rng, n):
    return [f"{0.1 * k + rng.randint(-30, 30) / 1000:.3f}" for k in range(1, n + 1)]


def log_form(factors, residues, gens):
    """Coefficients of prod(f) * sum lam_i df_i / f_i in the generators."""
    a = b = 0
    for i, (f, lam) in enumerate(zip(factors, residues)):
        rest = sp.prod([g for j, g in enumerate(factors) if j != i])
        a += lam * rest * sp.diff(f, gens[0])
        b += lam * rest * sp.diff(f, gens[1])
    return sp.expand(a), sp.expand(b)


def draw_integrable_form(rng):
    """Pullback of a plane logarithmic form along a map C^3 -> C^2:
    integrable (w ^ dw = 0) by construction."""
    while True:
        factors = [_small_poly(rng, (U, V), 1, 3) + U for _ in range(2)]
        residues = [rng.randint(1, 5), rng.randint(1, 5)]
        phi = [_small_poly(rng, (X, Y, Z), 2, 3) for _ in range(2)]
        a, b = log_form(factors, residues, (U, V))
        sub = {U: phi[0], V: phi[1]}
        a, b = a.subs(sub, simultaneous=True), b.subs(sub, simultaneous=True)
        coeffs = [sp.expand(a * sp.diff(phi[0], g) + b * sp.diff(phi[1], g))
                  for g in (X, Y, Z)]
        if any(c != 0 for c in coeffs):
            return [poly_text(c, (X, Y, Z)) for c in coeffs]


def draw_brieskorn(rng, m):
    """w = sum_a c_a(f) x^a y dx + dG + H df for f = y^2 - x^m.

    Its normal form is (c_0(t), ..., c_{m-2}(t)) by construction: exact
    forms and multiples of df vanish and the reduction is linear."""
    f = Y**2 - X**m
    g = _small_poly(rng, (X, Y), 3, 4)
    h = _small_poly(rng, (X, Y), 2, 3)
    a = sp.diff(g, X) + h * sp.diff(f, X)
    b = sp.diff(g, Y) + h * sp.diff(f, Y)
    expected = []
    for k in range(m - 1):
        c = rng.randint(-3, 3) + rng.randint(-2, 2) * T
        expected.append(poly_text(c, (T,)))
        a += sp.expand(c).subs(T, f) * X**k * Y
    return [poly_text(a, (X, Y)), poly_text(b, (X, Y))], expected


# ---- workloads ---------------------------------------------------------------

def _job(jid, kind, argv, **meta):
    return {"id": jid, "kind": kind, "argv": [kind] + argv, "meta": meta}


def _form_doc(variables, coeffs):
    return {"kind": "form", "variables": variables, "coefficients": coeffs}


def cli_jobs(rng):
    """The small inputs of the CLI tests, one cold command each; the seed
    only permutes the order within a pass."""
    files = {
        "circle.json": CIRCLE,
        "rot.json": ROT,
        "tri.json": TRI,
        "map.json": {"kind": "map", "variables": ["x", "y", "z"],
                     "components": ["x*y - z", "x + y + z"]},
        "uv.json": _form_doc(["u", "v"], ["v", "u"]),
        "w3.json": _form_doc(["x", "y", "z"], ["y", "1", "1"]),
        "w.json": _form_doc(["x", "y"], ["x^3*y", "0"]),
    }
    jobs = [
        _job("cli-sing", "sing", ["--form", "@/circle.json"], record=CIRCLE),
        _job("cli-classify", "classify", ["--form", "@/tri.json", "--x", "1/3",
                                          "--y", "1/3"], record=TRI),
        _job("cli-log", "log", ["--factor", "x", "--factor", "y", "--factor",
                                "1 - x - y", "--residue", "1", "--residue", "1",
                                "--residue", "1"],
             factors=TRI["factors"], residues=[1, 1, 1]),
        _job("cli-dulac", "dulac", ["--family", "A", "--index", "1",
                                    "--variables", "p,q"],
             family="A", index=1, variables=["p", "q"]),
        _job("cli-pullback", "pullback", ["--map", "@/map.json", "--form",
                                          "@/uv.json"],
             map=files["map.json"], form=files["uv.json"]),
        _job("cli-integrability", "integrability", ["--form", "@/w3.json"],
             form=files["w3.json"]),
        _job("cli-holonomy", "holonomy", ["--form", "@/circle.json", "--t",
                                          "0.25", "--t", "0.5"],
             record=CIRCLE, levels=["0.25", "0.5"]),
        _job("cli-melnikov", "melnikov", ["--base", "@/circle.json", "--pert",
                                          "@/rot.json", "--t0", "0.1", "--t1",
                                          "1", "--samples", "9"],
             record=CIRCLE, pert=ROT["coefficients"], grid=["0.1", "1", "9"]),
        _job("cli-monodromy", "monodromy", ["--p", "x^3 - 3*x"], p="x^3 - 3*x"),
        _job("cli-picard-fuchs", "picard-fuchs", ["--p", "x^3 - 3*x"],
             p="x^3 - 3*x"),
        _job("cli-brieskorn", "brieskorn", ["--m", "3", "--omega", "@/w.json"],
             m=3, form=files["w.json"]),
    ]
    rng.shuffle(jobs)
    return files, jobs, list(jobs)


def exact_jobs(rng):
    files, jobs = {}, []
    for deg in PF_DEGREES:
        p = fiber_variant(rng, deg)
        jobs.append(_job(f"pf-deg{deg}", "picard-fuchs", ["--p", p], p=p))
    # the other jobs stay well below the degree-3 Picard-Fuchs job, so that
    # job_s.p50 is that job's time on every seed
    files["map.json"] = {"kind": "map", "variables": ["x", "y", "z"],
                         "components": [poly_text(_small_poly(rng, (X, Y, Z), 2, 3)
                                                  + X * Y + Z, (X, Y, Z))
                                        for _ in range(2)]}
    files["uv.json"] = _form_doc(["u", "v"], [
        poly_text(_small_poly(rng, (U, V), 1, 3) + U + V, (U, V)) for _ in range(2)])
    jobs.append(_job("pullback", "pullback",
                     ["--map", "@/map.json", "--form", "@/uv.json"],
                     map=files["map.json"], form=files["uv.json"]))
    files["int0.json"] = _form_doc(["x", "y", "z"], draw_integrable_form(rng))
    files["int1.json"] = _form_doc(
        ["x", "y", "z"],
        [poly_text(_small_poly(rng, (X, Y, Z), 2, 4) + X, (X, Y, Z))
         for _ in range(3)])
    for k in range(2):
        jobs.append(_job(f"integrability{k}", "integrability",
                         ["--form", f"@/int{k}.json"],
                         form=files[f"int{k}.json"]))
    m = rng.choice([3, 4, 5])
    coeffs, expected = draw_brieskorn(rng, m)
    files["bk.json"] = _form_doc(["x", "y"], coeffs)
    jobs.append(_job("brieskorn", "brieskorn", ["--m", str(m), "--omega", "@/bk.json"],
                     m=m, form=files["bk.json"], expected=expected))
    warm = [_job("warm-pf", "picard-fuchs", ["--p", "x^3 - 3*x"])]
    warm += [j for j in jobs if j["kind"] != "picard-fuchs"]
    # The degree-3 job, the middle of the list's cost order, runs after
    # each other job, so that job_s.p50 averages eight of its calls a pass,
    # spread over the pass, not one: the host's speed swings by half for a
    # second at a time, which six or seven calls cannot ride out.
    pf3, big, small = jobs[0], jobs[1:len(PF_DEGREES)], jobs[len(PF_DEGREES):]
    order = [j for pair in zip(big, small) for j in pair]
    jobs = [j for other in order for j in (other, pf3)]
    return files, jobs, warm


def numeric_jobs(rng):
    files = {"circle.json": CIRCLE, "defect_a.json": DEFECT_A}
    jobs = []
    for deg in MONODROMY_DEGREES:
        p = fiber_variant(rng, deg)
        jobs.append(_job(f"monodromy-deg{deg}", "monodromy", ["--p", p], p=p))
    well, well_pert = well_variant(rng)
    files["well.json"] = {"kind": "hamiltonian", "variables": ["x", "y"],
                          "f": well}
    # the center is passed, as a user who knows it would: the default
    # center comes from the census, which fails on some wells (CHANGES.md)
    for name in ("circle", "well"):
        pert = draw_perturbation(rng) if name == "circle" else well_pert
        files[f"pert_{name}.json"] = _form_doc(["x", "y"], pert)
        jobs.append(_job(f"melnikov-{name}", "melnikov",
                         ["--base", f"@/{name}.json", "--pert",
                          f"@/pert_{name}.json", "--t0", MELNIKOV_GRID[0],
                          "--t1", MELNIKOV_GRID[1], "--samples",
                          MELNIKOV_GRID[2], "--center", "0,0"],
                         record=files[f"{name}.json"], pert=pert,
                         grid=list(MELNIKOV_GRID)))
    for name in ("circle", "well"):
        levels = _levels(rng, HOLONOMY_LEVELS)
        argv = ["--form", f"@/{name}.json", "--center", "0,0"]
        for t in levels:
            argv += ["--t", t]
        jobs.append(_job(f"holonomy-{name}", "holonomy", argv,
                         record=files[f"{name}.json"], levels=levels))
    # The census inputs are fixed: on seeded line triples the census fails
    # for some draws (CHANGES.md), which a seeded job cannot carry.
    jobs.append(_job("log-triangle", "log",
                     ["--factor", "x", "--factor", "y", "--factor", "1 - x - y",
                      "--residue", "1", "--residue", "2", "--residue", "3"],
                     factors=["x", "y", "1 - x - y"], residues=[1, 2, 3]))
    files["conic_line.json"] = CONIC_LINE
    jobs.append(_job("log-conic-line", "log",
                     ["--factor", CONIC_LINE["factors"][0], "--factor",
                      CONIC_LINE["factors"][1]],
                     factors=CONIC_LINE["factors"], residues=[1, 1]))
    jobs.append(_job("sing-conic-line", "sing", ["--form", "@/conic_line.json"],
                     record=CONIC_LINE))
    jobs.append(_job("sing-defect-a", "sing", ["--form", "@/defect_a.json"],
                     record=DEFECT_A,
                     known_defect={"name": "ROADMAP defect (a)", "code": 3,
                                   "message": "above the Bezout bound 36"}))
    warm = [
        _job("warm-monodromy", "monodromy", ["--p", "x^3 - 3*x"]),
        _job("warm-melnikov", "melnikov", ["--base", "@/circle.json", "--pert",
                                           "@/pert_circle.json", "--t0", "0.2",
                                           "--t1", "0.5", "--samples", "4"]),
        _job("warm-holonomy", "holonomy", ["--form", "@/circle.json", "--t",
                                           "0.25", "--t", "0.5"]),
        _job("warm-sing", "sing", ["--form", "@/conic_line.json"]),
        _job("warm-log", "log", ["--factor", "x", "--factor", "y",
                                 "--factor", "1 - x - y"]),
    ]
    return files, jobs, warm


WORKLOADS = {"cli": cli_jobs, "exact": exact_jobs, "numeric": numeric_jobs}


def draw(workload: str, seed: int) -> dict:
    """The job document of one workload: input files, jobs and warm-ups."""
    rng = random.Random(f"{workload}:{seed}")
    files, jobs, warm = WORKLOADS[workload](rng)
    return {"workload": workload, "seed": seed, "files": files, "jobs": jobs,
            "warmup": warm}
