"""Output checks, one per job kind, computed apart from the program.

Each check takes the job (its kind, argv and input ``meta``) and the
program's stdout document, and returns ``None`` when the output holds or
a one-line reason when it does not.  The checks recompute what they can
with sympy and mpmath (exact pullbacks and ``w ^ dw``, discriminants,
critical values, periods, Green's-theorem integrals, Brieskorn
certificates) or test a property the method must have (integer,
unimodular, form-preserving transvections; identity holonomy on
integrable systems).  None of them compares against a stored copy of an
earlier program output.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np
import sympy as sp

from workloads import T, X, XY_GENS as XY, Y, Z, U, V, log_form, parse_text

GENS = {"x": X, "y": Y, "z": Z, "u": U, "v": V, "t": T}


class Reject(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise Reject(msg)


def _gens(names):
    return tuple(GENS.get(n) or sp.Symbol(n) for n in names)


def _expr(text, gens):
    return sp.expand(parse_text(text, gens))


def _same_poly(a, b):
    return sp.expand(a - b) == 0


def _complex(pair):
    return complex(pair[0], pair[1])


def _rational(r):
    return sp.Rational(str(r))


def _match_sets(got, want, tol, what):
    """Greedy nearest matching of two lists of complex numbers."""
    need(len(got) == len(want), f"{what}: {len(got)} values, want {len(want)}")
    scale = 1.0 + max((abs(w) for w in want), default=0.0)
    left = list(want)
    for g in got:
        k = min(range(len(left)), key=lambda i: abs(left[i] - g))
        need(abs(left[k] - g) <= tol * scale,
             f"{what}: {g} is {abs(left[k] - g):.2e} from the nearest of {want}")
        left.pop(k)


# ---- records and their fields --------------------------------------------------

def record_form(record):
    """(A, B) with omega = A dx + B dy, from the record's definition."""
    gens = _gens(record["variables"])
    if record["kind"] == "hamiltonian":
        f = _expr(record["f"], gens)
        return sp.diff(f, gens[0]), sp.diff(f, gens[1])
    if record["kind"] == "logarithmic":
        factors = [_expr(f, gens) for f in record["factors"]]
        residues = [_rational(r) for r in record["residues"]]
        return log_form(factors, residues, gens)
    raise Reject(f"no independent field for record kind {record['kind']!r}")


class Field:
    """The dual field (P, Q) = (B, -A) of omega = A dx + B dy, numerically."""

    def __init__(self, a, b, gens=XY):
        self.p, self.q = b, -a
        self.deg = max(sp.Poly(e, *gens).total_degree() for e in (a, b))
        coeffs = sp.Poly(a, *gens).coeffs() + sp.Poly(b, *gens).coeffs()
        self.coef = 1.0 + max(abs(complex(c)) for c in coeffs)
        self.fn = sp.lambdify(gens, [self.p, self.q], "numpy")
        jac = [[sp.diff(e, g) for g in gens] for e in (self.p, self.q)]
        self.jac = sp.lambdify(gens, jac, "numpy")

    def scale(self, x, y):
        return self.coef * (1.0 + max(abs(x), abs(y))) ** self.deg

    def residual(self, x, y):
        p, q = self.fn(x, y)
        return (abs(complex(p)) + abs(complex(q))) / self.scale(x, y)

    def ratio(self, x, y):
        lam = sorted(np.linalg.eigvals(np.array(self.jac(x, y), dtype=complex)),
                     key=abs)
        return complex(lam[0] / lam[1])


def factor_tests(factors, gens):
    """Callables telling whether a point lies on each factor curve."""
    tests = []
    for text in factors:
        f = _expr(text, gens)
        poly = sp.Poly(f, *gens)
        coef = 1.0 + max(abs(complex(c)) for c in poly.coeffs())
        fn = sp.lambdify(gens, f, "numpy")
        tests.append(lambda x, y, fn=fn, coef=coef, d=poly.total_degree():
                     abs(complex(fn(x, y)))
                     <= 1e-7 * coef * (1.0 + max(abs(x), abs(y))) ** d)
    return tests


def _distinct(points, what):
    for i, (x1, y1) in enumerate(points):
        for x2, y2 in points[i + 1:]:
            need(max(abs(x1 - x2), abs(y1 - y2)) > 1e-6 * (1 + abs(x1) + abs(y1)),
                 f"{what}: ({x1}, {y1}) is reported twice")


# ---- census ---------------------------------------------------------------------

def _log_census(record, centers, intersections, other):
    """Counts against d^2 - sum d_i d_j, locations against exact vertices."""
    gens = _gens(record["variables"])
    factors = [_expr(f, gens) for f in record["factors"]]
    degs = [sp.Poly(f, *gens).total_degree() for f in factors]
    d = sum(degs) - 1
    cross = sum(degs[i] * degs[j] for i in range(len(degs))
                for j in range(i + 1, len(degs)))
    field = Field(*record_form(record), gens)
    on_tests = factor_tests(record["factors"], gens)
    need(len(other) == 0, f"{len(other)} points outside the census bins")
    need(len(centers) == d * d - cross,
         f"{len(centers)} centers, want d^2 - sum d_i d_j = {d * d - cross}")
    need(len(intersections) == cross,
         f"{len(intersections)} polar intersections, want {cross}")
    vertices = []
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            for sol in sp.solve([factors[i], factors[j]], gens, dict=True):
                vertices.append((complex(sol[gens[0]]), complex(sol[gens[1]])))
    pts = []
    for kind, group in (("center", centers), ("intersection", intersections)):
        for x, y in group:
            need(field.residual(x, y) <= 1e-7,
                 f"{kind} ({x}, {y}) is not a zero of the form")
            on = [k for k, on_f in enumerate(on_tests) if on_f(x, y)]
            if kind == "center":
                need(not on, f"center ({x}, {y}) lies on factor {on}")
                need(abs(field.ratio(x, y) + 1) <= 1e-6,
                     f"center ({x}, {y}) has eigenvalue ratio {field.ratio(x, y)}")
            else:
                need(len(on) >= 2, f"intersection ({x}, {y}) is on factors {on}")
                # which vertex: the residual test above holds the accuracy
                need(min(max(abs(x - vx), abs(y - vy)) for vx, vy in vertices)
                     <= 1e-6 * (1 + abs(x) + abs(y)),
                     f"intersection ({x}, {y}) is no vertex of the arrangement")
            pts.append((x, y))
    _distinct(pts, "census")


def _hamiltonian_points(record, points):
    gens = _gens(record["variables"])
    f = _expr(record["f"], gens)
    sols = sp.solve([sp.diff(f, g) for g in gens], gens, dict=True)
    want = [(complex(s[gens[0]]), complex(s[gens[1]])) for s in sols]
    need(len(points) == len(want),
         f"{len(points)} singular points, want the {len(want)} critical points")
    hess = sp.hessian(f, gens)
    for x, y, cls in points:
        need(min(max(abs(x - a), abs(y - b)) for a, b in want) <= 1e-9,
             f"({x}, {y}) is not a critical point of f")
        nondeg = complex(hess.det().subs({gens[0]: x, gens[1]: y})) != 0
        need(cls == ("center_candidate" if nondeg else "non_reduced"),
             f"({x}, {y}) classified {cls}")


def _point_list(doc):
    return [(_complex(p["x"]), _complex(p["y"])) for p in doc]


def check_sing(job, doc):
    record = job["meta"]["record"]
    need(isinstance(doc, list), "sing prints a list of points")
    if job["meta"].get("known_defect"):
        return check_defect_points(record, _point_list(doc))
    if record["kind"] == "hamiltonian":
        return _hamiltonian_points(
            record, [(*pt, p["class"]) for pt, p in zip(_point_list(doc), doc)])
    on_tests = factor_tests(record["factors"], _gens(record["variables"]))
    centers, inters = [], []
    for p in doc:
        x, y = _complex(p["x"]), _complex(p["y"])
        if sum(on_f(x, y) for on_f in on_tests) >= 2:
            inters.append((x, y))
        else:
            need(p["class"] == "center_candidate",
                 f"off-divisor point ({x}, {y}) classified {p['class']}")
            centers.append((x, y))
    _log_census(record, centers, inters, [])


def check_log(job, doc):
    meta = job["meta"]
    gens = XY
    record = {"kind": "logarithmic", "variables": ["x", "y"],
              "factors": meta["factors"], "residues": meta["residues"]}
    factors = [_expr(f, gens) for f in meta["factors"]]
    degs = [sp.Poly(f, *gens).total_degree() for f in factors]
    d = sum(degs) - 1
    cross = sum(degs[i] * degs[j] for i in range(len(degs))
                for j in range(i + 1, len(degs)))
    need([_expr(f, gens) for f in doc["factors"]] == factors, "factors differ")
    need([_rational(r) for r in doc["residues"]]
         == [_rational(r) for r in meta["residues"]], "residues differ")
    need(doc["degrees"] == degs, f"degrees {doc['degrees']}, want {degs}")
    need(doc["expected_centers"] == d * d - cross,
         f"expected_centers {doc['expected_centers']}, want {d * d - cross}")
    need(doc["total"] == d * d, f"total {doc['total']}, want d^2 = {d * d}")
    _log_census(record, _point_list(doc["centers"]),
                _point_list(doc["intersections"]), _point_list(doc["other"]))


def check_defect_points(record, points):
    """ROADMAP defect (a), once the census passes: at most 36 distinct
    points, each confirmed as a zero of the form by mpmath's Newton
    iteration started from the reported point."""
    need(len(points) <= 36, f"{len(points)} points, above the Bezout bound 36")
    _distinct(points, "defect (a) census")
    gens = _gens(record["variables"])
    a, b = record_form(record)
    fa = sp.lambdify(gens, a, "mpmath")
    fb = sp.lambdify(gens, b, "mpmath")
    with mpmath.workdps(40):
        for x, y in points:
            try:
                root = mpmath.findroot([fa, fb], (mpmath.mpc(x), mpmath.mpc(y)),
                                       tol=1e-30, maxsteps=50)
            except (ValueError, ZeroDivisionError) as e:
                raise Reject(f"({x}, {y}): Newton from here does not converge: {e}")
            move = max(abs(complex(root[0]) - x), abs(complex(root[1]) - y))
            need(move <= 1e-8 * (1 + abs(x) + abs(y)),
                 f"({x}, {y}) is {move:.2e} from the zero Newton converges to")


def check_classify(job, doc):
    record = job["meta"]["record"]
    argv = job["argv"]
    x = float(sp.Rational(argv[argv.index("--x") + 1]))
    y = float(sp.Rational(argv[argv.index("--y") + 1]))
    gens = _gens(record["variables"])
    field = Field(*record_form(record), gens)
    need(field.residual(x, y) <= 1e-9, "the point is not singular")
    on = [on_f for on_f in factor_tests(record.get("factors", []), gens)
          if on_f(x, y)]
    need(not on, "the point lies on the polar divisor")
    need(abs(field.ratio(x, y) + 1) <= 1e-6, "eigenvalue ratio is not -1")
    need(doc["class"] == "center_candidate", f"classified {doc['class']}")
    need(abs(_complex(doc["eigenvalue_ratio"]) - field.ratio(x, y)) <= 1e-9,
         "reported eigenvalue ratio differs from the linear part's")


# ---- exact algebra ------------------------------------------------------------

def check_dulac(job, doc):
    meta = job["meta"]
    i = meta["index"]
    p, q = _gens(meta["variables"])
    a, b = p**i - i * q, p                      # omega = a dp + b dq
    need(doc["family"] == meta["family"] and doc["index"] == i, "wrong family")
    need(_same_poly(_expr(doc["P"], (p, q)), b), f"P = {doc['P']}")
    need(_same_poly(_expr(doc["Q"], (p, q)), -a), f"Q = {doc['Q']}")
    dp_, dq_ = sp.symbols("dp dq")
    form = sp.expand(parse_text(doc["form"], (p, q, dp_, dq_)))
    need(_same_poly(form, a * dp_ + b * dq_), f"form = {doc['form']}")
    integral = parse_text(doc["integral"], (p, q))
    need(sp.simplify(integral - p * sp.exp(q / p**i)) == 0,
         f"integral = {doc['integral']}")
    s = _expr(doc["clearing_factor"], (p, q))
    logd = [sp.diff(sp.log(p) + q / p**i, g) for g in (p, q)]
    need(all(sp.simplify(s * w - c) == 0 for w, c in zip(logd, (a, b))),
         "clearing factor times dF/F is not the form")


def check_pullback(job, doc):
    phi, form = job["meta"]["map"], job["meta"]["form"]
    src = _gens(phi["variables"])
    tgt = _gens(form["variables"])
    comps = [_expr(c, src) for c in phi["components"]]
    coeffs = [_expr(c, tgt) for c in form["coefficients"]]
    sub = dict(zip(tgt, comps))
    pulled = [sp.expand(sum(c.subs(sub, simultaneous=True) * sp.diff(f, g)
                            for c, f in zip(coeffs, comps))) for g in src]
    need(doc["variables"] == phi["variables"], "wrong variables")
    got = [_expr(c, src) for c in doc["coefficients"]]
    need(len(got) == len(pulled), "wrong number of coefficients")
    for g, w, name in zip(got, pulled, phi["variables"]):
        need(_same_poly(g, w), f"d{name} coefficient differs from sympy's pullback")


def wedge_dw(coeffs, gens):
    """Components (i<j<k) of w ^ dw for w = sum a_i dx_i."""
    n = len(gens)
    dw = {(j, k): sp.diff(coeffs[k], gens[j]) - sp.diff(coeffs[j], gens[k])
          for j in range(n) for k in range(j + 1, n)}
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                c = sp.expand(coeffs[i] * dw[(j, k)] - coeffs[j] * dw[(i, k)]
                              + coeffs[k] * dw[(i, j)])
                if c != 0:
                    out[(i, j, k)] = c
    return out


def check_integrability(job, doc):
    form = job["meta"]["form"]
    gens = _gens(form["variables"])
    want = wedge_dw([_expr(c, gens) for c in form["coefficients"]], gens)
    need(doc["integrable"] is (not want), f"integrable = {doc['integrable']}")
    got = {tuple(o["indices"]): _expr(o["coefficient"], gens)
           for o in doc["obstruction"]}
    need(set(got) == set(want), f"obstruction components {sorted(got)}, "
                                f"want {sorted(want)}")
    for key, c in want.items():
        need(_same_poly(got[key], c), f"w ^ dw component {key} differs")


def check_brieskorn(job, doc):
    """Certificate: w - sum c_a(f) x^a y dx = dG + H df for polynomials
    G, H found by exact linear algebra; plus the construction's answer."""
    meta = job["meta"]
    m = meta["m"]
    need(doc["m"] == m and len(doc["basis"]) == m - 1, "wrong basis size")
    cs = [_expr(c, (T,)) for c in doc["coefficients"]]
    need(len(cs) == m - 1, "wrong number of coefficients")
    if meta.get("expected"):
        for k, (c, e) in enumerate(zip(cs, meta["expected"])):
            need(_same_poly(c, _expr(e, (T,))),
                 f"class {k}: {c}, but the form was built with {e}")
    f = Y**2 - X**m
    a, b = (_expr(c, XY) for c in meta["form"]["coefficients"])
    a = sp.expand(a - sum(c.subs(T, f) * X**k * Y for k, c in enumerate(cs)))
    deg = max(sp.Poly(e, *XY).total_degree() for e in (a, b, X))   # X: at least 1

    def monomials(n):
        return [X**i * Y**j for i in range(n + 1) for j in range(n + 1 - i)]

    g_mons, h_mons = monomials(deg + 1), monomials(deg)
    gs = sp.symbols(f"g0:{len(g_mons)}")
    hs = sp.symbols(f"h0:{len(h_mons)}")
    G = sum(c * mm for c, mm in zip(gs, g_mons))
    H = sum(c * mm for c, mm in zip(hs, h_mons))
    eqs = []
    for lhs, rhs in ((sp.diff(G, X) + H * sp.diff(f, X), a),
                     (sp.diff(G, Y) + H * sp.diff(f, Y), b)):
        eqs += sp.Poly(sp.expand(lhs - rhs), *XY).coeffs()
    sol = sp.linsolve(eqs, list(gs) + list(hs))
    need(sol != sp.S.EmptySet,
         "no G, H with w - sum c_a(f) x^a y dx = dG + H df")


# ---- numeric dynamics ----------------------------------------------------------

def _linspace(t0, t1, n):
    return [t0 + k * (t1 - t0) / (n - 1) for k in range(n)]


def green_m1(f, a, b, levels):
    """-(area integral of B_x - A_y) over {f <= t}, for f with a minimum 0
    at the origin and star-shaped sublevel sets.  On f = (x^2 + y^2)/2 the
    integral is taken in closed form, elsewhere by radial root finding and
    a periodic trapezoid rule in the angle."""
    r, th = sp.symbols("r theta", positive=True)
    curl = sp.expand(sp.diff(b, X) - sp.diff(a, Y))
    polar = {X: r * sp.cos(th), Y: r * sp.sin(th)}
    if _same_poly(f, (X**2 + Y**2) / 2):
        rr = sp.Symbol("R", positive=True)
        inner = sp.integrate(sp.expand(curl.subs(polar, simultaneous=True) * r),
                             (r, 0, rr))
        total = sp.integrate(sp.expand_trig(inner), (th, 0, 2 * sp.pi))
        return [float(-total.subs(rr, sp.sqrt(2 * sp.Rational(str(t)))))
                for t in levels]
    fr = sp.Poly(sp.expand(f.subs(polar, simultaneous=True)), r)
    gr = sp.Poly(sp.expand(curl.subs(polar, simultaneous=True) * r), r)
    f_coeffs = [sp.lambdify(th, c, "numpy") for c in fr.all_coeffs()]
    g_int = sp.lambdify((th, r), gr.integrate().as_expr(), "numpy")
    out = []
    for t in levels:
        vals = {}
        for n in (256, 512):
            thetas = 2 * np.pi * np.arange(n) / n
            total = 0.0
            for theta in thetas:
                cs = [complex(fc(theta)) for fc in f_coeffs]
                cs[-1] -= t
                roots = np.roots(np.array(cs))
                real = [z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 0]
                rad = min(real)
                total += float(g_int(theta, rad))
            vals[n] = -total * 2 * np.pi / n
        need(abs(vals[256] - vals[512]) <= 1e-11 * max(1.0, abs(vals[512])),
             "Green's-theorem quadrature did not converge")
        out.append(vals[512])
    return out


def check_melnikov(job, doc):
    meta = job["meta"]
    f = _expr(meta["record"]["f"], XY)
    a, b = (_expr(c, XY) for c in meta["pert"])
    t0, t1, n = float(meta["grid"][0]), float(meta["grid"][1]), int(meta["grid"][2])
    grid = _linspace(t0, t1, n)
    need(len(doc["grid"]) == n and all(abs(g - w) <= 1e-11 * abs(w)
                                       for g, w in zip(doc["grid"], grid)),
         "grid is not the requested linspace")
    need(abs(doc["center_level"]) <= 1e-12, "center level is not f(0, 0) = 0")
    want = green_m1(f, a, b, grid)
    for t, g, w in zip(grid, doc["m1"], want):
        need(abs(g - w) <= 1e-7 * max(abs(w), 1e-5),
             f"M1({t:.3g}) = {g}, Green's theorem gives {w}")
    need(doc["identically_zero"] is all(abs(w) < 1e-9 for w in want),
         "identically_zero flag disagrees with the integrals")
    # multiplicity: the documented log-log slope over the smallest decade
    pairs = sorted((t, abs(w)) for t, w in zip(grid, want) if abs(w) >= 1e-9)
    decade = [p for p in pairs if p[0] <= 10 * pairs[0][0]] or pairs[:4]
    slope = float(np.polyfit(np.log([p[0] for p in decade]),
                             np.log([p[1] for p in decade]), 1)[0])
    if abs(slope - round(slope)) < 0.3:
        need(doc["multiplicity"] == round(slope),
             f"multiplicity {doc['multiplicity']}, the slope is {slope:.3f}")


def check_holonomy(job, doc):
    meta = job["meta"]
    f = _expr(meta["record"]["f"], XY)
    levels = sorted(float(t) for t in meta["levels"])
    cx, cy = doc["center"]
    grad = [complex(sp.diff(f, g).subs({X: cx, Y: cy})) for g in XY]
    need(max(abs(v) for v in grad) <= 1e-9, "center is not a critical point of f")
    rows = doc["samples"]
    need(len(rows) == len(levels)
         and all(abs(r["t"] - t) <= 1e-11 * t for r, t in zip(rows, levels)),
         "levels differ from the requested ones")
    for r in rows:
        need(abs(r["h"] - r["t"]) <= 1e-8,
             f"h({r['t']}) - t = {r['h'] - r['t']:.2e}: not the identity")
        need(abs(r["defect"]) <= 1e-8, f"defect {r['defect']:.2e} above 1e-8")


# ---- monodromy ---------------------------------------------------------------------

def chain_form(n):
    s = sp.zeros(n, n)
    for i in range(n - 1):
        s[i, i + 1], s[i + 1, i] = 1, -1
    return s


def critical_values(p_text):
    p = sp.Poly(_expr(p_text, (X,)), X)
    return [complex(-p.eval(c)) for c in p.diff(X).nroots(n=30)]


def check_monodromy(job, doc):
    p_text = job["meta"]["p"]
    p = sp.Poly(_expr(p_text, (X,)), X)
    deg, n = p.degree(), p.degree() - 1
    need(_same_poly(_expr(doc["p"], (X,)), p.as_expr()), "p differs")
    need(doc["degree"] == deg, f"degree {doc['degree']}, want {deg}")
    cvs = critical_values(p_text)
    _match_sets([_complex(c) for c in doc["critical_values"]], cvs, 1e-9,
                "critical values")
    ops = doc["operators"]
    need(len(ops) == n, f"{len(ops)} operators, want one per critical value")
    s = chain_form(n)
    eye = sp.eye(n)
    mats, signs = [], set()
    for op in ops:
        rows = op["matrix"]
        need(len(rows) == n and all(len(r) == n and all(isinstance(e, int)
                                                       for e in r) for r in rows),
             f"operator {op['index']} is not an integer {n}x{n} matrix")
        mm = sp.Matrix(rows)
        need(mm.det() == 1, f"operator {op['index']} has det {mm.det()}")
        need(mm.T * s * mm == s,
             f"operator {op['index']} does not preserve the intersection form")
        delta = sp.Matrix(op["delta"])
        need(math.gcd(*op["delta"]) == 1, f"delta {op['delta']} is not primitive")
        twist = delta * (s * delta).T
        if mm - eye == twist:
            signs.add(1)
        elif mm - eye == -twist:
            signs.add(-1)
        else:
            raise Reject(f"operator {op['index']} is not the transvection "
                         f"by its delta {op['delta']}")
        mats.append(mm)
        _match_sets([_complex(op["critical_value"])],
                    [min(cvs, key=lambda c: abs(c - _complex(op["critical_value"])))],
                    1e-9, f"operator {op['index']} critical value")
    need(len(signs) == 1, "operators twist with opposite signs")
    # orbit of the first chain cycle under all operators and inverses
    gens = mats + [mm.inv() for mm in mats]
    basis, queue = [], [sp.Matrix([1] + [0] * (n - 1))]
    while queue:
        v = queue.pop()
        if sp.Matrix.hstack(*basis, v).rank() > len(basis):
            basis.append(v)
            queue.extend(g * v for g in gens)
    need(len(basis) == n, f"orbit of the first cycle spans rank {len(basis)}, "
                          f"want deg - 1 = {n}")
    need(doc["orbit_rank"] == len(basis),
         f"orbit_rank {doc['orbit_rank']}, recomputed {len(basis)}")
    vinf = doc["cycle_at_infinity"]
    if deg % 2:
        need(vinf is None, "odd degree has no cycle at infinity")
    else:
        v = sp.Matrix(vinf)
        need(any(vinf) and all(mm * v == v for mm in mats),
             "cycle at infinity is not fixed by every operator")


# ---- Picard-Fuchs -----------------------------------------------------------------

def _pair_periods(coeffs, roots, pair, n_nodes):
    """Periods of x^i dx / y, i < deg - 1, over the cycle around the
    branch points ``pair``: x = c + r cos(phi) on the segment between
    them turns dx / y into -dphi / w(x), w a continuous square root of
    -lc * prod(x - other roots), so the trapezoid rule in phi converges
    geometrically."""
    a, b = pair
    others = [z for z in roots if z is not a and z is not b]
    c, r = (a + b) / 2, (b - a) / 2
    lc = coeffs[0]
    phis = [2 * mpmath.pi * k / n_nodes for k in range(n_nodes)]
    xs = [c + r * mpmath.cos(ph) for ph in phis]
    # continuous branch of w along the segment, from the a end to the b end
    order = sorted(range(n_nodes), key=lambda k: -mpmath.re(mpmath.cos(phis[k])))
    w = {}
    prev = None
    for k in reversed(order):
        g = -lc * mpmath.fprod(xs[k] - z for z in others)
        s = mpmath.sqrt(g)
        if prev is not None and abs(s - prev) > abs(s + prev):
            s = -s
        w[k] = prev = s
    m = len(coeffs) - 1
    return [-sum(xs[k] ** i / w[k] for k in range(n_nodes)) * 2 * mpmath.pi / n_nodes
            for i in range(m - 1)], w[order[-1]]


def periods_at(coeffs, t, ref_pair, ref_w, n_nodes):
    poly = list(coeffs)
    poly[-1] += t
    roots = mpmath.polyroots(poly, maxsteps=200, extraprec=60)
    a = min(roots, key=lambda z: abs(z - ref_pair[0]))
    b = min(roots, key=lambda z: abs(z - ref_pair[1]))
    per, w_a = _pair_periods(poly, roots, (a, b), n_nodes)
    if ref_w is not None and abs(w_a - ref_w) > abs(w_a + ref_w):
        per = [-v for v in per]
    return per, (a, b), w_a


def check_picard_fuchs(job, doc):
    p_text = job["meta"]["p"]
    p = sp.Poly(_expr(p_text, (X,)), X)
    m = p.degree()
    need(_same_poly(_expr(doc["p"], (X,)), p.as_expr()), "p differs")
    labels = ["dx/y", "x*dx/y"] + [f"x^{i}*dx/y" for i in range(2, m - 1)]
    need(doc["basis"] == labels[:m - 1], f"basis {doc['basis']}")
    disc = sp.Poly(sp.discriminant(p.as_expr() + T, X), T)
    cvs = [complex(z) for z in disc.nroots(n=30)]
    _match_sets([_complex(c) for c in doc["critical_values"]], cvs, 1e-9,
                "critical values")
    mat = [[parse_text(e, (T,)) for e in row] for row in doc["matrix"]]
    need(len(mat) == m - 1 and all(len(r) == m - 1 for r in mat),
         "matrix is not (deg - 1) x (deg - 1)")
    fns = [[sp.lambdify(T, e, "mpmath") for e in row] for row in mat]
    # a sample level far from every critical value
    spread = 1.0 + max(abs(a - b) for a in cvs for b in cvs)
    centre = sum(cvs) / len(cvs)
    cands = [centre + spread * (0.35 + 0.3 * j) * complex(math.cos(k + 0.2 * j),
                                                          math.sin(k + 0.2 * j))
             for k in range(8) for j in range(3)]
    t0 = max(cands, key=lambda z: min(abs(z - c) for c in cvs))
    with mpmath.workdps(30):
        coeffs = [mpmath.mpf(sp.Rational(c).p) / sp.Rational(c).q
                  for c in p.all_coeffs()]
        tm = mpmath.mpc(t0.real, t0.imag)
        roots = mpmath.polyroots([*coeffs[:-1], coeffs[-1] + tm],
                                 maxsteps=200, extraprec=60)
        pair = min(((a, b) for i, a in enumerate(roots) for b in roots[i + 1:]),
                   key=lambda ab: abs(ab[0] - ab[1])
                   / min([mpmath.mpf(1)] + [min(abs(z - ab[0]), abs(z - ab[1]))
                                            for z in roots
                                            if z is not ab[0] and z is not ab[1]]))
        n_nodes = 96
        base, pair0, w0 = periods_at(coeffs, tm, pair, None, n_nodes)
        while True:
            fine, _, _ = periods_at(coeffs, tm, pair0, w0, 2 * n_nodes)
            err = max(abs(u - v) for u, v in zip(base, fine))
            if err <= 1e-14 * max(abs(v) for v in fine):
                break
            need(n_nodes < 3072, "mpmath period quadrature did not converge")
            base, n_nodes = fine, 2 * n_nodes
        h = mpmath.mpf("1e-6") * spread
        st = {k: periods_at(coeffs, tm + k * h, pair0, w0, n_nodes)[0]
              for k in (-2, -1, 1, 2)}
        deriv = [(st[-2][i] - 8 * st[-1][i] + 8 * st[1][i] - st[2][i]) / (12 * h)
                 for i in range(m - 1)]
        amat = [[fn(tm) for fn in row] for row in fns]
        pred = [sum(amat[i][j] * base[j] for j in range(m - 1)) for i in range(m - 1)]
        num = max(abs(u - v) for u, v in zip(deriv, pred))
        den = max(abs(v) for v in deriv)
    need(num <= 1e-8 * den,
         f"d/dt periods - A(t) periods = {float(num / den):.2e} (relative) "
         f"at t = {t0:.4g}")


CHECKS = {
    "sing": check_sing,
    "classify": check_classify,
    "log": check_log,
    "dulac": check_dulac,
    "pullback": check_pullback,
    "integrability": check_integrability,
    "holonomy": check_holonomy,
    "melnikov": check_melnikov,
    "monodromy": check_monodromy,
    "picard-fuchs": check_picard_fuchs,
    "brieskorn": check_brieskorn,
}


def check(job, output) -> str | None:
    """None when the job's output holds, else the reason it does not."""
    if output["code"] != 0:
        return f"exit {output['code']}: {output['stderr'][:200]}"
    try:
        doc = json.loads(output["stdout"])
        CHECKS[job["kind"]](job, doc)
    except Reject as e:
        return str(e)
    except Exception as e:  # e.g. a pole at a sample point: a failed job
        return f"malformed output: {type(e).__name__}: {e}"
    return None
