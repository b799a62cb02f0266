"""Plane polynomial foliations: families, singular points, center census.

A foliation is stored through its dual vector field ``X = (P, Q)``, with
the defining 1-form ``omega = P dy - Q dx``.  Families:

hamiltonian   omega = df for a polynomial f; X = (f_y, -f_x).
logarithmic   omega = sum_i lambda_i (prod_{j != i} f_j) df_i, with
              "first integral" f_1^{lambda_1} ... f_k^{lambda_k}.
dulac         the two classical families with non-algebraic integrals:
              A_i: omega = p^i dp + p dq - i q dp, integral p exp(q/p^i);
              B_1: omega = dq + q dp, integral q exp(p).

Singular points are the common zeros of P and Q, located through exact
resultant elimination followed by numeric root extraction and Newton
polish, then classified by the eigenvalues of the linear part.  A
"center candidate" is a reduced singular point whose eigenvalue ratio is
-1; for real fields this covers both genuine centers (eigenvalues
+-i b) and integrable saddles, which is the right notion over C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InputError, NumericError
from .forms import DifferentialForm, d_poly, dual_field, pq_form
from .poly import GaussianRational, Poly, resultant
from .tolerances import CENTER_BAND, RESID_ACCEPT

# classification thresholds (relative; see each use site)
NEWTON_MAX_ITER = 80
NEWTON_TARGET = 1e-10
SINGULAR_PRECHECK = 1e-6
DEDUP_TOL = 1e-7
BOX_LIMIT = 1e6
NONREDUCED_DET_TOL = 1e-8


@dataclass
class LogarithmicSpec:
    factors: tuple[Poly, ...]
    residues: tuple[GaussianRational, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.total_degree() for f in self.factors)


@dataclass
class DulacData:
    family: str                 # "A" or "B1"
    index: int                  # the i of A_i; 1 for B_1
    integral_description: str   # human-readable non-algebraic integral
    clearing_factor: Poly       # polynomial s with s * dF/F = omega


@dataclass
class FoliationRecord:
    """A plane foliation given by its dual field ``(P, Q)``."""

    P: Poly
    Q: Poly
    kind: str = "plain"
    integral: Poly | None = None          # polynomial first integral, if declared
    log_spec: LogarithmicSpec | None = None
    dulac: DulacData | None = None
    # _scale_factors of P and Q, for residual_scale
    scale_factors: tuple = field(init=False, repr=False, compare=False)
    # the Jacobian of (P, Q), for Newton polish and classification
    P_x: Poly = field(init=False, repr=False, compare=False)
    P_y: Poly = field(init=False, repr=False, compare=False)
    Q_x: Poly = field(init=False, repr=False, compare=False)
    Q_y: Poly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.P.vars != self.Q.vars:
            raise InputError("P and Q must share one variable tuple")
        if len(self.P.vars) != 2:
            raise InputError("plane foliations need exactly two variables")
        if self.P.is_zero and self.Q.is_zero:
            raise InputError("P and Q cannot both vanish identically")
        self.scale_factors = (_scale_factors(self.P), _scale_factors(self.Q))
        self.P_x, self.P_y = self.P.diff(0), self.P.diff(1)
        self.Q_x, self.Q_y = self.Q.diff(0), self.Q.diff(1)

    @property
    def vars(self) -> tuple[str, str]:
        return self.P.vars

    @property
    def omega(self) -> DifferentialForm:
        return pq_form(self.P, self.Q)

    @property
    def degree(self) -> int:
        return max(self.P.total_degree(), self.Q.total_degree())

    def is_real(self) -> bool:
        return self.P.is_real() and self.Q.is_real()

    def field_callables(self):
        return self.P.compiled(), self.Q.compiled()


@dataclass
class SingularPoint:
    x: complex
    y: complex
    residual: float
    eigenvalues: tuple[complex, complex] | None = None
    eigenvalue_ratio: complex | None = None
    classification: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def location(self) -> tuple[complex, complex]:
        return (self.x, self.y)

    def is_real_point(self) -> bool:
        return abs(self.x.imag) <= 1e-9 and abs(self.y.imag) <= 1e-9


@dataclass
class CenterCensus:
    centers: list[SingularPoint]
    intersections: list[SingularPoint]
    other: list[SingularPoint]
    expected_centers: int | None

    @property
    def total(self) -> int:
        return len(self.centers) + len(self.intersections) + len(self.other)


# ---------------------------------------------------------------------------
# families


def hamiltonian(f: Poly) -> FoliationRecord:
    """Foliation of the level curves of ``f``: omega = df."""
    if len(f.vars) != 2:
        raise InputError("hamiltonian records need a polynomial in two variables")
    if f.total_degree() < 1:
        raise InputError("first integral must be nonconstant")
    fx, fy = f.diff(0), f.diff(1)
    return FoliationRecord(P=fy, Q=-fx, kind="hamiltonian", integral=f)


def elementary_log_form(factors: Sequence[Poly],
                        residues: Sequence) -> DifferentialForm:
    """``sum_i lambda_i (prod_{j != i} f_j) df_i`` in any dimension.

    This is ``(prod f_j) * sum lambda_i df_i / f_i``, the polynomial
    clearing of the classical logarithmic form.
    """
    if not factors:
        raise InputError("need at least one factor")
    if len(factors) != len(residues):
        raise InputError("one residue per factor required")
    vs = factors[0].vars
    lams = [GaussianRational.from_number(r) for r in residues]
    for f in factors:
        if f.vars != vs:
            raise InputError("factors must share one variable tuple")
        if f.total_degree() < 1:
            raise InputError("factors must be nonconstant")
    for lam in lams:
        if lam.is_zero:
            raise InputError("residues must be nonzero")
    total = DifferentialForm.zero(vs, 1)
    for i, (fi, lam) in enumerate(zip(factors, lams)):
        cof = Poly.constant(vs, lam)
        for j, fj in enumerate(factors):
            if j != i:
                cof = cof * fj
        total = total + d_poly(fi) * cof
    return total


def logarithmic(factors: Sequence[Poly], residues: Sequence) -> FoliationRecord:
    """Plane logarithmic foliation with the given factors and residues."""
    vs = factors[0].vars if factors else ()
    if len(vs) != 2:
        raise InputError("logarithmic records need plane factors")
    w = elementary_log_form(factors, residues)
    p, q = dual_field(w)
    return FoliationRecord(
        P=p, Q=q, kind="logarithmic",
        log_spec=LogarithmicSpec(
            factors=tuple(factors),
            residues=tuple(GaussianRational.from_number(r) for r in residues),
        ),
    )


def dulac_family(family: str, index: int, variables: Sequence[str]) -> FoliationRecord:
    """The Dulac examples with non-algebraic first integrals.

    ``family="A"`` builds ``A_index`` in variables ``(p, q)`` (any names):
    ``omega = p^i dp + p dq - i q dp``, integral ``p * exp(q / p^i)``.
    ``family="B1"`` builds ``omega = dq + q dp``, integral ``q * exp(p)``.
    """
    vs = tuple(variables)
    if len(vs) != 2:
        raise InputError("dulac families live in two variables")
    p = Poly.variable(vs, vs[0])
    q = Poly.variable(vs, vs[1])
    one = Poly.constant(vs, 1)
    if family == "A":
        i = index
        if i < 0:
            raise InputError("A_i needs i >= 0")
        # omega = (p^i - i q) dp + p dq  =  P dy - Q dx with x=p, y=q
        a = p**i - q * i
        b = p
        pn, qn = vs
        data = DulacData(
            family="A", index=i,
            integral_description=f"{pn}*exp({qn}/{pn}^{i})" if i else f"{pn}*exp({qn})",
            clearing_factor=p ** (i + 1),
        )
        return FoliationRecord(P=b, Q=-a, kind="dulac_A", dulac=data)
    if family == "B1":
        if index != 1:
            raise InputError("only B_1 exists in this family")
        a = q            # omega = q dp + dq
        b = one
        pn, qn = vs
        data = DulacData(
            family="B1", index=1,
            integral_description=f"{qn}*exp({pn})",
            clearing_factor=q,
        )
        return FoliationRecord(P=b, Q=-a, kind="dulac_B1", dulac=data)
    raise InputError(f"unknown dulac family {family!r} (want 'A' or 'B1')")


# ---------------------------------------------------------------------------
# polynomial maps and pullbacks


@dataclass
class PolyMap:
    """A polynomial map between affine spaces, one Poly per target variable."""

    components: tuple[Poly, ...]

    def __post_init__(self):
        if not self.components:
            raise InputError("a map needs at least one component")
        vs = self.components[0].vars
        for c in self.components:
            if c.vars != vs:
                raise InputError("map components must share one variable tuple")
        self.components = tuple(self.components)

    @property
    def source_vars(self) -> tuple[str, ...]:
        return self.components[0].vars

    @property
    def target_dim(self) -> int:
        return len(self.components)

    def __call__(self, *point):
        return tuple(c(*point) for c in self.components)


def pullback_form(phi: PolyMap, omega: DifferentialForm) -> DifferentialForm:
    """Pull a k-form on the target back along ``phi``."""
    if len(omega.vars) != phi.target_dim:
        raise InputError(
            f"form lives in {len(omega.vars)} variables but the map has "
            f"{phi.target_dim} components"
        )
    src = phi.source_vars
    images = list(phi.components)
    if omega.degree == 0:
        return DifferentialForm.function(omega.comps.get((), Poly.zero(omega.vars)).compose(images))
    dphi = [d_poly(c) for c in phi.components]
    total = DifferentialForm.zero(src, min(omega.degree, len(src)))
    for idx, a in omega.comps.items():
        term = None
        for i in idx:
            term = dphi[i] if term is None else term.wedge(dphi[i])
        if term is None or term.is_zero:
            continue
        total = total + term * a.compose(images)
    return total


def integrability_obstruction(omega: DifferentialForm) -> DifferentialForm:
    """``omega ^ d omega``; the form defines a foliation iff this vanishes."""
    if omega.degree != 1:
        raise InputError("integrability is a question about 1-forms")
    return omega.wedge(omega.exterior_d())


# ---------------------------------------------------------------------------
# singular points
#
# The census functions import numpy where they run, so the exact commands
# (pullbacks, integrability, Dulac records) never load it.


def _scale_factors(p: Poly) -> tuple[float, int]:
    """``(1 + max |coefficient|, total degree)``: the scale of ``p`` at
    (x, y) is ``factor * (1 + max(|x|, |y|)) ** degree``."""
    top = max((abs(complex(c)) for c in p.terms.values()), default=0.0)
    return 1.0 + top, max(p.total_degree(), 0)


def _poly_scale(p: Poly, x: complex, y: complex) -> float:
    c, d = _scale_factors(p)
    return c * (1.0 + max(abs(x), abs(y))) ** d


def residual_scale(record: FoliationRecord, x: complex, y: complex) -> float:
    """Scale of the field (P, Q) near (x, y); singular-point residuals
    |P| + |Q| are judged relative to it."""
    m = 1.0 + max(abs(x), abs(y))
    return max(c * m ** d for c, d in record.scale_factors)


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


def _newton_polish(fns, x: complex, y: complex, scale: float):
    import numpy as np
    p, q, px, py, qx, qy = fns
    z = np.array([x, y], dtype=complex)
    target = NEWTON_TARGET * scale
    for _ in range(NEWTON_MAX_ITER):
        fv = np.array([p(z[0], z[1]), q(z[0], z[1])], dtype=complex)
        res = abs(fv[0]) + abs(fv[1])
        if res <= target:
            break
        jac = np.array(
            [[px(z[0], z[1]), py(z[0], z[1])],
             [qx(z[0], z[1]), qy(z[0], z[1])]], dtype=complex,
        )
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) > 1e-14 * max(1.0, float(np.max(np.abs(jac)))) ** 2:
            step = np.linalg.solve(jac, fv)
        else:
            step, *_ = np.linalg.lstsq(jac, fv, rcond=None)
        zn = z - step
        # damp if the step made things worse
        for _ in range(30):
            rn = abs(p(zn[0], zn[1])) + abs(q(zn[0], zn[1]))
            if rn <= res or res <= target:
                break
            step = step / 2
            zn = z - step
        z = zn
    res = abs(p(z[0], z[1])) + abs(q(z[0], z[1]))
    return complex(z[0]), complex(z[1]), float(res)


def find_singularities(record: FoliationRecord) -> list[SingularPoint]:
    """All isolated common zeros of (P, Q), complex ones included.

    Raises if P and Q share a nonconstant factor (the singular set would
    contain a curve) or if more points than the Bezout bound survive.
    """
    p, q = record.P, record.Q
    if p.is_zero or q.is_zero:
        nz = q if p.is_zero else p
        if nz.total_degree() >= 1:
            raise InputError("singular set contains a whole curve")
        return []
    r_in_y = resultant(p, q, 0)   # eliminate x, univariate in y
    r_in_x = resultant(p, q, 1)   # eliminate y, univariate in x
    if r_in_x.is_zero or r_in_y.is_zero:
        raise InputError("P and Q share a common factor; singularities are not isolated")

    xroots = _roots_of_poly_in(r_in_x, 0)
    if xroots.size == 0:
        return []

    fns = (p.compiled(), q.compiled(), record.P_x.compiled(),
           record.P_y.compiled(), record.Q_x.compiled(), record.Q_y.compiled())
    p_in_y = [c.compiled() for c in p.univariate_in(1)]
    q_in_y = [c.compiled() for c in q.univariate_in(1)]

    candidates = []
    for x0 in xroots:
        # near a multiple root of the eliminant one of P, Q can degenerate
        # in y without its coefficients vanishing exactly, which would
        # poison a single-source candidate list; take the union instead
        # and let the residual test discard the spurious ones
        yc_p = _y_roots_at(p_in_y, x0)
        yc_q = _y_roots_at(q_in_y, x0)
        if yc_p is None and yc_q is None:
            raise NumericError(
                f"could not isolate y-candidates over x = {x0}; "
                "the system may be degenerate at this slice"
            )
        ycand = [y for arr in (yc_p, yc_q) if arr is not None for y in arr]
        for y0 in ycand:
            scale = residual_scale(record, x0, y0)
            x1, y1, res = _newton_polish(fns, complex(x0), complex(y0), scale)
            if res > RESID_ACCEPT * residual_scale(record, x1, y1):
                continue
            if max(abs(x1.real), abs(x1.imag), abs(y1.real), abs(y1.imag)) > BOX_LIMIT:
                continue
            candidates.append((x1, y1, res))

    # dedup, keeping the best residual per cluster
    accepted: list[list] = []
    for x1, y1, res in sorted(candidates, key=lambda c: c[2]):
        dup = False
        for a in accepted:
            if (abs(x1 - a[0]) <= DEDUP_TOL * (1 + abs(x1))
                    and abs(y1 - a[1]) <= DEDUP_TOL * (1 + abs(y1))):
                dup = True
                break
        if not dup:
            accepted.append([x1, y1, res])

    bezout = p.total_degree() * q.total_degree()
    if len(accepted) > bezout:
        raise NumericError(
            f"found {len(accepted)} candidate singular points, above the "
            f"Bezout bound {bezout}; root extraction is unreliable here"
        )
    accepted.sort(key=lambda a: (a[0].real, a[0].imag, a[1].real, a[1].imag))
    return [SingularPoint(x=a[0], y=a[1], residual=a[2]) for a in accepted]


def classify_singularity(record: FoliationRecord,
                         point: Sequence[complex],
                         band: float = CENTER_BAND) -> SingularPoint:
    """Classify one singular point by its linear part.

    Order of tests: residual precheck, non-reduced (vanishing
    determinant), dicritical candidate (logarithmic records only),
    center candidate (eigenvalue ratio -1 within ``band``), resonant
    near-misses, generic reduced.
    """
    import numpy as np
    if band <= 0.0:
        raise InputError("the eigenvalue-ratio band must be positive")
    x, y = complex(point[0]), complex(point[1])
    pf, qf = record.field_callables()
    res = abs(pf(x, y)) + abs(qf(x, y))
    if res > SINGULAR_PRECHECK * residual_scale(record, x, y):
        raise InputError(
            f"({x}, {y}) is not a singular point (residual {res:.3e})"
        )
    jac = np.array(
        [[record.P_x(x, y), record.P_y(x, y)],
         [record.Q_x(x, y), record.Q_y(x, y)]], dtype=complex,
    )
    notes: list[str] = []
    vanishing: list[int] = []
    if record.log_spec is not None:
        for i, f in enumerate(record.log_spec.factors):
            fs = _poly_scale(f, x, y)
            if abs(complex(f(x, y))) <= SINGULAR_PRECHECK * fs:
                vanishing.append(i)
        if vanishing:
            notes.append("on_polar_divisor:" + ",".join(map(str, vanishing)))
        if len(vanishing) >= 2:
            notes.append("polar_intersection")

    sj = float(np.max(np.abs(jac)))
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    pt = SingularPoint(x=x, y=y, residual=float(res), notes=tuple(notes))

    if sj == 0.0 or abs(det) <= NONREDUCED_DET_TOL * sj * sj:
        pt.classification = "non_reduced"
        return pt

    lam = np.linalg.eigvals(jac)
    lam = sorted(lam, key=abs)
    ratio = complex(lam[0] / lam[1])
    pt.eigenvalues = (complex(lam[0]), complex(lam[1]))
    pt.eigenvalue_ratio = ratio

    if record.log_spec is not None and len(vanishing) >= 2:
        lams = [record.log_spec.residues[i] for i in vanishing]
        if all(l.is_real for l in lams):
            signs = {1 if l.re > 0 else -1 for l in lams}
            if len(signs) == 2:
                pt.classification = "dicritical_candidate"
                return pt

    if abs(ratio + 1) <= band:
        pt.classification = "center_candidate"
    elif abs(ratio + 1) <= 2 * band:
        pt.classification = "resonant_other"
        pt.notes = pt.notes + ("eigenvalue ratio just outside the center band",)
    else:
        pt.classification = "generic_reduced"
    return pt


def expected_center_count(degrees: Sequence[int]) -> int:
    """Generic center count for a logarithmic family with factor degrees.

    With ``d = sum(degrees) - 1`` the count is ``d^2 - sum_{i<j} d_i d_j``.
    """
    ds = list(degrees)
    if not ds or any(d < 1 for d in ds):
        raise InputError("factor degrees must be positive integers")
    d = sum(ds) - 1
    cross = sum(ds[i] * ds[j] for i in range(len(ds)) for j in range(i + 1, len(ds)))
    return d * d - cross


def count_centers(record: FoliationRecord,
                  band: float = CENTER_BAND) -> CenterCensus:
    """Classify every singular point and sort them into census bins.

    For logarithmic records, points on two or more factor curves are
    intersection points of the polar divisor and never counted as
    centers, whatever their spectrum says; this matters because equal
    residues make intersections spectrally identical to centers.
    """
    pts = [classify_singularity(record, sp.location, band=band)
           for sp in find_singularities(record)]
    centers: list[SingularPoint] = []
    intersections: list[SingularPoint] = []
    other: list[SingularPoint] = []
    for sp in pts:
        if "polar_intersection" in sp.notes:
            intersections.append(sp)
        elif sp.classification == "center_candidate":
            centers.append(sp)
        else:
            other.append(sp)
    expected = None
    if record.log_spec is not None:
        try:
            expected = expected_center_count(record.log_spec.degrees)
        except InputError:
            expected = None
    return CenterCensus(
        centers=centers, intersections=intersections, other=other,
        expected_centers=expected,
    )
