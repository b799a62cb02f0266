"""First Melnikov functions over continued vanishing cycles.

For a record with ``omega = s * df`` the first-order displacement of the
holonomy under ``omega + eps * omega1`` is ``M1(t) = -oint_{delta_t}
omega1 / s``, integrated over the counterclockwise-oriented cycle at
level t.  Hamiltonian records have s identically 1.  Logarithmic
records use the principal branch: on a region where every factor is
positive, ``f = prod f_i^{lambda_i}`` and ``s = prod f_i^{1 - lambda_i}``;
the residues must be real for this to define a real section parameter.

The quadrature refines a periodic trapezoid rule in flow time (spectral
for analytic integrands) by node doubling until two refinements agree
to 1e-9 relative, starting at 64 nodes and giving up past 65536.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError
from . import flow     # flow.trace_cycle is read when called: a tracer may swap it
from .flow import CycleApprox, Transversal
from .foliation import FoliationRecord, first_real_center
from .forms import DifferentialForm
from .ode import brentq
from .poly import Poly
from .tolerances import REL_TOL, ZERO_THRESHOLD

N_START = 64
N_MAX = 65536
S_FLOOR = 1e-12


@dataclass
class MelnikovProblem:
    """A record with integral data, a perturbation, and a section ray.

    The section is a ray from the center: its base is the center itself
    (where the field vanishes); every sampled point with s > 0 is a
    genuine transversal point, and t = f(section(s)) parametrizes it.
    """

    record: FoliationRecord
    omega1: DifferentialForm
    section: Transversal
    center: np.ndarray
    f_fn: Callable
    s_fn: Callable
    s_is_one: bool
    center_level: float


@dataclass
class MelnikovSamples:
    grid: list[float]
    values: list[float]
    multiplicity: int | None
    fit_residual: float | None
    identically_zero: bool
    center_level: float


@dataclass
class TangencyVerdict:
    max_abs: float
    threshold: float
    compatible: bool
    values: list[float]


def _check_perturbation(record: FoliationRecord, omega1: DifferentialForm):
    if omega1.degree != 1:
        raise InputError("the perturbation must be a 1-form")
    if omega1.vars != record.vars:
        raise InputError("perturbation variables disagree with the record's")
    for c in omega1.coefficients():
        if not c.is_real():
            raise InputError("numeric Melnikov work needs a real perturbation")


def perturbed_record(record: FoliationRecord, omega1: DifferentialForm,
                     eps: float) -> FoliationRecord:
    """The plain record of ``omega + eps * omega1``."""
    _check_perturbation(record, omega1)
    a, b = omega1.coefficients()       # omega1 = a dx + b dy
    return FoliationRecord(P=record.P + b * eps, Q=record.Q - a * eps,
                           kind="plain")


def _hamiltonian_fns(record: FoliationRecord):
    f = record.integral.compiled()

    def s_fn(x, y):
        return np.ones_like(np.asarray(x, dtype=float) * 1.0)

    return f, s_fn


def _logarithmic_fns(record: FoliationRecord):
    spec = record.log_spec
    lams = []
    for lam in spec.residues:
        if not lam.is_real:
            raise InputError(
                "melnikov problems need real residues (principal branch)"
            )
        lams.append(float(lam.re))
    fs = [f.compiled() for f in spec.factors]

    def power_product(exps):
        def fn(x, y):
            acc = 1.0
            for fc, e in zip(fs, exps):
                v = np.asarray(fc(x, y), dtype=float)
                acc = acc * np.where(v > 0.0, v, np.nan) ** e
            return acc
        return fn

    # f = prod f_i^lam_i and s = prod f_i^(1 - lam_i)
    return power_product(lams), power_product([1.0 - lam for lam in lams])


def _consistency_check(record: FoliationRecord, f_fn, s_fn,
                       center: np.ndarray):
    """Verify omega = s df numerically at 20 points with all factors positive."""
    spec = record.log_spec
    fs = [f.compiled() for f in spec.factors]
    dfs = [(f.diff(0).compiled(), f.diff(1).compiled()) for f in spec.factors]
    lams = [float(l.re) for l in spec.residues]
    pf, qf = record.field_callables()
    rng = random.Random(20260819)
    radius = 0.5 * (1.0 + float(np.hypot(center[0], center[1])))
    checked = 0
    for _ in range(4000):
        if checked >= 20:
            return
        x = center[0] + rng.uniform(-radius, radius)
        y = center[1] + rng.uniform(-radius, radius)
        vals = [fc(x, y) for fc in fs]
        if any(v <= 1e-6 for v in vals):
            continue
        fv = float(f_fn(x, y))
        sv = float(s_fn(x, y))
        dfx = fv * sum(l * dx(x, y) / v for l, (dx, _), v in zip(lams, dfs, vals))
        dfy = fv * sum(l * dy(x, y) / v for l, (_, dy), v in zip(lams, dfs, vals))
        ax, by = -qf(x, y), pf(x, y)       # omega = A dx + B dy
        scale = abs(ax) + abs(by) + abs(sv) * (abs(dfx) + abs(dfy)) + 1.0
        if abs(ax - sv * dfx) > 1e-9 * scale or abs(by - sv * dfy) > 1e-9 * scale:
            raise NumericError(
                f"omega != s df at ({x:.4g}, {y:.4g}); "
                "the declared integral data is inconsistent"
            )
        checked += 1
    raise NumericError(
        "could not collect 20 sample points with all factors positive "
        "near the center"
    )


def make_problem(record: FoliationRecord, omega1: DifferentialForm,
                 center: Sequence[float] | None = None) -> MelnikovProblem:
    """Assemble the (f, s, omega1, section) data for Melnikov integrals.

    The record must be hamiltonian or logarithmic with real residues;
    those are the families that declare ``omega = s df``.  When no
    center is passed, the first real center candidate of the record is
    used.  The section is the ray from the center in the +x direction,
    up to ``s = 2 (1 + |center|)``.
    """
    _check_perturbation(record, omega1)
    if not record.is_real():
        raise InputError("melnikov problems need a real record")

    if record.kind == "hamiltonian":
        f_fn, s_fn = _hamiltonian_fns(record)
        s_is_one = True
    elif record.kind == "logarithmic":
        f_fn, s_fn = _logarithmic_fns(record)
        s_is_one = False
    else:
        raise InputError(
            f"record kind {record.kind!r} declares no (integral, factor) pair"
        )

    if center is None:
        center = first_real_center(record)
        if center is None:
            raise InputError("no real center candidate found; pass one explicitly")
    c = np.asarray([float(center[0]), float(center[1])], dtype=float)

    if record.kind == "logarithmic":
        for f in record.log_spec.factors:
            if float(np.real(f.compiled()(c[0], c[1]))) <= 0.0:
                raise InputError(
                    "the center must lie in the region where all factors "
                    "are positive (principal branch)"
                )
        _consistency_check(record, f_fn, s_fn, c)

    scale = 1.0 + float(np.hypot(c[0], c[1]))
    section = Transversal(
        base=c, direction=np.array([1.0, 0.0]),
        s_lo=1e-9 * scale, s_hi=2.0 * scale,
    )
    lvl = float(f_fn(c[0], c[1]))
    if not math.isfinite(lvl):
        raise InputError("the first integral is not finite at the center")
    return MelnikovProblem(
        record=record, omega1=omega1, section=section, center=c,
        f_fn=f_fn, s_fn=s_fn, s_is_one=s_is_one, center_level=lvl,
    )


def cycle_at(problem: MelnikovProblem, t: float) -> CycleApprox:
    """Trace the vanishing-cycle continuation at level t off the section."""
    sec = problem.section
    f_fn = problem.f_fn

    def g(s):
        z = sec.point_at(s)
        v = float(f_fn(z[0], z[1]))
        return v - t

    s_a = sec.s_lo
    g_a = g(s_a)
    if not math.isfinite(g_a):
        raise NumericError("section leaves the valid region immediately")
    if g_a == 0.0:
        s_star = s_a
    else:
        # Expand outward by doubling; once an invalid point (outside the
        # region where the integral is defined) appears, bisect toward it.
        bracket = None
        s_bad = None
        for _ in range(400):
            if s_bad is None:
                s_try = min(2.0 * max(s_a, 1e-9), sec.s_hi)
            else:
                s_try = 0.5 * (s_a + s_bad)
            if s_try <= s_a:
                break
            if s_bad is not None and s_bad - s_a < 1e-13 * (1.0 + s_a):
                break
            g_t = g(s_try)
            if not math.isfinite(g_t):
                s_bad = s_try
                continue
            if g_a * g_t < 0.0:
                bracket = (s_a, s_try)
                break
            s_a, g_a = s_try, g_t
        if bracket is None:
            raise NumericError(
                f"level {t} is not reached on the section "
                f"(window up to s = {sec.s_hi})"
            )
        s_star = brentq(g, bracket[0], bracket[1], xtol=1e-15, rtol=8.9e-16)
    seed = sec.point_at(s_star)
    cycle = flow.trace_cycle(problem.record, seed)
    # level invariant along the polyline, in the problem's parameter
    sub = cycle.points[:: max(1, len(cycle.points) // 64)]
    lv = problem.f_fn(sub[:, 0], sub[:, 1])
    if not np.all(np.isfinite(lv)) or np.max(np.abs(lv - t)) > 1e-6 * (1 + abs(t)):
        raise NumericError(
            f"traced cycle does not stay on level {t} of the declared integral"
        )
    return cycle


def _quad(problem: MelnikovProblem, cycle: CycleApprox, n: int) -> float:
    a_poly, b_poly = problem.omega1.coefficients()
    a, b = a_poly.compiled(), b_poly.compiled()
    pts, w = cycle.quadrature_nodes(n)
    x, y = pts[:, 0], pts[:, 1]
    av = np.asarray(a(x, y), dtype=float)
    bv = np.asarray(b(x, y), dtype=float)
    sv = np.asarray(problem.s_fn(x, y), dtype=float)
    sv = np.broadcast_to(sv, x.shape)
    if not np.all(np.isfinite(sv)):
        raise NumericError("integrating factor left its valid region on the cycle")
    floor = S_FLOOR * max(1.0, float(np.max(np.abs(sv))))
    if np.min(np.abs(sv)) < floor:
        raise NumericError("integrating factor vanishes on the cycle")
    contrib = (av * w[:, 0] + bv * w[:, 1]) / sv
    return float(np.sum(contrib))


def node_doubling(evaluate: Callable[[int], complex], rel_tol: float,
                  failure: str):
    """``evaluate(n)`` for n = N_START, 2 N_START, ... up to N_MAX nodes,
    until two consecutive values agree to ``rel_tol`` (relative, absolute
    below 1); the last value, or NumericError(failure) when none settle."""
    n = N_START
    prev = evaluate(n)
    while n < N_MAX:
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) <= rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise NumericError(failure)


def m1_on_cycle(problem: MelnikovProblem, cycle: CycleApprox,
                rel_tol: float = REL_TOL) -> float:
    """M1 over one traced cycle, with node-doubling refinement."""
    return -node_doubling(
        lambda n: _quad(problem, cycle, n), rel_tol,
        f"quadrature did not stabilize to {rel_tol} within {N_MAX} nodes")


def m1(problem: MelnikovProblem, t: float, rel_tol: float = REL_TOL) -> float:
    """``M1(t) = -oint_{delta_t} omega1 / s`` at one level."""
    return m1_on_cycle(problem, cycle_at(problem, t), rel_tol=rel_tol)


def m1_sweep(problem: MelnikovProblem, grid: Sequence[float],
             rel_tol: float = REL_TOL) -> MelnikovSamples:
    """M1 over a level grid plus a multiplicity estimate at the center.

    The multiplicity is the slope of log|M1| against log|t - t_center|
    fitted over the smallest available decade of distances, rounded to
    the nearest integer.  All-below-threshold values set the
    identically-zero flag instead; fewer than 4 points get no fit.
    """
    grid = [float(t) for t in grid]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("the level grid must be strictly increasing")
    values = [m1(problem, t, rel_tol=rel_tol) for t in grid]

    zero = all(abs(v) < ZERO_THRESHOLD for v in values)
    if zero or len(grid) < 4:
        return MelnikovSamples(grid=grid, values=values, multiplicity=None,
                               fit_residual=None, identically_zero=zero,
                               center_level=problem.center_level)

    tc = problem.center_level
    pairs = [(abs(t - tc), abs(v)) for t, v in zip(grid, values)
             if abs(v) >= ZERO_THRESHOLD and abs(t - tc) > 0.0]
    if len(pairs) < 4:
        raise NumericError(
            f"only {len(pairs)} usable samples for the multiplicity fit; need 4"
        )
    pairs.sort()
    x_min = pairs[0][0]
    decade = [p for p in pairs if p[0] <= 10.0 * x_min]
    if len(decade) < 4:
        decade = pairs[:4]
    lx = np.log([p[0] for p in decade])
    ly = np.log([p[1] for p in decade])
    coef = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, lx) - ly) ** 2)))
    return MelnikovSamples(
        grid=grid, values=values,
        multiplicity=int(round(float(coef[0]))),
        fit_residual=resid, identically_zero=False,
        center_level=problem.center_level,
    )


def tangency_test(problem: MelnikovProblem,
                  grid: Sequence[float]) -> TangencyVerdict:
    """First-order center compatibility: does M1 vanish on the grid?

    This realizes the necessary condition for the deformation to be
    tangent to the center locus (no sufficiency claim): compatible iff
    max |M1| stays below the threshold, 1e-8 times the largest cycle
    length encountered.
    """
    grid = [float(t) for t in grid]
    if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("the level grid must be strictly increasing")
    values = []
    max_len = 1.0
    for t in grid:
        cycle = cycle_at(problem, t)
        seg = np.hypot(*np.diff(cycle.points, axis=0).T)
        max_len = max(max_len, float(np.sum(seg)))
        values.append(m1_on_cycle(problem, cycle))
    threshold = 1e-8 * max_len
    max_abs = max(abs(v) for v in values)
    return TangencyVerdict(max_abs=max_abs, threshold=threshold,
                           compatible=max_abs <= threshold, values=values)
