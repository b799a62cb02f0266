"""Numeric leaf tracing: cycles, sections, holonomy, center tests.

All integration runs DOP853 (``folia.ode``) at tight tolerances (rtol
1e-11, atol 1e-13) with three terminal event functions: the section
crossing that ends a run, a speed floor that aborts near singular
points, and an escape radius.
Event zeros at the start point are avoided with a short pre-flight
integration before the monitored run begins.

Traced cycles are normalized to counterclockwise traversal (positive
signed area).  Line integrals over a cycle therefore have an unambiguous
sign; the stored orientation sign is applied to the quadrature weights,
not to the underlying trajectory, so the dense solution stays usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError
from .foliation import FoliationRecord, residual_scale
from .ode import _interpolate, brentq, solve_ivp
from .poly import Poly
from .tolerances import ATOL, RTOL

CLOSURE_TOL = 1e-8
MAX_CHUNKS = 24
ESCAPE_FACTOR = 1e3
SPEED_FLOOR = 1e-9
PREFLIGHT = 1e-7
NUM_POINTS = 1024     # polyline vertices of a traced cycle
TUBE_FACTOR = 0.2     # holonomy tube radius, as a fraction of the cycle diameter


@dataclass
class Transversal:
    """A parametrized open segment ``base + s * direction``, s in (s_lo, s_hi)."""

    base: np.ndarray
    direction: np.ndarray  # unit vector
    s_lo: float
    s_hi: float

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        n = float(np.hypot(d[0], d[1]))
        if n == 0.0:
            raise InputError("transversal direction cannot vanish")
        self.direction = d / n
        if not (self.s_lo < self.s_hi):
            raise InputError("transversal window is empty")

    @property
    def normal(self) -> np.ndarray:
        d = self.direction
        return np.array([-d[1], d[0]])

    def point_at(self, s: float) -> np.ndarray:
        return self.base + s * self.direction

    def coordinate_of(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(np.dot(z - self.base, self.direction))


def section_at(record: FoliationRecord, point: Sequence[float]) -> Transversal:
    """Transversal through a regular point, perpendicular to the flow.

    The direction is the unit vector ``(-Q, P)/|X|`` at the point, which
    for a Hamiltonian record equals the unit gradient of the integral.
    """
    _require_real(record)
    x, y = float(point[0]), float(point[1])
    pf, qf = record.field_callables()
    vx, vy = pf(x, y), qf(x, y)
    v = math.hypot(vx, vy)
    scale = residual_scale(record, x, y)
    if v <= 1e-9 * scale:
        raise InputError(f"({x}, {y}) is too close to a singular point for a section")
    half_width = 0.25 * (1.0 + math.hypot(x, y))
    return Transversal(
        base=np.array([x, y]),
        direction=np.array([-vy, vx]) / v,
        s_lo=-half_width,
        s_hi=half_width,
    )


def _require_real(record: FoliationRecord):
    if not record.is_real():
        raise InputError("numeric tracing needs a real vector field")


# ---------------------------------------------------------------------------
# the shared section-return integrator


class _Run:
    """Result of integrating to the first in-window section crossing."""

    __slots__ = ("z_ret", "s_ret", "t_total", "pieces", "samples")

    def __init__(self, z_ret, s_ret, t_total, pieces, samples):
        self.z_ret = z_ret
        self.s_ret = s_ret
        self.t_total = t_total
        self.pieces = pieces
        self.samples = samples


def _integrate_to_section(rhs: Callable, z0: np.ndarray, section: Transversal,
                          rtol: float = RTOL, atol: float = ATOL) -> _Run:
    z0 = np.asarray(z0, dtype=float)
    v0 = np.asarray(rhs(0.0, z0), dtype=float)
    speed0 = float(np.hypot(v0[0], v0[1]))
    if speed0 == 0.0:
        raise InputError("cannot trace a leaf from a singular point")
    scale = 1.0 + float(np.hypot(z0[0], z0[1]))
    n = section.normal
    dir_sign = np.sign(float(np.dot(n, v0)))
    if dir_sign == 0.0:
        # flow tangent to the section at the start: nudge decides later
        dir_sign = 1.0

    v_floor = SPEED_FLOOR * (1.0 + speed0)
    escape = ESCAPE_FACTOR * scale

    def ev_section(t, z):
        x, y = z.tolist()
        return (x - section.base[0]) * n[0] + (y - section.base[1]) * n[1]

    ev_section.direction = float(dir_sign)

    def ev_speed(t, z):
        vx, vy = rhs(t, z)
        return vx * vx + vy * vy - v_floor * v_floor

    ev_speed.direction = -1.0

    def ev_escape(t, z):
        x, y = z.tolist()
        return x * x + y * y - escape * escape

    ev_escape.direction = 1.0

    chunk = 50.0 * scale / speed0
    max_step = 0.1 * scale / speed0
    t_global = 0.0
    pieces = []
    samples = [z0.copy()]
    z = z0

    for _ in range(MAX_CHUNKS):
        # pre-flight: leave the section line before arming the events
        v = np.asarray(rhs(0.0, z), dtype=float)
        vz = float(np.hypot(v[0], v[1]))
        if vz <= v_floor:
            raise NumericError("leaf ran into a singular point")
        h = PREFLIGHT * scale / vz
        pre = solve_ivp(rhs, (0.0, h), z, rtol=rtol, atol=atol)
        if not pre.success:
            raise NumericError(f"integrator failed during pre-flight: {pre.message}")
        pieces.append((t_global, t_global + h, pre.sol))
        t_global += h
        z = pre.y[:, -1]

        sol = solve_ivp(rhs, (0.0, chunk), z, rtol=rtol, atol=atol,
                        max_step=max_step,
                        events=[ev_section, ev_speed, ev_escape])
        if not sol.success and sol.status != 1:
            raise NumericError(f"integrator failed: {sol.message}")
        t_end = sol.t[-1]
        pieces.append((t_global, t_global + t_end, sol.sol))
        ts = np.linspace(0.0, t_end, 48)
        samples.extend(sol.sol(ts).T)
        t_global += t_end

        if sol.status == 1:
            if sol.t_events[1].size:
                raise NumericError("leaf ran into a singular point")
            if sol.t_events[2].size:
                raise NumericError("leaf escaped the working region")
            z_ev = sol.y_events[0][0]
            s = section.coordinate_of(z_ev)
            if section.s_lo <= s <= section.s_hi:
                return _Run(z_ret=np.asarray(z_ev, dtype=float), s_ret=s,
                            t_total=t_global, pieces=pieces,
                            samples=np.asarray(samples))
            # crossed the carrier line outside the window: keep going
            z = np.asarray(z_ev, dtype=float)
        else:
            z = sol.y[:, -1]

    raise NumericError(
        f"no return to the section within {MAX_CHUNKS} integration chunks"
    )


class _PiecewisePath:
    """Dense trajectory assembled from consecutive solve_ivp solutions, the
    steps of every piece stacked once, so that a call is one gather."""

    def __init__(self, pieces, period):
        self.period = period
        self.starts = np.array([p[0] for p in pieces])
        self.spans = np.array([p[1] - p[0] for p in pieces])
        steps = [p[2].stacked() for p in pieces]
        self.t_old, self.h, self.F, self.y_old = map(np.concatenate,
                                                     zip(*steps))
        n_steps = np.array([len(s[1]) for s in steps])
        ends = np.cumsum(n_steps)
        self.first, self.last = ends - n_steps, ends - 1
        # complex numbers sort by real part, then imaginary part, so one
        # search over (piece, step boundary) keys finds each piece's own
        # step; piece k's n steps have n + 1 boundaries, so the search
        # lands k + 1 keys past the step's stacked index
        self.keys = np.concatenate([k + 1j * p[2].ts
                                    for k, p in enumerate(pieces)])

    def __call__(self, tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        tau = np.clip(tau, 0.0, self.period)
        idx = np.searchsorted(self.starts, tau, side="right") - 1
        idx = np.clip(idx, 0, len(self.starts) - 1)
        local = np.clip(tau - self.starts[idx], 0.0, self.spans[idx])
        # the step the piece's own OdeSolution would pick for ``local``
        pos = np.searchsorted(self.keys, idx + 1j * local, side="left")
        seg = np.clip(pos - idx - 1, self.first[idx], self.last[idx])
        x = ((local - self.t_old[seg]) / self.h[seg])[:, None]
        return _interpolate(x, self.F[seg], self.y_old[seg]).T


# ---------------------------------------------------------------------------
# cycles


@dataclass
class CycleApprox:
    """A closed leaf, stored as a dense path plus a CCW polyline.

    ``points`` is an (m+1, 2) array at uniform arclength with the last
    row equal to the first, ordered counterclockwise.  The quadrature
    nodes come from the dense solution, so refining the node count does
    not re-integrate the trajectory.
    """

    points: np.ndarray
    level: float | None
    section: Transversal
    closure_error: float
    _path: _PiecewisePath = dc_field(default=None, repr=False)
    _period: float = dc_field(default=0.0, repr=False)
    _ccw_sign: float = dc_field(default=1.0, repr=False)
    _rhs: tuple = dc_field(default=None, repr=False)
    _record: FoliationRecord = dc_field(default=None, repr=False)

    def diameter(self) -> float:
        spans = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.hypot(spans[0], spans[1]))

    def seed(self) -> np.ndarray:
        return self.points[0].copy()

    def quadrature_nodes(self, n: int):
        """Nodes and vector weights for CCW line integrals over the cycle.

        Returns (points, weights), each (n, 2): ``sum_j A(z_j) w_jx +
        B(z_j) w_jy`` approximates the counterclockwise integral of
        ``A dx + B dy`` with spectral accuracy (periodic trapezoid in
        flow time).
        """
        taus = np.arange(n) * (self._period / n)
        pts = self._path(taus).T
        pf, qf = self._rhs
        vx = np.asarray(pf(pts[:, 0], pts[:, 1]), dtype=float)
        vy = np.asarray(qf(pts[:, 0], pts[:, 1]), dtype=float)
        w = np.stack([vx, vy], axis=1) * (self._ccw_sign * self._period / n)
        return pts, w


def trace_cycle(record: FoliationRecord, seed_point: Sequence[float],
                rtol: float = RTOL, atol: float = ATOL) -> CycleApprox:
    """Trace the closed leaf through a point and normalize it CCW.

    Raises NumericError when the leaf fails to close up to a relative
    tolerance of 1e-8 (after returning to its transversal), runs into a
    singular point, or escapes.  ``rtol``/``atol`` control the stepper
    only; the closure contract stays fixed, so loosening them makes the
    trace fail loudly instead of silently degrading.
    """
    _require_real(record)
    section = section_at(record, seed_point)
    z0 = section.base
    pf, qf = record.field_callables()

    def rhs(t, z):
        x, y = z.tolist()
        return (pf(x, y), qf(x, y))

    run = _integrate_to_section(rhs, z0, section, rtol=rtol, atol=atol)
    closure = float(np.hypot(*(run.z_ret - z0)))
    if closure > CLOSURE_TOL * (1.0 + float(np.hypot(z0[0], z0[1]))):
        raise NumericError(
            f"leaf did not close: gap {closure:.3e} at the first return"
        )

    path = _PiecewisePath(run.pieces, run.t_total)
    fine = path(np.linspace(0.0, run.t_total, 4096)).T
    seg = np.hypot(*np.diff(fine, axis=0).T)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    if total <= 0.0:
        raise NumericError("degenerate cycle of zero length")
    targets = np.linspace(0.0, total, NUM_POINTS + 1)
    taus = np.interp(targets, arc, np.linspace(0.0, run.t_total, 4096))
    pts = path(taus).T
    pts[-1] = pts[0]

    # orientation: positive signed area = counterclockwise
    x, y = pts[:, 0], pts[:, 1]
    area2 = float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    if area2 == 0.0:
        raise NumericError("cycle encloses no area; orientation undefined")
    ccw = 1.0 if area2 > 0.0 else -1.0
    if ccw < 0:
        pts = pts[::-1].copy()

    level = None
    if record.integral is not None:
        level = float(record.integral(z0[0], z0[1]))

    return CycleApprox(
        points=pts, level=level, section=section, closure_error=closure,
        _path=path, _period=run.t_total, _ccw_sign=ccw,
        _rhs=(pf, qf), _record=record,
    )


def cycle_through_level(record: FoliationRecord, center: Sequence[float],
                        level: float,
                        direction: Sequence[float] = (1.0, 0.0)) -> CycleApprox:
    """Trace the cycle on a given level of the first integral.

    Walks the ray ``center + s * direction`` until the declared integral
    brackets the level, solves for the seed, then traces.
    """
    if record.integral is None:
        raise InputError("cycle_through_level needs a declared first integral")
    _require_real(record)
    if not record.integral.is_real():
        raise InputError("numeric work needs a real first integral")
    p = np.asarray(center, dtype=float)
    u = np.asarray(direction, dtype=float)
    un = float(np.hypot(u[0], u[1]))
    if un == 0.0:
        raise InputError("direction cannot vanish")
    u = u / un
    f = record.integral.compiled()

    def g(s):
        q = p + s * u
        return f(q[0], q[1]) - level

    base = float(g(0.0))
    if base == 0.0:
        raise InputError("the ray starts on the target level already")
    s_lo = 1e-9 * (1.0 + float(np.hypot(p[0], p[1])))
    s_hi = s_lo
    found = False
    for _ in range(60):
        s_hi = max(2.0 * s_hi, 1e-6)
        if s_hi > 1e6:
            break
        if g(s_lo) * g(s_hi) < 0.0:
            found = True
            break
        s_lo = s_hi
    if not found:
        raise NumericError(
            f"could not bracket level {float(level)} along the ray from "
            f"({float(p[0])}, {float(p[1])})"
        )
    s_star = brentq(g, s_lo, s_hi, xtol=1e-14, rtol=8.9e-16)
    return trace_cycle(record, p + s_star * u)


# ---------------------------------------------------------------------------
# holonomy


@dataclass
class HolonomySample:
    """One pass of the return map along (a deformation of) a cycle."""

    t_in: float | None
    t_out: float | None
    s_return: float
    z_return: tuple[float, float]
    transit_time: float


def holonomy(record: FoliationRecord, cycle: CycleApprox,
             rtol: float = RTOL, atol: float = ATOL) -> HolonomySample:
    """Return map of ``record`` computed along the given seed cycle.

    The field is integrated from the cycle's seed in the direction of
    the cycle's CCW traversal, until the first in-window return to the
    cycle's own transversal.  The trajectory must stay inside a tube of
    radius ``TUBE_FACTOR * diameter`` around the seed polyline; leaving
    it means the deformation is too large for the return map to be
    meaningful, and raises NumericError.

    ``t_in``/``t_out`` are levels of the seed record's first integral
    (None when it has none); ``s_return`` is the signed transversal
    coordinate of the return point.
    """
    _require_real(record)
    z0 = cycle.seed()
    pf, qf = record.field_callables()
    opf, oqf = cycle._rhs
    tangent = cycle._ccw_sign * np.array([opf(z0[0], z0[1]), oqf(z0[0], z0[1])])
    v0 = np.array([pf(z0[0], z0[1]), qf(z0[0], z0[1])])
    flip = 1.0 if float(np.dot(tangent, v0)) >= 0.0 else -1.0

    def rhs(t, z):
        x, y = z.tolist()
        return (flip * pf(x, y), flip * qf(x, y))

    run = _integrate_to_section(rhs, z0, cycle.section, rtol=rtol, atol=atol)

    # tube check against the seed polyline
    diam = cycle.diameter()
    traj = run.samples
    if traj.shape[0] > 256:
        traj = traj[:: traj.shape[0] // 256 + 1]
    d2 = ((traj[:, None, :] - cycle.points[None, :, :]) ** 2).sum(axis=2)
    worst = float(np.sqrt(d2.min(axis=1).max()))
    if worst > TUBE_FACTOR * diam:
        raise NumericError(
            f"trajectory strayed {worst:.3e} from the seed cycle "
            f"(allowed {TUBE_FACTOR * diam:.3e}); deformation too large"
        )

    t_in = t_out = None
    src = cycle._record
    if src is not None and src.integral is not None:
        fz = src.integral.compiled()
        t_in = float(fz(z0[0], z0[1]))
        t_out = float(fz(run.z_ret[0], run.z_ret[1]))
    return HolonomySample(
        t_in=t_in, t_out=t_out,
        s_return=run.s_ret,
        z_return=(float(run.z_ret[0]), float(run.z_ret[1])),
        transit_time=run.t_total,
    )


# ---------------------------------------------------------------------------
# dynamic center test


@dataclass
class CenterVerdict:
    is_center: bool
    mode: str                      # "integral" or "arclength"
    samples: list        # (radius, deviation) pairs, one per test radius
    direction_used: tuple[float, float]
    note: str = ""


def numeric_center_test(record: FoliationRecord,
                        point: Sequence[float]) -> CenterVerdict:
    """Decide dynamically whether a singular point behaves like a center.

    Launches leaves from seeds on a ray at geometrically shrinking radii
    and compares each first return with its start: in the declared first
    integral when the record has one, else in signed arclength along the
    ray.  A focus reveals itself by a return displaced from the start by
    a fixed factor per turn; a center returns to it within integration
    accuracy.  Directions are rotated deterministically when a run fails.
    """
    _require_real(record)
    p = np.asarray(point, dtype=float)
    pf, qf = record.field_callables()
    vx, vy = pf(p[0], p[1]), qf(p[0], p[1])
    scale = residual_scale(record, p[0], p[1])
    if math.hypot(vx, vy) > 1e-6 * scale:
        raise InputError("numeric_center_test needs a singular point")
    r0 = 0.05 * (1.0 + float(np.hypot(p[0], p[1])))

    use_integral = record.integral is not None and record.integral.is_real()
    fz = record.integral.compiled() if use_integral else None

    last_err: NumericError | None = None
    for k_dir in range(3):
        ang = 2.0 * math.pi * k_dir / 7.0
        u = np.array([math.cos(ang), math.sin(ang)])
        section = Transversal(base=p, direction=u,
                              s_lo=1e-12, s_hi=2.0 * r0)

        def rhs(t, z):
            return (pf(z[0], z[1]), qf(z[0], z[1]))

        samples = []
        try:
            for k in range(4):
                r = r0 * 0.6**k
                z = p + r * u
                run = _integrate_to_section(rhs, z, section)
                if use_integral:
                    t_in = float(fz(z[0], z[1]))
                    t_ret = float(fz(run.z_ret[0], run.z_ret[1]))
                    dev = abs(t_ret - t_in)
                    tol = 1e-7 * (1.0 + abs(t_in))
                else:
                    dev = abs(run.s_ret - r)
                    tol = 1e-5 * r
                samples.append((r, dev, tol))
        except NumericError as e:
            last_err = e
            continue
        bad = [s for s in samples if s[1] > s[2]]
        mode = "integral" if use_integral else "arclength"
        return CenterVerdict(
            is_center=not bad, mode=mode,
            samples=[(r, d) for r, d, _ in samples],
            direction_used=(float(u[0]), float(u[1])),
            note="" if not bad else
            f"return map deviates by {max(d for _, d, _ in samples):.3e}",
        )
    raise NumericError(
        f"center test failed in all probe directions: {last_err}"
    )


def parallel_map(fn, items) -> list:
    """Map ``fn`` over independent items in the calling thread, results
    in input order.

    The level sweeps of ``holonomy`` and ``melnikov`` and the acceptance
    criteria map through it.
    """
    return [fn(it) for it in items]
