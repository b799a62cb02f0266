"""Leaf tracing and return maps, checked on systems solved by hand."""

import math

import numpy as np
import pytest

from folia import InputError, NumericError, parse_poly
from folia.foliation import FoliationRecord, dulac_family, hamiltonian, logarithmic
from folia.flow import (
    _PiecewisePath,
    CycleApprox,
    cycle_through_level,
    holonomy,
    numeric_center_test,
    section_at,
    trace_cycle,
)
from folia.forms import DifferentialForm
from folia.melnikov import perturbed_record
from folia.ode import solve_ivp

VS = ("x", "y")


def P(s):
    return parse_poly(s, VS)


CIRCLE = hamiltonian(P("1/2*x^2 + 1/2*y^2"))


def test_trace_circle_geometry():
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    r = np.hypot(c.points[:, 0], c.points[:, 1])
    assert np.max(np.abs(r - 1.0)) < 1e-8
    assert abs(c.level - 0.5) < 1e-12
    assert c.closure_error < 1e-8
    assert np.allclose(c.points[0], c.points[-1])
    # period of the unit-speed circle field is 2 pi
    assert abs(c._period - 2 * math.pi) < 1e-6


def test_traced_cycles_are_counterclockwise():
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    x, y = c.points[:, 0], c.points[:, 1]
    area = 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    assert area > 0
    # polyline area carries the inscribed-polygon bias ~ pi (2pi/N)^2 / 6
    assert abs(area - math.pi) < 1e-4
    # the Hamiltonian field (y, -x) itself runs clockwise
    assert c._ccw_sign == -1.0


def test_quadrature_nodes_compute_area_integral():
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    # ccw integral of x dy - y dx = 2 * enclosed area = 2 pi
    pts, w = c.quadrature_nodes(256)
    val = float(np.sum(pts[:, 0] * w[:, 1] - pts[:, 1] * w[:, 0]))
    assert abs(val - 2 * math.pi) < 1e-9
    # refinement changes nothing for an analytic integrand
    pts2, w2 = c.quadrature_nodes(512)
    val2 = float(np.sum(pts2[:, 0] * w2[:, 1] - pts2[:, 1] * w2[:, 0]))
    assert abs(val - val2) < 1e-10


def test_cycle_energy_is_conserved_along_points():
    f = P("1/2*x^2 + 1/2*y^2 + 1/4*x^4")
    rec = hamiltonian(f)
    c = trace_cycle(rec, (0.9, 0.1))
    vals = [f(px, py) for px, py in c.points]
    assert max(vals) - min(vals) < 1e-9


def test_cycle_through_level():
    c = cycle_through_level(CIRCLE, (0.0, 0.0), 0.18)
    assert abs(c.level - 0.18) < 1e-12
    r = np.hypot(c.points[:, 0], c.points[:, 1])
    assert np.max(np.abs(r - math.sqrt(0.36))) < 1e-8
    with pytest.raises(InputError):
        cycle_through_level(FoliationRecord(P=P("y"), Q=P("-x")), (0, 0), 0.1)
    # plain floats in the message, not numpy reprs
    with pytest.raises(NumericError,
                       match=r"level -1.0 along the ray from \(0.0, 0.0\)$"):
        cycle_through_level(CIRCLE, np.zeros(2), np.float64(-1.0))


def test_trace_rejects_singular_seed():
    with pytest.raises(InputError):
        trace_cycle(CIRCLE, (0.0, 0.0))


def test_trace_rejects_unbounded_leaf():
    rec = hamiltonian(P("x*y"))
    with pytest.raises(NumericError):
        trace_cycle(rec, (1.0, 1.0))  # hyperbola, never returns


def test_section_at_is_perpendicular_to_flow():
    s = section_at(CIRCLE, (0.0, -2.0))
    pf, qf = CIRCLE.field_callables()
    v = np.array([pf(0.0, -2.0), qf(0.0, -2.0)])
    assert abs(float(np.dot(s.direction, v))) < 1e-12
    assert s.coordinate_of((0.0, -2.0)) == 0.0


def test_holonomy_identity_on_unperturbed_field():
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    h = holonomy(CIRCLE, c)
    assert abs(h.t_out - h.t_in) < 1e-10
    assert abs(h.s_return) < 1e-8
    assert abs(h.t_in - 0.5) < 1e-12


def test_holonomy_of_radial_perturbation():
    # X_eps = (y + eps x, -x + eps y): r' = eps r, one clockwise turn
    # along the cycle's traversal direction gives r -> r e^{-2 pi eps}
    # in the CCW parametrization pinned by the cycle orientation.
    eps = 1e-6
    pert = FoliationRecord(P=P("y") + P("x") * eps, Q=P("-x") + P("y") * eps)
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    h = holonomy(pert, c)
    # t = r^2/2; dt/deps at eps=0 is -2 pi * 2t = -4 pi t (t = 1/2 here)
    deriv = (h.t_out - h.t_in) / eps
    assert abs(deriv - (-2 * math.pi)) < 1e-3
    assert h.t_in == 0.5


def test_holonomy_rejects_large_deformation():
    pert = FoliationRecord(P=P("y") + P("x") * 0.4, Q=P("-x") + P("y") * 0.4)
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    with pytest.raises(NumericError):
        holonomy(pert, c)


def test_holonomy_tube_is_a_fifth_of_the_cycle_diameter():
    # omega1 = dx moves the center to (-eps, 0) and the leaf through
    # (1, 0) strays about 2 eps from the unit circle; the tube radius is
    # 0.2 times the bounding-box diagonal 2 sqrt(2), about 0.566
    c = trace_cycle(CIRCLE, (1.0, 0.0))
    dx = DifferentialForm.one_form([P("1"), P("0")])
    holonomy(perturbed_record(CIRCLE, dx, 0.25), c)
    with pytest.raises(NumericError, match="trajectory strayed"):
        holonomy(perturbed_record(CIRCLE, dx, 0.3), c)


def test_center_test_on_true_center():
    v = numeric_center_test(CIRCLE, (0.0, 0.0))
    assert v.is_center
    assert v.mode == "integral"
    assert all(dev < 1e-9 for _, dev in v.samples)


def test_center_test_on_focus_arclength_mode():
    # X = (y + 0.1 x, -x + 0.1 y): unstable focus, expansion e^{0.2 pi}
    rec = FoliationRecord(P=P("y + 1/10*x"), Q=P("-x + 1/10*y"))
    v = numeric_center_test(rec, (0.0, 0.0))
    assert not v.is_center
    assert v.mode == "arclength"
    growth = math.exp(0.2 * math.pi)
    for r, dev in v.samples:
        assert abs(dev / r - (growth - 1.0)) < 1e-3


def test_center_test_on_log_foliation_center():
    rec = logarithmic([P("x"), P("y"), P("x + y - 1")], [1, 1, 1])
    # record has no polynomial integral declared unless logarithmic with
    # unit residues; attach the product as integral via hamiltonian form
    ham = hamiltonian(P("x") * P("y") * P("x + y - 1"))
    v = numeric_center_test(ham, (1 / 3, 1 / 3))
    assert v.is_center and v.mode == "integral"


def test_center_test_requires_singular_point():
    with pytest.raises(InputError):
        numeric_center_test(CIRCLE, (0.5, 0.0))


def test_dulac_a1_leaves_do_not_close():
    # A_1 has a node at the origin; nearby leaves spiral into it or leave
    rec = dulac_family("A", 1, VS)
    with pytest.raises(NumericError):
        trace_cycle(rec, (0.5, 0.5))


def _piecewise_by_loop(pieces, period, tau):
    # the per-piece evaluation the stacked path replaced, kept as reference
    tau = np.clip(np.atleast_1d(np.asarray(tau, dtype=float)), 0.0, period)
    starts = np.array([p[0] for p in pieces])
    idx = np.clip(np.searchsorted(starts, tau, side="right") - 1,
                  0, len(pieces) - 1)
    out = np.empty((2, tau.size))
    for k, (t0, t1, sol) in enumerate(pieces):
        mask = idx == k
        if mask.any():
            out[:, mask] = sol(np.clip(tau[mask] - t0, 0.0, t1 - t0))
    return out


def test_piecewise_path_equals_the_per_piece_loop():
    # a rotation, integrated over uneven consecutive chunks as the
    # section-return integrator does, evaluated everywhere and at every
    # step boundary and its neighbouring floats
    def rhs(t, z):
        return np.array([-z[1] + 0.1 * z[0], z[0] + 0.1 * z[1]])

    pieces, t, z = [], 0.0, np.array([1.0, 0.0])
    for h in (0.01, 0.7, 0.3, 2.1, 1e-3, 1.4):
        sol = solve_ivp(rhs, (0.0, h), z, rtol=1e-10, atol=1e-12)
        pieces.append((t, t + h, sol.sol))
        t, z = t + h, sol.y[:, -1]
    knots = np.concatenate([p[0] + p[2].ts for p in pieces] + [[t]])
    taus = np.concatenate([
        np.random.default_rng(7).uniform(-0.5, t + 0.5, 3000), knots,
        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)])
    got = _PiecewisePath(pieces, t)(taus)
    assert np.array_equal(got, _piecewise_by_loop(pieces, t, taus))
