"""folia's DOP853 and brentq against scipy, compared with ``==``.

``folia.ode`` is a port of ``scipy.integrate.solve_ivp(method="DOP853",
dense_output=True)`` and ``scipy.optimize.brentq`` in scipy's order of
floating-point operations, so every number they return must be the same
double, not merely close.  scipy is the oracle here and nowhere in the
package.
"""

import math
import random

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from folia import flow, ode
from folia.errors import NumericError
from folia.foliation import hamiltonian
from folia.poly import parse_poly


def _scipy_solve(fun, t_span, y0, *, rtol, atol, max_step=np.inf, events=()):
    for event in events:
        event.terminal = True
    return scipy.integrate.solve_ivp(
        fun, t_span, y0, method="DOP853", dense_output=True, rtol=rtol,
        atol=atol, max_step=max_step, events=list(events) or None)


def _assert_same(ours, ref):
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert (ours.nfev, ours.status, ours.message, ours.success) == \
        (ref.nfev, ref.status, ref.message, ref.success)
    if ref.t_events is None:
        assert ours.t_events is None and ours.y_events is None
    else:
        for mine, theirs in zip(ours.t_events + ours.y_events,
                                ref.t_events + ref.y_events, strict=True):
            assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    if ref.t.size > 1:
        # interior points, every step end, where two segments meet, and
        # times just outside the span, where the first and last segments
        # extrapolate
        t0, tf = ref.t[0], ref.t[-1]
        outside = [t0 - 1e-3 * (tf - t0), np.nextafter(t0, -np.inf),
                   np.nextafter(tf, np.inf), tf + 1e-3 * (tf - t0)]
        ts = np.concatenate([np.linspace(t0, tf, 101), ref.t, outside])
        assert np.array_equal(ours.sol(ts), ref.sol(ts))


def _twin(fun, t_span, y0, **kw):
    ours = ode.solve_ivp(fun, t_span, y0, **kw)
    _assert_same(ours, _scipy_solve(fun, t_span, y0, **kw))
    _twin.runs += 1
    return ours


_twin.runs = 0


def _hamiltonians(n):
    rng = random.Random("ode-hamiltonians")
    monomials = ["x^3", "x^2*y", "x*y^2", "y^3", "x^4", "x^2*y^2", "y^4"]
    for _ in range(n):
        terms = [f"{rng.randint(1, 3)}/{rng.randint(4, 9)}*x^2",
                 f"{rng.randint(1, 3)}/{rng.randint(4, 9)}*y^2"]
        f_str = " + ".join(terms) + "".join(
            f" {rng.choice('+-')} 1/{rng.randint(5, 40)}*{m}"
            for m in rng.sample(monomials, 2))
        yield f_str, rng.uniform(0.1, 0.6), rng.uniform(0, 2 * math.pi)


def test_flow_runs_match_scipy(monkeypatch):
    """Flow's own calls: pre-flight spans, the section, speed and escape
    events, max_step, over traced cycles and their return maps."""
    monkeypatch.setattr(flow, "solve_ivp", _twin)
    runs, traced = _twin.runs, 0
    for f_str, r, ang in _hamiltonians(24):
        rec = hamiltonian(parse_poly(f_str, ("x", "y")))
        try:
            cyc = flow.trace_cycle(rec, (r * math.cos(ang), r * math.sin(ang)))
            flow.holonomy(rec, cyc)
            traced += 1
        except NumericError:
            pass
    assert traced >= 12 and _twin.runs - runs >= 4 * traced


def _poly_field(rng):
    """A random cubic planar field around a rotation."""
    c = [rng.uniform(-0.4, 0.4) for _ in range(10)]

    def rhs(t, z):
        x, y = z[0], z[1]
        return (-y + c[0] * x * x + c[1] * x * y + c[2] * y * y
                + c[3] * x ** 3 + c[4] * y ** 3,
                x + c[5] * x * x + c[6] * x * y + c[7] * y * y
                + c[8] * x * x * y + c[9] * x)
    return rhs


def _events(rng, rhs, z0):
    n = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])

    def section(t, z):
        return (z[0] - z0[0]) * n[0] + (z[1] - z0[1]) * n[1]

    def speed(t, z):
        vx, vy = rhs(t, z)
        return vx * vx + vy * vy - 1e-6

    def escape(t, z):
        return z[0] * z[0] + z[1] * z[1] - 25.0

    section.direction = rng.choice((-1.0, 0.0, 1.0))
    speed.direction = -1.0
    escape.direction = 1.0
    return [section, speed, escape]


@pytest.mark.parametrize("seed", range(16))
def test_polynomial_fields_match_scipy(seed):
    rng = random.Random(f"ode-field:{seed}")
    rhs = _poly_field(rng)
    z0 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
    t1 = rng.uniform(0.5, 30.0)
    max_step = rng.choice((np.inf, 0.05, 0.7))
    rtol = rng.choice((1e-11, 1e-8, 1e-5))
    kw = dict(rtol=rtol, atol=min(rtol, 1e-13), max_step=max_step)
    _twin(rhs, (0.0, t1), z0, **kw)
    _twin(rhs, (0.0, t1), z0, events=_events(rng, rhs, z0), **kw)
    _twin(rhs, (0.0, flow.PREFLIGHT * (1.0 + math.hypot(*z0))), z0, **kw)


def test_step_size_failure_matches_scipy():
    def blow_up(t, z):
        return (z[0] * z[0], -z[1])

    ours = _twin(blow_up, (0.0, 2.0), np.array([1.0, 1.0]),
                 rtol=1e-11, atol=1e-13)
    assert ours.status == -1 and ours.message == ode.TOO_SMALL_STEP


def test_coefficients_are_scipys():
    dop = scipy.integrate.DOP853
    assert np.array_equal(ode._A[:12, :12], dop.A)
    assert np.array_equal(ode._A[13:], dop.A_EXTRA)
    assert np.array_equal(ode._C, np.concatenate([dop.C, [1.0], dop.C_EXTRA]))
    for ours, theirs in ((ode._B, dop.B), (ode._E3, dop.E3),
                         (ode._E5, dop.E5), (ode._D, dop.D)):
        assert np.array_equal(ours, theirs)


# ---- brentq --------------------------------------------------------------------

TOLERANCES = ((1e-14, 8.9e-16), (1e-15, 8.9e-16), (4 * ode.EPS, 4 * ode.EPS))


def _brackets(n):
    rng = random.Random("ode-brentq")
    for k in range(n):
        r = rng.uniform(-3, 3)
        kind = k % 5
        scale = 10.0 ** rng.uniform(-200, 5) if kind == 4 else 1.0
        if kind == 0:
            def f(x, r=r): return x - r
        elif kind == 1:
            c = rng.uniform(-2, 2)
            def f(x, r=r, c=c): return (x - r) * (1.0 + c * c * (x - r) ** 2)
        elif kind == 2:
            c = 10.0 ** rng.uniform(-6, -2)
            def f(x, r=r, c=c): return (x - r) ** 3 + c * (x - r)
        elif kind == 3:
            c = rng.uniform(0.5, 8)
            def f(x, r=r, c=c): return math.tanh(c * (x - r)) + 1e-3 * (x - r)
        else:
            def f(x, r=r, s=scale): return s * math.expm1(x - r)
        a, b = r - rng.uniform(1e-6, 4), r + rng.uniform(1e-6, 4)
        if rng.random() < 0.5:
            a, b = b, a
        yield f, a, b


@pytest.mark.parametrize("xtol,rtol", TOLERANCES)
def test_brentq_matches_scipy(xtol, rtol):
    n = 0
    for f, a, b in _brackets(1000):
        ours = ode.brentq(f, a, b, xtol, rtol)
        assert ours == scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
        n += 1
    assert n == 1000
    # a root at either end is returned as given
    assert ode.brentq(lambda x: x, 0.0, 1.0, xtol, rtol) == 0.0
    assert ode.brentq(lambda x: x - 1.0, 0.0, 1.0, xtol, rtol) == 1.0


def test_brentq_errors_match_scipy():
    for error, f, a, b in (
            (ValueError, lambda x: x * x + 1.0, -1.0, 1.0),     # no sign change
            (ValueError, lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0),
            (RuntimeError, lambda x: (x - 0.1) ** 3, -2.0, 0.5)):  # too flat
        with pytest.raises(error) as ref:
            scipy.optimize.brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)
        with pytest.raises(error) as ours:
            ode.brentq(f, a, b, 1e-14, 8.9e-16)
        assert str(ours.value) == str(ref.value)
