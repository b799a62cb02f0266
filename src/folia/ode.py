"""DOP853 with dense output and terminal events, and Brent's root finder.

``solve_ivp`` integrates forward in time with the explicit Runge-Kutta
pair of order 8(5,3) of Dormand and Prince (Hairer, Norsett and Wanner,
*Solving ODEs I*, sec. II.10), dense output always on.  Every event is
terminal, with an optional ``direction`` attribute.  ``brentq`` is
Brent's bracketing root finder (*Algorithms for Minimization without
Derivatives*, 1973, ch. 4).

Both are ported from SciPy 1.17.1 (``scipy/integrate/_ivp/{rk,common,
base,ivp}.py``, ``dop853_coefficients.py`` and the C ``brentq``) in
SciPy's order of floating-point operations, so that they return what
``scipy.integrate.solve_ivp(method="DOP853", dense_output=True)`` and
``scipy.optimize.brentq`` return, bit for bit.  The port keeps SciPy's
licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np

EPS = np.finfo(float).eps
MIN_RTOL = float(100 * EPS)   # a smaller rtol is raised to this, with a warning
SAFETY = 0.9        # applied to the asymptotic step-size factor
MIN_FACTOR = 0.2    # largest decrease of the step size
MAX_FACTOR = 10     # largest increase of the step size
ERROR_EXPONENT = -1 / 8   # the error estimator has order 7
BRENTQ_ITER = 100
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}

# DOP853 coefficients: 12 stages, one for the derivative at the new
# point, three more for the dense output.
_C = np.array((0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778))
_A = np.zeros((16, 16))
for _i, _row in enumerate((   # row i of the Runge-Kutta matrix, up to its diagonal
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0, 0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0, 0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0, 0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0, 0, 0, 0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0, 0, 0, 0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0, 0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0, 0, 0, 0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0, 0,
     0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138),
), start=1):
    _A[_i, :len(_row)] = _row
_B = _A[12, :12]
_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_D = np.zeros((4, 16))   # the dense-output weights beyond the first three
_D[:, [0, *range(5, 16)]] = (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
)
# (stage, row of A up to the stage, node) of stages 1-11 and 13-15
_STAGES = [(s, _A[s, :s], _C[s]) for s in range(1, 12)]
_EXTRA = [(s, _A[s, :s], _C[s]) for s in range(13, 16)]


def _norm(x):
    """RMS norm."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _interpolate(x, F, y_old):
    """The dense output at step fraction ``x``: ``y_old`` plus the seven
    rows ``F[..., k, :]`` nested in powers of x and 1 - x, last row first.
    Elementwise, so one step or many stacked steps give the same doubles."""
    y = np.zeros_like(y_old)
    for k in range(6, -1, -1):
        y += F[..., k, :]
        y *= x if k % 2 == 0 else 1 - x
    y += y_old
    return y


class _Dense:
    """The interpolant of one accepted step, at one time."""

    __slots__ = ("t_old", "h", "F", "y_old")

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.h, self.y_old, self.F = t_old, t - t_old, y_old, F

    def __call__(self, t):
        return _interpolate((np.asarray(t) - self.t_old) / self.h, self.F, self.y_old)


class OdeSolution:
    """The dense solution over all steps; a step's end belongs to the step."""

    def __init__(self, ts, interpolants):
        self.ts, self.interpolants = ts, interpolants
        self._stacked = None

    def __call__(self, t):
        """Values at a 1-D array of times, one column per time."""
        if self._stacked is None:
            steps = self.interpolants
            self._stacked = (np.array([s.t_old for s in steps]),
                             np.array([s.h for s in steps]),
                             np.stack([s.F for s in steps]),
                             np.stack([s.y_old for s in steps]))
        t_old, h, F, y_old = self._stacked
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, h.size - 1)
        x = ((t - t_old[seg]) / h[seg])[:, None]
        return _interpolate(x, F[seg], y_old[seg]).T


def _initial_step(fun, t0, y0, f0, interval_length, max_step, rtol, atol):
    """Hairer, Norsett and Wanner, sec. II.4: a first step of size
    ``(0.01 / max(|f0|, |f'|)) ** (1/8)``, in the norm weighted by the
    tolerances."""
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, max_step)


def solve_ivp(fun, t_span, y0, *, rtol, atol, max_step=np.inf, events=()):
    """Integrate ``y' = fun(t, y)`` over ``t_span = (t0, tf)``, tf > t0.

    The result has ``t``, ``y`` (one column per accepted step), ``sol``
    (an ``OdeSolution``), ``t_events``/``y_events`` (None without
    events), ``nfev``, ``status`` (0 reached tf, 1 an event ended the
    run, -1 the step size underflowed), ``message`` and ``success``.
    """
    t0, tf = map(float, t_span)
    if not tf > t0:
        raise ValueError("solve_ivp integrates forward in time only")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if max_step <= 0:
        raise ValueError("`max_step` must be positive.")
    if rtol < MIN_RTOL:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {MIN_RTOL})`.")
        rtol = np.maximum(rtol, MIN_RTOL)
    atol = np.asarray(atol)
    if atol < 0:
        raise ValueError("`atol` must be positive.")

    t = t0
    f = np.asarray(fun(t, y), dtype=float)
    h_abs = _initial_step(fun, t, y, f, tf - t0, max_step, rtol, atol)
    nfev = 2
    K_extended = np.empty((16, y.size))
    K = K_extended[:13]
    ts, ys, interpolants = [t0], [y0], []
    g = [event(t0, y0) for event in events]
    event_dir = np.array([getattr(event, "direction", 0) for event in events],
                         dtype=float)
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    status = None
    while status is None:
        # one step: retry with smaller steps until the error estimate is < 1
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            if t_new - tf > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, a, c in _STAGES:
                K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = np.asarray(fun(t + h, y_new), dtype=float)
            K[-1] = f_new
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K.T, _E5) / scale
            err3 = np.dot(K.T, _E3) / scale
            err5_2 = np.sqrt(err5.dot(err5)) ** 2
            err3_2 = np.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = (np.abs(h) * err5_2
                              / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale)))
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        if t_new - tf >= 0:
            status = 0

        # dense output over the step
        for s, a, c in _EXTRA:
            K_extended[s] = fun(t + c * h, y + np.dot(K_extended[:s].T, a) * h)
        nfev += 3
        F = np.empty((7, y.size))
        f_old = K_extended[0]
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * np.dot(_D, K_extended)
        sol = _Dense(t, t_new, y, F)
        interpolants.append(sol)
        t_old, t, y, f = t, t_new, y_new, f_new

        t_end, y_end = t, y
        if events:
            g_new = [event(t, y) for event in events]
            g0, g1 = np.asarray(g), np.asarray(g_new)
            up = (g0 <= 0) & (g1 >= 0)
            down = (g0 >= 0) & (g1 <= 0)
            active = np.nonzero(up & (event_dir > 0) | down & (event_dir < 0)
                                | (up | down) & (event_dir == 0))[0]
            if active.size > 0:
                roots = np.asarray([
                    brentq(lambda s: events[e](s, sol(s)), t_old, t,
                           4 * EPS, 4 * EPS)
                    for e in active])
                first = np.argsort(roots)[0]
                t_end = roots[first]
                y_end = sol(t_end)
                t_events[active[first]].append(t_end)
                y_events[active[first]].append(y_end)
                status = 1
            g = g_new
        if len(ts) > 1 and ts[-1] == t_end:
            interpolants.pop()
        else:
            ts.append(t_end)
            ys.append(y_end)

    ts = np.array(ts)
    return SimpleNamespace(
        t=ts, y=np.vstack(ys).T, sol=OdeSolution(ts, interpolants),
        t_events=[np.asarray(te) for te in t_events] if events else None,
        y_events=[np.asarray(ye) for ye in y_events] if events else None,
        nfev=nfev, status=status, message=MESSAGES.get(status, TOO_SMALL_STEP),
        success=status >= 0)


def brentq(f, a, b, xtol, rtol):
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Inverse quadratic extrapolation or secant steps, falling back to
    bisection; the root is within ``xtol + rtol * |x|`` of the result.
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C gives inf or nan: bisect below
                stry = np.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry   # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_ITER} iterations.")
