"""Picard-Lefschetz monodromy for the fibrations ``y^2 = p(x) + t``.

The fiber over t is the hyperelliptic curve ``y^2 = p(x) + t``; its
branch points are the roots of ``p(x) + t`` and its first homology has
rank deg(p) - 1, generated by the chain of cycles over consecutive
branch-point pairs.  Loops in the t-plane around a critical value braid
the branch points, and each elementary crossing of two projection-order
adjacent points acts on homology as the Picard-Lefschetz twist by the
chain cycle at that position.

Crossings are read off in a rotated projection frame when the default
real-axis projection degenerates (conjugate pairs of a real polynomial
are persistently tied there).  The rotation is itself tracked as part
of the braid - the frame turns from 0 to the working angle before the
loop and back after it - so the reported matrices always act in the
basis attached to the (Re, Im)-sorted branch points, whatever angle the
tracker ends up needing.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .poly import Poly, _gaussian_det
from .ratfunc import UPoly, fiber_adjugate, upoly_gcd

TRACK_ANGLES = (0.0, math.pi / 7.0, math.pi / 3.0)
MATCH_FRACTION = 0.25
MAX_DEPTH = 48
COLLISION_REL = 1e-9
RETURN_TOL = 1e-8
TIE_REL = 1e-9
EIG_BLOCK = 64
_self = sys.modules[__name__]  # a bare global read never reaches __getattr__


def __getattr__(name):
    # import scipy.optimize (about 0.5 s) on first use, not at module load
    if name != "linear_sum_assignment":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linear_sum_assignment
    globals()[name] = linear_sum_assignment
    return linear_sum_assignment


class _RetryTracking(Exception):
    """Projection-frame degeneracy; retry with the next angle."""


# ---- integer linear algebra -------------------------------------------------

def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

def _mat_vec(a, v):
    return [sum(r[k] * v[k] for k in range(len(v))) for r in a]

def hermite_basis(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Row-style Hermite form of the lattice the rows generate."""
    rows = [list(map(int, r)) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    top = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(top, len(rows)) if rows[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][col]))
            i0, i1 = nz[0], nz[1]
            q = rows[i1][col] // rows[i0][col]
            rows[i1] = [a - q * b for a, b in zip(rows[i1], rows[i0])]
        nz = [i for i in range(top, len(rows)) if rows[i][col] != 0]
        if not nz:
            continue
        rows[top], rows[nz[0]] = rows[nz[0]], rows[top]
        if rows[top][col] < 0:
            rows[top] = [-a for a in rows[top]]
        p = rows[top][col]
        for i in range(top):
            q = rows[i][col] // p
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[top])]
        top += 1
    return [tuple(r) for r in rows[:top]]


def chain_intersection(rank: int) -> tuple[tuple[int, ...], ...]:
    """Antisymmetric A-chain pairing: consecutive cycles meet once."""
    s = [[0] * rank for _ in range(rank)]
    for i in range(rank - 1):
        s[i][i + 1] = 1
        s[i + 1][i] = -1
    return tuple(tuple(r) for r in s)

def twist_matrix(inter, delta) -> tuple[tuple[int, ...], ...]:
    """Picard-Lefschetz twist ``v -> v + <v, delta> delta`` as a matrix."""
    n = len(delta)
    sd = [sum(inter[j][k] * delta[k] for k in range(n)) for j in range(n)]
    return tuple(
        tuple((1 if i == j else 0) + delta[i] * sd[j] for j in range(n))
        for i in range(n)
    )


# ---- model ------------------------------------------------------------------

@dataclass
class HomologyLattice:
    rank: int
    labels: tuple[str, ...]
    intersection: tuple[tuple[int, ...], ...]


@dataclass
class FibrationModel:
    p: Poly
    base: float
    critical_values: tuple[complex, ...]   # ordered by angle seen from base
    branch_points: tuple[complex, ...]     # roots of p + base, (Re, Im) sorted
    lattice: HomologyLattice
    _coeffs: np.ndarray                    # descending, complex

    @property
    def degree(self) -> int:
        return len(self.branch_points)


@dataclass
class MonodromyOperator:
    index: int
    critical_value: complex
    matrix: tuple[tuple[int, ...], ...]
    delta: tuple[int, ...]
    root_return_error: float

    def inverse(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.delta)
        m = [list(r) for r in self.matrix]
        for i in range(n):
            for j in range(n):
                m[i][j] = 2 * (1 if i == j else 0) - m[i][j]
        return tuple(tuple(r) for r in m)

    def __call__(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(_mat_vec(self.matrix, list(v)))


@dataclass
class OrbitReport:
    start: tuple[int, ...]
    generators: tuple[MonodromyOperator, ...]
    basis: tuple[tuple[int, ...], ...]
    rank: int


def _real_fraction_coeffs(p: Poly) -> list[Fraction]:
    vs = [i for i in range(len(p.vars)) if p.degree_in(i) > 0]
    if len(vs) != 1:
        raise InputError("need a nonconstant polynomial in exactly one variable")
    out = []
    for cp in p.univariate_in(vs[0]):
        c = cp.coefficient((0,) * len(p.vars))
        if not c.is_real:
            raise InputError("fibration polynomials must have real coefficients")
        out.append(c.re)
    return out


def _genericity_failure(coeffs: list[Fraction],
                        chi: UPoly | None = None) -> str | None:
    """Exact squarefree tests for critical points and critical values; the
    latter on chi(t) of ``fiber_adjugate``, computed here unless given."""
    dp = UPoly(coeffs).diff()
    if upoly_gcd(dp, dp.diff()).degree > 0:
        return "repeated critical points"
    if chi is None:
        chi = fiber_adjugate(coeffs)[0]
    if upoly_gcd(chi, chi.diff()).degree > 0:
        return "repeated critical values"
    return None


def _descending(coeffs: list[Fraction]) -> np.ndarray:
    return np.array([float(c) for c in coeffs[::-1]], dtype=complex)


def _polished_roots(coeffs: np.ndarray, newton_steps: int,
                    shift: complex = 0.0) -> np.ndarray:
    """Roots of descending ``coeffs`` + ``shift`` (on the constant term) after
    ``newton_steps`` Newton steps; each caller's digits depend on its count."""
    c = coeffs.copy()
    c[-1] += shift
    r = np.roots(c)
    for _ in range(newton_steps):
        r = r - np.polyval(c, r) / np.polyval(np.polyder(c), r)
    return r


def _critical_values(coeffs: list[Fraction]) -> list[complex]:
    """Critical values t = -p(c) at the zeros c of p', from the ascending
    exact coefficients of p."""
    dcf = np.array([float(c * e) for e, c in enumerate(coeffs)][:0:-1],
                   dtype=complex)
    cf = _descending(coeffs)
    return [-complex(np.polyval(cf, c)) for c in _polished_roots(dcf, 8)]


def _match_roots(ref: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """``roots`` reordered to follow ``ref`` with least total displacement."""
    cost = np.abs(ref[:, None] - roots[None, :])
    _, cols = _self.linear_sum_assignment(cost)
    return roots[cols]


def _min_gap(zs: list[complex]) -> float:
    """Smallest distance between two of the points ``zs``."""
    return min(abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1:])


def build_model(p: Poly, base: float | None = None) -> FibrationModel:
    """Critical values of y^2 - p(x), base fiber data, and the chain lattice.

    The base point is real, left of every critical value by at least one
    unit; critical values are listed by angle seen from the base (ties
    by distance), branch points by (Re, Im).
    """
    coeffs = _real_fraction_coeffs(p)
    m = len(coeffs) - 1
    if m < 3:
        raise InputError(
            f"degree {m} gives a rank-{m - 1} lattice; degree 3 or more needed"
        )
    reason = _genericity_failure(coeffs)
    if reason is not None:
        raise InputError(f"non-generic polynomial: {reason}")

    cvals = _critical_values(coeffs)
    scale = 1.0 + max(abs(c) for c in cvals)
    if _min_gap(cvals) < 1e-9 * scale:
        raise NumericError("critical values too close to separate")

    if base is None:
        base = math.floor(min(c.real for c in cvals)) - 2.0
    base = float(base)
    if any(base >= c.real - 1.0 for c in cvals):
        raise InputError("base point must sit left of every critical value")

    cvals.sort(key=lambda c: (cmath.phase(c - base), abs(c - base)))

    cf = _descending(coeffs)
    branch = sorted((complex(z) for z in _polished_roots(cf, 8, shift=base)),
                    key=lambda z: (z.real, z.imag))
    if _min_gap(branch) < 1e-9 * (1.0 + max(abs(z) for z in branch)):
        raise NumericError("branch points at the base fiber are too close")

    rank = m - 1
    lattice = HomologyLattice(
        rank=rank,
        labels=tuple(f"g{i + 1}" for i in range(rank)),
        intersection=chain_intersection(rank),
    )
    return FibrationModel(p=p, base=base, critical_values=tuple(cvals),
                          branch_points=tuple(branch), lattice=lattice,
                          _coeffs=cf)


# ---- loop geometry ----------------------------------------------------------

def _arc_samples(center: complex, radius: float, a0: float, sweep: float,
                 n: int) -> list[complex]:
    return [center + radius * cmath.exp(1j * (a0 + sweep * k / n))
            for k in range(1, n + 1)]

def _segment_samples(z0: complex, z1: complex, n: int) -> list[complex]:
    return [z0 + (z1 - z0) * k / n for k in range(1, n + 1)]


def _approach_path(model: FibrationModel, j: int) -> tuple[list[complex], float]:
    """Polyline b -> entry point of the j-th loop, detouring left around
    any other critical value sitting close to the straight segment."""
    cvals = model.critical_values
    cj = cvals[j]
    b = complex(model.base)
    others = [c for i, c in enumerate(cvals) if i != j]
    mind = min(abs(cj - c) for c in others) if others else 2.0
    rho = 0.1 * mind
    u = (cj - b) / abs(cj - b)
    entry = cj - rho * u
    span = abs(entry - b)

    detours = []
    for c in others:
        dk = min(abs(c - o) for o in cvals if o != c)
        rad = min(0.15 * dk, 0.4 * abs(c - b), 0.4 * abs(c - entry))
        # distance from c to the segment, via projection parameter
        s = ((c - b) / (entry - b)).real
        s_cl = min(1.0, max(0.0, s))
        if abs(b + s_cl * (entry - b) - c) >= rad:
            continue
        off2 = rad * rad - abs(b + s * (entry - b) - c) ** 2
        half = math.sqrt(max(off2, 0.0)) / span
        s_in, s_out = s - half, s + half
        if not (0.0 < s_in and s_out < 1.0):
            raise NumericError("detour overlaps a path endpoint")
        detours.append((s_in, s_out, c, rad))
    detours.sort()
    for (a0, a1, _, _), (b0, _, _, _) in zip(detours, detours[1:]):
        if b0 <= a1:
            raise NumericError("overlapping detours; critical values too close")

    pts: list[complex] = []
    prev = b
    nvec = 1j * u
    for s_in, s_out, c, rad in detours:
        z_in = b + s_in * (entry - b)
        z_out = b + s_out * (entry - b)
        pts.extend(_segment_samples(prev, z_in, 128))
        a_in = cmath.phase(z_in - c)
        a_out = cmath.phase(z_out - c)
        ccw = (a_out - a_in) % (2.0 * math.pi)
        for sweep in (ccw, ccw - 2.0 * math.pi):
            mid = cmath.exp(1j * (a_in + sweep / 2.0))
            if (mid.real * nvec.real + mid.imag * nvec.imag) > 0.0:
                break
        pts.extend(_arc_samples(c, rad, a_in, sweep,
                                max(32, int(96 * abs(sweep) / math.pi))))
        prev = z_out
    pts.extend(_segment_samples(prev, entry, 128))
    return pts, rho


def _loop_samples(model: FibrationModel, j: int,
                  theta: float) -> list[tuple[complex, float, bool]]:
    """(t, frame angle, on-critical-circle) samples for the j-th loop."""
    b = complex(model.base)
    approach, rho = _approach_path(model, j)
    cj = model.critical_values[j]
    entry = approach[-1]
    circle = _arc_samples(cj, rho, cmath.phase(entry - cj), 2.0 * math.pi, 256)

    samples: list[tuple[complex, float, bool]] = [(b, 0.0, False)]
    if theta != 0.0:
        samples.extend((b, theta * k / 48, False) for k in range(1, 49))
    samples.extend((z, theta, False) for z in approach)
    samples.extend((z, theta, True) for z in circle)
    samples.extend((z, theta, False) for z in approach[-2::-1])
    samples.append((b, theta, False))
    if theta != 0.0:
        samples.extend((b, theta * (48 - k) / 48, False) for k in range(1, 49))
    return samples


# ---- braid tracking ---------------------------------------------------------

def _roots_along(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row k holds the roots of descending ``coeffs`` + ``ts[k]``, exactly as
    ``np.roots`` returns them: ``eigvals`` on stacks of the companion
    matrices ``np.roots`` builds, so the values and their order are
    bit-identical to a ``np.roots`` call per t."""
    # a loop passes each point of its approach path twice
    ts, back = np.unique(ts, return_inverse=True)
    n = len(coeffs) - 1
    c = np.repeat(coeffs[None, :], len(ts), axis=0)
    c[:, -1] += ts
    out = np.empty((len(ts), n), dtype=complex)
    # in blocks, so that the matrices stay small next to the roots
    for k0 in range(0, len(ts), EIG_BLOCK):
        cb = c[k0:k0 + EIG_BLOCK]
        comp = np.zeros((len(cb), n, n), dtype=complex)
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        comp[:, 0, :] = -cb[:, 1:] / cb[:, :1]
        out[k0:k0 + EIG_BLOCK] = np.linalg.eigvals(comp)
    # np.roots strips a zero constant term and appends its root last
    for k in np.flatnonzero(c[:, -1] == 0):
        out[k] = _polished_roots(coeffs, 0, shift=ts[k])
    return out[back]


def _t_text(t: complex) -> str:
    return f"{t.real:.6g}{t.imag:+.6g}j"


class _Tracker:
    """Carries the matched root configuration and the accumulated twist
    along the loop around the critical value with the given index."""

    def __init__(self, model: FibrationModel, index: int):
        self.index = index
        self.coeffs = model._coeffs
        self.roots = np.array(model.branch_points, dtype=complex)
        self.scale = 1.0 + float(np.max(np.abs(self.roots)))
        n = model.lattice.rank
        self.inter = model.lattice.intersection
        self.matrix = _identity(n)

    def _orders(self, roots: np.ndarray, phis) -> np.ndarray:
        """Row i's projection order at frame angle ``phis[i]``, as row
        indices.  Sort by projected real part, but a chain of real parts
        each closer than the root finder's noise floor to the next is a tie
        and falls through to the imaginary part (the limit of a slightly
        positive frame angle).  Without the tie a conjugate pair on a real
        segment flips order at random and emits fake crossings."""
        rot = np.array([cmath.exp(-1j * phi) for phi in phis])
        w = roots * rot[:, None]
        by_re = np.argsort(w.real, axis=1, kind="stable")
        re = np.take_along_axis(w.real, by_re, axis=1)
        group = np.zeros(re.shape, dtype=int)
        group[:, 1:] = np.cumsum(np.diff(re, axis=1) >= TIE_REL * self.scale,
                                 axis=1)
        im = np.take_along_axis(w.imag, by_re, axis=1)
        return np.take_along_axis(by_re, np.lexsort((im, group), axis=-1),
                                  axis=1)

    def _emit(self, k: int, sign: int):
        # left-multiply by the elementary twist, which moves row k alone
        m = self.matrix
        coef = [(j, sign * self.inter[j][k]) for j in range(len(m))
                if self.inter[j][k]]
        m[k] = [v + sum(c * m[j][col] for j, c in coef)
                for col, v in enumerate(m[k])]

    def _events(self, r0, r1, ord0, ord1, phi0,
                phi1) -> list[tuple[int, int]] | None:
        """The signed adjacent transpositions taking projection order
        ``ord0`` of ``r0`` to ``ord1`` of ``r1`` (both in tracked labels),
        or None when the change is not a set of disjoint adjacent swaps."""
        pos1 = {idx: p for p, idx in enumerate(ord1)}
        perm = [pos1[idx] for idx in ord0]
        m = len(perm)
        ks, k = [], 0
        while k < m:
            if perm[k] == k:
                k += 1
            elif k + 1 < m and perm[k] == k + 1 and perm[k + 1] == k:
                ks.append(k)
                k += 2
            else:
                return None
        out = []
        rot0, rot1 = cmath.exp(-1j * phi0), cmath.exp(-1j * phi1)
        for k in ks:
            a, bb = ord0[k], ord0[k + 1]
            d0 = (r0[a] - r0[bb]) * rot0
            d1 = (r1[a] - r1[bb]) * rot1
            den = d0.real - d1.real
            lam = d0.real / den if den != 0.0 else 0.5
            imc = d0.imag + lam * (d1.imag - d0.imag)
            if abs(imc) < 1e-11 * self.scale:
                raise _RetryTracking("crossing with ambiguous handedness")
            out.append((k, 1 if imc < 0.0 else -1))
        return out

    def _commit(self, new, events, t1: complex, collided: bool):
        for k, sign in events:
            self._emit(k, sign)
        if collided:
            raise NumericError(
                "two branch points collided away from the critical circle "
                f"(critical value {self.index}, t = {_t_text(t1)})")
        self.roots = new

    def sweep(self, samples, depth: int = 0):
        """Track the roots along all samples, with the per-sample work done
        on whole arrays.

        A step is taken when the nearest-neighbour match is a bijection
        moving every root by less than ``MATCH_FRACTION`` times the minimum
        separation (then it is the unique least-displacement assignment,
        the one ``_match_roots`` finds) and no collision is due; where the
        projection order changes, ``_events`` reads its crossings.  A step
        whose match is rejected, or whose crossings do not disentangle, is
        bisected: the same sweep runs over its two halves, one level deeper.
        """
        n = len(self.roots)
        roots = np.empty((len(samples), n), dtype=complex)
        roots[0] = self.roots
        roots[1:] = _roots_along(
            self.coeffs, np.array([s[0] for s in samples[1:]], dtype=complex))
        # one root at a time: temporaries the size of ``roots``, not n times it
        sep = np.full(len(samples), np.inf)
        for a in range(n - 1):
            sep = np.minimum(sep, np.abs(roots[:, a + 1:]
                                         - roots[:, a:a + 1]).min(axis=1))
        near = np.empty((len(samples) - 1, n), dtype=int)
        move = np.zeros(len(samples) - 1)
        for a in range(n):
            dist = np.abs(roots[1:] - roots[:-1, a:a + 1])
            near[:, a] = dist.argmin(axis=1)
            move = np.maximum(move, dist.min(axis=1))
        matched = ((np.sort(near, axis=1) == np.arange(n)).all(axis=1)
                   & (move < MATCH_FRACTION * sep[:-1]))
        order = self._orders(roots, [s[1] for s in samples])
        still = (np.take_along_axis(near, order[:-1], axis=1)
                 == order[1:]).all(axis=1)
        # collision detection is waived on the critical circle, where the
        # vanishing pair legitimately gets close
        check = np.array([not (s0[2] and s1[2])
                          for s0, s1 in zip(samples, samples[1:])])
        collided = check & (sep[1:] < COLLISION_REL * self.scale)
        fast = matched & still & ~collided

        perm = list(range(n))     # tracked root -> its row in ``roots``
        # a fast step that keeps every row in place leaves perm as it is
        busy = ~fast | (near != np.arange(n)).any(axis=1)
        for i in np.flatnonzero(busy).tolist():
            row = near[i].tolist()
            nxt = [row[a] for a in perm]
            if fast[i]:
                perm = nxt
                continue
            s0, s1 = samples[i], samples[i + 1]
            self.roots = roots[i][perm]
            events = None
            if matched[i]:
                new = roots[i + 1][nxt]
                events = [] if still[i] else self._events(
                    self.roots, new, np.argsort(perm)[order[i]].tolist(),
                    np.argsort(nxt)[order[i + 1]].tolist(), s0[1], s1[1])
            if events is not None:
                self._commit(new, events, s1[0], bool(collided[i]))
                perm = nxt
                continue
            if depth >= MAX_DEPTH:
                if not matched[i]:
                    raise NumericError(
                        "root tracking lost between samples (critical value "
                        f"{self.index}, t from {_t_text(s0[0])} to "
                        f"{_t_text(s1[0])}, frame angle {float(s1[1]):.6g})")
                raise _RetryTracking("crossing pattern did not disentangle")
            mid = (0.5 * (s0[0] + s1[0]), 0.5 * (s0[1] + s1[1]),
                   s0[2] and s1[2])
            self.sweep([s0, mid, s1], depth + 1)
            # the sub-sweep ends on the roots at s1, a reordering of the row
            perm = np.abs(roots[i + 1][None, :]
                          - self.roots[:, None]).argmin(axis=1).tolist()
        self.roots = roots[-1][perm]


def _primitive_delta(matrix, inter) -> tuple[int, ...]:
    n = len(matrix)
    cols = []
    for j in range(n):
        col = [matrix[i][j] - (1 if i == j else 0) for i in range(n)]
        if any(col):
            cols.append(col)
    if not cols:
        raise _RetryTracking("loop acted trivially; homotopy class lost")
    delta = cols[0]
    g = 0
    for a in delta:
        g = math.gcd(g, abs(a))
    delta = [a // g for a in delta]
    for a in delta:
        if a != 0:
            if a < 0:
                delta = [-x for x in delta]
            break
    # all columns must be integer multiples of delta
    for col in cols:
        ks = {c // d for c, d in zip(col, delta) if d != 0}
        if len(ks) != 1:
            raise _RetryTracking("monodromy image is not a line")
        kk = ks.pop()
        if any(c != kk * d for c, d in zip(col, delta)):
            raise _RetryTracking("monodromy image is not a line")
    dt = tuple(delta)
    if twist_matrix(inter, dt) != tuple(tuple(r) for r in matrix):
        raise _RetryTracking("operator is not the twist by its vanishing cycle")
    return dt


def _generator_for(model: FibrationModel, j: int,
                   theta: float) -> MonodromyOperator:
    tracker = _Tracker(model, j)
    tracker.sweep(_loop_samples(model, j, theta))
    err = 0.0
    base_roots = np.array(model.branch_points, dtype=complex)
    for z in tracker.roots:
        err = max(err, float(np.min(np.abs(base_roots - z))))
    if err > RETURN_TOL * tracker.scale:
        raise NumericError(
            f"roots did not return to the base configuration after the loop "
            f"around critical value {j} (err {err:.2e})"
        )
    mat = tuple(tuple(r) for r in tracker.matrix)
    delta = _primitive_delta(tracker.matrix, model.lattice.intersection)
    if _gaussian_det([[(v, 0) for v in r] for r in tracker.matrix]) != (1, 0):
        raise NumericError("monodromy operator has determinant != 1")
    return MonodromyOperator(index=j,
                             critical_value=model.critical_values[j],
                             matrix=mat, delta=delta, root_return_error=err)


def monodromy_generators(model: FibrationModel) -> list[MonodromyOperator]:
    """One Picard-Lefschetz operator per critical value, base-point loops
    in the standard segment-circle-segment shape."""
    ops = []
    for j in range(len(model.critical_values)):
        last: Exception | None = None
        op = None
        for theta in TRACK_ANGLES:
            try:
                op = _generator_for(model, j, theta)
                break
            except _RetryTracking as exc:
                last = exc
        if op is None:
            raise NumericError(
                f"braid extraction failed for critical value {j} after "
                f"{len(TRACK_ANGLES)} projection angles: {last}"
            )
        ops.append(op)
    return ops


# ---- orbits and the cycle at infinity ----------------------------------------

def orbit_span(model: FibrationModel, operators: Sequence[MonodromyOperator],
               start: Sequence[int]) -> OrbitReport:
    """Closure of the start cycle under all operators and inverses.

    Breadth-first over rank-increasing images only; the span is operator
    invariant once every adopted vector's images land inside it.
    """
    v0 = [int(a) for a in start]
    if not any(v0):
        raise InputError("orbit start cycle cannot be zero")
    if len(v0) != model.lattice.rank:
        raise InputError("start cycle has the wrong length")
    rows: list[list[int]] = [v0]
    basis = hermite_basis(rows)
    queue = [v0]
    while queue:
        v = queue.pop(0)
        for op in operators:
            for mat in (op.matrix, op.inverse()):
                w = _mat_vec(mat, v)
                trial = hermite_basis(rows + [w])
                if len(trial) > len(basis):
                    rows.append(w)
                    basis = trial
                    queue.append(w)
    return OrbitReport(start=tuple(v0), generators=tuple(operators),
                       basis=tuple(basis), rank=len(basis))


def orbit_ball(operators: Sequence[MonodromyOperator], start: Sequence[int],
               word_length: int = 4) -> list[tuple[int, ...]]:
    """Distinct cycles reachable from the start by words up to the given
    length (the finite stand-in for the full orbit set)."""
    seen = {tuple(int(a) for a in start)}
    frontier = list(seen)
    for _ in range(word_length):
        nxt = []
        for v in frontier:
            for op in operators:
                for mat in (op.matrix, op.inverse()):
                    w = tuple(_mat_vec(mat, list(v)))
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return sorted(seen)


def cycle_at_infinity(model: FibrationModel) -> tuple[int, ...] | None:
    """Class of a large loop over the branch cuts: alternating sum for an
    even number of branch points, trivial (None) for odd."""
    m = model.degree
    if m % 2 == 1:
        return None
    return tuple(1 if i % 2 == 0 else 0 for i in range(model.lattice.rank))
