"""Braid tracking: the loops of ``monodromy_generators`` and the
Picard-Lefschetz operator each one induces.

Each loop leaves the base point, runs around one critical value and
comes back (``_loop_samples``).  The branch points are followed along it
by certified Aberth continuation between eigensolve anchors
(``_continued_roots``), each step's order changes in the projection to
the real axis are read as elementary crossings (``_Tracker``), and each
crossing multiplies the operator by the twist of its chain cycle.  The
fiber data, the lattice and ``_polished_roots`` (the one ``np.roots``
call, which a tracer counts in ``folia.monodromy``) come from
``folia.monodromy``.  ``monodromy_generators`` imports this module when
it is first called, so the commands that need only the fiber helpers of
``folia.monodromy`` never compile it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericError
from .monodromy import (FibrationModel, MonodromyOperator, _identity,
                        _polished_roots, twist_matrix)
from .poly import _gaussian_det

MATCH_FRACTION = 0.25
MAX_DEPTH = 48
COLLISION_REL = 1e-9
RETURN_TOL = 1e-8
TIE_REL = 1e-9
EIG_BLOCK = 64
ANCHOR_STRIDE = 16
ABERTH_SWEEPS = 4
CERT_REL = 1e-13
CONT_BLOCK = 256


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


def _loop_samples(model: FibrationModel, j: int) -> list[tuple[complex, bool]]:
    """(t, on-critical-circle) samples for the j-th loop."""
    b = complex(model.base)
    approach, rho = _approach_path(model, j)
    cj = model.critical_values[j]
    entry = approach[-1]
    circle = _arc_samples(cj, rho, cmath.phase(entry - cj), 2.0 * math.pi, 256)
    return ([(b, False)] + [(z, False) for z in approach]
            + [(z, True) for z in circle]
            + [(z, False) for z in approach[-2::-1]] + [(b, False)])


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


def _aberth_certified(coeffs: np.ndarray, ts: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """Run ``ABERTH_SWEEPS`` Aberth-Ehrlich sweeps (Bini and Robol, MPSolve
    3, JCAM 2014) in place on ``z``, whose column k holds guesses for the
    roots of descending ``coeffs`` + ``ts[k]``, and return which columns are
    certified: finite, with Weierstrass disks of radius
    ``n |p(z_i) / (a_0 prod_{j != i} (z_i - z_j))|`` pairwise disjoint, so
    that each holds exactly one root (Braess and Hadeler, Numer. Math. 21,
    1973), and none wider than ``CERT_REL`` times the column's root scale.
    Loops run over roots, so temporaries are the size of ``z``."""
    n = len(z)
    others = [np.roll(np.arange(n), k) for k in range(1, n)]

    def horner():     # p(z) and p'(z), column k's constant term moved by ts[k]
        p, dp = np.full_like(z, coeffs[0]), np.zeros_like(z)
        for a in [*coeffs[1:-1], coeffs[-1] + ts]:
            dp *= z
            dp += p
            p *= z
            p += a
        return p, dp

    with np.errstate(all="ignore"):   # a column that overflows fails below
        for _ in range(ABERTH_SWEEPS):
            p, dp = horner()
            s = np.zeros_like(z)      # s_i = sum over j != i of 1/(z_i - z_j)
            for o in others:
                s += 1.0 / (z - z[o])
            newton = p / dp
            z -= newton / (1.0 - newton * s)
        prod = np.full_like(z, coeffs[0])
        for o in others:
            prod *= z - z[o]
        radius = n * np.abs(horner()[0] / prod)
        ok = (np.isfinite(z).all(axis=0)
              & (radius.max(axis=0) < CERT_REL * (1.0 + np.abs(z).max(axis=0))))
        for o in others:
            ok &= (np.abs(z - z[o]) > radius + radius[o]).all(axis=0)
    return ok


def _continued_roots(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Row k holds the roots of descending ``coeffs`` + ``ts[k]``, ``ts`` in
    path order.  Every ``ANCHOR_STRIDE``-th row, an anchor, comes from
    ``_roots_along``; each row between two anchors is continued from the
    anchor before it by ``_aberth_certified``, ``CONT_BLOCK`` rows at a
    time, and a row that fails the certificate comes from ``_roots_along``
    as well."""
    out = np.empty((len(ts), len(coeffs) - 1), dtype=complex)
    out[::ANCHOR_STRIDE] = _roots_along(coeffs, ts[::ANCHOR_STRIDE])
    between = np.flatnonzero(np.arange(len(ts)) % ANCHOR_STRIDE)
    failed = []
    for k0 in range(0, len(between), CONT_BLOCK):
        rows = between[k0:k0 + CONT_BLOCK]
        z = out[rows - rows % ANCHOR_STRIDE].T.copy()
        ok = _aberth_certified(coeffs, ts[rows], z)
        out[rows[ok]] = z.T[ok]
        failed.extend(rows[~ok].tolist())
    if failed:
        out[failed] = _roots_along(coeffs, ts[failed])
    return out


def _t_text(t: complex) -> str:
    return f"{t.real:.6g}{t.imag:+.6g}j"


def _braid_failure(index: int, reason: str) -> NumericError:
    return NumericError(
        f"braid extraction failed for critical value {index}: {reason}")


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

    def _orders(self, roots: np.ndarray) -> np.ndarray:
        """Each row's projection order, as row indices.  Sort by real part,
        but a chain of real parts each closer than the root finder's noise
        floor to the next is a tie and falls through to the imaginary part
        (the limit of a projection turned slightly counterclockwise).
        Without the tie a conjugate pair on a real segment flips order at
        random and emits fake crossings."""
        by_re = np.argsort(roots.real, axis=1, kind="stable")
        re = np.take_along_axis(roots.real, by_re, axis=1)
        group = np.zeros(re.shape, dtype=int)
        group[:, 1:] = np.cumsum(np.diff(re, axis=1) >= TIE_REL * self.scale,
                                 axis=1)
        im = np.take_along_axis(roots.imag, by_re, axis=1)
        return np.take_along_axis(by_re, np.lexsort((im, group), axis=-1),
                                  axis=1)

    def _emit(self, k: int, sign: int):
        # left-multiply by the elementary twist, which moves row k alone
        m = self.matrix
        coef = [(j, sign * self.inter[j][k]) for j in range(len(m))
                if self.inter[j][k]]
        m[k] = [v + sum(c * m[j][col] for j, c in coef)
                for col, v in enumerate(m[k])]

    def _events(self, r0, r1, ord0, ord1) -> list[tuple[int, int]]:
        """The signed adjacent transpositions taking projection order
        ``ord0`` of ``r0`` to ``ord1`` of ``r1`` (both in tracked labels),
        in time order.

        Each pair whose order flips crosses once, at the step fraction
        where its real parts meet on the straight line between the
        samples; of the flipped pairs that are neighbours in the current
        order, the one crossing first swaps next.  A swap changes the
        order of its pair alone, so the pairs still to cross are the
        inversions of the current order against ``ord1``, and one of them
        is always a neighbour pair until the two orders agree.  The sign
        is the side on which the left point of the pair passes."""
        pos1 = {idx: p for p, idx in enumerate(ord1)}
        cross = {}
        for i, a in enumerate(ord0):
            for bb in ord0[i + 1:]:
                if pos1[a] > pos1[bb]:
                    d0, d1 = r0[a] - r0[bb], r1[a] - r1[bb]
                    den = d0.real - d1.real
                    lam = d0.real / den if den != 0.0 else 0.5
                    cross[a, bb] = (lam, d0.imag + lam * (d1.imag - d0.imag))
        cur, out = list(ord0), []
        while cross:
            _, k = min((cross[pair][0], k) for k, pair in
                       enumerate(zip(cur, cur[1:])) if pair in cross)
            imc = cross.pop((cur[k], cur[k + 1]))[1]
            if abs(imc) < 1e-11 * self.scale:
                raise _braid_failure(self.index,
                                     "crossing with ambiguous handedness")
            out.append((k, 1 if imc < 0.0 else -1))
            cur[k], cur[k + 1] = cur[k + 1], cur[k]
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
        whose match is rejected is bisected: the same sweep runs over its
        two halves, one level deeper.
        """
        n = len(self.roots)
        roots = np.empty((len(samples), n), dtype=complex)
        roots[0] = self.roots
        # a loop's own sweep continues its roots; a bisection's 2 samples
        # are eigensolved
        roots[1:] = (_continued_roots if depth == 0 else _roots_along)(
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
        order = self._orders(roots)
        still = (np.take_along_axis(near, order[:-1], axis=1)
                 == order[1:]).all(axis=1)
        # collision detection is waived on the critical circle, where the
        # vanishing pair legitimately gets close
        check = np.array([not (s0[1] and s1[1])
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
            if matched[i]:
                new = roots[i + 1][nxt]
                events = [] if still[i] else self._events(
                    self.roots, new, np.argsort(perm)[order[i]].tolist(),
                    np.argsort(nxt)[order[i + 1]].tolist())
                self._commit(new, events, s1[0], bool(collided[i]))
                perm = nxt
                continue
            if depth >= MAX_DEPTH:
                raise NumericError(
                    "root tracking lost between samples (critical value "
                    f"{self.index}, t from {_t_text(s0[0])} to "
                    f"{_t_text(s1[0])})")
            mid = (0.5 * (s0[0] + s1[0]), s0[1] and s1[1])
            self.sweep([s0, mid, s1], depth + 1)
            # the sub-sweep ends on the roots at s1, a reordering of the row
            perm = np.abs(roots[i + 1][None, :]
                          - self.roots[:, None]).argmin(axis=1).tolist()
        self.roots = roots[-1][perm]


def _primitive_delta(matrix, inter, index: int) -> tuple[int, ...]:
    n = len(matrix)
    cols = []
    for j in range(n):
        col = [matrix[i][j] - (1 if i == j else 0) for i in range(n)]
        if any(col):
            cols.append(col)
    if not cols:
        raise _braid_failure(index, "loop acted trivially; homotopy class lost")
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
            raise _braid_failure(index, "monodromy image is not a line")
        kk = ks.pop()
        if any(c != kk * d for c, d in zip(col, delta)):
            raise _braid_failure(index, "monodromy image is not a line")
    dt = tuple(delta)
    if twist_matrix(inter, dt) != tuple(tuple(r) for r in matrix):
        raise _braid_failure(index,
                             "operator is not the twist by its vanishing cycle")
    return dt


def _generator_for(model: FibrationModel, j: int) -> MonodromyOperator:
    tracker = _Tracker(model, j)
    tracker.sweep(_loop_samples(model, j))
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
    delta = _primitive_delta(tracker.matrix, model.lattice.intersection, j)
    if _gaussian_det([[(v, 0) for v in r] for r in tracker.matrix]) != (1, 0):
        raise NumericError("monodromy operator has determinant != 1")
    return MonodromyOperator(index=j,
                             critical_value=model.critical_values[j],
                             matrix=mat, delta=delta, root_return_error=err)
