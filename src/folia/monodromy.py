"""Picard-Lefschetz monodromy for the fibrations ``y^2 = p(x) + t``.

The fiber over t is the hyperelliptic curve ``y^2 = p(x) + t``; its
branch points are the roots of ``p(x) + t`` and its first homology has
rank deg(p) - 1, generated by the chain of cycles over consecutive
branch-point pairs.  Loops in the t-plane around a critical value braid
the branch points, and each elementary crossing of two projection-order
adjacent points acts on homology as the Picard-Lefschetz twist by the
chain cycle at that position.  The loops and the tracking along them
are ``folia.braid``, imported when ``monodromy_generators`` first runs:
``picard-fuchs`` uses only the fiber helpers here and never compiles it.
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
from .poly import Poly
from .ratfunc import UPoly, fiber_adjugate, upoly_gcd

_self = sys.modules[__name__]  # a bare global read never reaches __getattr__


def __getattr__(name):
    # import scipy.optimize (about 0.5 s) on first use, not at module load
    if name != "linear_sum_assignment":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linear_sum_assignment
    globals()[name] = linear_sum_assignment
    return linear_sum_assignment


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
    if upoly_gcd(dp, dp.diff())[0].degree > 0:
        return "repeated critical points"
    if chi is None:
        chi = fiber_adjugate(coeffs)[0]
    if upoly_gcd(chi, chi.diff())[0].degree > 0:
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
    unit; branch points are listed by (Re, Im), critical values by
    ``cmath.phase(c - base)``, then distance.  Real critical values keep
    imaginary noise (about 1e-155) from the Newton polish, whose sign
    orders them, so the list need not follow the paths' cyclic order
    (ROADMAP item 10).
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


def monodromy_generators(model: FibrationModel) -> list[MonodromyOperator]:
    """One Picard-Lefschetz operator per critical value, base-point loops
    in the standard segment-circle-segment shape."""
    from .braid import _generator_for
    return [_generator_for(model, j) for j in range(len(model.critical_values))]


# ---- orbits and the cycle at infinity ----------------------------------------

def _moves(operators: Sequence[MonodromyOperator]) -> list:
    """The steps of an orbit search: each operator's matrix, then its inverse."""
    return [mat for op in operators for mat in (op.matrix, op.inverse())]


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
    moves = _moves(operators)
    while queue:
        v = queue.pop(0)
        for mat in moves:
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
    moves = _moves(operators)
    for _ in range(word_length):
        nxt = []
        for v in frontier:
            for mat in moves:
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
