import itertools
import json
import math
import random
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from folia import monodromy, parse_poly
from folia.acceptance import _det_int
from folia.errors import InputError, NumericError
from folia.monodromy import (
    _aberth_certified,
    _continued_roots,
    _loop_samples,
    _roots_along,
    _Tracker,
    build_model,
    chain_intersection,
    cycle_at_infinity,
    hermite_basis,
    monodromy_generators,
    orbit_ball,
    orbit_span,
    twist_matrix,
)
from folia.poly import GaussianRational, Poly, _gaussian_det

X = ("x",)
GOLDEN = Path(__file__).parent / "data" / "monodromy_golden.json"


def P(s):
    return parse_poly(s, X)


def mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def preserves_pairing(m, s):
    n = len(s)
    for i in range(n):
        for j in range(n):
            lhs = sum(m[a][i] * s[a][b] * m[b][j] for a in range(n) for b in range(n))
            if lhs != s[i][j]:
                return False
    return True


def random_real_poly(rng, deg):
    terms = {(deg,): rng.choice([1, 2, -1, 3])}
    for k in range(deg):
        c = rng.randint(-6, 6)
        if c and rng.random() < 0.8:
            terms[(k,)] = c
    return Poly(X, terms)


# ---- the depressed cubic, worked by hand ------------------------------------

def test_cubic_critical_values():
    m = build_model(P("x^3 - 3*x"))
    cv = sorted(m.critical_values, key=lambda z: z.real)
    assert abs(cv[0] - (-2.0)) <= 1e-10
    assert abs(cv[1] - 2.0) <= 1e-10
    assert m.degree == 3
    assert m.lattice.rank == 2
    assert m.base < -3.0


def test_cubic_operators():
    m = build_model(P("x^3 - 3*x"))
    ops = monodromy_generators(m)
    assert [op.delta for op in ops] == [(1, 0), (0, 1)]
    assert ops[0].matrix == ((1, -1), (0, 1))
    assert ops[1].matrix == ((1, 0), (1, 1))
    # product around every critical value is the classical order-6
    # elliptic monodromy at infinity: trace 1
    prod = mat_mul(ops[1].matrix, ops[0].matrix)
    assert prod[0][0] + prod[1][1] == 1
    p6 = ((1, 0), (0, 1))
    for _ in range(6):
        p6 = mat_mul(prod, p6)
    assert p6 == ((1, 0), (0, 1))


def test_cubic_orbit_spans_lattice():
    m = build_model(P("x^3 - 3*x"))
    ops = monodromy_generators(m)
    rep = orbit_span(m, ops, (1, 0))
    assert rep.rank == 2
    assert rep.basis == ((1, 0), (0, 1))


def test_cubic_root_return():
    m = build_model(P("x^3 - 3*x"))
    for op in monodromy_generators(m):
        assert op.root_return_error <= 1e-8


# ---- rejections --------------------------------------------------------------

def test_quadratic_rejected():
    with pytest.raises(InputError, match="rank-1"):
        build_model(P("x^2 - 1"))


def test_repeated_critical_values_rejected():
    # x^4 - 2x^2 hits level -1 at both of x = 1 and x = -1
    with pytest.raises(InputError, match="critical values"):
        build_model(P("x^4 - 2*x^2"))


def test_repeated_critical_points_rejected():
    # derivative 4x^3 has a triple root
    with pytest.raises(InputError, match="critical points"):
        build_model(P("x^4 + 1"))


def test_base_must_sit_left():
    with pytest.raises(InputError, match="left"):
        build_model(P("x^3 - 3*x"), base=0.0)


def test_multivariate_rejected():
    q = parse_poly("x*y", ("x", "y"))
    with pytest.raises(InputError):
        build_model(q)


def test_complex_coefficients_rejected():
    q = Poly(X, {(3,): 1, (1,): GaussianRational(0, 1)})
    with pytest.raises(InputError, match="real"):
        build_model(q)


# ---- algebraic structure ------------------------------------------------------

def test_twist_fixes_its_own_cycle():
    s = chain_intersection(4)
    for delta in [(1, 0, 0, 0), (0, 1, -1, 0), (2, 1, 0, -1)]:
        t = twist_matrix(s, delta)
        assert mat_vec(t, delta) == delta
        assert preserves_pairing(t, s)


def test_operators_preserve_pairing_exactly():
    m = build_model(P("x^4 + x^3 - 4*x"))
    s = m.lattice.intersection
    for op in monodromy_generators(m):
        assert preserves_pairing(op.matrix, s)
        inv = op.inverse()
        assert mat_mul(op.matrix, inv) == tuple(
            tuple(1 if i == j else 0 for j in range(m.lattice.rank))
            for i in range(m.lattice.rank)
        )


def test_operator_is_twist_by_its_cycle():
    m = build_model(P("x^5 - 4*x^3 + x + 1"))
    s = m.lattice.intersection
    for op in monodromy_generators(m):
        assert op.matrix == twist_matrix(s, op.delta)


def test_cycle_at_infinity_even_degree():
    m = build_model(P("x^4 + x^3 - 4*x"))
    v = cycle_at_infinity(m)
    assert v == (1, 0, 1)
    s = m.lattice.intersection
    # lies in the kernel of the pairing, so every twist fixes it
    assert all(sum(s[i][j] * v[j] for j in range(3)) == 0 for i in range(3))
    for op in monodromy_generators(m):
        assert op(v) == v


def test_cycle_at_infinity_odd_degree():
    m = build_model(P("x^3 - 3*x"))
    assert cycle_at_infinity(m) is None


def test_orbit_rank_is_conjugation_invariant():
    m = build_model(P("x^4 + x^3 - 4*x"))
    ops = monodromy_generators(m)
    base_rank = orbit_span(m, ops, (1, 0, 0)).rank
    # push the start vector around by a generator; the reachable span
    # cannot change rank
    for op in ops:
        moved = op((1, 0, 0))
        assert orbit_span(m, ops, moved).rank == base_rank


def test_orbit_ball_contained_in_span():
    m = build_model(P("x^4 + x^3 - 4*x"))
    ops = monodromy_generators(m)
    ball = orbit_ball(ops, (1, 0, 0), word_length=3)
    assert (1, 0, 0) in ball
    rows = hermite_basis([list(v) for v in ball])
    assert len(rows) == orbit_span(m, ops, (1, 0, 0)).rank


def test_hermite_basis_shapes():
    rows = [[2, 4, 0], [1, 2, 0], [0, 0, 3]]
    basis = hermite_basis(rows)
    assert len(basis) == 2
    assert basis[0][0] > 0
    # span membership: (1, 2, 0) reduces to zero against the basis
    assert basis[0] == (1, 2, 0)


def test_batched_roots_are_bit_identical_to_np_roots():
    rng = random.Random(17)
    for deg in range(3, 11):
        c = np.array([rng.choice([1, 2, -1, 3])]
                     + [rng.randint(-6, 6) for _ in range(deg - 1)] + [5],
                     dtype=complex)
        ts = [complex(rng.uniform(-30, 30), rng.uniform(-9, 9))
              for _ in range(40)] + [-5.0, -5.0 + 0j]   # zero constant term, repeated
        got = _roots_along(c, np.array(ts))
        for t, row in zip(ts, got):
            shifted = c.copy()
            shifted[-1] += t
            assert np.array_equal(row, np.roots(shifted))


def _seeded_fiber(rng, deg):
    while True:
        try:
            return build_model(random_real_poly(rng, deg))
        except (InputError, NumericError):
            continue


def _loop_ts(m, j):
    # the t values of a loop's top-level sweep, after its start
    return np.array([s[0] for s in _loop_samples(m, j)[1:]])


def _weierstrass(c, row):
    # the inclusion radii n |p(z_i) / (a_0 prod_{j != i} (z_i - z_j))|,
    # written out one root at a time
    n = len(row)
    return np.array([
        n * abs(np.polyval(c, z) / (c[0] * np.prod(np.delete(z - row, i))))
        for i, z in enumerate(row)])


def test_continued_rows_are_np_roots_within_the_certified_bound():
    rng = random.Random(2201)
    continued = 0
    for deg in range(3, 11):
        m = _seeded_fiber(rng, deg)
        last = len(m.critical_values) - 1
        for j in (0, last):
            ts = _loop_ts(m, j)
            got = _continued_roots(m._coeffs, ts)
            # _roots_along is np.roots row for row (tested above)
            for t, row, want in zip(ts, got, _roots_along(m._coeffs, ts)):
                if np.array_equal(row, want):
                    continue        # an anchor or a fallback
                continued += 1
                c = m._coeffs.copy()
                c[-1] += t
                bound = monodromy.CERT_REL * (1.0 + np.abs(row).max())
                radii = _weierstrass(c, row)
                assert radii.max() < bound
                gaps = np.abs(row[:, None] - row[None, :])
                assert (gaps > radii[:, None] + radii[None, :])[
                    ~np.eye(deg, dtype=bool)].all()
                near = np.abs(row[:, None] - want[None, :]).argmin(axis=1)
                assert sorted(near) == list(range(deg))
                # each disk holds one true root, and np.roots is near it
                assert np.abs(row - want[near]).max() < bound
    assert continued > 5000


def test_rows_that_fail_the_certificate_are_eigensolved(monkeypatch):
    m = build_model(P("x^3 - 3*x"))
    # t = 2 is a critical value: x^3 - 3x + 2 = (x - 1)^2 (x + 2) has a
    # double root, so no disks can isolate its roots
    path = _loop_ts(m, 0)[:80]     # no t twice, so a t names its row
    ts = np.concatenate([path[:40], [2.0, 2.0], path[40:]])
    collided = []
    certify = monodromy._aberth_certified

    def colliding_seeds(coeffs, t, z):
        z[1, ::3] = z[0, ::3]   # every third row starts two roots together
        collided.extend(t[::3].tolist())
        return certify(coeffs, t, z)

    monkeypatch.setattr(monodromy, "_aberth_certified", colliding_seeds)
    got = _continued_roots(m._coeffs, ts)
    want = _roots_along(m._coeffs, ts)
    same = [np.array_equal(a, b) for a, b in zip(got, want)]
    assert same[40] and same[41]
    assert collided and all(s for t, s in zip(ts, same) if t in collided)
    assert not all(same)


def test_the_certificate_needs_disjoint_disks_and_small_radii(monkeypatch):
    monkeypatch.setattr(monodromy, "ABERTH_SWEEPS", 0)   # certify the seeds
    e = 2.0 ** -44
    # roots 0, e and 3; every value below is exact in binary floating point
    c = np.array([1.0, -(3.0 + e), 3.0 * e, 0.0], dtype=complex)
    exact = np.array([[0.0], [e], [3.0]], dtype=complex)
    assert _aberth_certified(c, np.zeros(1), exact.copy()).tolist() == [True]
    # radii 0, 3e/2 and 0, far below the bound, but the disk about e/2
    # covers 0: it holds two roots
    overlapping = np.array([[0.0], [e / 2], [3.0]], dtype=complex)
    assert _weierstrass(c, overlapping[:, 0]).max() < monodromy.CERT_REL
    assert _aberth_certified(c, np.zeros(1), overlapping).tolist() == [False]
    # roots 0, 1 and 3, seeds 2^-20 off: disjoint disks, one root apiece,
    # each about 3e-6 wide
    c = np.array([1.0, -4.0, 3.0, 0.0], dtype=complex)
    wide = np.array([[0.0], [1.0], [3.0]], dtype=complex) + 2.0 ** -20
    radii = _weierstrass(c, wide[:, 0])
    assert 1e-6 < radii.max() and radii.max() < 1e-5
    assert _aberth_certified(c, np.zeros(1), wide).tolist() == [False]


def test_overflowing_rows_fail_quietly():
    c = np.array([1.0, 0.0, -3.0, 0.0], dtype=complex)
    z = np.array([[1e200, 1.0], [-1e200, 2.0], [1e100, 3.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok = _aberth_certified(c, np.zeros(2), z)
    assert not ok.any()


def test_eigvals_sees_one_sample_in_sixteen_plus_the_fallbacks(monkeypatch):
    # the degree-8 fiber of the benchmark's monodromy job
    m = build_model(P("3*x^8 + x^7 + 3*x^6 - 3*x^5 + 4*x^4 + 4*x^3 + 2*x^2"
                      " - 4*x - 2"))
    seen, failed = [0], [0]
    eigvals, certify = np.linalg.eigvals, monodromy._aberth_certified

    def count_eigvals(a):
        seen[0] += len(a)
        return eigvals(a)

    def count_failed(*args):
        ok = certify(*args)
        failed[0] += int((~ok).sum())
        return ok

    monkeypatch.setattr(np.linalg, "eigvals", count_eigvals)
    monkeypatch.setattr(monodromy, "_aberth_certified", count_failed)
    total = 0
    for j in range(len(m.critical_values)):
        ts = _loop_ts(m, j)
        seen[0] = failed[0] = 0
        _continued_roots(m._coeffs, ts)
        assert seen[0] <= -(-len(ts) // monodromy.ANCHOR_STRIDE) + failed[0]
        assert failed[0] <= len(ts) // 100
        total += len(ts)
    assert total > 3000


def _order_reference(row, tol):
    # the projection-order rule in plain Python: sort by real part; a
    # chain of neighbours each closer than tol is a tie, sorted by
    # imaginary part
    w = [complex(z) for z in row]
    idx = sorted(range(len(w)), key=lambda a: w[a].real)
    out, k = [], 0
    while k < len(idx):
        g = k + 1
        while g < len(idx) and w[idx[g]].real - w[idx[g - 1]].real < tol:
            g += 1
        out.extend(sorted(idx[k:g], key=lambda a: w[a].imag))
        k = g
    return out


def test_projection_orders_follow_the_tie_rule():
    tracker = _Tracker(build_model(P("x^3 - 3*x")), 0)
    tol = monodromy.TIE_REL * tracker.scale
    rng = random.Random(5150)
    tied = 0
    for n in range(3, 9):
        rows = []
        for _ in range(60):
            w = []
            while len(w) < n:
                x, y = rng.uniform(-3, 3), rng.uniform(0.1, 2)
                kind = rng.choice(["pair", "chain", "gap", "single"])
                if kind == "pair":      # conjugates: an exact tie
                    w += [complex(x, y), complex(x, -y)]
                elif kind == "chain":   # each link inside tol, the whole not
                    for _ in range(rng.randint(2, 4)):
                        w.append(complex(x, rng.uniform(-2, 2)))
                        x += rng.uniform(0.1, 0.9) * tol
                elif kind == "gap":     # just outside tol: no tie
                    w += [complex(x, y), complex(x + 1.001 * tol, -y)]
                else:
                    w.append(complex(x, y))
            w = w[:n]
            rng.shuffle(w)
            rows.append(w)
        got = tracker._orders(np.array(rows)).tolist()
        want = [_order_reference(r, tol) for r in rows]
        assert got == want
        plain = [sorted(range(n), key=lambda a: r[a].real) for r in rows]
        tied += sum(g != q for g, q in zip(got, plain))
    assert tied > 50    # the ties changed the order of many rows


def _step_events(r0, r1):
    # _events on one hand-built step, with both orders by the tracker's rule
    tracker = _Tracker(build_model(P("x^3 - 3*x")), 0)
    r0, r1 = np.array(r0, dtype=complex), np.array(r1, dtype=complex)
    ord0, ord1 = tracker._orders(np.array([r0, r1])).tolist()
    return tracker._events(r0, r1, ord0, ord1)


def test_a_real_point_passing_a_conjugate_pair_is_two_swaps():
    # label 0 is a spectator far left, 1 the real point, 2 and 3 the pair;
    # the pair is one tie, below first
    left, right = [-5, -1, 1j, -1j], [-5, 1, 1j, -1j]
    # left to right it passes over the lower member, then under the upper
    # one; back, the same two in the reverse order
    assert _step_events(left, right) == [(1, -1), (2, 1)]
    assert _step_events(right, left) == [(2, -1), (1, 1)]
    # the upper member 1e-12 to the left, still tied: it crosses first, but
    # the lower member stands between, so the lower one is read first
    skew = [-5, -1, -1e-12 + 1j, -1j], [-5, 1, -1e-12 + 1j, -1j]
    assert _step_events(*skew) == [(1, -1), (2, 1)]


def test_two_conjugate_pairs_passing_each_other_are_four_swaps():
    # the pair at +-1j moves right, the pair at +-2j moves left
    ev = _step_events([-1 + 1j, -1 - 1j, 1 + 2j, 1 - 2j],
                      [1 + 1j, 1 - 1j, -1 + 2j, -1 - 2j])
    assert ev == [(1, -1), (0, -1), (2, 1), (1, 1)]


def test_a_full_reversal_is_read_in_time_order():
    # a (0 -> 3, above), b (1 -> 1.5, below) and c (2 -> -1, between) all
    # swap: b and c at 2/7 of the step, a and c at 1/3, a and b at 2/5;
    # read the other way round, from the last crossing, the twists differ
    ev = _step_events([0 + 1j, 1 - 1j, 2 + 0.5j], [3 + 1j, 1.5 - 1j, -1 + 0.5j])
    assert ev == [(1, 1), (0, -1), (1, -1)]


def test_every_order_change_is_read():
    # a swap changes the order of its pair alone, so until the orders
    # agree some flipped pair is a neighbour pair: no change is left unread
    rng = random.Random(2302)
    tracker = _Tracker(build_model(P("x^3 - 3*x")), 0)
    for perm in itertools.permutations(range(4)):
        r0 = np.array([complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                       for _ in range(4)])
        r1 = np.array([complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                       for _ in range(4)])
        cur = [0, 1, 2, 3]
        ev = tracker._events(r0, r1, cur[:], list(perm))
        for k, _ in ev:
            cur[k], cur[k + 1] = cur[k + 1], cur[k]
        assert cur == list(perm)
        assert len(ev) == sum(a > b for a, b in itertools.combinations(perm, 2))


def test_a_rejected_operator_fails_at_once_naming_the_loop(monkeypatch):
    m = build_model(P("x^3 - 3*x"))
    loops = []
    samples = monodromy._loop_samples

    def counted(model, j):
        loops.append(j)
        return samples(model, j)

    monkeypatch.setattr(monodromy, "_loop_samples", counted)
    # no operator is then the twist by its vanishing cycle
    monkeypatch.setattr(monodromy, "twist_matrix", lambda inter, delta: ())
    with pytest.raises(NumericError, match=r"^braid extraction failed for "
                       r"critical value 0: operator is not the twist by its "
                       r"vanishing cycle$"):
        monodromy_generators(m)
    assert loops == [0]


def test_tracking_loss_names_the_loop_and_the_interval(monkeypatch):
    m = build_model(P("x^3 - 3*x"))
    monkeypatch.setattr(monodromy, "MAX_DEPTH", 0)
    monkeypatch.setattr(monodromy, "MATCH_FRACTION", 1e-12)
    with pytest.raises(NumericError) as exc:
        monodromy_generators(m)
    msg = str(exc.value)
    got = re.fullmatch(r"root tracking lost between samples \(critical value 0,"
                       r" t from (\S+) to (\S+)\)", msg)
    assert got, msg
    # the first step of the first loop leaves the base point
    assert complex(got.group(1)) == m.base
    assert complex(got.group(2)) != m.base


def test_orbit_span_rejects_zero_start():
    m = build_model(P("x^3 - 3*x"))
    ops = monodromy_generators(m)
    with pytest.raises(InputError):
        orbit_span(m, ops, (0, 0))


def test_integer_bareiss_agrees_with_the_fraction_oracle():
    # the operator determinant check runs the Gaussian-integer Bareiss of
    # the resultant kernel on (v, 0) pairs; criterion 5 keeps its own
    # Fraction elimination as the oracle
    rng = random.Random(1301)
    mats = [[[0, 1], [1, 0]]]
    for n in range(2, 8):
        for _ in range(6):
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(4 * n):
                i, j = rng.sample(range(n), 2)
                if rng.random() < 0.25:
                    m[i], m[j] = m[j], m[i]
                else:
                    k = rng.choice([-3, -2, -1, 1, 2, 3])
                    m[j] = [a + k * b for a, b in zip(m[j], m[i])]
            mats.append(m)
    assert any(m[0][0] == 0 for m in mats[1:])
    for m in mats:
        want = _det_int(m)
        assert want in (1, -1)
        assert _gaussian_det([[(v, 0) for v in r] for r in m]) == (want, 0)
    assert _gaussian_det([[(0, 0), (1, 0)], [(1, 0), (0, 0)]]) == (-1, 0)


# ---- randomized genericity ----------------------------------------------------

def test_random_generic_orbits_have_full_rank():
    rng = random.Random(731)
    done = 0
    while done < 8:
        deg = rng.randint(3, 7)
        p = random_real_poly(rng, deg)
        try:
            m = build_model(p)
        except InputError:
            continue
        ops = monodromy_generators(m)
        n = m.lattice.rank
        s = m.lattice.intersection
        for op in ops:
            assert preserves_pairing(op.matrix, s)
            assert op.root_return_error <= 1e-8 * (
                1.0 + max(abs(z) for z in m.branch_points)
            )
        start = (1,) + (0,) * (n - 1)
        assert orbit_span(m, ops, start).rank == n
        v = cycle_at_infinity(m)
        if v is not None:
            assert all(op(v) == v for op in ops)
        done += 1


def test_seeded_fibers_beyond_the_golden_file():
    # five fibers of each degree 3 to 10, coefficients up to +-9; every
    # loop is tracked in the one projection frame
    rng = random.Random(2303)
    t0 = time.perf_counter()
    for deg in range(3, 11):
        for _ in range(5):
            while True:
                terms = {(k,): rng.randint(-9, 9) for k in range(deg)}
                terms[(deg,)] = rng.choice([-1, 1]) * rng.randint(1, 9)
                try:
                    m = build_model(Poly(X, {e: c for e, c in terms.items() if c}))
                    break
                except (InputError, NumericError):
                    continue
            ops = monodromy_generators(m)
            n, s = m.lattice.rank, m.lattice.intersection
            assert len(ops) == deg - 1
            for op in ops:
                assert _det_int(op.matrix) == 1
                assert preserves_pairing(op.matrix, s)
                assert math.gcd(*op.delta) == 1
                assert op.matrix == twist_matrix(s, op.delta)
            assert orbit_span(m, ops, (1,) + (0,) * (n - 1)).rank == n
    assert time.perf_counter() - t0 < 20.0


def test_operators_equal_the_golden_record():
    # 144 fibers of degree 3 to 10 whose operators were recorded with the
    # per-sample np.roots tracker (the file's "about" says which); the
    # matrices must agree exactly, not merely be valid
    t0 = time.perf_counter()
    entries = json.loads(GOLDEN.read_text())["entries"]
    assert len(entries) == 144
    for e in entries:
        m = build_model(Poly(X, {(k,): c for k, c in enumerate(e["coeffs"]) if c}))
        ops = monodromy_generators(m)
        assert [[list(r) for r in op.matrix] for op in ops] == e["matrices"], \
            e["coeffs"]
        n = m.lattice.rank
        for op in ops:
            assert _det_int(op.matrix) == 1
            assert preserves_pairing(op.matrix, m.lattice.intersection)
        assert orbit_span(m, ops, (1,) + (0,) * (n - 1)).rank == n
    assert time.perf_counter() - t0 < 60.0
