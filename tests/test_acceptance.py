"""The acceptance gate: eight criteria, each with its runtime budget.

Every test runs one criterion from ``folia.acceptance``, prints its
pass/fail line (visible under ``pytest -s`` and in failure reports),
asserts every numbered check passed at the stated tolerance, and
asserts the wall-clock budget.  Two subprocess tests pin the selftest
command's byte-level determinism and its negative control.
"""

import subprocess
import sys
import time

from folia import acceptance


def _run(criterion_fn, budget_seconds):
    t0 = time.monotonic()
    result = criterion_fn()
    elapsed = time.monotonic() - t0
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.index} {verdict} {result.name}: {result.detail} "
          f"[{elapsed:.2f}s / {budget_seconds}s]")
    assert result.passed, "\n".join(result.failures)
    assert elapsed < budget_seconds, (
        f"criterion {result.index} took {elapsed:.1f}s, "
        f"budget {budget_seconds}s"
    )
    return result


def test_criterion_1_census_under_10s():
    # 20 random generic line triples: 4 points, 1 center, 3 intersections,
    # expected count d^2 - sum d_i d_j = 1; (1,1) -> 0 centers, (2,1) -> 2
    _run(acceptance.criterion_1_census, 10.0)


def test_criterion_2_melnikov_under_5s():
    # rotation law M1 = -4 pi t within 1e-6 relative on 9 levels;
    # exact perturbations below 1e-9
    _run(acceptance.criterion_2_melnikov, 5.0)


def test_criterion_3_holonomy_consistency_under_30s():
    # |(h_eps(t) - t)/eps - M1(t)| <= 5% of |M1(t)| at eps = 1e-4,
    # t in {0.25, 0.5}, three perturbations
    _run(acceptance.criterion_3_holonomy_consistency, 30.0)


def test_criterion_4_integral_identity_under_30s():
    # five systems with declared polynomial integrals, ten levels each:
    # |h(t) - t| <= 1e-8
    _run(acceptance.criterion_4_integral_identity, 30.0)


def test_criterion_5_monodromy_under_60s():
    # critical values of x^3 - 3x to 1e-10; integer unimodular operators
    # preserving the intersection form; orbit rank 2; twenty random
    # fibrations of degree 3..7 with single-cycle orbit rank deg - 1
    _run(acceptance.criterion_5_monodromy, 60.0)


def test_criterion_6_gauss_manin_under_60s():
    # Picard-Fuchs residual < 1e-5; Gelfand-Leray identity within 1e-5
    # on three systems; fifty exact/df-multiple forms reduce to zero;
    # period identity within 1e-6
    _run(acceptance.criterion_6_gauss_manin, 60.0)


def test_criterion_7_integrability_under_5s():
    # w ^ dw = 0 exactly for ten pullback logarithmic forms; the
    # non-integrable control is rejected
    _run(acceptance.criterion_7_integrability, 5.0)


def test_criterion_8_round_trips():
    # 1000 parse/print round trips are exact and rendering does not
    # depend on the thread pool
    _run(acceptance.criterion_8_determinism, 30.0)


# ---- the selftest command itself ------------------------------------------------


def _selftest(*args):
    return subprocess.run([sys.executable, "-m", "folia", "selftest", *args],
                          capture_output=True, text=True, timeout=600)


def test_selftest_byte_identical_across_runs_and_threads():
    first = _selftest()
    second = _selftest()
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.strip().splitlines()
    criterion_lines = [l for l in lines if l.startswith("criterion ")]
    assert len(criterion_lines) == 8
    assert all(" PASS " in l for l in criterion_lines)
    assert lines[-1] == "acceptance: 8/8 criteria passed"


def test_selftest_negative_control_fails_loudly():
    # a corrupted tolerance must break the holonomy criteria visibly,
    # not shift numbers quietly
    r = _selftest("--rel-tol", "1e2")
    assert r.returncode == 3
    assert "FAIL" in r.stdout
    assert "criterion 4 FAIL" in r.stdout
    assert r.stdout.strip().splitlines()[-1] != "acceptance: 8/8 criteria passed"
