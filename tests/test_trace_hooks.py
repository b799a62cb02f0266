"""The names the benchmark's tracer hooks must stay in the package.

``perfbench/tracing.py`` wraps module-level names of folia with
``getattr`` and no default, so renaming or removing one of them crashes
every traced benchmark run.  This test reads the tracer's own list of
hooks, so a change that moves a hooked name fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from folia import monodromy, parse_poly
from folia.monodromy import build_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# hooked inside Recorder.install, outside the SPANNED table
COUNTED = (
    ("folia.flow", "solve_ivp"),
    ("folia.monodromy", "np"),
    ("folia.monodromy", "linear_sum_assignment"),
    ("folia.ratfunc", "upoly_gcd"),
    ("folia.ratfunc", "RatFrac"),
)


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_hooked_name_resolves():
    tracing = _tracing()
    hooked = [(m, a) for m, a, _, _ in tracing.SPANNED] + list(COUNTED)
    for modname, attr in hooked:
        getattr(importlib.import_module(modname), attr)


def test_installed_tracer_leaves_operators_unchanged():
    tracing = _tracing()
    model = build_model(parse_poly("x^4 + x^3 - 4*x", ("x",)))
    before = [op.matrix for op in monodromy.monodromy_generators(model)]
    rec = tracing.Recorder()
    rec.install(0)
    try:
        during = [op.matrix for op in monodromy.monodromy_generators(model)]
    finally:
        rec.uninstall()
    assert during == before
    assert rec.pass_summary(0)["calls"]["monodromy.generators"] == 1
    assert monodromy.np is np
