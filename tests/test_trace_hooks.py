"""The names the benchmark's tracer hooks must stay in the package.

``perfbench/tracing.py`` wraps module-level names of folia with
``getattr`` and no default, so renaming or removing one of them crashes
every traced benchmark run.  This test reads the tracer's own list of
hooks, so a change that moves a hooked name fails here first.

``folia.flow.solve_ivp`` is folia's own DOP853 (``folia.ode``) and
never imports scipy.  ``folia.monodromy.linear_sum_assignment`` is
imported from scipy on first access (a module ``__getattr__``), so
resolving it here may import scipy.
"""

import importlib
import importlib.util
import subprocess
import sys
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


_LAZY_PROBE = """
import importlib.util, sys
import numpy as np
import folia
import folia.ode
from folia import flow, monodromy

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

assert not scipy_loaded()
assert flow.solve_ivp is folia.ode.solve_ivp
spec = importlib.util.spec_from_file_location("_perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
rec = tracing.Recorder()
rec.install(0)  # resolving monodromy.linear_sum_assignment imports scipy
try:
    loaded = set(sys.modules)
    circle = folia.parse_poly("1/2*x^2 + 1/2*y^2", ("x", "y"))
    flow.trace_cycle(folia.hamiltonian(circle), (1.0, 0.0))
    new = [m for m in set(sys.modules) - loaded if m.startswith("scipy")]
    assert not new, "trace_cycle loaded " + ", ".join(sorted(new))
    monodromy._match_roots(np.array([0j, 1j]), np.array([1j, 0j]))
finally:
    rec.uninstall()
counts = rec.pass_summary(0)["counts"]
assert counts["flow.solve_ivp_calls"] >= 1, counts
assert counts["flow.solve_ivp_nfev"] > counts["flow.solve_ivp_calls"], counts
assert counts["monodromy.assignment_calls"] >= 1, counts
import scipy.optimize
assert flow.solve_ivp is folia.ode.solve_ivp
assert monodromy.linear_sum_assignment is scipy.optimize.linear_sum_assignment
assert getattr(flow, "no_such_name", None) is None
"""


def test_tracer_hooks_the_lazy_scipy_names():
    r = subprocess.run([sys.executable, "-c", _LAZY_PROBE, str(TRACING)],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr


def test_tracer_reaches_names_cli_imports_at_call_time(capsys, tmp_path):
    import folia
    from folia import cli
    circle = tmp_path / "circle.json"
    circle.write_text('{"kind": "hamiltonian", "variables": ["x", "y"],'
                      ' "f": "1/2*x^2 + 1/2*y^2"}')
    omega = tmp_path / "w.json"
    omega.write_text('{"kind": "form", "variables": ["x", "y"],'
                     ' "coefficients": ["x^3*y", "0"]}')
    tracing = _tracing()
    rec = tracing.Recorder()
    rec.install(0)
    try:
        assert cli.run(["holonomy", "--form", str(circle),
                        "--t", "0.25", "--t", "0.5"]) == 0
        assert cli.run(["brieskorn", "--m", "3", "--omega", str(omega)]) == 0
        # read through the lazy package while the wrappers are in place
        exported = [a for _, a, _, _ in tracing.SPANNED if a in folia.__all__]
        for attr in exported:
            getattr(folia, attr)
    finally:
        rec.uninstall()
    capsys.readouterr()
    calls = rec.pass_summary(0)["calls"]
    assert calls["flow.holonomy"] == 2
    assert calls["acceptance.parallel_map"] == 1
    assert calls["gaussmanin.brieskorn_reduce"] == 1
    # wrappers are the recorder's closures; none may outlive uninstall
    codes = {rec.span("probe", len).__code__,
             rec.counted("probe", len).__code__}
    for modname, mod in list(sys.modules.items()):
        if modname == "folia" or modname.startswith("folia."):
            for attr, val in vars(mod).items():
                assert getattr(val, "__code__", None) not in codes, (modname, attr)
                assert not isinstance(val, tracing._CountingNumpy), (modname, attr)
    from folia import ratfunc
    assert getattr(ratfunc.RatFrac.__init__, "__code__", None) not in codes
    for attr in exported:
        assert getattr(folia, attr).__code__ not in codes, attr


_COLD_INSTALL_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("_perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
assert not [m for m in sys.modules if m.startswith("folia")]
rec = tracing.Recorder()
rec.install(0)      # imports the hooked modules one by one
rec.uninstall()
codes = {rec.span("probe", len).__code__, rec.counted("probe", len).__code__}
held = [(name, attr) for name, mod in list(sys.modules.items())
        if name == "folia" or name.startswith("folia.")
        for attr, val in vars(mod).items()
        if getattr(val, "__code__", None) in codes
        or isinstance(val, tracing._CountingNumpy)]
assert not held, held
"""


def test_no_wrapper_outlives_an_install_into_a_cold_interpreter():
    # a module imported during install, after a name it binds was
    # wrapped, would keep the wrapper once the originals are restored
    r = subprocess.run([sys.executable, "-c", _COLD_INSTALL_PROBE, str(TRACING)],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
