"""Spans and counters around calls into folia's public functions.

The recorder wraps module-level names from the benchmark's side: every
folia module that holds the original function object gets the wrapper,
and ``uninstall`` puts the originals back.  Spans carry an id, a name,
start and end (``perf_counter``), the id of the enclosing span and the
pass they belong to; they stay in memory until the run writes them out.

Counters hooked on a module-level name (``folia.flow.solve_ivp``,
``folia.monodromy.linear_sum_assignment``, ``folia.monodromy.np``,
``folia.ratfunc.upoly_gcd``) read 0 once a later change renames or
removes that name; a per-layer figure that drops to 0 is a hook that no
longer fires, not a saving.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

import numpy as np

# (module, attribute, span name, tag of the call or None)
SPANNED = (
    ("folia.formats", "load_record", "formats.load", None),
    ("folia.formats", "load_form", "formats.load", None),
    ("folia.formats", "load_map", "formats.load", None),
    ("folia.formats", "canonical_json", "formats.canonical_json", None),
    ("folia.poly", "parse_poly", "poly.parse_poly", None),
    ("folia.poly", "resultant", "poly.resultant", None),
    ("folia.foliation", "find_singularities", "foliation.find_singularities", None),
    ("folia.foliation", "classify_singularity", "foliation.classify_singularity", None),
    ("folia.foliation", "pullback_form", "foliation.pullback_form", None),
    ("folia.foliation", "integrability_obstruction",
     "foliation.integrability_obstruction", None),
    ("folia.flow", "trace_cycle", "flow.trace_cycle", None),
    ("folia.flow", "holonomy", "flow.holonomy", None),
    ("folia.melnikov", "make_problem", "melnikov.make_problem", None),
    ("folia.melnikov", "m1", "melnikov.m1", None),
    ("folia.monodromy", "build_model", "monodromy.build_model", None),
    ("folia.monodromy", "monodromy_generators", "monodromy.generators",
     lambda model: f"deg{model.degree}"),
    ("folia.monodromy", "orbit_span", "monodromy.orbit_span", None),
    ("folia.gaussmanin", "picard_fuchs", "gaussmanin.picard_fuchs",
     lambda p: f"deg{p.total_degree()}"),
    ("folia.gaussmanin", "brieskorn_reduce", "gaussmanin.brieskorn_reduce", None),
    ("folia.acceptance", "parallel_map", "acceptance.parallel_map", None),
)


class _CountingNumpy:
    """Stands in for ``numpy`` inside one module and counts ``roots``."""

    def __init__(self, recorder, name):
        self._rec, self._name = recorder, name

    def roots(self, *a, **kw):
        self._rec.count(self._name)
        return np.roots(*a, **kw)

    def __getattr__(self, attr):
        return getattr(np, attr)


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.current_pass = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent = None
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def count(self, name, k=1):
        key = (self.current_pass, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + k

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name, fn, tag_fn=None):
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else rec._pool_parent
            tag = tag_fn(*args) if tag_fn is not None else None
            stack.append(sid)
            pool_parent = rec._pool_parent
            if name == "acceptance.parallel_map":
                rec._pool_parent = sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec._pool_parent = pool_parent
                rec.spans.append((sid, name, t0, t1, parent,
                                  rec.current_pass, tag))
            if name == "foliation.find_singularities":
                rec.count("foliation.singular_points", len(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn, nfev=False):
        rec = self

        def wrapper(*args, **kwargs):
            rec.count(name)
            result = fn(*args, **kwargs)
            if nfev:
                rec.count(name.replace("_calls", "_nfev"), int(result.nfev))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if not (modname == "folia" or modname.startswith("folia.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._saved.append((mod, attr, original))

    def install(self, pass_id):
        """Wrap every hooked name for the pass ``pass_id``."""
        self.current_pass = pass_id
        for modname, attr, name, tag_fn in SPANNED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self.span(name, fn, tag_fn))
        flow = importlib.import_module("folia.flow")
        self._replace_everywhere(
            flow.solve_ivp,
            self.counted("flow.solve_ivp_calls", flow.solve_ivp, nfev=True))
        mono = importlib.import_module("folia.monodromy")
        self._saved.append((mono, "np", mono.np))
        mono.np = _CountingNumpy(self, "monodromy.np_roots_calls")
        self._replace_everywhere(
            mono.linear_sum_assignment,
            self.counted("monodromy.assignment_calls",
                         mono.linear_sum_assignment))
        ratfunc = importlib.import_module("folia.ratfunc")
        self._replace_everywhere(
            ratfunc.upoly_gcd,
            self.counted("ratfunc.upoly_gcd_calls", ratfunc.upoly_gcd))
        init = ratfunc.RatFrac.__init__
        self._saved.append((ratfunc.RatFrac, "__init__", init))
        ratfunc.RatFrac.__init__ = self.counted("ratfunc.ratfrac_made", init)
        start = threading.Thread.start
        self._saved.append((threading.Thread, "start", start))
        threading.Thread.start = self.counted("acceptance.threads_started", start)

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()
        self.current_pass = None

    # -- summaries ------------------------------------------------------------

    def pass_summary(self, pass_id) -> dict:
        """Inclusive seconds and calls per span name, per-tag call times,
        and counters, for one pass."""
        out: dict = {"time": {}, "calls": {}, "tagged": {}, "counts": {}}
        for _, name, t0, t1, _, pid, tag in self.spans:
            if pid != pass_id:
                continue
            out["time"][name] = out["time"].get(name, 0.0) + (t1 - t0)
            out["calls"][name] = out["calls"].get(name, 0) + 1
            if tag is not None:
                out["tagged"].setdefault(f"{name}_{tag}", []).append(t1 - t0)
        for (pid, name), v in self.counts.items():
            if pid == pass_id:
                out["counts"][name] = v
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "pass": s[5], "tag": s[6]}
                      for s in self.spans],
            "counts": [{"pass": p, "name": n, "value": v}
                       for (p, n), v in sorted(self.counts.items(),
                                               key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        }
