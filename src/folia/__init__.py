"""Computational workbench for plane polynomial foliations.

Subpackages cover exact polynomial and differential-form algebra,
foliation families and their singular points, numeric leaf tracing and
holonomy, first Melnikov functions, monodromy of hyperelliptic level
fibrations, and Picard-Fuchs / Brieskorn-module reductions.

``import folia`` loads none of the submodules: each public name imports
its own submodule when it is read (PEP 562), so a program that uses
only the exact algebra never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# the submodule of each public name
_HOMES = {
    "errors": ("FoliaError", "InputError", "NumericError", "ParseError"),
    "poly": ("GaussianRational", "Poly", "parse_poly", "resultant"),
    "forms": ("DifferentialForm", "d_poly", "dual_field", "pq_form"),
    "foliation": ("FoliationRecord", "PolyMap", "count_centers",
                  "dulac_family", "expected_center_count",
                  "find_singularities", "hamiltonian",
                  "integrability_obstruction", "logarithmic",
                  "pullback_form"),
    "flow": ("holonomy", "numeric_center_test", "section_at", "trace_cycle",
             "parallel_map"),
    "melnikov": ("m1", "m1_sweep", "make_problem", "perturbed_record",
                 "tangency_test"),
    "monodromy": ("FibrationModel", "MonodromyOperator", "build_model",
                  "cycle_at_infinity", "monodromy_generators", "orbit_ball",
                  "orbit_span", "twist_matrix"),
    "brieskorn": ("brieskorn_basis", "brieskorn_reduce"),
    "gaussmanin": ("ConnectionMatrix", "basis_periods", "gelfand_leray_check",
                   "period_of_form", "pf_residual", "picard_fuchs"),
    "formats": ("canonical_json", "fmt_float", "load_form", "load_map",
                "load_record"),
    "acceptance": ("render_report", "run_acceptance"),
}
_MODULE_OF = {name: mod for mod, names in _HOMES.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # not cached here: the name then always reads the home module's
    # current binding, also while a tracer has swapped it for a wrapper
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))

