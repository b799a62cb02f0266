"""Command-line entry point.

Twelve subcommands expose the library: ``sing``, ``classify``, ``log``,
``dulac``, ``pullback``, ``integrability``, ``holonomy``, ``melnikov``,
``monodromy``, ``picard-fuchs``, ``brieskorn``, and ``selftest``.

Contract:

* stdout carries exactly one deterministic document per invocation,
  canonical JSON by default or a CSV projection with ``--format csv``
  on the tabular commands;
* exit code 0 on success, 2 on bad input (unknown command, missing or
  malformed file, bad or non-finite flag), 3 on numeric failure (a
  computation that could not meet its accuracy contract, or a failing
  selftest) and on any internal error;
* every error path prints a single-line JSON object
  ``{"error": ..., "exit_code": ...}`` on stderr, never a traceback;
* the commands run serially.

A command imports only what its handler calls: at module level this
file imports the standard library, ``folia.errors`` and the tolerance
defaults, and each handler imports its own library names.  The exact
commands (``dulac``, ``pullback``, ``integrability``, ``brieskorn``)
therefore never load numpy, and only ``selftest`` loads
``folia.acceptance``.

Tolerance flags belong to the commands that read them:
``--root-residual-tol`` (sing), ``--ratio-band`` (sing, classify, log),
``--quadrature-rel-tol`` (melnikov) and ``--holonomy-rtol`` (holonomy).

Each input is checked once.  argparse checks the command name, the
flags each command takes, their types (a float flag must be finite)
and choices; ``_check_tolerances`` then requires each tolerance to be
positive and ``--holonomy-rtol`` to be at least ``MIN_RTOL``.  A
handler checks the rest before it reads a file: ``melnikov`` its level
grid (``_linspace``), ``holonomy`` its ``--t`` levels or seed point.

``--config FILE`` reads a JSON object whose keys mirror the long flag
names of the chosen subcommand (``{"t0": 0.1, "samples": 9}``); unknown
keys, and values the flag could not take on the command line (a number
for a path, a boolean or 9.7 for ``--samples``), are rejected.
Explicit flags override the file; a repeatable flag (``--t``,
``--factor``, ``--residue``) replaces the file's list.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction

from .errors import FoliaError, InputError, NumericError
from .tolerances import ATOL, CENTER_BAND, MIN_RTOL, REL_TOL, RESID_ACCEPT, RTOL

COMMANDS = ("sing", "classify", "log", "dulac", "pullback", "integrability",
            "holonomy", "melnikov", "monodromy", "picard-fuchs", "brieskorn",
            "selftest")

__all__ = ["run", "main", "COMMANDS"]

MAX_SAMPLES = 4096  # largest melnikov --samples; the grid is built in memory

# each tolerance flag's dest: (library default, commands whose flags set it)
_TOLERANCES = {
    "root_residual_tol": (RESID_ACCEPT, ("sing",)),
    "ratio_band": (CENTER_BAND, ("sing", "classify", "log")),
    "quadrature_rel_tol": (REL_TOL, ("melnikov",)),
    "holonomy_rtol": (RTOL, ("holonomy",)),
}


def _check_tolerances(args) -> None:
    """Each tolerance is positive (its flag type made it finite), and
    holonomy_rtol is at least the integrator's floor."""
    for name, v in vars(args).items():
        if name in _TOLERANCES and not v > 0.0:
            raise InputError(f"{name} must be a positive finite number, got {v!r}")
    if getattr(args, "holonomy_rtol", RTOL) < MIN_RTOL:
        raise InputError(f"holonomy_rtol must be at least {MIN_RTOL!r} "
                         f"(100 machine epsilons), got {args.holonomy_rtol!r}")


# ---------------------------------------------------------------------------
# small parsers


def _scalar(text: str, what: str) -> float:
    try:
        return float(Fraction(text))    # inf and nan are not fractions
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{what} must be a finite number, got {text!r}") from None


def _finite_float(text) -> float:
    """argparse type of the float flags."""
    try:
        v = float(text)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return v


def _point(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{what} must be two comma-separated numbers, got {text!r}")
    return (_scalar(parts[0], what), _scalar(parts[1], what))


def _cpoint(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_scalar(parts[0], what), 0.0)
    if len(parts) == 2:
        return complex(_scalar(parts[0], what), _scalar(parts[1], what))
    raise InputError(f"{what} must be 're' or 're,im', got {text!r}")


def _variables_flag(text: str) -> tuple[str, ...]:
    vs = tuple(v.strip() for v in text.split(","))
    if not all(vs):
        raise InputError(f"bad variable list {text!r}")
    return vs


def _linspace(t0: float, t1: float, n: int) -> list[float]:
    """The melnikov level grid: 2 to MAX_SAMPLES points, finite, increasing."""
    if n > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {n}")
    if n < 2:
        raise InputError("need at least 2 samples")
    step = (t1 - t0) / (n - 1)
    grid = [t0 + k * step for k in range(n)]
    if not all(map(math.isfinite, grid)):
        raise InputError("the level grid must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("the level grid must be strictly increasing")
    return grid


def _point_payload(sp) -> dict:
    return {
        "x": complex(sp.x), "y": complex(sp.y),
        "class": sp.classification, "residual": float(sp.residual),
        "notes": list(sp.notes),
        "eigenvalue_ratio": (complex(sp.eigenvalue_ratio)
                             if sp.eigenvalue_ratio is not None else None),
        "eigenvalues": ([complex(l) for l in sp.eigenvalues]
                        if sp.eigenvalues is not None else None),
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, rows, columns); rows is None
# when the command has no CSV projection


def _cmd_sing(args):
    from .foliation import (classify_singularity, find_singularities,
                            residual_scale)
    from .formats import load_record
    record = load_record(args.form)
    points = find_singularities(record)
    for sp in points:
        # the finder accepts by a residual relative to the field's scale
        # at the point; the gate compares on that same scale
        scale = residual_scale(record, sp.x, sp.y)
        if sp.residual > args.root_residual_tol * scale:
            raise NumericError(
                f"singular point near ({sp.x}, {sp.y}) has residual "
                f"{sp.residual:.3e} above the gate "
                f"{args.root_residual_tol:.3e} relative to the field's scale"
            )
    payload = [_point_payload(classify_singularity(record, sp.location,
                                                   band=args.ratio_band))
               for sp in points]
    rows = [{"x_re": p["x"].real, "x_im": p["x"].imag,
             "y_re": p["y"].real, "y_im": p["y"].imag,
             "class": p["class"]} for p in payload]
    return payload, rows, ("x_re", "x_im", "y_re", "y_im", "class")


def _cmd_classify(args):
    from .foliation import classify_singularity
    from .formats import load_record
    record = load_record(args.form)
    pt = classify_singularity(record, (_cpoint(args.x, "--x"),
                                       _cpoint(args.y, "--y")),
                              band=args.ratio_band)
    return _point_payload(pt), None, None


def _cmd_log(args):
    from .foliation import count_centers, expected_center_count, logarithmic
    from .formats import canonical_json, parse_residue, record_payload
    from .poly import parse_poly
    vs = _variables_flag(args.variables)
    if len(vs) != 2:
        raise InputError("logarithmic records need exactly two variables")
    if not args.factor:
        raise InputError("need at least one --factor")
    residues = args.residue or ["1"] * len(args.factor)
    if len(residues) != len(args.factor):
        raise InputError("one --residue per --factor (or none at all)")
    factors = [parse_poly(f, vs) for f in args.factor]
    record = logarithmic(factors,
                         [parse_residue(r, "--residue") for r in residues])
    census = count_centers(record, band=args.ratio_band)
    payload = {
        "factors": [str(f) for f in factors],
        "residues": [str(r) for r in record.log_spec.residues],
        "degrees": list(record.log_spec.degrees),
        "expected_centers": expected_center_count(record.log_spec.degrees),
        "centers": [_point_payload(p) for p in census.centers],
        "intersections": [_point_payload(p) for p in census.intersections],
        "other": [_point_payload(p) for p in census.other],
        "total": census.total,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_json(record_payload(record)))
        payload["written"] = args.out
    return payload, None, None


def _cmd_dulac(args):
    from .foliation import dulac_family
    vs = _variables_flag(args.variables)
    record = dulac_family(args.family, args.index, vs)
    payload = {
        "family": record.dulac.family,
        "index": record.dulac.index,
        "variables": list(vs),
        "P": str(record.P), "Q": str(record.Q),
        "form": str(record.omega),
        "integral": record.dulac.integral_description,
        "clearing_factor": str(record.dulac.clearing_factor),
    }
    return payload, None, None


def _cmd_pullback(args):
    from .foliation import pullback_form
    from .formats import load_form, load_map
    phi = load_map(args.map)
    omega = load_form(args.form)
    pulled = pullback_form(phi, omega)
    vs = phi.components[0].vars
    payload = {
        "variables": list(vs),
        "coefficients": [str(c) for c in pulled.coefficients()],
    }
    return payload, None, None


def _cmd_integrability(args):
    from .foliation import integrability_obstruction
    from .formats import load_form
    omega = load_form(args.form)
    obstruction = integrability_obstruction(omega)
    comps = [{"indices": list(idx), "coefficient": str(c)}
             for idx, c in sorted(obstruction.comps.items())]
    payload = {"integrable": obstruction.is_zero, "obstruction": comps}
    return payload, None, None


def _cmd_holonomy(args):
    if args.seed_point is not None and args.t:
        raise InputError("pass either --t levels or --seed-point, not both")
    unused = [flag for flag, value in (("--center", args.center),
                                       ("--direction", args.direction))
              if value is not None]
    if args.seed_point is not None and unused:
        raise InputError("--seed-point traces one given cycle; drop "
                         + " and ".join(unused) + ", used only by --t level sweeps")
    if args.seed_point is None and not args.t:
        raise InputError("holonomy needs a nonempty level grid")
    from .flow import cycle_through_level, holonomy, parallel_map, trace_cycle
    from .foliation import first_real_center
    from .formats import load_record
    record = load_record(args.form)
    rtol, atol = args.holonomy_rtol, min(args.holonomy_rtol, ATOL)

    if args.seed_point is not None:
        seed = _point(args.seed_point, "--seed-point")
        cyc = trace_cycle(record, seed, rtol=rtol, atol=atol)
        h = holonomy(record, cyc, rtol=rtol, atol=atol)
        payload = {"t": h.t_in, "h": h.t_out,
                   "defect": (h.t_out - h.t_in) if h.t_in is not None else None,
                   "s_return": h.s_return, "transit_time": h.transit_time}
        return payload, None, None

    if record.integral is None:
        raise InputError(
            "level sweeps need a record with a polynomial first integral; "
            "use --seed-point for other records"
        )
    center = (_point(args.center, "--center") if args.center
              else first_real_center(record))
    if center is None:
        raise InputError("the record has no real center candidate; pass --center")
    direction = (_point(args.direction, "--direction") if args.direction
                 else (1.0, 0.0))

    def sample(t):
        cyc = cycle_through_level(record, center, t, direction)
        h = holonomy(record, cyc, rtol=rtol, atol=atol)
        return {"t": h.t_in, "h": h.t_out, "defect": h.t_out - h.t_in,
                "s_return": h.s_return}

    rows = parallel_map(sample, sorted(set(args.t)))
    payload = {"center": list(center), "samples": rows}
    return payload, rows, ("t", "h", "defect", "s_return")


def _cmd_melnikov(args):
    grid = _linspace(args.t0, args.t1, args.samples)
    from .formats import load_form, load_record
    from .melnikov import m1_sweep, make_problem
    record = load_record(args.base)
    omega1 = load_form(args.pert, record.vars)
    center = _point(args.center, "--center") if args.center else None
    problem = make_problem(record, omega1, center=center)
    sweep = m1_sweep(problem, grid, rel_tol=args.quadrature_rel_tol)
    rows = [{"t": t, "m1": v} for t, v in zip(grid, sweep.values)]
    payload = {
        "center_level": problem.center_level,
        "grid": grid,
        "m1": sweep.values,
        "multiplicity": sweep.multiplicity,
        "identically_zero": sweep.identically_zero,
    }
    return payload, rows, ("t", "m1")


def _cmd_monodromy(args):
    from .monodromy import (build_model, cycle_at_infinity,
                            monodromy_generators, orbit_span)
    from .poly import parse_poly
    p = parse_poly(args.p, (args.var,))
    model = build_model(p)
    ops = monodromy_generators(model)
    start = (1,) + (0,) * (model.lattice.rank - 1)
    rank = orbit_span(model, ops, start).rank
    vinf = cycle_at_infinity(model)
    payload = {
        "p": str(p),
        "degree": model.degree,
        "base": complex(model.base),
        "critical_values": [complex(c) for c in model.critical_values],
        "operators": [{"index": op.index,
                       "critical_value": complex(op.critical_value),
                       "delta": list(op.delta),
                       "matrix": [list(r) for r in op.matrix]}
                      for op in ops],
        "orbit_rank": rank,
        "cycle_at_infinity": list(vinf) if vinf is not None else None,
    }
    return payload, None, None


def _cmd_picard_fuchs(args):
    from .gaussmanin import picard_fuchs
    from .poly import parse_poly
    p = parse_poly(args.p, (args.var,))
    conn = picard_fuchs(p)
    labels = ["dx/y" if i == 0 else
              ("x*dx/y" if i == 1 else f"x^{i}*dx/y")
              for i in range(conn.size)]
    payload = {
        "p": str(p),
        "basis": labels,
        "matrix": [list(row) for row in conn.entry_strings()],
        "critical_values": [complex(c) for c in conn.critical_values],
    }
    return payload, None, None


def _cmd_brieskorn(args):
    from .brieskorn import brieskorn_basis, brieskorn_reduce
    from .formats import load_form
    basis = brieskorn_basis(args.m)
    omega = load_form(args.omega, ("x", "y"))
    vec = brieskorn_reduce(basis, omega)
    payload = {
        "m": args.m,
        "basis": list(basis.labels),
        "coefficients": [str(q) for q in vec],
    }
    return payload, None, None


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


class _Repeat(argparse._AppendAction):
    """``append`` whose first value replaces the default (a config) list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is self.default:
            setattr(namespace, self.dest, [])
        super().__call__(parser, namespace, values, option_string)


def _build_parsers(*names):
    """The top-level parser and the subparsers of the commands ``names``,
    or of every command when none is named: a run builds only the one it
    runs, ``--help`` all of them.  Each call builds fresh parsers, since
    ``_apply_config`` edits a subparser's defaults."""
    top = _Parser(prog="folia", allow_abbrev=False,
                  description="plane polynomial foliation workbench")
    sub = top.add_subparsers(dest="command")
    parsers = {}

    def add(name, handler, summary, *arguments):
        """``handler`` None marks selftest, which takes no --format,
        --config or tolerance flag."""
        if names and name not in names:
            return
        p = parsers[name] = sub.add_parser(name, allow_abbrev=False, help=summary)
        if handler is not None:
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--config", default=None)
            p.set_defaults(handler=handler)
            for dest, (default, commands) in _TOLERANCES.items():
                if name in commands:
                    p.add_argument("--" + dest.replace("_", "-"),
                                   type=_finite_float, default=default)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)

    required = {"required": True}
    add("sing", _cmd_sing, "find and classify the singular points of a record",
        ("--form", {"required": True, "help": "record file"}))
    add("classify", _cmd_classify, "classify one singular point",
        ("--form", required),
        ("--x", {"required": True, "help": "x coordinate, 're' or 're,im'"}),
        ("--y", {"required": True, "help": "y coordinate, 're' or 're,im'"}))
    add("log", _cmd_log, "build a logarithmic record and run its center census",
        ("--factor", {"action": _Repeat, "default": []}),
        ("--residue", {"action": _Repeat, "default": []}),
        ("--variables", {"default": "x,y"}),
        ("--out", {"default": None, "help": "write the record file here"}))
    add("dulac", _cmd_dulac, "emit a Dulac-family record",
        ("--family", required),
        ("--index", {"type": int, "required": True}),
        ("--variables", {"default": "x,y"}))
    add("pullback", _cmd_pullback, "pull a 1-form back along a polynomial map",
        ("--map", required), ("--form", required))
    add("integrability", _cmd_integrability, "check w ^ dw = 0 for a 1-form",
        ("--form", required))
    add("holonomy", _cmd_holonomy, "return map along level cycles",
        ("--form", required),
        ("--t", {"action": _Repeat, "type": _finite_float, "default": []}),
        ("--seed-point", {"default": None}),
        ("--center", {"default": None}),
        ("--direction", {"default": None}))
    add("melnikov", _cmd_melnikov, "first Melnikov function over a level grid",
        ("--base", required), ("--pert", required),
        ("--t0", {"type": _finite_float, "required": True}),
        ("--t1", {"type": _finite_float, "required": True}),
        ("--samples", {"type": int, "required": True}),
        ("--center", {"default": None}))
    add("monodromy", _cmd_monodromy, "Picard-Lefschetz operators of y^2 = p(x) + t",
        ("--p", required), ("--var", {"default": "x"}))
    add("picard-fuchs", _cmd_picard_fuchs, "exact Gauss-Manin connection matrix",
        ("--p", required), ("--var", {"default": "x"}))
    add("brieskorn", _cmd_brieskorn,
        "reduce a 1-form in the Brieskorn basis of y^2 - x^m",
        ("--m", {"type": int, "required": True}), ("--omega", required))
    add("selftest", None, "run the acceptance criteria",
        ("--rel-tol", {"type": _finite_float, "default": None}),
        ("--criteria", {"default": None,
                        "help": "comma-separated criterion numbers to run"}))
    return top, parsers


def _fits(value, action) -> bool:
    """Whether a JSON value is one the flag could take on the command
    line: one of its choices, a string for untyped flags, an integer for
    ``int`` flags, a number for the float flags; never a boolean, null or
    container."""
    if isinstance(value, bool):
        return False
    if action.choices is not None:
        return value in action.choices
    if action.type is None:
        return isinstance(value, str)
    if action.type is int:
        return isinstance(value, int)
    return isinstance(value, (int, float))


def _apply_config(argv: list, parsers: dict, command: str):
    """Merge --config file values in as subparser defaults."""
    from .formats import load_json_file
    parser = parsers[command]
    known = {a.dest for a in parser._actions}
    path = None
    for i, tok in enumerate(argv):
        if "config" not in known and tok.split("=", 1)[0] == "--config":
            raise InputError(f"{command} takes no --config")
        if tok == "--config":
            if i + 1 >= len(argv):
                raise InputError("--config needs a file path")
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return
    doc = load_json_file(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config files must hold a JSON object")
    overrides = {}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("help", "config"):
            raise InputError(f"{path}: unknown config key {key!r} for {command!r}")
        action = next(a for a in parser._actions if a.dest == dest)
        takes_list = isinstance(action, argparse._AppendAction)
        values = value if isinstance(value, list) else [value]
        if (isinstance(value, list) != takes_list
                or not all(_fits(v, action) for v in values)):
            shape = "a list of single values" if takes_list else "a single value"
            kind = (" or ".join(map(repr, action.choices)) if action.choices else
                    {None: "a string", int: "an integer"}.get(action.type, "a number"))
            raise InputError(f"{path}: config key {key!r} takes {shape} "
                             f"({'each ' if takes_list else ''}{kind}), "
                             f"got {value!r}")
        if action.type is not None:
            try:
                value = ([action.type(v) for v in value]
                         if takes_list else action.type(value))
            except argparse.ArgumentTypeError as e:
                raise InputError(f"{path}: bad value for {key!r}: {e}") from e
        overrides[dest] = value
        action.required = False     # a value from the config satisfies it
    parser.set_defaults(**overrides)


def _selftest(args) -> int:
    from .acceptance import render_report, run_acceptance
    only = None
    if args.criteria:
        try:
            only = tuple(sorted({int(tok) for tok in args.criteria.split(",")}))
        except ValueError as e:
            raise InputError(f"bad --criteria value {args.criteria!r}") from e
        if any(k < 1 or k > 8 for k in only):
            raise InputError("criterion numbers run from 1 to 8")
    report = run_acceptance(rel_tol=args.rel_tol, only=only)
    sys.stdout.write(render_report(report))
    if not report.passed:
        # the report is already on stdout; this adds the uniform stderr line
        failed = [r.index for r in report.results if not r.passed]
        raise NumericError(
            "selftest failed criteria " + ",".join(str(k) for k in failed))
    return 0


def run(argv) -> int:
    """Parse argv (no program name), execute, return the exit code."""
    argv = list(argv)
    if not argv:
        raise InputError("no command given; commands are " + ", ".join(COMMANDS))
    if argv[0] in COMMANDS:
        top, parsers = _build_parsers(argv[0])
        _apply_config(argv[1:], parsers, argv[0])
    elif argv[0] in ("-h", "--help"):
        top, parsers = _build_parsers()
    else:
        raise InputError(
            f"unknown command {argv[0]!r}; commands are " + ", ".join(COMMANDS))
    args = top.parse_args(argv)

    if args.command == "selftest":
        return _selftest(args)

    _check_tolerances(args)
    from .formats import canonical_json, rows_to_csv
    payload, rows, columns = args.handler(args)
    if args.format == "csv":
        if rows is None:
            raise InputError(
                f"{args.command} has no tabular projection; use --format json"
            )
        sys.stdout.write(rows_to_csv(rows, columns))
    else:
        sys.stdout.write(canonical_json(payload))
    return 0


def main() -> None:
    try:
        with warnings.catch_warnings():   # stderr carries the one JSON line only
            warnings.simplefilter("ignore")
            code = run(sys.argv[1:])
    except Exception as e:  # the contract: one JSON line, never a traceback
        if isinstance(e, FoliaError):
            code, message = (2 if isinstance(e, InputError) else 3), str(e)
        else:
            code, message = 3, f"internal error: {type(e).__name__}: {e}"
        sys.stderr.write(
            json.dumps({"error": message, "exit_code": code}) + "\n")
    sys.exit(code)
