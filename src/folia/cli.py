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

``--config FILE`` reads a JSON object whose keys mirror the long flag
names of the chosen subcommand (``{"t0": 0.1, "samples": 9}``); unknown
keys, and values the flag could not take on the command line (a number
for a path, a boolean or 9.7 for ``--samples``), are rejected, and
explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import FoliaError, InputError, NumericError
from .tolerances import (ATOL, CENTER_BAND, MIN_RTOL, REL_TOL, RESID_ACCEPT,
                         RTOL, ZERO_THRESHOLD)

COMMANDS = ("sing", "classify", "log", "dulac", "pullback", "integrability",
            "holonomy", "melnikov", "monodromy", "picard-fuchs", "brieskorn",
            "selftest")

__all__ = ["RunConfig", "run", "main", "COMMANDS"]

MAX_SAMPLES = 4096  # largest melnikov --samples; the grid is built in memory

# each tolerance field of RunConfig and the commands whose flags set it
_TOLERANCES = {
    "root_residual_tol": ("sing",),
    "ratio_band": ("sing", "classify", "log"),
    "quadrature_rel_tol": ("melnikov",),
    "holonomy_rtol": ("holonomy",),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything one invocation depends on.

    The tolerances keep the library defaults unless overridden; the
    grid is only populated by the sweep commands.
    """

    command: str
    root_residual_tol: float = RESID_ACCEPT
    ratio_band: float = CENTER_BAND
    quadrature_rel_tol: float = REL_TOL
    holonomy_rtol: float = RTOL
    grid: tuple = ()
    output_format: str = "json"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(
                f"unknown command {self.command!r}; commands are "
                + ", ".join(COMMANDS)
            )
        for name in _TOLERANCES:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 < v < math.inf):
                raise InputError(
                    f"{name} must be a positive finite number, got {v!r}")
        if self.holonomy_rtol < MIN_RTOL:
            raise InputError(f"holonomy_rtol must be at least {MIN_RTOL!r} "
                             f"(100 machine epsilons), got {self.holonomy_rtol!r}")
        if self.output_format not in ("json", "csv"):
            raise InputError(
                f"output format must be 'json' or 'csv', got {self.output_format!r}"
            )
        if not all(math.isfinite(t) for t in self.grid):
            raise InputError("the level grid must be finite")
        if self.command in ("melnikov", "holonomy") and not self.grid:
            raise InputError(f"{self.command} needs a nonempty level grid")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise InputError("the level grid must be strictly increasing")


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


def _linspace(t0: float, t1: float, n: int) -> tuple[float, ...]:
    if n > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {n}")
    if n < 2:
        raise InputError("need at least 2 samples")
    step = (t1 - t0) / (n - 1)
    return tuple(t0 + k * step for k in range(n))


def _point_payload(sp) -> dict:
    out = {
        "x": complex(sp.x), "y": complex(sp.y),
        "class": sp.classification, "residual": float(sp.residual),
        "notes": list(sp.notes),
    }
    out["eigenvalue_ratio"] = (complex(sp.eigenvalue_ratio)
                               if sp.eigenvalue_ratio is not None else None)
    out["eigenvalues"] = ([complex(l) for l in sp.eigenvalues]
                          if sp.eigenvalues is not None else None)
    return out


def _default_center(record) -> tuple[float, float]:
    from .foliation import first_real_center
    center = first_real_center(record)
    if center is None:
        raise InputError("the record has no real center candidate; pass --center")
    return center


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, rows, columns); rows is None
# when the command has no CSV projection


def _cmd_sing(args, cfg: RunConfig):
    from .foliation import (classify_singularity, find_singularities,
                            residual_scale)
    from .formats import load_record
    record = load_record(args.form)
    points = find_singularities(record)
    for sp in points:
        # the finder accepts by a residual relative to the field's scale
        # at the point; the gate compares on that same scale
        scale = residual_scale(record, sp.x, sp.y)
        if sp.residual > cfg.root_residual_tol * scale:
            raise NumericError(
                f"singular point near ({sp.x}, {sp.y}) has residual "
                f"{sp.residual:.3e} above the gate "
                f"{cfg.root_residual_tol:.3e} relative to the field's scale"
            )
    payload = [_point_payload(classify_singularity(record, sp.location,
                                                   band=cfg.ratio_band))
               for sp in points]
    rows = [{"x_re": p["x"].real, "x_im": p["x"].imag,
             "y_re": p["y"].real, "y_im": p["y"].imag,
             "class": p["class"]} for p in payload]
    return payload, rows, ("x_re", "x_im", "y_re", "y_im", "class")


def _cmd_classify(args, cfg: RunConfig):
    from .foliation import classify_singularity
    from .formats import load_record
    record = load_record(args.form)
    pt = classify_singularity(record, (_cpoint(args.x, "--x"),
                                       _cpoint(args.y, "--y")),
                              band=cfg.ratio_band)
    return _point_payload(pt), None, None


def _cmd_log(args, cfg: RunConfig):
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
    census = count_centers(record, band=cfg.ratio_band)
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


def _cmd_dulac(args, cfg: RunConfig):
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


def _cmd_pullback(args, cfg: RunConfig):
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


def _cmd_integrability(args, cfg: RunConfig):
    from .foliation import integrability_obstruction
    from .formats import load_form
    omega = load_form(args.form)
    obstruction = integrability_obstruction(omega)
    comps = [{"indices": list(idx), "coefficient": str(c)}
             for idx, c in sorted(obstruction.comps.items())]
    payload = {"integrable": obstruction.is_zero, "obstruction": comps}
    return payload, None, None


def _cmd_holonomy(args, cfg: RunConfig):
    from .flow import cycle_through_level, holonomy, parallel_map, trace_cycle
    from .formats import load_record
    record = load_record(args.form)
    rtol, atol = cfg.holonomy_rtol, min(cfg.holonomy_rtol, ATOL)

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
              else _default_center(record))
    direction = (_point(args.direction, "--direction") if args.direction
                 else (1.0, 0.0))

    def sample(t):
        cyc = cycle_through_level(record, center, t, direction)
        h = holonomy(record, cyc, rtol=rtol, atol=atol)
        return {"t": h.t_in, "h": h.t_out, "defect": h.t_out - h.t_in,
                "s_return": h.s_return}

    rows = parallel_map(sample, cfg.grid)
    payload = {"center": list(center), "samples": rows}
    return payload, rows, ("t", "h", "defect", "s_return")


def _cmd_melnikov(args, cfg: RunConfig):
    from .flow import parallel_map
    from .formats import load_form, load_record
    from .melnikov import m1, m1_sweep, make_problem
    record = load_record(args.base)
    omega1 = load_form(args.pert, record.vars)
    center = _point(args.center, "--center") if args.center else None
    problem = make_problem(record, omega1, center=center)
    if len(cfg.grid) >= 4:
        sweep = m1_sweep(problem, list(cfg.grid), rel_tol=cfg.quadrature_rel_tol)
        values = list(sweep.values)
        multiplicity = sweep.multiplicity
        identically_zero = sweep.identically_zero
    else:
        # too few points for the multiplicity fit; report plain values
        values = parallel_map(
            lambda t: m1(problem, t, rel_tol=cfg.quadrature_rel_tol), cfg.grid)
        multiplicity = None
        identically_zero = all(abs(v) < ZERO_THRESHOLD for v in values)
    rows = [{"t": t, "m1": v} for t, v in zip(cfg.grid, values)]
    payload = {
        "center_level": problem.center_level,
        "grid": list(cfg.grid),
        "m1": values,
        "multiplicity": multiplicity,
        "identically_zero": identically_zero,
    }
    return payload, rows, ("t", "m1")


def _cmd_monodromy(args, cfg: RunConfig):
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


def _cmd_picard_fuchs(args, cfg: RunConfig):
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


def _cmd_brieskorn(args, cfg: RunConfig):
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


def _build_parsers():
    common = _Parser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--config", default=None)

    top = _Parser(prog="folia", allow_abbrev=False,
                  description="plane polynomial foliation workbench")
    sub = top.add_subparsers(dest="command")
    parsers = {}

    def add(name, **kw):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, **kw)
        for dest, commands in _TOLERANCES.items():
            if name in commands:
                # unset flags leave the RunConfig default in place
                p.add_argument("--" + dest.replace("_", "-"),
                               type=_finite_float, default=argparse.SUPPRESS)
        parsers[name] = p
        return p

    p = add("sing", help="find and classify the singular points of a record")
    p.add_argument("--form", required=True, help="record file")

    p = add("classify", help="classify one singular point")
    p.add_argument("--form", required=True)
    p.add_argument("--x", required=True, help="x coordinate, 're' or 're,im'")
    p.add_argument("--y", required=True, help="y coordinate, 're' or 're,im'")

    p = add("log", help="build a logarithmic record and run its center census")
    p.add_argument("--factor", action="append", default=[])
    p.add_argument("--residue", action="append", default=[])
    p.add_argument("--variables", default="x,y")
    p.add_argument("--out", default=None, help="write the record file here")

    p = add("dulac", help="emit a Dulac-family record")
    p.add_argument("--family", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--variables", default="x,y")

    p = add("pullback", help="pull a 1-form back along a polynomial map")
    p.add_argument("--map", required=True)
    p.add_argument("--form", required=True)

    p = add("integrability", help="check w ^ dw = 0 for a 1-form")
    p.add_argument("--form", required=True)

    p = add("holonomy", help="return map along level cycles")
    p.add_argument("--form", required=True)
    p.add_argument("--t", action="append", type=_finite_float, default=[])
    p.add_argument("--seed-point", default=None)
    p.add_argument("--center", default=None)
    p.add_argument("--direction", default=None)

    p = add("melnikov", help="first Melnikov function over a level grid")
    p.add_argument("--base", required=True)
    p.add_argument("--pert", required=True)
    p.add_argument("--t0", type=_finite_float, required=True)
    p.add_argument("--t1", type=_finite_float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--center", default=None)

    p = add("monodromy", help="Picard-Lefschetz operators of y^2 = p(x) + t")
    p.add_argument("--p", required=True)
    p.add_argument("--var", default="x")

    p = add("picard-fuchs", help="exact Gauss-Manin connection matrix")
    p.add_argument("--p", required=True)
    p.add_argument("--var", default="x")

    p = add("brieskorn", help="reduce a 1-form in the Brieskorn basis of y^2 - x^m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--omega", required=True)

    p = sub.add_parser("selftest", allow_abbrev=False,
                       help="run the acceptance criteria")
    p.add_argument("--rel-tol", type=_finite_float, default=None)
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers to run")
    parsers["selftest"] = p

    return top, parsers


_HANDLERS = {
    "sing": _cmd_sing,
    "classify": _cmd_classify,
    "log": _cmd_log,
    "dulac": _cmd_dulac,
    "pullback": _cmd_pullback,
    "integrability": _cmd_integrability,
    "holonomy": _cmd_holonomy,
    "melnikov": _cmd_melnikov,
    "monodromy": _cmd_monodromy,
    "picard-fuchs": _cmd_picard_fuchs,
    "brieskorn": _cmd_brieskorn,
}


def _fits(value, flag_type) -> bool:
    """Whether a JSON value is one the flag could take on the command
    line: a string for untyped flags, an integer for ``int`` flags, a
    number for the float flags; never a boolean, null or container."""
    if isinstance(value, bool):
        return False
    if flag_type is None:
        return isinstance(value, str)
    if flag_type is int:
        return isinstance(value, int)
    return isinstance(value, (int, float))


def _apply_config(argv: list, parsers: dict, command: str):
    """Merge --config file values in as subparser defaults."""
    from .formats import load_json_file
    path = None
    for i, tok in enumerate(argv):
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
    parser = parsers[command]
    known = {a.dest for a in parser._actions}
    overrides = {}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("help", "config"):
            raise InputError(f"{path}: unknown config key {key!r} for {command!r}")
        action = next(a for a in parser._actions if a.dest == dest)
        takes_list = isinstance(action, argparse._AppendAction)
        values = value if isinstance(value, list) else [value]
        if (isinstance(value, list) != takes_list
                or not all(_fits(v, action.type) for v in values)):
            shape = "a list of single values" if takes_list else "a single value"
            kind = {None: "a string", int: "an integer"}.get(action.type, "a number")
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
    parser.set_defaults(**overrides)
    # a value from the config satisfies a required flag
    for action in parser._actions:
        if action.dest in overrides:
            action.required = False


def _grid_from_args(command: str, args) -> tuple[float, ...]:
    if command == "melnikov":
        return _linspace(args.t0, args.t1, args.samples)
    if command == "holonomy":
        if args.seed_point is not None:
            if args.t:
                raise InputError("pass either --t levels or --seed-point, not both")
            return (0.0,)  # placeholder; seed-point mode ignores the grid
        return tuple(sorted(set(float(t) for t in args.t)))
    return ()


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
    top, parsers = _build_parsers()
    if not argv:
        raise InputError("no command given; commands are " + ", ".join(COMMANDS))
    if argv[0] not in COMMANDS and argv[0] not in ("-h", "--help"):
        raise InputError(
            f"unknown command {argv[0]!r}; commands are " + ", ".join(COMMANDS)
        )
    if argv[0] in COMMANDS:
        _apply_config(argv[1:], parsers, argv[0])
    args = top.parse_args(argv)

    if args.command == "selftest":
        return _selftest(args)

    cfg = RunConfig(
        command=args.command,
        grid=_grid_from_args(args.command, args),
        output_format=args.format,
        **{k: v for k, v in vars(args).items() if k in _TOLERANCES},
    )
    from .formats import canonical_json, rows_to_csv
    payload, rows, columns = _HANDLERS[args.command](args, cfg)
    if cfg.output_format == "csv":
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
