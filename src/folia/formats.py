"""Deterministic serialization and input-file loading for the CLI.

Output side: every float is rounded to 12 significant digits before it
reaches the JSON encoder, complex numbers become two-element [re, im]
arrays, exact coefficients are rendered as strings, and object keys are
sorted.  Two runs that compute the same values therefore emit the same
bytes, which is what the selftest determinism contract checks.

Input side: records, differential forms and polynomial maps are read
from small JSON documents with a ``kind`` discriminator.  Loading is
strict: unknown kinds, unknown keys, and missing fields are rejected
with messages naming the file, and JSON syntax errors report the byte
offset of the first offending character.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Sequence

from .errors import InputError
from .foliation import (FoliationRecord, PolyMap, dulac_family, hamiltonian,
                        logarithmic)
from .forms import DifferentialForm
from .poly import GaussianRational, Poly, parse_poly

__all__ = [
    "fmt_float", "encode_value", "canonical_json", "rows_to_csv",
    "load_json_file", "load_record", "load_form", "load_map", "parse_residue",
    "record_payload",
]


def fmt_float(x: float) -> float:
    """Round to 12 significant digits; collapse -0.0 to 0.0."""
    return float(f"{float(x):.12g}") + 0.0


def encode_value(obj: Any) -> Any:
    """Recursively convert a payload into JSON-encodable primitives."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, complex):
        return [fmt_float(obj.real), fmt_float(obj.imag)]
    if isinstance(obj, (Fraction, GaussianRational, Poly)):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): encode_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_value(v) for v in obj]
    # numpy scalars expose item(); anything else is a bug in the caller
    item = getattr(obj, "item", None)
    if callable(item):
        return encode_value(item())
    raise InputError(f"cannot serialize {type(obj).__name__} objects")


def canonical_json(payload: Any) -> str:
    return json.dumps(encode_value(payload), sort_keys=True, indent=2) + "\n"


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}+{v.imag:.12g}i"
    if v is None:
        return ""
    return str(v)


def rows_to_csv(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Plain comma-separated projection of a list of flat row dicts."""
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_csv_cell(row.get(c)) for c in columns))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# input files


def load_json_file(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(
            f"malformed JSON in {path}: {e.msg} (byte offset {e.pos})"
        ) from e


def _require_keys(doc: dict, path: str, required: set):
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    keys = set(doc)
    missing = required - keys
    if missing:
        raise InputError(f"{path}: missing keys {sorted(missing)}")
    unknown = keys - required
    if unknown:
        raise InputError(f"{path}: unknown keys {sorted(unknown)}")


def _variables(doc: dict, path: str, n: int | None = 2) -> tuple[str, ...]:
    vs = doc.get("variables")
    if (not isinstance(vs, list) or not vs
            or not all(isinstance(v, str) and v for v in vs)):
        raise InputError(f"{path}: 'variables' must be a list of names")
    if n is not None and len(vs) != n:
        raise InputError(f"{path}: expected {n} variables, got {len(vs)}")
    return tuple(vs)


def _poly(src: Any, vs: tuple[str, ...], path: str, field: str) -> Poly:
    if not isinstance(src, str):
        raise InputError(f"{path}: field {field!r} must be a polynomial string")
    return parse_poly(src, vs)


def parse_residue(entry: Any, path: str) -> GaussianRational:
    """Residues may be ints, fraction strings like '3/4', or [re, im]."""
    if isinstance(entry, bool):
        raise InputError(f"{path}: residues cannot be booleans")
    if isinstance(entry, float) and not math.isfinite(entry):
        raise InputError(f"{path}: residues must be finite, got {entry!r}")
    if isinstance(entry, (int, float)):
        return GaussianRational.from_number(entry)
    if isinstance(entry, str):
        try:
            return GaussianRational.from_number(Fraction(entry))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"{path}: bad residue {entry!r}: {e}") from e
    if isinstance(entry, list) and len(entry) == 2:
        re, im = parse_residue(entry[0], path), parse_residue(entry[1], path)
        if not (re.is_real and im.is_real):
            raise InputError(f"{path}: [re, im] parts must themselves be real")
        return GaussianRational(re.re, im.re)
    raise InputError(f"{path}: residues must be numbers, 'p/q' strings, or [re, im]")


def load_record(path: str) -> FoliationRecord:
    """Load a foliation record file.

    Kinds: ``hamiltonian`` (field ``f``), ``logarithmic`` (``factors``,
    ``residues``), ``dulac`` (``family``, ``index``), ``plain``
    (components ``P``, ``Q`` of the dual field).
    """
    doc = load_json_file(path)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"{path}: record files need a 'kind' key")
    kind = doc["kind"]
    if kind == "hamiltonian":
        _require_keys(doc, path, {"kind", "variables", "f"})
        vs = _variables(doc, path)
        return hamiltonian(_poly(doc["f"], vs, path, "f"))
    if kind == "logarithmic":
        _require_keys(doc, path, {"kind", "variables", "factors", "residues"})
        vs = _variables(doc, path)
        fs = doc["factors"]
        rs = doc["residues"]
        if not isinstance(fs, list) or not isinstance(rs, list):
            raise InputError(f"{path}: 'factors' and 'residues' must be lists")
        factors = [_poly(f, vs, path, "factors") for f in fs]
        residues = [parse_residue(r, path) for r in rs]
        return logarithmic(factors, residues)
    if kind == "dulac":
        _require_keys(doc, path, {"kind", "variables", "family", "index"})
        vs = _variables(doc, path)
        fam, idx = doc["family"], doc["index"]
        if not isinstance(fam, str) or not isinstance(idx, int):
            raise InputError(f"{path}: 'family' is a string and 'index' an integer")
        return dulac_family(fam, idx, vs)
    if kind == "plain":
        _require_keys(doc, path, {"kind", "variables", "P", "Q"})
        vs = _variables(doc, path)
        return FoliationRecord(P=_poly(doc["P"], vs, path, "P"),
                               Q=_poly(doc["Q"], vs, path, "Q"))
    raise InputError(
        f"{path}: unknown record kind {kind!r} "
        "(want hamiltonian, logarithmic, dulac, or plain)"
    )


def load_form(path: str, variables: tuple[str, ...] | None = None) -> DifferentialForm:
    """Load a 1-form file: one coefficient string per variable."""
    doc = load_json_file(path)
    _require_keys(doc, path, {"kind", "variables", "coefficients"})
    if doc.get("kind") != "form":
        raise InputError(f"{path}: expected kind 'form', got {doc.get('kind')!r}")
    vs = _variables(doc, path, n=None)
    if variables is not None and vs != tuple(variables):
        raise InputError(
            f"{path}: form variables {vs} do not match the expected {tuple(variables)}"
        )
    cs = doc["coefficients"]
    if not isinstance(cs, list) or len(cs) != len(vs):
        raise InputError(f"{path}: need one coefficient per variable")
    comps = [_poly(c, vs, path, "coefficients") for c in cs]
    return DifferentialForm.one_form(comps)


def load_map(path: str) -> PolyMap:
    """Load a polynomial map file: components in the source variables."""
    doc = load_json_file(path)
    _require_keys(doc, path, {"kind", "variables", "components"})
    if doc.get("kind") != "map":
        raise InputError(f"{path}: expected kind 'map', got {doc.get('kind')!r}")
    vs = _variables(doc, path, n=None)
    cs = doc["components"]
    if not isinstance(cs, list) or not cs:
        raise InputError(f"{path}: 'components' must be a nonempty list")
    return PolyMap(components=tuple(_poly(c, vs, path, "components") for c in cs))


def record_payload(record: FoliationRecord) -> dict:
    """Round-trippable JSON description of a record (for --out)."""
    if record.kind == "hamiltonian" and record.integral is not None:
        return {"kind": "hamiltonian", "variables": list(record.vars),
                "f": str(record.integral)}
    if record.kind == "logarithmic" and record.log_spec is not None:
        return {"kind": "logarithmic", "variables": list(record.vars),
                "factors": [str(f) for f in record.log_spec.factors],
                "residues": [str(r.re) if r.is_real else [str(r.re), str(r.im)]
                             for r in record.log_spec.residues]}
    if record.dulac is not None:
        return {"kind": "dulac", "variables": list(record.vars),
                "family": record.dulac.family, "index": record.dulac.index}
    return {"kind": "plain", "variables": list(record.vars),
            "P": str(record.P), "Q": str(record.Q)}
