"""Byte-for-byte replay of the numeric commands against a golden record.

``tests/data/numeric_golden.json`` holds, for each invocation below, its
exit code and the exact bytes ``folia.cli.main`` wrote: the document on
stdout for a success, the one JSON line on stderr for a failure.  The
invocations cover ``holonomy``, ``melnikov``, ``sing``, ``classify`` and
``log`` on the CLI-test inputs, the benchmark's quartic well and its
perturbation, the conic plus line, the triangle with residues 1, 2, 3,
and ROADMAP defect (a).  A change to the numeric kernels must leave
every byte as it is.

To record the file again, deliberately, run this module as a script:
``PYTHONPATH=src python tests/test_numeric_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from folia import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "numeric_golden.json"

FILES = {
    "circle.json": {"kind": "hamiltonian", "variables": ["x", "y"],
                    "f": "1/2*x^2 + 1/2*y^2"},
    "rot.json": {"kind": "form", "variables": ["x", "y"],
                 "coefficients": ["-y", "x"]},
    "well.json": {"kind": "hamiltonian", "variables": ["x", "y"],
                  "f": "1/2*x^4 + 1/8*x^2*y^2 + 1/2*x^2 + 3/8*y^4 + 1/2*y^2"},
    "well_pert.json": {"kind": "form", "variables": ["x", "y"],
                       "coefficients": ["0", "-x*y^2 - x"]},
    "conic_line.json": {"kind": "logarithmic", "variables": ["x", "y"],
                        "factors": ["x^2 + y^2 - 1", "x - 3"],
                        "residues": [1, 1]},
    "triangle.json": {"kind": "logarithmic", "variables": ["x", "y"],
                      "factors": ["x", "y", "1 - x - y"],
                      "residues": [1, 2, 3]},
    "defect_a.json": {"kind": "logarithmic", "variables": ["x", "y"],
                      "factors": ["x^3 + y^3 - 1", "x^2 - y", "x + y^2 - 5"],
                      "residues": [1, 2, 3]},
}

WELL_LEVELS = ("0.074", "0.215", "0.304", "0.384", "0.497", "0.620",
               "0.686", "0.810", "0.894", "1.016")

TRIANGLE = ["--factor", "x", "--factor", "y", "--factor", "1 - x - y",
            "--residue", "1", "--residue", "2", "--residue", "3"]

# name -> argv; "@/<file>" stands for the file of that name in FILES
INVOCATIONS = {
    "holonomy-circle-levels": ["holonomy", "--form", "@/circle.json",
                               "--t", "0.25", "--t", "0.5"],
    "holonomy-circle-seed-point": ["holonomy", "--form", "@/circle.json",
                                   "--seed-point", "1,0"],
    "holonomy-circle-rtol-csv": ["holonomy", "--form", "@/circle.json", "--t",
                                 "0.3", "--holonomy-rtol", "1e-9",
                                 "--format", "csv"],
    "holonomy-well-levels": ["holonomy", "--form", "@/well.json",
                             "--center", "0,0",
                             *[a for t in WELL_LEVELS for a in ("--t", t)]],
    "holonomy-circle-far-seed": ["holonomy", "--form", "@/circle.json",
                                 "--seed-point", "1e200,0"],
    "melnikov-circle-rot": ["melnikov", "--base", "@/circle.json", "--pert",
                            "@/rot.json", "--t0", "0.1", "--t1", "1",
                            "--samples", "5"],
    "melnikov-circle-rot-csv": ["melnikov", "--base", "@/circle.json",
                                "--pert", "@/rot.json", "--t0", "0.2", "--t1",
                                "0.6", "--samples", "3", "--format", "csv"],
    "melnikov-circle-well-pert": ["melnikov", "--base", "@/circle.json",
                                  "--pert", "@/well_pert.json", "--t0", "0.1",
                                  "--t1", "1", "--samples", "9"],
    "melnikov-well": ["melnikov", "--base", "@/well.json", "--pert",
                      "@/well_pert.json", "--t0", "0.1", "--t1", "1",
                      "--samples", "9", "--center", "0,0"],
    "sing-circle": ["sing", "--form", "@/circle.json"],
    "sing-well": ["sing", "--form", "@/well.json"],
    "sing-conic-line": ["sing", "--form", "@/conic_line.json"],
    "sing-conic-line-csv": ["sing", "--form", "@/conic_line.json",
                            "--format", "csv"],
    "sing-triangle": ["sing", "--form", "@/triangle.json"],
    "sing-defect-a": ["sing", "--form", "@/defect_a.json"],
    "classify-circle-center": ["classify", "--form", "@/circle.json",
                               "--x", "0", "--y", "0"],
    "classify-triangle-vertex": ["classify", "--form", "@/triangle.json",
                                 "--x", "0", "--y", "0"],
    "classify-well-regular": ["classify", "--form", "@/well.json",
                              "--x", "1/2", "--y", "0"],
    "log-triangle": ["log", *TRIANGLE],
    "log-conic-line": ["log", "--factor", "x^2 + y^2 - 1",
                       "--factor", "x - 3"],
    "log-defect-a": ["log", "--factor", "x^3 + y^3 - 1", "--factor", "x^2 - y",
                     "--factor", "x + y^2 - 5", "--residue", "1",
                     "--residue", "2", "--residue", "3"],
}


def invoke(argv, folder):
    """Run ``folia.cli.main`` on argv in process: (exit code, stdout, stderr)."""
    argv = [str(folder / a[2:]) if a.startswith("@/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["folia", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main()
    except SystemExit as e:
        code = e.code
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def write_inputs(folder):
    for name, doc in FILES.items():
        (folder / name).write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation(golden):
    assert sorted(golden) == sorted(INVOCATIONS)
    for name, argv in INVOCATIONS.items():
        assert golden[name]["argv"] == argv


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_numeric_documents_are_byte_identical(name, golden, tmp_path):
    write_inputs(tmp_path)
    code, out, err = invoke(INVOCATIONS[name], tmp_path)
    want = golden[name]
    assert code == want["exit_code"]
    assert out == want["stdout"]
    assert err == want["stderr"]   # one JSON line for a failure, else nothing


def _record():
    doc = {}
    with tempfile.TemporaryDirectory() as d:
        folder = Path(d)
        write_inputs(folder)
        for name, argv in INVOCATIONS.items():
            code, out, err = invoke(argv, folder)
            # keep the JSON line only: a Python warning may precede it
            err_line = err.splitlines()[-1] + "\n" if err else ""
            doc[name] = {"argv": argv, "exit_code": code, "stdout": out,
                         "stderr": err_line}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
