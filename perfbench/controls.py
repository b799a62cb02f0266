"""Negative controls for the output checks.

For every job kind, runs one job of the workloads (seed 0) in process,
shows that its check accepts the program's output, then feeds the check
a corrupted copy and shows that it rejects it.  Exits 1 if any check
accepts a corrupted output or rejects a good one.

    python3 perfbench/controls.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from prepare import write_inputs  # noqa: E402
from run import known_failure  # noqa: E402
from worker import InProcess, resolve  # noqa: E402

OUT = os.path.join(os.path.dirname(HERE), ".perfbench_out", "controls")


def _flip_matrix_sign(doc):
    m = doc["operators"][0]["matrix"]
    i, j = next((i, j) for i, r in enumerate(m) for j, e in enumerate(r)
                if i != j and e)
    m[i][j] = -m[i][j]


def _perturb_pf(doc):
    doc["matrix"][0][0] = f"({doc['matrix'][0][0]}) + 1/1000"


def _shift_m1(doc):
    doc["m1"][3] += 1e-3


def _shift_h(doc):
    doc["samples"][0]["h"] += 1e-6
    doc["samples"][0]["defect"] += 1e-6


def _add_term(key):
    def corrupt(doc):
        doc[key][0] = f"{doc[key][0]} + 1/7"
    return corrupt


def _flip_integrable(doc):
    doc["integrable"] = not doc["integrable"]


def _move_first_point(doc):
    pts = doc if isinstance(doc, list) else doc["centers"]
    pts[0]["x"][0] += 1e-3


def _drop_center(doc):
    doc["centers"].pop()
    doc["total"] -= 1


def _reclassify(doc):
    doc["class"] = "generic_reduced"


def _clearing_factor(doc):
    doc["clearing_factor"] = f"({doc['clearing_factor']})*p"


# job id -> corruptions, each (label, function)
CONTROLS = {
    "monodromy-deg5": [("flipped matrix sign", _flip_matrix_sign)],
    "pf-deg4": [("perturbed entry", _perturb_pf)],
    "melnikov-well": [("M1 value off by 1e-3", _shift_m1)],
    "melnikov-circle": [("M1 value off by 1e-3", _shift_m1)],
    "holonomy-well": [("h off by 1e-6", _shift_h)],
    "pullback": [("coefficient plus 1/7", _add_term("coefficients"))],
    "integrability0": [("integrable flag flipped", _flip_integrable)],
    "integrability1": [("integrable flag flipped", _flip_integrable)],
    "brieskorn": [("coefficient plus 1/7", _add_term("coefficients"))],
    "cli-brieskorn": [("coefficient plus 1/7", _add_term("coefficients"))],
    "sing-conic-line": [("point moved by 1e-3", _move_first_point)],
    "log-conic-line": [("center dropped", _drop_center),
                       ("center moved by 1e-3", _move_first_point)],
    "cli-classify": [("class changed", _reclassify)],
    "cli-dulac": [("clearing factor changed", _clearing_factor)],
    "cli-sing": [("point moved by 1e-3", _move_first_point)],
}


def defect_controls(runner, in_dir):
    """The defect (a) check cannot be fed a good program output today; it
    must reject a list above the Bezout bound and a point that is no zero.
    The run excuses the job's known failure, and no other failure of it."""
    job = next(j for j in workloads.draw("numeric", 0)["jobs"]
               if j["id"] == "sing-defect-a")
    too_many = [{"x": [float(k), 0.0], "y": [0.0, 0.0], "class": "generic_reduced"}
                for k in range(37)]
    not_zero = [{"x": [1.0, 0.0], "y": [1.0, 0.0], "class": "generic_reduced"}]
    for label, doc in (("37 points", too_many), ("a point that is no zero", not_zero)):
        yield job["kind"], "sing-defect-a", label, checks.check(
            job, {"code": 0, "stdout": json.dumps(doc), "stderr": ""}) is not None
    code, out, err, _ = runner(resolve(job["argv"], in_dir))
    known = {"code": code, "stdout": out, "stderr": err}
    yield job["kind"], "sing-defect-a", "program output", known_failure(job, known)
    for label, other in (("a crash of the job (exit 1)", dict(known, code=1)),
                         ("exit 3, another message", dict(known, stderr="other"))):
        yield job["kind"], "sing-defect-a", label, not known_failure(job, other)


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    runner = InProcess()
    rows = []
    for wl in ("exact", "numeric", "cli"):
        in_dir = os.path.join(OUT, wl)
        doc = workloads.draw(wl, 0)
        write_inputs(doc, in_dir)
        for job in {j["id"]: j for j in doc["jobs"]}.values():
            if job["id"] not in CONTROLS:
                continue
            code, out, err, _ = runner(resolve(job["argv"], in_dir))
            good = {"code": code, "stdout": out, "stderr": err}
            why = checks.check(job, good)
            rows.append((job["kind"], job["id"], "program output", why is None, why))
            for label, corrupt in CONTROLS[job["id"]]:
                bad_doc = copy.deepcopy(json.loads(out))
                corrupt(bad_doc)
                bad = dict(good, stdout=json.dumps(bad_doc))
                why = checks.check(job, bad)
                rows.append((job["kind"], job["id"], label, why is not None, why))
    for kind, jid, label, ok in defect_controls(runner, os.path.join(OUT, "numeric")):
        rows.append((kind, jid, label, ok, None))
    bad = 0
    for kind, jid, label, ok, why in rows:
        expect = "accept" if label == "program output" else "reject"
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {kind:14} {jid:16} {label:28} "
              f"{expect}s" + ("" if why is None else f"  ({why[:90]})"))
    shutil.rmtree(OUT, ignore_errors=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
