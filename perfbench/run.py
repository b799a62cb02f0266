"""The folia benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {cli,exact,numeric} --seed N \
        --seconds S --trace {0,1}

Run from the root of a folia checkout.  The run

1. prepares the workload's seeded inputs once, untimed (this also fills
   the page cache);
2. starts ``worker.py``, which runs the job list in a closed loop for
   ``--seconds`` seconds of job time, in whole passes, with timed set-up
   repetitions spread over the run;
3. checks every distinct output with ``checks.py``, apart from the
   program;
4. prints a human-readable summary and, as its last line, one JSON
   object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the spans and counts are
written to ``.perfbench_out/trace-<workload>-seed<N>.json``.

All times are wall-clock seconds (``time.perf_counter``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

WORKER_TIMEOUT_S = 165

CLI_COMMANDS = ("sing", "classify", "log", "dulac", "pullback",
                "integrability", "holonomy", "melnikov", "monodromy",
                "picard-fuchs", "brieskorn")
SPAN_METRICS = (
    ("formats.load_s", "formats.load"),
    ("formats.canonical_json_s", "formats.canonical_json"),
    ("poly.parse_poly_s", "poly.parse_poly"),
    ("poly.resultant_s", "poly.resultant"),
    ("foliation.find_singularities_s", "foliation.find_singularities"),
    ("foliation.classify_singularity_s", "foliation.classify_singularity"),
    ("foliation.pullback_form_s", "foliation.pullback_form"),
    ("foliation.integrability_obstruction_s", "foliation.integrability_obstruction"),
    ("flow.trace_cycle_s", "flow.trace_cycle"),
    ("flow.holonomy_s", "flow.holonomy"),
    ("melnikov.make_problem_s", "melnikov.make_problem"),
    ("melnikov.m1_s", "melnikov.m1"),
    ("monodromy.build_model_s", "monodromy.build_model"),
    ("monodromy.generators_s", "monodromy.generators"),
    ("monodromy.orbit_span_s", "monodromy.orbit_span"),
    ("gaussmanin.picard_fuchs_s", "gaussmanin.picard_fuchs"),
    ("gaussmanin.brieskorn_reduce_s", "gaussmanin.brieskorn_reduce"),
    ("acceptance.parallel_map_s", "acceptance.parallel_map"),
)
CALL_METRICS = (
    ("poly.resultant_calls", "poly.resultant"),
    ("foliation.find_singularities_calls", "foliation.find_singularities"),
    ("melnikov.m1_calls", "melnikov.m1"),
)
TAGGED_METRICS = (
    [(f"monodromy.generators_deg{d}_s", f"monodromy.generators_deg{d}")
     for d in range(3, 9)]
    + [(f"gaussmanin.picard_fuchs_deg{d}_s", f"gaussmanin.picard_fuchs_deg{d}")
       for d in range(3, 8)])
COUNT_METRICS = (
    "foliation.singular_points", "flow.solve_ivp_calls", "flow.solve_ivp_nfev",
    "monodromy.np_roots_calls", "monodromy.assignment_calls",
    "ratfunc.ratfrac_made", "ratfunc.upoly_gcd_calls",
    "acceptance.threads_started",
)


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def job_times(result):
    """Per pass: list of (job id, seconds)."""
    return [[(j["job"], j["end"] - j["start"]) for j in p["jobs"]]
            for p in result["passes"]]


def end_to_end(result):
    """pass_s is the mean pass, and job_s.p50 the median over the job list
    of each job's mean time: the host's speed swings by half for a second
    at a time, and a median of a few passes, or of one job's few calls,
    jumps with it where a mean moves by its share."""
    passes = job_times(result)
    reps = [r["end"] - r["start"] for r in result["setup_reps"]]
    per_job: dict[str, list[float]] = {}
    for p in passes:
        for jid, t in p:
            per_job.setdefault(jid, []).append(t)
    return {
        "setup_s": {"value": median(reps), "unit": "s"},
        "pass_s": {"value": statistics.fmean([sum(t for _, t in p) for p in passes]),
                   "unit": "s"},
        "job_s.p50": {"value": median([statistics.fmean(ts) for ts in per_job.values()]),
                      "unit": "s"},
        "rss_peak_mb": {"value": result["rss_mb"], "unit": "MB"},
    }


def known_failure(job, output):
    """True when the named defect job fails the way the defect is known to:
    any other failure of that job is reported as unexpected."""
    defect = job["meta"].get("known_defect")
    return (defect is not None and output["code"] == defect["code"]
            and defect["message"] in output["stderr"])


def src_lines():
    total = 0
    for base, _, names in os.walk(os.path.join(ROOT, "src", "folia")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def per_layer(result, jobs):
    """Per-layer figures: from the workload's own traced passes where they
    call the layer, else from one traced pass of the other job lists."""
    layers = result["layers"]
    own = [layers[str(p["index"])] for p in result["passes"] if p["traced"]]
    probes = [v for k, v in layers.items() if k.startswith("probe-")]

    def pick(field, name, reduce_own, reduce_probe):
        vals = [s[field].get(name, 0) for s in own]
        if any(vals):
            return reduce_own(vals)
        return reduce_probe([s[field].get(name, 0) for s in probes])

    m = {}
    for metric, name in SPAN_METRICS:
        m[metric] = (pick("time", name, median, sum), "s")
    for metric, name in CALL_METRICS:
        m[metric] = (pick("calls", name, median, sum), "count")
    for metric in COUNT_METRICS:
        m[metric] = (pick("counts", metric, median, sum), "count")
    for metric, name in TAGGED_METRICS:
        calls = [x for s in own for x in s["tagged"].get(name, [])]
        if not calls:
            calls = [x for s in probes for x in s["tagged"].get(name, [])]
        m[metric] = (median(calls), "s")

    probe = result["probe"]
    if result["workload"] == "cli":
        kind = {j["id"]: j["kind"] for j in jobs}
        times = [(kind[jid], t) for p in job_times(result) for jid, t in p]
        cold = {c: median([t for k, t in times if k == c]) for c in CLI_COMMANDS}
    else:
        cold = {c: probe["cold"][c] for c in CLI_COMMANDS}
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = (cold[c], "s")
    m["import.folia_s"] = (median([s for s, _ in probe["import"]]), "s")
    m["import.modules"] = (median([n for _, n in probe["import"]]), "count")
    for k, seconds in sorted(probe["criteria"].items()):
        m[f"acceptance.criterion{k}_s"] = (seconds, "s")
    passes = job_times(result)
    traced = [sum(t for _, t in p) for p, rec in zip(passes, result["passes"])
              if rec["traced"]]
    plain = [sum(t for _, t in p) for p, rec in zip(passes, result["passes"])
             if not rec["traced"]]
    m["trace.overhead_s"] = (median(traced) - median(plain), "s")
    m["trace.spans"] = (len(result["trace"]["spans"]), "count")
    m["src.lines"] = (src_lines(), "lines")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("cli", "exact", "numeric"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "folia", "__init__.py")):
        fail(f"no folia sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a folia checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    inp, scratch = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    try:
        run(args, run_dir, inp, scratch)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir, inp, scratch):
    prep = subprocess.run(
        [sys.executable, os.path.join(HERE, "prepare.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--out", inp],
        capture_output=True, text=True, cwd=ROOT)
    if prep.returncode != 0:
        fail(f"preparing the inputs failed:\n{prep.stderr[-2000:]}")
    res_path = os.path.join(run_dir, "result.json")
    # a new process group, so that a timeout stops the worker's children too
    work = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--in", inp,
         "--scratch", scratch, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", res_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True)
    try:
        _, err = work.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(work.pid, signal.SIGKILL)
        work.communicate()
        fail(f"the worker did not finish within {WORKER_TIMEOUT_S} s")
    if work.returncode != 0:
        fail(f"the worker failed:\n{err[-2000:]}")
    with open(res_path) as fh:
        result = json.load(fh)
    with open(os.path.join(inp, "jobs.json")) as fh:
        jobs = json.load(fh)["jobs"]

    sys.path.insert(0, HERE)
    import checks
    by_id = {j["id"]: j for j in jobs}
    verdicts = {key: checks.check(by_id[out["job"]], out)
                for key, out in result["outputs"].items()}
    attempted = failed = 0
    unexpected = {}
    for p in result["passes"]:
        for j in p["jobs"]:
            attempted += 1
            why = verdicts[j["out"]]
            if why is not None:
                failed += 1
                if not known_failure(by_id[j["job"]], result["outputs"][j["out"]]):
                    unexpected[j["job"]] = why
    bad_reps = [r for r in result["setup_reps"] if not r["ok"]]
    correct = not unexpected and not bad_reps

    if args.trace:
        metrics = per_layer(result, jobs)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": metrics, **result["trace"]}, fh)
    else:
        metrics = end_to_end(result)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(result['passes'])} passes, {attempted} jobs, {failed} failed")
    for key, why in sorted(verdicts.items(), key=lambda kv: result["outputs"][kv[0]]["job"]):
        if why is not None:
            print(f"  failed {result['outputs'][key]['job']}: {why}")
    for r in bad_reps:
        print(f"  a timed set-up failed: {r['stderr']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
