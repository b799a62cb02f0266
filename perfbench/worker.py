"""Runs one workload's job list in a closed loop and records what it saw.

One client: the next job starts when the previous one has ended.  The
in-process workloads (``exact``, ``numeric``) call ``folia.cli.run`` in
this process; ``cli`` starts one ``python -m folia`` process per job and
reads each child's peak resident memory from ``wait4``.

Timed set-up repetitions (fresh ``prepare.py`` processes) are spread
over the run, so that they meet the same host conditions as the passes.
Usage::

    python3 perfbench/worker.py --in DIR --scratch DIR --seconds S \
        --trace 0|1 --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A run never measures for longer than this, whatever --seconds says, so
# that it ends within the 180-second limit on a slow host.
HARD_STOP_S = 120.0
# Timed set-up repetitions in one run; setup_s is their median.
SETUP_REPS = 4


def resolve(argv, in_dir):
    """Job argv with its ``@/`` paths pointing into the input directory."""
    return [os.path.join(in_dir, a[2:]) if a.startswith("@/") else a
            for a in argv]


def folia_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class InProcess:
    """Runs jobs through ``folia.cli.run`` with the exit-code mapping of
    ``folia.cli.main``."""

    def __init__(self):
        sys.path.insert(0, SRC)
        from folia import cli
        from folia.errors import FoliaError, InputError
        self.cli, self.FoliaError, self.InputError = cli, FoliaError, InputError

    def __call__(self, argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(argv)
            err = ""
        except self.InputError as e:
            code, err = 2, str(e)
        except self.FoliaError as e:
            code, err = 3, str(e)
        except Exception as e:  # a crash is a failed job, reported as such
            code, err = 1, f"{type(e).__name__}: {e}"
        return code, buf.getvalue(), err, None


def run_cold(argv):
    """One ``python -m folia`` process; returns its peak RSS in MB too."""
    proc = subprocess.Popen([sys.executable, "-m", "folia", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=folia_env(), cwd=ROOT)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode().strip(), usage.ru_maxrss / 1024.0


class Loop:
    def __init__(self, args, doc):
        self.args, self.doc = args, doc
        self.reps: list[dict] = []
        self.outputs: dict[str, dict] = {}
        self.passes: list[dict] = []
        self.child_rss = 0.0
        self.cold = doc["workload"] == "cli"
        self.runner = run_cold if self.cold else InProcess()

    def setup_rep(self, k):
        """One timed set-up: a fresh process that imports folia, writes the
        inputs and warms up each job kind."""
        out_dir = os.path.join(self.args.scratch, f"rep{k}")
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"),
                            "--replay", self.args.inp, "--out", out_dir],
                           capture_output=True, text=True, cwd=ROOT)
        t1 = time.perf_counter()
        self.reps.append({"start": t0, "end": t1, "ok": r.returncode == 0,
                          "stderr": r.stderr[-400:]})

    def run_job(self, job, pass_rec):
        argv = resolve(job["argv"], self.args.inp)
        # every job starts from an empty collector, as a fresh folia process
        # does, so that no job pays for the garbage an earlier one left
        gc.collect()
        t0 = time.perf_counter()
        code, out, err, rss = self.runner(argv)
        t1 = time.perf_counter()
        if rss is not None:
            self.child_rss = max(self.child_rss, rss)
        key = hashlib.sha256(f"{job['id']}\0{code}\0{out}\0{err}".encode()).hexdigest()[:16]
        self.outputs.setdefault(key, {"job": job["id"], "code": code,
                                      "stdout": out, "stderr": err})
        pass_rec["jobs"].append({"job": job["id"], "start": t0, "end": t1,
                                 "out": key})
        return t1 - t0

    def run(self, recorder=None):
        jobs = self.doc["jobs"]
        if not self.cold:
            for job in self.doc["warmup"]:
                self.runner(resolve(job["argv"], self.args.inp))
        seconds = float(self.args.seconds)
        thresholds = [seconds * k / SETUP_REPS for k in range(SETUP_REPS)]
        measured, started = 0.0, time.perf_counter()
        min_passes = 2 if recorder is not None else 1
        while True:
            traced = recorder is not None and len(self.passes) % 2 == 1
            pass_rec = {"index": len(self.passes), "traced": traced, "jobs": []}
            if traced:
                recorder.install(pass_rec["index"])
            try:
                for job in jobs:
                    if len(self.reps) < SETUP_REPS and measured >= thresholds[len(self.reps)]:
                        self.setup_rep(len(self.reps))
                    measured += self.run_job(job, pass_rec)
            finally:
                if traced:
                    recorder.uninstall()
            self.passes.append(pass_rec)
            if len(self.passes) >= min_passes and (
                    measured >= seconds
                    or time.perf_counter() - started > HARD_STOP_S):
                break
        while len(self.reps) < SETUP_REPS:
            self.setup_rep(len(self.reps))


def probe_import(n=3):
    """Cold ``import folia`` in fresh interpreters: seconds and modules."""
    code = ("import sys, time; n0 = len(sys.modules); t = time.perf_counter(); "
            "import folia; print(time.perf_counter() - t, len(sys.modules) - n0)")
    runs = []
    for _ in range(n):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=folia_env(), cwd=ROOT, check=True)
        s, mods = r.stdout.split()
        runs.append((float(s), int(mods)))
    return runs


def probe(args, loop, recorder):
    """Per-layer figures for layers the workload's own passes do not reach:
    one traced pass of each other in-process job list, one cold command of
    each kind, the eight selftest criteria (untraced) and a cold import."""
    sys.path.insert(0, HERE)
    import workloads
    from prepare import write_inputs
    out: dict = {"other_passes": {}, "cold": {}, "criteria": {}}
    for other in ("exact", "numeric"):
        if other == loop.doc["workload"]:
            continue
        in_dir = os.path.join(args.scratch, f"probe-{other}")
        doc = workloads.draw(other, loop.doc["seed"])
        write_inputs(doc, in_dir)
        runner = loop.runner if not loop.cold else InProcess()
        for job in doc["warmup"]:
            runner(resolve(job["argv"], in_dir))
        pid = f"probe-{other}"
        recorder.install(pid)
        try:
            for job in doc["jobs"]:
                runner(resolve(job["argv"], in_dir))
        finally:
            recorder.uninstall()
        out["other_passes"][other] = pid
    if not loop.cold:
        in_dir = os.path.join(args.scratch, "probe-cli")
        doc = workloads.draw("cli", loop.doc["seed"])
        write_inputs(doc, in_dir)
        for job in doc["jobs"]:
            t0 = time.perf_counter()
            run_cold(resolve(job["argv"], in_dir))
            out["cold"][job["kind"]] = time.perf_counter() - t0
    sys.path.insert(0, SRC)
    from folia import acceptance
    for k, fn in enumerate(acceptance.CRITERIA, start=1):
        t0 = time.perf_counter()
        fn()
        out["criteria"][str(k)] = time.perf_counter() - t0
    out["import"] = probe_import()
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--in", dest="inp", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(args.inp, "jobs.json")) as fh:
        doc = json.load(fh)

    loop = Loop(args, doc)
    recorder = None
    if args.trace:
        sys.path.insert(0, SRC)     # the recorder wraps folia's functions
        from tracing import Recorder
        recorder = Recorder()
    loop.run(recorder)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer_probe = probe(args, loop, recorder) if recorder is not None else None

    result = {
        "workload": doc["workload"],
        "passes": loop.passes,
        "outputs": loop.outputs,
        "setup_reps": loop.reps,
        "rss_mb": loop.child_rss if loop.cold else rss_self,
    }
    if recorder is not None:
        result["layers"] = {str(p["index"]): recorder.pass_summary(p["index"])
                            for p in loop.passes if p["traced"]}
        result["probe"] = layer_probe
        for pid in layer_probe["other_passes"].values():
            result["layers"][pid] = recorder.pass_summary(pid)
        result["trace"] = recorder.dump()
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
