"""One set-up of a workload, as a fresh process.

    python3 perfbench/prepare.py --workload exact --seed 1 --out DIR
    python3 perfbench/prepare.py --replay DIR --out DIR2

The first form draws the seeded inputs (with sympy), writes them and the
job list into DIR, and warms up each job kind.  The second is the timed
set-up: it imports folia, writes the inputs DIR's job list holds, and
warms up each job kind, leaving out only the benchmark's own sympy draw,
which no change to the program can move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from folia import cli  # noqa: E402
from folia.errors import FoliaError  # noqa: E402

from worker import resolve  # noqa: E402


def write_inputs(doc, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for name, content in sorted(doc["files"].items()):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(content, fh, sort_keys=True)
    with open(os.path.join(out_dir, "jobs.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("cli", "exact", "numeric"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--replay", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.replay is not None:
        with open(os.path.join(args.replay, "jobs.json")) as fh:
            doc = json.load(fh)
    elif args.workload is not None and args.seed is not None:
        import workloads
        doc = workloads.draw(args.workload, args.seed)
    else:
        ap.error("pass --workload and --seed, or --replay")
    write_inputs(doc, args.out)
    for job in doc["warmup"]:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.run(resolve(job["argv"], args.out))
            except FoliaError:
                pass    # warm-up only; the checked runs report failures


if __name__ == "__main__":
    main()
