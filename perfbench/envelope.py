"""Record the envelope of the known defects on the unmodified program.

    python3 perfbench/envelope.py --seeds 101-140 --seconds 10 --out perfbench/envelope.json

Run from the root of a checkout of the program the envelope describes; the
workloads named replace their tallies in the file, the others stay.  For
each workload and seed it runs the timed loop and the checks exactly as
run.py does, and adds every unit's stratum, failure kind and magnitude to
one tally per workload (gate.tally).  run.py's "correct" then requires each
later run's failures to stay within that tally (gate.judge).  Use seeds the
steadiness report does not use, so that the report shows the envelope
holding on seeds it was not made from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run as bench  # noqa: E402
from steadiness import seed_list  # noqa: E402

KNOWN_DEFECT_WORKLOADS = ("eval_points", "cm_disc", "lattice_sweep")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="101-140", help="inclusive range, e.g. 101-140")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workloads", nargs="*", default=list(KNOWN_DEFECT_WORKLOADS))
    ap.add_argument("--out", default=gate.ENVELOPE_FILE)
    args = ap.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    env = bench.child_env(root)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[key] = env[key]
    report = {"runs": {}, "workloads": {}}
    if os.path.exists(args.out):  # keep the other workloads' tallies
        with open(args.out) as fh:
            report = json.load(fh)
    for workload in args.workloads:
        total: dict = {}
        for seed in seed_list(args.seeds):
            run = bench.timed_run(env, workload, seed, args.seconds, "run")
            # the reference's self-check caches radius-400 point discs in
            # this process; one run.py run makes it, here it would pile up
            chk = bench.run_checks(workload, seed, run, with_self_check=False)
            total = gate.merge_tallies(total, gate.tally(chk.records))
            print(f"{workload} seed {seed}: {chk.attempted} units, {chk.failed} failed "
                  + " ".join(f"{k}={n}" for k, n in sorted(chk.kinds.items())), flush=True)
        report["workloads"][workload] = total
        report["runs"][workload] = {"seeds": args.seeds, "seconds": args.seconds,
                                    "python": platform.python_version()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
