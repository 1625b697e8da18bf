"""Steadiness report: two interleaved sets of runs per workload, summarised.

    python3 perfbench/steadiness.py --seeds 1-10 1-10 --out perfbench/steadiness.json

For every workload it runs the first set's seeds and the second set's seeds
alternately (a1, b1, a2, b2, ...), so that a drift of the machine's speed
falls on both sets alike.  For each end-to-end metric and set it records the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, and the ratio of the two sets' medians,
next to the bound in BENCHMARK.json.  With the same seeds in both sets it
also says whether the failed counts agree run by run, as they must: they
come from the checked ops only, whose inputs the seed fixes.  Runs are made
one at a time, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs=2, default=["1-10", "1-10"],
                    help="the two sets' seeds, each an inclusive range")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--workloads", nargs="*", default=None, help="default: all")
    ap.add_argument("--out", default=None, help="write the report as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sets = [seed_list(s) for s in args.seeds]

    report = {"seconds": seconds, "seeds": sets, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "workloads": {}}
    for workload in workloads:
        runs: list[list[dict]] = [[], []]
        for a, b in zip(*sets):
            runs[0].append(run_once(workload, a, seconds))
            runs[1].append(run_once(workload, b, seconds))
        summary = {"correct": [[r["correct"] for r in rs] for rs in runs],
                   "failed": [[r["failed"] for r in rs] for rs in runs],
                   "attempted": [[r["attempted"] for r in rs] for rs in runs],
                   "metrics": {}}
        if sets[0] == sets[1]:
            summary["failed_agree"] = summary["failed"][0] == summary["failed"][1]
            print(f"{workload:14} failed agree: {summary['failed_agree']} "
                  f"({sum(summary['failed'][0])} and {sum(summary['failed'][1])})", flush=True)
        for name, (bound, better) in bounds.items():
            s1, s2 = summarise(runs[0], name), summarise(runs[1], name)
            ratio = s2["median"] / s1["median"]
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            summary["metrics"][name] = {"set_1": s1, "set_2": s2, "ratio_2_to_1": ratio,
                                        "second_worse_by": worse, "bound": bound}
            print(f"{workload:14} {name:12} median {s1['median']:10.4g} {s2['median']:10.4g}"
                  f"  spread {s1['spread']:6.3f} {s2['spread']:6.3f}  ratio {ratio:6.3f}"
                  f"  bound {bound}", flush=True)
        report["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
