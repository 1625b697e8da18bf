"""One workload in one fresh interpreter: set up, run the timed loop, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (stop once the first op would start), ``run`` (the timed
loop) or ``traced`` (the timed loop with every public weierp function
wrapped in a span recorder).  The result is one JSON object on the last line
of standard output.  ``t_ready`` is time.monotonic() just before the first
timed op; the parent subtracts its own clock reading taken before it
started this process, which gives set-up time from process start.

Between ops the worker times calib.unit_seconds(), once per EVERY_S of op
time since the last samples and at most MAX_BATCH times in a row;
``calibration`` lists them as (number of ops done, seconds).  lattice_sweep runs one --segment per
process (see workloads.SWEEP_SEGMENT).  The loop runs at least
wl.checked_ops ops, the ones whose units attempted and failed count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time

import calib

CAL_START = 5  # calibration samples taken before the first op


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--in-process", action="store_true",
                    help="cli_readme: call weierp.cli.main instead of a subprocess")
    ap.add_argument("--trace-out", default=None, help="file for the recorded spans")
    ap.add_argument("--segment", type=int, default=0, help="lattice_sweep: segment number")
    args = ap.parse_args(argv)

    import weierp.cli  # noqa: F401  (loads every weierp module, so the traced run wraps them all)

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from workloads import WORKLOADS, CliReadme

    if args.workload == "cli_readme":
        wl = CliReadme(args.seed, in_process=args.in_process or args.mode == "traced")
    elif args.workload == "lattice_sweep":
        wl = WORKLOADS[args.workload](args.seed, args.segment)
    else:
        wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    if tracer is not None:
        tracer.reset()  # spans of set-up are not per-op work
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "machine": machine_facts()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    max_ops = getattr(wl, "max_ops", None)
    subprocesses = args.workload == "cli_readme" and not wl.in_process
    usage = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
    run_op = wl.run_op if tracer is None else tracer.per_op(wl.run_op)
    latencies = []
    cal = [(0, c) for c in calib.sample(CAL_START)]
    since_cal = 0.0
    clock = time.perf_counter
    t_start = clock()
    i = 0
    while True:
        for _ in range(wl.round_size):
            t0 = clock()
            run_op(i)
            dt = clock() - t0
            latencies.append(dt)
            i += 1
            since_cal += dt
            if since_cal >= calib.EVERY_S:
                batch = min(calib.MAX_BATCH, int(since_cal / calib.EVERY_S))
                cal += [(i, c) for c in calib.sample(batch)]
                since_cal = 0.0
        if max_ops is not None and i >= max_ops:
            break
        if clock() - t_start >= args.seconds and i >= wl.checked_ops:
            break
    elapsed = clock() - t_start
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary(ops=i)
        if args.trace_out:
            tracer.dump(args.trace_out)
    result.update(ops=i, elapsed_s=elapsed, latencies_s=latencies, calibration=cal,
                  round_size=wl.round_size, checked_ops=wl.checked_ops, whole=max_ops is None or i >= max_ops,
                  peak_rss_mb=peak_rss_mb, outcomes=wl.outcomes())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
