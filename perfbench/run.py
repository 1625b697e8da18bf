"""weierp benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; weierp is imported from ./src.  Workloads
(see workloads.py and BENCHMARK.json for why each exists):

    eval_points    wp and wp' on blocks of far-from-origin points, fixed lattices
    cm_disc        detect_cm -> fit_multiplier_maps -> DiscExtension -> grid check
    lattice_sweep  reduce, classify, invariants, detect_cm, spot values; one
                   new lattice per op
    cli_readme     the README commands, each in a fresh interpreter

Every workload is a closed loop: one caller, no threads, the next op starts
when the previous one returns.  Each runs in a fresh interpreter with BLAS
pinned to one thread.  Runs stop at the first round boundary after --seconds.

--trace 0 prints the end-to-end metrics.  Set-up time is the median over
SETUP_PROBES set-up-only processes plus the measuring one.  Every time is
scaled to a machine of nominal speed by the calibration unit timed next to
it (calib.py), so that a shared machine's drift in speed between runs does
not read as a change of the program; the report shows the raw figures too.
--trace 1 runs the workload once untraced and once with every public weierp
function wrapped (tracer.py), and prints the per-layer metrics; cli_readme
then runs its commands in-process through weierp.cli.main.

The human-readable report comes first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  A unit (a point, a
pipeline or a command) fails by the rules in gate.py.  attempted and failed
count the units of the first checked_ops ops (workloads.py), which every
run completes whatever its speed, so that a seed gives the same counts on
every run; the units of later ops are checked alike and shown in the report.
"correct" is false when the mpmath reference disagrees with weierp's
direct-sum oracle, when any unit fails in a way other than the known
baseline defects (gate.KNOWN_DEFECTS), or when those are more frequent or
larger than on the unmodified program (gate.judge against envelope.json).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import calib
import gate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("eval_points", "cm_disc", "lattice_sweep", "cli_readme")
SETUP_PROBES = 9
SETUP_CAL = 20       # CPU calibration samples taken just before a set-up probe
CHILD_TIMEOUT_S = 150
# The tail percentile is fixed per workload, so that a faster or slower
# program is compared at the same percentile.  Each leaves at least ten
# samples beyond it at the unmodified program's op count in a 20 s run
# (about 6000, 120, 1300 and 55 ops).  eval_points and lattice_sweep could
# afford p99, but on a shared 2-core machine p99 moved by up to 40% between
# runs of the same code, with contention bursts; p90 is far steadier.  The
# cm_disc round has two slow ops of thirteen (6i and (1+sqrt-163)/2, the top
# 15%), and p90 falls among them rather than in the gap below them.  In
# cli_readme p75 falls among the runs of one of the verify commands.
TAIL_PERCENTILE = {"eval_points": 90, "cm_disc": 90, "lattice_sweep": 90, "cli_readme": 75}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(env: dict, workload: str, seed: int, seconds: float, mode: str,
          in_process: bool = False, trace_out: str | None = None, segment: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--segment", str(segment)]
    if in_process:
        cmd.append("--in-process")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    before = calib.sample(SETUP_CAL)
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    result["setup_factor"] = calib.factor(before)
    return result


def timed_run(env: dict, workload: str, seed: int, seconds: float, mode: str,
              in_process: bool = False, trace_dir: str | None = None) -> dict:
    """The timed loop, in one worker, or for lattice_sweep in as many
    segments (each a fresh worker) as it takes to fill the seconds and
    complete the checked ops."""
    run = None
    segment = 0
    while run is None or (workload == "lattice_sweep" and (
            run["elapsed_s"] < seconds or run["ops"] < run["checked_ops"])):
        budget = seconds if run is None else seconds - run["elapsed_s"]
        trace_out = (os.path.join(trace_dir, f"trace-{workload}-{seed}-{segment}.npz")
                     if trace_dir else None)
        part = spawn(env, workload, seed, budget, mode, in_process, trace_out, segment)
        part["segment_rss_mb"] = [(part["whole"], part["peak_rss_mb"])]
        run = part if run is None else merge_runs(run, part)
        segment += 1
    whole = [mb for w, mb in run["segment_rss_mb"] if w]
    run["peak_rss_mb"] = statistics.median(whole) if whole else max(
        mb for _, mb in run["segment_rss_mb"])
    return run


def merge_runs(a: dict, b: dict) -> dict:
    """Two consecutive segments as one run.  Traced metrics are op-weighted means."""
    out = dict(a)
    out["ops"] = a["ops"] + b["ops"]
    out["elapsed_s"] = a["elapsed_s"] + b["elapsed_s"]
    out["latencies_s"] = a["latencies_s"] + b["latencies_s"]
    out["calibration"] = a["calibration"] + [[a["ops"] + n, c] for n, c in b["calibration"]]
    out["segment_rss_mb"] = a["segment_rss_mb"] + b["segment_rss_mb"]
    out["outcomes"] = {"units": a["outcomes"]["units"] + b["outcomes"]["units"]}
    if "trace" in a:
        na, nb = a["ops"], b["ops"]
        out["trace"] = {k: ((v * na + b["trace"][k][0] * nb) / (na + nb), u)
                        for k, (v, u) in a["trace"].items()}
    return out


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class Check:
    """Failed units by kind and stratum, plus the accuracy figures of one run.

    attempted, failed and kinds cover the first `counted` units (all of
    them when None); records, and so the envelope's judgement, cover all.
    """

    def __init__(self, workload: str, counted: int | None = None):
        self.workload = workload
        self.counted = counted
        self.records: list[tuple[str, str | None, float | None]] = []
        self.kinds: Counter = Counter()
        self.all_kinds: Counter = Counter()
        self.rel_err = {"ref": [], "tall": []}
        self.slack: list[float] = []
        self.misses = 0
        self.worst_miss = 0.0
        self.disc_errors: list[float] = []
        self.reference_s = 0.0
        self.reference_values = 0
        self.self_check: list[dict] = []
        self._violations: list[str] | None = None

    def unit(self, kind: str | None, stratum: str, magnitude: float | None = None) -> None:
        if kind:
            self.all_kinds[kind] += 1
            if self.counted is None or len(self.records) < self.counted:
                self.kinds[kind] += 1
        self.records.append((stratum, kind, magnitude))

    def value(self, family: str | None, value: complex, err: float, ref: complex) -> None:
        true = abs(value - ref)
        if family is not None:
            self.rel_err[family].append(true / abs(ref))
        self.misses += not true <= err
        if err > 0:
            self.worst_miss = max(self.worst_miss, true / err)
        if true > 0:
            self.slack.append(err / true)

    @property
    def attempted(self) -> int:
        return len(self.records) if self.counted is None else min(self.counted, len(self.records))

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())

    @property
    def violations(self) -> list[str]:
        if self._violations is None:
            self._violations = gate.judge(gate.tally(self.records), gate.load_envelope(self.workload))
        return self._violations

    @property
    def correct(self) -> bool:
        return all(s["ok"] for s in self.self_check) and not self.violations


def check_eval_points(units: list[dict], chk: Check) -> None:
    from reference import Reference

    refs = {}
    t0 = time.perf_counter()
    for u in units:
        key = u["lattice"]
        if key not in refs:
            refs[key] = Reference(complex(*u["omega"][0]), complex(*u["omega"][1]))
        z = complex(*u["z"])
        ref_wp, ref_wpp = refs[key](z)
        chk.reference_values += 2
        kind = gate.raised_kind(u["failure"]) if u["failure"] else None
        magnitude = None
        for name, ref, family in (("wp", ref_wp, u["family"]), ("wpp", ref_wpp, None)):
            got = u[name]
            value = None if got is None else complex(got[0], got[1])
            this = gate.point_failure(value, got[2] if got else 0.0, ref)
            if this == "err_bound_miss":
                magnitude = max(magnitude or 0.0, gate.miss_ratio(value, got[2], ref))
            kind = kind or this
            if value is not None and cmath.isfinite(value):
                chk.value(family, value, got[2], ref)
        chk.unit(kind, key, magnitude if kind == "err_bound_miss" else None)
    chk.reference_s = time.perf_counter() - t0


def sweep_stratum(unit: dict) -> str:
    return ("cm" if unit["expect_form"] else "non_cm") + (":ref" if unit["im_tau"] < 4 else ":tall")


def check_lattice_sweep(units: list[dict], chk: Check) -> None:
    from reference import Reference

    t0 = time.perf_counter()
    for u in units:
        ref = None
        if "wp" in u:
            ref, _ = Reference(complex(*u["omega"][0]), complex(*u["omega"][1]))(
                complex(*u["z"]), derivative=False
            )
            chk.reference_values += 1
            wp = complex(u["wp"][0], u["wp"][1])
            if cmath.isfinite(wp):
                chk.value("ref" if u["im_tau"] < 4 else "tall", wp, u["wp"][2], ref)
        kind, magnitude = gate.sweep_failure(u, ref)
        chk.unit(kind, sweep_stratum(u), magnitude)
    chk.reference_s = time.perf_counter() - t0


def check_cm_disc(units: list[dict], chk: Check) -> None:
    from reference import Reference

    t0 = time.perf_counter()
    for u in units:
        spot_errors = []
        if u.get("spots"):
            ref = Reference(complex(*u["omega"][0]), complex(*u["omega"][1]))
            alpha = complex(*u["alpha"])
            for s in u["spots"]:
                want, _ = ref(s["x"] + alpha * s["y"], derivative=False)
                chk.reference_values += 1
                spot_errors.append(abs(complex(*s["value"]) - want) * u["lam"] ** 2)
        if u.get("disc_error") is not None:
            chk.disc_errors.extend([u["disc_error"], *spot_errors])
        kind = gate.cm_pipeline_failure(u, spot_errors)
        magnitude = max([u["disc_error"], *spot_errors]) if kind == "disc_gate" else None
        chk.unit(kind, f"{u['kind']}:{u['order']}", magnitude)
    chk.reference_s = time.perf_counter() - t0


def check_cli_readme(outcomes: dict, chk: Check) -> None:
    first = outcomes["first_stdout"]
    for u in outcomes["units"]:
        kind = gate.command_failure(u["expected_code"], u["code"], u["stdout"], first[u["command"]])
        chk.unit(kind, u["command"])


def run_checks(workload: str, seed: int, run: dict, with_self_check: bool = True) -> Check:
    """Check every unit of a timed run; count those of its checked ops.

    eval_points' units are the points of its first round, all counted; the
    other workloads have one unit per op, in op order.
    """
    outcomes = run["outcomes"]
    chk = Check(workload, None if workload == "eval_points" else run["checked_ops"])
    if with_self_check and workload in ("eval_points", "lattice_sweep"):
        import weierp
        from reference import self_check
        from workloads import eval_lattices
        import numpy as np

        specs = eval_lattices(np.random.default_rng([seed, 1]))
        chk.self_check = self_check(weierp, [(n, w1, w2) for n, fam, w1, w2 in specs if fam == "ref"])
    if workload == "eval_points":
        check_eval_points(outcomes["units"], chk)
    elif workload == "lattice_sweep":
        check_lattice_sweep(outcomes["units"], chk)
    elif workload == "cm_disc":
        check_cm_disc(outcomes["units"], chk)
    else:
        check_cli_readme(outcomes, chk)
    return chk


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------


# Workloads each accuracy metric applies to; elsewhere it reads 0.
ACCURACY_SCOPE = {
    "max_rel_err_ref": ("eval_points", "lattice_sweep"),
    "max_rel_err_tall": ("eval_points", "lattice_sweep"),
    "disc_max_abs_err": ("cm_disc",),
    "wp.err_bound_misses": ("eval_points", "lattice_sweep"),
    "wp.err_estimate_slack_p50": ("eval_points", "lattice_sweep"),
}


def accuracy_metrics(chk: Check) -> dict:
    def worst(xs):
        finite = [x for x in xs if math.isfinite(x)]
        return max(finite) if finite else 0.0

    return {
        "max_rel_err_ref": (worst(chk.rel_err["ref"]), "1"),
        "max_rel_err_tall": (worst(chk.rel_err["tall"]), "1"),
        "disc_max_abs_err": (worst(chk.disc_errors), "1"),
        "failed_ratio": (chk.failed / chk.attempted if chk.attempted else 0.0, "1"),
        "wp.err_bound_misses": (float(chk.misses), "count"),
        "wp.err_estimate_slack_p50": (statistics.median(chk.slack) if chk.slack else 0.0, "1"),
    }


WINDOW_S = 1.0


def windows(latencies: list[float], round_size: int) -> list[tuple[int, int]]:
    """Op ranges [lo, hi) of consecutive windows of whole rounds, each >= WINDOW_S.

    Op latencies cover all but the loop's bookkeeping, so a window's time is
    the sum of its ops' latencies.  A short last window is folded into the
    one before it.
    """
    out, lo, busy = [], 0, 0.0
    for k in range(0, len(latencies), round_size):
        hi = min(k + round_size, len(latencies))
        busy += sum(latencies[k:hi])
        if busy >= WINDOW_S:
            out.append((lo, hi))
            lo, busy = hi, 0.0
    if lo < len(latencies):
        if out:
            lo = out.pop()[0]
        out.append((lo, len(latencies)))
    return out


def scaled_timings(run: dict) -> tuple[list[float], list[float], list[float]]:
    """(scaled op latencies, scaled window rates, per-window speed factors).

    Each window's times are scaled by calib.factor() of the calibration
    samples taken after its ops; a sample after n ops belongs to the window
    holding op n - 1, and the samples before the first op to the first window.
    """
    lat = run["latencies_s"]
    cal = run["calibration"]
    scaled, rates, factors = [], [], []
    for lo, hi in windows(lat, run["round_size"]):
        samples = [c for n, c in cal if lo <= max(n - 1, 0) < hi] or [c for _, c in cal]
        f = calib.factor(samples)
        factors.append(f)
        scaled += [t * f for t in lat[lo:hi]]
        rates.append((hi - lo) / (f * sum(lat[lo:hi])))
    return scaled, rates, factors


def end_to_end(workload: str, run: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """setups are (raw seconds, speed factor) of each set-up."""
    scaled, rates, factors = scaled_timings(run)
    lat_ms = [1e3 * t for t in scaled]
    p = TAIL_PERCENTILE[workload]
    tail = percentile(lat_ms, p)
    beyond = sum(x > tail for x in lat_ms)
    setup = [raw * f for raw, f in setups]
    raw_ms = [1e3 * t for t in run["latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "op/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} scaled set-ups: " + " ".join(f"{s:.4f}" for s in setup),
        f"  raw: median {statistics.median(r for r, _ in setups):.4f} s",
        f"ops_per_s: median over {len(rates)} windows of whole rounds >= {WINDOW_S:g} s; "
        f"raw whole run {run['ops'] / sum(run['latencies_s']):.6g} op/s",
        f"op_tail_ms: p{p} of {len(lat_ms)} ops, {beyond} beyond it",
        f"raw op latency: p50 {statistics.median(raw_ms):.6g} ms, p{p} {percentile(raw_ms, p):.6g} ms",
        f"machine speed factor (nominal / measured calibration): median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}-{max(factors):.3f} over windows",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weierp", "__init__.py")):
        print("perfbench: run from the root of a weierp checkout (no src/weierp here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env = child_env(root)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[key] = env[key]

    header = f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    if args.trace == 0:
        probes = [spawn(env, args.workload, args.seed, args.seconds, "setup")
                  for _ in range(SETUP_PROBES)]
        run = timed_run(env, args.workload, args.seed, args.seconds, "run")
        setups = [(r["setup_s"], r["setup_factor"]) for r in [*probes, run]]
        chosen, notes = end_to_end(args.workload, run, setups)
    else:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        in_process = args.workload == "cli_readme"
        plain = timed_run(env, args.workload, args.seed, args.seconds, "run", in_process=in_process)
        run = timed_run(env, args.workload, args.seed, args.seconds, "traced", trace_dir=out_dir)
        chosen = {k: tuple(v) for k, v in run["trace"].items()}
        overhead = ((plain["ops"] / sum(plain["latencies_s"]))
                    / (run["ops"] / sum(run["latencies_s"])))
        chosen["trace.overhead_ratio"] = (overhead, "1")
        chosen["cli.import_s"] = (import_seconds(env) if args.workload == "cli_readme" else 0.0, "s")
        notes = [f"spans written to {os.path.relpath(out_dir, root)}/trace-{args.workload}-{args.seed}-*.npz"]

    chk = run_checks(args.workload, args.seed, run)
    accuracy = accuracy_metrics(chk)
    if args.trace == 1:
        chosen.update(accuracy)

    m = run["machine"]
    lines = [
        header,
        f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']} "
        f"OPENBLAS_NUM_THREADS={m['openblas_num_threads']}",
        f"ops: {run['ops']} in {run['elapsed_s']:.3f} s",
    ]
    shown = dict(chosen)
    if args.trace == 0:
        shown.update((k, v) for k, v in accuracy.items() if "." not in k)
    for name, (value, unit) in shown.items():
        na = name in ACCURACY_SCOPE and args.workload not in ACCURACY_SCOPE[name]
        lines.append(f"{name:<44} {'n/a' if na else f'{value:.6g} {unit}'}")
    lines += notes
    lines.append(
        f"units: {chk.attempted} attempted, {chk.failed} failed"
        + "".join(f"; {k}: {n}" for k, n in sorted(chk.kinds.items()))
    )
    if len(chk.records) > chk.attempted:
        lines.append(
            f"  all {len(chk.records)} units checked, {sum(chk.all_kinds.values())} failed"
            + "".join(f"; {k}: {n}" for k, n in sorted(chk.all_kinds.items()))
        )
    if chk.self_check:
        worst = max(s["rel_diff"] for s in chk.self_check)
        lines.append(f"reference self-check vs wp_direct_sum(radius=400): max rel diff {worst:.2e} "
                     f"on {len(chk.self_check)} lattices, ok={all(s['ok'] for s in chk.self_check)}")
    if chk.reference_values:
        lines.append(f"reference: {chk.reference_values} values in {chk.reference_s:.2f} s (not timed)")
    if chk.worst_miss:
        lines.append(f"largest true error / err_estimate: {chk.worst_miss:.3g}")
    for v in chk.violations:
        lines.append(f"outside the known-defect envelope: {v}")
    lines.append(f"correct: {str(chk.correct).lower()}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": chk.correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }, allow_nan=False))
    return 0


def import_seconds(env: dict) -> float:
    """Median of `python -c "import weierp.cli"` minus median of `python -c pass`, 5 runs each."""
    def wall(code: str) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return wall("import weierp.cli") - wall("pass")


if __name__ == "__main__":
    raise SystemExit(main())
