"""The correctness gate: which units failed, and why.

A unit is a point (eval_points), a pipeline on one lattice (cm_disc,
lattice_sweep) or one command run (cli_readme).  Each check returns None for
a unit that passed and otherwise a short failure kind.
"""

from __future__ import annotations

import cmath
import json
import math
import os

DISC_GATE = 1e-8                 # scale-free disc error, max_abs_error * lambda^2
NEGATIVE_FIT_RESIDUAL = 1e-3     # a non-multiplier's fit must fail above this
SENTINEL = "--- machine ---"
ENVELOPE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "envelope.json")

# Failure kinds the unmodified program is known to produce on these
# workloads.  They are counted as failed units like any other.  A run is
# still correct only while they stay inside the envelope the unmodified
# program showed (envelope.json, written by envelope.py): see judge().
# Every other kind makes the run incorrect at once.
KNOWN_DEFECTS = {
    "err_bound_miss": "wp_eval or wp_prime_eval: true error above the returned err_estimate",
    "oracle_err_bound_miss": "wp_direct_sum: true error above the returned err_estimate",
    "disc_gate": "scale-free disc error above 1e-8",
    "reduce_degenerate": "reduce_generators raised DegenerateLattice on a rotated basis",
    "fit_failure_on_cm": "fit_multiplier_maps raised FitFailure for a genuine CM multiplier",
    "wrong_verdict": "detect_cm missed or misnamed the CM order of a disguised lattice",
}
# A known kind's magnitude (true error / err_estimate for a miss, the
# scale-free error for disc_gate) may exceed the largest the envelope saw for
# that kind, in any stratum of the workload, by this factor; the tail is too
# heavy for one stratum's largest to bound the next seed's.  Its count may
# exceed the envelope's rate in the stratum by SIGMAS binomial standard
# deviations plus SLACK_UNITS units.
MAGNITUDE_SLACK = 10.0
SIGMAS = 4.0
SLACK_UNITS = 1.0


def point_failure(value: complex | None, err: float, ref: complex | None) -> str | None:
    """A value fails when missing, non-finite, or further from ref than err."""
    if value is None:
        return "missing"
    if not cmath.isfinite(value):
        return "non_finite"
    if ref is not None and not abs(value - ref) <= err:
        return "err_bound_miss"
    return None


def miss_ratio(value: complex, err: float, ref: complex) -> float:
    """True error over err_estimate: the magnitude of an err_bound_miss."""
    true = abs(value - ref)
    return true / err if err > 0 else math.inf


def raised_kind(failure: dict) -> str:
    if failure["type"] == "DegenerateLattice" and failure["stage"] == "reduce":
        return "reduce_degenerate"
    if failure["type"] == "FitFailure" and failure["stage"] == "fit":
        return "fit_failure_on_cm"
    if failure["type"] == "non_finite":
        return "non_finite"
    return f"raised:{failure['type']}@{failure['stage']}"


def cm_pipeline_failure(unit: dict, spot_errors: list[float]) -> str | None:
    """cm_disc: verdict, fit outcome and disc error of one op.

    spot_errors are the benchmark's own scale-free errors of disc_eval at a
    few grid nodes; they catch a grid whose reported error is not the truth.
    """
    if unit.get("failure"):
        return raised_kind(unit["failure"])
    verdict = unit.get("verdict")
    if unit["kind"] == "negative":
        if verdict is not None:
            return "wrong_verdict"
        if unit.get("fit_residual") is None:
            return "missing_fit_failure"
        if not unit["fit_residual"] > NEGATIVE_FIT_RESIDUAL:
            return "fit_residual_low"
        return None
    if verdict is None:
        return "wrong_verdict"
    a, b, c = verdict
    if b * b - 4 * a * c != unit["expect_disc"] or a * c != unit["expect_norm"]:
        return "wrong_verdict"
    if unit["kind"] == "recognise":
        return None
    errors = [unit["disc_error"], *spot_errors]
    if not all(math.isfinite(e) for e in errors):
        return "disc_not_finite"
    if not all(e <= DISC_GATE for e in errors):
        return "disc_gate"
    return None


def same_form(verdict, expected) -> bool:
    """Reduced forms on the boundary of the domain come as (a, b, c) ~ (a, -b, c)."""
    if verdict is None or expected is None:
        return verdict is None and expected is None
    return (verdict[0], abs(verdict[1]), verdict[2]) == (expected[0], abs(expected[1]), expected[2])


def sweep_failure(unit: dict, ref: complex | None) -> tuple[str | None, float | None]:
    """lattice_sweep: CM verdict plus the wp_eval and oracle spot values.

    Returns (kind, magnitude); the magnitude is miss_ratio() for a miss.
    """
    if unit.get("failure"):
        return raised_kind(unit["failure"]), None
    if not same_form(unit.get("verdict"), unit["expect_form"]):
        return "wrong_verdict", None
    for prefix, key in (("", "wp"), ("oracle_", "oracle")):
        value, err = complex(unit[key][0], unit[key][1]), unit[key][2]
        kind = point_failure(value, err, ref)
        if kind:
            return prefix + kind, miss_ratio(value, err, ref) if kind == "err_bound_miss" else None
    return None, None


def command_failure(expected_code: int, code: int, stdout: str, first_stdout: str) -> str | None:
    """cli_readme: documented exit code, sentinel plus JSON, stable stdout."""
    if code != expected_code:
        return "exit_code"
    _, sep, tail = stdout.rpartition("\n" + SENTINEL + "\n")
    try:
        if not sep or not isinstance(json.loads(tail), dict):
            return "no_sentinel_json"
    except json.JSONDecodeError:
        return "no_sentinel_json"
    if stdout != first_stdout:
        return "stdout_changed"
    return None


# ---------------------------------------------------------------------------
# Envelope of the known defects
# ---------------------------------------------------------------------------


def tally(records) -> dict:
    """{stratum: {"units": n, "kinds": {kind: {"count": c, "max_magnitude": m}}}}.

    records are (stratum, kind or None, magnitude or None), one per unit.
    A stratum groups units of one input class: a lattice of eval_points, an
    order and op kind of cm_disc, CM or not and short or tall for
    lattice_sweep, a command of cli_readme.
    """
    out: dict = {}
    for stratum, kind, magnitude in records:
        t = out.setdefault(stratum, {"units": 0, "kinds": {}})
        t["units"] += 1
        if kind is None:
            continue
        k = t["kinds"].setdefault(kind, {"count": 0, "max_magnitude": None})
        k["count"] += 1
        if magnitude is not None:
            worst = k["max_magnitude"]
            k["max_magnitude"] = magnitude if worst is None or not magnitude <= worst else worst
    return out


def merge_tallies(a: dict, b: dict) -> dict:
    """The tally of the records behind a and b together."""
    out = json.loads(json.dumps(a))
    for stratum, t in b.items():
        o = out.setdefault(stratum, {"units": 0, "kinds": {}})
        o["units"] += t["units"]
        for kind, k in t["kinds"].items():
            ok = o["kinds"].setdefault(kind, {"count": 0, "max_magnitude": None})
            ok["count"] += k["count"]
            mags = [m for m in (ok["max_magnitude"], k["max_magnitude"]) if m is not None]
            ok["max_magnitude"] = max(mags) if mags else None
    return out


def load_envelope(workload: str, path: str = ENVELOPE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)["workloads"].get(workload, {})


def allowed_count(units: int, env_count: int, env_units: int) -> float:
    """Most failures of a known kind that n units may show, from the envelope's rate.

    The rate gets half a failure of pseudo-count, so a kind the envelope
    never saw in this stratum still allows SLACK_UNITS.
    """
    p = (env_count + 0.5) / (env_units + 1.0)
    return units * p + SIGMAS * math.sqrt(units * p * (1.0 - p)) + SLACK_UNITS


def judge(run: dict, envelope: dict) -> list[str]:
    """Why a run's failures are not those of the unmodified program; [] if they are.

    run and envelope are tallies.  A failure kind outside KNOWN_DEFECTS is
    always a violation.  A known kind is one when it is more frequent in a
    stratum than allowed_count(), or when its magnitude exceeds
    MAGNITUDE_SLACK times the largest the envelope saw for it in the workload.
    """
    widest: dict = {}
    for t in envelope.values():
        for kind, k in t["kinds"].items():
            if k["max_magnitude"] is not None:
                widest[kind] = max(widest.get(kind, 0.0), k["max_magnitude"])
    out = []
    for stratum, t in sorted(run.items()):
        env = envelope.get(stratum, {"units": 0, "kinds": {}})
        for kind, k in sorted(t["kinds"].items()):
            where = f"{stratum}: {k['count']} of {t['units']} units {kind}"
            if kind not in KNOWN_DEFECTS:
                out.append(f"{where}, not a known defect")
                continue
            env_count = env["kinds"].get(kind, {"count": 0})["count"]
            limit = allowed_count(t["units"], env_count, env["units"])
            if k["count"] > limit:
                out.append(f"{where}, more than the {limit:.1f} the envelope allows")
            if k["max_magnitude"] is None:
                continue
            cap = widest.get(kind)
            if cap is None or not k["max_magnitude"] <= MAGNITUDE_SLACK * cap:
                out.append(f"{where}, magnitude {k['max_magnitude']:.3g} beyond "
                           f"{MAGNITUDE_SLACK:g} x the envelope's {cap}")
    return out
