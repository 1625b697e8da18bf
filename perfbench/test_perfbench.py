"""Tests of the benchmark's own checks, including negative controls.

    PYTHONPATH=src python -m pytest perfbench
"""

import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import weierp  # noqa: E402
from reference import Reference, self_check  # noqa: E402
from run import percentile, scaled_timings, windows  # noqa: E402
from tracer import Tracer  # noqa: E402
from weierp.cli import main as cli_main  # noqa: E402

TAU = 0.31 + 1.27j


def test_reference_matches_direct_sum_oracle():
    (entry,) = self_check(weierp, [("non_real", 1.0, TAU)])
    assert entry["ok"], entry


def test_reference_is_periodic_and_scale_covariant():
    ref = Reference(1.0, TAU)
    z = 0.23 + 0.41 * TAU
    u, v = ref(z)
    u2, v2 = ref(z + 3.0 - 2.0 * TAU)
    assert abs(u2 - u) <= 1e-13 * abs(u) and abs(v2 - v) <= 1e-13 * abs(v)
    # wp(2z; 2L) = wp(z; L) / 4
    u4, _ = Reference(2.0, 2.0 * TAU)(2.0 * z)
    assert abs(u4 - u / 4.0) <= 1e-14 * abs(u)


def test_point_gate_negative_control():
    lat = weierp.reduce_generators(1.0, 1j)
    z = 0.23 + 0.41j
    ref, _ = Reference(1.0, 1j)(z)
    got = weierp.wp_eval(z, lat)
    assert gate.point_failure(got.value, got.err_estimate, ref) is None
    scaled = got.value * (1.0 + 1e-6)
    assert gate.point_failure(scaled, got.err_estimate, ref) == "err_bound_miss"
    # a known kind, but far larger than the unmodified program's misses
    ratio = gate.miss_ratio(scaled, got.err_estimate, ref)
    run = gate.tally([("square", "err_bound_miss", ratio)] + [("square", None, None)] * 31)
    assert gate.judge(run, gate.load_envelope("eval_points"))
    assert gate.point_failure(complex("nan"), 1.0, ref) == "non_finite"
    assert gate.point_failure(None, 1.0, ref) == "missing"


def test_envelope_holds_for_the_program_it_was_made_from():
    for workload in ("eval_points", "cm_disc", "lattice_sweep"):
        env = gate.load_envelope(workload)
        assert env, workload
        assert gate.judge(env, env) == []


def test_envelope_judge_counts_and_magnitudes():
    env = gate.tally([("L", "err_bound_miss", 2.0)] * 10 + [("L", None, None)] * 90)
    ok = gate.tally([("L", "err_bound_miss", 3.0)] * 2 + [("L", None, None)] * 8)
    assert gate.judge(ok, env) == []
    assert gate.judge(gate.tally([("L", "err_bound_miss", 3.0)] * 10), env)  # too many
    assert gate.judge(gate.tally([("L", "err_bound_miss", 21.0)]), env)  # too large
    assert gate.judge(gate.tally([("L", "non_finite", None)]), env)  # not a known kind
    # a known kind never seen in a stratum is allowed SLACK_UNITS times,
    # up to the largest magnitude seen in any stratum
    assert gate.judge(gate.tally([("M", "err_bound_miss", 15.0)] + [("M", None, None)] * 9), env) == []


def test_counts_cover_the_checked_ops_and_judgement_all():
    from run import Check

    chk = Check("cm_disc", counted=3)
    for kind in (None, "disc_gate", None, "disc_gate", "non_finite"):
        chk.unit(kind, "cm:i")
    assert (chk.attempted, chk.failed) == (3, 1)
    assert sum(chk.all_kinds.values()) == 3
    assert not chk.correct  # the unknown kind after the checked ops still counts


def test_checked_ops_are_whole_rounds():
    from workloads import SWEEP_SEGMENT, WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(5)
        assert wl.checked_ops >= wl.round_size, name
        assert wl.checked_ops % wl.round_size == 0, name
    assert WORKLOADS["lattice_sweep"](5).checked_ops % SWEEP_SEGMENT == 0


def cm_round(**extra):
    """One cm_disc round of units, every CM op with the given fields."""
    from workloads import CM_ORDERS

    units = []
    for name, _, disc, norm in CM_ORDERS:  # the reduced form (1, b, norm) of each order
        unit = {"kind": "cm", "order": name, "verdict": [1, 0 if disc % 4 == 0 else -1, norm],
                "expect_disc": disc, "expect_norm": norm, "disc_error": 1e-13}
        unit.update(extra)
        units.append(unit)
    return units


def cm_judge(units, spots=()):
    records = []
    for u in units:
        kind = gate.cm_pipeline_failure(u, list(spots))
        records.append((f"{u['kind']}:{u['order']}", kind, None))
    return gate.judge(gate.tally(records), gate.load_envelope("cm_disc"))


def test_cm_disc_negative_controls():
    # every disc grid not a number: an unknown kind, incorrect at once
    nan = cm_round(disc_error=float("nan"))
    assert gate.cm_pipeline_failure(nan[0], []) == "disc_not_finite"
    assert cm_judge(nan)
    # reported error 0, spot values not numbers
    assert cm_judge(cm_round(disc_error=0.0), spots=[float("nan")])
    # every fit raising FitFailure: known kind, but far more often than at baseline
    raised = {"stage": "fit", "type": "FitFailure", "message": ""}
    assert cm_judge([u for _ in range(8) for u in cm_round(failure=raised)])


def test_command_gate_negative_control(capsys):
    code = cli_main(["verify", "--tau", "i", "--inject-error"])
    out = capsys.readouterr().out
    assert code == 1
    assert gate.command_failure(1, code, out, out) is None
    assert gate.command_failure(0, code, out, out) == "exit_code"
    assert gate.command_failure(1, code, out, out + " ") == "stdout_changed"
    cut = out.split(gate.SENTINEL)[0]
    assert gate.command_failure(1, code, cut, cut) == "no_sentinel_json"


def cm_unit(**extra):
    unit = {"kind": "cm", "verdict": [1, 0, 1], "expect_disc": -4, "expect_norm": 1,
            "disc_error": 1e-13}
    unit.update(extra)
    return unit


def test_pipeline_gate():
    assert gate.cm_pipeline_failure(cm_unit(), [1e-12]) is None
    assert gate.cm_pipeline_failure(cm_unit(disc_error=1e-6), []) == "disc_gate"
    # a grid whose reported error is 0 but whose values are not numbers
    assert gate.cm_pipeline_failure(cm_unit(disc_error=0.0), [float("nan")]) == "disc_not_finite"
    assert gate.cm_pipeline_failure(cm_unit(kind="recognise", disc_error=None), []) is None
    assert gate.cm_pipeline_failure(cm_unit(verdict=[1, 0, 2]), []) == "wrong_verdict"
    assert gate.cm_pipeline_failure(cm_unit(verdict=None), []) == "wrong_verdict"
    neg = {"kind": "negative", "verdict": None}
    assert gate.cm_pipeline_failure({**neg, "fit_residual": 0.5}, []) is None
    assert gate.cm_pipeline_failure({**neg, "fit_residual": None}, []) == "missing_fit_failure"
    assert gate.cm_pipeline_failure({**neg, "fit_residual": 1e-4}, []) == "fit_residual_low"
    raised = {"stage": "reduce", "type": "DegenerateLattice", "message": ""}
    assert gate.cm_pipeline_failure(cm_unit(failure=raised), []) == "reduce_degenerate"


def test_sweep_verdict_accepts_boundary_forms():
    assert gate.same_form([1, 1, 1], [1, -1, 1])
    assert not gate.same_form([1, 0, 2], [1, 0, 1])
    assert not gate.same_form(None, [1, 0, 1])
    assert gate.same_form(None, None)


def test_percentile_interpolates():
    xs = [float(k) for k in range(1, 11)]
    assert percentile(xs, 50) == 5.5
    assert percentile(xs, 100) == 10.0
    assert percentile(xs, 0) == 1.0


def test_windows_use_whole_rounds():
    assert windows([1 / 64] * 160, 8) == [(0, 64), (64, 160)]
    # rounds longer than a window are windows of their own
    assert windows([0.5] * 12, 4) == [(0, 4), (4, 8), (8, 12)]


def test_timings_scale_with_the_calibration():
    import calib

    nominal = calib.NOMINAL_S
    run = {"latencies_s": [0.5] * 8, "round_size": 4,
           "calibration": [[0, nominal], [4, nominal], [8, 2 * nominal]]}
    lat, rates, factors = scaled_timings(run)
    assert factors == pytest.approx([1.0, 0.5])
    assert rates == pytest.approx([2.0, 4.0])
    assert lat == pytest.approx([0.5] * 4 + [0.25] * 4)


def test_tracer_self_time_and_nesting():
    tr = Tracer()

    def inner(z, lat):
        time.sleep(0.01)

    inner_w = tr.wrap("wp.wp_eval", inner, tr._hooks()["wp.wp_eval"])

    def outer():
        time.sleep(0.02)
        inner_w(1.0, "L")
        inner_w(1.0, "L")

    tr.per_op(lambda i: tr.wrap("cm.fit_multiplier_maps", outer)())(0)
    m = tr.summary(ops=1)
    assert m["cm.fit_multiplier_maps.calls"][0] == 1
    assert m["wp.wp_eval.calls"][0] == 2
    assert m["cm.fit_multiplier_maps.wp_calls"][0] == 2
    assert m["wp.evals_per_point"][0] == 2
    assert 0.018 <= m["cm.fit_multiplier_maps.self_s"][0] < 0.03
    assert 0.018 <= m["wp.wp_eval.self_s"][0] < 0.03


def test_run_refuses_a_directory_without_weierp():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "cm_disc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["eval_points", "cm_disc", "lattice_sweep", "cli_readme"])
def test_inputs_depend_only_on_the_seed(workload):
    import json

    from workloads import WORKLOADS

    def inputs(seed):
        wl = WORKLOADS[workload](seed)
        data = getattr(wl, "inputs", None) or getattr(wl, "points", None) or wl.order
        return json.dumps(data, default=repr)

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_sweep_segments_hold_distinct_lattices():
    from workloads import LatticeSweep

    a, b = LatticeSweep(5, 0), LatticeSweep(5, 1)
    assert not {repr(i["omega"]) for i in a.inputs} & {repr(i["omega"]) for i in b.inputs}
