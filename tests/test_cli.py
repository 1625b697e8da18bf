import json
import math
import pathlib
import re
import shlex
import time

import pytest

import weierp.cli
from weierp.cli import MACHINE_SENTINEL, _fmt_complex, main, parse_complex
from weierp.lattice import reduce_generators
from weierp.wp import EvalResult, _wp_triple

from conftest import ThetaReference


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def machine_block(out: str) -> dict:
    return json.loads(out.split(MACHINE_SENTINEL)[1])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2i") == 2j
    assert parse_complex("1-i") == 1 - 1j
    assert parse_complex("0.31+1.27i") == 0.31 + 1.27j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j
    hexa = parse_complex("e^{ipi/3}")
    assert hexa.real == 0.5 and abs(hexa.imag - math.sqrt(3) / 2) < 1e-15
    assert parse_complex("e^{iπ/3}") == hexa
    assert abs(parse_complex("e^{ipi/2}") - 1j) < 1e-15


def test_parse_complex_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("one plus i")


# ---------------------------------------------------------------------------
# lattice command
# ---------------------------------------------------------------------------


def test_lattice_square(capsys):
    code, out = run_cli(capsys, "lattice", "--tau", "i")
    assert code == 0
    m = machine_block(out)
    assert m["class"] == "rectangular"
    assert m["cm"]["min_poly"] == [1, 0, 1]
    assert m["cm"]["alpha"] == [0.0, 1.0]
    assert abs(m["g3"][0]) < 1e-9


def test_lattice_rhombic_generators(capsys):
    code, out = run_cli(capsys, "lattice", "--gen", "1-i", "1+i")
    assert code == 0
    assert machine_block(out)["class"] == "rhombic"


def test_lattice_non_real_no_cm(capsys):
    code, out = run_cli(capsys, "lattice", "--tau", "0.31+1.27i")
    assert code == 0
    m = machine_block(out)
    assert m["class"] == "non-real"
    assert m["cm"] is None
    assert "none within coefficient bound 50" in out


def test_lattice_degenerate_exit_2(capsys):
    assert main(["lattice", "--gen", "1", "2"]) == 2


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------


def test_eval_quarter_turn_negation(capsys):
    _, out_rot = run_cli(capsys, "eval", "--tau", "i", "--z", "0.3i")
    _, out_real = run_cli(capsys, "eval", "--tau", "i", "--z", "0.3")
    wa = machine_block(out_rot)["wp"]
    wb = machine_block(out_real)["wp"]
    assert abs(wa[0] + wb[0]) < 1e-10 and abs(wa[1] + wb[1]) < 1e-10


def test_eval_pole_exit_3(capsys):
    assert main(["eval", "--tau", "i", "--z", "1"]) == 3


@pytest.mark.parametrize("argv", [["eval", "--tau", "i", "--z", "0.3i"], ["verify", "--tau", "i"]])
def test_tol_only_where_the_cm_search_reads_it(argv, capsys):
    # eval and verify never run detect_cm, so they refuse its tolerance
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_eval_oracle_residual(capsys):
    code, out = run_cli(capsys, "eval", "--tau", "i", "--z", "0.21+0.34i", "--oracle")
    assert code == 0
    m = machine_block(out)
    assert m["oracle_diff"] < 1e-9
    assert m["diffeq_residual"] < 1e-9


def test_eval_oracle_outside_bounds_exits_1(capsys, monkeypatch):
    true_oracle = weierp.cli.wp_direct_sum

    def shifted(z, lat, radius):
        o = true_oracle(z, lat, radius)
        return EvalResult(o.value + 1e-6, o.err_estimate)

    monkeypatch.setattr(weierp.cli, "wp_direct_sum", shifted)
    code, out = run_cli(capsys, "eval", "--tau", "i", "--z", "0.3i", "--oracle")
    assert code == 1
    assert "oracle check failed: |diff| exceeds the sum of both error bounds" in out
    m = machine_block(out)
    assert m["oracle_failed"] is True
    assert m["oracle_diff"] > m["wp_err_estimate"]


def test_eval_json_bounds_each_derivative(capsys):
    # the JSON block carries the bounds of wp' and wp'' beside that of wp;
    # the human lines print a bound for wp only, as before
    z = 0.21 + 0.34j
    code, out = run_cli(capsys, "eval", "--tau", "i", "--z", "0.21+0.34i")
    assert code == 0
    m = machine_block(out)
    p, dp, ddp = _wp_triple(z, reduce_generators(1.0, 1j))
    assert m["wp_prime_err_estimate"] == dp.err_estimate > 0
    assert m["wp_second_err_estimate"] == ddp.err_estimate > 0
    _, want = ThetaReference(1.0, 1j)(z)
    assert abs(complex(*m["wp_prime"]) - want) <= m["wp_prime_err_estimate"]
    human = out.split(MACHINE_SENTINEL)[0].splitlines()
    assert human[2:5] == [f"wp: {_fmt_complex(p.value)} (err<={p.err_estimate!r})",
                          f"wp': {_fmt_complex(dp.value)}", f"wp'': {_fmt_complex(ddp.value)}"]


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_passes_reference_lattices(capsys):
    for tau in ("i", "e^{ipi/3}", "2i"):
        code, out = run_cli(capsys, "verify", "--tau", tau, "--seed", "1")
        assert code == 0, out
        m = machine_block(out)
        assert m["overall_pass"] is True
        assert all(s["passed"] for s in m["suites"])


def test_verify_injected_error_fails(capsys):
    code, out = run_cli(capsys, "verify", "--tau", "i", "--inject-error")
    assert code == 1
    m = machine_block(out)
    by_name = {s["name"]: s for s in m["suites"]}
    assert not by_name["differential_identity"]["passed"]
    assert not m["overall_pass"]


def test_verify_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["verify", "--tau", "i", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["verify", "--tau", "i", "--seed", "5", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_json_states_skipped_candidates(capsys):
    code, out = run_cli(capsys, "verify", "--tau", "3i")
    assert code == 0
    by_name = {s["name"]: s for s in machine_block(out)["suites"]}
    assert all(isinstance(s["skipped"], int) for s in by_name.values())
    mult = by_name["multiplication_maps"]
    assert mult["checked"] == 75 and mult["skipped"] > 0


# ---------------------------------------------------------------------------
# disc command
# ---------------------------------------------------------------------------


def test_disc_square(capsys):
    code, out = run_cli(capsys, "disc", "--tau", "i", "--interval", "0.125", "0.375")
    assert code == 0
    m = machine_block(out)
    assert m["max_abs_error"] < 1e-8
    assert m["passed"] is True
    assert m["maps"]["poles"] == [] and complex(*m["maps"]["scale"]) == -1.0
    assert m["cm"]["min_poly"] == [1, 0, 1]


def test_disc_states_class_and_hypothesis(capsys):
    code, out = run_cli(capsys, "disc", "--tau", "i")
    assert code == 0
    assert out.splitlines()[1] == "class: rectangular"
    assert "does not apply" not in out
    m = machine_block(out)
    assert m["class"] == "rectangular" and m["hypothesis_holds"] is True
    # CM (min_poly (2, 1, 3)) but not closed under conjugation: the grid
    # check still runs and passes, and the report says the theorem is moot
    code, out = run_cli(capsys, "disc", "--tau=-0.25+1.1989578808281798i")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "class: non-real"
    assert lines[2] == ("the lattice is not closed under complex conjugation: "
                        "the paper's theorem does not apply")
    m = machine_block(out)
    assert m["class"] == "non-real" and m["hypothesis_holds"] is False
    assert m["cm"]["min_poly"] == [2, 1, 3]


def test_disc_hexagonal(capsys):
    code, out = run_cli(capsys, "disc", "--tau", "e^{ipi/3}")
    assert code == 0
    m = machine_block(out)
    assert m["max_abs_error"] < 1e-8


def test_disc_tall_cm_lattice(capsys):
    # tau = 8i: its form (1, 0, 64) has c beyond the bound on a
    code, out = run_cli(capsys, "disc", "--tau", "8i")
    assert code == 0
    m = machine_block(out)
    assert m["cm"]["min_poly"] == [1, 0, 64]
    assert m["max_abs_error"] < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", ["12i", "13i", "30i"])
def test_disc_high_norm_cm_lattice(tau, capsys):
    # norms 144, 169 and 900: exact kernel maps, and no numpy warning leaks
    code, out = run_cli(capsys, "disc", "--tau", tau)
    assert code == 0
    m = machine_block(out)
    assert m["cm"]["norm"] == int(tau[:-1]) ** 2
    assert len(m["maps"]["poles"]) == m["cm"]["norm"] - 1
    assert m["max_abs_error"] < 1e-8


def test_disc_norm_above_bound_exits_1(capsys):
    # tau = 1000i is recognised (norm 10^6) and refused before any evaluation
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "disc", "--tau", "1000i")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    m = machine_block(out)
    assert m["fit_failed"] is True and m["fit_residual"] == math.inf
    assert "multiplier maps failed: norm 1000000" in out


def test_disc_no_cm_exit_4(capsys):
    code, out = run_cli(capsys, "disc", "--tau", "0.31+1.27i")
    assert code == 4
    m = machine_block(out)
    assert m["cm"] is None
    assert "no complex multiplication" in out


def test_disc_interval_with_pole_exits_cleanly(capsys):
    assert main(["disc", "--tau", "i", "--interval", "0.5", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err


@pytest.mark.parametrize("interval", [("1", "1.5"), ("0.5", "1")])
def test_disc_interval_ending_at_a_pole_passes(interval, capsys):
    # the grid nodes are midpoints: a lattice point at an end is never used
    code, out = run_cli(capsys, "disc", "--tau", "i", "--interval", *interval)
    assert code == 0
    m = machine_block(out)
    assert m["passed"] and m["points_checked"] == 400 and m["skipped"] == 0


def test_lattice_radius_too_small_exits_cleanly(capsys):
    assert main(["lattice", "--tau", "i", "--radius", "5"]) == 1
    assert "invalid configuration" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def readme_commands():
    """(argv, expected exit code) for each `weierp ...` line of the README's CLI block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if not line.startswith("weierp "):
            continue
        command, _, comment = line.partition("#")
        code = re.search(r"exits (\d+)", comment)
        commands.append((shlex.split(command)[1:], int(code.group(1)) if code else 0))
    return commands


def test_readme_cli_commands(capsys):
    commands = readme_commands()
    assert len(commands) >= 8
    for argv, expected in commands:
        code, out = run_cli(capsys, *argv)
        assert code == expected, (argv, out)
        assert isinstance(machine_block(out), dict)

