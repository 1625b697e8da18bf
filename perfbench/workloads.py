"""Seeded inputs and timed operations of the four benchmark workloads.

Each workload builds all of its inputs from the seed in its constructor, so
input generation is part of set-up, and exposes:

    round_size          ops in one pass over the input set; runs stop only
                        at round boundaries so every run sees the same mix
    checked_ops         ops whose units are counted in attempted and failed:
                        whole rounds at the start that every run completes,
                        however slow, so that a seed gives the same counts
                        on any machine and at any speed of the program
    warm_up()           a call into each layer the ops use, outside the
                        measured inputs
    run_op(i)           op number i; the benchmark's only timed call
    outcomes()          what the benchmark needs to check the ops, as JSON

The program only sees generated inputs: generator pairs, points, argv lists.
Every call into weierp goes through the package attribute (``W.name``) at
call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import subprocess
import sys

import numpy as np

import weierp as W

import gate

HEX = complex(0.5, math.sqrt(3.0) / 2.0)
ROUNDS = 64  # rounds of inputs built for cm_disc and cli_readme, far more than a run uses


def pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _failure(stage: str, exc: Exception) -> dict:
    return {"stage": stage, "type": type(exc).__name__, "message": str(exc)[:200]}


def random_unimodular(rng: np.random.Generator, steps: int = 3) -> tuple[int, int, int, int]:
    """(a, b, c, d) with ad - bc = 1, a product of random T^n and S factors."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        n = int(rng.integers(-3, 4))
        a, b, c, d = a + n * c, b + n * d, c, d  # T^n
        if rng.uniform() < 0.7:
            a, b, c, d = -c, -d, a, b  # S
    return a, b, c, d


def disguise(rng: np.random.Generator, tau: complex):
    """A scaled, rotated, non-reduced generator pair of the lattice rot*<1, tau>.

    |rot| is 10^u with u uniform in [-2, 2].  Returns (omega1, omega2, rot);
    for a reduced tau, |rot| is the shortest vector length.
    """
    rot = 10.0 ** rng.uniform(-2.0, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    a, b, c, d = random_unimodular(rng)
    w1, w2 = rot, rot * tau
    return c * w2 + d * w1, a * w2 + b * w1, rot


# ---------------------------------------------------------------------------
# eval_points
# ---------------------------------------------------------------------------

BLOCK = 32          # points per op
CELL_RANGE = 300    # points come from cells m*omega1 + n*omega2, |m|, |n| <= this


def eval_lattices(rng: np.random.Generator) -> list[tuple[str, str, complex, complex]]:
    """(name, family, omega1, omega2) of the eval_points lattices.

    Every basis is reduced; family "ref" has Im tau < 4 and "tall" has
    Im tau >= 4.
    """
    theta = rng.uniform(math.pi / 3 + 0.02, 2 * math.pi / 3 - 0.02)
    near_edge = (1.0 + rng.uniform(1e-4, 1e-2)) * cmath.exp(1j * theta)
    big = 1e3 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    small = 1e-3 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return [
        ("square", "ref", 1.0, 1j),
        ("hexagonal", "ref", 1.0, HEX),
        ("non_real", "ref", 1.0, 0.31 + 1.27j),
        ("rect_2i", "ref", 1.0, 2j),
        ("near_edge", "ref", 1.0, near_edge),
        ("scaled_1e3", "ref", big, big * (0.31 + 1.27j)),
        ("scaled_1e-3", "ref", small, small * 1j),
        ("tall_5i", "tall", 1.0, 5j),
        ("tall_12i", "tall", 1.0, 12j),
        ("tall_30i", "tall", 1.0, 30j),
    ]


class EvalPoints:
    """wp and wp' at a block of far-from-origin points, one lattice per op."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.specs = eval_lattices(rng)
        self.lattices = [W.reduce_generators(w1, w2) for _, _, w1, w2 in self.specs]
        self.points = []
        for _, _, w1, w2 in self.specs:
            mn = rng.integers(-CELL_RANGE, CELL_RANGE + 1, (BLOCK, 2))
            uv = rng.uniform(0.0, 1.0, (BLOCK, 2))
            self.points.append(
                [complex((m + u) * w1 + (n + v) * w2) for (m, n), (u, v) in zip(mn, uv)]
            )
        self.round_size = len(self.specs)
        self.checked_ops = self.round_size  # each point is checked once, in the first round
        self.first = [None] * len(self.specs)
        self.failures: dict[tuple[int, int], dict] = {}

    def warm_up(self) -> None:
        for lat in self.lattices:
            W.wp_eval(0.3 * lat.omega1 + 0.2 * lat.omega2, lat)

    def run_op(self, i: int) -> None:
        k = i % self.round_size
        lat = self.lattices[k]
        out = []
        for j, z in enumerate(self.points[k]):
            try:
                u = W.wp_eval(z, lat)
                v = W.wp_prime_eval(z, lat)
            except Exception as exc:  # a failed unit, recorded and checked later
                self.failures.setdefault((k, j), _failure("eval", exc))
                out.append(None)
                continue
            if not (cmath.isfinite(u.value) and cmath.isfinite(v.value)):
                self.failures.setdefault((k, j), {"stage": "eval", "type": "non_finite"})
            out.append((u, v))
        if self.first[k] is None:
            self.first[k] = out

    def outcomes(self) -> dict:
        units = []
        for k, (name, family, w1, w2) in enumerate(self.specs):
            for j, z in enumerate(self.points[k]):
                res = self.first[k][j] if self.first[k] is not None else None
                units.append(
                    {
                        "lattice": name,
                        "family": family,
                        "omega": [pair(w1), pair(w2)],
                        "z": pair(z),
                        "wp": None if res is None else [*pair(res[0].value), res[0].err_estimate],
                        "wpp": None if res is None else [*pair(res[1].value), res[1].err_estimate],
                        "failure": self.failures.get((k, j)),
                    }
                )
        return {"units": units}


# ---------------------------------------------------------------------------
# cm_disc
# ---------------------------------------------------------------------------

# (name, tau, discriminant, norm of alpha = a*tau for the reduced form (a, b, c))
CM_ORDERS = (
    ("i", 1j, -4, 1),
    ("e^{ipi/3}", HEX, -3, 1),
    ("2i", 2j, -16, 4),
    ("sqrt2*i", complex(0.0, math.sqrt(2.0)), -8, 2),
    ("(1+sqrt-7)/2", complex(0.5, math.sqrt(7.0) / 2.0), -7, 2),
    ("3i", 3j, -36, 9),
    ("(1+sqrt-11)/2", complex(0.5, math.sqrt(11.0) / 2.0), -11, 3),
    ("(1+sqrt-19)/2", complex(0.5, math.sqrt(19.0) / 2.0), -19, 5),
    ("6i", 6j, -144, 36),
    ("(1+sqrt-163)/2", complex(0.5, math.sqrt(163.0) / 2.0), -163, 41),
)
# On a basis that reduction only recovers up to rounding, the fit for these
# two orders either passes at degree N in 0.4-0.8 s or retries for 5-9 s and
# often ends in FitFailure, by the last bits of the reduced tau; that would
# make a run's length depend on its seed.  Their timed fit gets exact
# disguises instead: scale 2^k and rotation by i^m, each (k, m) at most once
# per run.  Reduction and recognition of generic disguises of these and of
# other Re tau = 1/2 orders are still measured, by the RECOGNISE ops.
EXACT_DISGUISE = {"6i", "(1+sqrt-163)/2"}
EXACT_DISGUISES = [(k, m) for k in range(-2, 3) for m in range(4)]
# Orders whose generic disguise gets a reduce + detect_cm op each round: with
# Re tau = 1/2, reduction of a rounded basis decides between tau and its
# mirror, and has been seen to end in DegenerateLattice.
RECOGNISE = ("(1+sqrt-19)/2", "(1+sqrt-163)/2")
DISC_GRID = 20
DISC_INTERVAL = (0.125, 0.375)   # in units of the shortest vector
DISC_SPOT_NODES = 3              # grid nodes per op re-checked against mpmath
CHECKED_ROUNDS = 6               # about 15 s of a 20 s run (13 ops of ~0.2 s a round)


def random_non_cm_tau(rng: np.random.Generator, max_im: float) -> complex:
    x = rng.uniform(-0.49, 0.49)
    return complex(x, rng.uniform(math.sqrt(1.0 - x * x) + 0.01, max_im))


def disc_nodes(lam: float) -> list[float]:
    a, b = DISC_INTERVAL
    return [lam * (a + (b - a) * (j + 0.5) / DISC_GRID) for j in range(DISC_GRID)]


class CMDisc:
    """The paper's construction, one fresh disguised lattice per op.

    A round is the ten CM orders in a fixed order, then one negative op (a
    non-CM lattice with the trial multiplier alpha = tau, whose fit must
    fail), then one recognise op per RECOGNISE order (reduce_generators and
    detect_cm only, on a generic disguise).
    After the timed loop, disc_eval is re-run at a few seeded grid nodes of
    every op so the benchmark can check it against its own reference.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.round_size = len(CM_ORDERS) + 1 + len(RECOGNISE)
        self.checked_ops = CHECKED_ROUNDS * self.round_size
        orders = {name: (tau, disc, norm) for name, tau, disc, norm in CM_ORDERS}
        self.inputs = []
        exact = {name: rng.permutation(len(EXACT_DISGUISES)) for name in EXACT_DISGUISE}
        for r in range(ROUNDS):
            for name, tau, disc, norm in CM_ORDERS:
                if name in EXACT_DISGUISE:
                    k, m = EXACT_DISGUISES[exact[name][r % len(EXACT_DISGUISES)]]
                    rot = 2.0**k * 1j**m
                    w1, w2 = rot, rot * tau
                else:
                    w1, w2, rot = disguise(rng, tau)
                nodes = rng.integers(0, DISC_GRID, (DISC_SPOT_NODES, 2)).tolist()
                self.inputs.append({"kind": "cm", "order": name, "disc": disc, "norm": norm,
                                    "omega": [w1, w2], "lam": abs(rot), "nodes": nodes})
            tau = random_non_cm_tau(rng, 2.0)
            w1, w2, rot = disguise(rng, tau)
            self.inputs.append({"kind": "negative", "order": "none", "tau": tau,
                                "omega": [w1, w2], "lam": abs(rot)})
            for name in RECOGNISE:
                tau, disc, norm = orders[name]
                w1, w2, rot = disguise(rng, tau)
                self.inputs.append({"kind": "recognise", "order": name, "disc": disc, "norm": norm,
                                    "omega": [w1, w2], "lam": abs(rot)})
        self.results: list[dict] = []
        self.extensions: dict[int, object] = {}

    def warm_up(self) -> None:
        lat = W.reduce_generators(1.0, 0.1 + 1.3j)
        W.detect_cm(lat)
        W.wp_eval(0.3 + 0.1j, lat)

    def run_op(self, i: int) -> None:
        inp = self.inputs[i % len(self.inputs)]
        res = {"kind": inp["kind"], "order": inp["order"]}
        stage = "reduce"
        try:
            lat = W.reduce_generators(*inp["omega"])
            stage = "detect_cm"
            witness = W.detect_cm(lat)
            res["verdict"] = None if witness is None else list(witness.min_poly)
            if inp["kind"] == "negative":
                stage = "fit"
                alpha = inp["tau"]
                trial = W.CMWitness(alpha, None, max(1, round(abs(alpha) ** 2)))
                try:
                    W.fit_multiplier_maps(lat, trial)
                    res["fit_residual"] = None
                except W.FitFailure as exc:
                    res["fit_residual"] = exc.residual
            elif witness is not None and inp["kind"] == "cm":
                stage = "fit"
                cm_pair = W.fit_multiplier_maps(lat, witness)
                stage = "disc_extension"
                de = W.DiscExtension(lat, cm_pair, (DISC_INTERVAL[0] * inp["lam"],
                                                    DISC_INTERVAL[1] * inp["lam"]))
                stage = "verify"
                rep = W.verify_disc_extension(de, DISC_GRID, gate.DISC_GATE / inp["lam"] ** 2)
                res["disc_error"] = rep.max_abs_error * inp["lam"] ** 2
                res["checked"] = rep.points_checked
                res["skipped"] = rep.skipped
                self.extensions[len(self.results)] = de
        except Exception as exc:  # a failed unit, recorded and checked later
            res["failure"] = _failure(stage, exc)
        self.results.append(res)

    def outcomes(self) -> dict:
        units = []
        for k, res in enumerate(self.results):
            inp = self.inputs[k % len(self.inputs)]
            unit = {**res, "expect_disc": inp.get("disc"), "expect_norm": inp.get("norm"),
                    "omega": [pair(w) for w in inp["omega"]], "lam": inp["lam"]}
            if k in self.extensions:
                de = self.extensions[k]
                nodes = disc_nodes(inp["lam"])
                spots = []
                for jx, jy in inp["nodes"]:
                    x, y = nodes[jx], nodes[jy]
                    try:
                        value = W.disc_eval(de, x, y)
                    except (W.DegenerateAddition, W.PoleError):
                        continue  # verify_disc_extension skips these nodes too
                    spots.append({"x": x, "y": y, "value": pair(value)})
                unit["alpha"] = pair(de.pair.alpha)
                unit["spots"] = spots
            units.append(unit)
        return {"units": units}


# ---------------------------------------------------------------------------
# lattice_sweep
# ---------------------------------------------------------------------------

CM_BOUND = 50         # detect_cm's default coefficient bound
EIS_RADIUS = 120      # eisenstein_invariants radius: the CLI's default
ORACLE_RADIUS = 200   # wp_direct_sum radius of the spot check: the CLI's default
# Resident memory grows with every new lattice (module-level caches keep a
# disc of lattice points per lattice and radius, about 2.5 MB at these
# radii), so a run is cut into segments of SWEEP_SEGMENT lattices, each in a
# fresh interpreter.  Peak RSS is read at the end of a whole segment: a
# faster program that gets through more lattices in a run is not charged
# for them.
SWEEP_SEGMENT = 100
SWEEP_CHECKED = 6 * SWEEP_SEGMENT  # lattices counted; about half of a 20 s run


def reduced_forms(bound: int) -> list[tuple[int, int, int]]:
    """Primitive positive definite reduced forms (a, b, c), |b| <= a <= c <= bound."""
    out = []
    for a in range(1, bound + 1):
        for c in range(a, bound + 1):
            for b in range(-a + 1, a + 1):
                if b < 0 and a == c:
                    continue
                if b * b - 4 * a * c >= 0 or math.gcd(math.gcd(a, abs(b)), c) != 1:
                    continue
                out.append((a, b, c))
    return out


class LatticeSweep:
    """One new disguised lattice per op; nothing is shared between ops.

    Ops alternate between CM by construction (tau a root of a reduced form
    with every coefficient within detect_cm's bound) and a random non-CM tau.
    Segment k holds lattices k*SWEEP_SEGMENT up to the next segment, drawn
    from their own seeded stream, so segments never repeat a lattice.
    """

    def __init__(self, seed: int, segment: int = 0):
        rng = np.random.default_rng([seed, 3, segment])
        forms = reduced_forms(CM_BOUND)
        self.round_size = 2
        self.max_ops = SWEEP_SEGMENT
        self.checked_ops = SWEEP_CHECKED  # over the whole run; run.py adds segments
        self.inputs = []
        for i in range(SWEEP_SEGMENT):
            if i % 2 == 0:
                a, b, c = forms[int(rng.integers(len(forms)))]
                tau = complex(-b / (2 * a), math.sqrt(4 * a * c - b * b) / (2 * a))
                form = [a, b, c]
            else:
                tau, form = random_non_cm_tau(rng, 6.0), None
            w1, w2, rot = disguise(rng, tau)
            u, v = rng.uniform(0.1, 0.9, 2)
            self.inputs.append(
                {"form": form, "im_tau": tau.imag, "omega": [w1, w2], "z": rot * (u + v * tau)}
            )
        self.results: list[dict] = []

    def warm_up(self) -> None:
        lat = W.reduce_generators(1.0, 0.1 + 1.3j)
        W.classify_real(lat)
        W.eisenstein_invariants(lat, EIS_RADIUS)
        W.wp_direct_sum(0.3 + 0.1j, lat, ORACLE_RADIUS)

    def run_op(self, i: int) -> None:
        inp = self.inputs[i]
        res = {}
        stage = "reduce"
        try:
            lat = W.reduce_generators(*inp["omega"])
            stage = "classify_real"
            W.classify_real(lat)
            stage = "invariants"
            W.invariants_qseries(lat)
            W.eisenstein_invariants(lat, EIS_RADIUS)
            stage = "detect_cm"
            witness = W.detect_cm(lat)
            res["verdict"] = None if witness is None else list(witness.min_poly)
            stage = "wp_eval"
            r = W.wp_eval(inp["z"], lat)
            res["wp"] = [*pair(r.value), r.err_estimate]
            stage = "wp_direct_sum"
            o = W.wp_direct_sum(inp["z"], lat, ORACLE_RADIUS)
            res["oracle"] = [*pair(o.value), o.err_estimate]
        except Exception as exc:  # a failed unit, recorded and checked later
            res["failure"] = _failure(stage, exc)
        self.results.append(res)

    def outcomes(self) -> dict:
        units = []
        for inp, res in zip(self.inputs, self.results):
            units.append(
                {
                    **res,
                    "expect_form": inp["form"],
                    "im_tau": inp["im_tau"],
                    "omega": [pair(w) for w in inp["omega"]],
                    "z": pair(inp["z"]),
                }
            )
        return {"units": units}


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------

CLI_CHECKED_ROUNDS = 3  # 27 commands, about 12 s of a 20 s run

# The README's commands with their documented exit codes, and the ROADMAP's
# grid-80 disc target.
README_COMMANDS = (
    (["lattice", "--tau", "i"], 0),
    (["lattice", "--gen", "1-i", "1+i"], 0),
    (["lattice", "--tau", "0.31+1.27i"], 0),
    (["eval", "--tau", "i", "--z", "0.3i", "--oracle"], 0),
    (["verify", "--tau", "e^{ipi/3}", "--seed", "7"], 0),
    (["verify", "--tau", "i", "--inject-error"], 1),
    (["disc", "--tau", "i", "--interval", "0.125", "0.375", "--grid", "20"], 0),
    (["disc", "--tau", "0.31+1.27i"], 4),
    (["disc", "--tau", "i", "--grid", "80"], 0),
)


class CliReadme:
    """One README command per op, each in a fresh interpreter, one at a time.

    The seed only shuffles the command order within each round.  With
    in_process=True (the traced run) each command goes through
    weierp.cli.main(argv) with stdout captured instead.
    """

    def __init__(self, seed: int, in_process: bool = False):
        rng = np.random.default_rng([seed, 4])
        self.round_size = len(README_COMMANDS)
        self.checked_ops = CLI_CHECKED_ROUNDS * self.round_size
        self.order = [int(k) for _ in range(ROUNDS) for k in rng.permutation(self.round_size)]
        self.in_process = in_process
        self.first_stdout: dict[int, str] = {}
        self.results: list[dict] = []

    def _run(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = W.cli.main(list(argv))
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "weierp.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def warm_up(self) -> None:
        """The first, cold run, always of the first README command (whatever
        the order), so set-up time does not depend on the seed; its output is
        that command's baseline."""
        code, out = self._run(README_COMMANDS[0][0])
        self.first_stdout[0] = out

    def run_op(self, i: int) -> None:
        k = self.order[i % len(self.order)]
        argv, expected = README_COMMANDS[k]
        code, out = self._run(argv)
        self.first_stdout.setdefault(k, out)
        self.results.append(
            {"command": " ".join(argv), "expected_code": expected, "code": code, "stdout": out}
        )

    def outcomes(self) -> dict:
        return {"units": self.results, "first_stdout": {
            " ".join(README_COMMANDS[k][0]): out for k, out in self.first_stdout.items()}}


WORKLOADS = {
    "eval_points": EvalPoints,
    "cm_disc": CMDisc,
    "lattice_sweep": LatticeSweep,
    "cli_readme": CliReadme,
}
