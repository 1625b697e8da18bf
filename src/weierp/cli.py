"""Command-line front end.

Subcommands:
    lattice   reduce a basis, classify it, report invariants and CM search
    eval      evaluate wp, wp', wp'' at a point, optionally against the oracle
    verify    run every identity suite with a seeded sampler
    disc      CM detection, multiplier maps, and disc reconstruction check

Every run prints a human-readable summary followed by a machine-readable JSON
block after a sentinel line.  Reports contain no timestamps and all sampling
is seeded, so identical configurations produce byte-identical output.

Exit codes: 0 success; 1 failed verification or multiplier maps; 2 degenerate
lattice; 3 evaluation at a pole; 4 no complex multiplication with leading
coefficient within the bound.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .cm import DiscExtension, fit_multiplier_maps, verify_disc_extension
from .errors import DegenerateLattice, FitFailure, PoleError
from .identities import diffeq_residual
from .lattice import (
    Lattice,
    classify_real,
    detect_cm,
    eisenstein_invariants,
    invariants_qseries,
    reduce_generators,
)
from .verify import run_all_suites
from .wp import wp_direct_sum, wp_eval, wp_prime_eval, wp_second_eval

MACHINE_SENTINEL = "--- machine ---"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DEGENERATE = 2
EXIT_POLE = 3
EXIT_NO_CM = 4

_UNIT_RAY = re.compile(r"^e\^\{?i(?:pi|π)/(\d+)\}?$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' notation plus the e^{i*pi/n} unit shortcuts."""
    s = text.strip().replace(" ", "")
    m = _UNIT_RAY.match(s)
    if m:
        n = int(m.group(1))
        if n == 3:
            # exact real part keeps the hexagonal minimal polynomial canonical
            return complex(0.5, math.sqrt(3.0) / 2.0)
        return complex(math.cos(math.pi / n), math.sin(math.pi / n))
    try:
        return complex(s.replace("I", "i").replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _lattice_from_args(args) -> Lattice:
    if args.gen is not None:
        w1, w2 = args.gen
        return reduce_generators(w1, w2)
    return reduce_generators(1.0, args.tau)


def _emit(lines: list[str], machine: dict, out_path: str | None) -> None:
    text = "\n".join(lines) + "\n" + MACHINE_SENTINEL + "\n" + json.dumps(
        machine, sort_keys=True
    ) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    lat = _lattice_from_args(args)
    cls = classify_real(lat)
    inv_exact = invariants_qseries(lat)
    inv_trunc, tail = eisenstein_invariants(lat, args.radius)
    witness = detect_cm(lat, coeff_bound=args.coeff_bound, tol=args.tol)
    lines = [
        "weierp lattice report",
        f"reduced basis: omega1={_fmt_complex(lat.omega1)} omega2={_fmt_complex(lat.omega2)}",
        f"tau: {_fmt_complex(lat.tau)}",
        f"class: {cls.value}",
        f"g2: {_fmt_complex(inv_exact.g2)}",
        f"g3: {_fmt_complex(inv_exact.g3)}",
        f"g2 (truncated radius {args.radius}): {_fmt_complex(inv_trunc.g2)} tail<={tail!r}",
    ]
    if witness is None:
        lines.append(f"cm: none within coefficient bound {args.coeff_bound}")
    else:
        a, b, c = witness.min_poly
        lines.append(
            f"cm: alpha={_fmt_complex(witness.alpha)} min_poly=({a},{b},{c}) norm={witness.norm}"
        )
    machine = {
        "command": "lattice",
        "omega1": _pair(lat.omega1),
        "omega2": _pair(lat.omega2),
        "tau": _pair(lat.tau),
        "class": cls.value,
        "g2": _pair(inv_exact.g2),
        "g3": _pair(inv_exact.g3),
        "g2_truncated": _pair(inv_trunc.g2),
        "g3_truncated": _pair(inv_trunc.g3),
        "tail_estimate": tail,
        "cm": None
        if witness is None
        else {
            "alpha": _pair(witness.alpha),
            "min_poly": list(witness.min_poly),
            "norm": witness.norm,
        },
        "coeff_bound": args.coeff_bound,
    }
    _emit(lines, machine, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    lat = _lattice_from_args(args)
    z = args.z
    p = wp_eval(z, lat)
    dp = wp_prime_eval(z, lat)
    ddp = wp_second_eval(z, lat)
    residual = diffeq_residual(z, lat)
    lines = [
        "weierp eval report",
        f"z: {_fmt_complex(z)}",
        f"wp: {_fmt_complex(p.value)} (err<={p.err_estimate!r})",
        f"wp': {_fmt_complex(dp.value)}",
        f"wp'': {_fmt_complex(ddp.value)}",
        f"differential identity residual: {residual!r}",
    ]
    machine = {
        "command": "eval",
        "z": _pair(z),
        "wp": _pair(p.value),
        "wp_err_estimate": p.err_estimate,
        "wp_prime": _pair(dp.value),
        "wp_second": _pair(ddp.value),
        "diffeq_residual": residual,
    }
    if args.oracle:
        o = wp_direct_sum(z, lat, args.radius)
        diff = abs(p.value - o.value)
        lines.append(f"oracle (radius {args.radius}): {_fmt_complex(o.value)} |diff|={diff!r}")
        machine["oracle"] = _pair(o.value)
        machine["oracle_radius"] = args.radius
        machine["oracle_diff"] = diff
    _emit(lines, machine, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    lat = _lattice_from_args(args)
    results = run_all_suites(lat, seed=args.seed, inject_error=args.inject_error)
    lines = [
        "weierp verify report",
        f"lattice: omega1={_fmt_complex(lat.omega1)} omega2={_fmt_complex(lat.omega2)}",
        f"seed: {args.seed}",
        f"injected error: {args.inject_error}",
    ]
    all_pass = True
    suites = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass = all_pass and r.passed
        lines.append(
            f"suite {r.name}: max_residual={r.max_residual!r} threshold={r.threshold!r} {status}"
        )
        suites.append(
            {
                "name": r.name,
                "max_residual": r.max_residual,
                "threshold": r.threshold,
                "checked": r.checked,
                "passed": r.passed,
            }
        )
    lines.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
    machine = {
        "command": "verify",
        "lattice": {"omega1": _pair(lat.omega1), "omega2": _pair(lat.omega2)},
        "seed": args.seed,
        "inject_error": args.inject_error,
        "suites": suites,
        "overall_pass": all_pass,
    }
    _emit(lines, machine, args.out)
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_disc(args) -> int:
    lat = _lattice_from_args(args)
    witness = detect_cm(lat, coeff_bound=args.coeff_bound, tol=args.tol)
    if witness is None:
        lines = [
            "weierp disc report",
            f"no complex multiplication within coefficient bound {args.coeff_bound};",
            "interval data cannot reconstruct wp on a disc for this lattice",
        ]
        machine = {
            "command": "disc",
            "cm": None,
            "coeff_bound": args.coeff_bound,
        }
        _emit(lines, machine, args.out)
        return EXIT_NO_CM
    try:
        pair = fit_multiplier_maps(lat, witness)
    except FitFailure as exc:
        lines = [
            "weierp disc report",
            f"multiplier maps failed: {exc}",
        ]
        machine = {
            "command": "disc",
            "cm": {"alpha": _pair(witness.alpha), "norm": witness.norm},
            "fit_failed": True,
            "fit_residual": exc.residual,
        }
        _emit(lines, machine, args.out)
        return EXIT_FAIL
    de = DiscExtension(lat, pair, tuple(args.interval))
    report = verify_disc_extension(de, args.grid, args.tol_grid)
    ok = bool(report.max_abs_error <= args.tol_grid)
    lines = [
        "weierp disc report",
        f"alpha: {_fmt_complex(pair.alpha)} (norm {pair.norm})",
        f"wp map: {_fmt_complex(1.0 / pair.alpha**2)} * (X + terms at "
        f"{len(pair.wp_map.poles)} kernel poles)",
        f"validation residual: {pair.residual!r}",
        f"interval: ({args.interval[0]!r}, {args.interval[1]!r})",
        f"grid: {args.grid}x{args.grid}",
        f"max abs error: {report.max_abs_error!r}",
        f"points checked: {report.points_checked} skipped: {report.skipped}",
        f"status: {'PASS' if ok else 'FAIL'}",
    ]
    machine = {
        "command": "disc",
        "cm": {
            "alpha": _pair(pair.alpha),
            "norm": pair.norm,
            "min_poly": list(witness.min_poly) if witness.min_poly else None,
        },
        "maps": pair.payload(),
        "interval": list(args.interval),
        "grid": args.grid,
        "max_abs_error": report.max_abs_error,
        "points_checked": report.points_checked,
        "skipped": report.skipped,
        "failures": [[x, y, e] for x, y, e in report.failures],
        "passed": ok,
    }
    _emit(lines, machine, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_lattice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=parse_complex, default=1j,
                   help="lattice ratio (default i); ignored when --gen is given")
    p.add_argument("--gen", type=parse_complex, nargs=2, metavar=("W1", "W2"),
                   help="explicit generator pair")
    p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    p.add_argument("--out", default=None, help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weierp", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="reduce, classify, and search for CM")
    _add_lattice_args(p)
    p.add_argument("--radius", type=int, default=120, help="truncation radius for invariants")
    p.add_argument("--coeff-bound", type=int, default=50,
                   help="CM search: bound on the leading coefficient a")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("eval", help="evaluate wp, wp', wp'' at a point")
    _add_lattice_args(p)
    p.add_argument("--z", type=parse_complex, required=True, help="evaluation point")
    p.add_argument("--oracle", action="store_true", help="cross-check against the direct sum")
    p.add_argument("--radius", type=int, default=200, help="oracle truncation radius")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run every identity suite")
    _add_lattice_args(p)
    p.add_argument("--seed", type=int, default=0, help="sampler seed")
    p.add_argument("--inject-error", action="store_true",
                   help="corrupt g2 to prove the suites can fail")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("disc", help="CM maps and disc reconstruction from interval data")
    _add_lattice_args(p)
    p.add_argument("--interval", type=float, nargs=2, default=[0.125, 0.375],
                   metavar=("A", "B"), help="real sampling interval")
    p.add_argument("--grid", type=int, default=20, help="verification grid size per axis")
    p.add_argument("--coeff-bound", type=int, default=50,
                   help="CM search: bound on the leading coefficient a")
    p.add_argument("--tol-grid", type=float, default=1e-8, help="grid error threshold")
    p.set_defaults(func=cmd_disc)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateLattice as exc:
        print(f"degenerate lattice: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PoleError as exc:
        print(f"pole: {exc}", file=sys.stderr)
        return EXIT_POLE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
