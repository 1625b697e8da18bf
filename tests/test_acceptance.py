"""Acceptance gate: the package's end-to-end guarantees at fixed tolerances.

Each test prints one `criterion NN (...): PASS/FAIL` line; run with -s to see
them live.  Sampling is seeded so the suite is reproducible.
"""

import json
import time

import numpy as np
import pytest

from weierp.cli import MACHINE_SENTINEL, main
from weierp.cm import fit_multiplier_maps
from weierp.errors import DegenerateAddition, FitFailure
from weierp.identities import (
    addition_formula,
    duplication,
    duplication_rational_map,
    division_values,
    multiplication_by_n,
)
from weierp.interval_maps import (
    IntervalBijection,
    build_chain_matrix,
    chain_rule_check,
    from_line,
    from_line_aux,
    from_line_deriv,
    to_line,
    to_line_deriv,
)
from weierp.lattice import (
    CMWitness,
    detect_cm,
    eisenstein_invariants,
    invariants_qseries,
    reduce_generators,
    shortest_vector,
)
from weierp.verify import fd_chain_instance, sample_cell_points
from weierp.wp import pole_distance, wp_direct_sum, wp_eval, wp_prime_eval, wp_second_eval


class criterion:
    """Prints the per-criterion verdict line whatever the body does."""

    def __init__(self, num: int, desc: str):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} ({self.desc}): {status}")
        return False


# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence(reference_lattices):
    with criterion(1, "wp_eval vs direct-sum oracle, 1e-8"):
        t0 = time.monotonic()
        rng = np.random.default_rng(101)
        for lat in reference_lattices:
            checked = 0
            while checked < 200:
                u, v = rng.uniform(0.0, 1.0, 2)
                z = u * lat.omega1 + v * lat.omega2
                if pole_distance(z, lat) <= 0.05:
                    continue
                diff = abs(wp_eval(z, lat).value - wp_direct_sum(z, lat, 400).value)
                assert diff < 1e-8
                checked += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"oracle run took {elapsed:.1f}s"


def test_criterion_02_addition_formula(reference_lattices):
    with criterion(2, "addition law, 1e-8 + degeneracy contract"):
        rng = np.random.default_rng(102)
        for lat in reference_lattices:
            lam = shortest_vector(lat)
            checked = 0
            while checked < 100:
                z, w = sample_cell_points(lat, rng, 2, margin=0.05)
                if pole_distance(z + w, lat) <= 0.05 * lam:
                    continue
                pz = wp_eval(z, lat).value
                pw = wp_eval(w, lat).value
                threshold = 1e-12 * (1.0 + (abs(pz) + abs(pw)))
                if abs(pz - pw) < threshold:
                    with pytest.raises(DegenerateAddition):
                        addition_formula(
                            pz, pw, wp_prime_eval(z, lat).value, wp_prime_eval(w, lat).value
                        )
                    continue
                got = addition_formula(
                    pz, pw, wp_prime_eval(z, lat).value, wp_prime_eval(w, lat).value
                )
                assert abs(got - wp_eval(z + w, lat).value) < 1e-8
                checked += 1
        # the raise happens exactly below the threshold
        pz = 2.0 + 1.0j
        for delta, expect_raise in ((1e-13, True), (1e-10, False)):
            pw = pz + delta
            degenerate = abs(pz - pw) < 1e-12 * (1.0 + (abs(pz) + abs(pw)))
            assert degenerate is expect_raise
            if expect_raise:
                with pytest.raises(DegenerateAddition):
                    addition_formula(pz, pw, 1.0, -1.0)
            else:
                addition_formula(pz, pw, 1.0, -1.0)


def test_criterion_03_duplication_diffeq_second(reference_lattices):
    with criterion(3, "duplication 1e-8, diffeq 1e-9, wp'' fd 1e-4"):
        rng = np.random.default_rng(103)
        for lat in reference_lattices:
            inv = invariants_qseries(lat)
            checked = 0
            while checked < 100:
                (z,) = sample_cell_points(lat, rng, 1, margin=0.1, multiples=(2,))
                got = duplication(
                    wp_eval(z, lat).value,
                    wp_prime_eval(z, lat).value,
                    wp_second_eval(z, lat).value,
                )
                assert abs(got - wp_eval(2 * z, lat).value) < 1e-8
                checked += 1
            for z in sample_cell_points(lat, rng, 100, margin=0.05):
                u = wp_eval(z, lat).value
                v = wp_prime_eval(z, lat).value
                res = abs(v * v - (4 * u**3 - inv.g2 * u - inv.g3)) / (1 + abs(u) ** 3)
                assert res < 1e-9
            h = 1e-4
            for z in sample_cell_points(lat, rng, 20, margin=0.45):
                fd = (
                    wp_eval(z + h, lat).value
                    - 2 * wp_eval(z, lat).value
                    + wp_eval(z - h, lat).value
                ) / (h * h)
                assert abs(fd - wp_second_eval(z, lat).value) < 1e-4


def test_criterion_04_square_symmetry_and_degenerate_invariants(square, hexagonal):
    with criterion(4, "wp(iz) = -wp(z); g3(square), g2(hex) vanish"):
        rng = np.random.default_rng(104)
        for z in sample_cell_points(square, rng, 100, margin=0.05):
            a = wp_eval(1j * z, square).value
            b = wp_eval(z, square).value
            assert abs(a + b) < 1e-9
        inv_sq, _ = eisenstein_invariants(square, 200)
        inv_hex, _ = eisenstein_invariants(hexagonal, 200)
        assert abs(inv_sq.g3) < 1e-9
        assert abs(inv_hex.g2) < 1e-9


def test_criterion_05_multiplication_and_division(reference_lattices, square):
    with criterion(5, "wp(nz) maps n=2,3,5 at 1e-7; division fiber; dup form"):
        rng = np.random.default_rng(105)
        for lat in reference_lattices:
            inv = invariants_qseries(lat)
            for n in (2, 3, 5):
                mp = multiplication_by_n(n, inv)
                kept = 0
                tried = 0
                while kept < 50 and tried < 1000:
                    tried += 1
                    (z,) = sample_cell_points(lat, rng, 1, margin=0.1, multiples=(n,))
                    x = wp_eval(z, lat).value
                    if mp.condition(x) > 1e7:
                        continue
                    assert abs(mp(x) - wp_eval(n * z, lat).value) < 1e-7
                    kept += 1
                assert kept >= 50, f"only {kept} conditioned points for n={n}"
        inv = invariants_qseries(square)
        for z in sample_cell_points(square, rng, 20, margin=0.15, multiples=(2,)):
            target = wp_eval(2 * z, square).value
            roots = division_values(2, target, inv)
            want = wp_eval(z, square).value
            assert min(abs(r - want) for r in roots) < 1e-7
        m2 = multiplication_by_n(2, inv)
        dup = duplication_rational_map(inv)
        for z in sample_cell_points(square, rng, 50, margin=0.1, multiples=(2,)):
            x = wp_eval(z, square).value
            assert abs(m2(x) - dup(x)) < 1e-9 * (1 + abs(dup(x)))


def test_criterion_06_disc_pipeline_end_to_end(capsys):
    with criterion(6, "disc reconstruction via CLI, 1e-8, map -X"):
        t0 = time.monotonic()
        code = main(["disc", "--tau", "i", "--interval", "0.125", "0.375", "--grid", "20"])
        out = capsys.readouterr().out
        assert code == 0
        m = json.loads(out.split(MACHINE_SENTINEL)[1])
        assert m["max_abs_error"] < 1e-8
        # the kernel of i is {0}: wp_map is alpha^-2 X = -X with no pole terms
        assert m["maps"]["poles"] == []
        assert complex(*m["maps"]["scale"]) == -1.0
        code = main(["disc", "--tau", "e^{ipi/3}", "--grid", "20"])
        out = capsys.readouterr().out
        assert code == 0
        m = json.loads(out.split(MACHINE_SENTINEL)[1])
        assert m["max_abs_error"] < 1e-8
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"disc pipeline took {elapsed:.1f}s"


def test_criterion_07_dichotomy_negative_branch():
    with criterion(7, "no-CM lattice: every multiplier fit fails > 1e-3"):
        lat = reduce_generators(1.0, 0.31 + 1.27j)
        assert detect_cm(lat, coeff_bound=50) is None
        tau = lat.tau
        for alpha in (tau, 1j * tau, 1 + tau):
            witness = CMWitness(alpha, None, max(1, round(abs(alpha) ** 2)))
            with pytest.raises(FitFailure) as info:
                fit_multiplier_maps(lat, witness)
            assert info.value.residual > 1e-3


def test_criterion_08_interval_bijections():
    with criterion(8, "bijection round trips, derivatives, aux identity"):
        from weierp.interval_maps import _offset

        rng = np.random.default_rng(108)
        intervals = (IntervalBijection(0.125, 0.375), IntervalBijection(-1.0, 2.5))
        for ib in intervals:
            # round trip over |u| <= 1e8: beyond |u| ~ 2e4 the forward image
            # is quantization-limited (see ledgered analysis), so the huge-u
            # range is checked in the interval metric where float64 still
            # carries the information
            for expo in range(0, 9):
                for u in (10.0**expo, -(10.0**expo)):
                    t = from_line(ib, u)
                    assert abs(from_line(ib, to_line(ib, t)) - t) <= 1e-12 * max(1.0, abs(t))
                    if abs(u) <= 1e3:
                        assert abs(to_line(ib, t) - u) <= 1e-12 * max(1.0, abs(u))
            for frac in rng.uniform(0.001, 0.999, 50):
                t = ib.a + (ib.b - ib.a) * frac
                assert abs(from_line(ib, to_line(ib, t)) - t) <= 1e-12
            # derivatives: finite differences and positivity
            for frac in rng.uniform(0.05, 0.95, 25):
                t = ib.a + (ib.b - ib.a) * frac
                h = 4e-7 * min(t - ib.a, ib.b - t)
                fd = (to_line(ib, t + h) - to_line(ib, t - h)) / (2 * h)
                d = to_line_deriv(ib, t)
                assert d > 0 and abs(fd - d) <= 1e-8 * d
            for u in rng.uniform(-20.0, 20.0, 25):
                h = 3e-5 * max(1.0, abs(u))
                fd = (from_line(ib, u + h) - from_line(ib, u - h)) / (2 * h)
                d = from_line_deriv(ib, u)
                assert d > 0 and abs(fd - d) <= 1e-8 * d
            for frac in rng.uniform(0.0, 1.0, 1000):
                t = ib.a + (ib.b - ib.a) * (0.001 + 0.998 * frac)
                assert to_line_deriv(ib, t) > 0
                assert from_line_deriv(ib, rng.uniform(-1e6, 1e6)) > 0
            # derivative / aux identity at 1e-12, stable offset everywhere
            for u in list(rng.uniform(-50, 50, 30)) + [0.0, 1e6, -1e6, 1e8, -1e8]:
                s = _offset(ib, u)
                lhs = from_line_deriv(ib, u)
                rhs = ((ib.r - s) * (ib.r + s)) ** 2 * from_line_aux(ib, u)
                assert abs(lhs - rhs) <= 1e-12 * lhs


def test_criterion_09_chain_rule_factorization():
    with criterion(9, "chain-rule residual 1e-6 for n=1..3; rank implication"):
        rng = np.random.default_rng(109)
        for n in (1, 2, 3):
            inst, system = fd_chain_instance(n, rng)
            report = chain_rule_check(inst, system, tol=1e-9)
            assert report.residual < 1e-6
            assert report.outer_rank == n
            assert report.implication_holds
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            outer = rng.normal(size=(n, 2 * n + 1))
            from weierp.interval_maps import ChainRuleInstance

            inst = ChainRuleInstance(n, outer, rng.normal(size=n))
            system = outer @ build_chain_matrix(inst)
            report = chain_rule_check(inst, system, tol=1e-9)
            if abs(np.linalg.det(system)) > 1e-9:
                assert report.outer_rank == n
            assert report.implication_holds


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    with criterion(10, "cmd verify byte-identical under fixed seed"):
        f1 = tmp_path / "run1.txt"
        f2 = tmp_path / "run2.txt"
        assert main(["verify", "--tau", "i", "--seed", "9", "--out", str(f1)]) == 0
        assert main(["verify", "--tau", "i", "--seed", "9", "--out", str(f2)]) == 0
        capsys.readouterr()
        b1 = f1.read_bytes()
        assert b1 == f2.read_bytes()
        assert len(b1) > 0
