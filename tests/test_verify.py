import math

import numpy as np
import pytest

from weierp import verify
from weierp.lattice import ensure_reduced, invariants_qseries, reduce_generators, shortest_vector
from weierp.verify import SuiteResult, run_all_suites, sample_cell_points
from weierp.wp import pole_distance

TAUS = {
    "square": 1j,
    "hexagonal": complex(0.5, math.sqrt(3.0) / 2.0),
    "2i": 2j,
    "3i": 3j,
    "generic": 0.31 + 1.27j,
}


def one_at_a_time(lat, rng, count, margin, multiples):
    """The reference sampler: draw one candidate, screen it, repeat."""
    lam = shortest_vector(lat)
    out = []
    while len(out) < count:
        u, v = rng.uniform(0.0, 1.0, 2)
        z = u * lat.omega1 + v * lat.omega2
        if pole_distance(z, lat) <= margin * lam:
            continue
        if any(pole_distance(k * z, lat) <= margin * lam for k in multiples):
            continue
        out.append(z)
    return out


@pytest.mark.parametrize("tau", TAUS.values(), ids=TAUS.keys())
def test_sample_cell_points_is_the_one_at_a_time_loop(tau):
    lat = ensure_reduced(reduce_generators(1.0, tau))
    settings = [(0.05, ()), (0.1, (2,)), (0.45, ()), (0.12, (2, 4)), (0.3, (3, 5))]
    for seed in range(4):
        for margin, multiples in settings:
            for count in (0, 1, 2, 37):
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = sample_cell_points(lat, got_rng, count, margin, multiples)
                want = one_at_a_time(lat, want_rng, count, margin, multiples)
                assert len(got) == count
                assert [complex(z) for z in got] == [complex(z) for z in want]
                assert got_rng.uniform() == want_rng.uniform()


LATTICE_SUITES = {
    "differential_identity": 100,
    "addition_law": 60,
    "duplication_law": 60,
    "second_derivative": 20,
    "multiplication_maps": 75,
}


@pytest.mark.parametrize("tau", ["square", "hexagonal", "2i"])
def test_lattice_suites_check_their_full_count(tau):
    lat = reduce_generators(1.0, TAUS[tau])
    for seed in (0, 1, 5, 7, 9):
        results = {r.name: r for r in run_all_suites(lat, seed)}
        for name, count in LATTICE_SUITES.items():
            assert results[name].checked == count, (tau, seed, name)
            assert results[name].passed, (tau, seed, results[name])


def test_lattice_suites_make_no_scalar_evaluation(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar call from a lattice suite")

    for name in ("wp_eval", "wp_prime_eval"):
        monkeypatch.setattr(verify, name, refuse)
    lat = ensure_reduced(reduce_generators(1.0, TAUS["hexagonal"]))
    inv = invariants_qseries(lat)
    rng = np.random.default_rng(7)
    for name in LATTICE_SUITES:
        assert getattr(verify, f"suite_{name}")(lat, inv, rng).passed


def test_square_lattice_suites_evaluate_once(monkeypatch):
    calls = []
    wp_many = verify.wp_many
    monkeypatch.setattr(verify, "wp_many", lambda zs, lat: calls.append(1) or wp_many(zs, lat))
    lat = ensure_reduced(reduce_generators(1.0, 1j))
    inv = invariants_qseries(lat)
    rng = np.random.default_rng(0)
    for name in ("differential_identity", "addition_law", "duplication_law"):
        calls.clear()
        getattr(verify, f"suite_{name}")(lat, inv, rng)
        assert len(calls) == 1, name
    calls.clear()
    verify.suite_multiplication_maps(lat, inv, rng)
    assert len(calls) == 3  # one per multiplier n = 2, 3, 5


def test_suite_that_checked_nothing_fails():
    assert not SuiteResult("empty", 0.0, 1e-8, 0).passed
    lat = ensure_reduced(reduce_generators(1.0, 1j))
    result = verify.suite_addition_law(lat, invariants_qseries(lat), np.random.default_rng(0), 0)
    assert (result.checked, result.skipped, result.passed) == (0, 0, False)


def test_nan_residual_fails_the_suite():
    result = verify._result("nan", np.array([1e-12, math.nan]), 1e-8, 2)
    assert math.isnan(result.max_residual) and not result.passed


def test_tall_lattice_reports_its_resampling():
    by_name = {r.name: r for r in run_all_suites(reduce_generators(1.0, 3j))}
    mult = by_name["multiplication_maps"]
    # more than half of the candidates fail the Horner condition on 3i
    assert mult.checked == 75 and mult.skipped > mult.checked
    assert by_name["differential_identity"].skipped == 0
