import cmath
import math

import numpy as np
import pytest

from weierp.errors import PoleError
from weierp.lattice import _disc_points, invariants_qseries, reduce_generators, shortest_vector
from weierp.verify import sample_cell_points
from weierp.wp import (
    _oracle_setup,
    _wp_triple,
    laurent_coefficients,
    pole_distance,
    pole_distance_many,
    wp_direct_sum,
    wp_eval,
    wp_many,
    wp_prime_eval,
    wp_second_eval,
)

from conftest import ThetaReference


# ---------------------------------------------------------------------------
# Direct summation oracle
# ---------------------------------------------------------------------------


def test_direct_sum_two_radii_agree_within_estimate(square):
    z = 0.25 + 0j
    lo = wp_direct_sum(z, square, 200)
    hi = wp_direct_sum(z, square, 400)
    assert abs(lo.value - hi.value) <= lo.err_estimate + hi.err_estimate


def test_direct_sum_even(square, rng):
    for _ in range(5):
        u, v = rng.uniform(0.05, 0.95, 2)
        z = complex(u, v)
        if pole_distance(z, square) < 0.05:
            continue
        a = wp_direct_sum(z, square, 100).value
        b = wp_direct_sum(-z, square, 100).value
        assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_direct_sum_pole_raises(square):
    with pytest.raises(PoleError):
        wp_direct_sum(1.0 + 0j, square, 100)


# (omega1, omega2, z) where a roundoff term of 8e-14 |value| fell below the
# true error: the summed magnitudes are a hundred times |value| and more
DIRECT_SUM_CASES = [
    (-0.06335343991951889 + 0.0533509846168259j, 0.185837754972978 - 0.1744110155108688j,
     -0.03179719937422768 + 0.021762145091157117j),
    (0.004515620865983195 + 0.011568791862965444j, -0.026505258033882026 + 0.05527480283684043j,
     0.033822006631828154 - 0.0238427485321102j),
    (0.1211259535666547 - 0.2081849522950672j, -0.03665606508658412 + 0.06791244670226639j,
     -0.018055888210200384 - 0.03269570875497914j),
    (-0.04032297531418758 + 0.0338486660449743j, -0.009173618445991174 - 0.014706480033970461j,
     -0.02943408431012138 + 0.037317594651340005j),
]


@pytest.mark.parametrize("case", range(len(DIRECT_SUM_CASES)))
def test_direct_sum_err_estimate_bounds_true_error(case):
    w1, w2, z = DIRECT_SUM_CASES[case]
    want, _ = ThetaReference(w1, w2)(z)
    got = wp_direct_sum(z, reduce_generators(w1, w2), 200)
    assert abs(got.value - want) <= got.err_estimate


def test_direct_sum_caches_stay_bounded():
    for k in range(20):
        wp_direct_sum(0.3 + 0.1j, reduce_generators(1.0, complex(0.01 * k, 1.1 + 0.1 * k)), 20)
    for cached in (_oracle_setup, _disc_points):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# Laurent coefficients
# ---------------------------------------------------------------------------


def test_laurent_base_cases(square):
    inv = invariants_qseries(square)
    lc = laurent_coefficients(inv, 3)
    assert lc.coeffs[0] == inv.g2 / 20.0
    assert lc.coeffs[1] == inv.g3 / 28.0


def test_laurent_c4_hand_expansion(square, hexagonal):
    # k=4 term of the recurrence expanded by hand: c4 = c2^2 / 3 = g2^2 / 1200
    for lat in (square, hexagonal):
        inv = invariants_qseries(lat)
        lc = laurent_coefficients(inv, 5)
        assert abs(lc.coeffs[2] - inv.g2**2 / 1200.0) <= 1e-12 * (1 + abs(inv.g2) ** 2)
        assert abs(lc.coeffs[3] - 3.0 * inv.g2 * inv.g3 / 6160.0) <= 1e-12 * (
            1 + abs(inv.g2 * inv.g3)
        )


def test_laurent_recurrence_reverified(rect2i):
    inv = invariants_qseries(rect2i)
    lc = laurent_coefficients(inv, 12)
    c = lc.coeffs
    for k in range(4, 13):
        s = sum(c[m - 2] * c[k - m - 2] for m in range(2, k - 1))
        expect = 3.0 * s / ((2 * k + 1) * (k - 3))
        assert abs(c[k - 2] - expect) <= 1e-14 * (1 + abs(expect))


def test_series_matches_direct_sum(square):
    inv = invariants_qseries(square)
    lc = laurent_coefficients(inv, 30)
    lam = shortest_vector(square)
    z = 0.2 * lam * complex(math.cos(0.7), math.sin(0.7))
    oracle = wp_direct_sum(z, square, 300).value
    assert abs(lc.wp(z) - oracle) < 1e-10


# ---------------------------------------------------------------------------
# wp evaluation
# ---------------------------------------------------------------------------


def test_quarter_turn_antisymmetry(square):
    a = wp_eval(0.3j, square).value
    b = wp_eval(0.3 + 0j, square).value
    assert abs(a + b) < 1e-10


def test_double_periodicity(square, hexagonal, rng):
    for lat in (square, hexagonal):
        (z,) = sample_cell_points(lat, rng, 1, margin=0.15)
        base = wp_eval(z, lat).value
        for m in range(-3, 4):
            for n in range(-3, 4):
                shifted = wp_eval(z + lat.point(m, n), lat).value
                assert abs(shifted - base) < 1e-9


def test_wp_matches_direct_sum_point(square):
    z = 0.25 + 0.25j
    assert abs(wp_eval(z, square).value - wp_direct_sum(z, square, 400).value) < 1e-9


def test_wp_oracle_agreement(reference_lattices, rng):
    for lat in reference_lattices:
        for z in sample_cell_points(lat, rng, 25, margin=0.05):
            diff = abs(wp_eval(z, lat).value - wp_direct_sum(z, lat, 300).value)
            assert diff < 1e-8


def test_wp_prime_odd(square, rng):
    for z in sample_cell_points(square, rng, 10, margin=0.1):
        a = wp_prime_eval(z, square).value
        b = wp_prime_eval(-z, square).value
        assert abs(a + b) < 1e-10 * (1 + abs(a))


def test_differential_equation_residual(reference_lattices, rng):
    for lat in reference_lattices:
        inv = invariants_qseries(lat)
        for z in sample_cell_points(lat, rng, 34, margin=0.05):
            u = wp_eval(z, lat).value
            v = wp_prime_eval(z, lat).value
            res = abs(v * v - (4 * u**3 - inv.g2 * u - inv.g3)) / (1 + abs(u) ** 3)
            assert res < 1e-9


def test_wp_prime_matches_finite_difference(square, rng):
    # truncation ~ wp''' h^2 / 6 with wp''' ~ 24/d^5: needs pole margin ~0.3
    h = 1e-5
    for z in sample_cell_points(square, rng, 10, margin=0.3):
        fd = (wp_eval(z + h, square).value - wp_eval(z - h, square).value) / (2 * h)
        assert abs(fd - wp_prime_eval(z, square).value) < 1e-6


def test_wp_second_matches_finite_difference(square, rng):
    h = 1e-4
    for z in sample_cell_points(square, rng, 10, margin=0.45):
        fd = (
            wp_eval(z + h, square).value
            - 2 * wp_eval(z, square).value
            + wp_eval(z - h, square).value
        ) / (h * h)
        assert abs(fd - wp_second_eval(z, square).value) < 1e-4


def test_wp_second_even(square, rng):
    for z in sample_cell_points(square, rng, 5, margin=0.1):
        a = wp_second_eval(z, square).value
        b = wp_second_eval(-z, square).value
        assert abs(a - b) < 1e-10 * (1 + abs(a))


def test_wp_second_quarter_turn_relation(square):
    # wp(iz) = -wp(z) on the square lattice, and the square removes the sign
    inv = invariants_qseries(square)
    lhs = wp_second_eval(0.3j, square).value
    wp_real = wp_eval(0.3 + 0j, square).value
    assert abs(lhs - (6.0 * wp_real**2 - inv.g2 / 2.0)) < 1e-9


def test_wp_eval_pole_raises(square):
    with pytest.raises(PoleError):
        wp_eval(0j, square)
    with pytest.raises(PoleError):
        wp_eval(1 + 0j, square)
    with pytest.raises(PoleError):
        wp_eval(3 + 2j, square)


def test_half_period_prime_vanishes(square):
    assert abs(wp_prime_eval(0.5 + 0j, square).value) < 1e-9


def test_eval_result_error_estimates(square):
    r = wp_eval(0.31 + 0.22j, square)
    assert math.isfinite(r.err_estimate) and r.err_estimate >= 0
    o = wp_direct_sum(0.31 + 0.22j, square, 150)
    assert math.isfinite(o.err_estimate) and o.err_estimate >= 0
    assert abs(r.value - o.value) <= max(1e-12, o.err_estimate) + r.err_estimate + 1e-10


# ---------------------------------------------------------------------------
# pole_distance
# ---------------------------------------------------------------------------


def test_pole_distance_lattice_point(square):
    assert pole_distance(0j, square) == 0.0
    assert pole_distance(2 + 3j, square) < 1e-15


def test_pole_distance_cell_center(square):
    assert abs(pole_distance(0.5 + 0.5j, square) - math.sqrt(2) / 2) < 1e-15


def test_pole_distance_brute_force(reference_lattices, rng):
    for lat in reference_lattices:
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            brute = min(
                abs(z - lat.point(m, n)) for m in range(-6, 7) for n in range(-6, 7)
            )
            assert pole_distance(z, lat) == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


ROT = cmath.exp(0.3j)
BATCH_LATTICES = {
    "square": (1.0, 1j),
    "hexagonal": (1.0, complex(0.5, math.sqrt(3.0) / 2.0)),
    "generic": (1.0, 0.31 + 1.27j),
    "edge": (1.0, 0.495 + 0.95j),
    "5i": (1.0, 5j),
    "12i": (1.0, 12j),
    "30i": (1.0, 30j),
    "scaled_1e3": (1e3 * ROT, 1e3 * ROT * (0.31 + 1.27j)),
    "scaled_1e-3": (1e-3 * ROT, 1e-3 * ROT * (0.31 + 1.27j)),
}


def batch_points(lat, rng):
    """Cell points, the same points +-300 periods out, and points 1e-9 to
    1e-3 of a period from lattice points and from the three half-periods."""
    w1, w2 = lat.omega1, lat.omega2
    x, y = rng.uniform(-0.5, 0.5, (2, 40))
    cell = x * w1 + y * w2
    m, n = rng.integers(-300, 301, (2, 40))
    offsets = abs(w1) * np.outer([1e-9, 1e-6, 1e-3], np.exp(1j * rng.uniform(0, 2 * math.pi, 4)))
    centres = [lat.point(0, 0), lat.point(3, -2), w1 / 2, w2 / 2, (w1 + w2) / 2]
    near = [c + d for c in centres for d in offsets.ravel()]
    return np.concatenate([cell, cell + m * w1 + n * w2, near])


@pytest.mark.parametrize("name", BATCH_LATTICES)
def test_wp_many_matches_scalar(name):
    lat = reduce_generators(*BATCH_LATTICES[name])
    zs = batch_points(lat, np.random.default_rng(5))
    got = wp_many(zs, lat)
    values = (got.wp, got.wp1, got.wp2)
    errs = (got.wp_err, got.wp1_err, got.wp2_err)
    for i, z in enumerate(zs):
        for k, want in enumerate(_wp_triple(z, lat)):
            assert abs(values[k][i] - want.value) <= want.err_estimate, (z, k)
            assert abs(errs[k][i] - want.err_estimate) <= 1e-12 * want.err_estimate, (z, k)
    assert np.array_equal(pole_distance_many(zs, lat), [pole_distance(z, lat) for z in zs])


def test_wp_many_pole_raises(square):
    with pytest.raises(PoleError):
        wp_many([0.3 + 0.2j, 3 - 2j], square)
    assert np.all(np.isfinite(wp_many([0.3 + 0.2j, 3 - 2j + 1e-9], square).wp))
