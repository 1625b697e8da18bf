import cmath
import math

import numpy as np
import pytest

from weierp.errors import PoleError
from weierp.lattice import Lattice, invariants_qseries, reduce_generators
from weierp.verify import sample_cell_points
from weierp.wp import (
    _oracle_setup,
    _wp_triple,
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


# (omega1, omega2, z, radius) where a roundoff term of 8e-14 |value| fell
# below the true error: the summed magnitudes are a hundred times |value| and
# more
DIRECT_SUM_CASES = [
    (-0.06335343991951889 + 0.0533509846168259j, 0.185837754972978 - 0.1744110155108688j,
     -0.03179719937422768 + 0.021762145091157117j, 200),
    (0.004515620865983195 + 0.011568791862965444j, -0.026505258033882026 + 0.05527480283684043j,
     0.033822006631828154 - 0.0238427485321102j, 200),
    (0.1211259535666547 - 0.2081849522950672j, -0.03665606508658412 + 0.06791244670226639j,
     -0.018055888210200384 - 0.03269570875497914j, 200),
    (-0.04032297531418758 + 0.0338486660449743j, -0.009173618445991174 - 0.014706480033970461j,
     -0.02943408431012138 + 0.037317594651340005j, 200),
] + [
    # generators scaled far from 1, where a truncation bound that ignores the
    # length scale missed by 2e3 to 8e4 times; |z| is 0.2, 0.4, 0.45 and 0.98
    # of the cutoff, so every tail branch is covered, the last with an
    # infinite bound
    (1e-3, 12e-3j, 0.001529684374568977 + 0.001288435374475382j, 10),
    (1e-3, 5e-3j, 0.0072575379428092375 + 0.014259317760982966j, 40),
    (1e-3, 1e-3j, 0.004299014201065227 + 0.0013298409299760281j, 10),
    (1e-3, 5e-3j, 0.0097 + 0.0013j, 10),
    (1e3, 500 + 866.0254037844386j, 18421.219880057703 + 7788.36684617301j, 200),
    (1e3, 3e3j, -915.5230404037133 + 2000.4543390164997j, 10),
    # tau = 1000i at radius 10: the disc is one row of points, and a bound
    # taken over the covolume instead of the shortest vector misses by 2.5x
    (1.0, 1000j, 1.4700998667618626 + 0.2980039961925918j, 10),
]


@pytest.mark.parametrize("case", range(len(DIRECT_SUM_CASES)))
def test_direct_sum_err_estimate_bounds_true_error(case):
    w1, w2, z, radius = DIRECT_SUM_CASES[case]
    want, _ = ThetaReference(w1, w2)(z)
    got = wp_direct_sum(z, reduce_generators(w1, w2), radius)
    assert abs(got.value - want) <= got.err_estimate


def test_direct_sum_cache_stays_bounded():
    for k in range(20):
        wp_direct_sum(0.3 + 0.1j, reduce_generators(1.0, complex(0.01 * k, 1.1 + 0.1 * k)), 20)
    info = _oracle_setup.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


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
    # every point is summed to the batch's last term, so its tail term is
    # taken at an n no smaller than the scalar one: the bound can only shrink
    w1, w2 = BATCH_LATTICES[name]
    lat = reduce_generators(w1, w2)
    ref = ThetaReference(w1, w2)
    zs = batch_points(lat, np.random.default_rng(5))
    got = wp_many(zs, lat)
    values = (got.wp, got.wp1, got.wp2)
    errs = (got.wp_err, got.wp1_err, got.wp2_err)
    for i, z in enumerate(zs):
        for k, want in enumerate(_wp_triple(z, lat)):
            assert abs(values[k][i] - want.value) <= want.err_estimate, (z, k)
            assert errs[k][i] <= want.err_estimate * (1 + 1e-12), (z, k)
        true_wp, true_wp1 = ref(z)
        assert abs(got.wp[i] - true_wp) <= got.wp_err[i], z
        assert abs(got.wp1[i] - true_wp1) <= got.wp1_err[i], z
    assert np.array_equal(pole_distance_many(zs, lat), [pole_distance(z, lat) for z in zs])


def test_pole_distance_many_matches_scalar():
    # the broadcast screen is the scalar routine bit for bit on an N-d array
    # over an unreduced basis (tau = 1.2 + 1.4i), out to |z| = 1e6, including
    # lattice points, points a hair off them and cell edges; one point too
    lat = Lattice(1 - 2j, 4 - 1j)
    red = reduce_generators(lat.omega1, lat.omega2)
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e3, 1e6):
        box = rng.uniform(-scale, scale, (2, 4, 6))
        zs = box[0] + 1j * box[1]
        w = red.point(np.rint(zs.real / 3), np.rint(zs.imag / 3))
        zs[0] = w[0]
        zs[1, :3] = w[1, :3] + 1e-13 * np.array([1, 1j, -1 - 1j])
        zs[1, 3:] = w[1, 3:] + 0.5 * np.array([red.omega1, red.omega2, red.omega1 + red.omega2])
        got = pole_distance_many(zs, lat)
        assert got.shape == zs.shape
        assert np.array_equal(got, [[pole_distance(z, lat) for z in row] for row in zs])
    one = pole_distance_many([0.3 + 0.2j], lat)
    assert one.shape == (1,) and one[0] == pole_distance(0.3 + 0.2j, lat)


def test_wp_many_pole_raises(square):
    with pytest.raises(PoleError):
        wp_many([0.3 + 0.2j, 3 - 2j], square)
    assert np.all(np.isfinite(wp_many([0.3 + 0.2j, 3 - 2j + 1e-9], square).wp))
