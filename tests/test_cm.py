import cmath
import json
import math

import numpy as np
import pytest

from weierp.cm import (
    CMRationalPair,
    DiscExtension,
    _disc_grid,
    _rational_residual,
    disc_eval,
    fit_multiplier_maps,
    verify_disc_extension,
)
from weierp.errors import DegenerateAddition, FitFailure, PoleError
from weierp.identities import RationalMap, multiplication_by_n
from weierp.lattice import CMWitness, detect_cm, invariants_qseries, reduce_generators
from weierp.verify import sample_cell_points
from weierp.wp import wp_eval, wp_many, wp_prime_eval

INTERVAL = (0.125, 0.375)


@pytest.fixture(scope="module")
def square_pair(square):
    return fit_multiplier_maps(square, detect_cm(square))


@pytest.fixture(scope="module")
def hex_pair(hexagonal):
    return fit_multiplier_maps(hexagonal, detect_cm(hexagonal))


# ---------------------------------------------------------------------------
# Map fitting
# ---------------------------------------------------------------------------


def test_square_maps_are_quarter_turn(square_pair):
    # wp(iz) = -wp(z): map is -X; differentiating gives wp'(iz) = i wp'(z)
    num, den = square_pair.wp_map.num_even, square_pair.wp_map.den_even
    assert len(num) == 2 and len(den) == 1
    assert abs(num[0]) < 1e-10 and abs(num[1] + 1.0) < 1e-10
    assert abs(den[0] - 1.0) < 1e-12
    s = square_pair.wp_prime_factor
    assert len(s.num_even) == 1 and abs(s.num_even[0] - 1j) < 1e-10


def test_hex_map_is_homothety(hexagonal):
    # alpha = e^{2 pi i / 3} scales the lattice into itself, and
    # wp(a z; a L) = a^-2 wp(z; L) forces wp_map = a^-2 X = e^{2 pi i/3} X
    alpha = cmath.exp(2j * math.pi / 3)
    pair = fit_multiplier_maps(hexagonal, CMWitness(alpha, None, 1))
    num = pair.wp_map.num_even
    assert len(num) == 2
    assert abs(num[1] - alpha) < 1e-10
    # numeric cross-check against direct evaluation
    z = 0.21 + 0.13j
    assert abs(pair.wp_map(wp_eval(z, hexagonal).value)
               - wp_eval(alpha * z, hexagonal).value) < 1e-10


def test_norm_three_multiplier_pipeline():
    # tau = i*sqrt(3): minimal polynomial tau^2 + 3, alpha = i*sqrt(3), norm 3
    lat = reduce_generators(1.0, complex(0.0, math.sqrt(3.0)))
    w = detect_cm(lat)
    assert w.min_poly == (1, 0, 3) and w.norm == 3
    pair = fit_multiplier_maps(lat, w)
    assert len(pair.wp_map.num_even) - 1 == 3
    assert len(pair.wp_map.den_even) - 1 == 2
    de = DiscExtension(lat, pair, (0.125, 0.375))
    assert verify_disc_extension(de, 8, 1e-8).max_abs_error < 1e-9


def test_integer_multiplier_matches_multiplication_map(square, rng):
    pair = fit_multiplier_maps(square, CMWitness(2.0 + 0j, None, 4), tol=1e-6)
    m2 = multiplication_by_n(2, invariants_qseries(square))
    for z in sample_cell_points(square, rng, 10, margin=0.15, multiples=(2,)):
        x = wp_eval(z, square).value
        assert abs(pair.wp_map(x) - m2(x)) < 1e-6 * (1 + abs(m2(x)))


def test_norm_nine_integer_multiplier(square):
    # alpha = 3 needs numerator degree 9 and an odd factor of degree 16; the
    # odd factor's minimal degrees are lower, so the fit falls back to the
    # derivative identity wp'(3z) = R'(wp) wp' / 3
    pair = fit_multiplier_maps(square, CMWitness(3.0 + 0j, None, 9), tol=1e-7)
    m3 = multiplication_by_n(3, invariants_qseries(square))
    for z in (0.21 + 0.13j, 0.17 + 0.29j):
        x = wp_eval(z, square).value
        assert abs(pair.wp_map(x) - m3(x)) < 1e-7 * (1 + abs(m3(x)))
        lhs = wp_prime_eval(3 * z, square).value
        rhs = wp_prime_eval(z, square).value * pair.wp_prime_factor(x)
        assert abs(lhs - rhs) < 1e-7 * (1 + abs(lhs))


def test_fit_generalizes_to_fresh_points(square, square_pair, rng):
    tol = 1e-9
    for z in sample_cell_points(square, rng, 40, margin=0.12, multiples=(2,)):
        x = wp_eval(z, square).value
        w = wp_eval(1j * z, square).value
        assert abs(square_pair.wp_map(x) - w) < 10 * tol * (1 + abs(w))
        v = wp_prime_eval(z, square).value
        wv = wp_prime_eval(1j * z, square).value
        assert abs(v * square_pair.wp_prime_factor(x) - wv) < 10 * tol * (1 + abs(wv))


def test_degree_minimality_after_pruning(square_pair):
    assert len(square_pair.wp_map.num_even) - 1 == 1
    assert len(square_pair.wp_map.den_even) - 1 == 0


def test_non_cm_lattice_fit_fails():
    lat = reduce_generators(1.0, 0.31 + 1.27j)
    tau = lat.tau
    for alpha in (tau, 1j * tau, 1 + tau):
        witness = CMWitness(alpha, None, max(1, round(abs(alpha) ** 2)))
        with pytest.raises(FitFailure) as exc_info:
            fit_multiplier_maps(lat, witness)
        assert exc_info.value.residual > 1e-3


def test_fit_refuses_norm_above_degree_cap():
    # tau = 13i has CM with norm 169; a fit at that degree would need
    # matrices of thousands of rows and maps beyond binary64
    lat = reduce_generators(1.0, 13j)
    witness = detect_cm(lat)
    assert witness.norm == 169
    with pytest.raises(FitFailure):
        fit_multiplier_maps(lat, witness)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_at_norm_144_fails_loudly():
    # tau = 12i (norm 144): the odd factor's powers overflow binary64, and the
    # NaN residual they lead to must fail the fit, not pass it
    lat = reduce_generators(1.0, 12j)
    witness = detect_cm(lat)
    assert witness.norm == 144
    with pytest.raises(FitFailure) as exc_info:
        fit_multiplier_maps(lat, witness)
    assert exc_info.value.residual == math.inf


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_rational_residual_nan_target_is_inf():
    xs = np.linspace(1.0, 2.0, 24) + 0.5j
    ws = 2.0 * xs
    num, den = np.array([0.0, 2.0 + 0j]), np.array([1.0 + 0j])
    assert _rational_residual(num, den, xs, ws) < 1e-15
    ws[5] = math.nan
    assert _rational_residual(num, den, xs, ws) == math.inf


def test_samples_argument_validated(square):
    with pytest.raises(ValueError):
        fit_multiplier_maps(square, CMWitness(1j, (1, 0, 1), 1), samples=3)


def test_unplaceable_samples_raise(square):
    # alpha = 0 maps every sample onto the pole at the origin, so the
    # rejection loop can never finish
    from weierp.errors import SingularSample

    with pytest.raises(SingularSample):
        fit_multiplier_maps(square, CMWitness(0j, None, 1))


def test_pair_serialization(square_pair):
    payload = json.loads(square_pair.to_text())
    assert payload["norm"] == 1
    assert payload["alpha"] == [0.0, 1.0]
    inner = json.loads(payload["wp_map"])
    assert inner["num_degree"] == 1


# ---------------------------------------------------------------------------
# Disc evaluation
# ---------------------------------------------------------------------------


def test_disc_eval_square_point(square, square_pair):
    de = DiscExtension(square, square_pair, INTERVAL)
    got = disc_eval(de, 0.2, 0.3)
    assert abs(got - wp_eval(0.2 + 0.3j, square).value) < 1e-8


def test_disc_eval_even_symmetry(square, square_pair):
    de = DiscExtension(square, square_pair, INTERVAL)
    got = disc_eval(de, 0.2, 0.3)
    assert abs(got - wp_eval(-(0.2 + 0.3j), square).value) < 1e-8


def test_disc_eval_diagonal_point(square, square_pair):
    de = DiscExtension(square, square_pair, INTERVAL)
    got = disc_eval(de, 0.2, 0.2)
    assert abs(got - wp_eval((1 + 1j) * 0.2, square).value) < 1e-8


def test_disc_eval_rejects_outside_interval(square, square_pair):
    de = DiscExtension(square, square_pair, INTERVAL)
    with pytest.raises(ValueError):
        disc_eval(de, 0.5, 0.2)


def test_disc_extension_rejects_interval_with_pole(square, square_pair):
    with pytest.raises(ValueError):
        DiscExtension(square, square_pair, (0.5, 1.5))


def test_verify_disc_square(square, square_pair):
    de = DiscExtension(square, square_pair, INTERVAL)
    report = verify_disc_extension(de, 20, 1e-8)
    assert report.max_abs_error < 1e-8
    assert report.points_checked + report.skipped == 400
    assert not report.failures


def test_verify_disc_hexagonal(hexagonal, hex_pair):
    de = DiscExtension(hexagonal, hex_pair, INTERVAL)
    report = verify_disc_extension(de, 20, 1e-8)
    assert report.max_abs_error < 1e-8
    assert not report.failures


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_verify_disc_counts_nan_as_failure(square, square_pair):
    nan_map = RationalMap.from_x_rational(square_pair.wp_map.invariants,
                                          np.array([math.nan]), np.array([1.0]))
    pair = CMRationalPair(square_pair.alpha, nan_map, square_pair.wp_prime_factor, 1)
    report = verify_disc_extension(DiscExtension(square, pair, INTERVAL), 4, 1e-8)
    assert report.max_abs_error == math.inf
    assert len(report.failures) == report.points_checked == 16


def test_grid_nesting_determinism(square, square_pair):
    # midpoint grids nest: every grid-4 node is a grid-20 node, same values
    de = DiscExtension(square, square_pair, INTERVAL)
    a, b = INTERVAL
    coarse = [a + (b - a) * (j + 0.5) / 4 for j in range(4)]
    fine = [a + (b - a) * (j + 0.5) / 20 for j in range(20)]
    for x in coarse:
        assert any(abs(x - f) < 1e-15 for f in fine)
    for x in coarse:
        for y in coarse:
            assert disc_eval(de, x, y) == disc_eval(de, x, y)


def sign_pair(lat, sign):
    """alpha = +-1 with wp(alpha z) = wp(z) and wp'(alpha z) = alpha wp'(z)."""
    inv = invariants_qseries(lat)
    ident = RationalMap.from_x_rational(inv, np.array([0.0, 1.0]), np.array([1.0]))
    factor = RationalMap.from_x_rational(inv, np.array([sign]), np.array([1.0]))
    return CMRationalPair(sign + 0j, ident, factor, 1)


def test_disc_eval_degenerate_guard(square):
    # alpha = 1 with the identity map makes x = y hit both excluded cases:
    # x - alpha*y is the lattice point 0 and wp(x) equals the mapped value
    de = DiscExtension(square, sign_pair(square, 1.0), INTERVAL)
    with pytest.raises(DegenerateAddition, match="lattice point"):
        disc_eval(de, 0.25, 0.25)
    # alpha = -1 keeps x - alpha*y off the lattice, so only the second fires
    de = DiscExtension(square, sign_pair(square, -1.0), INTERVAL)
    with pytest.raises(DegenerateAddition, match="coincides"):
        disc_eval(de, 0.25, 0.25)


@pytest.mark.parametrize("case", ["square", "hexagonal", "alpha=1", "alpha=-1"])
def test_grid_values_are_disc_eval(case, square, hexagonal, square_pair, hex_pair):
    # verify_disc_extension and disc_eval share one routine: every grid value
    # is disc_eval's bit for bit, and both skip the same nodes
    lat, pair = {
        "square": (square, square_pair),
        "hexagonal": (hexagonal, hex_pair),
        "alpha=1": (square, sign_pair(square, 1.0)),
        "alpha=-1": (square, sign_pair(square, -1.0)),
    }[case]
    de = DiscExtension(lat, pair, INTERVAL)
    a, b = INTERVAL
    nodes = [a + (b - a) * (j + 0.5) / 20 for j in range(20)]
    status, values = _disc_grid(de, nodes, nodes)
    skipped = set()
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            try:
                got = disc_eval(de, x, y)
            except (DegenerateAddition, PoleError):
                skipped.add((i, j))
                continue
            assert got == values[i, j], (x, y)
    assert skipped == {(int(i), int(j)) for i, j in zip(*np.nonzero(status))}
    assert len(skipped) == (20 if case.startswith("alpha") else 0)
    report = verify_disc_extension(de, 20, 1e-8)
    assert (report.points_checked, report.skipped) == (400 - len(skipped), len(skipped))
    ok = status == 0
    ix, iy = np.nonzero(ok)
    grid = np.asarray(nodes)
    exact = wp_many(grid[ix] + pair.alpha * grid[iy], lat).wp
    assert report.max_abs_error == np.max(np.abs(values[ok] - exact))
    assert report.max_abs_error < 1e-8
