import cmath
import json
import math
import time

import numpy as np
import pytest

from weierp.cm import (
    CMRationalPair,
    DiscExtension,
    PoleSumMap,
    _disc_grid,
    _rational_residual,
    disc_eval,
    fit_multiplier_maps,
    verify_disc_extension,
)
from weierp.errors import DegenerateAddition, FitFailure, PoleError
from weierp.identities import multiplication_by_n
from weierp.lattice import CMWitness, detect_cm, invariants_qseries, reduce_generators
from weierp.verify import sample_cell_points
from weierp.wp import pole_distance_many, wp_eval, wp_many, wp_prime_eval

INTERVAL = (0.125, 0.375)


@pytest.fixture(scope="module")
def square_pair(square):
    return fit_multiplier_maps(square, detect_cm(square))


@pytest.fixture(scope="module")
def hex_pair(hexagonal):
    return fit_multiplier_maps(hexagonal, detect_cm(hexagonal))


# ---------------------------------------------------------------------------
# Multiplier maps
# ---------------------------------------------------------------------------


def test_square_maps_are_quarter_turn(square_pair):
    # wp(iz) = -wp(z): the kernel of i is {0}, so the map is alpha^-2 X = -X
    # with no poles; differentiating gives wp'(iz) = i wp'(z)
    assert square_pair.alpha == 1j
    assert len(square_pair.wp_map.poles) == 0
    xs = np.array([3.5 + 0.25j, -12.0 + 0j, 0.125 - 7.0j])
    assert np.array_equal(square_pair.wp_map(xs), -xs)
    assert np.array_equal(square_pair.wp_prime_factor(xs), np.full(3, 1j))


def test_hex_map_is_homothety(hexagonal):
    # alpha = e^{2 pi i / 3} scales the lattice into itself, and
    # wp(a z; a L) = a^-2 wp(z; L) forces wp_map = a^-2 X = e^{2 pi i/3} X
    alpha = cmath.exp(2j * math.pi / 3)
    pair = fit_multiplier_maps(hexagonal, CMWitness(alpha, None, 1))
    assert pair.norm == 1 and len(pair.wp_map.poles) == 0
    assert abs(complex(*pair.payload()["scale"]) - alpha) < 1e-15
    # numeric cross-check against direct evaluation
    z = 0.21 + 0.13j
    assert abs(pair.wp_map(wp_eval(z, hexagonal).value)
               - wp_eval(alpha * z, hexagonal).value) < 1e-10


def test_norm_three_multiplier_pipeline():
    # tau = i*sqrt(3): minimal polynomial tau^2 + 3, alpha = i*sqrt(3), norm 3;
    # the kernel is {0, Q, -Q}, so the map has one distinct pole wp(Q)
    lat = reduce_generators(1.0, complex(0.0, math.sqrt(3.0)))
    w = detect_cm(lat)
    assert w.min_poly == (1, 0, 3) and w.norm == 3
    pair = fit_multiplier_maps(lat, w)
    poles = pair.wp_map.poles
    assert pair.norm == 3 and len(poles) == 2
    assert abs(poles[0] - poles[1]) < 1e-13 * abs(poles[0])
    de = DiscExtension(lat, pair, (0.125, 0.375))
    assert verify_disc_extension(de, 8, 1e-8).max_abs_error < 1e-9


def test_integer_multiplier_matches_multiplication_map(square, rng):
    pair = fit_multiplier_maps(square, CMWitness(2.0 + 0j, None, 4))
    m2 = multiplication_by_n(2, invariants_qseries(square))
    for z in sample_cell_points(square, rng, 10, margin=0.15, multiples=(2,)):
        x = wp_eval(z, square).value
        assert abs(pair.wp_map(x) - m2(x)) < 1e-6 * (1 + abs(m2(x)))


def test_norm_nine_integer_multiplier(square):
    # alpha = 3: the kernel is the 3-torsion, eight poles in four +-Q pairs,
    # and the odd factor is R'(wp) / 3
    pair = fit_multiplier_maps(square, CMWitness(3.0 + 0j, None, 9))
    assert pair.norm == 9 and len(pair.wp_map.poles) == 8
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


# the ten CM orders of the benchmark's cm_disc workload: (tau, norm of a*tau)
CM_ORDERS = (
    (1j, 1), (complex(0.5, math.sqrt(3.0) / 2.0), 1), (2j, 4), (1j * math.sqrt(2.0), 2),
    (complex(0.5, math.sqrt(7.0) / 2.0), 2), (3j, 9), (complex(0.5, math.sqrt(11.0) / 2.0), 3),
    (complex(0.5, math.sqrt(19.0) / 2.0), 5), (6j, 36), (complex(0.5, math.sqrt(163.0) / 2.0), 41),
)


def test_kernel_size_equals_norm(rng):
    # the map has one pole per nonzero kernel point: N - 1 for a multiplier
    # of norm N, in a rotated, scaled and sheared basis of each order
    for tau, norm in CM_ORDERS:
        rot = 10.0 ** rng.uniform(-1.0, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        k = int(rng.integers(-3, 4))
        lat = reduce_generators(rot * (tau + k), rot * (2 * tau + 2 * k + 1))
        witness = detect_cm(lat)
        assert witness.norm == norm
        pair = fit_multiplier_maps(lat, witness)
        assert pair.norm == norm and len(pair.wp_map.poles) == norm - 1
        assert pair.residual < 1e-9


def test_maps_share_one_owned_pole_array(square):
    # both maps hold the same N - 1 poles in one array that owns its data,
    # so a kept pair does not keep the whole batch of sample values alive
    pair = fit_multiplier_maps(square, CMWitness(3.0 + 0j, None, 9))
    poles = pair.wp_map.poles
    assert pair.wp_prime_factor.poles is poles
    assert poles.base is None and poles.shape == (8,)


@pytest.mark.parametrize("case", ["2+i on the square lattice", "(-1+sqrt-23)/4"])
def test_cyclic_kernel_maps_match_wp(case, square, rng):
    # kernels whose points mix both basis directions: alpha = 2+i (norm 5),
    # and alpha = 2 tau for the form (2, 1, 3), whose leading coefficient
    # is not 1 (norm 6)
    if case.startswith("2+i"):
        lat, witness = square, CMWitness(2.0 + 1j, None, 5)
    else:
        lat = reduce_generators(1.0, complex(-0.25, math.sqrt(23.0) / 4.0))
        witness = detect_cm(lat)
        assert witness.min_poly == (2, 1, 3)
    pair = fit_multiplier_maps(lat, witness)
    assert pair.norm == witness.norm and len(pair.wp_map.poles) == witness.norm - 1
    zs = rng.uniform(0.1, 0.45, 50) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 50))
    zs = zs[pole_distance_many(witness.alpha * zs, lat) > 0.05]
    here, there = wp_many(zs, lat), wp_many(witness.alpha * zs, lat)
    assert np.all(np.abs(pair.wp_map(here.wp) - there.wp) < 1e-10 * (1 + np.abs(there.wp)))
    got = here.wp1 * pair.wp_prime_factor(here.wp)
    assert np.all(np.abs(got - there.wp1) < 1e-10 * (1 + np.abs(there.wp1)))


def test_fit_refuses_norm_above_degree_cap():
    # the maps of a multiplier of norm N have degree N, capped at MAX_NORM:
    # 13i (norm 169) builds and passes the disc grid; 1000i (norm 10^6) is
    # refused before anything is evaluated
    lat = reduce_generators(1.0, 13j)
    witness = detect_cm(lat)
    assert witness.norm == 169
    de = DiscExtension(lat, fit_multiplier_maps(lat, witness), INTERVAL)
    assert verify_disc_extension(de, 20, 1e-8).max_abs_error < 1e-8
    lat = reduce_generators(1.0, 1000j)
    witness = detect_cm(lat)
    assert witness.norm == 10**6
    t0 = time.perf_counter()
    with pytest.raises(FitFailure) as exc_info:
        fit_multiplier_maps(lat, witness)
    assert time.perf_counter() - t0 < 0.1
    assert exc_info.value.residual == math.inf


def test_norm_144_maps_match_wp(rng):
    # tau = 12i (norm 144): both maps agree with wp(alpha z) and wp'(alpha z)
    # at fresh points, not only at the validation samples.  The points are
    # where the disc construction uses the maps, within 0.45 of the origin:
    # deep in the tall cell wp(z) is within 1e-6 of -pi^2/3, and no function
    # of wp(z) recovers wp(alpha z) from binary64 values there.
    lat = reduce_generators(1.0, 12j)
    witness = detect_cm(lat)
    assert witness.norm == 144
    pair = fit_multiplier_maps(lat, witness)
    zs = rng.uniform(0.1, 0.45, 200) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    zs = zs[pole_distance_many(witness.alpha * zs, lat) > 0.05]
    here, there = wp_many(zs, lat), wp_many(witness.alpha * zs, lat)
    assert np.all(np.abs(pair.wp_map(here.wp) - there.wp) < 1e-9 * (1 + np.abs(there.wp)))
    got = here.wp1 * pair.wp_prime_factor(here.wp)
    assert np.all(np.abs(got - there.wp1) < 1e-9 * (1 + np.abs(there.wp1)))


def test_non_cm_lattice_fit_fails():
    lat = reduce_generators(1.0, 0.31 + 1.27j)
    tau = lat.tau
    for alpha in (tau, 1j * tau, 1 + tau):
        witness = CMWitness(alpha, None, max(1, round(abs(alpha) ** 2)))
        with pytest.raises(FitFailure) as exc_info:
            fit_multiplier_maps(lat, witness)
        assert exc_info.value.residual > 1e-3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_rational_residual_nan_target_is_inf():
    xs = np.linspace(1.0, 2.0, 24) + 0.5j
    ws = 2.0 * xs
    assert _rational_residual(2.0 * xs, ws) == 0.0
    ws[5] = math.nan
    assert _rational_residual(2.0 * xs, ws) == math.inf


def test_unplaceable_samples_raise(square):
    # alpha = 0 maps every sample onto the pole at the origin, so the
    # rejection loop can never finish
    from weierp.errors import SingularSample

    with pytest.raises(SingularSample):
        fit_multiplier_maps(square, CMWitness(0j, None, 1))


def test_pair_serialization(square_pair):
    payload = json.loads(json.dumps(square_pair.payload()))
    assert payload["norm"] == 1
    assert payload["alpha"] == [0.0, 1.0]
    assert payload["scale"] == [-1.0, 0.0]
    assert payload["poles"] == []
    assert payload["residual"] == square_pair.residual < 1e-9


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


def test_image_poles_inside_the_interval_are_skipped_not_refused():
    # 4 tau^2 + 5 = 0: alpha = 4 tau maps y = 0.25 onto the lattice point tau
    lat = reduce_generators(1.0, 1j * math.sqrt(5.0) / 2.0)
    de = DiscExtension(lat, fit_multiplier_maps(lat, detect_cm(lat)), INTERVAL)
    assert verify_disc_extension(de, 20, 1e-8).skipped == 0
    report = verify_disc_extension(de, 21, 1e-8)  # node 10 of 21 sits at y = 0.25
    assert report.skipped == 21 and report.max_abs_error < 1e-8


def conjugation_closed_forms(d_max):
    """Primitive reduced forms (a, b, c) with b = 0, b = a or a = c and
    4ac - b^2 <= d_max: the CM lattices closed under conjugation."""
    for a in range(1, d_max):
        for b in range(a + 1):
            for c in range(a, (d_max + b * b) // (4 * a) + 1):
                if (b in (0, a) or a == c) and math.gcd(a, b, c) == 1:
                    yield a, b, c


def test_every_conjugation_closed_cm_lattice_extends_to_the_disc():
    forms = list(conjugation_closed_forms(400))
    assert len(forms) == 400
    for a, b, c in forms:
        lat = reduce_generators(1.0, complex(-b, math.sqrt(4 * a * c - b * b)) / (2 * a))
        pair = fit_multiplier_maps(lat, detect_cm(lat))
        report = verify_disc_extension(DiscExtension(lat, pair, INTERVAL), 20, 1e-8)
        assert report.max_abs_error < 1e-8, (a, b, c)


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
    m = square_pair.wp_map
    nan_map = PoleSumMap(m.alpha, np.array([math.nan + 0j]), m.g2, m.g3)
    pair = CMRationalPair(square_pair.alpha, nan_map, square_pair.wp_prime_factor, 1, 0.0)
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
    return fit_multiplier_maps(lat, CMWitness(sign + 0j, None, 1))


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


def per_part_grid(de, xs, ys):
    """_disc_grid's (status, value, exact) from one pole screen and one wp_many
    call per part, the way the grid was evaluated before they were merged."""
    lat = de.lattice
    alpha = de.pair.alpha
    xs, ys = np.asarray(xs), np.asarray(ys)
    shape = (len(xs), len(ys))
    tiny = 1e-12 * abs(lat.omega1)
    x_pole = pole_distance_many(xs, lat) <= tiny
    ay_pole = pole_distance_many(alpha * ys, lat) <= tiny
    y_pole = pole_distance_many(ys, lat) <= tiny
    diff_pole = pole_distance_many(xs[:, None] - alpha * ys, lat) <= 1e-9 * abs(lat.omega1)
    u1 = np.full(len(xs), np.nan, dtype=complex)
    v1 = u1.copy()
    here = wp_many(xs[~x_pole], lat)
    u1[~x_pole], v1[~x_pole] = here.wp, here.wp1
    u2 = np.full(len(ys), np.nan, dtype=complex)
    v2 = u2.copy()
    y_ok = ~(ay_pole | y_pole)
    there = wp_many(ys[y_ok], lat)
    u2[y_ok] = de.pair.wp_map(there.wp)
    v2[y_ok] = there.wp1 * de.pair.wp_prime_factor(there.wp)
    denom = u1[:, None] - u2
    coincide = np.abs(denom) < 1e-10 * (1.0 + np.abs(u1)[:, None] + np.abs(u2))
    guards = [np.broadcast_to(g, shape) for g in (x_pole[:, None], ay_pole, diff_pole, y_pole,
                                                    coincide)]
    status = np.select(guards, [1, 2, 3, 4, 5])
    ok = status == 0
    u1, v1, u2, v2 = (np.broadcast_to(c, shape)[ok] for c in (u1[:, None], v1[:, None], u2, v2))
    value = np.full(shape, np.nan, dtype=complex)
    value[ok] = 0.25 * ((v1 - v2) / denom[ok]) ** 2 - u1 - u2
    sums = xs[:, None] + alpha * ys
    sum_ok = pole_distance_many(sums, lat) > tiny
    exact = np.full(shape, np.nan, dtype=complex)
    exact[sum_ok] = wp_many(sums[sum_ok], lat).wp
    return status, value, exact


def test_merged_grid_matches_per_part_calls(square):
    # alpha = 2i on the square lattice: x = 0 is a lattice point, alpha * 0.5
    # = i is one while 0.5 is not, and y = 1 is both; x + alpha*y is on the
    # lattice at (0, 0.5) and (0, 1).  One screen and one wp_many call over
    # every part give the per-part calls' status, values and exact values bit
    # for bit.
    pair = fit_multiplier_maps(square, CMWitness(2j, None, 4))
    de = DiscExtension(square, pair, INTERVAL)
    xs = [0.0, 0.2, 0.3]
    ys = [0.5, 0.25, 0.3, 1.0, 0.35]
    status, value, exact = _disc_grid(de, xs, ys)
    want = per_part_grid(de, xs, ys)
    assert np.array_equal(status, want[0])
    assert np.array_equal(value, want[1], equal_nan=True)
    assert np.array_equal(exact, want[2], equal_nan=True)
    assert status.tolist() == [[1] * 5, [2, 0, 0, 2, 0], [2, 0, 0, 2, 0]]
    assert np.isnan(exact[0, [0, 3]]).all() and not np.isnan(exact[0, 1:3]).any()


def test_verify_makes_one_screen_and_one_evaluation(square, square_pair, monkeypatch):
    import weierp.cm

    de = DiscExtension(square, square_pair, INTERVAL)
    calls = {"wp_many": 0, "pole_distance_many": 0}

    def counted(name):
        inner = getattr(weierp.cm, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(weierp.cm, name, counted(name))
    report = verify_disc_extension(de, 20, 1e-8)
    assert calls == {"wp_many": 1, "pole_distance_many": 1}
    assert report.points_checked == 400 and report.failures == ()


def test_verify_lists_failures_above_tol(hexagonal, hex_pair):
    # failures are exactly the checked nodes whose error exceeds tol, in
    # row-major order, each with its node coordinates
    de = DiscExtension(hexagonal, hex_pair, INTERVAL)
    a, b = INTERVAL
    nodes = [a + (b - a) * (j + 0.5) / 8 for j in range(8)]
    status, value, exact = _disc_grid(de, nodes, nodes)
    err = np.abs(value - exact)
    tol = float(np.median(err))
    report = verify_disc_extension(de, 8, tol)
    want = tuple((nodes[i], nodes[j], float(err[i, j]))
                 for i in range(8) for j in range(8) if err[i, j] > tol)
    assert report.failures == want and 0 < len(want) < 64


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
    status, values, exact = _disc_grid(de, nodes, nodes)
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
    assert np.array_equal(exact[ok], wp_many(grid[ix] + pair.alpha * grid[iy], lat).wp)
    assert report.max_abs_error == np.max(np.abs(values[ok] - exact[ok]))
    assert report.max_abs_error < 1e-8
