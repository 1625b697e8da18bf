import cmath
import math

import numpy as np
import pytest

from weierp.errors import DegenerateLattice
from weierp.lattice import (
    CMWitness,
    Lattice,
    LatticeClass,
    classify_real,
    detect_cm,
    disc_points,
    eisenstein_invariants,
    invariants_qseries,
    is_closed_under_conjugation,
    reduce_generators,
    shortest_vector,
)

from conftest import random_unimodular


def coords_residual(lat, z):
    """Distance from z to the nearest integer combination of the basis."""
    x, y = lat.coords(z)
    return abs(z - lat.point(round(x), round(y)))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def test_reduce_square_already_reduced():
    lat = reduce_generators(1.0, 1j)
    assert lat.omega1 == 1.0 and lat.omega2 == 1j
    assert lat.tau == 1j


def test_reduce_single_translation():
    lat = reduce_generators(1.0, 1 + 1j)
    assert lat.tau == 1j
    assert lat.omega1 == 1.0 and lat.omega2 == 1j


def test_reduce_generic_same_group():
    # brute-force membership: inputs lie in the reduced lattice with integer
    # coordinates and vice versa, hence the two bases generate the same group
    w1, w2 = 2 + 1j, 3 + 2j
    lat = reduce_generators(w1, w2)
    for z in (w1, w2):
        assert coords_residual(lat, z) < 1e-9
    original = Lattice(w1, w2)
    for z in (lat.omega1, lat.omega2):
        assert coords_residual(original, z) < 1e-9
    tau = lat.tau
    assert abs(tau.real) <= 0.5 + 1e-12 and abs(tau) >= 1 - 1e-12 and tau.imag > 0


@pytest.mark.parametrize(
    "w1,w2",
    [(1.0, 1j), (2 + 1j, 3 + 2j), (1.0, 0.3 + 1.1j), (1 - 1j, 1 + 1j), (0.5, 0.1 + 0.9j)],
)
def test_reduce_idempotent(w1, w2):
    lat = reduce_generators(w1, w2)
    again = reduce_generators(lat.omega1, lat.omega2)
    assert again.omega1 == lat.omega1 and again.omega2 == lat.omega2


def test_reduce_degenerate_raises():
    with pytest.raises(DegenerateLattice):
        reduce_generators(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        reduce_generators(1.0, 1 + 1e-14j)
    with pytest.raises(DegenerateLattice):
        reduce_generators(0.0, 1j)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_square_rectangular(square):
    assert classify_real(square) is LatticeClass.RECTANGULAR


def test_classify_conjugate_generators_rhombic():
    lat = reduce_generators(1 - 1j, 1 + 1j)
    assert classify_real(lat) is LatticeClass.RHOMBIC


def test_classify_hexagonal_rhombic(hexagonal):
    assert classify_real(hexagonal) is LatticeClass.RHOMBIC


def unimodular_matrices(bound):
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for r in range(-bound, bound + 1):
                for s in range(-bound, bound + 1):
                    if abs(p * s - q * r) == 1:
                        yield p, q, r, s


def test_classify_nonreal_exhaustive_basis_search():
    # independent oracle: no unimodular basis change with small entries yields
    # either (real, imaginary) generators or a conjugate pair
    lat = reduce_generators(1.0, 0.3 + 1.1j)
    assert classify_real(lat) is LatticeClass.NON_REAL
    w1, w2 = lat.omega1, lat.omega2
    for p, q, r, s in unimodular_matrices(4):
        a = p * w1 + q * w2
        b = r * w1 + s * w2
        rectangular = abs(a.imag) < 1e-9 * abs(a) and abs(b.real) < 1e-9 * abs(b)
        rhombic = abs(a.conjugate() - b) < 1e-9 * abs(a)
        assert not rectangular and not rhombic


def test_classification_agrees_with_conjugation_closure():
    zoo = [
        reduce_generators(1.0, 1j),
        reduce_generators(1 - 1j, 1 + 1j),
        reduce_generators(1.0, complex(0.5, math.sqrt(3) / 2)),
        reduce_generators(1.0, 2j),
        reduce_generators(2.0, 1 + 1j),
        reduce_generators(1.0, 0.3 + 1.1j),
        reduce_generators(1.0, 0.31 + 1.27j),
        reduce_generators(2 + 1j, 3 + 2j),
    ]
    for lat in zoo:
        closed = is_closed_under_conjugation(lat)
        assert (classify_real(lat) is not LatticeClass.NON_REAL) == closed


def test_conjugation_closure_examples():
    assert is_closed_under_conjugation(reduce_generators(1.0, 1j))
    assert is_closed_under_conjugation(reduce_generators(1 - 1j, 1 + 1j))
    lat = reduce_generators(1.0, 0.3 + 1.1j)
    assert not is_closed_under_conjugation(lat)
    # exact coordinate solve shows a non-integer coordinate
    x, y = lat.coords(lat.omega2.conjugate())
    assert max(abs(x - round(x)), abs(y - round(y))) > 1e-3


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_square_g3_vanishes(square):
    inv, _ = eisenstein_invariants(square, 60)
    assert abs(inv.g3) < 1e-9


def test_hexagonal_g2_vanishes(hexagonal):
    inv, _ = eisenstein_invariants(hexagonal, 60)
    assert abs(inv.g2) < 1e-9


def independent_disc_sum(lat, radius, power):
    """Shell-by-shell direct summation with fsum accumulation."""
    cut2 = (radius * shortest_vector(lat)) ** 2 * (1 + 1e-9)
    re_parts, im_parts = [], []
    box = 2 * radius + 2  # a shell k holds points of length >= k * shortest_vector / 2
    for k in range(1, box + 1):
        ms, ns = [], []
        for m in range(-k, k + 1):
            ms += [m, m]
            ns += [k, -k]
        for n in range(-k + 1, k):
            ms += [k, -k]
            ns += [n, n]
        pts = np.array(ms) * lat.omega1 + np.array(ns) * lat.omega2
        norm2 = pts.real**2 + pts.imag**2
        shell = pts[norm2 <= cut2]
        if len(shell):
            val = np.sum(shell ** (-float(power)))
            re_parts.append(val.real)
            im_parts.append(val.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def test_g2_matches_independent_sum_radius_400(square):
    inv, _ = eisenstein_invariants(square, 400)
    oracle = 60.0 * independent_disc_sum(square, 400, 4)
    assert abs(inv.g2 - oracle) <= 1e-9 * abs(oracle)


def test_invariants_tail_consistency(reference_lattices):
    for lat in reference_lattices:
        small, est = eisenstein_invariants(lat, 40)
        big, _ = eisenstein_invariants(lat, 80)
        assert abs(small.g2 - big.g2) <= est
        assert abs(small.g3 - big.g3) <= est


def test_real_lattices_have_real_invariants():
    for lat in (
        reduce_generators(1.0, 1j),
        reduce_generators(1.0, complex(0.5, math.sqrt(3) / 2)),
        reduce_generators(1.0, 2j),
        reduce_generators(1 - 1j, 1 + 1j),
    ):
        inv, _ = eisenstein_invariants(lat, 60)
        scale = 1 + abs(inv.g2) + abs(inv.g3)
        assert abs(inv.g2.imag) < 1e-9 * scale
        assert abs(inv.g3.imag) < 1e-9 * scale


def test_invariants_against_gamma_closed_forms(square, hexagonal):
    # classical closed forms for the two most symmetric lattices, evaluated
    # here through the gamma function: an anchor independent of any lattice
    # summation in this package
    g2_square = math.gamma(0.25) ** 8 / (16.0 * math.pi**2)
    g3_hex = math.gamma(1.0 / 3.0) ** 18 / (64.0 * math.pi**6)
    assert invariants_qseries(square).g2.real == pytest.approx(g2_square, rel=1e-13)
    assert invariants_qseries(hexagonal).g3.real == pytest.approx(g3_hex, rel=1e-13)
    inv_sq, est_sq = eisenstein_invariants(square, 120)
    inv_hex, est_hex = eisenstein_invariants(hexagonal, 120)
    assert abs(inv_sq.g2 - g2_square) <= est_sq
    assert abs(inv_hex.g3 - g3_hex) <= est_hex


def test_qseries_within_truncation_tail(reference_lattices):
    for lat in reference_lattices:
        exact = invariants_qseries(lat)
        trunc, est = eisenstein_invariants(lat, 100)
        assert abs(exact.g2 - trunc.g2) <= est
        assert abs(exact.g3 - trunc.g3) <= est
        assert abs(exact.discriminant) > 1e3  # nondegenerate
    # scaled generators: the g2 and g3 sums scale as s^-4 and s^-6, so at
    # scale 1e-3 the g3 tail is the larger one
    for scale in (1e-3, 1e3):
        for tau in (1j, complex(0.5, math.sqrt(3) / 2), 0.31 + 1.27j, 3j, 12j):
            lat = reduce_generators(scale, scale * tau)
            exact = invariants_qseries(lat)
            for radius in (10, 40, 120):
                trunc, est = eisenstein_invariants(lat, radius)
                assert abs(exact.g2 - trunc.g2) <= est, (scale, tau, radius)
                assert abs(exact.g3 - trunc.g3) <= est, (scale, tau, radius)


def independent_disc_points(lat, radius):
    """disc_points by rows: |m w1 + n w2|^2 <= C is a quadratic in m for each n,
    real exactly when n^2 A^2 <= |w1|^2 C.  Returned in (m, n) order."""
    w1, w2 = lat.omega1, lat.omega2
    cut2 = (radius * shortest_vector(lat)) ** 2
    a2 = abs(w1) ** 2
    area = abs((w1.conjugate() * w2).imag)
    cross = (w1 * w2.conjugate()).real
    n_max = math.floor(math.sqrt(a2 * cut2) / area) + 1
    ms, ns = [], []
    for n in range(-n_max, n_max + 1):
        half = math.sqrt(max(0.0, (n * cross) ** 2 - a2 * (n * n * abs(w2) ** 2 - cut2))) / a2
        centre = -n * cross / a2
        m = np.arange(math.floor(centre - half) - 1, math.ceil(centre + half) + 2)
        ms.append(m)
        ns.append(np.full(len(m), n))
    m, n = np.concatenate(ms), np.concatenate(ns)
    order = np.lexsort((n, m))
    pts = m[order] * w1 + n[order] * w2
    norm2 = pts.real**2 + pts.imag**2
    return pts[(norm2 > 1e-24 * abs(w1) ** 2) & (norm2 <= cut2 * (1 + 1e-9))]


def test_disc_points_enumeration_and_symmetry(square):
    lattices = [
        square,
        reduce_generators(1.0, 40j),
        reduce_generators(1e-3, 1e-3 * (0.31 + 1.27j)),
        reduce_generators(1e3, 1e3 * complex(0.5, math.sqrt(3) / 2)),
        Lattice(1, 2 + 1j),  # unreduced: the box is exact for any basis
    ]
    for lat in lattices:
        pts = disc_points(lat, 25)
        assert np.array_equal(pts, independent_disc_points(lat, 25)), lat
        # point(-m, -n) is exactly -point(m, n), and the order is (m, n)
        assert np.array_equal(pts[::-1], -pts)
    assert len(disc_points(square, 25)) == 1960


# ---------------------------------------------------------------------------
# Complex multiplication
# ---------------------------------------------------------------------------


def test_detect_cm_square(square):
    w = detect_cm(square)
    assert w is not None
    assert w.min_poly == (1, 0, 1)
    assert abs(w.alpha - 1j) < 1e-12
    assert w.norm == 1


def test_detect_cm_hexagonal(hexagonal):
    w = detect_cm(hexagonal)
    assert w is not None
    assert w.min_poly == (1, -1, 1)
    assert abs(w.alpha - hexagonal.tau) < 1e-12
    assert w.norm == 1
    # exact linear solve: alpha * generators have integer coordinates
    for gen in (hexagonal.omega1, hexagonal.omega2):
        x, y = hexagonal.coords(w.alpha * gen)
        assert abs(x - round(x)) < 1e-9 and abs(y - round(y)) < 1e-9


def test_detect_cm_nonreal_none():
    lat = reduce_generators(1.0, 0.31 + 1.27j)
    assert detect_cm(lat, coeff_bound=50) is None
    # exhaustive scan over every triple within the bound: none comes close
    tau = lat.tau
    best = math.inf
    for a in range(1, 51):
        for b in range(-50, 51):
            for c in range(-50, 51):
                scale = a * abs(tau) ** 2 + abs(b) * abs(tau) + abs(c)
                best = min(best, abs(a * tau * tau + b * tau + c) / scale)
    assert best > 1e-6


def test_detect_cm_recovers_disguised_forms():
    # seeded primitive reduced forms with a <= 50 and c up to 400, each in a
    # scaled, rotated, unimodularly changed basis; b and c follow from a, so
    # the bound on a is the only one.  Reduction may land on the mirror tau
    # of an edge form, hence +-b.
    rng = np.random.default_rng(5)
    forms = [(1, 0, 64), (1, 0, 144)]
    while len(forms) < 60:
        a = int(rng.integers(1, 51))
        c = int(rng.integers(a, 401))
        b = int(rng.integers(-a + 1, a + 1))
        if math.gcd(math.gcd(a, abs(b)), c) == 1:
            forms.append((a, b, c))
    for a, b, c in forms:
        tau = complex(-b / (2 * a), math.sqrt(4 * a * c - b * b) / (2 * a))
        rot = 10.0 ** rng.uniform(-2, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p, q, r, s = random_unimodular(rng)
        lat = reduce_generators(rot * (r * tau + s), rot * (p * tau + q))
        w = detect_cm(lat)
        assert w is not None and w.min_poly in ((a, b, c), (a, -b, c)), (a, b, c, w)
        assert w.norm == a * c
        assert abs(w.alpha - a * lat.tau) <= 1e-12 * abs(w.alpha)


def test_detect_cm_none_on_random_tau():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-0.5, 0.5)
        lat = reduce_generators(1.0, complex(x, rng.uniform(math.sqrt(1 - x * x), 6.0)))
        assert detect_cm(lat) is None, lat.tau


def test_cm_containment_residual(reference_lattices):
    for lat in reference_lattices:
        w = detect_cm(lat)
        if w is None:
            continue
        scale = abs(lat.omega1) + abs(lat.omega2)
        for gen in (lat.omega1, lat.omega2):
            assert coords_residual(lat, w.alpha * gen) < 1e-9 * scale


def test_cm_witness_fields_are_python_types(square):
    w = detect_cm(square)
    assert isinstance(w, CMWitness)
    assert isinstance(w.alpha, complex)
    assert all(isinstance(k, int) for k in w.min_poly)
    assert isinstance(w.norm, int)
