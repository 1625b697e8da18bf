import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weierp.errors import DegenerateAddition, HalfPeriodSingularity
from weierp.identities import (
    _condition,
    _peval,
    addition_formula,
    diffeq_residual,
    division_polynomials,
    division_values,
    duplication,
    duplication_rational_map,
    multiplication_by_n,
)
from weierp.lattice import invariants_qseries, shortest_vector
from weierp.verify import sample_cell_points
from weierp.wp import wp_eval, wp_prime_eval, wp_second_eval

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# Addition and duplication
# ---------------------------------------------------------------------------


@given(pz=finite_complex, pw=finite_complex, ppz=finite_complex, ppw=finite_complex)
def test_addition_symmetric_in_arguments(pz, pw, ppz, ppw):
    try:
        a = addition_formula(pz, pw, ppz, ppw)
    except DegenerateAddition:
        with pytest.raises(DegenerateAddition):
            addition_formula(pw, pz, ppw, ppz)
        return
    b = addition_formula(pw, pz, ppw, ppz)
    assert a == b  # every subexpression is symmetric under the swap


def test_addition_matches_direct_eval(square):
    z, w = 0.2 + 0j, 0.3j
    got = addition_formula(
        wp_eval(z, square).value,
        wp_eval(w, square).value,
        wp_prime_eval(z, square).value,
        wp_prime_eval(w, square).value,
    )
    assert abs(got - wp_eval(z + w, square).value) < 1e-9


def test_addition_degenerate_raises():
    with pytest.raises(DegenerateAddition):
        addition_formula(2.0 + 1j, 2.0 + 1j, 0.5, -0.5)


def test_duplication_matches_direct_eval(square):
    z = 0.2 + 0j
    got = duplication(
        wp_eval(z, square).value,
        wp_prime_eval(z, square).value,
        wp_second_eval(z, square).value,
    )
    assert abs(got - wp_eval(0.4 + 0j, square).value) < 1e-9


def test_duplication_even_in_z(square):
    # inputs built from -z: wp even, wp' odd but only squared, wp'' even
    z = 0.21 + 0.17j
    a = duplication(
        wp_eval(z, square).value,
        wp_prime_eval(z, square).value,
        wp_second_eval(z, square).value,
    )
    b = duplication(
        wp_eval(-z, square).value,
        wp_prime_eval(-z, square).value,
        wp_second_eval(-z, square).value,
    )
    assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_duplication_half_period_raises():
    with pytest.raises(HalfPeriodSingularity):
        duplication(1.0 + 0j, 0j, 3.0 + 0j)


# ---------------------------------------------------------------------------
# Differential equation residual
# ---------------------------------------------------------------------------


def test_diffeq_residual_random_points(reference_lattices, rng):
    for lat in reference_lattices:
        for z in sample_cell_points(lat, rng, 34, margin=0.05):
            assert diffeq_residual(z, lat) < 1e-9


def test_diffeq_residual_near_half_period(square):
    assert diffeq_residual(0.5 + 1e-4j, square) < 1e-9


def test_diffeq_residual_even(square):
    z = 0.23 + 0.31j
    assert diffeq_residual(z, square) == diffeq_residual(-z, square)


# ---------------------------------------------------------------------------
# Multiplication maps
# ---------------------------------------------------------------------------


def test_mult2_coefficients_equal_duplication_form(reference_lattices):
    for lat in reference_lattices:
        inv = invariants_qseries(lat)
        m2 = multiplication_by_n(2, inv)
        dup = duplication_rational_map(inv)
        assert np.allclose(m2.num, dup.num, rtol=0, atol=1e-12)
        assert np.allclose(m2.den, dup.den, rtol=0, atol=1e-12)


def test_mult2_equals_duplication_form_on_curve(square, rng):
    inv = invariants_qseries(square)
    m2 = multiplication_by_n(2, inv)
    dup = duplication_rational_map(inv)
    pts = sample_cell_points(square, rng, 50, margin=0.1, multiples=(2,))
    for z in pts:
        x = wp_eval(z, square).value
        assert abs(m2(x) - dup(x)) < 1e-9 * (1 + abs(dup(x)))


def test_mult3_matches_direct_eval(square, rng):
    inv = invariants_qseries(square)
    m3 = multiplication_by_n(3, inv)
    pts = sample_cell_points(square, rng, 50, margin=0.1, multiples=(3,))
    for z in pts:
        x = wp_eval(z, square).value
        assert abs(m3(x) - wp_eval(3 * z, square).value) < 1e-8


def test_mult4_equals_mult2_composed(square, rng):
    inv = invariants_qseries(square)
    m2 = multiplication_by_n(2, inv)
    m4 = multiplication_by_n(4, inv)
    pts = sample_cell_points(square, rng, 15, margin=0.12, multiples=(2, 4))
    for z in pts:
        x = wp_eval(z, square).value
        assert abs(m4(x) - m2(m2(x))) < 1e-7 * (1 + abs(m4(x)))


def test_mult_maps_on_curve_three_lattices(reference_lattices, rng):
    # identity holds everywhere; points are kept only where the expanded
    # coefficient form is evaluable in binary64 (condition below 1e7)
    for lat in reference_lattices:
        inv = invariants_qseries(lat)
        lam = shortest_vector(lat)
        for n in (2, 3, 5):
            mp = multiplication_by_n(n, inv)
            kept = 0
            tried = 0
            while kept < 50 and tried < 600:
                tried += 1
                (z,) = sample_cell_points(lat, rng, 1, margin=0.1, multiples=(n,))
                x = wp_eval(z, lat).value
                if mp.condition(x) > 1e7:
                    continue
                kept += 1
                assert abs(mp(x) - wp_eval(n * z, lat).value) < 1e-7
            assert kept >= 50


def test_mult_numerator_degree(square):
    inv = invariants_qseries(square)
    for n in (2, 3, 4, 5):
        mp = multiplication_by_n(n, inv)
        assert len(mp.num) - 1 == n * n


def test_mult_bounds():
    inv = invariants_qseries_of_square()
    with pytest.raises(ValueError):
        multiplication_by_n(1, inv)
    with pytest.raises(ValueError):
        multiplication_by_n(13, inv)


def invariants_qseries_of_square():
    from weierp.lattice import reduce_generators

    return invariants_qseries(reduce_generators(1.0, 1j))


# ---------------------------------------------------------------------------
# Division values
# ---------------------------------------------------------------------------


def test_division_values_contains_half_argument(square):
    inv = invariants_qseries(square)
    target = wp_eval(0.4 + 0j, square).value
    roots = division_values(2, target, inv)
    want = wp_eval(0.2 + 0j, square).value
    assert min(abs(r - want) for r in roots) < 1e-7


def test_division_values_fiber_size(square):
    inv = invariants_qseries(square)
    for n in (2, 3):
        roots = division_values(n, 1.7 + 0.3j, inv)
        assert len(roots) == n * n


def test_division_values_even_in_z(square):
    inv = invariants_qseries(square)
    z = 0.27 + 0.19j
    t_plus = wp_eval(2 * z, square).value
    t_minus = wp_eval(-2 * z, square).value
    a = np.sort_complex(division_values(2, t_plus, inv))
    b = np.sort_complex(division_values(2, t_minus, inv))
    assert np.allclose(a, b, atol=1e-9)


def test_division_multiplication_roundtrip(square, rng):
    inv = invariants_qseries(square)
    m2 = multiplication_by_n(2, inv)
    (z,) = sample_cell_points(square, rng, 1, margin=0.2, multiples=(2,))
    target = wp_eval(2 * z, square).value
    for r in division_values(2, target, inv):
        assert abs(m2(r) - target) < 1e-6 * (1 + abs(target))


# ---------------------------------------------------------------------------
# Division polynomials
# ---------------------------------------------------------------------------


def test_division_polynomials_classical_bases(square):
    inv = invariants_qseries(square)
    dps = division_polynomials(inv, 4)
    a = -inv.g2 / 4.0
    b = -inv.g3 / 4.0
    assert np.allclose(dps.polys[1], [1.0])
    assert np.allclose(dps.polys[2], [1.0])  # psi_2 = 2y
    assert np.allclose(dps.polys[3], [-a * a, 12 * b, 6 * a, 0.0, 3.0])
    assert np.allclose(
        dps.polys[4],
        2.0
        * np.array(
            [-8 * b * b - a**3, -4 * a * b, -5 * a * a, 20 * b, 5 * a, 0.0, 1.0]
        ),
    )
    assert dps.has_y == (False, False, True, False, True)


def test_division_polynomials_scalar_recurrence(rect2i, rng):
    # independent check: evaluate the recurrences on numbers, with
    # y^2 = x^3 + Ax + B substituted, and compare to the stored polynomials
    inv = invariants_qseries(rect2i)
    dps = division_polynomials(inv, 8)
    a = -inv.g2 / 4.0
    b = -inv.g3 / 4.0
    for _ in range(5):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = cmath.sqrt(x**3 + a * x + b)
        psi = {0: 0j, 1: 1 + 0j, 2: 2 * y}
        psi[3] = 3 * x**4 + 6 * a * x**2 + 12 * b * x - a * a
        psi[4] = 4 * y * (
            x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a**2 * x**2 - 4 * a * b * x
            - 8 * b**2 - a**3
        )
        for n in range(5, 9):
            m = n // 2
            if n % 2 == 1:
                psi[n] = psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3
            else:
                psi[n] = psi[m] * (psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2) / (2 * y)
        for n in range(1, 9):
            got = dps.scalar(n, x, y)
            assert abs(got - psi[n]) < 1e-6 * (1 + abs(psi[n]))


# ---------------------------------------------------------------------------
# RationalMap representation
# ---------------------------------------------------------------------------


def test_rational_map_condition_flags_cancellation(rect2i):
    inv = invariants_qseries(rect2i)
    m5 = multiplication_by_n(5, inv)
    assert m5.condition(100.0 + 0j) < 1e4  # leading term dominates far out


@pytest.mark.parametrize("degree", [0, 12, 160])
def test_condition_on_arrays_matches_scalar(degree, rng):
    # _condition takes arrays, and each entry must get exactly the factor a
    # one-point call gives it
    p = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) * 10.0 ** rng.uniform(
        -3, 3, size=degree + 1
    )
    xs = (rng.normal(size=60) + 1j * rng.normal(size=60)) * 10.0 ** rng.uniform(-1, 0.3, size=60)
    values = _peval(p, xs)
    conds = _condition(p, xs, values)
    assert values.shape == conds.shape == xs.shape
    for x, value, cond in zip(xs, values, conds):
        assert cond == _condition(p, complex(x), complex(value))
        assert abs(value - _peval(p, complex(x))) <= 1e-14 * cond * abs(value)


def test_identities_on_arrays_match_scalar_calls(square, rng):
    # the verify suites apply each identity to a whole block of samples
    zs = sample_cell_points(square, rng, 40, margin=0.1, multiples=(2,))
    u = np.array([wp_eval(z, square).value for z in zs])
    v = np.array([wp_prime_eval(z, square).value for z in zs])
    w = np.array([wp_second_eval(z, square).value for z in zs])
    add = addition_formula(u[:20], u[20:], v[:20], v[20:])
    dup = duplication(u, v, w)
    m5 = multiplication_by_n(5, invariants_qseries(square))
    cond = m5.condition(u)
    assert add.shape == (20,) and dup.shape == cond.shape == (40,)
    for k in range(20):
        want = addition_formula(complex(u[k]), complex(u[20 + k]), complex(v[k]), complex(v[20 + k]))
        assert abs(add[k] - want) <= 1e-14 * abs(want)
    for k in range(40):
        want = duplication(complex(u[k]), complex(v[k]), complex(w[k]))
        assert abs(dup[k] - want) <= 1e-14 * abs(want)
        assert abs(cond[k] - m5.condition(complex(u[k]))) <= 1e-12 * cond[k]
    assert isinstance(m5.condition(complex(u[0])), float)


def test_array_identities_raise_on_any_degenerate_entry():
    u = np.array([2.0 + 1j, 3.0 - 1j])
    with pytest.raises(DegenerateAddition):
        addition_formula(u, np.array([1.0, 3.0 - 1j]), np.ones(2), -np.ones(2))
    with pytest.raises(HalfPeriodSingularity):
        duplication(u, np.array([1.0, 0.0]), np.ones(2))
