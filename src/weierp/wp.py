"""Evaluation of the Weierstrass function wp and its first two derivatives,
and a direct summation oracle from the defining series

    wp(z) = 1/z^2 + sum over nonzero lattice points w of (1/(z-w)^2 - 1/w^2).

The evaluator moves z into the cell |x|, |y| <= 1/2 of its lattice
coordinates and sums the q-Fourier series of wp (DLMF 23.8; Johansson,
arXiv:1806.06725), with wp' and wp'' from the same terms differentiated.  On
a reduced basis |Q| = |exp(2 pi i tau)| <= exp(-pi sqrt(3)), so the series
needs at most about twenty terms, no step cancels, and tall lattices are as
accurate as square ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .lattice import (
    Invariants,
    Lattice,
    disc_points,
    ensure_reduced,
    invariants_qseries,
    shell_scale,
)

POLE_REL_TOL = 1e-12


@dataclass(frozen=True)
class EvalResult:
    value: complex
    err_estimate: float


@dataclass(frozen=True)
class LaurentCoefficients:
    """Coefficients c_k of wp(z) = 1/z^2 + sum_{k>=2} c_k z^(2k-2)."""

    invariants: Invariants
    coeffs: tuple[complex, ...]  # c_2, c_3, ..., c_count

    def wp(self, z: complex) -> complex:
        z2 = z * z
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z2 + c
        return 1.0 / z2 + acc * z2

    def wp_prime(self, z: complex) -> complex:
        z2 = z * z
        acc = 0j
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * z2 + (2 * (k + 2) - 2) * self.coeffs[k]
        return -2.0 / (z2 * z) + acc * z


def laurent_coefficients(inv: Invariants, count: int) -> LaurentCoefficients:
    """Coefficients c_2..c_count via c_2 = g2/20, c_3 = g3/28 and the recurrence

        c_k = 3 / ((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}   for k >= 4,

    which follows from plugging the expansion into the differential identity.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    c: list[complex] = [inv.g2 / 20.0, inv.g3 / 28.0]
    for k in range(4, count + 1):
        s = 0j
        for m in range(2, k - 1):
            s += c[m - 2] * c[k - m - 2]
        c.append(3.0 * s / ((2 * k + 1) * (k - 3)))
    return LaurentCoefficients(inv, tuple(c))


# ---------------------------------------------------------------------------
# Pole distance
# ---------------------------------------------------------------------------


def pole_distance(z: complex, lat: Lattice) -> float:
    """Euclidean distance from z to the nearest lattice point."""
    z = complex(z)
    lat = ensure_reduced(lat)
    x, y = lat.coords(z)
    m, n = round(x), round(y)
    return min(abs(z - lat.point(m + i, n + j)) for i in (-1, 0, 1) for j in (-1, 0, 1))


# ---------------------------------------------------------------------------
# Direct summation oracle
# ---------------------------------------------------------------------------

_TAIL_CACHE: dict[tuple[complex, complex, int], tuple[complex, complex, np.ndarray, float]] = {}


def _oracle_setup(lat: Lattice, radius: int):
    """Per-(lattice, radius) data: exterior sums S4, S6, point cloud, cutoff."""
    key = (lat.omega1, lat.omega2, radius)
    cached = _TAIL_CACHE.get(key)
    if cached is not None:
        return cached
    pts = disc_points(lat, radius)
    inv = invariants_qseries(lat)
    s4 = inv.g2 / 60.0 - np.sum(pts**-4.0)
    s6 = inv.g3 / 140.0 - np.sum(pts**-6.0)
    cut = radius * shell_scale(lat)
    out = (complex(s4), complex(s6), pts, cut)
    _TAIL_CACHE[key] = out
    return out


def wp_direct_sum(z: complex, lat: Lattice, radius: int) -> EvalResult:
    """Reference evaluation by summing the defining series over a disc.

    The summand decays only like |w|^-3, so the bare truncated sum carries an
    O(1/radius) style tail.  Expanding that tail in powers of z gives

        sum_{|w| > cut} (1/(z-w)^2 - 1/w^2) = 3 z^2 S4 + 5 z^4 S6 + O(z^6 / cut^6)

    with S_m the exterior lattice sums, which are known exactly from the
    invariants minus the interior partial sums.  Adding the two leading terms
    leaves a remainder far below every tolerance used against this oracle.
    """
    if radius < 10:
        raise ValueError("radius must be >= 10")
    z = complex(z)
    lat = ensure_reduced(lat)
    if pole_distance(z, lat) <= POLE_REL_TOL * abs(lat.omega1):
        raise PoleError(f"z = {z!r} is a lattice point")
    s4, s6, pts, cut = _oracle_setup(lat, radius)
    total = 1.0 / (z * z) + np.sum(1.0 / (z - pts) ** 2 - 1.0 / pts**2)
    err = 2.0 * math.pi * abs(z) / cut  # bare-series tail bound, O(1/radius)
    if abs(z) < 0.25 * cut:
        total += 3.0 * z**2 * s4 + 5.0 * z**4 * s6
        err = 8.0 * (7.0 * abs(z) ** 6 / cut**6 + 1e-14 * abs(total))
    return EvalResult(complex(total), err)


# ---------------------------------------------------------------------------
# q-Fourier series evaluation
# ---------------------------------------------------------------------------


_EPS = 2.220446049250313e-16
ROUNDOFF = 8.0      # c in the roundoff bound c * eps * sum |terms|
MAX_TERMS = 64      # loop bound only: a reduced tau stops after at most ~20 terms


def _csc2_cot(v: complex) -> tuple[complex, complex]:
    """(1 / sin(v)^2, cot v), without overflow however large |Im v| is."""
    if abs(v.imag) <= 1.0:
        s = cmath.sin(v)
        return 1.0 / (s * s), cmath.cos(v) / s
    # s = +-v with Im s > 1: w = exp(2is) is small and 1 - w cannot cancel
    sign = 1.0 if v.imag > 0 else -1.0
    w = cmath.exp(2j * sign * v)
    return -4.0 * w / (1.0 - w) ** 2, sign * 1j * (w + 1.0) / (w - 1.0)


def _wp_triple(z: complex, lat: Lattice) -> tuple[EvalResult, EvalResult, EvalResult]:
    """wp, wp' and wp'' at z, each with an absolute error bound, in one pass.

    With z0 = z - w for the lattice point w nearest in coordinates, k = pi/omega1,
    v = k z0, Q = exp(2 pi i tau), A = Q exp(2iv), B = Q exp(-2iv) and
    d_n = n / (1 - Q^n):

        wp   = k^2 [csc^2 v - 1/3 + 8 sum d_n (Q^n - (A^n + B^n) / 2)]
        wp'  = k^3 [-2 csc^2 v cot v - 8i sum n d_n (A^n - B^n)]
        wp'' = k^4 [csc^2 v (6 csc^2 v - 4) + 16 sum n^2 d_n (A^n + B^n)]

    Since |x|, |y| <= 1/2, |A| and |B| are at most |Q|^(1/2) <= exp(-pi sqrt(3)/2),
    so the powers never overflow and from the second term on each is below a
    quarter of the one before: the omitted tail is below the last term kept.
    The bound adds that tail, the roundoff of the sum (a term's relative error
    grows like n times the size of its exponent through the powers) and the
    rounding of z0 itself, which moves the argument by up to a few
    eps * (|z| + |w|).
    """
    z = complex(z)
    lat = ensure_reduced(lat)
    x, y = lat.coords(z)
    w = lat.point(round(x), round(y))
    z0 = z - w
    if abs(z0) <= POLE_REL_TOL * abs(lat.omega1):
        raise PoleError(f"z = {z!r} is within pole tolerance of the lattice")
    k = math.pi / lat.omega1
    v = k * z0
    phase = 2j * math.pi * lat.tau
    q, a, b = cmath.exp(phase), cmath.exp(phase + 2j * v), cmath.exp(phase - 2j * v)
    u, t = _csc2_cot(v)
    grow = 2.0 * (abs(phase) + abs(v))
    rq, ra, rb = abs(q), abs(a), abs(b)

    s0 = s1 = s2 = 0j
    # m0, m1, m2: sums of |terms| of the three series, each series term
    # weighted by 1 + n * grow for the error its power carries
    au = abs(u)
    m0, m1, m2 = au + 1.0 / 3.0, 2.0 * au * abs(t), au * (6.0 * au + 4.0)
    qn = an = bn = 1.0 + 0j
    mq = ma = mb = 1.0
    for n in range(1, MAX_TERMS + 1):
        qn *= q
        an *= a
        bn *= b
        d = n / (1.0 - qn)
        ab = an + bn
        s0 += d * (qn - 0.5 * ab)
        s1 += n * d * (an - bn)
        s2 += n * n * d * ab
        mq *= rq
        ma *= ra
        mb *= rb
        md = n / (1.0 - mq)
        t0, t1 = 8.0 * md * (mq + 0.5 * (ma + mb)), 8.0 * n * md * (ma + mb)
        t2 = 2.0 * n * t1
        weight = 1.0 + n * grow
        m0 += weight * t0
        m1 += weight * t1
        m2 += weight * t2
        if n > 1 and t0 <= _EPS * m0 and t1 <= _EPS * m1 and t2 <= _EPS * m2:
            break

    k2 = k * k
    wp = k2 * (u - 1.0 / 3.0 + 8.0 * s0)
    wp1 = k2 * k * (-2.0 * u * t - 8j * s1)
    wp2 = k2 * k2 * (u * (6.0 * u - 4.0) + 16.0 * s2)
    reach = 4.0 * _EPS * (abs(z) + abs(w))
    ak2 = abs(k2)
    return (
        EvalResult(wp, ak2 * (ROUNDOFF * _EPS * m0 + t0) + abs(wp1) * reach),
        EvalResult(wp1, ak2 * abs(k) * (ROUNDOFF * _EPS * m1 + t1) + abs(wp2) * reach),
        EvalResult(wp2, ak2 * ak2 * (ROUNDOFF * _EPS * m2 + t2) + 12.0 * abs(wp * wp1) * reach),
    )


def wp_eval(z: complex, lat: Lattice) -> EvalResult:
    """wp(z) from the q-Fourier series."""
    return _wp_triple(z, lat)[0]


def wp_prime_eval(z: complex, lat: Lattice) -> EvalResult:
    """wp'(z), the term-wise derivative of the same series."""
    return _wp_triple(z, lat)[1]


def wp_second_eval(z: complex, lat: Lattice) -> EvalResult:
    """wp''(z), the second term-wise derivative of the same series."""
    return _wp_triple(z, lat)[2]
