"""Evaluation of the Weierstrass function wp and its first two derivatives,
and a direct summation oracle from the defining series

    wp(z) = 1/z^2 + sum over nonzero lattice points w of (1/(z-w)^2 - 1/w^2).

The evaluator moves z into the cell |x|, |y| <= 1/2 of its lattice
coordinates and sums the q-Fourier series of wp (DLMF 23.8; Johansson,
arXiv:1806.06725), with wp' and wp'' from the same terms differentiated.  On
a reduced basis |Q| = |exp(2 pi i tau)| <= exp(-pi sqrt(3)), so the series
needs at most about twenty terms, no step cancels, and tall lattices are as
accurate as square ones.

wp_many is the array-in, array-out twin of the scalar series, with the same
reduction, stop rule and error formula per point; callers that hold many
points of one lattice (the CM maps, the disc grid and the verify suites) use
it.  The scalar wp_eval, wp_prime_eval and wp_second_eval stay for callers
that take one point at a time, and pole_distance beside pole_distance_many
for the same reason: numpy's overhead per call makes a one-point array
evaluation slower than the plain complex arithmetic (on a 2-core x86 VM,
~4 us for pole_distance against ~16 us for a one-point array call).
pole_distance is also the reference that pole_distance_many is tested
against bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PoleError
from .lattice import (
    Lattice,
    disc_points,
    ensure_reduced,
    invariants_qseries,
    shortest_vector,
)

POLE_REL_TOL = 1e-12
_EPS = 2.220446049250313e-16
ROUNDOFF = 8.0      # c in the roundoff bound c * eps * sum |terms|


@dataclass(frozen=True)
class EvalResult:
    value: complex
    err_estimate: float


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


_NEIGHBOURS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float).T


def pole_distance_many(zs, lat: Lattice) -> np.ndarray:
    """pole_distance at every entry of an array of any shape, bit for bit.

    The nine candidate lattice points are one trailing axis of a broadcast.
    Distances go through np.hypot, as abs(complex) does: np.abs rounds
    differently, and screens against fixed margins must not move.
    """
    z = np.asarray(zs, dtype=complex)[..., None]
    lat = ensure_reduced(lat)
    x, y = lat.coords(z)
    gaps = z - lat.point(np.rint(x) + _NEIGHBOURS[0], np.rint(y) + _NEIGHBOURS[1])
    return np.min(np.hypot(gaps.real, gaps.imag), axis=-1)


# ---------------------------------------------------------------------------
# Direct summation oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _oracle_setup(lat: Lattice, radius: int):
    """Per-(lattice, radius) data: S4, S6, the disc points w and 1/w^2, the
    roundoff weights sum |w|^-2, M4 = |g2|/60 + sum |w|^-4 and
    M6 = |g3|/140 + sum |w|^-6, the shortest vector s and the cutoff.

    This is the package's one lattice-sum cache: its disc is the only one
    that callers reuse, as checking the evaluator against the oracle takes
    hundreds of points per lattice at radius 400.  Four entries bound the
    memory when many lattices pass through.
    """
    pts = disc_points(lat, radius)
    inv_sq = 1.0 / pts**2
    inv = invariants_qseries(lat)
    s4 = inv.g2 / 60.0 - np.sum(pts**-4.0)
    s6 = inv.g3 / 140.0 - np.sum(pts**-6.0)
    r2 = np.abs(inv_sq)
    m2 = float(np.sum(r2))
    m4 = abs(inv.g2) / 60.0 + float(np.sum(r2**2))
    m6 = abs(inv.g3) / 140.0 + float(np.sum(r2**3))
    lam = shortest_vector(lat)
    return complex(s4), complex(s6), pts, inv_sq, m2, m4, m6, lam, radius * lam


def wp_direct_sum(z: complex, lat: Lattice, radius: int) -> EvalResult:
    """Reference evaluation by summing the defining series over a disc.

    The summand decays only like |w|^-3, so the bare truncated sum carries an
    O(1/radius) style tail.  Expanding that tail in powers of z gives

        sum_{|w| > cut} (1/(z-w)^2 - 1/w^2) = 3 z^2 S4 + 5 z^4 S6 + O(z^6 / cut^6)

    with S_m the exterior lattice sums, which are known exactly from the
    invariants minus the interior partial sums.  Adding the two leading terms
    leaves a remainder far below every tolerance used against this oracle.

    The tail bounds rest on T_p = sum_{|w| > cut} |w|^-p.  Discs of radius
    s/2 about the lattice points (s the shortest vector) are disjoint, so
    T_p <= (8 / s^2) int_{cut - s}^inf (t + s/2) t^-p dt, with cut >= 10 s.
    For |z| < cut/4 the remainder, the sum over even k >= 6 of
    (k+1) z^k T_(k+2), is below 20 |z|^6 / (s^2 cut^6).  Up to cut/2 the
    bare tail, pairing w with -w, is below 30 |z|^2 / (s^2 cut^2); beyond,
    the bound is infinite.  To these the bound adds 8 eps times the
    magnitudes summed: |1/(z-w)^2| and |1/w^2| over the disc, and
    3|z|^2 M4 + 5|z|^4 M6 for the two correction terms.
    """
    if radius < 10:
        raise ValueError("radius must be >= 10")
    z = complex(z)
    lat = ensure_reduced(lat)
    if pole_distance(z, lat) <= POLE_REL_TOL * abs(lat.omega1):
        raise PoleError(f"z = {z!r} is a lattice point")
    s4, s6, pts, inv_sq, m2, m4, m6, lam, cut = _oracle_setup(lat, radius)
    terms = 1.0 / (z - pts) ** 2
    total = 1.0 / (z * z) + np.sum(terms - inv_sq)
    az2 = abs(z) ** 2
    summed = 1.0 / az2 + float(np.sum(np.abs(terms))) + m2
    if abs(z) < 0.25 * cut:
        total += 3.0 * z**2 * s4 + 5.0 * z**4 * s6
        summed += 3.0 * az2 * m4 + 5.0 * az2**2 * m6
        tail = 20.0 * az2**3 / (lam**2 * cut**6)
    elif abs(z) <= 0.5 * cut:
        tail = 30.0 * az2 / (lam**2 * cut**2)
    else:
        tail = math.inf
    return EvalResult(complex(total), tail + ROUNDOFF * _EPS * summed)


# ---------------------------------------------------------------------------
# q-Fourier series evaluation
# ---------------------------------------------------------------------------


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


class WpMany(NamedTuple):
    """wp, wp' and wp'' at an array of points, with their error bounds."""

    wp: np.ndarray
    wp1: np.ndarray
    wp2: np.ndarray
    wp_err: np.ndarray
    wp1_err: np.ndarray
    wp2_err: np.ndarray


def _csc2_cot_many(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_csc2_cot at every entry, each branch taken on its own entries."""
    u = np.empty_like(v)
    t = np.empty_like(v)
    near = np.abs(v.imag) <= 1.0
    s = np.sin(v[near])
    u[near], t[near] = 1.0 / (s * s), np.cos(v[near]) / s
    far = ~near
    sign = np.where(v[far].imag > 0, 1.0, -1.0)
    w = np.exp(2j * sign * v[far])
    u[far], t[far] = -4.0 * w / (1.0 - w) ** 2, sign * 1j * (w + 1.0) / (w - 1.0)
    return u, t


def wp_many(zs, lat: Lattice) -> WpMany:
    """_wp_triple at every entry of an array, in one pass over the series.

    Each point is reduced, summed and bounded by the formulas of _wp_triple:
    the terms that depend only on the lattice (Q^n, d_n) are shared, and a
    point stops adding terms at its own first n >= 2 that passes the stop
    test.  The array arithmetic rounds differently from the scalar one, so
    values and bounds agree with the scalar routine's within the bound, not
    bit for bit: at 400 seeded square-lattice cell points, 174 values differ,
    by up to 6e-15 relative.  Raises PoleError if any point is within pole
    tolerance of the lattice.
    """
    z = np.asarray(zs, dtype=complex)
    lat = ensure_reduced(lat)
    x, y = lat.coords(z)
    w = lat.point(np.rint(x), np.rint(y))
    z0 = z - w
    hit = np.hypot(z0.real, z0.imag) <= POLE_REL_TOL * abs(lat.omega1)
    if np.any(hit):
        raise PoleError(f"z = {complex(z[hit][0])!r} is within pole tolerance of the lattice")
    k = math.pi / lat.omega1
    v = k * z0
    phase = 2j * math.pi * lat.tau
    q, a, b = cmath.exp(phase), np.exp(phase + 2j * v), np.exp(phase - 2j * v)
    u, t = _csc2_cot_many(v)
    grow = 2.0 * (abs(phase) + np.abs(v))
    rq, ra, rb = abs(q), np.abs(a), np.abs(b)

    s0 = np.zeros_like(z)
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    au = np.abs(u)
    m0, m1, m2 = au + 1.0 / 3.0, 2.0 * au * np.abs(t), au * (6.0 * au + 4.0)
    t0 = t1 = t2 = np.zeros(z.shape)
    qn = 1.0 + 0j
    an = np.ones_like(z)
    bn = np.ones_like(z)
    mq = 1.0
    ma = np.ones(z.shape)
    mb = np.ones(z.shape)
    live = None  # points still adding terms, None while that is all of them

    def step(new, old):
        return new if live is None else np.where(live, new, old)

    for n in range(1, MAX_TERMS + 1):
        qn *= q
        an *= a
        bn *= b
        d = n / (1.0 - qn)
        ab = an + bn
        s0 = step(s0 + d * (qn - 0.5 * ab), s0)
        s1 = step(s1 + n * d * (an - bn), s1)
        s2 = step(s2 + n * n * d * ab, s2)
        mq *= rq
        ma *= ra
        mb *= rb
        md = n / (1.0 - mq)
        t0 = step(8.0 * md * (mq + 0.5 * (ma + mb)), t0)
        t1 = step(8.0 * n * md * (ma + mb), t1)
        t2 = step(2.0 * n * t1, t2)
        weight = 1.0 + n * grow
        m0 = step(m0 + weight * t0, m0)
        m1 = step(m1 + weight * t1, m1)
        m2 = step(m2 + weight * t2, m2)
        if n > 1:
            # a stopped point's t and m are frozen, so it keeps passing
            done = (t0 <= _EPS * m0) & (t1 <= _EPS * m1) & (t2 <= _EPS * m2)
            if done.all():
                break
            if done.any():
                live = ~done

    k2 = k * k
    wp = k2 * (u - 1.0 / 3.0 + 8.0 * s0)
    wp1 = k2 * k * (-2.0 * u * t - 8j * s1)
    wp2 = k2 * k2 * (u * (6.0 * u - 4.0) + 16.0 * s2)
    reach = 4.0 * _EPS * (np.abs(z) + np.abs(w))
    ak2 = abs(k2)
    return WpMany(
        wp, wp1, wp2,
        ak2 * (ROUNDOFF * _EPS * m0 + t0) + np.abs(wp1) * reach,
        ak2 * abs(k) * (ROUNDOFF * _EPS * m1 + t1) + np.abs(wp2) * reach,
        ak2 * ak2 * (ROUNDOFF * _EPS * m2 + t2) + 12.0 * np.abs(wp * wp1) * reach,
    )
