"""Evaluation of the Weierstrass function wp and its first two derivatives,
and a direct summation oracle from the defining series

    wp(z) = 1/z^2 + sum over nonzero lattice points w of (1/(z-w)^2 - 1/w^2).

The evaluator moves z into the cell |x|, |y| <= 1/2 of its lattice
coordinates and sums the q-Fourier series of wp (DLMF 23.8; Johansson,
arXiv:1806.06725), with wp' and wp'' from the same terms differentiated.  On
a reduced basis |Q| = |exp(2 pi i tau)| <= exp(-pi sqrt(3)), so the series
needs at most about twenty terms, no step cancels, and tall lattices are as
accurate as square ones.

One routine, _series, sums the series for one point or for an array of
points of one lattice.  The few operations that differ between a Python
complex and a numpy array (exp, the csc^2/cot primitive, rounding to the
cell, and the any/all of the pole and stop tests) are picked once per call,
so the loop is written once and never asks which kind of input it has.
wp_eval, wp_prime_eval and wp_second_eval run it on plain complex numbers:
numpy's overhead per call makes a one-point array evaluation several times
slower (on a 2-core x86 VM, ~6-15 us for the scalar series against ~100-400
us for a one-point wp_many, and ~4 us for pole_distance against ~16 us for
a one-point pole_distance_many).  wp_many runs it on arrays for callers
that hold many points of one lattice: the CM maps, the disc grid and the
verify suites.  pole_distance is also the reference that pole_distance_many
is tested against bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


@functools.lru_cache(maxsize=1)
def _oracle_setup(lat: Lattice, radius: int):
    """Per-(lattice, radius) data: S4, S6, the disc points w and 1/w^2, the
    roundoff weights sum |w|^-2, M4 = |g2|/60 + sum |w|^-4 and
    M6 = |g3|/140 + sum |w|^-6, the shortest vector s and the cutoff.

    This is the package's one lattice-sum cache: its disc is the only one
    that callers reuse, as checking the evaluator against the oracle takes
    hundreds of points per lattice at radius 400, one lattice at a time.  A
    sweep over many lattices never returns to an earlier one, so one entry
    is all that is reused, and the memory stays that of one disc.
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


class _Backend(NamedTuple):
    """The operations in which the scalar and the array series differ."""

    exp: Callable
    csc2_cot: Callable
    rint: Callable
    any: Callable
    all: Callable


_SCALAR = _Backend(cmath.exp, _csc2_cot, round, bool, bool)
_ARRAY = _Backend(np.exp, _csc2_cot_many, np.rint, np.any, np.all)


def _series(z, lat: Lattice, ops: _Backend):
    """wp, wp', wp'' at z and their absolute error bounds, in one pass.

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
    eps * (|z| + |w|).  An array stops at the first n >= 2 where every point
    passes the stop test, so each point's tail term is taken at that n.
    """
    exp, csc2_cot, rint, any_, all_ = ops
    lat = ensure_reduced(lat)
    x, y = lat.coords(z)
    w = lat.point(rint(x), rint(y))
    z0 = z - w
    hit = abs(z0) <= POLE_REL_TOL * abs(lat.omega1)
    if any_(hit):
        bad = complex(np.asarray(z)[hit].flat[0])
        raise PoleError(f"z = {bad!r} is within pole tolerance of the lattice")
    k = math.pi / lat.omega1
    v = k * z0
    phase = 2j * math.pi * lat.tau
    q, a, b = cmath.exp(phase), exp(phase + 2j * v), exp(phase - 2j * v)
    u, t = csc2_cot(v)
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
        if n > 1 and all_(t0 <= _EPS * m0) and all_(t1 <= _EPS * m1) and all_(t2 <= _EPS * m2):
            break

    k2 = k * k
    wp = k2 * (u - 1.0 / 3.0 + 8.0 * s0)
    wp1 = k2 * k * (-2.0 * u * t - 8j * s1)
    wp2 = k2 * k2 * (u * (6.0 * u - 4.0) + 16.0 * s2)
    reach = 4.0 * _EPS * (abs(z) + abs(w))
    ak2 = abs(k2)
    return (
        wp, wp1, wp2,
        ak2 * (ROUNDOFF * _EPS * m0 + t0) + abs(wp1) * reach,
        ak2 * abs(k) * (ROUNDOFF * _EPS * m1 + t1) + abs(wp2) * reach,
        ak2 * ak2 * (ROUNDOFF * _EPS * m2 + t2) + 12.0 * abs(wp * wp1) * reach,
    )


def _wp_triple(z: complex, lat: Lattice) -> tuple[EvalResult, EvalResult, EvalResult]:
    """wp, wp' and wp'' at z, each with an absolute error bound."""
    wp, wp1, wp2, e0, e1, e2 = _series(complex(z), lat, _SCALAR)
    return EvalResult(wp, e0), EvalResult(wp1, e1), EvalResult(wp2, e2)


def wp_eval(z: complex, lat: Lattice) -> EvalResult:
    """wp(z) from the q-Fourier series."""
    r = _series(complex(z), lat, _SCALAR)
    return EvalResult(r[0], r[3])


def wp_prime_eval(z: complex, lat: Lattice) -> EvalResult:
    """wp'(z), the term-wise derivative of the same series."""
    r = _series(complex(z), lat, _SCALAR)
    return EvalResult(r[1], r[4])


def wp_second_eval(z: complex, lat: Lattice) -> EvalResult:
    """wp''(z), the second term-wise derivative of the same series."""
    r = _series(complex(z), lat, _SCALAR)
    return EvalResult(r[2], r[5])


class WpMany(NamedTuple):
    """wp, wp' and wp'' at an array of points, with their error bounds."""

    wp: np.ndarray
    wp1: np.ndarray
    wp2: np.ndarray
    wp_err: np.ndarray
    wp1_err: np.ndarray
    wp2_err: np.ndarray


def wp_many(zs, lat: Lattice) -> WpMany:
    """_wp_triple at every entry of an array, in one pass over the series.

    The terms that depend only on the lattice (Q^n, d_n) are shared, and every
    point is summed to the batch's common last term, so a point's bound is at
    most the one _wp_triple gives it.  Raises PoleError if any point is within
    pole tolerance of the lattice.
    """
    return WpMany(*_series(np.asarray(zs, dtype=complex), lat, _ARRAY))
