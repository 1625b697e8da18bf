"""Algebraic identities of wp as executable verifiers and rational maps.

The function field of a lattice is generated by (wp, wp') subject to the
single relation Y^2 = F(X) = 4X^3 - g2 X - g3.  The maps here are even, so
after reducing Y^2 to F(X) they are rational in X = wp alone.  Polynomials
are dense ascending complex coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAddition, HalfPeriodSingularity, RootFindingFailure
from .lattice import Invariants, Lattice, ensure_reduced, invariants_qseries
from .wp import _wp_triple

DEGREE_CAP = 160
MAX_MULTIPLIER = 12

ADDITION_TOL = 1e-12
WP_PRIME_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Dense polynomial helpers (ascending coefficients)
# ---------------------------------------------------------------------------


def _trim(p: np.ndarray) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    nz = np.nonzero(p)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return p[: nz[-1] + 1]


def _padd(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = max(len(p), len(q))
    out = np.zeros(n, dtype=complex)
    out[: len(p)] += p
    out[: len(q)] += q
    return out


def _pmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.convolve(p, q)
    if len(out) > DEGREE_CAP + 1:
        raise ValueError(f"polynomial degree {len(out) - 1} exceeds cap {DEGREE_CAP}")
    return out


def _peval(p: np.ndarray, x):
    """p at x by Horner's rule; x may be a number or an array."""
    acc = 0j
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _cabs(z):
    """|z| of a number or an array, rounded as abs(complex) rounds it (via
    np.hypot; np.abs rounds differently)."""
    return np.hypot(np.real(z), np.imag(z))


def _condition(p: np.ndarray, x, value):
    """Horner cancellation factor of p at x: sum of |term| over |value|.

    x and value may be arrays of one shape; each entry gets the factor the
    scalar call gives it, bit for bit.
    """
    ax = np.abs(np.asarray(x))[..., None]
    terms = np.sum(np.abs(p) * ax ** np.arange(len(p)), axis=-1)
    return terms / np.maximum(_cabs(value), 1e-300)


def curve_polynomial(inv: Invariants) -> np.ndarray:
    """F(X) = 4X^3 - g2 X - g3."""
    return np.array([-inv.g3, -inv.g2, 0.0, 4.0], dtype=complex)


# ---------------------------------------------------------------------------
# Rational maps in X
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMap:
    """num(X) / den(X), both trimmed of zero top coefficients."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num", _trim(self.num))
        object.__setattr__(self, "den", _trim(self.den))

    def __call__(self, x):
        return _peval(self.num, x) / _peval(self.den, x)

    def condition(self, x):
        """Horner cancellation factor at x: term magnitude over value magnitude,
        at least 1; x may be a number or an array.

        Division-polynomial coefficients grow like powers of the invariants,
        so both parts of the map can lose up to log10(condition) digits when
        evaluated in binary64.  Callers that need guaranteed accuracy should
        reject points where condition * 1e-16 exceeds their tolerance.  A NaN
        factor is ignored, as max ignores it.
        """
        num, den = (_condition(p, x, _peval(p, x)) for p in (self.num, self.den))
        worst = np.fmax(np.fmax(1.0, num), den)
        return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# Pointwise identities
# ---------------------------------------------------------------------------


def addition_formula(pz, pw, ppz, ppw):
    """wp(z+w) from the values (wp(z), wp(w), wp'(z), wp'(w)):

        wp(z+w) = ((wp'(z) - wp'(w)) / (wp(z) - wp(w)))^2 / 4 - wp(z) - wp(w).

    The arguments may be numbers or arrays of one shape; DegenerateAddition
    is raised if any entry is degenerate.
    """
    denom = pz - pw
    # grouping keeps the result bit-for-bit symmetric under (z, w) swap
    if np.any(_cabs(denom) < ADDITION_TOL * (1.0 + (_cabs(pz) + _cabs(pw)))):
        raise DegenerateAddition("wp(z) - wp(w) vanishes: z = +-w modulo the lattice")
    return 0.25 * ((ppz - ppw) / denom) ** 2 - (pz + pw)


def duplication(pz, ppz, ppz2):
    """wp(2z) = (wp''(z) / wp'(z))^2 / 4 - 2 wp(z), for numbers or arrays of
    one shape; HalfPeriodSingularity is raised if any wp'(z) vanishes."""
    if np.any(_cabs(ppz) < WP_PRIME_FLOOR):
        raise HalfPeriodSingularity("wp'(z) vanishes: z is a half-period")
    return 0.25 * (ppz2 / ppz) ** 2 - 2.0 * pz


def _curve_residual(u: complex, v: complex, inv: Invariants) -> float:
    """|v^2 - (4 u^3 - g2 u - g3)| / (1 + |u|^3): how far (u, v) is off the curve."""
    return abs(v * v - (4.0 * u**3 - inv.g2 * u - inv.g3)) / (1.0 + abs(u) ** 3)


def diffeq_residual(z: complex, lat: Lattice) -> float:
    """|wp'^2 - (4 wp^3 - g2 wp - g3)| / (1 + |wp|^3) at z."""
    inv = invariants_qseries(ensure_reduced(lat))
    p, dp, _ = _wp_triple(z, lat)
    return _curve_residual(p.value, dp.value, inv)


# ---------------------------------------------------------------------------
# Division polynomials and multiplication maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisionPolynomialSet:
    """psi_1..psi_N for the curve Y^2 = F(X), with 2-isogeny bookkeeping.

    psi_n = polys[n] * (2y)^(1 if n even else 0) where y = Y/2 satisfies
    y^2 = f(x) = x^3 + A x + B with A = -g2/4, B = -g3/4.  Stored are the
    x-polynomials; has_y[n] records the parity factor.
    """

    invariants: Invariants
    polys: tuple[np.ndarray, ...]
    has_y: tuple[bool, ...]

    def scalar(self, n: int, x: complex, y: complex) -> complex:
        """Numeric psi_n(x, y) with y = wp'/2."""
        val = _peval(self.polys[n], x)
        return val * 2.0 * y if self.has_y[n] else val


def division_polynomials(inv: Invariants, n_max: int) -> DivisionPolynomialSet:
    """Division polynomials via the doubling recurrences.

    Base cases (short form, A = -g2/4, B = -g3/4):
        P1 = 1,  P2 = 1 (psi_2 = 2y),
        P3 = 3x^4 + 6Ax^2 + 12Bx - A^2,
        P4 = 2(x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3),
    then with f = x^3 + Ax + B,
        P(2m)   = P(m) (P(m+2) P(m-1)^2 - P(m-2) P(m+1)^2),
        P(2m+1) = 16 f^2 P(m+2) P(m)^3 - P(m-1) P(m+1)^3    (m even),
        P(2m+1) = P(m+2) P(m)^3 - 16 f^2 P(m-1) P(m+1)^3    (m odd).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    a = -inv.g2 / 4.0
    b = -inv.g3 / 4.0
    f = np.array([b, a, 0.0, 1.0], dtype=complex)
    f2_16 = 16.0 * _pmul(f, f)
    polys: list[np.ndarray] = [
        np.zeros(1, dtype=complex),
        np.ones(1, dtype=complex),
        np.ones(1, dtype=complex),
        np.array([-a * a, 12.0 * b, 6.0 * a, 0.0, 3.0], dtype=complex),
        2.0 * np.array(
            [-8.0 * b * b - a**3, -4.0 * a * b, -5.0 * a * a, 20.0 * b, 5.0 * a, 0.0, 1.0],
            dtype=complex,
        ),
    ]
    for n in range(5, n_max + 1):
        if n % 2 == 1:
            m = (n - 1) // 2
            t1 = _pmul(polys[m + 2], _pmul(polys[m], _pmul(polys[m], polys[m])))
            t2 = _pmul(polys[m - 1], _pmul(polys[m + 1], _pmul(polys[m + 1], polys[m + 1])))
            if m % 2 == 0:
                p = _padd(_pmul(f2_16, t1), -t2)
            else:
                p = _padd(t1, -_pmul(f2_16, t2))
        else:
            m = n // 2
            d = _padd(
                _pmul(polys[m + 2], _pmul(polys[m - 1], polys[m - 1])),
                -_pmul(polys[m - 2], _pmul(polys[m + 1], polys[m + 1])),
            )
            p = _pmul(polys[m], d)
        polys.append(_trim(p))
    has_y = tuple(n >= 2 and n % 2 == 0 for n in range(n_max + 1))
    return DivisionPolynomialSet(inv, tuple(_trim(p) for p in polys[: n_max + 1]), has_y)


def multiplication_by_n(n: int, inv: Invariants) -> RationalMap:
    """The rational map with wp(nz) = map(wp(z)); X-only after curve reduction.

    wp(nz) = X - psi_(n-1) psi_(n+1) / psi_n^2.  The parity factors pair up so
    both numerator and denominator are X-polynomials; the numerator has degree
    exactly n^2.
    """
    if not 2 <= n <= MAX_MULTIPLIER:
        raise ValueError(f"n must be in [2, {MAX_MULTIPLIER}]")
    dps = division_polynomials(inv, n + 1)
    f4 = 4.0 * np.array([-inv.g3 / 4.0, -inv.g2 / 4.0, 0.0, 1.0], dtype=complex)  # = F(X)
    pn2 = _pmul(dps.polys[n], dps.polys[n])
    cross = _pmul(dps.polys[n - 1], dps.polys[n + 1])
    if n % 2 == 1:
        den = pn2
        num = _padd(np.concatenate(([0j], pn2)), -_pmul(f4, cross))
    else:
        den = _pmul(f4, pn2)
        num = _padd(np.concatenate(([0j], den)), -cross)
    return RationalMap(num, den)


def duplication_rational_map(inv: Invariants) -> RationalMap:
    """The doubling identity written as a rational function of X alone:

        wp(2z) = (X^4 + (g2/2) X^2 + 2 g3 X + g2^2/16) / F(X),

    obtained by substituting wp''^2 = (6X^2 - g2/2)^2 and wp'^2 = F(X).
    """
    g2, g3 = inv.g2, inv.g3
    num = np.array([g2 * g2 / 16.0, 2.0 * g3, g2 / 2.0, 0.0, 1.0], dtype=complex)
    return RationalMap(num, curve_polynomial(inv))


def division_values(n: int, target: complex, inv: Invariants) -> np.ndarray:
    """All n^2 candidate values of wp(z/n) given target = wp(z).

    Roots of num(X) - target * den(X) for the multiplication-by-n map; the
    full fiber is returned and the caller picks the relevant root.  Roots come
    from companion-matrix eigenvalues with two Newton polish passes.
    """
    if not 2 <= n <= 6:
        raise ValueError("n must be in [2, 6]")
    mp = multiplication_by_n(n, inv)
    poly = _padd(mp.num, -target * mp.den)
    poly = _trim(poly)
    if len(poly) != n * n + 1:
        raise RootFindingFailure("fiber polynomial has unexpected degree")
    roots = np.roots(poly[::-1])
    if not np.all(np.isfinite(roots)):
        raise RootFindingFailure("non-finite roots from the companion matrix")
    deriv = poly[1:] * np.arange(1, len(poly))
    for _ in range(2):
        pv = np.array([_peval(poly, r) for r in roots])
        dv = np.array([_peval(deriv, r) for r in roots])
        safe = np.abs(dv) > 1e-14
        roots = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)
    if not np.all(np.isfinite(roots)):
        raise RootFindingFailure("Newton polish diverged")
    return roots
