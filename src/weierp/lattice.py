"""Complex lattices: basis reduction, real-form classification, invariants, and
complex-multiplication detection.

A lattice is stored as an ordered generator pair (omega1, omega2) with
positively oriented ratio tau = omega2/omega1 (Im tau > 0).  All numerics are
plain binary64; every comparison against zero goes through an explicit
tolerance.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateLattice

MAX_REDUCTION_STEPS = 10_000
DEGENERACY_TOL = 1e-12
REDUCTION_SLACK = 1e-15


@dataclass(frozen=True)
class Lattice:
    """Generator pair with Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        for w in (self.omega1, self.omega2):
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise DegenerateLattice("non-finite generator")
            if w == 0:
                raise DegenerateLattice("zero generator")
        ratio = self.omega2 / self.omega1
        if abs(ratio.imag) <= DEGENERACY_TOL:
            raise DegenerateLattice(
                f"generators nearly dependent over R (Im ratio = {ratio.imag!r})"
            )
        if ratio.imag < 0:
            raise DegenerateLattice("negatively oriented basis; swap the generators")

    @property
    def tau(self) -> complex:
        return self.omega2 / self.omega1

    def coords(self, z: complex) -> tuple[float, float]:
        """Real coordinates (x, y) with z = x*omega1 + y*omega2."""
        w1, w2 = self.omega1, self.omega2
        det = w1.real * w2.imag - w1.imag * w2.real
        x = (z.real * w2.imag - z.imag * w2.real) / det
        y = (w1.real * z.imag - w1.imag * z.real) / det
        return x, y

    def point(self, m: int, n: int) -> complex:
        return m * self.omega1 + n * self.omega2

    def covolume(self) -> float:
        """Area of the fundamental parallelogram."""
        return abs((self.omega1.conjugate() * self.omega2).imag)


class LatticeClass(Enum):
    RECTANGULAR = "rectangular"
    RHOMBIC = "rhombic"
    NON_REAL = "non-real"


@dataclass(frozen=True)
class Invariants:
    """Coefficients g2, g3 of the cubic (wp')^2 = 4 wp^3 - g2 wp - g3."""

    g2: complex
    g3: complex

    @property
    def discriminant(self) -> complex:
        return self.g2**3 - 27 * self.g3**2


@dataclass(frozen=True)
class CMWitness:
    """Non-integer multiplier alpha with alpha * lattice inside the lattice.

    min_poly is the primitive integer triple (a, b, c) with a*tau^2 + b*tau + c = 0
    and alpha = a*tau; it is None for trial multipliers built by hand.
    """

    alpha: complex
    min_poly: tuple[int, int, int] | None
    norm: int


def reduce_generators(omega1: complex, omega2: complex) -> Lattice:
    """Return the same lattice with tau in the fundamental domain.

    Gauss-style loop: translate tau by integers, invert when |tau| < 1.  The
    loop tracks the integer matrix (a, b; c, d) of the current basis
    (a*omega1 + b*omega2, c*omega1 + d*omega2) and recomputes that basis
    exactly from the inputs at each step, rounded once, so the result is the
    correctly rounded reduced basis of the input lattice however many steps
    it took.  It satisfies |Re tau| <= 1/2 and |tau| >= 1 up to
    REDUCTION_SLACK, and both inputs have integer coordinates in it.
    """
    w1, w2 = complex(omega1), complex(omega2)
    if w1 == 0 or w2 == 0:
        raise DegenerateLattice("zero generator")
    ratio = w2 / w1
    if abs(ratio.imag) <= DEGENERACY_TOL * (1 + abs(ratio.real)):
        raise DegenerateLattice("generators nearly dependent over R")
    # every input part is an exact integer over one power-of-two denominator
    fracs = [x.as_integer_ratio() for x in (w1.real, w1.imag, w2.real, w2.imag)]
    den = max(d for _, d in fracs)
    r1, i1, r2, i2 = (n * (den // d) for n, d in fracs)

    def combine(m: int, n: int) -> complex:
        return complex((m * r1 + n * r2) / den, (m * i1 + n * i2) / den)

    a, b, c, d = (0, 1, 1, 0) if ratio.imag < 0 else (1, 0, 0, 1)
    for _ in range(MAX_REDUCTION_STEPS):
        w1, w2 = combine(a, b), combine(c, d)
        tau = w2 / w1
        # the slack keeps a tau with Re tau = +-1/2 up to rounding from being
        # translated back and forth between the two edges
        if abs(tau.real) > 0.5 + REDUCTION_SLACK:
            shift = round(tau.real)
            c, d = c - shift * a, d - shift * b
        elif abs(tau) < 1 - REDUCTION_SLACK:
            a, b, c, d = c, d, -a, -b
        else:
            return Lattice(w1, w2)
    raise DegenerateLattice("basis reduction did not terminate")


def ensure_reduced(lat: Lattice) -> Lattice:
    """Reduce unless the basis is already in fundamental-domain form."""
    tau = lat.tau
    if abs(tau.real) <= 0.5 + 1e-12 and abs(tau) >= 1 - 1e-12:
        return lat
    return reduce_generators(lat.omega1, lat.omega2)


def shortest_vector(lat: Lattice) -> float:
    """Length of the shortest nonzero lattice vector."""
    lat = ensure_reduced(lat)
    w1, w2 = lat.omega1, lat.omega2
    return min(abs(w1), abs(w2), abs(w1 + w2), abs(w1 - w2))


def _integer_coords(lat: Lattice, z: complex, tol: float) -> tuple[int, int] | None:
    x, y = lat.coords(z)
    m, n = round(x), round(y)
    scale = abs(lat.omega1) + abs(lat.omega2)
    if abs(z - lat.point(m, n)) <= tol * scale:
        return m, n
    return None


def is_closed_under_conjugation(lat: Lattice, tol: float = 1e-9) -> bool:
    """True iff the conjugates of both generators lie in the lattice."""
    return (
        _integer_coords(lat, lat.omega1.conjugate(), tol) is not None
        and _integer_coords(lat, lat.omega2.conjugate(), tol) is not None
    )


def _conjugation_matrix(lat: Lattice, tol: float) -> np.ndarray | None:
    """Integer matrix of complex conjugation in the basis, or None."""
    c1 = _integer_coords(lat, lat.omega1.conjugate(), tol)
    c2 = _integer_coords(lat, lat.omega2.conjugate(), tol)
    if c1 is None or c2 is None:
        return None
    mat = np.array([[c1[0], c2[0]], [c1[1], c2[1]]], dtype=int)
    if not np.array_equal(mat @ mat, np.eye(2, dtype=int)):
        return None
    return mat


def classify_real(lat: Lattice, tol: float = 1e-9) -> LatticeClass:
    """Classify a lattice as rectangular, rhombic, or not closed under conjugation.

    When the lattice is conjugation-closed the conjugation map is an integer
    involution C of determinant -1 in the given basis.  C is congruent to the
    identity mod 2 exactly when some basis change produces one real and one
    purely imaginary generator; otherwise conjugate generators exist.
    """
    mat = _conjugation_matrix(lat, tol)
    if mat is None:
        return LatticeClass.NON_REAL
    if np.array_equal(np.mod(mat, 2), np.eye(2, dtype=int)):
        return LatticeClass.RECTANGULAR
    return LatticeClass.RHOMBIC


# ---------------------------------------------------------------------------
# Lattice point enumeration over a disc
# ---------------------------------------------------------------------------


def _edge_min(w1: complex, w2: complex) -> float:
    """Min of |x*w1 + y*w2| over the boundary of the unit coordinate box.

    Per edge the squared norm is a quadratic in the free coordinate, so the
    minimum is at a vertex or at the clamped stationary point.
    """

    def seg_min(base: complex, step: complex) -> float:
        # |base + t*step| over t in [-1, 1]
        denom = abs(step) ** 2
        t = 0.0 if denom == 0 else -(base.real * step.real + base.imag * step.imag) / denom
        t = max(-1.0, min(1.0, t))
        return min(abs(base + t * step), abs(base - step), abs(base + step))

    return min(seg_min(w1, w2), seg_min(-w1, w2), seg_min(w2, w1), seg_min(-w2, w1))


def disc_points(lat: Lattice, radius: int) -> np.ndarray:
    """Nonzero lattice points with |omega| <= radius * shortest_vector(lat).

    A disc (rather than a coordinate box) keeps the truncation set invariant
    under every rotational symmetry of the lattice, so symmetry-forced
    cancellations in lattice sums survive truncation exactly.  The cutoff gets
    a 1e-9 relative slack so that a full rotation orbit sitting exactly on the
    boundary is included atomically despite floating-point jitter.  The last
    few discs are cached, so the returned array must not be modified.
    """
    # a plain function, so that profilers that wrap module functions see it
    return _disc_points(lat, radius)


@functools.lru_cache(maxsize=4)
def _disc_points(lat: Lattice, radius: int) -> np.ndarray:
    w1, w2 = lat.omega1, lat.omega2
    cut_r = radius * shortest_vector(lat)
    box = int(math.ceil(cut_r / _edge_min(w1, w2))) + 2
    side = np.arange(-box, box + 1)
    m, n = np.meshgrid(side, side, indexing="ij")
    pts = (m * w1 + n * w2).ravel()
    norm2 = pts.real**2 + pts.imag**2
    mask = (norm2 > 1e-24 * abs(w1) ** 2) & (norm2 <= cut_r**2 * (1 + 1e-9))
    return pts[mask]


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def eisenstein_invariants(lat: Lattice, radius: int) -> tuple[Invariants, float]:
    """Invariants by truncated lattice sums: g2 = 60 * sum 1/w^4, g3 = 140 * sum 1/w^6.

    Returns (Invariants, tail_estimate).  The estimate bounds the truncation
    error of g2 (the slower sum): counting shells of at most 8k points at
    distance >= k * shortest_vector gives tail <= 240 * s^-4 / radius^2,
    padded by a safety factor for the boundary shell.
    """
    if radius < 10:
        raise ValueError("radius must be >= 10")
    pts = disc_points(lat, radius)
    g2 = 60.0 * np.sum(pts**-4.0)
    g3 = 140.0 * np.sum(pts**-6.0)
    s = shortest_vector(lat)
    tail = 4.0 * 240.0 / (s**4 * radius**2)
    return Invariants(complex(g2), complex(g3)), tail


def _divisor_power_sums(nmax: int) -> dict[int, list[int]]:
    sums: dict[int, list[int]] = {k: [0] * (nmax + 1) for k in (3, 5)}
    for d in range(1, nmax + 1):
        for mult in range(d, nmax + 1, d):
            for k in (3, 5):
                sums[k][mult] += d**k
    return sums


_SIGMA = _divisor_power_sums(24)


def invariants_qseries(lat: Lattice) -> Invariants:
    """Invariants from the exponentially convergent q-expansions.

    With q = exp(2*pi*i*tau) for a reduced basis, |q| <= exp(-pi*sqrt(3)), so
    two dozen terms of E4 = 1 + 240 sum sigma3(n) q^n and
    E6 = 1 - 504 sum sigma5(n) q^n reach full double precision.  Used where
    truncated lattice sums cannot reach the required accuracy.
    """
    lat = ensure_reduced(lat)
    tau = lat.tau
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, 25):
        qn *= q
        e4 += 240.0 * _SIGMA[3][n] * qn
        e6 -= 504.0 * _SIGMA[5][n] * qn
    w1 = lat.omega1
    g2 = (4.0 * math.pi**4 / 3.0) * e4 / w1**4
    g3 = (8.0 * math.pi**6 / 27.0) * e6 / w1**6
    return Invariants(g2, g3)


# ---------------------------------------------------------------------------
# Complex multiplication
# ---------------------------------------------------------------------------


def detect_cm(lat: Lattice, coeff_bound: int = 50, tol: float = 1e-9) -> CMWitness | None:
    """Integer a*tau^2 + b*tau + c = 0 with the least leading a <= coeff_bound.

    For a reduced tau, b = -2a Re tau and c = a |tau|^2, so each a fixes b and
    c by rounding.  The residual test is relative (against |a||tau|^2 +
    |b||tau| + |c|), so scale-free, and the first hit is primitive: a common
    factor g would have matched at a/g.  alpha = a*tau then multiplies the
    lattice into itself: alpha*omega1 = a*omega2, alpha*omega2 = -c*omega1 -
    b*omega2.  None rules out CM only for leading coefficients within the bound.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be positive")
    lat = ensure_reduced(lat)
    tau = lat.tau
    tau2 = tau * tau
    for a in range(1, coeff_bound + 1):
        b = round(-2 * a * tau.real)
        c = round(a * abs(tau) ** 2)
        scale = a * abs(tau2) + abs(b) * abs(tau) + abs(c)
        if abs(a * tau2 + b * tau + c) < tol * scale:
            alpha = a * tau
            if _verify_containment(lat, alpha, tol):
                return CMWitness(alpha=alpha, min_poly=(a, b, c), norm=a * c)
    return None


def _verify_containment(lat: Lattice, alpha: complex, tol: float) -> bool:
    return (
        _integer_coords(lat, alpha * lat.omega1, tol) is not None
        and _integer_coords(lat, alpha * lat.omega2, tol) is not None
    )
