"""Exact multiplier maps of a complex-multiplication lattice, and evaluation
of wp on a disc from real-interval data only.

When alpha maps the lattice L into itself, z -> wp(alpha z) is an elliptic
function for L, even, hence a rational function R of wp(z); wp'(alpha z) is
odd, so it is wp'(z) times S(wp(z)) with S = R'/alpha.  The kernel
K = alpha^-1 L / L of z -> alpha z has N = |alpha|^2 points, and Velu's
formula (J. Velu, "Isogenies entre courbes elliptiques", C. R. Acad. Sci.
Paris 273, 1971) gives R exactly:

    wp(alpha z) = alpha^-2 [wp(z) + sum over Q in K, Q != 0, of (wp(z + Q) - wp(Q))].

The addition law writes each term in x = wp(z) and the pole x_Q = wp(Q), so
the maps are stored as pole sums over (alpha, x_Q, g2, g3): nothing is
fitted.  K comes from the integer matrix of alpha on the basis, its N
points from one gcd, and every x_Q from one batched evaluation.  The built
maps are validated against wp(alpha z) on held-out points.  A trial alpha
that does not carry L into itself has no integer matrix, and fails loudly
with its containment defect.  The composed addition law then evaluates
wp(x + alpha y) for real x, y using nothing but interval evaluations and
the maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAddition, FitFailure, PoleError, SingularSample
from .lattice import (
    CMWitness,
    Lattice,
    _image_matrix,
    ensure_reduced,
    invariants_qseries,
    shortest_vector,
)
from .wp import pole_distance_many, wp_many

# Largest kernel size N built: a map applied to n points holds a few
# n x (N - 1) complex arrays, 64 KB per point and array at the bound.
MAX_NORM = 4096
CONTAINMENT_TOL = 1e-9   # detect_cm's tolerance on the integer matrix of alpha
VALIDATION_TOL = 1e-9
VALIDATION_POINTS = 32
GOLDEN_ANGLE = 2.399963229728653
SAMPLE_RADII = (0.18, 0.26)  # validation circles, in shortest-vector units
IMAGE_POLE_MARGIN = 0.05     # distance of alpha*z to poles


@dataclass(frozen=True)
class PoleSumMap:
    """x = wp(z) -> wp(alpha z), or wp'(alpha z) / wp'(z) when odd.

    With the poles x_Q = wp(Q) for Q != 0 in the kernel K of alpha,

        R(x) = alpha^-2 [x + sum (a_Q x + b_Q) / (x - x_Q)^2],
        S(x) = R'(x) / alpha = alpha^-3 [1 - sum (a_Q x + c_Q) / (x - x_Q)^3],

    where a_Q = 3 x_Q^2 - g2/4, b_Q = -x_Q^3 - g2 x_Q/4 - g3/2 and
    c_Q = a_Q x_Q + 2 b_Q.  Each R term is half of wp(z+Q) + wp(z-Q) - 2 wp(Q)
    by the addition law, so a sum over every Q != 0 counts each pair {Q, -Q}
    once and a 2-torsion Q as wp(z+Q) - wp(Q), with no pairing.  x may be a
    number or an array.
    """

    alpha: complex
    poles: np.ndarray
    g2: complex
    g3: complex
    odd: bool = False

    def __call__(self, x):
        x = np.asarray(x, dtype=complex)
        q = self.poles
        a = 3.0 * q * q - 0.25 * self.g2
        d = x[..., None] - q
        if self.odd:
            c = q * q * q - 0.75 * self.g2 * q - self.g3
            terms = (a * x[..., None] + c) / (d * d * d)
            return (1.0 - np.sum(terms, axis=-1)) / self.alpha**3
        b = -q * q * q - 0.25 * self.g2 * q - 0.5 * self.g3
        terms = (a * x[..., None] + b) / (d * d)
        return (x + np.sum(terms, axis=-1)) / self.alpha**2


@dataclass(frozen=True)
class CMRationalPair:
    """Maps with wp(alpha z) = wp_map(wp(z)) and wp'(alpha z) = wp'(z) * wp_prime_factor(wp(z)).

    residual is the held-out validation residual of the pair.
    """

    alpha: complex
    wp_map: PoleSumMap
    wp_prime_factor: PoleSumMap
    norm: int
    residual: float

    def payload(self) -> dict:
        """JSON-ready description: wp_map is scale * (X + pole terms)."""

        def pair(z) -> list[float]:
            return [complex(z).real, complex(z).imag]

        m = self.wp_map
        return {
            "alpha": pair(self.alpha),
            "norm": self.norm,
            "scale": pair(1.0 / self.alpha**2),
            "poles": [pair(q) for q in m.poles],
            "g2": pair(m.g2),
            "g3": pair(m.g3),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class DiscExtension:
    """Interval data sufficient to evaluate wp on the rectangle interval x alpha*interval."""

    lattice: Lattice
    pair: CMRationalPair
    interval: tuple[float, float]

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise ValueError("interval endpoints must satisfy a < b")
        lat = ensure_reduced(self.lattice)
        ts = np.linspace(a, b, 33)
        hits = ts[pole_distance_many(ts, lat) <= 1e-9 * abs(lat.omega1)]
        if hits.size:
            raise ValueError(f"interval point {hits[0]} hits a pole")


@dataclass(frozen=True)
class DiscReport:
    max_abs_error: float
    points_checked: int
    failures: tuple = field(default_factory=tuple)
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_abs_error", float(self.max_abs_error))


# ---------------------------------------------------------------------------
# Multiplier maps
# ---------------------------------------------------------------------------


def _kernel(lat: Lattice, matrix: tuple[int, int, int, int]) -> np.ndarray:
    """The N points of K = alpha^-1 L / L, 0 first, as complex numbers.

    With alpha*omega1 = p omega1 + r omega2 and alpha*omega2 = q omega1 +
    s omega2, K is M^-1 Z^2 / Z^2 for M = (p q; r s), in bijection with
    Z^2 / M Z^2.  Column operations bring M to the Hermite form (g 0; h N/g),
    g = gcd(p, q), whose cosets are represented by (i, j) with 0 <= i < g,
    0 <= j < N/g whatever h is; Q = M^-1 (i, j) then has exact integer
    numerators over N, reduced into [0, N).
    """
    p, q, r, s = matrix
    n = p * s - q * r
    g = math.gcd(p, q)
    i, j = (k.ravel() for k in np.meshgrid(np.arange(g), np.arange(n // g), indexing="ij"))
    u = (s * i - q * j) % n
    v = (p * j - r * i) % n
    return (u * lat.omega1 + v * lat.omega2) / n


def _alpha_matrix(lat: Lattice, alpha: complex) -> tuple[int, int, int, int]:
    """Integer (p, q, r, s) with alpha*omega1 = p omega1 + r omega2 and
    alpha*omega2 = q omega1 + s omega2, or FitFailure carrying the
    containment defect: the largest distance of the coordinates of
    alpha*omega1 and alpha*omega2 from integers.
    """
    images = [alpha * lat.omega1, alpha * lat.omega2]
    matrix = _image_matrix(lat, *images, CONTAINMENT_TOL)
    if matrix is None:
        defect = max(abs(c - round(c)) for w in images for c in lat.coords(w))
        raise FitFailure(f"alpha={alpha!r} does not map the lattice into itself "
                         f"(containment defect {defect:.3e})", defect)
    return matrix


def _sample_set(lat: Lattice, alpha: complex, count: int) -> np.ndarray:
    """count points on two small circles around the origin whose alpha-images
    keep IMAGE_POLE_MARGIN from the lattice, so that wp(z) keeps away from
    the maps' poles, the values of wp on the kernel.  Candidates j = 0, 1,
    ... are screened a block at a time and accepted in order.
    """
    lam = shortest_vector(lat)
    pts: list[complex] = []
    for start in range(0, 300 * count, 2 * count):
        j = np.arange(start, start + 2 * count)
        cand = np.where(j % 2, SAMPLE_RADII[1], SAMPLE_RADII[0]) * lam * np.exp(
            1j * (0.37 + j * GOLDEN_ANGLE))
        pts.extend(cand[pole_distance_many(alpha * cand, lat) >= IMAGE_POLE_MARGIN * lam])
        if len(pts) >= count:
            return np.array(pts[:count])
    raise SingularSample("no sample point keeps its alpha-image away from the lattice")


def _rational_residual(approx, target) -> float:
    """Worst relative deviation |approx - target| / (1 + |target|); NaN counts as inf."""
    dev = np.abs(approx - target) / (1.0 + np.abs(target))
    return math.inf if np.isnan(dev).any() else float(np.max(dev))


def fit_multiplier_maps(lat: Lattice, witness: CMWitness) -> CMRationalPair:
    """The maps carrying (wp(z), wp'(z)) to (wp(alpha z), wp'(alpha z)), from
    the kernel of alpha.

    The kernel size N is the determinant of alpha's integer matrix.  N above
    MAX_NORM raises FitFailure at once, with an infinite residual.  A trial
    alpha that does not carry the lattice into itself raises FitFailure
    carrying its containment defect.  Otherwise the built maps are checked
    against wp(alpha z) and wp'(alpha z) at VALIDATION_POINTS samples, and a
    residual of VALIDATION_TOL or more (NaN as inf) raises FitFailure
    carrying it.
    """
    lat = ensure_reduced(lat)
    alpha = witness.alpha
    matrix = _alpha_matrix(lat, alpha)
    norm = matrix[0] * matrix[3] - matrix[1] * matrix[2]
    if norm > MAX_NORM:
        raise FitFailure(f"norm {norm} of alpha={alpha!r} exceeds {MAX_NORM}", math.inf)
    zs = _sample_set(lat, alpha, VALIDATION_POINTS)
    kernel = _kernel(lat, matrix)[1:]
    values = wp_many(np.concatenate([kernel, zs, alpha * zs]), lat)
    k, m = len(kernel), len(zs)
    x, v = values.wp[k : k + m], values.wp1[k : k + m]
    inv = invariants_qseries(lat)
    poles = values.wp[:k].copy()  # a view would keep every sample value alive
    wp_map = PoleSumMap(alpha, poles, inv.g2, inv.g3)
    factor = PoleSumMap(alpha, poles, inv.g2, inv.g3, odd=True)
    residual = max(_rational_residual(wp_map(x), values.wp[k + m :]),
                   _rational_residual(v * factor(x), values.wp1[k + m :]))
    if not residual < VALIDATION_TOL:
        raise FitFailure(f"held-out residual {residual:.3e} exceeds tol {VALIDATION_TOL:.1e} "
                         f"for alpha={alpha!r}", residual)
    return CMRationalPair(alpha, wp_map, factor, norm, residual)


# ---------------------------------------------------------------------------
# Disc evaluation through the addition law
# ---------------------------------------------------------------------------


# disc_eval's guards in the order it checks them; _disc_grid marks each node
# with the index of the first guard it fails, 0 where the value is computed
_DISC_GUARDS = (
    None,
    (PoleError, "wp pole at x"),
    (PoleError, "wp pole at alpha*y"),
    (DegenerateAddition, "x - alpha*y is a lattice point"),
    (PoleError, "wp pole at y"),
    (DegenerateAddition, "wp(x) coincides with the mapped wp value"),
)


def _disc_grid(de: DiscExtension, xs, ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """disc_eval at every node (x, y) of the grid xs x ys, beside wp(x + alpha*y).

    One pole screen covers x, alpha*y, y, x - alpha*y and x + alpha*y, and one
    wp_many call evaluates each x and each y once together with every
    x + alpha*y off the lattice; the multiplier maps are applied once per y.
    Returns (status, value, exact), each of shape (len(xs), len(ys)): status
    is the index in _DISC_GUARDS of the first guard a node fails, 0 where it
    passes them all, value is NaN wherever status is not 0, and exact is
    wp(x + alpha*y) direct, NaN where x + alpha*y is a pole.
    """
    lat = ensure_reduced(de.lattice)
    alpha = de.pair.alpha
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, m = len(xs), len(ys)
    shape = (n, m)
    tiny = 1e-12 * abs(lat.omega1)
    ay = alpha * ys
    sums = xs[:, None] + ay
    dist = pole_distance_many(np.concatenate([xs, ay, ys, (xs[:, None] - ay).ravel(),
                                              sums.ravel()]), lat)
    near = dist <= tiny
    x_pole, ay_pole, y_pole = near[:n], near[n : n + m], near[n + m : n + 2 * m]
    diff_pole = dist[n + 2 * m : n + 2 * m + n * m].reshape(shape) <= 1e-9 * abs(lat.omega1)
    sum_ok = ~near[n + 2 * m + n * m :].reshape(shape)
    x_ok, y_ok = ~x_pole, ~(ay_pole | y_pole)
    xo, yo = xs[x_ok], ys[y_ok]
    both = wp_many(np.concatenate([xo, yo, sums[sum_ok]]), lat)
    i, j = len(xo), len(xo) + len(yo)

    u1 = np.full(n, np.nan, dtype=complex)
    v1 = u1.copy()
    u1[x_ok], v1[x_ok] = both.wp[:i], both.wp1[:i]
    u2 = np.full(m, np.nan, dtype=complex)
    v2 = u2.copy()
    u2[y_ok] = de.pair.wp_map(both.wp[i:j])
    v2[y_ok] = both.wp1[i:j] * de.pair.wp_prime_factor(both.wp[i:j])
    exact = np.full(shape, np.nan, dtype=complex)
    exact[sum_ok] = both.wp[j:]
    denom = u1[:, None] - u2
    coincide = np.abs(denom) < 1e-10 * (1.0 + np.abs(u1)[:, None] + np.abs(u2))

    guards = [np.broadcast_to(g, shape) for g in (x_pole[:, None], ay_pole, diff_pole, y_pole,
                                                    coincide)]
    status = np.select(guards, list(range(1, len(guards) + 1)))
    ok = status == 0
    u1, v1, u2, v2 = (np.broadcast_to(c, shape)[ok] for c in (u1[:, None], v1[:, None], u2, v2))
    value = np.full(shape, np.nan, dtype=complex)
    value[ok] = 0.25 * ((v1 - v2) / denom[ok]) ** 2 - u1 - u2
    return status, value, exact


def disc_eval(de: DiscExtension, x: float, y: float) -> complex:
    """wp(x + alpha*y) using only real-argument evaluations and the multiplier maps:

        wp(x + alpha y) = ((wp'(x) - S) / (wp(x) - R))^2 / 4 - wp(x) - R,

    with R = wp_map(wp(y)) and S = wp'(y) * wp_prime_factor(wp(y)).  This is
    the one-node case of the grid that verify_disc_extension checks.
    """
    a, b = de.interval
    if not (a < x < b and a < y < b):
        raise ValueError("x and y must lie inside the interval")
    status, value, _ = _disc_grid(de, [x], [y])
    if status[0, 0]:
        error, message = _DISC_GUARDS[status[0, 0]]
        raise error(message)
    return complex(value[0, 0])


def verify_disc_extension(de: DiscExtension, grid_n: int, tol: float) -> DiscReport:
    """Compare disc_eval against direct evaluation on a grid over interval^2.

    Grid nodes sit at midpoint fractions (j + 1/2)/grid_n, so refining the
    grid by an integer factor keeps coarser nodes in place.  Degenerate points
    are skipped and counted; everything else contributes to the max error,
    a non-finite error as an infinite one.
    """
    if grid_n < 4:
        raise ValueError("grid_n must be >= 4")
    a, b = de.interval
    nodes = [a + (b - a) * (j + 0.5) / grid_n for j in range(grid_n)]
    status, approx, exact = _disc_grid(de, nodes, nodes)
    ok = status == 0
    pole = ok & np.isnan(exact)
    if pole.any():
        i, j = (int(k[0]) for k in np.nonzero(pole))
        z = nodes[i] + de.pair.alpha * nodes[j]
        raise PoleError(f"z = {z!r} is within pole tolerance of the lattice")
    ix, iy = np.nonzero(ok)
    err = np.abs(approx[ok] - exact[ok])
    err[np.isnan(err)] = math.inf
    worst = float(np.max(err)) if err.size else 0.0
    bad = np.flatnonzero(err > tol)
    failures = tuple((nodes[ix[k]], nodes[iy[k]], float(err[k])) for k in bad)
    return DiscReport(worst, int(err.size), failures, int(status.size - err.size))
