"""Rational maps attached to a complex-multiplication lattice, and evaluation
of wp on a disc from real-interval data only.

When alpha maps the lattice into itself, z -> wp(alpha z) is an elliptic
function for the same lattice, hence a rational function of (wp, wp').  Since
wp(alpha z) is even it is rational in wp alone; wp'(alpha z) is odd, so it is
wp' times another rational function of wp.  Both are recovered numerically by
a homogeneous least-squares fit on sampled values and validated on held-out
points.  The composed addition law then evaluates wp(x + alpha y) for real x,
y using nothing but interval evaluations and the fitted maps.

Sampling exercises the lattice action: every base point is accompanied by its
two period translates.  Translates leave wp(z) unchanged, so when alpha is
not a genuine multiplier the target values clash on equal inputs and no
rational function can fit them; this is the ellipticity criterion itself and
is what makes the negative branch of the dichotomy fail loudly instead of
being masked by local rational approximation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAddition, FitFailure, PoleError, SingularSample
from .identities import DEGREE_CAP, RationalMap, _condition, _padd, _peval
from .lattice import CMWitness, Lattice, ensure_reduced, invariants_qseries, shortest_vector
from .wp import pole_distance_many, wp_many

GOLDEN_ANGLE = 2.399963229728653
SAMPLE_RADII = (0.18, 0.26)  # base-point circles, in shortest-vector units
HALF_PERIOD_MARGIN = 0.08    # distance of 2z to poles, keeps wp'(z) away from 0
IMAGE_POLE_MARGIN = 0.05     # distance of alpha*z to poles
PRUNE_REL = 1e-10
DENOM_GUARD = 1e-10


@dataclass(frozen=True)
class CMRationalPair:
    """Maps with wp(alpha z) = wp_map(wp(z)) and wp'(alpha z) = wp'(z) * wp_prime_factor(wp(z))."""

    alpha: complex
    wp_map: RationalMap
    wp_prime_factor: RationalMap
    norm: int

    def to_text(self) -> str:
        payload = {
            "alpha": [self.alpha.real, self.alpha.imag],
            "norm": self.norm,
            "wp_map": self.wp_map.to_text(),
            "wp_prime_factor": self.wp_prime_factor.to_text(),
        }
        return json.dumps(payload, sort_keys=True)


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
        guard = 1e-9 * abs(lat.omega1)
        ts = np.linspace(a, b, 33)
        near = pole_distance_many(ts, lat) <= guard
        near_image = pole_distance_many(self.pair.alpha * ts, lat) <= guard
        for t, hit, hit_image in zip(ts, near, near_image):
            if hit:
                raise ValueError(f"interval point {t} hits a pole")
            if hit_image:
                raise ValueError(f"alpha * {t} hits a pole")


@dataclass(frozen=True)
class DiscReport:
    max_abs_error: float
    points_checked: int
    failures: tuple = field(default_factory=tuple)
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_abs_error", float(self.max_abs_error))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _sample_set(lat: Lattice, alpha: complex, base_count: int, offset: float) -> list[complex]:
    """base_count points on two small circles around the origin, each with its
    two period translates appended.

    Circles do two jobs at once.  wp(z) is approximately z^-2 there, so the
    sampled wp values trace near-circles in the plane, which keeps the power
    basis of the rational fit well conditioned even at high degree (scattered
    cell-wide samples cluster after rescaling and make degree >= 10 fits
    numerically rank-deficient).  The translates leave wp unchanged but shift
    alpha*z by alpha*omega, so for a non-multiplier the fit targets clash on
    equal inputs: the ellipticity criterion itself, and the reason the
    negative branch of the dichotomy fails loudly instead of being masked by
    local rational approximation.  Rejected are points whose double or
    alpha-image lands near a pole (wp' zeros and pole blowups).  Candidates
    j = 0, 1, ... are screened a block at a time and accepted in order.
    """
    lam = shortest_vector(lat)
    last = 300 * base_count + 1000  # the last candidate tried before giving up
    pts: list[complex] = []
    start = 0
    while len(pts) < base_count:
        if start > last:
            raise SingularSample("sample rejection loop did not terminate")
        stop = min(start + 2 * (base_count - len(pts)) + 8, last + 1)
        cand = []
        for j in range(start, stop):
            theta = 0.37 + (j + offset) * GOLDEN_ANGLE
            r = SAMPLE_RADII[j % 2] * lam
            cand.append(complex(r * math.cos(theta), r * math.sin(theta)))
        start = stop
        # products in Python arithmetic, which numpy's vectorised complex
        # multiply does not match bit for bit: the screen then accepts
        # exactly the points that pole_distance would
        doubled = pole_distance_many([2.0 * z for z in cand], lat)
        image = pole_distance_many([alpha * z for z in cand], lat)
        accept = (doubled >= HALF_PERIOD_MARGIN * lam) & (image >= IMAGE_POLE_MARGIN * lam)
        pts.extend(z for z, ok in zip(cand, accept) if ok)
    del pts[base_count:]
    out: list[complex] = []
    for z in pts:
        out.extend((z, z + lat.omega1, z + lat.omega2))
    return out


def _fit_x_rational(xs, ws, num_deg: int, den_deg: int):
    """Solve P(x_j) - w_j Q(x_j) = 0 in total least squares.

    The x-values are recentered and rescaled before building the power basis
    (monomials on a far-from-origin cluster are numerically degenerate), the
    columns are scaled to unit max modulus, and the smallest right singular
    vector gives the coefficients, mapped back to plain monomials at the end.
    """
    xs = np.asarray(xs)
    ws = np.asarray(ws)
    center = np.mean(xs)
    half = max(np.max(np.abs(xs - center)), 1e-30)
    xi = (xs - center) / half
    powers = xi[:, None] ** np.arange(max(num_deg, den_deg) + 1)
    m = np.hstack([powers[:, : num_deg + 1], -ws[:, None] * powers[:, : den_deg + 1]])
    scale = np.max(np.abs(m), axis=0)
    scale[scale == 0] = 1.0
    _, _, vh = np.linalg.svd(m / scale, full_matrices=False)
    coeff = vh[-1].conj() / scale

    def to_monomial(cx: np.ndarray) -> np.ndarray:
        lin = np.array([-center / half, 1.0 / half], dtype=complex)
        out = np.array([cx[-1]], dtype=complex)
        for k in range(len(cx) - 2, -1, -1):
            out = np.convolve(out, lin)
            out[0] += cx[k]
        return out

    return to_monomial(coeff[: num_deg + 1]), to_monomial(coeff[num_deg + 1 :])


def _prune_trailing(p: np.ndarray, x_scale: float) -> np.ndarray:
    """Drop top-degree coefficients whose terms are noise on the sampled range.

    Degree decisions must weigh |c_d| * x_scale^d, not raw coefficients: in
    high-degree maps the essential leading coefficient can sit ten orders
    below the largest interior one and still dominate the value where the map
    is used.  Only the trailing end is touched.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    terms = np.abs(p) * x_scale ** np.arange(len(p))
    top = float(np.max(terms))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    i = len(p) - 1
    while i > 0 and terms[i] < PRUNE_REL * top:
        i -= 1
    return p[: i + 1]


def _prune_and_normalize(num: np.ndarray, den: np.ndarray, x_scale: float):
    num = _prune_trailing(num, x_scale)
    den = _prune_trailing(den, x_scale)
    if not np.any(den):
        return None
    lead = den[-1]
    return num / lead, den / lead


def _rational_residual(num, den, xs, ws, cond_cap: float = 1e7) -> float:
    """Worst relative deviation of num/den from the targets on (xs, ws).

    Fitted maps of norm >= 9 carry coefficients so large that their expanded
    form loses more digits to Horner cancellation near its roots than any fit
    tolerance, so points beyond cond_cap are not counted as evidence either
    way.  A genuine non-multiplier still fails: its period-translate clash is
    order one at every point, conditioned or not.  If too few points remain
    evaluable, or a kept point deviates by NaN (a map or target that is not
    finite), the fit is rejected outright.
    """
    xs = np.asarray(xs, dtype=complex)
    ws = np.asarray(ws, dtype=complex)
    nv, dv = _peval(num, xs), _peval(den, xs)
    cond = np.maximum(_condition(num, xs, nv), _condition(den, xs, dv))
    kept = ~(np.abs(dv) < DENOM_GUARD) & ~(cond > cond_cap)
    if np.count_nonzero(kept) < max(4, len(xs) // 6):
        return math.inf
    w = ws[kept]
    dev = np.abs(nv[kept] / dv[kept] - w) / (1.0 + np.abs(w))
    if np.isnan(dev).any():
        return math.inf
    return float(np.max(dev))


def _derivative_factor(num: np.ndarray, den: np.ndarray, alpha: complex):
    """(p/q)' / alpha as a numerator/denominator pair: ((p'q - pq')/alpha, q^2)."""
    dp = num[1:] * np.arange(1, len(num)) if len(num) > 1 else np.zeros(1, dtype=complex)
    dq = den[1:] * np.arange(1, len(den)) if len(den) > 1 else np.zeros(1, dtype=complex)
    s_num = _padd(np.convolve(dp, den), -np.convolve(num, dq)) / alpha
    return s_num, np.convolve(den, den)


def _eval_samples(lat: Lattice, alpha: complex, zs):
    """wp and wp' at the samples z and at their images alpha*z."""
    zs = np.asarray(zs)
    here, there = wp_many(zs, lat), wp_many(alpha * zs, lat)
    return here.wp, here.wp1, there.wp, there.wp1


def fit_multiplier_maps(
    lat: Lattice,
    witness: CMWitness,
    samples: int | None = None,
    tol: float = 1e-9,
) -> CMRationalPair:
    """Fit the rational maps carrying (wp, wp') to their values at alpha*z.

    Degree bound: the index of alpha*lattice inside the lattice equals the
    norm N of alpha, which caps the numerator degree of the even map at N and
    its denominator at N - 1; the odd factor needs at most 2N - 2 on both
    sides.  If the bound is too small the held-out validation fails and the
    degrees are retried at 2N and 4N, those not above DEGREE_CAP.  When alpha
    is not a multiplier at all, the translate clash keeps every residual at
    order one and FitFailure carries the best residual seen.  A norm above
    DEGREE_CAP fails at once: the fit's matrices grow like N^2, its time like
    N^3.
    """
    lat = ensure_reduced(lat)
    alpha = witness.alpha
    base_n = witness.norm if witness.norm and witness.norm > 0 else max(
        1, round(abs(alpha) ** 2)
    )
    if base_n > DEGREE_CAP:
        raise FitFailure(f"norm {base_n} of alpha={alpha!r} exceeds the degree cap {DEGREE_CAP}",
                         math.inf)
    if samples is not None and samples < 4 * base_n + 4:
        raise ValueError(f"samples must be >= {4 * base_n + 4}")
    best_residual = math.inf
    for n_deg in (base_n, 2 * base_n, 4 * base_n):
        if n_deg > DEGREE_CAP:
            break
        unknowns = 2 * n_deg + 2
        base_count = max(2 * unknowns, 12, samples or 0)
        z_fit = _sample_set(lat, alpha, base_count, 0.0)
        z_hold = _sample_set(lat, alpha, 2 * base_count, 1000.25)
        xf, vf, wxf, wvf = _eval_samples(lat, alpha, z_fit)
        xh, vh, wxh, wvh = _eval_samples(lat, alpha, z_hold)

        x_scale = float(np.max(np.abs(xf)))
        r_fit = _fit_x_rational(xf, wxf, n_deg, max(n_deg - 1, 0))
        r_norm = _prune_and_normalize(*r_fit, x_scale)
        if r_norm is None:
            continue
        r_res = _rational_residual(*r_norm, xh, wxh)

        s_deg = max(2 * n_deg - 2, 0)
        s_fit = _fit_x_rational(xf, wvf / vf, s_deg, s_deg)
        s_norm = _prune_and_normalize(*s_fit, x_scale)
        s_res = math.inf if s_norm is None else _rational_residual(*s_norm, xh, wvh / vh)
        if s_res >= tol and r_res < tol:
            # The odd factor equals R'(X)/alpha exactly (differentiate
            # wp(alpha z) = R(wp(z))).  The direct fit can be defeated by
            # representational slack: the minimal degrees of the factor depend
            # on the pole multiplicities of R, and any extra degree admits a
            # whole family of common-factor solutions whose spurious pole/zero
            # pairs wreck held-out validation.  The derivative form has no
            # free parameters, so validate it on the same held-out set.
            s_norm = _prune_and_normalize(*_derivative_factor(*r_norm, alpha), x_scale)
            if s_norm is not None:
                s_res = _rational_residual(*s_norm, xh, wvh / vh)

        residual = max(r_res, s_res)
        best_residual = min(best_residual, residual)
        if residual < tol:
            inv = invariants_qseries(lat)
            return CMRationalPair(
                alpha=alpha,
                wp_map=RationalMap.from_x_rational(inv, *r_norm),
                wp_prime_factor=RationalMap.from_x_rational(inv, *s_norm),
                norm=base_n,
            )
    raise FitFailure(
        f"held-out residual {best_residual:.3e} exceeds tol {tol:.1e} for alpha={alpha!r}",
        best_residual,
    )


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


def _disc_grid(de: DiscExtension, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """disc_eval at every node (x, y) of the grid xs x ys.

    Each x and each y is evaluated once, and the fitted maps are applied once
    per y.  Returns (status, value), both of shape (len(xs), len(ys)): status
    is the index in _DISC_GUARDS of the first guard a node fails, 0 where it
    passes them all, and value is NaN wherever status is not 0.
    """
    lat = ensure_reduced(de.lattice)
    alpha = de.pair.alpha
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    shape = (len(xs), len(ys))
    tiny = 1e-12 * abs(lat.omega1)
    x_pole = pole_distance_many(xs, lat) <= tiny
    ay = alpha * ys
    ay_pole = pole_distance_many(ay, lat) <= tiny
    y_pole = pole_distance_many(ys, lat) <= tiny
    diff_pole = pole_distance_many(xs[:, None] - ay, lat) <= 1e-9 * abs(lat.omega1)

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
    status = np.select(guards, list(range(1, len(guards) + 1)))
    ok = status == 0
    u1, v1, u2, v2 = (np.broadcast_to(c, shape)[ok] for c in (u1[:, None], v1[:, None], u2, v2))
    value = np.full(shape, np.nan, dtype=complex)
    value[ok] = 0.25 * ((v1 - v2) / denom[ok]) ** 2 - u1 - u2
    return status, value


def disc_eval(de: DiscExtension, x: float, y: float) -> complex:
    """wp(x + alpha*y) using only real-argument evaluations and the fitted maps:

        wp(x + alpha y) = ((wp'(x) - S) / (wp(x) - R))^2 / 4 - wp(x) - R,

    with R = wp_map(wp(y)) and S = wp'(y) * wp_prime_factor(wp(y)).  This is
    the one-node case of the grid that verify_disc_extension checks.
    """
    a, b = de.interval
    if not (a < x < b and a < y < b):
        raise ValueError("x and y must lie inside the interval")
    status, value = _disc_grid(de, [x], [y])
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
    status, approx = _disc_grid(de, nodes, nodes)
    ok = status == 0
    ix, iy = np.nonzero(ok)
    grid = np.asarray(nodes)
    exact = wp_many(grid[ix] + de.pair.alpha * grid[iy], de.lattice).wp
    err = np.abs(approx[ok] - exact)
    err[np.isnan(err)] = math.inf
    worst = float(np.max(err)) if err.size else 0.0
    failures = tuple((nodes[i], nodes[j], float(e)) for i, j, e in zip(ix, iy, err) if e > tol)
    return DiscReport(worst, int(err.size), failures, int(status.size - err.size))
