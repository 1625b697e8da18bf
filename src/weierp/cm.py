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
from .wp import pole_distance, wp_eval, wp_prime_eval

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
        for t in np.linspace(a, b, 33):
            if pole_distance(complex(t), lat) <= guard:
                raise ValueError(f"interval point {t} hits a pole")
            if pole_distance(self.pair.alpha * t, lat) <= guard:
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
    alpha-image lands near a pole (wp' zeros and pole blowups).
    """
    lam = shortest_vector(lat)
    pts: list[complex] = []
    j = 0
    while len(pts) < base_count:
        if j > 300 * base_count + 1000:
            raise SingularSample("sample rejection loop did not terminate")
        theta = 0.37 + (j + offset) * GOLDEN_ANGLE
        r = SAMPLE_RADII[j % 2] * lam
        j += 1
        z = complex(r * math.cos(theta), r * math.sin(theta))
        if pole_distance(2.0 * z, lat) < HALF_PERIOD_MARGIN * lam:
            continue
        if pole_distance(alpha * z, lat) < IMAGE_POLE_MARGIN * lam:
            continue
        pts.append(z)
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
    center = np.mean(xs)
    half = max(np.max(np.abs(xs - center)), 1e-30)
    xi = (xs - center) / half
    rows = []
    for x, w in zip(xi, ws):
        xp = np.array([x**k for k in range(num_deg + 1)], dtype=complex)
        xq = np.array([x**k for k in range(den_deg + 1)], dtype=complex)
        rows.append(np.concatenate([xp, -w * xq]))
    m = np.array(rows)
    scale = np.max(np.abs(m), axis=0)
    scale[scale == 0] = 1.0
    _, _, vh = np.linalg.svd(m / scale)
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
    evaluable the fit is rejected outright.
    """
    worst = 0.0
    kept = 0
    for x, w in zip(xs, ws):
        nv = _peval(num, x)
        dv = _peval(den, x)
        if abs(dv) < DENOM_GUARD:
            continue
        if max(_condition(num, x, nv), _condition(den, x, dv)) > cond_cap:
            continue
        worst = max(worst, abs(nv / dv - w) / (1.0 + abs(w)))
        kept += 1
    if kept < max(4, len(xs) // 6):
        return math.inf
    return worst


def _derivative_factor(num: np.ndarray, den: np.ndarray, alpha: complex):
    """(p/q)' / alpha as a numerator/denominator pair: ((p'q - pq')/alpha, q^2)."""
    dp = num[1:] * np.arange(1, len(num)) if len(num) > 1 else np.zeros(1, dtype=complex)
    dq = den[1:] * np.arange(1, len(den)) if len(den) > 1 else np.zeros(1, dtype=complex)
    s_num = _padd(np.convolve(dp, den), -np.convolve(num, dq)) / alpha
    return s_num, np.convolve(den, den)


def _eval_samples(lat: Lattice, alpha: complex, zs):
    xs = np.array([wp_eval(z, lat).value for z in zs])
    vs = np.array([wp_prime_eval(z, lat).value for z in zs])
    wx = np.array([wp_eval(alpha * z, lat).value for z in zs])
    wv = np.array([wp_prime_eval(alpha * z, lat).value for z in zs])
    return xs, vs, wx, wv


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
    degrees are retried at 2N and 4N.  When alpha is not a multiplier at all,
    the translate clash keeps every residual at order one and FitFailure
    carries the best residual seen.  A norm above DEGREE_CAP fails at once:
    the fit's matrices grow like N^2, its time like N^3.
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


def disc_eval(de: DiscExtension, x: float, y: float) -> complex:
    """wp(x + alpha*y) using only real-argument evaluations and the fitted maps:

        wp(x + alpha y) = ((wp'(x) - S) / (wp(x) - R))^2 / 4 - wp(x) - R,

    with R = wp_map(wp(y)) and S = wp'(y) * wp_prime_factor(wp(y)).
    """
    lat = ensure_reduced(de.lattice)
    alpha = de.pair.alpha
    a, b = de.interval
    if not (a < x < b and a < y < b):
        raise ValueError("x and y must lie inside the interval")
    if pole_distance(complex(x), lat) <= 1e-12 * abs(lat.omega1):
        raise PoleError("wp pole at x")
    if pole_distance(alpha * y, lat) <= 1e-12 * abs(lat.omega1):
        raise PoleError("wp pole at alpha*y")
    if pole_distance(x - alpha * y, lat) <= 1e-9 * abs(lat.omega1):
        raise DegenerateAddition("x - alpha*y is a lattice point")
    u1 = wp_eval(complex(x), lat).value
    v1 = wp_prime_eval(complex(x), lat).value
    xy = wp_eval(complex(y), lat).value
    vy = wp_prime_eval(complex(y), lat).value
    u2 = de.pair.wp_map(xy)
    v2 = vy * de.pair.wp_prime_factor(xy)
    denom = u1 - u2
    if abs(denom) < 1e-10 * (1.0 + abs(u1) + abs(u2)):
        raise DegenerateAddition("wp(x) coincides with the mapped wp value")
    return 0.25 * ((v1 - v2) / denom) ** 2 - u1 - u2


def verify_disc_extension(de: DiscExtension, grid_n: int, tol: float) -> DiscReport:
    """Compare disc_eval against direct evaluation on a grid over interval^2.

    Grid nodes sit at midpoint fractions (j + 1/2)/grid_n, so refining the
    grid by an integer factor keeps coarser nodes in place.  Degenerate points
    are skipped and counted; everything else contributes to the max error.
    """
    if grid_n < 4:
        raise ValueError("grid_n must be >= 4")
    lat = ensure_reduced(de.lattice)
    a, b = de.interval
    alpha = de.pair.alpha
    nodes = [a + (b - a) * (j + 0.5) / grid_n for j in range(grid_n)]
    worst = 0.0
    checked = 0
    skipped = 0
    failures = []
    for x in nodes:
        for y in nodes:
            try:
                approx = disc_eval(de, x, y)
            except (DegenerateAddition, PoleError):
                skipped += 1
                continue
            exact = wp_eval(complex(x) + alpha * y, lat).value
            err = abs(approx - exact)
            if math.isnan(err):  # a NaN would vanish in max() below
                err = math.inf
            checked += 1
            worst = max(worst, err)
            if err > tol:
                failures.append((x, y, err))
    return DiscReport(worst, checked, tuple(failures), skipped)
