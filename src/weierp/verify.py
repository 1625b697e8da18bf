"""Property suites over the identity layer, runnable headless or via the CLI.

Each suite samples seeded random points, evaluates one identity, and reports
the worst residual against a fixed threshold.  The suites are deterministic
functions of (lattice, seed), which is what makes byte-identical verification
reports possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .identities import _curve_residual, addition_formula, duplication, multiplication_by_n
from .interval_maps import (
    ChainRuleInstance,
    IntervalBijection,
    chain_rule_check,
    from_line,
    from_line_aux,
    from_line_deriv,
    to_line,
    to_line_deriv,
)
from .lattice import (
    Invariants,
    Lattice,
    ensure_reduced,
    invariants_qseries,
    reduce_generators,
    shortest_vector,
)
from .wp import pole_distance, wp_eval, wp_prime_eval

FD_STEP = 1e-6


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    threshold: float
    checked: int

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "checked", int(self.checked))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold


def sample_cell_points(
    lat: Lattice,
    rng: np.random.Generator,
    count: int,
    margin: float = 0.1,
    multiples: tuple[int, ...] = (),
) -> list[complex]:
    """Random points z of the fundamental cell with z, and k*z for each k in
    multiples, at distance > margin*lambda from the poles."""
    lam = shortest_vector(lat)
    out: list[complex] = []
    while len(out) < count:
        u, v = rng.uniform(0.0, 1.0, 2)
        z = u * lat.omega1 + v * lat.omega2
        if pole_distance(z, lat) <= margin * lam:
            continue
        if any(pole_distance(k * z, lat) <= margin * lam for k in multiples):
            continue
        out.append(z)
    return out


def suite_differential_identity(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 100
) -> SuiteResult:
    worst = 0.0
    for z in sample_cell_points(lat, rng, count, margin=0.05):
        res = _curve_residual(wp_eval(z, lat).value, wp_prime_eval(z, lat).value, inv)
        worst = max(worst, res)
    return SuiteResult("differential_identity", worst, 1e-9, count)


def suite_addition_law(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 60
) -> SuiteResult:
    lam = shortest_vector(lat)
    worst = 0.0
    checked = 0
    tried = 0
    while checked < count and tried < 100 * count:
        tried += 1
        z, w = sample_cell_points(lat, rng, 2, margin=0.1)
        if pole_distance(z + w, lat) <= 0.05 * lam:
            continue
        rz = wp_eval(z, lat)
        rw = wp_eval(w, lat)
        uz, uw = rz.value, rw.value
        if abs(uz - uw) <= 1e-6 * (1.0 + abs(uz) + abs(uw)):
            continue
        pz = wp_prime_eval(z, lat)
        pw = wp_prime_eval(w, lat)
        slope = abs((pz.value - pw.value) / (uz - uw))
        bound = (
            0.5
            * slope
            * (pz.err_estimate + pw.err_estimate + slope * (rz.err_estimate + rw.err_estimate))
            / abs(uz - uw)
            + rz.err_estimate
            + rw.err_estimate
        )
        if bound > 1e-9:  # formula not evaluable to tolerance at this pair
            continue
        got = addition_formula(uz, uw, pz.value, pw.value)
        worst = max(worst, abs(got - wp_eval(z + w, lat).value))
        checked += 1
    return SuiteResult("addition_law", worst, 1e-8, checked)


def suite_duplication_law(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 60
) -> SuiteResult:
    """Duplication formula against direct evaluation at 2z.

    The formula squares wp''/wp', so its conditioning degrades without bound
    near arguments where both get small (tall lattices have a half-period
    with wp'' exponentially close to zero).  Points whose first-order error
    bound exceeds a tenth of the threshold are resampled; on the reference
    lattices nothing is skipped.
    """
    lam = shortest_vector(lat)
    worst = 0.0
    checked = 0
    tried = 0
    while checked < count and tried < 100 * count:
        tried += 1
        (z,) = sample_cell_points(lat, rng, 1, margin=0.1, multiples=(2,))
        if pole_distance(2 * z, lat) <= 0.05 * lam:
            continue
        ru = wp_eval(z, lat)
        rv = wp_prime_eval(z, lat)
        u, v = ru.value, rv.value
        w2 = 6.0 * u * u - inv.g2 / 2.0
        dw2 = 12.0 * abs(u) * ru.err_estimate + 1e-15 * (6 * abs(u) ** 2 + abs(inv.g2) / 2)
        t = abs(w2 / v)
        bound = 0.5 * t * (dw2 + t * rv.err_estimate) / abs(v) + 2.0 * ru.err_estimate
        if bound > 1e-9:
            continue
        got = duplication(u, v, w2)
        worst = max(worst, abs(got - wp_eval(2 * z, lat).value))
        checked += 1
    return SuiteResult("duplication_law", worst, 1e-8, checked)


def suite_second_derivative(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 20
) -> SuiteResult:
    # wp'''' ~ 120 wp^3 at pole distance d, so the h^2/12 truncation term of
    # the second difference needs d >= 0.45*lambda to stay under 1e-4 at
    # h = 1e-4; points whose evaluation noise, amplified by the 4/h^2 of the
    # second difference, already eats the budget are resampled
    h = 1e-4
    worst = 0.0
    checked = 0
    tried = 0
    while checked < count and tried < 100 * count:
        tried += 1
        (z,) = sample_cell_points(lat, rng, 1, margin=0.45)
        ru = wp_eval(z, lat)
        if 4.0 * ru.err_estimate / (h * h) > 2e-5:
            continue
        w2 = 6.0 * ru.value * ru.value - inv.g2 / 2.0
        fd = (
            wp_eval(z + h, lat).value - 2.0 * ru.value + wp_eval(z - h, lat).value
        ) / (h * h)
        worst = max(worst, abs(w2 - fd))
        checked += 1
    return SuiteResult("second_derivative", worst, 1e-4, checked)


def suite_multiplication_maps(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 25
) -> SuiteResult:
    """Expanded-coefficient maps against direct evaluation at n*z.

    Points where the degree-n^2 coefficient form cannot be evaluated to the
    target accuracy in binary64 (Horner condition above 1e7) are resampled;
    the identity is exact, but near division-polynomial roots its expanded
    representation loses more digits than the tolerance allows.
    """
    lam = shortest_vector(lat)
    worst = 0.0
    checked = 0
    for n in (2, 3, 5):
        mp = multiplication_by_n(n, inv)
        done = 0
        tried = 0
        while done < count and tried < 200 * count:
            tried += 1
            (z,) = sample_cell_points(lat, rng, 1, margin=0.1)
            if pole_distance(n * z, lat) <= 0.1 * lam:
                continue
            x = wp_eval(z, lat).value
            if mp.condition(x) > 1e7:
                continue
            worst = max(worst, abs(mp(x) - wp_eval(n * z, lat).value))
            done += 1
            checked += 1
    return SuiteResult("multiplication_maps", worst, 1e-7, checked)


# ---------------------------------------------------------------------------
# Interval bijections
# ---------------------------------------------------------------------------

_IBS = (IntervalBijection(0.125, 0.375), IntervalBijection(-1.0, 2.5))
_U_GRID = (0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e6, -1e6, 1e8, -1e8)


def suite_bijection_roundtrip(rng: np.random.Generator) -> SuiteResult:
    """Round trips measured where they are well conditioned.

    from_line . to_line is contracting, so it is checked directly on interval
    points.  For to_line . from_line the forward error at large |u| is
    dominated by the quantization of the interval point itself, so the huge-u
    part is checked in the interval metric (pull back through from_line);
    the direct u-space check covers |u| <= 1e3.
    """
    worst = 0.0
    checked = 0
    for ib in _IBS:
        for u in _U_GRID:
            t = from_line(ib, u)
            worst = max(worst, abs(from_line(ib, to_line(ib, t)) - t) / max(1.0, abs(t)))
            if abs(u) <= 1e3:
                worst = max(worst, abs(to_line(ib, t) - u) / max(1.0, abs(u)))
            checked += 1
        for frac in rng.uniform(0.02, 0.98, 25):
            t = ib.a + (ib.b - ib.a) * frac
            worst = max(worst, abs(from_line(ib, to_line(ib, t)) - t) / max(1.0, abs(t)))
            checked += 1
    return SuiteResult("bijection_roundtrip", worst, 1e-12, checked)


def suite_bijection_derivatives(rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    checked = 0
    for ib in _IBS:
        for frac in rng.uniform(0.05, 0.95, 25):
            t = ib.a + (ib.b - ib.a) * frac
            h = 4e-7 * min(t - ib.a, ib.b - t, 1.0)
            fd = (to_line(ib, t + h) - to_line(ib, t - h)) / (2 * h)
            d = to_line_deriv(ib, t)
            if d <= 0:
                return SuiteResult("bijection_derivatives", math.inf, 1e-8, checked)
            worst = max(worst, abs(fd - d) / d)
            checked += 1
        for u in rng.uniform(-20.0, 20.0, 25):
            # larger step than for the forward map: from_line is so flat at
            # moderate |u| that a tiny step drowns the difference in roundoff
            h = 3e-5 * max(1.0, abs(u))
            fd = (from_line(ib, u + h) - from_line(ib, u - h)) / (2 * h)
            d = from_line_deriv(ib, u)
            if d <= 0:
                return SuiteResult("bijection_derivatives", math.inf, 1e-8, checked)
            worst = max(worst, abs(fd - d) / d)
            checked += 1
    return SuiteResult("bijection_derivatives", worst, 1e-8, checked)


def suite_bijection_identity(rng: np.random.Generator) -> SuiteResult:
    """from_line_deriv(u) = (r^2 - s^2)^2 * from_line_aux(u) and the inverse
    function theorem product from_line_deriv(u) * to_line_deriv(from_line(u)) = 1.

    s must be recovered cancellation-free: at |u| ~ 1e8 the interval point
    sits within one ulp of the endpoint, so s via from_line(u) - m carries
    only quantization noise in r - s.  The stable root of the defining
    quadratic is used for the identity at every scale; the public from_line
    difference is additionally exercised where it is well conditioned.
    """
    from .interval_maps import _offset

    worst = 0.0
    checked = 0
    for ib in _IBS:
        for u in list(_U_GRID) + list(rng.uniform(-50.0, 50.0, 20)):
            s = _offset(ib, u)
            lhs = from_line_deriv(ib, u)
            rhs = ((ib.r - s) * (ib.r + s)) ** 2 * from_line_aux(ib, u)
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
            if abs(u) <= 100.0:
                s_pub = from_line(ib, u) - ib.m
                rhs_pub = ((ib.r - s_pub) * (ib.r + s_pub)) ** 2 * from_line_aux(ib, u)
                worst = max(worst, abs(lhs - rhs_pub) / max(lhs, 1e-300))
                prod = from_line_deriv(ib, u) * to_line_deriv(ib, from_line(ib, u))
                worst = max(worst, abs(prod - 1.0))
            checked += 1
    return SuiteResult("bijection_identity", worst, 1e-12, checked)


# ---------------------------------------------------------------------------
# Chain rule instances from finite differences
# ---------------------------------------------------------------------------


def fd_chain_instance(
    n: int, rng: np.random.Generator, lat: Lattice | None = None
) -> tuple[ChainRuleInstance, np.ndarray]:
    """Build a concrete n-equation instance with both partial matrices by
    central finite differences.

    The inner map is g(x) = wp(from_line(x)) on a pole-free interval of a real
    lattice (real-valued there), composed with random outer quadratics
    P_i(y_1..y_{2n+2}).  Returns (instance, system_partials) where
    system_partials is the finite-difference matrix dF_i/dx_j, j = 2..n+1.
    """
    if lat is None:
        lat = reduce_generators(1.0, 1j)
    ib = IntervalBijection(0.125, 0.375)

    def g(x: float) -> float:
        return wp_eval(complex(from_line(ib, x)), lat).value.real

    xs = rng.uniform(-1.2, 1.2, n + 1)
    lin = rng.normal(0.0, 1.0, (n, 2 * n + 2))
    quad = rng.normal(0.0, 0.2, (n, 2 * n + 2, 2 * n + 2))

    def p_i(i: int, y: np.ndarray) -> float:
        return float(lin[i] @ y + y @ quad[i] @ y)

    def y_of(xv: np.ndarray) -> np.ndarray:
        return np.concatenate([xv, [g(x) for x in xv]])

    y0 = y_of(xs)
    outer = np.zeros((n, 2 * n + 1))
    for i in range(n):
        for col, j in enumerate(range(1, 2 * n + 2)):  # y-index j+1 in 1-based terms
            yp = y0.copy()
            ym = y0.copy()
            yp[j] += FD_STEP
            ym[j] -= FD_STEP
            outer[i, col] = (p_i(i, yp) - p_i(i, ym)) / (2 * FD_STEP)

    system = np.zeros((n, n))
    for i in range(n):
        for col, j in enumerate(range(1, n + 1)):
            xp = xs.copy()
            xm = xs.copy()
            xp[j] += FD_STEP
            xm[j] -= FD_STEP
            system[i, col] = (p_i(i, y_of(xp)) - p_i(i, y_of(xm))) / (2 * FD_STEP)

    inner = np.array(
        [
            from_line_deriv(ib, x) * wp_prime_eval(complex(from_line(ib, x)), lat).value.real
            for x in xs[1:]
        ]
    )
    return ChainRuleInstance(n, outer, inner), system


def suite_chain_rule(rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    checked = 0
    for n in (1, 2, 3):
        inst, system = fd_chain_instance(n, rng)
        report = chain_rule_check(inst, system, tol=1e-9)
        if not report.implication_holds or report.outer_rank != n:
            return SuiteResult("chain_rule", math.inf, 1e-6, checked)
        worst = max(worst, report.residual)
        checked += 1
    return SuiteResult("chain_rule", worst, 1e-6, checked)


# ---------------------------------------------------------------------------
# Top-level runner
# ---------------------------------------------------------------------------


def run_all_suites(lat: Lattice, seed: int = 0, inject_error: bool = False) -> list[SuiteResult]:
    """All suites on one lattice; inject_error corrupts g2 as a negative control."""
    lat = ensure_reduced(lat)
    inv = invariants_qseries(lat)
    if inject_error:
        inv = Invariants(inv.g2 * (1.0 + 1e-3), inv.g3)
    rng = np.random.default_rng(seed)
    return [
        suite_differential_identity(lat, inv, rng),
        suite_addition_law(lat, inv, rng),
        suite_duplication_law(lat, inv, rng),
        suite_second_derivative(lat, inv, rng),
        suite_multiplication_maps(lat, inv, rng),
        suite_bijection_roundtrip(rng),
        suite_bijection_derivatives(rng),
        suite_bijection_identity(rng),
        suite_chain_rule(rng),
    ]
