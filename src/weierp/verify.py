"""Property suites over the identity layer, runnable headless or via the CLI.

Each suite samples seeded random points, evaluates one identity, and reports
the worst residual against a fixed threshold.  The lattice suites screen and
evaluate their samples a block at a time, with one wp_many call per block.
The suites are deterministic functions of (lattice, seed), which is what
makes byte-identical verification reports possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
from .wp import pole_distance_many, wp_eval, wp_many, wp_prime_eval

FD_STEP = 1e-6


@dataclass(frozen=True)
class SuiteResult:
    """A suite's worst residual over the `checked` samples it evaluated.

    skipped counts the candidates that its screens dropped on the way: a pole
    too close, a degenerate pair, or an error bound or Horner condition over
    the budget.  A suite that checked nothing has not passed.
    """

    name: str
    max_residual: float
    threshold: float
    checked: int
    skipped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "checked", int(self.checked))
        object.__setattr__(self, "skipped", int(self.skipped))

    @property
    def passed(self) -> bool:
        return self.checked > 0 and self.max_residual <= self.threshold


def _first_passing(rng, count, cap, draw, test):
    """The results of the first count candidates that test keeps, among at
    most cap, and the number of candidates looked at.

    draw(m) draws the next m candidates from rng; test maps them to the
    ascending indices of those it keeps and their results.  Blocks are sized
    a quarter over the pass rate seen so far.  The generator is then wound
    back and redrawn to just after the last candidate looked at, so results
    and generator state are those of a loop that draws and tests one at a time.
    """
    start = rng.bit_generator.state
    found = [np.empty(0)]
    kept = tried = 0
    while kept < count and tried < cap:
        need = count - kept
        m = min(cap - tried, 8 + 5 * need * (tried + 1) // (4 * (kept + 1)))
        idx, res = test(draw(m))
        if len(idx) >= need:
            m, res = int(idx[need - 1]) + 1, res[:need]
        found.append(res)
        kept += len(res)
        tried += m
    rng.bit_generator.state = start
    draw(tried)
    return np.concatenate(found), tried


def sample_cell_points(
    lat: Lattice,
    rng: np.random.Generator,
    count: int,
    margin: float = 0.1,
    multiples: tuple[int, ...] = (),
) -> np.ndarray:
    """Random points z of the fundamental cell with z, and k*z for each k in
    multiples, at distance > margin*lambda from the poles: the first count
    candidates u*omega1 + v*omega2, (u, v) uniform, that pass the screen.
    """
    limit = margin * shortest_vector(lat)
    ks = np.array([1, *multiples])[:, None]

    def draw(m):
        uv = rng.uniform(0.0, 1.0, (m, 2))
        return uv[:, 0] * lat.omega1 + uv[:, 1] * lat.omega2

    def screen(z):
        idx = np.flatnonzero(np.all(pole_distance_many(ks * z, lat) > limit, axis=0))
        return idx, z[idx]

    return _first_passing(rng, count, math.inf, draw, screen)[0]


def _result(name: str, residuals: np.ndarray, threshold: float, tried: int) -> SuiteResult:
    """The suite's verdict over its residuals; a NaN residual fails it."""
    worst = np.max(residuals, initial=0.0)
    return SuiteResult(name, worst, threshold, len(residuals), tried - len(residuals))


def suite_differential_identity(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 100
) -> SuiteResult:
    r = wp_many(sample_cell_points(lat, rng, count, margin=0.05), lat)
    return _result("differential_identity", _curve_residual(r.wp, r.wp1, inv), 1e-9, count)


def suite_addition_law(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 60
) -> SuiteResult:
    lam = shortest_vector(lat)

    def test(pairs):
        idx = np.flatnonzero(pole_distance_many(pairs[:, 0] + pairs[:, 1], lat) > 0.05 * lam)
        z, w = pairs[idx].T
        r = wp_many(np.stack([z, w, z + w]), lat)
        gap = np.abs(r.wp[0] - r.wp[1])
        keep = gap > 1e-6 * (1.0 + np.abs(r.wp[0]) + np.abs(r.wp[1]))
        idx, gap = idx[keep], gap[keep]
        u, p, e, d = (a[:, keep] for a in (r.wp, r.wp1, r.wp_err, r.wp1_err))
        slope = np.abs((p[0] - p[1]) / (u[0] - u[1]))
        bound = 0.5 * slope * (d[0] + d[1] + slope * (e[0] + e[1])) / gap + e[0] + e[1]
        ok = ~(bound > 1e-9)  # elsewhere the formula is not evaluable to tolerance
        return idx[ok], np.abs(addition_formula(u[0, ok], u[1, ok], p[0, ok], p[1, ok]) - u[2, ok])

    def draw_pairs(m):
        return sample_cell_points(lat, rng, 2 * m, margin=0.1).reshape(m, 2)

    res, tried = _first_passing(rng, count, 100 * count, draw_pairs, test)
    return _result("addition_law", res, 1e-8, tried)


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

    def test(z):
        r = wp_many(np.stack([z, 2 * z]), lat)
        u, v, eu, ev = r.wp[0], r.wp1[0], r.wp_err[0], r.wp1_err[0]
        w2 = 6.0 * u * u - inv.g2 / 2.0
        dw2 = 12.0 * np.abs(u) * eu + 1e-15 * (6 * np.abs(u) ** 2 + abs(inv.g2) / 2)
        t = np.abs(w2 / v)
        ok = ~(0.5 * t * (dw2 + t * ev) / np.abs(v) + 2.0 * eu > 1e-9)
        return np.flatnonzero(ok), np.abs(duplication(u[ok], v[ok], w2[ok]) - r.wp[1, ok])

    draw = partial(sample_cell_points, lat, rng, margin=0.1, multiples=(2,))
    res, tried = _first_passing(rng, count, 100 * count, draw, test)
    return _result("duplication_law", res, 1e-8, tried)


def suite_second_derivative(
    lat: Lattice, inv: Invariants, rng: np.random.Generator, count: int = 20
) -> SuiteResult:
    # wp'''' ~ 120 wp^3 at pole distance d, so the h^2/12 truncation term of
    # the second difference needs d >= 0.45*lambda to stay under 1e-4 at
    # h = 1e-4; points whose evaluation noise, amplified by the 4/h^2 of the
    # second difference, already eats the budget are resampled
    h = 1e-4

    def test(z):
        r = wp_many(np.stack([z, z + h, z - h]), lat)
        u = r.wp[0]
        ok = ~(4.0 * r.wp_err[0] / (h * h) > 2e-5)
        fd = (r.wp[1] - 2.0 * u + r.wp[2]) / (h * h)
        return np.flatnonzero(ok), np.abs(6.0 * u * u - inv.g2 / 2.0 - fd)[ok]

    draw = partial(sample_cell_points, lat, rng, margin=0.45)
    res, tried = _first_passing(rng, count, 100 * count, draw, test)
    return _result("second_derivative", res, 1e-4, tried)


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
    maps = {n: multiplication_by_n(n, inv) for n in (2, 3, 5)}

    def test(n, z):
        idx = np.flatnonzero(pole_distance_many(n * z, lat) > 0.1 * lam)
        r = wp_many(np.stack([z[idx], n * z[idx]]), lat)
        ok = ~(maps[n].condition(r.wp[0]) > 1e7)
        return idx[ok], np.abs(maps[n](r.wp[0, ok]) - r.wp[1, ok])

    draw = partial(sample_cell_points, lat, rng, margin=0.1)
    runs = [_first_passing(rng, count, 200 * count, draw, partial(test, n)) for n in maps]
    res = np.concatenate([res for res, _ in runs])
    return _result("multiplication_maps", res, 1e-7, sum(tried for _, tried in runs))


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

    y0 = np.concatenate([xs, [g(x) for x in xs]])
    outer = np.zeros((n, 2 * n + 1))
    for i in range(n):
        for col, j in enumerate(range(1, 2 * n + 2)):  # y-index j+1 in 1-based terms
            yp = y0.copy()
            ym = y0.copy()
            yp[j] += FD_STEP
            ym[j] -= FD_STEP
            outer[i, col] = (p_i(i, yp) - p_i(i, ym)) / (2 * FD_STEP)

    def y_moved(j: int, x: float) -> np.ndarray:
        """y0 with x_j moved to x: one new evaluation of g."""
        y = y0.copy()
        y[j], y[n + 1 + j] = x, g(x)
        return y

    system = np.zeros((n, n))
    for col, j in enumerate(range(1, n + 1)):
        yp = y_moved(j, xs[j] + FD_STEP)
        ym = y_moved(j, xs[j] - FD_STEP)
        for i in range(n):
            system[i, col] = (p_i(i, yp) - p_i(i, ym)) / (2 * FD_STEP)

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
