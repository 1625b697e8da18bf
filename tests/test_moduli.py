"""wp and wp' across the moduli space against a 40-digit theta reference.

The reference is built in mpmath from the generators exactly as given, not
from weierp's reduced basis, so basis reduction is checked along with the
evaluator.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from weierp.lattice import reduce_generators
from weierp.wp import wp_eval, wp_prime_eval

DPS = 40


class ThetaReference:
    """wp and wp' of the lattice spanned by two binary64 generators.

    With a reduced basis, k = pi/omega1, v = k z and q = exp(i pi tau):
    wp(z) = (k th2 th3 th4(v) / th1(v))^2 - k^2 (th2^4 + th3^4) / 3.
    """

    def __init__(self, omega1: complex, omega2: complex):
        with mpmath.workdps(DPS):
            w1, w2 = mpmath.mpc(omega1), mpmath.mpc(omega2)
            if (w2 / w1).imag < 0:
                w1, w2 = w2, w1
            while True:
                tau = w2 / w1
                if mpmath.nint(tau.real) != 0:
                    w2 -= mpmath.nint(tau.real) * w1
                elif abs(tau) < 1:
                    w1, w2 = w2, -w1
                else:
                    break
            self.w1, self.w2 = w1, w2
            self.q = mpmath.exp(1j * mpmath.pi * w2 / w1)
            th2 = mpmath.jtheta(2, 0, self.q)
            th3 = mpmath.jtheta(3, 0, self.q)
            self.k = mpmath.pi / w1
            self.c = self.k * th2 * th3
            self.shift = self.k**2 * (th2**4 + th3**4) / 3

    def __call__(self, z: complex) -> tuple[complex, complex]:
        with mpmath.workdps(DPS):
            z = mpmath.mpc(z)
            det = (mpmath.conj(self.w1) * self.w2).imag
            x = (z.real * self.w2.imag - z.imag * self.w2.real) / det
            y = (self.w1.real * z.imag - self.w1.imag * z.real) / det
            v = self.k * (z - mpmath.nint(x) * self.w1 - mpmath.nint(y) * self.w2)
            t1 = mpmath.jtheta(1, v, self.q)
            t4 = mpmath.jtheta(4, v, self.q)
            a = self.c * t4 / t1
            da = self.c * self.k * (mpmath.jtheta(4, v, self.q, 1) * t1
                                    - t4 * mpmath.jtheta(1, v, self.q, 1)) / (t1 * t1)
            return complex(a * a - self.shift), complex(2 * a * da)


def random_unimodular(rng, steps=3):
    """(a, b, c, d) with ad - bc = 1, a product of random T^n and S factors."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        n = int(rng.integers(-3, 4))
        a, b, c, d = a + n * c, b + n * d, c, d
        if rng.uniform() < 0.7:
            a, b, c, d = -c, -d, a, b
    return a, b, c, d


def cell_point(rng, w1, w2, cells=0):
    """x*w1 + y*w2 plus up to `cells` periods along each generator.

    (x, y) keeps away from the poles and from the half-periods, where wp' is
    zero and a relative error means nothing.
    """
    while True:
        x, y = rng.uniform(0.05, 0.95, 2)
        if min(abs(x - h) + abs(y - g) for h in (0, 0.5, 1) for g in (0, 0.5, 1)) > 0.1:
            break
    m, n = rng.integers(-cells, cells + 1, 2)
    return complex((m + x) * w1 + (n + y) * w2)


def test_disguised_bases_match_input_lattice():
    # 120 lattices in scaled (10^+-2), rotated, unimodularly disguised bases:
    # the value on the reduced basis must be within err_estimate of the
    # reference on the input generators, so reduction loses no bits
    rng = np.random.default_rng(7)
    forms = [(1, 0, 1), (1, 1, 1), (1, 1, 5), (2, 1, 3), (1, 1, 41), (1, 0, 9)]
    for i in range(120):
        if i % 2:
            a, b, c = forms[i // 2 % len(forms)]
            tau = complex(-b / (2 * a), math.sqrt(4 * a * c - b * b) / (2 * a))
        else:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 6.0))
        rot = 10.0 ** rng.uniform(-2, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a, b, c, d = random_unimodular(rng)
        w1, w2 = c * rot * tau + d * rot, a * rot * tau + b * rot
        lat = reduce_generators(w1, w2)
        z = cell_point(rng, rot, rot * tau)
        ref, _ = ThetaReference(w1, w2)(z)
        got = wp_eval(z, lat)
        assert abs(got.value - ref) <= got.err_estimate, (i, tau, got, ref)


ROT = cmath.exp(0.3j)
MODULI = {
    "5i": (1.0, 5j),
    "12i": (1.0, 12j),
    "30i": (1.0, 30j),
    "edge_arc": (1.0, 1.005 * cmath.exp(1j * (math.pi / 3 + 0.01))),
    "edge_line": (1.0, 0.495 + 0.95j),
    "scaled_1e3": (1e3 * ROT, 1e3 * ROT * (0.31 + 1.27j)),
    "scaled_1e-3": (1e-3 * ROT, 1e-3 * ROT * (0.31 + 1.27j)),
}


@pytest.mark.parametrize("name", MODULI)
def test_accuracy_across_moduli(name):
    w1, w2 = MODULI[name]
    rng = np.random.default_rng(11)
    ref = ThetaReference(w1, w2)
    lat = reduce_generators(w1, w2)
    for _ in range(12):
        z = cell_point(rng, w1, w2)
        want, want_prime = ref(z)
        assert abs(wp_eval(z, lat).value - want) <= 1e-12 * abs(want)
        assert abs(wp_prime_eval(z, lat).value - want_prime) <= 1e-12 * abs(want_prime)
    for _ in range(12):
        z = cell_point(rng, w1, w2, cells=300)
        want, want_prime = ref(z)
        got, got_prime = wp_eval(z, lat), wp_prime_eval(z, lat)
        assert abs(got.value - want) <= got.err_estimate
        assert abs(got_prime.value - want_prime) <= got_prime.err_estimate
