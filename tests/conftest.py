import math

import mpmath
import numpy as np
import pytest

from weierp.lattice import Lattice, reduce_generators


@pytest.fixture(scope="session")
def square() -> Lattice:
    return reduce_generators(1.0, 1j)


@pytest.fixture(scope="session")
def hexagonal() -> Lattice:
    # exact real part 1/2 keeps the reduced tau (and hence the detected
    # minimal polynomial) on the tau = e^{i pi/3} side of the boundary
    return reduce_generators(1.0, complex(0.5, math.sqrt(3.0) / 2.0))


@pytest.fixture(scope="session")
def rect2i() -> Lattice:
    return reduce_generators(1.0, 2j)


@pytest.fixture(scope="session")
def reference_lattices(square, hexagonal, rect2i):
    return [square, hexagonal, rect2i]


DPS = 40


class ThetaReference:
    """40-digit wp and wp' of the lattice spanned by two binary64 generators.

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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
