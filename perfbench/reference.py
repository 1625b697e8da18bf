"""40-digit reference values of wp and wp' from Jacobi theta functions.

With (omega1, omega2) a reduced basis, v = pi z / omega1 and q = exp(i pi tau):

    wp(z) = (pi th2 th3 th4(v) / (omega1 th1(v)))^2 - pi^2 (th2^4 + th3^4) / (3 omega1^2)

where th2, th3 are theta constants.  wp' is the derivative of the first
term, taken with jtheta's derivative argument.  Everything runs in mpmath at
DPS digits on the exact binary64 inputs, so the reference depends only on
the generated inputs and not on any weierp code.
"""

from __future__ import annotations

import mpmath
from mpmath import mpc

DPS = 40


def _coords(w1, w2, z):
    det = w1.real * w2.imag - w1.imag * w2.real
    x = (z.real * w2.imag - z.imag * w2.real) / det
    y = (w1.real * z.imag - w1.imag * z.real) / det
    return x, y


class Reference:
    """wp and wp' of the lattice spanned by two binary64 generators."""

    def __init__(self, omega1: complex, omega2: complex):
        with mpmath.workdps(DPS):
            w1, w2 = mpc(omega1), mpc(omega2)
            if (w2 / w1).imag < 0:
                w1, w2 = w2, w1
            for _ in range(10_000):
                tau = w2 / w1
                shift = mpmath.nint(tau.real)
                if shift != 0:
                    w2 -= shift * w1
                elif abs(tau) < 1:
                    w1, w2 = w2, -w1
                else:
                    break
            else:
                raise ValueError("reference basis reduction did not terminate")
            self.w1, self.w2 = w1, w2
            self.tau = w2 / w1
            self.q = mpmath.exp(1j * mpmath.pi * self.tau)
            th2 = mpmath.jtheta(2, 0, self.q)
            th3 = mpmath.jtheta(3, 0, self.q)
            self.k = mpmath.pi / w1
            self.c = self.k * th2 * th3
            self.shift = mpmath.pi**2 * (th2**4 + th3**4) / (3 * w1**2)

    def __call__(self, z: complex, derivative: bool = True) -> tuple[complex, complex | None]:
        """(wp(z), wp'(z)), the second None unless derivative is set."""
        with mpmath.workdps(DPS):
            z = mpc(z)
            x, y = _coords(self.w1, self.w2, z)
            z = z - mpmath.nint(x) * self.w1 - mpmath.nint(y) * self.w2
            v = self.k * z
            t1 = mpmath.jtheta(1, v, self.q)
            t4 = mpmath.jtheta(4, v, self.q)
            a = self.c * t4 / t1
            wp = a * a - self.shift
            if not derivative:
                return complex(wp), None
            d1 = mpmath.jtheta(1, v, self.q, 1)
            d4 = mpmath.jtheta(4, v, self.q, 1)
            da = self.c * self.k * (d4 * t1 - t4 * d1) / (t1 * t1)
            return complex(wp), complex(2 * a * da)


SELF_CHECK_RADIUS = 400
SELF_CHECK_REL = 1e-12


def self_check(weierp, lattices) -> list[dict]:
    """Compare the reference with weierp's direct-sum oracle (radius 400).

    lattices are (name, omega1, omega2) with a reduced basis; the point is a
    fixed interior point of the cell, where the oracle's tail correction
    applies.  An entry with ok=False means the reference cannot be trusted.
    """
    out = []
    for name, w1, w2 in lattices:
        z = complex(0.23 * w1 + 0.41 * w2)
        ref, _ = Reference(w1, w2)(z, derivative=False)
        oracle = weierp.wp_direct_sum(z, weierp.reduce_generators(w1, w2), SELF_CHECK_RADIUS)
        rel = abs(oracle.value - ref) / abs(ref)
        out.append({"lattice": name, "rel_diff": rel, "ok": rel <= SELF_CHECK_REL})
    return out
