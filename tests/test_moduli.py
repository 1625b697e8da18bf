"""wp and wp' across the moduli space against a 40-digit theta reference.

The reference (conftest.ThetaReference) is built in mpmath from the
generators exactly as given, not from weierp's reduced basis, so basis
reduction is checked along with the evaluator.
"""

import cmath
import math

import numpy as np
import pytest

from weierp.lattice import reduce_generators
from weierp.wp import wp_eval, wp_prime_eval

from conftest import ThetaReference, random_unimodular


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
