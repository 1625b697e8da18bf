"""A fixed unit of CPU work, timed next to the ops to track the machine's speed.

A shared machine changes speed over seconds and minutes (other tenants'
load, frequency scaling): on a 2-core VM a fixed loop took from 0.7x to
1.3x its median in 2-second blocks.  The benchmark times this unit between
ops and in the parent before every set-up, and reports each time scaled to
a machine on which the unit takes NOMINAL_S: a time t measured where the
unit took c is reported as t * NOMINAL_S / c.  The unit does not call
weierp, so a faster or slower program moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1e-3      # the unit's time on the reference machine, by definition
EVERY_S = 0.02        # the worker takes a sample per EVERY_S of op time,
MAX_BATCH = 10        # and at most this many in a row after one op
_VEC = np.arange(2048.0)


def unit_seconds() -> float:
    """Wall time of one pass of the fixed unit: an integer loop and a small dot."""
    t0 = time.perf_counter()
    s = 0
    for k in range(10_000):
        s += k * k % 7
    float(_VEC @ _VEC)
    return time.perf_counter() - t0


def sample(n: int) -> list[float]:
    return [unit_seconds() for _ in range(n)]


def factor(samples: list[float]) -> float:
    """NOMINAL_S over the median sample: multiply a measured time by this."""
    return NOMINAL_S / statistics.median(samples)
