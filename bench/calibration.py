"""Scaling of measured times to a reference machine speed.

On a shared 2-vCPU Intel Xeon virtual machine the speed changes in
plateaus that last from seconds to minutes: identical eval_kernel work ran
at 14.6k to 31k ops/s within ten minutes, with CPU time tracking wall time,
so the processor itself slowed rather than the process waiting.  Raw times
of two runs minutes apart therefore differ by more than any bound worth
setting.

Next to the measured work the benchmark runs a fixed unit of pure-Python
work that shares no code with umbralint, and multiplies each measured time
by REF_UNIT_S / (time of the unit measured next to it).  A program change
moves the measured time and not the unit, so it shows in full; a change of
machine speed moves both and cancels.  The raw figures are printed too.

The cancelling is partial.  The unit slows with the machine more than the
program does, probably because the unit runs from the cache and the
program waits on memory in part: between the slowest and the fastest third of unit times
(unit 1.76x slower) the program slowed 1.48x on verify_ladder, 1.53x on
verify_plain and 1.64x on eval_kernel.  A time is therefore multiplied by
the ratio to the power ``exponent``, fitted per workload on that machine as
log(program slowdown) / log(unit slowdown).
"""

from __future__ import annotations

import math
from itertools import count
from statistics import median
from time import perf_counter

# Time of one unit on that 2-vCPU Xeon at its median speed.
REF_UNIT_S = 3.2e-4

# During a timed loop, a block of units runs this often (about 2% of the
# time).
INTERVAL_S = 0.5
BLOCK_UNITS = 30


def _power_term(x, k):
    return x ** k / (k + 1.0)


def _guarded_sum(terms, tol):
    total, small, used = 0.0, 0, 0
    for used, term in enumerate(terms, 1):
        total += term
        if abs(term) <= tol * abs(total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    return total, used


def _unit():
    # tight float loop with calls into C (math) ...
    total = 0.0
    for i in range(1, 120):
        x = 0.01 * i
        s = 0.0
        for k in range(6):
            s += _power_term(x, k)
        total += math.exp(-x) * s + math.lgamma(1.0 + x)
    # ... and generator-fed series summation, the shape of most of the kernel
    for j in range(8):
        x, nu = 0.5 + 0.7 * j, 0.3 * j

        def terms():
            t = 1.0
            for k in count():
                yield t * math.exp(-math.lgamma(k + nu + 1.0))
                t *= -x * x / 4.0 / (k + 1.0)

        value, used = _guarded_sum(terms(), 1e-12)
        total += value + used
    return total


def unit_seconds():
    start = perf_counter()
    _unit()
    return perf_counter() - start


class Speed:
    """Running estimate of the machine speed relative to the reference.

    Every INTERVAL_S of a timed loop, between two ops, a block of
    BLOCK_UNITS units runs and its median unit time is kept.  The first
    units after an op run with the caches it left and are slower; the median
    of a block is not moved by them.  The factor is taken from the last two
    block medians."""

    def __init__(self, exponent=1.0):
        self.exponent = exponent
        self.blocks = []
        self.sample()

    def sample(self):
        self.blocks.append(median(unit_seconds() for _ in range(BLOCK_UNITS)))
        self.last = perf_counter()

    def after_op(self):
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor(self):
        """Multiply a time measured now by this to get reference seconds."""
        recent = self.blocks[-2:]
        return (REF_UNIT_S * len(recent) / sum(recent)) ** self.exponent

    def summary(self):
        factors = [(REF_UNIT_S / b) ** self.exponent for b in self.blocks]
        return {"speed_factor_median": median(factors),
                "speed_factor_min": min(factors),
                "speed_factor_max": max(factors),
                "speed_blocks": len(factors)}
