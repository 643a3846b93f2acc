"""Accuracy check of an eval_kernel output against its reference value.

Kept apart from the mpmath references (refvalues.py), so that the measured
process can check outputs without loading mpmath.
"""

from __future__ import annotations

import math

# Advertised accuracy per kind.  gamma and beta print "closed approximation,
# <= 1e-13 relative"; the elementary closed forms print "closed form
# (exact)", held to the same 1e-13; every series prints "tolerance 1e-12",
# which is also the default tolerance of the umbral and transforms
# evaluators; the finite Hermite-type sums print "exact (finite sum)" and
# are held to 1e-12.
TOLERANCE = {
    "gamma": 1e-13,
    "beta": 1e-13,
    "struve_halfline": 1e-13,
    "struve_moment": 1e-13,
}
DEFAULT_TOLERANCE = 1e-12


def relative_error(got, ref) -> float:
    """|got - ref| / |ref|, or |got - ref| where the reference is 0."""
    got = complex(got)
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return math.inf
    diff = abs(got - ref)
    return diff / abs(ref) if ref != 0 else diff


def check(kind, got, ref):
    """(passed, error) for a program output against its reference."""
    err = relative_error(got, ref)
    return err <= TOLERANCE.get(kind, DEFAULT_TOLERANCE), err
