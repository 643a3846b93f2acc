"""Reference evaluations for quadrature-side integrands.

The verification oracle integrates the *defining* integrand of each
identity.  Where that integrand contains a named special function, this
module supplies it from an independent source (scipy's C implementations,
or classical elementary reductions), so the quadrature route never touches
the series kernel being checked.
"""

from __future__ import annotations

import math

from scipy import special as _sp

__all__ = [
    "bessel_j_ref",
    "struve_h_ref",
    "kummer_m_ref",
    "pseudo_trig3_closed",
    "classical_hermite",
]

_SQRT3_HALF = math.sqrt(3.0) / 2.0


def bessel_j_ref(v: float, x: float) -> float:
    """Bessel J of real order, any argument size."""
    return float(_sp.jv(v, x))


def struve_h_ref(v: float, x: float) -> float:
    """Struve function of real order, any argument size."""
    return float(_sp.struve(v, x))


def kummer_m_ref(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric M(a; b; x)."""
    return float(_sp.hyp1f1(a, b, x))


def pseudo_trig3_closed(u: float, log_weight: float = 0.0) -> float:
    """The 3-sected alternating exponential via cube roots of unity, times
    e^{log_weight}: (e^{w-u} + 2 e^{w+u/2} cos(sqrt(3) u / 2)) / 3.

    Folding the weight into each exponential keeps a decaying product
    finite where e^{-u} alone would overflow."""
    return (math.exp(log_weight - u)
            + 2.0 * math.exp(log_weight + 0.5 * u) * math.cos(_SQRT3_HALF * u)) / 3.0


def classical_hermite(n: int, z):
    """Physicists' Hermite polynomial by the three-term recurrence."""
    if n < 0:
        raise ValueError("classical_hermite needs n >= 0")
    h_prev = 1.0
    if n == 0:
        return h_prev
    h = 2.0 * z
    for k in range(1, n):
        h, h_prev = 2.0 * z * h - 2.0 * k * h_prev, h
    return h
