"""Reference evaluations for quadrature-side integrands.

The verification oracle integrates the *defining* integrand of each
identity.  Where that integrand contains a named special function, this
module supplies it from an independent source (scipy's C implementations,
classical elementary reductions, or classical asymptotic expansions), so
the quadrature route never touches the series kernel being checked.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "bessel_j_ref",
    "struve_h_ref",
    "bessel_y_ref",
    "struve_k_ref",
    "b_nu_closed",
    "pseudo_trig3_closed",
    "classical_hermite",
]

_SQRT3_HALF = math.sqrt(3.0) / 2.0
_SQRT_PI = math.sqrt(math.pi)

# scipy.special.cython_special, bound by _special() on first use: importing
# scipy takes most of the package's import time, and only the oracle
# integrands need it.  Its scalar entry points run the same C code as the
# scipy.special ufuncs and return the same bits as a Python float, without
# the ufunc dispatch that costs more than the function itself; their fused
# signatures reject an int argument, hence the float() on each one
_sp = None


def _special():
    """scipy.special.cython_special, imported and bound to ``_sp``."""
    global _sp
    from scipy.special import cython_special
    _sp = cython_special
    return cython_special


def bessel_j_ref(v: float, x: float) -> float:
    """Bessel J of real order, any argument size."""
    return (_sp or _special()).jv(float(v), float(x))


def struve_h_ref(v: float, x: float) -> float:
    """Struve function of real order, any argument size."""
    return (_sp or _special()).struve(float(v), float(x))


def bessel_y_ref(v: float, x: float) -> float:
    """Bessel Y of real order, x > 0."""
    return (_sp or _special()).yv(float(v), float(x))


def struve_k_ref(v: float, x: float) -> float:
    """K_v = H_v - Y_v (DLMF 11.2.5), the part of the Struve function that
    does not oscillate for large x; x > 0.

    The difference of H_v and Y_v in floats has an absolute error of about
    eps |Y_v|, which far out swamps K_v for v < 1/2, where K_v decays faster
    than Y_v.  So from x = 50 on, the large-x expansion (DLMF 11.6.1) is
    summed instead, as long as its terms fall until they reach rounding.
    """
    sp = _sp or _special()
    v, x = float(v), float(x)
    if x >= 50.0:
        ratio = 4.0 / (x * x)
        term = _SQRT_PI * (0.5 * x) ** (v - 1.0) * sp.rgamma(v + 0.5)
        total = term
        k = 0
        while abs(term) > 1e-17 * abs(total):
            step = term * (k + 0.5) * (v - 0.5 - k) * ratio
            if abs(step) >= abs(term):
                break
            term, total, k = step, total + step, k + 1
        else:
            return total / math.pi
    return sp.struve(v, x) - sp.yv(v, x)


def b_nu_closed(nu: float, x) -> complex:
    """The exponential-ratio function b_nu by its modified-Bessel form,
    (sqrt(pi)/2) x^(1/2-nu) e^(x/2) [I_(nu-1/2)(x/2) + I_(nu+1/2)(x/2)],
    with principal powers; x != 0.

    I is taken at a complex argument, on the principal branch at x < 0,
    where scipy's real iv is nan for non-integer orders.  There the two I
    have opposite signs, so the form cancels as nu goes to 0 (b_0 = e^x)."""
    z = complex(x)
    if z == 0:
        raise ValueError("the closed form of b_nu needs x != 0")
    iv = (_sp or _special()).iv
    half = 0.5 * z
    return (0.5 * _SQRT_PI * z ** (0.5 - nu) * cmath.exp(half)
            * (iv(nu - 0.5, half) + iv(nu + 0.5, half)))


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
