"""Closed forms that the tests check the series kernels against.

They are references for tests only: no oracle integrand calls them, so they
live here and not in ``umbralint.reference``.
"""

import cmath
import math
from fractions import Fraction

from scipy.special import cython_special

_SQRT_PI = math.sqrt(math.pi)


def b_nu_closed(nu: float, x) -> complex:
    """The exponential-ratio function b_nu by its modified-Bessel form,
    (sqrt(pi)/2) x^(1/2-nu) e^(x/2) [I_(nu-1/2)(x/2) + I_(nu+1/2)(x/2)],
    with principal powers; x != 0.

    I is taken at a complex argument, on the principal branch at x < 0,
    where scipy's real iv is nan for non-integer orders.  In the left
    half-plane, not only on the real axis, the two I nearly cancel as nu
    goes to 0 (b_0 = e^x): at nu = 0.0107, x = -14.13+4.48i the form is
    2.7e-11 off a 40-digit 1F1."""
    z = complex(x)
    if z == 0:
        raise ValueError("the closed form of b_nu needs x != 0")
    iv = cython_special.iv
    half = 0.5 * z
    return (0.5 * _SQRT_PI * z ** (0.5 - nu) * cmath.exp(half)
            * (iv(nu - 0.5, half) + iv(nu + 0.5, half)))


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


def hybrid_hermite_moment(n: int, m: int, x, y, variable: str):
    """The exponential-moment transform of the hybrid Hermite polynomial
    sum_k x^j y^k / (k! j!^2), j = n - mk, taken termwise in one variable:
    in x it multiplies each term by j!, in y by k!.  Each coefficient is an
    exact fraction, rounded once, so no factorial leaves the double range."""
    total = 0.0
    for k in range(n // m + 1):
        j = n - m * k
        moment = math.factorial(j if variable == "first" else k)
        coefficient = Fraction(moment, math.factorial(k) * math.factorial(j) ** 2)
        total += float(coefficient) * x ** j * y ** k
    return total
