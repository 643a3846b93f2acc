"""Closed forms that the tests check the series kernels against.

They are references for tests only: no oracle integrand calls them, so they
live here and not in ``umbralint.reference``.
"""

import cmath
import math
import sys
from fractions import Fraction

from scipy.special import cython_special

_SQRT_PI = math.sqrt(math.pi)
_SQRT3_HALF = math.sqrt(3.0) / 2.0


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


def hypergeometric_sum(t, a, b, y, tol, k=0, seed=None, k_safe=0, weight=None):
    """``summation.sum_hypergeometric`` written out as one plain loop, with
    every step a loop over a and b: the same seeds, weight, stopping rule,
    returns and errors, as a reference for the compiled loops."""
    from umbralint.errors import ConvergenceError
    from umbralint.summation import CONSECUTIVE_SMALL, DEFAULT_CAP, SeriesTail

    def overflowed(total, used, mag):
        return ConvergenceError(f"series overflowed: non-finite term at index {used - 1}",
                                partial=total, tail=SeriesTail(used, mag, False))

    def finished(total, used, mag):
        if abs(total) < math.inf:
            return total, SeriesTail(used, mag, True)
        raise ConvergenceError(f"series overflowed: the sum of {used} terms passed the "
                               "double range", partial=total,
                               tail=SeriesTail(used, math.inf, False))

    k = float(k)
    fresh = t is None
    total, small, mag = 0.0, 0, 0.0
    for used in range(1, DEFAULT_CAP + 1):
        if fresh:
            try:
                t = seed(k)
                while t is None:
                    k += 1.0
                    t = seed(k)
            except StopIteration:
                return finished(total, used - 1, mag)
            fresh = False
        term = t * weight(k) if weight else t
        total += term
        try:
            mag = abs(term)
            if not mag < math.inf:
                raise overflowed(total, used, mag)
            small_term = mag <= tol * abs(total)
        except OverflowError:   # a complex whose modulus passes the double range
            raise overflowed(total, used, math.inf) from None
        if small_term:
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return finished(total, used, mag)
        else:
            small = 0
        if seed and (k < k_safe or abs(t) < sys.float_info.min):
            fresh = True
        else:
            num, den = y, 1.0
            for c in a:
                num *= c + k
            for c in b:
                den *= c + k
            if den == 0:
                raise ConvergenceError(f"series step divided by zero after term {used - 1}: "
                                       "prod(b_i + k) underflowed or some b_i + k is 0",
                                       partial=total, tail=SeriesTail(used, mag, False))
            t *= num / den
        k += 1.0
    raise ConvergenceError(f"series did not converge within {DEFAULT_CAP} terms "
                           f"(last |term| = {mag:.3e})", partial=total,
                           tail=SeriesTail(DEFAULT_CAP, mag, False))


def pseudo_trig3_closed(u: float, log_weight: float = 0.0) -> float:
    """The 3-sected alternating exponential via cube roots of unity, times
    e^{log_weight}: (e^{w-u} + 2 e^{w+u/2} cos(sqrt(3) u / 2)) / 3.

    Folding the weight into each exponential keeps a decaying product
    finite where e^{-u} alone would overflow."""
    return (math.exp(log_weight - u)
            + 2.0 * math.exp(log_weight + 0.5 * u) * math.cos(_SQRT3_HALF * u)) / 3.0
