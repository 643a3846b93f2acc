"""Reference evaluations for quadrature-side integrands.

The verification oracle integrates the *defining* integrand of each
identity.  Where that integrand contains a named special function, this
module supplies it from an independent source (scipy's C implementations,
classical elementary reductions, or Laplace integrals on a fixed
Gauss-Laguerre rule), so the quadrature route never touches the series
kernel being checked.

Each special function is bound once per order and returns callables of
x, so that a quadrature node pays at most one Python frame around its
scipy call: J, H and H1 are ``functools.partial`` objects of their entry
points.  An oracle binds each order once.
"""

from __future__ import annotations

import math
from functools import partial

__all__ = [
    "bessel_j_ref",
    "bessel_j_complex_ref",
    "struve_ref",
    "pseudo_trig3_closed",
]

_SQRT3_HALF = math.sqrt(3.0) / 2.0
_SQRT_PI = math.sqrt(math.pi)

# The 30-point Gauss-Laguerre rule, sum_i w_i f(s_i) for the integral of
# e^(-s) f(s) over (0, infinity), exact for polynomials of degree below 60:
# s_i are the zeros of the Laguerre polynomial L_30 and
# w_i = s_i / (31 L_31(s_i))^2, computed in 60-digit arithmetic
_LAGUERRE_NODES = (
    4.74071805408048514617e-2,
    2.49923916753160223994e-1,
    6.14833454392768284613e-1,
    1.14319582566610079828,
    1.83645455462257229149,
    2.69652187455721519578,
    3.72581450777950894932,
    4.92729376584988240966,
    6.30451559096507452283,
    7.86169329337026046876,
    9.60377598547926207985,
    11.5365465979561397008,
    13.6667446930642362949,
    16.0022211889810662546,
    18.552134840143150124,
    21.3272043217831289279,
    24.340035764532693401,
    27.6055547967809610276,
    31.1415867011112358183,
    34.9696520082490695436,
    39.1160849490678891219,
    43.6136529084848278067,
    48.5039861638042004273,
    53.8413854065075056175,
    59.6991218592354954771,
    66.1806177944384896517,
    73.4412385955598822395,
    81.7368105067276857222,
    91.5564665225368382555,
    104.157524431058894512,
)
_LAGUERRE_WEIGHTS = (
    1.16044086020393255616e-1,
    2.20851124750696021679e-1,
    2.4139982758787346417e-1,
    1.94636768446416727005e-1,
    1.23728415966880992232e-1,
    6.36787803689882693401e-2,
    2.68604752733805194111e-2,
    9.33807088160423514961e-3,
    2.68069689133690053852e-3,
    6.35129121940877646405e-4,
    1.23907459906886617044e-4,
    1.98287884389529610556e-5,
    2.58935092913148458373e-6,
    2.74094284053608516382e-7,
    2.33283116502579616822e-8,
    1.58074557477837810367e-9,
    8.42747912305704785449e-11,
    3.48516123490797714603e-12,
    1.09901805975347272795e-13,
    2.58831266495923541342e-15,
    4.4378380598403008662e-17,
    5.36591830821235395362e-19,
    4.39394689229171577834e-21,
    2.31140979438864935894e-23,
    7.2745884982925408323e-26,
    1.23914970144827439943e-28,
    9.8323750831056357108e-32,
    2.84232355340279691436e-35,
    1.87860803174957156784e-39,
    8.74598044046518755911e-45,
)
_LAGUERRE = tuple(zip([s * s for s in _LAGUERRE_NODES], _LAGUERRE_WEIGHTS))  # (s_i^2, w_i)

# scipy.special.cython_special, bound by _special() on first use: importing
# scipy takes most of the package's import time, and only the oracle
# integrands need it.  Its scalar entry points run the same C code as the
# scipy.special ufuncs and return the same bits as a Python float, without
# the ufunc dispatch that costs more than the function itself.  A fused
# entry point (jv, yv) rejects an int argument; jv's "double" specialisation
# takes one as a C double and skips the dispatch on the argument types, and
# yv, called off the nodes' path, gets float(x), so a callable of x takes an
# int or a float x
_sp = None


def _special():
    """scipy.special.cython_special, imported and bound to ``_sp``."""
    global _sp
    from scipy.special import cython_special
    _sp = cython_special
    return cython_special


def bessel_j_ref(v: float):
    """x -> J_v(x), Bessel J of real order v at a real x of any size."""
    return partial((_sp or _special()).jv["double"], float(v))


def bessel_j_complex_ref(v: float):
    """z -> J_v(z), Bessel J of real order v at a complex z (principal
    branch, cut along the negative real axis), one AMOS call.  At a real
    x >= 0 and v >= 0 its real part is, where that call succeeds, the float
    ``bessel_j_ref`` returns: jv's "double" specialisation makes the same
    call and keeps its real part."""
    return partial((_sp or _special()).jv["double complex"], float(v))


def struve_ref(v: float):
    """(H_v, Y_v, K_v, H1_v) at real order v: the Struve function H_v of
    any real argument, its split H_v = Y_v + K_v (DLMF 11.2.5) for real
    x > 0 into the Bessel Y_v, which oscillates, and the rest K_v, which
    does not for large x, and the Hankel function H1_v of a complex z, whose
    imaginary part Y_v is on the real axis.

    Y_v(x) is Im H1_v(x) (DLMF 10.4.3), one AMOS call where ``yv`` makes
    two and reflects through J_v at a negative order; ``yv`` where H1 is
    nan (x past about 1e17, Y overflowing near 0) or x <= 0.  J_v stays on
    ``jv``: Re H1 loses its digits where |Y| >> |J|.  An order below 1e-300
    in size, where both fail for x < 2, is taken as 0 for Y and H1.

    K_v = H_v - Y_v in floats has an absolute error of about eps |Y_v|,
    which swamps K_v for v < 1/2, where K_v decays faster than Y_v.  So from
    x = 8 on K_v is taken from its Laplace integral (DLMF 11.5.2), in s = x t

        K_v(x) = (x/2)^(v-1) / (sqrt(pi) Gamma(v+1/2))
                 * integral over (0, infinity) of e^(-s) (1 + (s/x)^2)^(v-1/2) ds,

    on the 30-point Gauss-Laguerre rule, within 6e-15 of 60-digit mpmath
    for v in [-3, 30].  Past v = 30 the integrand peaks near s = 2v, beyond
    the rule's reach, and H_v - Y_v, which no longer cancels there, is kept.
    """
    sp = _sp or _special()
    struve, hankel1, yv = sp.struve, sp.hankel1, sp.yv
    v = float(v)
    vy = 0.0 if abs(v) < 1e-300 else v   # Y_v is Y_0 in floats there
    e, p, rg = v - 0.5, v - 1.0, sp.rgamma(v + 0.5)
    struve_h, hankel1_v = partial(struve, v), partial(hankel1, vy)

    def bessel_y(x):
        y = hankel1_v(x + 0j).imag if x > 0.0 else math.nan
        return y if y == y else yv(vy, float(x))

    def struve_k(x):
        if x >= 8.0 and v <= 30.0:
            r = 1.0 / (x * x)
            total = 0.0
            for q, w in _LAGUERRE:
                total += w * (1.0 + q * r) ** e
            return (0.5 * x) ** p * rg / _SQRT_PI * total
        return struve(v, x) - bessel_y(x)

    return struve_h, bessel_y, struve_k, hankel1_v


def pseudo_trig3_closed(u: float, log_weight: float = 0.0) -> float:
    """The 3-sected alternating exponential via cube roots of unity, times
    e^{log_weight}: (e^{w-u} + 2 e^{w+u/2} cos(sqrt(3) u / 2)) / 3.

    Folding the weight into each exponential keeps a decaying product
    finite where e^{-u} alone would overflow."""
    return (math.exp(log_weight - u)
            + 2.0 * math.exp(log_weight + 0.5 * u) * math.cos(_SQRT3_HALF * u)) / 3.0

