"""Borel transform and the Euler-kernel (Beta) transform.

Both act termwise on a series through the Gamma-ratio symbols of
``umbral``, as edits of its law: the exponential-moment transform
multiplies the coefficient of x^a by Gamma(a+1), and the Euler kernel
multiplies it by B(alpha+a, beta).  Each transform is verified elsewhere
against direct quadrature of its defining integral.
"""

from __future__ import annotations

import functools

from .specfun import _MAX_ORDER, as_integer
from .umbral import (_SERIES_CACHE, CoefficientSeries, GammaRatioSequence, beta_kernel,
                     borel_factorial)

__all__ = [
    "CoefficientSeries",
    "borel_transform",
    "beta_transform",
    "pseudo_trig_series",
]


def borel_transform(g: CoefficientSeries) -> CoefficientSeries:
    """Multiply the coefficient of x^a by Gamma(a + 1).

    The resulting series evaluates the exponential moment integral
    of g(x t) dt over (0, infinity) wherever both sides converge.
    """
    return borel_factorial().edit(g)


def pseudo_trig_series(k: int, m: int) -> CoefficientSeries:
    """The m-sected alternating exponential c_k = sum_r (-1)^r x^{m r + k}/(m r + k)!,
    for the orders ``specfun.pseudo_trig`` takes."""
    m = as_integer(m, "pseudo_trig_series order m", 2, _MAX_ORDER)
    return _pseudo_trig_series(as_integer(k, "pseudo_trig_series index k", 0, m - 1), m)


@functools.lru_cache(maxsize=_SERIES_CACHE)
def _pseudo_trig_series(k: int, m: int) -> CoefficientSeries:
    law = GammaRatioSequence(denom=((k + 1.0, float(m)),))
    return CoefficientSeries(law, stride=m, offset=float(k), geometric=-1.0)


def beta_transform(f: CoefficientSeries, alpha: float, beta_: float) -> CoefficientSeries:
    """Euler-kernel transform: averaging f(u x) against
    u^{alpha-1} (1-u)^{beta-1} on (0, 1) multiplies the coefficient of x^a
    by B(alpha+a, beta), a Gamma ratio in a, so the law stays in Gamma-ratio
    form for any stride and offset.
    """
    return beta_kernel(alpha, beta_).edit(f)
