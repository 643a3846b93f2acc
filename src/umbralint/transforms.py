"""Borel transform and the Euler-kernel (Beta) transform.

Both act termwise on a series through the Gamma-ratio symbols of
``umbral``, as edits of its law: the exponential-moment transform
multiplies the coefficient of x^a by Gamma(a+1), and the Euler kernel
multiplies it by B(alpha+a, beta).  Each transform is verified elsewhere
against direct quadrature of its defining integral.  The series type and
the m-sected exponential ``pseudo_trig_series`` are ``umbral``'s.
"""

from __future__ import annotations

from .umbral import CoefficientSeries, beta_kernel, borel_factorial, pseudo_trig_series

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


def beta_transform(f: CoefficientSeries, alpha: float, beta_: float) -> CoefficientSeries:
    """Euler-kernel transform: averaging f(u x) against
    u^{alpha-1} (1-u)^{beta-1} on (0, 1) multiplies the coefficient of x^a
    by B(alpha+a, beta), a Gamma ratio in a, so the law stays in Gamma-ratio
    form for any stride and offset.
    """
    return beta_kernel(alpha, beta_).edit(f)
