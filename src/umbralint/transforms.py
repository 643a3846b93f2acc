"""Borel transform pair and the Euler-kernel (Beta) transform.

Both act termwise on a series through the Gamma-ratio symbols of
``umbral``, as edits of its law: the exponential-moment transform
multiplies the coefficient of x^a by Gamma(a+1), its inverse divides by it,
and the Euler kernel multiplies it by B(alpha+a, beta).  Each transform is
verified elsewhere against direct quadrature of its defining integral.
"""

from __future__ import annotations

from .errors import DomainError, overflow_raises
from .specfun import _check_order, _hermite_sum
from .umbral import (CoefficientSeries, GammaRatioSequence, MellinMultiplier,
                     bessel_phi, beta_kernel, borel_factorial)

__all__ = [
    "CoefficientSeries",
    "borel_transform",
    "borel_inverse",
    "borel_hybrid_hermite",
    "beta_transform",
    "pseudo_trig_series",
]


def borel_transform(g: CoefficientSeries) -> CoefficientSeries:
    """Multiply the coefficient of x^a by Gamma(a + 1).

    The resulting series evaluates the exponential moment integral
    of g(x t) dt over (0, infinity) wherever both sides converge.
    """
    return borel_factorial().edit(g)


def borel_inverse(L: CoefficientSeries) -> CoefficientSeries:
    """Divide the coefficient of x^a by Gamma(a + 1) (exact inverse of
    borel_transform: the two factors cancel in the canonical law)."""
    return MellinMultiplier(bessel_phi()).edit(L)  # the symbol 1/Gamma(a + 1)


def pseudo_trig_series(k: int, m: int) -> CoefficientSeries:
    """The m-sected alternating exponential c_k = sum_r (-1)^r x^{m r + k}/(m r + k)!."""
    if not isinstance(m, int) or m < 2:
        raise DomainError("pseudo_trig_series needs integer m >= 2")
    if not isinstance(k, int) or not 0 <= k < m:
        raise DomainError("pseudo_trig_series needs 0 <= k < m")
    law = GammaRatioSequence(denom=((k + 1.0, float(m)),))
    return CoefficientSeries(law, stride=m, offset=float(k), geometric=-1.0)


@overflow_raises(DomainError)
def borel_hybrid_hermite(n: int, m: int, x, y, variable: str = "first") -> complex:
    """Exponential-moment transform of the hybrid Hermite polynomial.

    Termwise integration against e^{-t}: transforming in the first variable
    multiplies the coefficient of x^{n-mk} by (n-mk)! and yields the
    order-m Hermite polynomial divided by n!; transforming in the second
    multiplies the coefficient of y^k by k! and yields the truncated
    exponential polynomial exactly.
    """
    n, m = _check_order(n, m)
    if variable == "first":   # (n-mk)! from the moment integral cancels one 1/(n-mk)!
        return _hermite_sum(n, m, x, y, 1, 1)
    if variable == "second":  # k! from the moment integral cancels the 1/k!
        return _hermite_sum(n, m, x, y, 2, 0)
    raise DomainError(f"unknown transform variable {variable!r}")


def beta_transform(f: CoefficientSeries, alpha: float, beta_: float) -> CoefficientSeries:
    """Euler-kernel transform: averaging f(u x) against
    u^{alpha-1} (1-u)^{beta-1} on (0, 1) multiplies the coefficient of x^a
    by B(alpha+a, beta), a Gamma ratio in a, so the law stays in Gamma-ratio
    form for any stride and offset.
    """
    return beta_kernel(alpha, beta_).edit(f)
