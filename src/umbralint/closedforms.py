"""Cataloged integral identities: closed forms and their oracle routes.

Each identity pairs a closed-form (or single-series) evaluation built on
the series kernel with an independent quadrature route built on the oracle,
and is exposed through a machine-readable catalog entry carrying its
equation tag, parameter domain, default grid, and default tolerance.

Identity evaluations are independent across grid points and may run in
parallel; nothing here holds mutable state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from . import oracle, reference, transforms, umbral
from .errors import DomainError, overflow_raises
from .specfun import (
    DEFAULT_TOL,
    as_integer,
    b_nu,
    bessel_j,
    gamma,
    hermite_tricomi,
    hyper_pfq,
)
from .summation import hypergeometric_terms, sum_series
from .umbral import (
    bessel_power_series,
    exponential_series,
    gaussian_kernel,
    mellin_master,
    rational_series,
)

__all__ = [
    "IdentityDescriptor",
    "CATALOG",
    "get_identity",
    "fresnel_bessel",
    "struve_halfline_integral",
    "struve_moment_integral",
    "bessel_generating_function",
    "bessel_gauss_dilation",
    "lorentz_gauss_integral",
    "lorentz_gauss_series",
    "lorentz_gauss_paper_literal",
]


# A parameter domain is a tuple of (text, predicate) conditions on the
# parameter dict.  The catalog lists the texts, verify checks the predicates,
# and the closed forms that take the parameters directly check the same ones.


def _broken(domain, params):
    """The text of the first condition of ``domain`` that ``params`` break."""
    for text, holds in domain:
        if not holds(params):
            return text
    return None


def _require(function: str, domain, params) -> None:
    text = _broken(domain, params)
    if text is not None:
        raise DomainError(f"{function} needs {text}")


def _integer(value, lo: int) -> bool:
    """Whether ``value`` is an integral number >= lo, by specfun.as_integer."""
    try:
        as_integer(value, "", lo)
    except DomainError:
        return False
    return True


_EQ08_DOMAIN = (("nu >= 0", lambda p: p["nu"] >= 0),
                ("alpha > 0", lambda p: p["alpha"] > 0),
                ("beta > 0", lambda p: p["beta"] > 0),
                ("alpha^2 < 4 beta", lambda p: p["alpha"] ** 2 < 4 * p["beta"]))
_EQ12_DOMAIN = (("-2 < nu < 0", lambda p: -2.0 < p["nu"] < 0.0),
                ("b > 0", lambda p: p["b"] > 0))
_EQ13_DOMAIN = (("nu > -1/2", lambda p: p["nu"] > -0.5),)
_EQ19_DOMAIN = (("m integer >= 2", lambda p: _integer(p["m"], 2)),)
_EQ28_DOMAIN = (("n integer > 0", lambda p: _integer(p["n"], 1)),)


# ---------------------------------------------------------------------------
# Closed-form evaluations
# ---------------------------------------------------------------------------


@overflow_raises(DomainError)
def fresnel_bessel(nu: float, alpha: float, beta: float,
                   tol: float = DEFAULT_TOL) -> complex:
    """Closed form of the half-line Fresnel-weighted Bessel integral
    of x J_{2 nu}(alpha x) e^{i beta x^2}.

    Valid for alpha, beta > 0 with alpha^2 < 4 beta and nu >= 0; the complex
    power takes the principal branch, which reproduces the elementary
    nu = 0 form (i/(2 beta)) exp(-i alpha^2/(4 beta)).
    """
    _require("fresnel_bessel", _EQ08_DOMAIN, {"nu": nu, "alpha": alpha, "beta": beta})
    # (i/beta)^(nu+1) on the principal branch
    power = cmath.exp((nu + 1.0) * complex(-math.log(beta), 0.5 * math.pi))
    argument = complex(0.0, -alpha * alpha / (4.0 * beta))
    return 0.5 * (0.5 * alpha) ** (2.0 * nu) * power * b_nu(nu, argument, tol=tol)


def struve_halfline_integral(nu: float, b: float) -> float:
    """Half-line integral of the Struve function of b x:
    -1/(b tan(pi nu / 2)) for -2 < nu < 0, exactly 0 at nu = -1."""
    _require("struve_halfline_integral", _EQ12_DOMAIN, {"nu": nu, "b": b})
    if nu == -1.0:
        return 0.0
    # a float quotient past the double range is inf, not an OverflowError
    denominator = b * math.tan(0.5 * math.pi * nu)
    value = -1.0 / denominator if denominator else math.inf
    if math.isinf(value):
        raise DomainError(f"struve_halfline_integral overflowed at nu={nu!r}, b={b!r}")
    return value


@overflow_raises(DomainError)
def struve_moment_integral(nu: float) -> float:
    """Whole-line integral of the even extension of x^{-(nu+1)} times the
    Struve function: pi / (2^nu Gamma(1+nu)), for nu > -1/2."""
    _require("struve_moment_integral", _EQ13_DOMAIN, {"nu": nu})
    return math.pi / (2.0 ** nu * gamma(nu + 1.0))


def bessel_generating_function(x: float, t: float, m: int,
                               tol: float = DEFAULT_TOL) -> float:
    """Exponential generating function of Bessel orders m n at argument 2x,
    summed directly as sum_n t^n/n! J_{m n}(2x)."""
    _require("bessel_generating_function", _EQ19_DOMAIN, {"m": m})
    weights = enumerate(hypergeometric_terms(1.0, (), (1.0,), t))  # t^n / n!
    value, _ = sum_series((u * bessel_j(float(m * n), 2.0 * x, tol=tol * 1e-3)
                           for n, u in weights), tol)
    return value


def bessel_gauss_dilation(n: int, x: float, tol: float = 1e-12) -> float:
    """Whole-line integral of J_n(x e^{-t^2}) for integer n > 0.

    Evaluated by applying the Gaussian dilation-kernel symbol to the Bessel
    power series: sqrt(pi) sum_k (-1)^k (x/2)^{2k+n} / (k! (k+n)! sqrt(2k+n)).
    """
    _require("bessel_gauss_dilation", _EQ28_DOMAIN, {"n": n})
    value = umbral.apply_mellin_multiplier(gaussian_kernel(),
                                           bessel_power_series(n), x, tol=tol)
    return value.real


# exp(-x^2) = sum_k (-x^2)^k/k! edited by F(a+2), for the Lorentz symbol
# F(a) = sqrt(pi) Gamma(a-1/2)/Gamma(a)
_LORENTZ_SERIES = umbral.MellinMultiplier(umbral.GammaRatioSequence(
    scale=math.sqrt(math.pi), numer=((1.5, 1.0),), denom=((2.0, 1.0),))).edit(
    umbral.CoefficientSeries(umbral.bessel_phi(), stride=2, geometric=-1.0))


def lorentz_gauss_integral(x: float, tol: float = DEFAULT_TOL) -> float:
    """Whole-line integral of exp(-x^2/(1+t^2)^2) / (1+t^2)^2:
    (pi/2) 2F2(3/4, 5/4; 1, 3/2; -x^2)."""
    return 0.5 * math.pi * hyper_pfq((0.75, 1.25), (1.0, 1.5), -x * x, tol=tol)


def lorentz_gauss_series(x: float, tol: float = DEFAULT_TOL) -> float:
    """The same integral by the Lorentz symbol at the exponent shifted by the
    weight, F(a+2) = sqrt(pi) Gamma(a+3/2)/Gamma(a+2), applied to
    sum_k (-x^2)^k/k!."""
    return _LORENTZ_SERIES.evaluate(x, tol=tol).real


def lorentz_gauss_paper_literal(x: float, tol: float = DEFAULT_TOL) -> float:
    """The uncorrected series variant with a plain (2k+2) denominator.

    Kept only so the verifier can demonstrate that it disagrees with the
    defining integral (it gives pi/4 instead of pi/2 at x = 0).  Its
    coefficient Gamma(2k+3/2) / ((2k+2) k!) is Gamma(2k+3/2) / (2 (k+1)!).
    """
    law = umbral.GammaRatioSequence(scale=0.5 * math.sqrt(math.pi), numer=((1.5, 2.0),),
                                    denom=((2.0, 1.0),))
    return umbral.CoefficientSeries(law, stride=2, geometric=-1.0).evaluate(x, tol=tol).real


# ---------------------------------------------------------------------------
# Identity catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityDescriptor:
    """One cataloged identity: closed form versus quadrature oracle.

    ``parameter_domain`` holds (text, predicate) conditions on the parameter
    dict; ``check_point`` names the first one a point breaks.  The keys of
    ``default_grid``, in order, are the ``parameters`` and the keywords that
    ``closed`` and each callable of ``variants`` (by variant name) take.
    ``oracle_eval`` maps (params, tol) to a QuadratureResult for the
    defining integral or reference series.
    """

    id: str
    equation: str
    description: str
    parameter_domain: tuple
    default_grid: dict
    default_tol: float
    closed: Callable = field(repr=False, compare=False, default=None)
    oracle_eval: Callable = field(repr=False, compare=False, default=None)
    variants: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def parameters(self) -> tuple:
        return tuple(self.default_grid)

    def check_point(self, params: dict):
        text = _broken(self.parameter_domain, params)
        return (True, "") if text is None else (False, f"needs {text}")


# An oscillatory tail starts this many half-periods past where its wave
# settles into oscillation.
_TAIL_LEAD = 3.0


def _fresnel_oracle(p, tol):
    # in s = x^2 the integrand is 1/2 J_{2nu}(alpha sqrt(s)) e^{i beta s}:
    # all wave, with half-period pi/beta
    nu, alpha, beta = p["nu"], p["alpha"], p["beta"]

    def integrand(s):
        return (0.5 * reference.bessel_j_ref(2.0 * nu, alpha * math.sqrt(s))
                * cmath.exp(1j * beta * s))

    half_period = math.pi / beta
    tail = oracle.OscillatoryTail(1.0 + _TAIL_LEAD * half_period, half_period,
                                  integrand)
    return oracle.integrate_half_line(integrand, tol, tail)


def _eq12_oracle(p, tol):
    # H_nu = Y_nu + K_nu (DLMF 11.2.5): Y_nu(b x) is the wave, with
    # half-period pi/b, and K_nu(b x) the smooth rest
    nu, b = p["nu"], p["b"]
    half_period = math.pi / b
    tail = oracle.OscillatoryTail(
        1.0 + _TAIL_LEAD * half_period, half_period,
        wave=lambda x: reference.bessel_y_ref(nu, b * x),
        smooth=lambda x: reference.struve_k_ref(nu, b * x))
    return oracle.integrate_half_line(lambda x: reference.struve_h_ref(nu, b * x),
                                      tol, tail)


def _eq13_oracle(p, tol):
    # as eq12, with the weight x^{-(nu+1)}; Y_nu oscillates beyond x ~ nu
    nu = p["nu"]

    def weighted(ref):
        return lambda x: x ** (-(nu + 1.0)) * ref(nu, x)

    tail = oracle.OscillatoryTail(max(nu, 1.0) + _TAIL_LEAD * math.pi, math.pi,
                                  wave=weighted(reference.bessel_y_ref),
                                  smooth=weighted(reference.struve_k_ref))
    half = oracle.integrate_half_line(weighted(reference.struve_h_ref), tol / 2.0, tail)
    return oracle.QuadratureResult(2.0 * half.value, 2.0 * half.abs_error_estimate,
                                   half.evaluations, half.converged, half.trace)


def _eq19_oracle(p, tol):
    # the double-series route plays the independent side for this identity
    value = bessel_generating_function(**p, tol=min(tol * 1e-2, 1e-12))
    return oracle.QuadratureResult(value, tol, 0, True)


def _eq28_oracle(p, tol):
    n, x = p["n"], p["x"]
    return oracle.integrate_real_line(
        lambda t: reference.bessel_j_ref(n, x * math.exp(-t * t)), tol)


def _eq30_oracle(p, tol):
    x = p["x"]

    def integrand(t):
        w = 1.0 + t * t
        return math.exp(-x * x / (w * w)) / (w * w)

    return oracle.integrate_real_line(integrand, tol)


def _eq02_exp_oracle(p, tol):
    nu = p["nu"]
    return oracle.integrate_half_line(lambda x: x ** (nu - 1.0) * math.exp(-x), tol)


def _eq02_rat_oracle(p, tol):
    nu = p["nu"]
    return oracle.integrate_half_line(lambda x: x ** (nu - 1.0) / (1.0 + x), tol)


def _eq31_cos_oracle(p, tol):
    x = p["x"]
    return oracle.integrate_half_line(lambda t: math.exp(-t) * math.cos(x * t), tol)


def _eq35_oracle(p, tol):
    x = p["x"]

    def integrand(t):
        # for x near -1 the product decays only like e^{-(1+x) t}, long
        # after e^{-x t} alone has overflowed, so the weight goes inside
        return reference.pseudo_trig3_closed(x * t, -t)

    return oracle.integrate_half_line(integrand, tol)


def _eq36_oracle(p, tol):
    # the weight is singular at both ends, and floats near u = 1 are too
    # sparse to resolve it there, so [1/2, 1] moves to v = 1 - u and each
    # singular end sits at 0
    a, b, x = p["alpha"], p["beta"], p["x"]
    left = oracle.integrate_finite(
        lambda u: u ** (a - 1.0) * (1.0 - u) ** (b - 1.0) * math.exp(-u * x),
        0.0, 0.5, tol / 2.0)
    right = oracle.integrate_finite(
        lambda v: v ** (b - 1.0) * (1.0 - v) ** (a - 1.0) * math.exp((v - 1.0) * x),
        0.0, 0.5, tol / 2.0)
    return oracle.QuadratureResult(
        left.value + right.value, left.abs_error_estimate + right.abs_error_estimate,
        left.evaluations + right.evaluations, True)


_MELLIN_STRIP = (("0 < nu < 1", lambda p: 0.0 < p["nu"] < 1.0),)
_UNIT_DISC = (("|x| < 1", lambda p: abs(p["x"]) < 1.0),)
_COS_SERIES = transforms.pseudo_trig_series(0, 2)
_C03_SERIES = transforms.pseudo_trig_series(0, 3)


def _closed_eq19(x, t, m):
    # the order-zero Hermite-based Tricomi function at (x^2, (-x)^m t)
    _require("bessel_generating_function", _EQ19_DOMAIN, {"m": m})
    return hermite_tricomi(0, m, x * x, (-x) ** m * t).real


def _closed_eq02_exp(nu):
    return mellin_master(exponential_series(), nu)


def _closed_eq02_rat(nu):
    return mellin_master(rational_series(), nu)


def _closed_eq31_cos(x):
    return transforms.borel_transform(_COS_SERIES).evaluate(x, tol=1e-13)


def _closed_eq35_c03(x):
    return transforms.borel_transform(_C03_SERIES).evaluate(x, tol=1e-13)


def _closed_eq36(alpha, beta, x):
    # B(a, b) 1F1(a; a+b; -x) alternates at x > 0; Kummer's transformation
    # (DLMF 13.2.39) makes it e^-x B(b, a) 1F1(b; a+b; x), whose terms are positive
    if x > 0:
        series = transforms.beta_transform(exponential_series(), beta, alpha)
        return math.exp(-x) * series.evaluate(-x, tol=1e-13)
    return transforms.beta_transform(exponential_series(), alpha, beta).evaluate(x, tol=1e-13)


CATALOG = (
    IdentityDescriptor(
        id="eq08_fresnel_bessel",
        equation="Eq. 6-8",
        description="Fresnel-weighted Bessel integral of x J_{2nu}(alpha x) "
                    "e^{i beta x^2} versus its exponential-ratio closed form",
        parameter_domain=_EQ08_DOMAIN,
        default_grid={"nu": (0.0,), "alpha": (0.5, 1.0), "beta": (1.0, 2.0)},
        default_tol=1e-5,
        closed=fresnel_bessel,
        oracle_eval=_fresnel_oracle,
    ),
    IdentityDescriptor(
        id="eq12_struve_halfline",
        equation="Eq. 12",
        description="Half-line Struve integral versus -1/(b tan(pi nu/2))",
        parameter_domain=_EQ12_DOMAIN,
        default_grid={"nu": (-1.5, -1.0, -0.5), "b": (1.0, 2.0)},
        default_tol=1e-5,
        closed=struve_halfline_integral,
        oracle_eval=_eq12_oracle,
    ),
    IdentityDescriptor(
        id="eq13_struve_moment",
        equation="Eq. 13",
        description="Whole-line moment of the Struve function versus "
                    "pi/(2^nu Gamma(1+nu))",
        parameter_domain=_EQ13_DOMAIN,
        default_grid={"nu": (0.0, 0.5, 1.0, 2.0)},
        default_tol=1e-6,
        closed=struve_moment_integral,
        oracle_eval=_eq13_oracle,
    ),
    IdentityDescriptor(
        id="eq19_bessel_generating",
        equation="Eq. 14/19",
        description="Generating function of m-strided Bessel orders versus "
                    "the order-zero Hermite-based Tricomi function",
        parameter_domain=_EQ19_DOMAIN,
        default_grid={"m": (2.0, 3.0), "x": (0.25, 0.5, 1.0, 2.0),
                      "t": (-1.0, -0.5, 0.5, 1.0)},
        default_tol=1e-8,
        closed=_closed_eq19,
        oracle_eval=_eq19_oracle,
    ),
    IdentityDescriptor(
        id="eq28_bessel_gauss_dilation",
        equation="Eq. 28",
        description="Whole-line integral of J_n(x e^{-t^2}) versus the "
                    "Gaussian dilation series",
        parameter_domain=_EQ28_DOMAIN,
        default_grid={"n": (1.0, 2.0, 3.0), "x": (0.5, 1.0, 2.0, 4.0)},
        default_tol=1e-7,
        closed=bessel_gauss_dilation,
        oracle_eval=_eq28_oracle,
    ),
    IdentityDescriptor(
        id="eq30_lorentz_gauss",
        equation="Eq. 30",
        description="Whole-line Lorentzian-dilated Gaussian versus "
                    "(pi/2) 2F2(3/4,5/4;1,3/2;-x^2)",
        parameter_domain=(("x real", lambda p: not isinstance(p["x"], complex)),),
        default_grid={"x": (0.0, 0.5, 1.0, 2.0, 3.0)},
        default_tol=1e-8,
        closed=lorentz_gauss_integral,
        oracle_eval=_eq30_oracle,
        variants={"hypergeometric": lorentz_gauss_integral,
                  "series": lorentz_gauss_series,
                  "paper-literal": lorentz_gauss_paper_literal},
    ),
    IdentityDescriptor(
        id="eq02_mellin_exponential",
        equation="Eq. 1-4",
        description="Mellin transform of exp(-x) versus Gamma(nu) from the "
                    "master-theorem evaluator",
        parameter_domain=_MELLIN_STRIP,
        default_grid={"nu": (0.25, 0.5, 0.75)},
        default_tol=1e-8,
        closed=_closed_eq02_exp,
        oracle_eval=_eq02_exp_oracle,
    ),
    IdentityDescriptor(
        id="eq02_mellin_rational",
        equation="Eq. 1-4",
        description="Mellin transform of 1/(1+x) versus pi/sin(pi nu) from "
                    "the master-theorem evaluator",
        parameter_domain=_MELLIN_STRIP,
        default_grid={"nu": (0.25, 0.5, 0.75)},
        default_tol=1e-8,
        closed=_closed_eq02_rat,
        oracle_eval=_eq02_rat_oracle,
    ),
    IdentityDescriptor(
        id="eq31_borel_cosine",
        equation="Eq. 31-33",
        description="Exponential moment of cos(x t) versus the factorial-"
                    "multiplied cosine series (geometric form 1/(1+x^2))",
        parameter_domain=_UNIT_DISC,
        default_grid={"x": (0.2, 0.5, 0.8)},
        default_tol=1e-8,
        closed=_closed_eq31_cos,
        oracle_eval=_eq31_cos_oracle,
    ),
    IdentityDescriptor(
        id="eq35_borel_pseudo_trig3",
        equation="Eq. 35",
        description="Exponential moment of the 3-sected alternating "
                    "exponential versus the geometric form 1/(1+x^3)",
        parameter_domain=_UNIT_DISC,
        default_grid={"x": (0.2, 0.5, 0.8)},
        default_tol=1e-8,
        closed=_closed_eq35_c03,
        oracle_eval=_eq35_oracle,
    ),
    IdentityDescriptor(
        id="eq36_beta_exponential",
        equation="Eq. 36-39",
        description="Euler-kernel average of exp(-u x) versus the "
                    "Beta-weighted moment series",
        parameter_domain=(("alpha > 0", lambda p: p["alpha"] > 0),
                          ("beta > 0", lambda p: p["beta"] > 0)),
        default_grid={"alpha": (1.0, 2.0), "beta": (1.0, 3.0), "x": (0.0, 1.0, 3.0)},
        default_tol=1e-8,
        closed=_closed_eq36,
        oracle_eval=_eq36_oracle,
    ),
)


def get_identity(identity_id: str) -> IdentityDescriptor:
    for descriptor in CATALOG:
        if descriptor.id == identity_id:
            return descriptor
    raise KeyError(f"unknown identity {identity_id!r}")
