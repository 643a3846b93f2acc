"""Cataloged integral identities: closed forms and their oracle routes.

Each identity pairs a closed-form (or single-series) evaluation built on
the series kernel with an independent quadrature route built on the oracle,
and is exposed through a machine-readable catalog entry carrying its
equation tag, parameter domain, default grid, and default tolerance.

Identity evaluations are independent across grid points and may run in
parallel; the module-level series keep their plans and edits once made.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Callable

from . import oracle, reference, transforms, umbral
from .errors import ConvergenceError, DomainError, QuadratureError, overflow_raises
from .specfun import (
    DEFAULT_TOL,
    as_integer,
    b_nu,
    gamma,
    hermite_tricomi,
    hyper_pfq,
)
from .summation import _LOG_TINY, CONSECUTIVE_SMALL, DEFAULT_CAP, sum_series
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
    # tan is taken at an angle formed exactly, since nu + 2 and nu + 1 are
    # exact where they are used (Sterbenz): tan(pi nu/2) = tan(pi (nu+2)/2)
    # = -1/tan(pi (nu+1)/2); a float quotient past the double range is inf,
    # not an OverflowError
    if -1.5 <= nu < -0.5:
        value = math.tan(0.5 * math.pi * (nu + 1.0)) / b
    else:
        denominator = b * math.tan(0.5 * math.pi * (nu + 2.0 if nu < -1.5 else nu))
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
    summed directly as sum_n t^n/n! J_{m n}(2x).

    The orders come from one backward recurrence (``_strided_bessel_j``),
    taken up to the term n where the bound |t|^n/n! |x|^(mn)/(mn)! of the
    terms has been below tol for CONSECUTIVE_SMALL terms in a row.  Where
    the stopping rule has not fired by then, the recurrence runs again to
    twice as many terms; an order whose bound is 0 in floats adds exactly 0.
    """
    _require("bessel_generating_function", _EQ19_DOMAIN, {"m": m})
    if not math.isfinite(x):
        raise DomainError(f"bessel_generating_function needs a finite x, got {x!r}")
    value, _ = sum_series(_generating_terms(x, t, int(m), tol), tol)
    return value


# log(|x|^k / k!), the log of the bound |J_k(2x)| <= |x|^k / k! (DLMF 10.14.4)
def _log_bound(log_x: float, k) -> float:
    return k * log_x - math.lgamma(k + 1.0)


# below _LOG_ZERO the bound rounds to 0 in floats; from _LOG_TINY down it is
# subnormal
_LOG_ZERO = math.log(math.ulp(0.0))


def _generating_terms(x: float, t, m: int, tol: float):
    """The terms t^n/n! J_{mn}(2x) of bessel_generating_function, n = 0, 1, ..."""
    if x == 0.0:
        yield 1.0   # J_0(0); every other order is 0 at x = 0
        yield from repeat(0.0)
    log_x = math.log(abs(x))
    log_t = math.log(abs(t)) if t else -math.inf
    log_tol = math.log(tol) if tol > 0 else -math.inf
    # the top from the bound of the terms, with t and tol in it: a top from
    # e|x| alone leaves the rule unfired, and reruns, on most inputs
    top = small = 0
    while small < CONSECUTIVE_SMALL and m * top < DEFAULT_CAP:
        log_j = _log_bound(log_x, m * (top + 1))
        if log_j < _LOG_ZERO:
            break
        top += 1
        small = small + 1 if top * log_t - math.lgamma(top + 1.0) + log_j <= log_tol else 0
    weight, n = 1.0, 0
    while True:
        for j in _strided_bessel_j(x, m, top)[n:]:
            yield weight * j
            n += 1
            weight *= t / n
        if _log_bound(log_x, m * n) < _LOG_ZERO:
            yield from repeat(0.0)   # and so is every higher order
        top *= 2


def _strided_bessel_j(x: float, m: int, top: int) -> list:
    """[J_0(2x), J_m(2x), ..., J_{m top}(2x)] for x != 0, from one backward
    (Miller) recurrence w_(k-1) = (k/x) w_k - w_(k+1) (DLMF 3.6(vi)),
    normalised by J_0 + 2 (J_2 + J_4 + ...) = 1, the generating function
    DLMF 10.12.1 at t = 1.

    It starts from w_(N+1) = 0 at the first N past max(m top, e|x|) where the
    bound B_N = |x|^N/N! is below e^-37, the relative error it leaves in the
    normalisation, and e^-20 times B_(m top), or times the smallest float
    where B_(m top) is 0 in floats: the relative error at order k is about
    (B_N/B_k)^2.  w_N = B_N, kept in the normal range, starts the w near the
    J they stand for, but past |x| ~ 1,000 they outgrow the double range:
    every w so far is divided by 2^900, exactly, whenever one passes it.
    """
    log_x = math.log(abs(x))
    target = min(max(_log_bound(log_x, m * top), _LOG_ZERO) - 20.0, -37.0)
    n = max(m * top, int(math.e * abs(x))) + 1
    log_b = _log_bound(log_x, n)
    while log_b > target and n <= DEFAULT_CAP:
        n += 1
        log_b += log_x - math.log(n)
    if n > DEFAULT_CAP:
        raise ConvergenceError(f"the Bessel recurrence at x={x!r} needs more than "
                               f"{DEFAULT_CAP} orders")
    w, w_next = math.exp(max(log_b, _LOG_TINY)), 0.0
    ws = [w]
    for k in range(n, 0, -1):
        w, w_next = k * w / x - w_next, w
        if w > 2.0 ** 900 or w < -2.0 ** 900:
            ws, w, w_next = [v / 2.0 ** 900 for v in ws], w / 2.0 ** 900, w_next / 2.0 ** 900
        ws.append(w)
    ws.reverse()
    norm = ws[0] + 2.0 * sum(ws[2::2])
    if not math.isfinite(norm):
        raise ConvergenceError(f"the Bessel recurrence at x={x!r} overflowed")
    return [w / norm for w in ws[:m * top + 1:m]]


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


# The oracles of Eq. 6-8, 12 and 13 hand the oscillatory part of their
# integrand beyond x0 to the oracle as a ContourTail: it is the trace of a
# function analytic in the upper half-plane, whose integral is taken up the
# vertical line from x0 instead, where it decays exponentially.  The line
# needs no settled wave, so where the frequency is a parameter (Eq. 6-8
# and 12) and above 1, x0 lies at the fixed phase 1 + pi of the wave: the
# head then holds about half a period at any frequency, and Eq. 6-8's
# envelope stays finite.


def _log_hankel_bound(nu: float, r: float) -> float:
    """The log of a bound of |H1_nu(z)| e^(Im z) for real nu over Im z >= 0,
    Re z > 0 and |z| >= r > (|nu| - 1/2)/2.

    Hankel's integral (Watson 7.2) at the order |nu|, which has the same
    |H1| (DLMF 10.4.6), gives |H1_nu(z)| <= sqrt(2/(pi |z|)) e^(-Im z)
    max(1, (1 - c/(2|z|))^-(|nu|+1/2)) with c = |nu| - 1/2: the factor
    (1 + i u/(2z))^c of its integrand is at most e^(c u/(2|z|)) in size for
    c >= 0, and at most 1 for c < 0.  Both factors fall as |z| grows.
    """
    c = abs(nu) - 0.5
    return 0.5 * math.log(2.0 / (math.pi * r)) - min(0.0, (abs(nu) + 0.5)
                                                      * math.log1p(-c / (2.0 * r)))


def _envelope_term(log_a: float, r: float) -> tuple:
    """The envelope term (e^log_a, r), raised to the smallest normal float
    where e^log_a is below it: a larger a still bounds."""
    return max(math.exp(log_a), sys.float_info.min), r


# Each oracle integrand below behaves like x^p sum_k c_k x^(s k) at an end
# of an interval (DLMF 10.2.2, 11.2.1, Taylor series), which bisection
# meets by halving the end panel again and again.  So, as QUADPACK's QAWS
# integrates an algebraic end weight exactly, the oracle integrates f less
# the first terms and adds their integral exactly.  The coefficients come
# from math.gamma, math.lgamma and math.factorial, not the series kernels.


def _power_integral(r: float, lo: float, hi: float) -> float:
    """The integral of x^(r-1) over [lo, hi], 0 <= lo < hi <= infinity,
    where it converges: r > 0 at lo = 0 and r < 0 at hi = infinity."""
    return ((hi ** r if hi < math.inf else 0.0) - (lo ** r if lo > 0.0 else 0.0)) / r


def _less_power_terms(f, lo: float, hi: float, p1: float, s: int, coefficients: tuple,
                      tol: float):
    """f on [lo, hi] less the terms sum_k c_k x^(p + s k) of its expansion
    at 0 (s > 0) or at infinity (s < 0), and (their exact integral over
    [lo, hi], eps sum_k |c_k integral x^(p + s k)|, which bounds its rounding).

    p comes as p1 = p + 1, and x^p is formed as x^p1 / x, as f must form
    it: at a tiny p1 (a Mellin moment near nu = 0), p1 - 1 keeps few of its
    digits.  Far from the end the terms can outgrow f by many digits (the
    Beta kernel at a large x and beta), so a term is taken out only while
    that rounding stays within tol/200, which keeps the panels' rounding
    floors, 50 eps of what they integrate, within a quarter of ``tol``; the
    first term, the end's own mass, always is.
    """
    integrals = [c * _power_integral(p1 + s * k, lo, hi) for k, c in enumerate(coefficients)]
    roundings = [sys.float_info.epsilon * r for r in accumulate(map(abs, integrals))]
    kept = 1 + sum(r <= tol / 200.0 for r in roundings[1:])
    top, *rest = coefficients[kept - 1::-1]

    def less_terms(x):
        xs = x ** s
        series = top
        for c in rest:
            series = series * xs + c
        return f(x) - x ** p1 / x * series

    return less_terms, (sum(integrals[:kept]), roundings[kept - 1])


def _plus_terms(result, *terms):
    """``result`` with the exact integrals of ``terms`` added to its value and
    their rounding bounds to its error estimate."""
    return oracle.QuadratureResult(
        result.value + sum(value for value, _ in terms),
        result.abs_error_estimate + sum(rounding for _, rounding in terms),
        result.evaluations, result.converged)


@overflow_raises(QuadratureError)
def _fresnel_oracle(p, tol):
    # in s = x^2 the integrand is g(s) = 1/2 J_{2nu}(alpha sqrt(s)) e^{i beta s}.
    # At s = 0 it is s^nu sum_n d_n s^n, the series of J_{2nu} (DLMF 10.2.2)
    # times that of e^{i beta s}; the head takes out d_0 and d_1.
    # d_0 = (alpha/2)^(2 nu) / (2 Gamma(2 nu + 1)) is formed from its log,
    # which underflows, not overflows, at a large nu.  Beyond s0 all of g
    # goes up the line s0 + i t.  There, by DLMF 10.14.4 with
    # Im sqrt(s) <= sqrt(t/2), |g| <= d_0 |s|^nu e^(alpha sqrt(t/2) - beta t);
    # |s|^nu <= (s0 + t)^nu <= (nu/(e delta))^nu e^(delta (s0 + t)) at
    # delta = beta/4, and alpha sqrt(t/2) <= alpha^2/(2 beta) + beta t/4, so
    # one term with rate beta/2 bounds it; beta s0 <= 1 + pi keeps it
    # finite.  The head's J is the real part of the line's complex-argument
    # J, the float J of the same AMOS call, so one binding of the order
    # serves both
    nu, alpha, beta = p["nu"], p["alpha"], p["beta"]
    bessel_j = reference.bessel_j_complex_ref(2.0 * nu)

    def integrand(s):
        return cmath.rect(0.5 * bessel_j(alpha * math.sqrt(s)).real, beta * s)

    s0 = min(1.0 + math.pi / beta, (1.0 + math.pi) / beta)
    turn = cmath.rect(0.5, beta * s0 + 0.5 * math.pi)   # i e^(i beta s0) / 2

    def line(t):
        return turn * math.exp(-beta * t) * bessel_j(alpha * cmath.sqrt(complex(s0, t)))

    log_d0 = 2.0 * nu * math.log(0.5 * alpha) - math.lgamma(2.0 * nu + 1.0)
    d0 = 0.5 * math.exp(log_d0)
    d1 = d0 * complex(-0.25 * alpha * alpha / (2.0 * nu + 1.0), beta)
    head, terms = _less_power_terms(integrand, 0.0, s0, nu + 1.0, 1, (d0, d1), 0.25 * tol)
    log_power = nu * math.log(4.0 * nu / (math.e * beta)) if nu else 0.0
    envelope = (_envelope_term(math.log(0.5) + log_d0 + log_power + 0.25 * beta * s0
                               + 0.5 * alpha * alpha / beta, 0.5 * beta),)
    tail = oracle.ContourTail(s0, line, envelope)
    return _plus_terms(oracle.integrate_half_line(head, tol, tail), terms)


def _struve_k_terms(nu):
    """k_0 and k_1 of K_nu(z) ~ sum_j k_j z^(nu-1-2j) as z -> infinity,
    k_j = Gamma(j+1/2) 2^(2j+1-nu) / (pi Gamma(nu+1/2-j)) (DLMF 11.6.1), so
    k_1 = 2 (nu-1/2) k_0.  1/Gamma(nu+1/2) is taken as
    (nu+1/2)(nu+3/2)/Gamma(nu+5/2), finite on -2 < nu < 0 and exactly 0 at
    nu = -1/2 and -3/2, where K_nu = 0."""
    k0 = (2.0 ** (1.0 - nu) * (nu + 0.5) * (nu + 1.5)
          / (math.sqrt(math.pi) * math.gamma(nu + 2.5)))
    return k0, 2.0 * (nu - 0.5) * k0


@overflow_raises(QuadratureError)
def _eq12_oracle(p, tol):
    # H_nu = Y_nu + K_nu (DLMF 11.2.5): Y_nu(b x) = Im H1_nu(b x) oscillates,
    # with half-period pi/b, and K_nu(b x) is the smooth rest.  In z = b x
    # the head takes out two terms c_k z^(nu+1+2k) of H_nu(z) at 0,
    # c_k = (-1)^k 2^-(nu+1+2k) / (Gamma(k+3/2) Gamma(k+nu+3/2)) (DLMF 11.2.1),
    # of which for nu < -1 the first is the head's singularity; at k = 0,
    # 1/Gamma(nu+3/2) is taken as (nu+3/2)/Gamma(nu+5/2), finite on
    # -2 < nu < 0 and 0 at nu = -3/2.  The smooth part takes out two terms
    # of K_nu(z) at infinity, whose fractional power z^(nu-1) the fold
    # x = x0/u would leave at u = 0.  Neither set of coefficients depends
    # on b; their integrals and tolerances are in z, so divided (multiplied)
    # by b.  The integral of Y_nu(b x) over [x0, infinity) is
    # Re of that of H1_nu(b (x0 + i y)) over y > 0, whose integrand is at
    # most e^(-b y) times the bound of _log_hankel_bound at b x0 = 1 + pi
    # in size
    nu, b = p["nu"], p["b"]
    x0 = (1.0 + math.pi) / b
    c0 = (nu + 1.5) / (math.sqrt(math.pi) * 2.0 ** nu * math.gamma(nu + 2.5))
    c1 = -0.5 ** (nu + 3.0) / (0.75 * math.sqrt(math.pi) * math.gamma(nu + 2.5))
    struve_h, _, struve_k, hankel1 = reference.struve_ref(nu)
    z0 = b * x0
    head, head_terms = _less_power_terms(struve_h, 0.0, z0, nu + 2.0, 2, (c0, c1),
                                         0.25 * tol * b)
    smooth, smooth_terms = _less_power_terms(struve_k, z0, math.inf, nu, -2,
                                             _struve_k_terms(nu), 0.25 * tol * b)
    tail = oracle.ContourTail(x0, lambda y: hankel1(complex(z0, b * y)).real,
                              (_envelope_term(_log_hankel_bound(nu, z0), b),),
                              smooth=lambda x: smooth(b * x))
    return _plus_terms(oracle.integrate_half_line(lambda x: head(b * x), tol, tail),
                       *((value / b, rounding / b) for value, rounding in
                         (head_terms, smooth_terms)))


# The integrands of Eq. 13, 28 and 30 are even, so their whole-line
# integrals are the half-line ones of twice the integrand, each node |x|
# evaluated once.  Doubling is exact in binary floating point, so every
# panel, envelope, cut and estimate is exactly twice the half-line one's at
# half the tolerance.
def _eq13_oracle(p, tol):
    # as eq12, with the weight z^-(nu+1), at most x0^-(nu+1) in size on the
    # line x0 + i y; Y_nu oscillates beyond x ~ nu
    nu = p["nu"]
    power = -(nu + 1.0)
    struve_h, _, struve_k, hankel1 = reference.struve_ref(nu)
    x0 = max(nu, 1.0) + math.pi

    def doubled(ref):
        return lambda x: 2.0 * (x ** power * ref(x))

    def line(y):
        z = complex(x0, y)
        return 2.0 * (z ** power * hankel1(z)).real

    a, r = _envelope_term(power * math.log(x0) + _log_hankel_bound(nu, x0), 1.0)
    tail = oracle.ContourTail(x0, line, ((2.0 * a, r),), smooth=doubled(struve_k))
    return oracle.integrate_half_line(doubled(struve_h), tol, tail)


def _eq19_oracle(p, tol):
    # the double-series route plays the independent side for this identity
    value = bessel_generating_function(**p, tol=min(tol * 1e-2, 1e-12))
    return oracle.QuadratureResult(value, tol, 0, True)


def _eq28_oracle(p, tol):
    bessel_j, x = reference.bessel_j_ref(p["n"]), p["x"]
    return oracle.integrate_half_line(lambda t: 2.0 * bessel_j(x * math.exp(-t * t)), tol)


def _eq30_oracle(p, tol):
    x = p["x"]

    def doubled(t):
        w = 1.0 + t * t
        return 2.0 * (math.exp(-x * x / (w * w)) / (w * w))

    return oracle.integrate_half_line(doubled, tol)


# The Mellin oracles take out the first Taylor terms of g in x^(nu-1) g(x)
# on a head [0, x0], the first of which holds the mass 1/nu that GK15's
# nodes see only in part at a tiny nu, and give the head and the tail
# half of tol each.  The rational one splits at 1 and also takes out four
# terms of x^(nu-2)/(1+1/x) beyond 1, whose first holds 1/(1-nu).  The
# exponential one splits at 4, where six terms of e^-x leave a head that
# one GK15 panel resolves, and sums its tail (4+t)^(nu-1) e^(-4-t), at most
# 4^(nu-1) e^-4, as an ExponentialTail, not folded: one GK15 panel over the
# fold's layer e^(-1/u) at u = 0 was 24 times its estimate off at nu = 0.527.
_EXP_SPLIT = 4.0
_EXP_TAYLOR = (1.0, -1.0, 1.0 / 2.0, -1.0 / 6.0, 1.0 / 24.0, -1.0 / 120.0)
_ALTERNATING = (1.0, -1.0, 1.0, -1.0)


def _eq02_exp_oracle(p, tol):
    nu, x0 = p["nu"], _EXP_SPLIT
    head, terms = _less_power_terms(lambda x: x ** nu / x * math.exp(-x), 0.0, x0, nu, 1,
                                    _EXP_TAYLOR, 0.5 * tol)
    head = oracle.integrate_finite(head, 0.0, x0, 0.5 * tol)
    tail = oracle.ExponentialTail(((x0 ** nu / x0 * math.exp(-x0), 1.0),))
    return _plus_terms(_joined_with(head, lambda: oracle.integrate_half_line(
        lambda t: (x0 + t) ** nu / (x0 + t) * math.exp(-x0 - t), 0.5 * tol, tail)), terms)


def _eq02_rat_oracle(p, tol):
    nu = p["nu"]

    def f(x):
        return x ** nu / x / (1.0 + x)

    head, head_terms = _less_power_terms(f, 0.0, 1.0, nu, 1, _ALTERNATING, 0.5 * tol)
    tail, tail_terms = _less_power_terms(f, 1.0, math.inf, nu - 1.0, -1, _ALTERNATING,
                                         0.5 * tol)
    # integrate_half_line splits at x = 1, so the jump there is never sampled
    return _plus_terms(oracle.integrate_half_line(
        lambda x: head(x) if x < 1.0 else tail(x), tol), head_terms, tail_terms)


# The Borel integrands e^-t g(x t) are sums of exponentials, each term
# summed as an ExponentialTail of its own rate.
def _eq31_cos_oracle(p, tol):
    x = p["x"]
    return oracle.integrate_half_line(lambda t: math.exp(-t) * math.cos(x * t), tol,
                                      oracle.ExponentialTail(((1.0, 1.0),)))


_SQRT3_HALF = math.sqrt(3.0) / 2.0


def _eq35_oracle(p, tol):
    # e^-t c_0(x t) = (e^(-(1+x) t) + 2 e^(-(1-x/2) t) cos(sqrt(3) x t / 2)) / 3,
    # each term formed whole, e^(-r t), which e^(-x t) alone would overflow
    # long before for x near -1, and each summed at tol/2 at its own rate
    # r: one pair for the sum in the slow rate 1 + x was 3e8 times its
    # estimate off at x = -0.995
    x = p["x"]
    r1, r2, w = 1.0 + x, 1.0 - 0.5 * x, _SQRT3_HALF * x
    first = oracle.integrate_half_line(lambda t: math.exp(-r1 * t) / 3.0, 0.5 * tol,
                                       oracle.ExponentialTail(((1.0 / 3.0, r1),)))
    return _joined_with(first, lambda: oracle.integrate_half_line(
        lambda t: 2.0 / 3.0 * math.exp(-r2 * t) * math.cos(w * t), 0.5 * tol,
        oracle.ExponentialTail(((2.0 / 3.0, r2),))))


# terms of u^(a-1) (1-u)^(b-1) e^(-u x) taken out at each end of the Beta kernel
_BETA_TERMS = 6


def _beta_end_coefficients(b, x):
    """The Taylor coefficients at u = 0 of (1-u)^(b-1) e^(-u x), the factor
    that multiplies u^(a-1) in the Beta kernel: the Cauchy product of
    (1-u)^(b-1) = sum_j (1-b)(2-b)...(j-b)/j! u^j and e^(-u x)."""
    binomial, exponential = [], []
    rising = 1.0
    for j in range(_BETA_TERMS):
        binomial.append(rising / math.factorial(j))
        exponential.append((-x) ** j / math.factorial(j))
        rising *= j + 1.0 - b
    return tuple(sum(binomial[j] * exponential[k - j] for j in range(k + 1))
                 for k in range(_BETA_TERMS))


@overflow_raises(QuadratureError)
def _eq36_oracle(p, tol):
    # the weight is singular at both ends, and floats near u = 1 are too
    # sparse to resolve it there, so [1/2, 1] moves to v = 1 - u and each
    # singular end sits at 0.  Each piece takes out the terms of its series
    # at 0.  The right one keeps e^((v-1) x) inside and e^-x only in the
    # coefficients: a factor e^-x outside its integral would scale its error
    # too, e^8.8 = 6,600 times at x = -8.8
    a, b, x = p["alpha"], p["beta"], p["x"]
    left, left_terms = _less_power_terms(
        lambda u: u ** a / u * (1.0 - u) ** (b - 1.0) * math.exp(-u * x),
        0.0, 0.5, a, 1, _beta_end_coefficients(b, x), tol / 2.0)
    right, right_terms = _less_power_terms(
        lambda v: v ** b / v * (1.0 - v) ** (a - 1.0) * math.exp((v - 1.0) * x),
        0.0, 0.5, b, 1,
        tuple(math.exp(-x) * c for c in _beta_end_coefficients(a, -x)), tol / 2.0)
    left = oracle.integrate_finite(left, 0.0, 0.5, tol / 2.0)
    return _plus_terms(_joined_with(left, lambda: oracle.integrate_finite(
        right, 0.0, 0.5, tol / 2.0)), left_terms, right_terms)


def _joined(left, right):
    """The sum of two piece results, converged as ``right`` is."""
    return oracle.QuadratureResult(
        left.value + right.value, left.abs_error_estimate + right.abs_error_estimate,
        left.evaluations + right.evaluations, right.converged)


def _joined_with(left, integrate):
    """``left`` joined with the result of ``integrate()``; when that raises,
    its partial result holds ``left`` too."""
    try:
        return _joined(left, integrate())
    except QuadratureError as exc:
        exc.partial = _joined(left, exc.partial)
        raise


_MELLIN_STRIP = (("0 < nu < 1", lambda p: 0.0 < p["nu"] < 1.0),)
_UNIT_DISC = (("|x| < 1", lambda p: abs(p["x"]) < 1.0),)
# the Borel edits of cos and of the 3-sected alternating exponential, whose
# sums are 1/(1+x^2) and 1/(1+x^3): fixed laws, built once
_BOREL_COS_SERIES = transforms.borel_transform(transforms.pseudo_trig_series(0, 2))
_BOREL_C03_SERIES = transforms.borel_transform(transforms.pseudo_trig_series(0, 3))


@overflow_raises(DomainError)
def _closed_eq19(x, t, m):
    # the order-zero Hermite-based Tricomi function at (x^2, (-x)^m t)
    _require("bessel_generating_function", _EQ19_DOMAIN, {"m": m})
    return hermite_tricomi(0, m, x * x, (-x) ** m * t).real


def _closed_eq02_exp(nu):
    return mellin_master(exponential_series(), nu)


def _closed_eq02_rat(nu):
    return mellin_master(rational_series(), nu)


def _closed_eq31_cos(x):
    return _BOREL_COS_SERIES.evaluate(x, tol=1e-13)


def _closed_eq35_c03(x):
    return _BOREL_C03_SERIES.evaluate(x, tol=1e-13)


def _closed_eq36(alpha, beta, x):
    # B(a, b) 1F1(a; a+b; -x), by Kummer's transformation at x > 0
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
        variants={"series": lorentz_gauss_series,
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
