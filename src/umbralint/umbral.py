"""Operational core: Gamma-ratio moment laws, their series, Mellin machinery.

A moment law phi is kept in Gamma-ratio form, which fixes its analytic
continuation.  A series is one law together with a stride, an offset and a
geometric factor: term k is law(k) geometric^k x^(stride k + offset).  The
Mellin evaluator turns such a series into a closed form in one step, the
transforms of the ``transforms`` module are edits of its Gamma ratio, and
the Mellin-multiplier engine applies a dilation-kernel symbol F(x d/dx)
term by term.

All types are immutable values and all operations are pure.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from itertools import count

from .errors import DomainError, KernelDomainError, PoleError, StripError
from .specfun import DEFAULT_TOL, as_integer, gamma, gamma_sign, log_gamma
from .summation import sum_series

__all__ = [
    "GammaRatioSequence",
    "CoefficientSeries",
    "MellinMultiplier",
    "MultiplierKind",
    "phi_eval",
    "mellin_master",
    "mellin_master_strided",
    "apply_mellin_multiplier",
    "constant_phi",
    "factorial_phi",
    "bessel_phi",
    "struve_phi",
    "bessel_series",
    "struve_series",
    "exponential_series",
    "rational_series",
    "gaussian_series",
    "bessel_power_series",
    "monomial_spec",
    "gaussian_kernel",
    "lorentz_power",
    "borel_factorial",
    "beta_kernel",
]

# Tolerance used when deciding whether a real Gamma argument sits on a pole.
_POLE_TOL = 1e-12

# A term whose log magnitude exceeds this is not a finite double.
_LOG_MAX = math.log(sys.float_info.max)

# The factor Gamma(1 + k) that turns a series coefficient into its moment.
_FACTORIAL = ((1.0, 1.0),)


@dataclass(frozen=True)
class GammaRatioSequence:
    """Moment functional phi(s) = scale * prod Gamma(shift_i + slope_i s)
    / prod Gamma(shift_j + slope_j s), with positive slopes.

    The Gamma-ratio form guarantees a well-defined analytic continuation,
    which the Mellin evaluator relies on.  phi(0) must be finite and
    nonzero.  The form is canonical: factors common to numerator and
    denominator cancel and the rest are sorted, so equal laws compare equal.
    """

    scale: complex = 1.0
    numer: tuple = ()
    denom: tuple = ()

    def __post_init__(self):
        numer = [(float(s), float(m)) for s, m in self.numer]
        denom = [(float(s), float(m)) for s, m in self.denom]
        if numer and denom:
            for factor in tuple(numer):
                if factor in denom:
                    numer.remove(factor)
                    denom.remove(factor)
        numer.sort()
        denom.sort()
        object.__setattr__(self, "numer", tuple(numer))
        object.__setattr__(self, "denom", tuple(denom))
        if self.scale == 0:
            raise DomainError("GammaRatioSequence scale must be nonzero")
        for shift, slope in self.numer + self.denom:
            if slope <= 0:
                raise DomainError("GammaRatioSequence slopes must be positive")
        sign, log_mag = _log_phi(self, 0.0)
        if sign == 0 or log_mag > _LOG_MAX or not cmath.isfinite(self.scale):
            raise DomainError("GammaRatioSequence must have finite nonzero phi(0)")

    def __call__(self, s):
        return phi_eval(self, s)

    def times(self, scale=1.0, numer=(), denom=()) -> GammaRatioSequence:
        """This law multiplied by scale * prod Gamma(numer) / prod Gamma(denom)."""
        return GammaRatioSequence(self.scale * scale, self.numer + tuple(numer),
                                  self.denom + tuple(denom))


def _classify_pole(arg: float):
    """Return the pole index n (arg ~ -n) or None."""
    near = round(arg)
    if near <= 0 and abs(arg - near) <= _POLE_TOL * max(1.0, abs(arg)):
        return int(-near)
    return None


def _log_phi(phi: GammaRatioSequence, s: float):
    """(sign, log magnitude) of the Gamma factors of phi at real s.

    The scale is left out.  A denominator factor at a Gamma pole makes the
    sign 0 unless a numerator factor is simultaneously at a pole, in which
    case the finite residue-ratio limit is taken.  An uncancelled numerator
    pole raises PoleError with the factor index.
    """
    sign = 1.0
    log_mag = 0.0
    poles = None  # built only when a factor sits on a pole
    for side, factors in enumerate((phi.numer, phi.denom)):
        for idx, (shift, slope) in enumerate(factors):
            arg = shift + slope * s
            if arg < 0.5:
                n = _classify_pole(arg)
                if n is not None:
                    if poles is None:
                        poles = ([], [])
                    poles[side].append((idx, n, slope))
                    continue
                sign *= gamma_sign(arg)
            log_mag += -math.lgamma(arg) if side else math.lgamma(arg)
    if poles is None:
        return sign, log_mag

    num_poles, den_poles = poles
    if len(num_poles) > len(den_poles):
        idx, n, _ = num_poles[len(den_poles)]
        raise PoleError(-n, factor_index=idx,
                        message=f"uncancelled numerator Gamma pole in factor {idx} at s={s}")
    if len(den_poles) > len(num_poles):
        return 0.0, 0.0
    for (_, n1, m1), (_, n2, m2) in zip(num_poles, den_poles):
        # Gamma(arg) ~ (-1)^n / (n! * slope * ds) near a simple pole, so the
        # paired ratio tends to a finite limit.
        if (n1 + n2) % 2:
            sign = -sign
        log_mag += math.log(m2 / m1) + math.lgamma(n2 + 1.0) - math.lgamma(n1 + 1.0)
    return sign, log_mag


def phi_eval(phi: GammaRatioSequence, s) -> complex:
    """Evaluate the continued moment sequence at s (see ``_log_phi`` for poles)."""
    if isinstance(s, complex) and s.imag != 0.0:
        total = cmath.log(complex(phi.scale))
        for shift, slope in phi.numer:
            total += log_gamma(shift + slope * s)
        for shift, slope in phi.denom:
            total -= log_gamma(shift + slope * s)
        return cmath.exp(total)
    sign, log_mag = _log_phi(phi, s.real if isinstance(s, complex) else float(s))
    return complex(phi.scale) * sign * math.exp(log_mag)


# -- cataloged moment sequences ---------------------------------------------


def constant_phi() -> GammaRatioSequence:
    """phi(s) = 1, the moment law of exp(-x)."""
    return GammaRatioSequence()


def factorial_phi() -> GammaRatioSequence:
    """phi(s) = Gamma(1+s), the moment law of 1/(1+x)."""
    return GammaRatioSequence(numer=_FACTORIAL)


def bessel_phi() -> GammaRatioSequence:
    """phi(s) = 1/Gamma(1+s), the Bessel moment law."""
    return GammaRatioSequence(denom=_FACTORIAL)


def struve_phi(nu: float) -> GammaRatioSequence:
    """phi(s) = Gamma(s+1) / (Gamma(s+3/2) Gamma(s+nu+3/2))."""
    return GammaRatioSequence(numer=_FACTORIAL,
                              denom=((1.5, 1.0), (nu + 1.5, 1.0)))


# -- the series type ----------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSeries:
    """f(x) = sum_k law(k) geometric^k x^(stride k + offset).

    The law is a Gamma ratio; signs, argument scales that no Gamma ratio
    can express (4^-k), overall constants and 1/k! all live in ``law`` and
    ``geometric``.  ``terms`` truncates the series to a polynomial (terms=1
    is a monomial).  x is real; a negative x needs an integer offset.
    """

    law: GammaRatioSequence
    stride: int = 1
    offset: float = 0.0
    geometric: complex = 1.0
    terms: int | None = None

    def __post_init__(self):
        if not isinstance(self.law, GammaRatioSequence):
            raise DomainError("CoefficientSeries law must be a GammaRatioSequence")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise DomainError("CoefficientSeries stride must be a positive integer")
        if self.geometric == 0:
            raise DomainError("CoefficientSeries geometric factor must be nonzero")
        if self.terms is not None and self.terms < 1:
            raise DomainError("CoefficientSeries needs at least one term")

    def coefficient(self, k: int) -> complex:
        """Coefficient of x^(stride k + offset)."""
        if self.terms is not None and k >= self.terms:
            return complex(0.0)
        return phi_eval(self.law, float(k)) * self.geometric ** k

    def coefficients(self, n: int):
        """The first n coefficients as a list."""
        return [self.coefficient(k) for k in range(n)]

    def evaluate(self, x: float, tol: float = DEFAULT_TOL) -> complex:
        """Sum the series at x under the shared stopping rule."""
        return _sum_terms(self, x, tol)


def _sum_terms(series: CoefficientSeries, x: float, tol: float,
               multiplier: MellinMultiplier | None = None) -> complex:
    """sum_k law(k) geometric^k F(a_k) x^a_k with a_k = stride k + offset.

    F is the multiplier's symbol, or 1 without one.  Terms are assembled in
    log space, so factorially large pieces (a Borel-transformed law, the
    exponential-moment symbol) cannot overflow against factorially small
    ones.  A term beyond the double range ends the sum as a non-finite term.
    """
    m, p, law = series.stride, series.offset, series.law
    if multiplier is not None:
        multiplier._check(p)  # k = 0 is the smallest exponent reached
    if x == 0:
        if p > 0:
            return complex(0.0)
        if p < 0:
            raise DomainError("series with negative offset power at x = 0")
        value = series.coefficient(0)
        return value * multiplier.value(0.0) if multiplier is not None else value
    if x < 0 and p != int(p):
        raise DomainError("negative x needs an integer offset power")

    log_x = math.log(abs(x))
    g, scale = series.geometric, law.scale
    step_log = math.log(abs(g)) + m * log_x
    step_sign = g / abs(g)
    log0 = math.log(abs(scale)) + p * log_x
    sign0 = scale / abs(scale)
    if x < 0:
        step_sign = -step_sign if m % 2 else step_sign
        sign0 = -sign0 if int(p) % 2 else sign0
    has_gamma = bool(law.numer or law.denom)

    def terms():
        sign = sign0
        for k in count() if series.terms is None else range(series.terms):
            log_mag = log0 + k * step_log
            term_sign = sign
            sign *= step_sign
            if has_gamma:
                gamma_sign_k, log_gamma_k = _log_phi(law, k)
                if gamma_sign_k == 0.0:
                    yield 0.0
                    continue
                term_sign *= gamma_sign_k
                log_mag += log_gamma_k
            if multiplier is not None:
                log_mag += multiplier.log_value(m * k + p)
            yield term_sign * (math.exp(log_mag) if log_mag <= _LOG_MAX else math.inf)

    value, _ = sum_series(terms(), tol)
    return complex(value)


# -- cataloged series ---------------------------------------------------------


def bessel_series(n: int) -> CoefficientSeries:
    """Series evaluating to J_n(2x) as a function of x."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("bessel_series needs integer n >= 0")
    law = GammaRatioSequence(denom=_FACTORIAL + ((n + 1.0, 1.0),))
    return CoefficientSeries(law, stride=2, offset=float(n), geometric=-1.0)


def struve_series(nu: float, b: float = 1.0) -> CoefficientSeries:
    """Series evaluating to the Struve function of b*x as a function of x."""
    if b <= 0:
        raise DomainError("struve_series needs b > 0")
    half = 0.5 * b
    # struve_phi(k) / k!: the factorial cancels its numerator Gamma(k+1)
    law = GammaRatioSequence(scale=half ** (nu + 1.0),
                             denom=((1.5, 1.0), (nu + 1.5, 1.0)))
    return CoefficientSeries(law, stride=2, offset=nu + 1.0, geometric=-half * half)


def exponential_series() -> CoefficientSeries:
    """Series evaluating to exp(-x)."""
    return CoefficientSeries(bessel_phi(), geometric=-1.0)


def rational_series() -> CoefficientSeries:
    """Series whose Mellin data represents 1/(1+x) (converges for |x| < 1)."""
    return CoefficientSeries(constant_phi(), geometric=-1.0)


def gaussian_series() -> CoefficientSeries:
    """Series evaluating to exp(-x^2)."""
    return CoefficientSeries(bessel_phi(), stride=2, geometric=-1.0)


def bessel_power_series(n: int) -> CoefficientSeries:
    """J_n(x) in x (coefficients (-1)^k 2^{-n} 4^{-k}/(k!(n+k)!))."""
    n = as_integer(n, "bessel_power_series order n", 0)
    law = GammaRatioSequence(scale=2.0 ** (-n), denom=_FACTORIAL + ((n + 1.0, 1.0),))
    return CoefficientSeries(law, stride=2, offset=float(n), geometric=-0.25)


def monomial_spec(n: float) -> CoefficientSeries:
    """The single-term series x^n."""
    return CoefficientSeries(constant_phi(), offset=float(n), terms=1)


# -- Mellin evaluation ------------------------------------------------------


def mellin_master(f: CoefficientSeries, nu) -> complex:
    """Half-line Mellin transform of a plain moment series.

    For f(x) = sum_k c(k) (-x)^k the moments are phi(k) = k! c(k), and the
    transform at exponent nu is Gamma(nu) phi(-nu).  The continued sequence
    is evaluated at the negated exponent; the alternative sign fails its own
    worked examples.  Requires Re nu > 0; the caller owns the upper end of
    the strip.
    """
    if not (f.stride == 1 and f.offset == 0.0 and f.geometric == -1.0
            and f.terms is None):
        raise DomainError("mellin_master needs the shape sum_k c(k) (-x)^k; "
                          "use mellin_master_strided for the general shape")
    if complex(nu).real <= 0:
        raise StripError("mellin_master needs Re nu > 0")
    return complex(gamma(nu)) * phi_eval(f.law.times(numer=_FACTORIAL), -nu)


def mellin_master_strided(f: CoefficientSeries, nu) -> complex:
    """Half-line Mellin transform of the general series shape.

    With a = -geometric, m = stride and p = offset, substituting u = a x^m
    reduces the integral to Gamma-ratio form: (1/m) a^{-w} Gamma(w) phi(-w)
    with w = (nu + p)/m and moments phi(k) = k! law(k).
    """
    w = (complex(nu) + f.offset) / f.stride
    if w.real <= 0:
        raise StripError("mellin_master_strided needs Re((nu + p)/m) > 0")
    if w.imag == 0.0:
        w = w.real
    a = complex(-f.geometric)
    return (a ** (-w) / f.stride * complex(gamma(w))
            * phi_eval(f.law.times(numer=_FACTORIAL), -w))


# ---------------------------------------------------------------------------
# Mellin multipliers (dilation-kernel symbols)
# ---------------------------------------------------------------------------


class MultiplierKind(enum.Enum):
    GAUSSIAN_KERNEL = "gaussian"
    LORENTZ_POWER = "lorentz_power"
    BOREL_FACTORIAL = "borel_factorial"
    BETA_KERNEL = "beta_kernel"


@dataclass(frozen=True)
class MellinMultiplier:
    """Symbol F of the operator sending x^n to F(n) x^n.

    Each kind encodes the integral of a dilation family: F(a) is the
    integral of g(t)^a over the kernel's domain, so applying the multiplier
    to a power series reproduces integrals of f(x g(t)) term by term.
    """

    kind: MultiplierKind
    alpha: float | None = None
    beta: float | None = None

    @property
    def lower_bound(self) -> float:
        if self.kind is MultiplierKind.GAUSSIAN_KERNEL:
            return 0.0
        if self.kind is MultiplierKind.LORENTZ_POWER:
            return 0.5
        if self.kind is MultiplierKind.BOREL_FACTORIAL:
            return -1.0
        return -self.alpha

    def _check(self, a: float) -> None:
        if a <= self.lower_bound:
            raise KernelDomainError(
                f"{self.kind.value} multiplier needs a > {self.lower_bound}, got {a}")

    def log_value(self, a: float) -> float:
        """log F(a); every kernel has positive F on its domain."""
        self._check(a)
        if self.kind is MultiplierKind.GAUSSIAN_KERNEL:
            return 0.5 * (math.log(math.pi) - math.log(a))
        if self.kind is MultiplierKind.LORENTZ_POWER:
            return (0.5 * math.log(math.pi)
                    + math.lgamma(a - 0.5) - math.lgamma(a))
        if self.kind is MultiplierKind.BOREL_FACTORIAL:
            return math.lgamma(a + 1.0)
        return (math.lgamma(self.alpha + a) + math.lgamma(self.beta)
                - math.lgamma(self.alpha + self.beta + a))

    def value(self, a: float):
        """F(a) itself."""
        return math.exp(self.log_value(a))


def gaussian_kernel() -> MellinMultiplier:
    """F(a) = sqrt(pi/a), the whole-line integral of exp(-a t^2)."""
    return MellinMultiplier(MultiplierKind.GAUSSIAN_KERNEL)


def lorentz_power() -> MellinMultiplier:
    """F(a) = sqrt(pi) Gamma(a-1/2)/Gamma(a), integral of (1+t^2)^{-a}."""
    return MellinMultiplier(MultiplierKind.LORENTZ_POWER)


def borel_factorial() -> MellinMultiplier:
    """F(a) = Gamma(a+1), the exponential moment integral."""
    return MellinMultiplier(MultiplierKind.BOREL_FACTORIAL)


def beta_kernel(alpha: float, beta: float) -> MellinMultiplier:
    """F(a) = B(alpha + a, beta), the Euler-kernel moment integral."""
    if alpha <= 0 or beta <= 0:
        raise DomainError("beta_kernel needs alpha > 0 and beta > 0")
    return MellinMultiplier(MultiplierKind.BETA_KERNEL, alpha=alpha, beta=beta)


def apply_mellin_multiplier(multiplier: MellinMultiplier, series: CoefficientSeries,
                            x: float, tol: float = DEFAULT_TOL) -> complex:
    """sum_k c(k) F(m k + p) x^{m k + p}, the integral of the dilation family."""
    return _sum_terms(series, x, tol, multiplier)
