"""Operational core: Gamma-ratio moment laws, their series, Mellin machinery.

A moment law phi is kept in Gamma-ratio form, which fixes its analytic
continuation.  A series is one law together with a stride, an offset and a
geometric factor: term k is law(k) geometric^k x^(stride k + offset).  The
Mellin evaluator turns such a series into a closed form in one step.  A
dilation-kernel symbol F(x d/dx) with a Gamma-ratio symbol acts on a series
as an edit of its law; the Mellin multipliers and the transforms of the
``transforms`` module are all such edits.

Types are immutable values and operations are pure.  What is derived from
such a value is its cached property, which ==, hash and repr do not see: a
law's moment law, a series' plan and edits by the symbols without a
parameter, a multiplier's lower bound; a law's constructor keeps its phi(0).
The series of an integer order are cached among the _SERIES_CACHE last used.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import DomainError, KernelDomainError, PoleError, StripError, overflow_raises
from .specfun import DEFAULT_TOL, as_integer, gamma, gamma_sign, log_gamma, pseudo_trig_orders
from .summation import _LOG_MAX, _LOG_TINY, _TINY, sum_hypergeometric, sum_kummer

__all__ = [
    "GammaRatioSequence",
    "CoefficientSeries",
    "MellinMultiplier",
    "phi_eval",
    "mellin_master",
    "mellin_master_strided",
    "apply_mellin_multiplier",
    "bessel_phi",
    "struve_series",
    "exponential_series",
    "rational_series",
    "bessel_power_series",
    "pseudo_trig_series",
    "gaussian_kernel",
    "borel_factorial",
    "beta_kernel",
]

# Tolerance used when deciding whether a real Gamma argument sits on a pole.
_POLE_TOL = 1e-12

# The factor Gamma(1 + k) that turns a series coefficient into its moment.
_FACTORIAL = ((1.0, 1.0),)


@dataclass(frozen=True)
class GammaRatioSequence:
    """Moment functional phi(s) = scale * prod Gamma(shift_i + slope_i s)
    / prod Gamma(shift_j + slope_j s), with finite shifts and positive finite slopes.

    The Gamma-ratio form guarantees a well-defined analytic continuation,
    which the Mellin evaluator relies on.  phi(0) must be finite and
    nonzero.  The form is canonical: factors common to numerator and
    denominator cancel and the rest are sorted, so equal laws compare equal.
    """

    scale: complex = 1.0
    numer: tuple = ()
    denom: tuple = ()

    def __init__(self, scale=1.0, numer=(), denom=()):
        # each field is set once, in its canonical form, past the frozen __setattr__
        numer = [(float(s), float(m)) for s, m in numer]
        denom = [(float(s), float(m)) for s, m in denom]
        # checked before equal factors cancel, which shifts -inf and -inf would
        for shift, slope in numer + denom:
            if not -math.inf < shift < math.inf:
                raise DomainError("GammaRatioSequence shifts must be finite")
            if not 0.0 < slope < math.inf:
                raise DomainError("GammaRatioSequence slopes must be positive and finite")
        if numer and denom:
            for factor in tuple(numer):
                if factor in denom:
                    numer.remove(factor)
                    denom.remove(factor)
        numer.sort()
        denom.sort()
        numer, denom = tuple(numer), tuple(denom)
        self.__dict__.update(scale=scale, numer=numer, denom=denom)
        if scale == 0:
            raise DomainError("GammaRatioSequence scale must be nonzero")
        # kept, outside the fields, for the sums that seed term 0 from it
        sign, log_mag = self.__dict__["_log_phi0"] = _log_phi(self, 0.0)
        if sign == 0 or log_mag > _LOG_MAX or not cmath.isfinite(scale):
            raise DomainError("GammaRatioSequence must have finite nonzero phi(0)")

    def __call__(self, s):
        return phi_eval(self, s)

    def times(self, scale=1.0, numer=(), denom=()) -> GammaRatioSequence:
        """This law multiplied by scale * prod Gamma(numer) / prod Gamma(denom)."""
        return GammaRatioSequence(self.scale * scale, self.numer + tuple(numer),
                                  self.denom + tuple(denom))

    # phi(k) = k! law(k), the moment law of mellin_master_strided
    _moments = functools.cached_property(lambda self: self.times(numer=_FACTORIAL))


def _classify_pole(arg: float):
    """Return the pole index n (arg ~ -n) or None; a non-finite arg raises DomainError."""
    if not -math.inf < arg < math.inf:
        raise DomainError(f"a Gamma argument must be finite, got {arg!r}")
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


# A law or series without a continuous parameter is one frozen value.
_BESSEL_PHI = GammaRatioSequence(denom=_FACTORIAL)


def bessel_phi() -> GammaRatioSequence:
    """phi(s) = 1/Gamma(1+s), the Bessel moment law."""
    return _BESSEL_PHI


# -- the series type ----------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSeries:
    """f(x) = sum_k law(k) geometric^k x^(stride k + offset).

    The law is a Gamma ratio; signs, argument scales that no Gamma ratio
    can express (4^-k), overall constants and 1/k! all live in ``law`` and
    ``geometric``.  A complex x takes principal powers; a negative real x
    needs an integer offset.
    """

    law: GammaRatioSequence
    stride: int = 1
    offset: float = 0.0
    geometric: complex = 1.0

    def __post_init__(self):
        if not isinstance(self.law, GammaRatioSequence):
            raise DomainError("CoefficientSeries law must be a GammaRatioSequence")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise DomainError("CoefficientSeries stride must be a positive integer")
        if self.geometric == 0 or not cmath.isfinite(self.geometric):
            raise DomainError("CoefficientSeries geometric factor must be finite and nonzero")

    def coefficient(self, k: int) -> complex:
        """Coefficient of x^(stride k + offset)."""
        return phi_eval(self.law, float(k)) * self.geometric ** k

    def coefficients(self, n: int):
        """The first n coefficients as a list."""
        return [self.coefficient(k) for k in range(n)]

    def evaluate(self, x: float, tol: float = DEFAULT_TOL) -> complex:
        """Sum the series at x under the shared stopping rule."""
        return _sum_terms(self, x, tol)

    @functools.cached_property
    def _plan(self) -> tuple:
        """What ``_sum_terms`` needs at every x: k_safe before y is known, the
        parameters up and down, the slopes that multiply, then divide y, and
        the Kummer route's (b - a, b, log phi(0)) or None."""
        law = self.law
        k_safe, slopes, up, down, times, over = 0, 0.0, [], [], [], []
        for shift, slope in law.numer + law.denom:
            slopes += slope
            if slope != int(slope):
                k_safe = math.inf
            elif shift < 0.5:
                k_safe = max(k_safe, math.floor((0.5 - shift) / slope) + 1)
        if slopes > -_LOG_TINY:
            k_safe = math.inf
        if k_safe < math.inf:
            for factors, params, scaling in ((law.numer, up, times), (law.denom, down, over)):
                for shift, slope in factors:
                    for i in range(int(slope)):
                        params.append((shift + i) / slope)
                        scaling.append(slope)
        kummer = None
        if ((len(up), len(down)) in ((0, 1), (1, 2)) and (not up or 1.0 in down)
                and min(shift for shift, _ in law.numer + law.denom) > 0):
            a, b = up[0] if up else 1.0, down[-1] if down[0] == 1.0 else down[0]
            kummer = b - a, b, law._log_phi0[1]
        return k_safe, tuple(up), tuple(down), tuple(times), tuple(over), kummer

    _gaussian_edit = functools.cached_property(lambda self: _GAUSSIAN_KERNEL._edit(self))
    _borel_edit = functools.cached_property(lambda self: _BOREL_FACTORIAL._edit(self))


def _sum_terms(series: CoefficientSeries, x, tol: float, power: float = 0.0) -> complex:
    """sum_k law(k) geometric^k a_k^power x^a_k with a_k = stride k + offset.

    A nonzero power needs every a_k > 0.  A complex x takes principal
    powers: its phase moves into the geometric factor and the scale, and
    the sum runs at |x|.  With integer slopes the law is hypergeometric
    (DLMF 5.5.6): Gamma(s + sigma (k + 1)) / Gamma(s + sigma k) =
    sigma^sigma prod_i ((s + i)/sigma + k), so from k_safe on, where every
    Gamma argument is at least 1/2, ``summation.sum_hypergeometric`` steps
    and sums the terms with the parameters (s + i)/sigma and y = geometric
    x^m prod sigma^sigma / prod sigma^sigma.  The power is no such ratio; it
    weights each term.  ``_log_phi`` gives the seeds in log space, so that
    factorially large pieces cannot overflow against factorially small
    ones: the terms up to k_safe, any after a term that is 0 or subnormal,
    and all of a law with a non-integer slope, with integer slopes that add
    past -log(float_info.min) ~ 708 (below that a factor's parameters
    (u + i)/sigma, u >= 1/2, keep each partial product of a step above
    e^-sigma, where 900!/900^900 underflows) or with a y that is not a
    normal number; a seed is one ``_log_phi``, a step O(slopes) products,
    and term 0 is the phi(0) its law keeps.  A term at a denominator pole
    is 0 at every x and is not summed.  A term beyond the double range ends
    the sum as a non-finite term.  A law t_0 1F1(a; b; y), one a beside
    k!'s 1 or a = 1 cancelled against it, with integer slopes, positive
    Gamma shifts and no power, goes at y < 0 to ``sum_kummer``.  A law
    without Gamma factors and without a power is geometric: at a normal y
    with |y| < 1 its sum is term 0 / (1 - y), where the loop would need
    more than ``summation.DEFAULT_CAP`` terms as |y| nears 1; at g = -1, an
    odd m and a real x < 0, 1 - y is 1 + x^m, formed from the exact factor
    1 + x rather than from the rounded y.  What x does
    not change is the series' cached ``_plan``.
    """
    m, p, law = series.stride, series.offset, series.law
    g, scale = series.geometric, law.scale
    if isinstance(x, complex) and not (x.imag == 0.0 and x.real >= 0.0):
        phase = x / abs(x)
        g, scale, x = g * phase ** m, scale * phase ** p, abs(x)
    x = x.real
    if x == 0:
        if p > 0:
            return complex(0.0)
        if p < 0:
            raise DomainError("series with negative offset power at x = 0")
        return series.coefficient(0)
    if x < 0 and p != int(p):
        raise DomainError("negative x needs an integer offset power")

    log_x = math.log(abs(x))
    step_log = math.log(abs(g)) + m * log_x
    step_sign = g / abs(g)
    log0 = math.log(abs(scale)) + p * log_x
    sign0 = scale / abs(scale)
    if x < 0:
        step_sign = -step_sign if m % 2 else step_sign
        sign0 = -sign0 if int(p) % 2 else sign0
    y = g * x ** m if m * log_x < _LOG_MAX else step_sign * math.inf
    k_safe, up, down, times, over, kummer = series._plan
    if k_safe < math.inf:
        # a slope of 1.0 multiplies too: complex(3.0, -0.0) * 1.0 is 3+0j
        for slope in times:
            y = y * slope
        for slope in over:
            y = y / slope
        if not _TINY <= abs(y) < math.inf:
            k_safe = math.inf

    if kummer and not power and k_safe < math.inf and not y.imag and y.real < 0:
        c, b, log_phi0 = kummer
        return complex(sign0 * sum_kummer(log_phi0 + log0, c, b, y.real, tol))

    def seed(k):
        sign, log_mag = _log_phi(law, k) if k else law._log_phi0
        if sign == 0.0:
            return None  # a denominator pole: the term is 0 at every x
        log_mag += log0 + k * step_log
        return sign * sign0 * step_sign ** k * (math.exp(log_mag) if log_mag <= _LOG_MAX
                                                 else math.inf)

    if not (up or down or power) and k_safe == 0 and abs(y) < 1.0:
        if g == -1.0 and x < 0 and m % 2:
            # 1 + x^m = (1 + x) sum_{i<m} (-x)^i, whose factor 1 + x is
            # exact for x in [-1, -1/2] (Sterbenz)
            return complex(seed(0) / ((1.0 + x) * sum((-x) ** i for i in range(int(m)))))
        return complex(seed(0) / (1.0 - y))

    weight = (lambda k: (m * k + p) ** power) if power else None
    value, _ = sum_hypergeometric(None, up, down, y, tol, seed=seed, k_safe=k_safe,
                                  weight=weight)
    return complex(value)


# -- cataloged series ---------------------------------------------------------


@overflow_raises(DomainError)
def struve_series(nu: float, b: float = 1.0) -> CoefficientSeries:
    """Series evaluating to the Struve function of b*x as a function of x.

    When nu + 3/2 is a non-positive integer -n, 1/Gamma(k+nu+3/2) kills
    terms 0..n, so the series starts at term j = n + 1 (factors shift by j).
    """
    if b <= 0:
        raise DomainError("struve_series needs b > 0")
    half = 0.5 * b
    geometric = -half * half
    n = _classify_pole(nu + 1.5)
    j = 0 if n is None else n + 1
    law = GammaRatioSequence(scale=half ** (nu + 1.0) * geometric ** j,
                             denom=((1.5 + j, 1.0), (nu + 1.5 + j, 1.0)))
    return CoefficientSeries(law, stride=2, offset=nu + 1.0 + 2 * j, geometric=geometric)


_EXPONENTIAL = CoefficientSeries(bessel_phi(), geometric=-1.0)
_RATIONAL = CoefficientSeries(GammaRatioSequence(), geometric=-1.0)


def exponential_series() -> CoefficientSeries:
    """Series evaluating to exp(-x)."""
    return _EXPONENTIAL


def rational_series() -> CoefficientSeries:
    """Series whose Mellin data represents 1/(1+x) (converges for |x| < 1)."""
    return _RATIONAL


# A series of an integer order is one frozen value per order, built on its
# first use and kept among the _SERIES_CACHE last used.
_SERIES_CACHE = 256


def bessel_power_series(n: int) -> CoefficientSeries:
    """J_n(x) in x (coefficients (-1)^k 2^{-n} 4^{-k}/(k!(n+k)!))."""
    return _bessel_power_series(as_integer(n, "bessel_power_series order n", 0))


@functools.lru_cache(maxsize=_SERIES_CACHE)
def _bessel_power_series(n: int) -> CoefficientSeries:
    law = GammaRatioSequence(scale=2.0 ** (-n), denom=_FACTORIAL + ((n + 1.0, 1.0),))
    return CoefficientSeries(law, stride=2, offset=float(n), geometric=-0.25)


def pseudo_trig_series(k: int, m: int) -> CoefficientSeries:
    """The m-sected alternating exponential c_k = sum_r (-1)^r x^{m r + k}/(m r + k)!,
    whose sum is ``specfun.pseudo_trig``."""
    return _pseudo_trig_series(*pseudo_trig_orders(k, m))


@functools.lru_cache(maxsize=_SERIES_CACHE)
def _pseudo_trig_series(k: int, m: int) -> CoefficientSeries:
    law = GammaRatioSequence(denom=((k + 1.0, float(m)),))
    return CoefficientSeries(law, stride=m, offset=float(k), geometric=-1.0)


# -- Mellin evaluation ------------------------------------------------------


def mellin_master(f: CoefficientSeries, nu) -> complex:
    """Half-line Mellin transform of a plain moment series, the stride-1
    entry to ``mellin_master_strided``.

    For f(x) = sum_k c(k) (-x)^k the moments are phi(k) = k! c(k), and the
    transform at exponent nu is Gamma(nu) phi(-nu).  The continued sequence
    is evaluated at the negated exponent; the alternative sign fails its own
    worked examples.  Requires Re nu > 0; the caller owns the upper end of
    the strip.
    """
    if not (f.stride == 1 and f.offset == 0.0 and f.geometric == -1.0):
        raise DomainError("mellin_master needs the shape sum_k c(k) (-x)^k; "
                          "use mellin_master_strided for the general shape")
    return mellin_master_strided(f, nu)


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
    return a ** (-w) / f.stride * complex(gamma(w)) * phi_eval(f.law._moments, -w)


# ---------------------------------------------------------------------------
# Mellin multipliers (dilation-kernel symbols)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MellinMultiplier:
    """Symbol F(a) = symbol(a) a^power of the operator F(x d/dx), which
    sends x^a to F(a) x^a.  F(a) is the integral of g(t)^a over a dilation
    kernel's domain, so applying F to a power series reproduces integrals
    of f(x g(t)) term by term, as an edit of the series law by the Gamma
    ratio ``symbol``.  Only the Gaussian kernel has a power."""

    symbol: GammaRatioSequence
    power: float = 0.0

    @functools.cached_property
    def lower_bound(self) -> float:
        """F is finite for every a above this: each numerator Gamma argument
        is positive, and a > 0 when there is a power."""
        bound = max((-shift / slope for shift, slope in self.symbol.numer),
                    default=-math.inf)
        return max(bound, 0.0) if self.power else bound

    def _check(self, a: float) -> None:
        if a <= self.lower_bound:
            raise KernelDomainError(f"multiplier needs a > {self.lower_bound}, got {a}")

    def value(self, a: float) -> complex:
        """F(a) itself."""
        self._check(a)
        return self.symbol(a) * a ** self.power

    def edit(self, series: CoefficientSeries) -> CoefficientSeries:
        """The series with the symbol moved into its law: Gamma(s + sigma a) at
        the exponent a = m k + p of term k is the law factor (s + sigma p, sigma m).
        The edits by ``gaussian_kernel()`` and ``borel_factorial()``, the symbols
        without a parameter, are kept on the series they edit."""
        if self is _GAUSSIAN_KERNEL:
            return series._gaussian_edit
        if self is _BOREL_FACTORIAL:
            return series._borel_edit
        return self._edit(series)

    def _edit(self, series: CoefficientSeries) -> CoefficientSeries:
        m, p = series.stride, series.offset
        numer, denom = ([(shift + slope * p, slope * m) for shift, slope in side]
                        for side in (self.symbol.numer, self.symbol.denom))
        return CoefficientSeries(series.law.times(self.symbol.scale, numer, denom), m, p,
                                 series.geometric)


_GAUSSIAN_KERNEL = MellinMultiplier(GammaRatioSequence(scale=math.sqrt(math.pi)),
                                    power=-0.5)
_BOREL_FACTORIAL = MellinMultiplier(GammaRatioSequence(numer=_FACTORIAL))


def gaussian_kernel() -> MellinMultiplier:
    """F(a) = sqrt(pi/a), the whole-line integral of exp(-a t^2)."""
    return _GAUSSIAN_KERNEL


def borel_factorial() -> MellinMultiplier:
    """F(a) = Gamma(a+1), the exponential moment integral."""
    return _BOREL_FACTORIAL


def beta_kernel(alpha: float, beta: float) -> MellinMultiplier:
    """F(a) = B(alpha + a, beta), the Euler-kernel moment integral."""
    if not (alpha > 0 and beta > 0):
        raise DomainError("beta_kernel needs alpha > 0 and beta > 0")
    return MellinMultiplier(GammaRatioSequence(
        scale=gamma(beta), numer=((alpha, 1.0),), denom=((alpha + beta, 1.0),)))


def apply_mellin_multiplier(multiplier: MellinMultiplier, series: CoefficientSeries,
                            x: float, tol: float = DEFAULT_TOL) -> complex:
    """sum_k c(k) F(m k + p) x^{m k + p}, the integral of the dilation family."""
    multiplier._check(series.offset)  # k = 0 is the smallest exponent reached
    return _sum_terms(multiplier.edit(series), x, tol, multiplier.power)
