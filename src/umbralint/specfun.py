"""Self-contained special-function kernel.

Gamma machinery plus every concrete function family the integral catalog
needs: Bessel and Struve functions, the exponential-ratio function b_nu,
higher-order and hybrid Hermite polynomials, truncated exponentials,
pseudo-trigonometric functions, Hermite-based Tricomi functions, and the
generalized hypergeometric series.  Everything is computed by truncated
series with a shared stopping rule; no external special-function library
is used.  A kernel whose value or an intermediate leaves the double range
raises DomainError.

All functions here are pure and hold no mutable state, so they are safe to
call concurrently.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import islice

from .errors import DomainError, PoleError, overflow_raises
from .summation import hypergeometric_terms, sum_series

__all__ = [
    "DEFAULT_TOL",
    "gamma",
    "log_gamma",
    "beta",
    "bessel_j",
    "bessel_i",
    "struve_h",
    "b_nu",
    "hermite_higher",
    "hermite_hybrid",
    "truncated_e",
    "pseudo_trig",
    "hermite_tricomi",
    "hyper_pfq",
]

DEFAULT_TOL = 1e-12

# Lanczos approximation, g = 7, 9 coefficients, for complex arguments.  Its
# error grows with |z|, to 1.7e-13 relative at z = 170; real arguments use
# the C library gamma instead.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = 2.5066282746310002


def is_nonpositive_integer(z) -> bool:
    """True when z sits exactly on a Gamma pole (0, -1, -2, ...)."""
    if isinstance(z, complex):
        if z.imag != 0.0:
            return False
        z = z.real
    return z <= 0.0 and z == math.floor(z)


def as_integer(value, name: str, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int, when it is a real integral number in [lo, hi].

    Anything else (complex, nan, inf, a fraction, out of range) raises
    DomainError; this is the one rule for integer orders and degrees.
    """
    try:
        v = float(value)
    except (TypeError, OverflowError):
        v = math.nan
    if not (v.is_integer() and lo <= v <= hi):
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(v)


def gamma_sign(x: float) -> float:
    """Sign of Gamma at a real non-pole argument."""
    if x > 0.0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


def _lanczos_sum(z: complex) -> complex:
    s = _LANCZOS[0]
    for i in range(1, 9):
        s += _LANCZOS[i] / (z + i)
    return s


def _gamma_complex(z: complex) -> complex:
    if z.real < 0.5:
        # Euler reflection continues the approximation to the left half-plane.
        return math.pi / (cmath.sin(math.pi * z) * _gamma_complex(1.0 - z))
    z -= 1.0
    t = z + 7.5
    try:
        return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * _lanczos_sum(z)
    except OverflowError:
        # t^(z+1/2) can overflow while Gamma itself is still representable
        return cmath.exp((z + 0.5) * cmath.log(t) - t
                         + cmath.log(_SQRT_TWO_PI * _lanczos_sum(z)))


@overflow_raises(DomainError)
def gamma(z):
    """Gamma function on the principal branch.

    Returns a float for real input, from the C library gamma, and a complex
    for complex input, from the Lanczos sum.  Raises PoleError at the poles
    (non-positive integers).
    """
    if is_nonpositive_integer(z):
        raise PoleError(z)
    if isinstance(z, complex):
        return _gamma_complex(z)
    return math.gamma(z)


def log_gamma(z) -> complex:
    """log Gamma, consistent with ``gamma`` under exp.

    On Re z >= 0.5 this is the principal branch; to the left it is produced
    through reflection and may differ from the principal branch by a
    multiple of 2*pi*i, which is irrelevant once exponentiated.
    """
    if is_nonpositive_integer(z):
        raise PoleError(z)
    z = complex(z)
    if z.real < 0.5:
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    w = z - 1.0
    t = w + 7.5
    return (w + 0.5) * cmath.log(t) - t + cmath.log(_SQRT_TWO_PI * _lanczos_sum(w))


def signed_log_gamma(x: float):
    """(sign, log|Gamma(x)|) for real non-pole x, via the C library lgamma."""
    if is_nonpositive_integer(x):
        raise PoleError(x)
    return gamma_sign(x), math.lgamma(x)


def inv_factorial(n: int) -> float:
    """1/n! as a float, stable for arbitrarily large n."""
    if n < 0:
        raise DomainError("factorial of a negative integer")
    if n <= 170:
        return 1.0 / math.factorial(n)
    return math.exp(-math.lgamma(n + 1.0))


@overflow_raises(DomainError)
def beta(a, b):
    """Euler Beta, Gamma(a)Gamma(b)/Gamma(a+b), assembled in log space."""
    for value in (a, b, a + b):
        if is_nonpositive_integer(value):
            raise PoleError(value)
    if isinstance(a, complex) or isinstance(b, complex):
        return cmath.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
    sa, la = signed_log_gamma(a)
    sb, lb = signed_log_gamma(b)
    sab, lab = signed_log_gamma(a + b)
    return sa * sb * sab * math.exp(la + lb - lab)


# ---------------------------------------------------------------------------
# Bessel and Struve families
# ---------------------------------------------------------------------------


@overflow_raises(DomainError)
def bessel_j(nu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Cylindrical Bessel function of the first kind, by power series.

    Requires nu >= 0 or integer nu; negative integer orders reduce through
    J_{-n} = (-1)^n J_n.  Negative x is allowed for integer orders only.
    """
    if nu < 0:
        n = as_integer(-nu, "bessel_j order -nu", 1)
        return (-1.0 if n % 2 else 1.0) * bessel_j(float(n), x, tol)
    if x < 0:
        n = as_integer(nu, "bessel_j order at x < 0", 0)
        return (-1.0 if n % 2 else 1.0) * bessel_j(nu, -x, tol)
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    h = 0.5 * x
    # DLMF 10.2.2: (h^nu / Gamma(nu + 1)) 0F1(; nu + 1; -h^2)
    terms = hypergeometric_terms(h ** nu / gamma(nu + 1.0), (), (1.0, nu + 1.0), -h * h)
    value, _ = sum_series(terms, tol)
    return value


@overflow_raises(DomainError)
def bessel_i(mu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Modified Bessel function of the first kind, by power series: the law
    (x/2)^(2k + mu) / (k! Gamma(k + mu + 1)), summed by its term ratio."""
    if mu < 0 and mu == int(mu):
        return bessel_i(-mu, x, tol)
    if x < 0:
        n = as_integer(mu, "bessel_i order at x < 0", 0)
        return (-1.0 if n % 2 else 1.0) * bessel_i(mu, -x, tol)
    if x == 0.0:
        if mu == 0.0:
            return 1.0
        if mu > 0.0:
            return 0.0
        raise DomainError("bessel_i diverges at x = 0 for negative order")
    return _bessel_i_complex(mu, x, tol).real


def _bessel_i_complex(mu: float, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """I_mu(z) with principal powers, the law (z/2)^(2k + mu) / (k! Gamma(k + mu + 1)).
    At a negative integer order -j it starts past the terms k < j, 0 at every z."""
    from .umbral import CoefficientSeries, GammaRatioSequence
    j = int(-mu) if mu < 0 and mu == int(mu) else 0
    law = GammaRatioSequence(scale=0.5 ** (mu + 2 * j),
                             denom=((1.0 + j, 1.0), (mu + 1.0 + j, 1.0)))
    return CoefficientSeries(law, stride=2, offset=mu + 2 * j, geometric=0.25).evaluate(z, tol)


@overflow_raises(DomainError)
def struve_h(nu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Struve function by power series, DLMF 11.2.1: term k is
    (-1)^k h^(2k + nu + 1) / (Gamma(k + 3/2) Gamma(k + nu + 3/2)), h = x/2,
    stepped by the ratio -h^2 / ((k + 3/2)(k + nu + 3/2)).

    At a half-odd negative order nu + 3/2 = -n, 1/Gamma(k + nu + 3/2) is 0
    for k <= n and every x; the series starts at k = n + 1, so that those
    terms cannot pass the stopping rule before it has started.
    """
    if x < 0:
        n = as_integer(nu, "struve_h order at x < 0", -math.inf)
        return (1.0 if n % 2 else -1.0) * struve_h(nu, -x, tol)
    if x == 0.0:
        if nu > -1.0:
            return 0.0
        if nu == -1.0:
            return 2.0 / math.pi
        raise DomainError("struve_h diverges at x = 0 for nu < -1")
    h = 0.5 * x
    j = int(-nu - 0.5) if is_nonpositive_integer(nu + 1.5) else 0
    # math.lgamma returns log|Gamma|, valid for negative non-integer arguments
    first = (-1.0) ** j * gamma_sign(j + nu + 1.5) * math.exp(
        (2 * j + nu + 1.0) * math.log(h) - math.lgamma(j + 1.5) - math.lgamma(j + nu + 1.5))
    value, _ = sum_series(hypergeometric_terms(first, (), (1.5, nu + 1.5), -h * h, j), tol)
    return value


@overflow_raises(DomainError)
def b_nu(nu: float, x, method: str = "series", tol: float = DEFAULT_TOL) -> complex:
    """Gamma-ratio exponential-type series and its modified-Bessel form.

    series:  sum_k Gamma(nu+k+1)/Gamma(2 nu+k+1) x^k / k!
    bessel_closed_form:
             (sqrt(pi)/2) x^{1/2-nu} e^{x/2} [I_{nu-1/2}(x/2) + I_{nu+1/2}(x/2)]

    The series is a ``umbral.CoefficientSeries`` law summed by its term
    ratio.  At integer nu = -n its first n terms, where both Gammas sit on
    poles, are the ratio's limits along nu, summed as a finite head.  The
    closed form uses principal-branch powers and needs x != 0.  Both
    methods accept complex x and agree on their common domain.
    """
    z = complex(x)
    if method == "series":
        from .umbral import CoefficientSeries, GammaRatioSequence
        # where 2 nu is an integer -j <= -1 the law starts at k = j, past the
        # terms 1/Gamma(2 nu + k + 1) = 0 and an integer nu's head
        j = int(-2.0 * nu) if nu <= -0.5 and (2.0 * nu).is_integer() else 0
        head = 0.0
        if j % 2 == 0 < j:
            # integer nu = -n: for k < n both Gammas sit on poles, and the
            # ratio's limit along nu is 2 (-1)^n (2n-1-k)!/(n-1-k)!, whose
            # head is the terminating (2 (-1)^n (2n-1)!/(n-1)!) 1F1(1-n; 1-2n; z)
            n = j // 2
            t = (-2.0 if n % 2 else 2.0) * math.exp(math.lgamma(j) - math.lgamma(n))
            head = sum(islice(hypergeometric_terms(t, (1.0 - n,), (1.0 - j, 1.0), z), n))
        law = GammaRatioSequence(numer=((nu + 1.0 + j, 1.0),),
                                 denom=((2.0 * nu + 1.0 + j, 1.0), (1.0 + j, 1.0)))
        return head + CoefficientSeries(law, offset=float(j)).evaluate(x, tol)
    if method == "bessel_closed_form":
        if z == 0:
            raise DomainError("the closed form of b_nu needs x != 0")
        half = 0.5 * z
        ibes = (_bessel_i_complex(nu - 0.5, half, tol)
                + _bessel_i_complex(nu + 0.5, half, tol))
        return 0.5 * math.sqrt(math.pi) * z ** (0.5 - nu) * cmath.exp(half) * ibes
    raise DomainError(f"unknown b_nu method {method!r}")


# ---------------------------------------------------------------------------
# Hermite-type polynomial families
# ---------------------------------------------------------------------------


# Bound on the Hermite degree n and the pseudo_trig order m, whose loops run
# O(n) and O(m) per call and term.  It is ten times the largest in use and
# keeps a call such as truncated_e(1e9, ...) from running for minutes.  The
# order m of hermite_tricomi needs no bound: its loop ends at k = 177 - n.
_MAX_ORDER = 10_000
_LOG_TINY = math.log(sys.float_info.min)


def _check_order(n, m) -> tuple:
    return (as_integer(n, "polynomial degree n", 0, _MAX_ORDER),
            as_integer(m, "order m", 2))


@overflow_raises(DomainError)
def hermite_higher(n: int, m: int, u, v):
    """Two-variable Hermite polynomial of order m.

    n! * sum_{k=0}^{floor(n/m)} u^{n-mk} v^k / ((n-mk)! k!), an exact finite
    sum with generating function exp(u z + v z^m).
    """
    n, m = _check_order(n, m)
    total = 0.0
    for k in range(n // m + 1):
        j = n - m * k
        if n <= 170:
            coeff = math.factorial(n) // (math.factorial(j) * math.factorial(k))
            total += coeff * u ** j * v ** k
        else:
            lc = math.lgamma(n + 1.0) - math.lgamma(j + 1.0) - math.lgamma(k + 1.0)
            total += math.exp(lc) * u ** j * v ** k
    return total


@overflow_raises(DomainError)
def hermite_hybrid(n: int, m: int, x, y):
    """Hybrid Hermite polynomial: sum_k x^{n-mk} y^k / (k! ((n-mk)!)^2)."""
    n, m = _check_order(n, m)
    total = 0.0
    for k in range(n // m + 1):
        j = n - m * k
        total += x ** j * y ** k * inv_factorial(k) * inv_factorial(j) ** 2
    return total


@overflow_raises(DomainError)
def truncated_e(n: int, m: int, x, y):
    """Truncated-exponential polynomial: sum_k x^{n-mk} y^k / ((n-mk)!)^2."""
    n, m = _check_order(n, m)
    total = 0.0
    for k in range(n // m + 1):
        j = n - m * k
        total += x ** j * y ** k * inv_factorial(j) ** 2
    return total


@overflow_raises(DomainError)
def pseudo_trig(k: int, m: int, x: float, tol: float = DEFAULT_TOL) -> float:
    """m-sected alternating exponential series c_k.

    sum_r (-1)^r x^{mr+k} / (mr+k)!; for m = 2 these are cos (k=0) and
    sin (k=1).  Entire in x.  By Gauss's multiplication formula,
    (mr + k + m)!/(mr + k)! = m^m prod_i (r + (k + i)/m), the series is
    (x^k / k!) 0Fm-1(; (k+1)/m, ..., (k+m)/m; -(x/m)^m), one b being 1.
    """
    m = as_integer(m, "pseudo_trig order m", 2, _MAX_ORDER)
    k = as_integer(k, "pseudo_trig index k", 0, m - 1)
    first = x ** k * inv_factorial(k)
    y = -(x / m) ** m
    # at large m, y or prod_i (k + i)/m can leave the normal range, where
    # the loop cannot carry them; the sum is then its first term, if the
    # ratio t_1/t_0 = -(x/m)^m / prod_i (k + i)/m is below tol
    log_b = math.lgamma(k + m + 1.0) - math.lgamma(k + 1.0) - m * math.log(m)
    if abs(y) < sys.float_info.min or log_b < _LOG_TINY:
        if x != 0.0 and m * (math.log(abs(x)) - math.log(m)) - log_b > math.log(tol):
            raise DomainError(f"pseudo_trig ratio leaves the double range at m={m}, x={x!r}")
        return first
    b = tuple((k + i) / m for i in range(1, m + 1))
    value, _ = sum_series(hypergeometric_terms(first, (), b, y), tol)
    return value


# 1/j! for j < 178; from j = 178 on, 1/j! is 0 in floats
_INV_FACTORIALS = tuple(inv_factorial(j) for j in range(178))


def _tricomi_sections(n: int, m: int, x, y):
    """The sums of the sections of min(m, 178) terms of hermite_tricomi's
    series, with h_k = H_k/k! stepped by k h_k = x h_(k-1) + m y h_(k-m)."""
    size = min(m, len(_INV_FACTORIALS))
    h = [1.0]
    section = _INV_FACTORIALS[n]
    for k in range(1, len(_INV_FACTORIALS) - n):
        if k % size == 0:
            yield section
            section = 0.0
        hk = x * h[-1]
        if k >= m:
            hk += m * y * h[k - m]
        hk /= k
        h.append(hk)
        section += (-1.0 if k % 2 else 1.0) * _INV_FACTORIALS[n + k] * hk
    yield section


@overflow_raises(DomainError)
def hermite_tricomi(n: int, m: int, x, y, tol: float = DEFAULT_TOL) -> complex:
    """Bessel-like series with higher-Hermite coefficients.

    sum_k (-1)^k / (k! (n+k)!) * H_k(x, y) of order m.  The generating
    function exp(x z + y z^m) of the H_k gives their Appell recurrence, one
    step a term; the terms go to the stopping rule as sections of m, each
    holding one power of y.  From n + k = 178 on, 1/(n+k)! and with it
    every term is 0 in floats: the series ends there, and an n past 177 is
    a DomainError.
    """
    n, m = _check_order(n, m)
    if n >= len(_INV_FACTORIALS):
        raise DomainError(f"hermite_tricomi order n = {n} underflows: 1/n! is 0")
    value, _ = sum_series(_tricomi_sections(n, m, x, y), tol)
    return complex(value)


# ---------------------------------------------------------------------------
# Generalized hypergeometric series
# ---------------------------------------------------------------------------


def hyper_pfq(a, b, y, tol: float = DEFAULT_TOL):
    """Generalized hypergeometric series pFq(a; b; y).

    sum_k prod_i (a_i)_k / prod_j (b_j)_k * y^k / k! (DLMF 16.2.1), summed
    by its term ratio, so that no Pochhammer symbol is formed and nothing
    overflows before the terms do.  Requires p <= q + 1 and no lower
    parameter at a non-positive integer; an upper parameter at a
    non-positive integer terminates the series.
    """
    a = tuple(a)
    b = tuple(b)
    if len(a) > len(b) + 1:
        raise DomainError("hyper_pfq needs p <= q + 1")
    for bj in b:
        if is_nonpositive_integer(bj):
            raise PoleError(bj, message="hyper_pfq lower parameter at a pole")

    value, _ = sum_series(hypergeometric_terms(1.0, a, b + (1.0,), y), tol)
    return value
