"""Self-contained special-function kernel.

Gamma machinery plus every concrete function family the integral catalog
needs: Bessel and Struve functions, the exponential-ratio function b_nu,
higher-order and hybrid Hermite polynomials, truncated exponentials,
pseudo-trigonometric functions, Hermite-based Tricomi functions, and the
generalized hypergeometric series.  Everything is computed by truncated
series with a shared stopping rule; no external special-function library
is used.  A kernel whose value or an intermediate leaves the double range
raises DomainError.

All functions here are pure and share only caches of immutable values (the
compiled loops of ``summation``, the series of ``umbral``), so they are safe
to call concurrently.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import DomainError, PoleError, overflow_raises
from .summation import _TINY, sum_hypergeometric, sum_kummer, sum_series

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

# Lanczos approximation, g = 7, 9 coefficients, for log Gamma at complex
# arguments; exp of it is within 3.2e-13 relative of Gamma for Re z in
# [-60, 170] and |Im z| <= 30.  Real arguments use the C library gamma.
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
    """True when z sits exactly on a Gamma pole (0, -1, -2, ...).  A
    non-finite z is no Gamma argument: DomainError."""
    if isinstance(z, complex):
        if not cmath.isfinite(z):
            raise DomainError(f"a Gamma argument must be finite, got {z!r}")
        if z.imag != 0.0:
            return False
        z = z.real
    elif not -math.inf < z < math.inf:
        raise DomainError(f"a Gamma argument must be finite, got {z!r}")
    return z <= 0.0 and z == math.floor(z)


def as_integer(value, name: str, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int, when it is a real integral number in [lo, hi].

    Anything else (complex, nan, inf, a fraction, out of range) raises
    DomainError; this is the one rule for integer orders and degrees.
    """
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not (v.is_integer() and lo <= v <= hi):
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(v)


def gamma_sign(x: float) -> float:
    """Sign of Gamma at a real non-pole argument; a non-finite x raises DomainError."""
    if 0.0 < x < math.inf:
        return 1.0
    if not -math.inf < x < math.inf:
        raise DomainError(f"a Gamma argument must be finite, got {x!r}")
    return -1.0 if math.floor(x) % 2 else 1.0


@overflow_raises(DomainError)
def gamma(z):
    """Gamma function on the principal branch.

    Returns a float for real input, from the C library gamma, and a complex
    for complex input, exp(log_gamma(z)).  Raises PoleError at the poles
    (non-positive integers).
    """
    if is_nonpositive_integer(z):
        raise PoleError(z)
    if isinstance(z, complex):
        return cmath.exp(log_gamma(z))
    return math.gamma(z)


def log_gamma(z) -> complex:
    """log Gamma by the Lanczos sum, for real or complex z; ``gamma`` of a
    complex z is its exp.

    On Re z >= 0.5 this is the principal branch; to the left it is produced
    through reflection and may differ from the principal branch by a
    multiple of 2*pi*i, which is irrelevant once exponentiated.  The
    reflection takes sin(pi z) as (-1)^n sin(pi (z - n)), n the integer
    nearest Re z, where z - n is exact: near a pole pi z keeps few of the
    bits of z - n.
    """
    if is_nonpositive_integer(z):
        raise PoleError(z)
    z = complex(z)
    if z.real < 0.5:
        n = round(z.real)
        sine = cmath.sin(math.pi * (z - n)) * (-1.0 if n % 2 else 1.0)
        return cmath.log(math.pi) - cmath.log(sine) - log_gamma(1.0 - z)
    w = z - 1.0
    t = w + 7.5
    s = _LANCZOS[0]
    for i in range(1, 9):
        s += _LANCZOS[i] / (w + i)
    return (w + 0.5) * cmath.log(t) - t + cmath.log(_SQRT_TWO_PI * s)


@overflow_raises(DomainError)
def beta(a, b):
    """Euler Beta, Gamma(a)Gamma(b)/Gamma(a+b), assembled in log space."""
    for value in (a, b, a + b):
        if is_nonpositive_integer(value):
            raise PoleError(value)
    if isinstance(a, complex) or isinstance(b, complex):
        return cmath.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
    return (gamma_sign(a) * gamma_sign(b) * gamma_sign(a + b)
            * math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))


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
    value, _ = sum_hypergeometric(h ** nu / gamma(nu + 1.0), (), (1.0, nu + 1.0), -h * h, tol)
    return value


@overflow_raises(DomainError)
def bessel_i(mu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Modified Bessel function of the first kind by power series, DLMF
    10.25.2: (h^mu / Gamma(mu + 1)) 0F1(; mu + 1; h^2), h = x/2."""
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
    h = 0.5 * x
    first = gamma_sign(mu + 1.0) * math.exp(mu * math.log(h) - math.lgamma(mu + 1.0))
    return sum_hypergeometric(first, (), (1.0, mu + 1.0), h * h, tol)[0]


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
    value, _ = sum_hypergeometric(first, (), (1.5, nu + 1.5), -h * h, tol, j)
    return value


@overflow_raises(DomainError)
def b_nu(nu: float, x, tol: float = DEFAULT_TOL) -> complex:
    """Gamma-ratio exponential-type series
    sum_k Gamma(nu+k+1)/Gamma(2 nu+k+1) x^k / k!, for complex x.

    One 1F1 at every order.  Where 2 nu is an integer -j <= -1 the terms
    1/Gamma(2 nu+k+1) = 0 end at k = j, after an integer nu's head; else j
    is 0.  From k = j on it is x^j Gamma(a)/Gamma(b) 1F1(a; b; x), DLMF
    13.2.2, with a = nu+1+j and b = 2 nu+1+2j, summed by its term ratio;
    at Re x < 0 by ``sum_kummer`` as x^j Gamma(a)/Gamma(b) e^x
    1F1(nu+j; b; -x), DLMF 13.2.39, whose terms at nu >= 0 and real x are
    all positive.  Off the real axis it raises DomainError where eps times
    |x^j Gamma(a)/Gamma(b)| e^(Re x + |x|) on Kummer's route, or e^|x| on
    the other, passes tol |value|.  That bounds the terms' moduli at
    nu >= 0 and where j > 0; at the other nu < 0, where |(a)_k/(b)_k| can
    pass 1, it may not.  The same check holds eps times the largest term of
    an integer order's head, which alternates at x < 0, against tol |value|.
    A non-finite nu is a DomainError.
    """
    z = complex(x)
    a, b, j = nu + 1.0, 2.0 * nu + 1.0, 0
    if not nu >= 0:
        if not -math.inf < nu:
            raise DomainError(f"b_nu's order must be finite, got {nu!r}")
        if nu <= -0.5 and (2.0 * nu).is_integer():
            j = int(-2.0 * nu)
            a, b = a + j, b + 2 * j
    log_first = math.lgamma(a) - math.lgamma(b)
    if j and z:   # |x|^j joins the first term; (x/|x|)^j comes after the sum
        log_first += j * math.log(abs(z))
    y = z if z.imag else z.real
    if z.real < 0:
        value = sum_kummer(log_first, nu + j, b, y, tol)
        log_first += z.real   # the terms' bound is e^(Re x + |x|) times the first
    else:
        value, _ = sum_hypergeometric(math.exp(log_first), (a,), (b, 1.0), y, tol)
    bound = math.exp(log_first + abs(z)) if z.imag else 0.0
    if nu < 0:
        if gamma_sign(a) != gamma_sign(b):   # at j > 0 both are positive
            value = -value
        if j:
            value *= (y / abs(y)) ** j if z else 0.0
        if j % 2 == 0 < j:
            # integer nu = -n: for k < n both Gammas sit on poles, and the
            # ratio's limit along nu is 2 (-1)^n (2n-1-k)!/(n-1-k)!, whose
            # head is the terminating (2 (-1)^n (2n-1)!/(n-1)!) 1F1(1-n; 1-2n; z)
            n = j // 2
            t = (-2.0 if n % 2 else 2.0) * math.exp(math.lgamma(j) - math.lgamma(n))
            for i in range(n):
                value += t
                bound = max(bound, abs(t))
                t *= z * (1.0 - n + i) / ((1.0 - j + i) * (1.0 + i))
    if tol * abs(value) < sys.float_info.epsilon * bound:
        raise DomainError(f"b_nu's terms cancel past tol at x={x!r}")
    return complex(value)


# ---------------------------------------------------------------------------
# Hermite-type polynomial families
# ---------------------------------------------------------------------------


# Bound on the Hermite degree n and the pseudo_trig order m, whose loops run
# O(n) and O(m) per call and term.  It is ten times the largest in use and
# keeps a call such as truncated_e(1e9, ...) from running for minutes.  The
# order m of hermite_tricomi needs no bound: its loop ends at k = 177 - n.
_MAX_ORDER = 10_000


def _check_order(n, m) -> tuple:
    return (as_integer(n, "polynomial degree n", 0, _MAX_ORDER),
            as_integer(m, "order m", 2))


def pseudo_trig_orders(k, m) -> tuple:
    """(k, m) of c_k as ints, 2 <= m <= _MAX_ORDER and 0 <= k < m."""
    m = as_integer(m, "pseudo_trig order m", 2, _MAX_ORDER)
    return as_integer(k, "pseudo_trig index k", 0, m - 1), m


@overflow_raises(DomainError)
def hermite_higher(n: int, m: int, u, v):
    """Two-variable Hermite polynomial of order m.

    n! * sum_{k=0}^{floor(n/m)} u^{n-mk} v^k / ((n-mk)! k!), a finite sum
    with generating function exp(u z + v z^m), whose integer coefficients
    n!/((n-mk)! k!) are stepped exactly; a coefficient, a term or a sum
    past the double range raises.
    """
    n, m = _check_order(n, m)
    total, coeff = 0.0, 1
    for k in range(n // m + 1):
        j = n - m * k
        total += coeff * u ** j * v ** k
        coeff = coeff * math.perm(j, m) // (k + 1)
    return _finite_sum(total)


def _finite_sum(total):
    """``total``, or DomainError where finite terms summed past the double range."""
    if not cmath.isfinite(total):
        raise DomainError(f"the sum is not finite: {total!r}")
    return total


# 1/j! for j < 178; from j = 178 on, 1/j! is 0 in floats
_INV_FACTORIALS = tuple(1.0 / math.factorial(j) if j <= 170 else math.exp(-math.lgamma(j + 1.0))
                        for j in range(178))


def _hermite_sum(n: int, m: int, x, y, p: int, q: int):
    """sum_k x^{n-mk} y^k / ((n-mk)!^p k!^q) for checked n and m.  Each term
    is computed on its own: stepped from one that underflows, every later
    term would lose its bits or be 0.  A sum past the double range raises."""
    f, top = _INV_FACTORIALS, len(_INV_FACTORIALS)
    total = 0.0
    for k in range(n // m + 1):
        j = n - m * k
        term = x ** j * y ** k
        if q:   # not a factor 1.0: a complex times 1.0 can lose a signed zero
            term *= f[k] if k < top else 0.0
        total += term * (f[j] if j < top else 0.0) ** p
    return _finite_sum(total)


@overflow_raises(DomainError)
def hermite_hybrid(n: int, m: int, x, y):
    """Hybrid Hermite polynomial: sum_k x^{n-mk} y^k / (k! ((n-mk)!)^2)."""
    return _hermite_sum(*_check_order(n, m), x, y, 2, 1)


@overflow_raises(DomainError)
def truncated_e(n: int, m: int, x, y):
    """Truncated-exponential polynomial: sum_k x^{n-mk} y^k / ((n-mk)!)^2."""
    return _hermite_sum(*_check_order(n, m), x, y, 2, 0)


@overflow_raises(DomainError)
def pseudo_trig(k: int, m: int, x: float, tol: float = DEFAULT_TOL) -> float:
    """m-sected alternating exponential series c_k.

    sum_r (-1)^r x^{mr+k} / (mr+k)!; for m = 2 these are cos (k=0) and
    sin (k=1).  Entire in x.  It is the sum of its cached law
    ``umbral.pseudo_trig_series(k, m)``, the real part for a real x.
    """
    value = _umbral.pseudo_trig_series(k, m).evaluate(x, tol)
    return value if isinstance(x, complex) else value.real


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
    non-positive integer terminates the series.  Where a partial product
    of the first step's b_1 b_2 ... (times k!'s 1), taken in the loop's
    order, is subnormal, the ratio would keep only its few bits:
    DomainError.  Where the whole product is 0 the loop raises.
    """
    a = tuple(a)
    b = tuple(b)
    if len(a) > len(b) + 1:
        raise DomainError("hyper_pfq needs p <= q + 1")
    lower, subnormal = 1.0, None
    for bj in b:
        if is_nonpositive_integer(bj):
            raise PoleError(bj, message="hyper_pfq lower parameter at a pole")
        lower *= bj
        if 0.0 < abs(lower) < _TINY:
            subnormal = lower
    if lower and subnormal is not None:
        raise DomainError(f"hyper_pfq's lower parameters multiply to a subnormal {subnormal!r}")

    value, _ = sum_hypergeometric(1.0, a, b + (1.0,), y, tol)
    return value


from . import umbral as _umbral  # noqa: E402  (umbral imports this module first)
