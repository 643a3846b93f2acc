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
from itertools import count

from .errors import DomainError, PoleError, overflow_raises
from .summation import sum_series

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


def inv_gamma(x: float) -> float:
    """1/Gamma at real x, taking the analytic value 0 at the poles."""
    if is_nonpositive_integer(x):
        return 0.0
    sign, lg = signed_log_gamma(x)
    return sign * math.exp(-lg)


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

    def terms():
        t = h ** nu / gamma(nu + 1.0)
        k = 0
        while True:
            yield t
            t *= -h * h / ((k + 1.0) * (k + nu + 1.0))
            k += 1

    value, _ = sum_series(terms(), tol)
    return value


@overflow_raises(DomainError)
def bessel_i(mu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Modified Bessel function of the first kind, by power series."""
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
    value = _bessel_i_complex(mu, complex(x), tol)
    return value.real


def _bessel_i_complex(mu: float, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Modified Bessel series with a complex argument (principal powers).

    The reciprocal Gamma is applied per term so that poles (negative integer
    order) contribute exact zeros instead of breaking a term recurrence.
    """
    h = 0.5 * z
    pref = h ** mu

    def terms():
        u = complex(1.0)
        for k in count():
            yield pref * u * inv_gamma(k + mu + 1.0)
            u *= h * h / (k + 1.0)

    value, _ = sum_series(terms(), tol)
    return complex(value)


@overflow_raises(DomainError)
def struve_h(nu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Struve function by power series.

    Terms whose denominator Gamma sits at a pole are exactly zero (1/Gamma
    takes its analytic value 0 there), so half-odd negative orders are fine.
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
    lh = math.log(0.5 * x)

    def term(k):
        a = k + nu + 1.5
        if is_nonpositive_integer(a):
            return 0.0
        sign = -1.0 if k % 2 else 1.0
        sign *= gamma_sign(a)
        # math.lgamma returns log|Gamma|, valid for negative non-integer a
        return sign * math.exp((2 * k + nu + 1.0) * lh
                               - math.lgamma(k + 1.5) - math.lgamma(a))

    value, _ = sum_series((term(k) for k in count()), tol)
    return value


@overflow_raises(DomainError)
def b_nu(nu: float, x, method: str = "series", tol: float = DEFAULT_TOL) -> complex:
    """Gamma-ratio exponential-type series and its modified-Bessel form.

    series:  sum_k Gamma(nu+k+1)/Gamma(2 nu+k+1) x^k / k!
    bessel_closed_form:
             (sqrt(pi)/2) x^{1/2-nu} e^{x/2} [I_{nu-1/2}(x/2) + I_{nu+1/2}(x/2)]

    The closed form uses principal-branch powers and needs x != 0.  Both
    methods accept complex x and agree on their common domain.
    """
    z = complex(x)
    if method == "series":
        return _b_nu_series(nu, z, tol)
    if method == "bessel_closed_form":
        if z == 0:
            raise DomainError("the closed form of b_nu needs x != 0")
        half = 0.5 * z
        ibes = (_bessel_i_complex(nu - 0.5, half, tol)
                + _bessel_i_complex(nu + 0.5, half, tol))
        return 0.5 * math.sqrt(math.pi) * z ** (0.5 - nu) * cmath.exp(half) * ibes
    raise DomainError(f"unknown b_nu method {method!r}")


def _b_nu_series(nu: float, z: complex, tol: float) -> complex:
    def ratio(k: int) -> float:
        a1 = nu + k + 1.0
        a2 = 2.0 * nu + k + 1.0
        p1 = is_nonpositive_integer(a1)
        p2 = is_nonpositive_integer(a2)
        if p1 and p2:
            # Simultaneous poles: the ratio limit along nu is finite.  The
            # two arguments move at rates 1 and 2 in nu, hence the factor 2.
            n1 = int(round(-a1))
            n2 = int(round(-a2))
            sign = -1.0 if (n1 + n2) % 2 else 1.0
            return 2.0 * sign * math.exp(math.lgamma(n2 + 1.0) - math.lgamma(n1 + 1.0))
        if p1:
            raise PoleError(a1, message=f"b_nu numerator pole at term k={k}")
        if p2:
            return 0.0
        s1, l1 = signed_log_gamma(a1)
        s2, l2 = signed_log_gamma(a2)
        return s1 * s2 * math.exp(l1 - l2)

    def terms():
        u = complex(1.0)
        for k in count():
            yield ratio(k) * u
            u *= z / (k + 1.0)

    value, _ = sum_series(terms(), tol)
    return complex(value)


# ---------------------------------------------------------------------------
# Hermite-type polynomial families
# ---------------------------------------------------------------------------


def _check_order(n, m) -> tuple:
    return as_integer(n, "polynomial degree n", 0), as_integer(m, "order m", 2)


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
    sin (k=1).  Entire in x.
    """
    m = as_integer(m, "pseudo_trig order m", 2)
    k = as_integer(k, "pseudo_trig index k", 0, m - 1)

    def terms():
        t = x ** k * inv_factorial(k)
        r = 0
        while True:
            yield t
            f = 1.0
            for j in range(1, m + 1):
                f *= m * r + k + j
            t *= -(x ** m) / f
            r += 1

    value, _ = sum_series(terms(), tol)
    return value


def _hermite_higher_over_factorial(k: int, m: int, x, y):
    """H_k of order m divided by k!, assembled without large factorials."""
    total = 0.0
    for j in range(k // m + 1):
        i = k - m * j
        total += x ** i * y ** j * inv_factorial(i) * inv_factorial(j)
    return total


@overflow_raises(DomainError)
def hermite_tricomi(n: int, m: int, x, y, tol: float = DEFAULT_TOL) -> complex:
    """Bessel-like series with higher-Hermite coefficients.

    sum_k (-1)^k / (k! (n+k)!) * H_k(x, y) of order m.  The inner polynomial
    can grow before the factorials win, so the stopping rule is armed only
    once the running term ratio drops below 0.9.
    """
    n, m = _check_order(n, m)

    def term(k):
        sign = -1.0 if k % 2 else 1.0
        return sign * inv_factorial(n + k) * _hermite_higher_over_factorial(k, m, x, y)

    value, _ = sum_series((term(k) for k in count()), tol, ratio_guard=0.9)
    return complex(value)


# ---------------------------------------------------------------------------
# Generalized hypergeometric series
# ---------------------------------------------------------------------------


def hyper_pfq(a, b, y, tol: float = DEFAULT_TOL):
    """Generalized hypergeometric series pFq(a; b; y).

    sum_k prod_i (a_i)_k / prod_j (b_j)_k * y^k / k!, with the Pochhammer
    ratios folded into a term recurrence so nothing overflows.  Requires
    p <= q + 1 and no lower parameter at a non-positive integer; an upper
    parameter at a non-positive integer terminates the series.
    """
    a = tuple(a)
    b = tuple(b)
    if len(a) > len(b) + 1:
        raise DomainError("hyper_pfq needs p <= q + 1")
    for bj in b:
        if is_nonpositive_integer(bj):
            raise PoleError(bj, message="hyper_pfq lower parameter at a pole")

    def terms():
        t = 1.0
        k = 0
        while True:
            yield t
            num = 1.0
            for ai in a:
                num *= ai + k
            den = 1.0
            for bj in b:
                den *= bj + k
            t *= num / den * y / (k + 1.0)
            k += 1

    value, _ = sum_series(terms(), tol)
    return value
