"""Guarded series summation shared by the function kernel and the oracle:
the one stopping rule, in one loop with the term recurrence of every
hypergeometric power series, and Kummer's transformation of a 1F1."""

from __future__ import annotations

import math
import sys
from typing import Iterable, NamedTuple

from .errors import ConvergenceError

DEFAULT_CAP = 10_000

# Number of consecutive negligible terms required before a sum is accepted.
# A single small term is not trusted: alternating series routinely produce
# isolated near-zero terms well before convergence.  A multi-sected series,
# whose nonzero terms are m apart, hands the sum of each section of m terms
# as one term, so that its zero terms cannot pass the rule.
CONSECUTIVE_SMALL = 3

# Above _INF a term is not finite; a step from a term below _TINY (0 or
# subnormal) would keep too few bits.  Normal numbers' logs: [_LOG_TINY, _LOG_MAX].
_INF, _TINY = math.inf, sys.float_info.min
_LOG_TINY, _LOG_MAX = math.log(_TINY), math.log(sys.float_info.max)

# Shapes with at most this many parameters step in one expression; larger
# ones, such as pseudo_trig's (0, m), share one loop over a and b.
_UNROLLED = 8
_LOOPS = {}   # (len a, len b), or None past _UNROLLED: its compiled loop


class SeriesTail(NamedTuple):
    """Metadata describing how a truncated series ended."""

    terms_used: int
    last_term_magnitude: float
    converged: bool


def _not_converged(total, used: int, mag: float):
    """The error of a sum whose term ``used`` is not finite, or that used
    DEFAULT_CAP terms."""
    message = (f"series overflowed: non-finite term at index {used - 1}" if not mag < _INF
               else f"series did not converge within {used} terms (last |term| = {mag:.3e})")
    return ConvergenceError(message, partial=total, tail=SeriesTail(used, mag, False))


def _finished(total, used: int, mag: float):
    """A sum's return, or its error where the sum of finite terms passes the double range."""
    if abs(total) < _INF:
        return total, SeriesTail(used, mag, True)
    raise ConvergenceError(f"series overflowed: the sum of {used} terms passed the double "
                           "range", partial=total, tail=SeriesTail(used, _INF, False))


def _zero_divisor(total, used: int, mag: float):
    """The error of a step after term ``used`` whose prod(b_i + k) is 0."""
    return ConvergenceError(f"series step divided by zero after term {used - 1}: "
                            "prod(b_i + k) underflowed or some b_i + k is 0",
                            partial=total, tail=SeriesTail(used, mag, False))


def sum_series(terms: Iterable, tol: float):
    """Sum a stream of terms in ``sum_hypergeometric``'s loop, with its rule,
    returns and errors, each term seeded from the stream.  A stream that runs
    out, at DEFAULT_CAP terms too, is a finite sum, returned as converged."""
    stream = iter(terms)
    try:
        return sum_hypergeometric(None, (), (), 0.0, tol, seed=lambda _: next(stream),
                                  k_safe=_INF)
    except ConvergenceError as exc:
        if exc.tail.terms_used == DEFAULT_CAP and exc.tail.last_term_magnitude < _INF:
            if next(stream, None) is None:
                return _finished(exc.partial, DEFAULT_CAP, exc.tail.last_term_magnitude)
        raise


def sum_hypergeometric(t, a, b, y, tol: float, k=0, seed=None, k_safe=0,
                       weight=None):
    """Sum t_k + t_{k+1} + ... of a generalized hypergeometric series (DLMF
    16.2.1) from t = t_k until CONSECUTIVE_SMALL terms in a row have |term|
    <= tol |sum|, stepping each term in the same loop by one division:
    t_{j+1} = t_j y prod_i (a_i + j) / prod_i (b_i + j).  The loop is
    compiled once per shape (len a, len b); up to _UNROLLED parameters its
    step is one expression over parameters bound to locals, in the order of
    operations of the loop over a and b that larger shapes keep, and so with
    its bits.  Returns (value, SeriesTail).  Raises ConvergenceError after
    DEFAULT_CAP terms, where a term, its modulus or the sum of finite terms
    passes the double range, or where prod(b_i + j) is 0; the caller keeps
    it in the normal range.

    A Gamma-ratio law passes t = None and ``seed``: seed(j) is term j
    afresh, or None for a term that is 0 at every x and is not summed.
    Terms up to j = ``k_safe`` are seeded, and so is each term after a 0 or
    subnormal one.  ``weight(j)`` multiplies term j as it is summed only.
    A seed that raises StopIteration ends a finite sum.
    """
    loop = _LOOPS.get((len(a), len(b))) or _compile(len(a), len(b))
    # float + float is the cheaper addition in the loop
    return loop(t, a, b, y, tol, float(k), seed, k_safe, weight)


# The one loop of sum_hypergeometric; _compile fills in a shape's step.
_LOOP = """
def {name}(t, a, b, y, tol, k, seed, k_safe, weight):
    {bind}
    fresh = t is None
    total, small, mag = 0.0, 0, 0.0
    try:
        for used in range(1, DEFAULT_CAP + 1):
            if fresh:
                t = seed(k)
                while t is None:
                    k += 1.0
                    t = seed(k)
                fresh = False
            term = t * weight(k) if weight else t
            total += term
            mag = abs(term)
            if not mag < _INF:
                raise _not_converged(total, used, mag)
            if mag <= tol * abs(total):
                small += 1
                if small >= CONSECUTIVE_SMALL:
                    return _finished(total, used, mag)
            else:
                small = 0
            if seed and (k < k_safe or abs(t) < _TINY):
                fresh = True
            else:
                try:
                    {step}
                except ZeroDivisionError:
                    raise _zero_divisor(total, used, mag) from None
            k += 1.0
    except OverflowError:   # abs() of a complex past the double range
        raise _not_converged(total, used, _INF) from None
    except StopIteration:
        return _finished(total, used - 1, mag)
    raise _not_converged(total, DEFAULT_CAP, mag)
"""

# The step past _UNROLLED parameters; a shape within it multiplies out the same products.
_STEP = """num, den = y, 1.0
                    for c in a:
                        num *= c + k
                    for c in b:
                        den *= c + k
                    t *= num / den"""


def _compile(p: int, q: int):
    """The loop of the shape (p, q), compiled on its first use."""
    key = (p, q) if p + q <= _UNROLLED else None
    if key not in _LOOPS:
        if key is None:
            name, bind, step = "loop_past_unrolled", "", _STEP
        else:
            upper, lower = ([f"{c}{i}" for i in range(n)] for c, n in (("a", p), ("b", q)))
            bind = "; ".join(f"{', '.join(names)}, = {side}"
                             for names, side in ((upper, "a"), (lower, "b")) if names)
            num = " * ".join(["y"] + [f"({c} + k)" for c in upper])
            # without b it divides by 1.0 as the loop does: a complex / 1.0 can
            # differ from the complex in a signed zero
            den = f"({' * '.join(f'({c} + k)' for c in lower)})" if lower else "1.0"
            name, step = f"loop_{p}_{q}", f"t *= {num} / {den}"
        namespace = {}
        exec(_LOOP.format(name=name, bind=bind, step=step), globals(), namespace)
        _LOOPS[key] = namespace[name]
    return _LOOPS[key]


def sum_kummer(log_t: float, c, b, y, tol: float):
    """e^log_t 1F1(b - c; b; y) at Re y < 0 by Kummer's transformation, DLMF
    13.2.39: e^(log_t + y) (1 + the terms of 1F1(c; b; -y) from k = 1),
    summed apart from the 1.  At real y, b > 0 and c >= 0 the terms are
    positive; ``specfun.b_nu`` passes c < 0 at nu < 0 off the half-integers,
    and b < 0 too at nu < -1/2, where they can change sign.  The caller
    passes c = b - a.  A law's fl(alpha + beta) - alpha is exact at
    beta <= alpha (Sterbenz), so c keeps only the rounding of alpha + beta,
    a relative error eps (alpha + beta) / (2 beta), at most about 6e-15 for
    beta >= 0.2 and alpha <= 10.  ``specfun.b_nu``'s c = nu + j is exact:
    j is 0, or -2 nu and c = -nu.
    """
    rest, _ = sum_hypergeometric(c * -y / b, (c,), (b, 1.0), -y, tol, k=1)
    factor, whole = math.exp(log_t + y.real), 1.0 + rest
    if factor < _TINY and whole:   # a subnormal factor: |whole| joins its exponent
        size = abs(whole)
        factor, whole = math.exp(log_t + y.real + math.log(size)), whole / size
    value = factor * whole
    return value * complex(math.cos(y.imag), math.sin(y.imag)) if y.imag else value
