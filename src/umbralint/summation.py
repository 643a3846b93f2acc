"""Guarded series summation shared by the function kernel and the oracle,
and the one term recurrence of every hypergeometric power series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConvergenceError

DEFAULT_CAP = 10_000

# Number of consecutive negligible terms required before a sum is accepted.
# A single small term is not trusted: alternating series routinely produce
# isolated near-zero terms well before convergence.  A multi-sected series,
# whose nonzero terms are m apart, hands the sum of each section of m terms
# as one term, so that its zero terms cannot pass the rule.
CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class SeriesTail:
    """Metadata describing how a truncated series ended."""

    terms_used: int
    last_term_magnitude: float
    converged: bool


def sum_series(terms: Iterable, tol: float):
    """Sum ``terms`` until they are negligible against the partial sum.

    Terminates once |term| <= tol * |partial sum| holds for
    CONSECUTIVE_SMALL terms in a row.

    Returns ``(value, SeriesTail)``.  Raises ConvergenceError when
    DEFAULT_CAP terms were consumed without convergence.  A series that
    simply runs out of terms (a finite sum) is returned as converged.
    """
    total = 0.0
    small = 0
    last_mag = 0.0
    used = 0
    for k, term in enumerate(terms):
        if k >= DEFAULT_CAP:
            raise ConvergenceError(
                f"series did not converge within {DEFAULT_CAP} terms "
                f"(last |term| = {last_mag:.3e})",
                partial=total,
                tail=SeriesTail(used, last_mag, False),
            )
        total += term
        used = k + 1
        mag = abs(term)
        if not math.isfinite(mag):
            raise ConvergenceError(
                f"series overflowed: non-finite term at index {k}",
                partial=total,
                tail=SeriesTail(used, mag, False),
            )
        last_mag = mag
        if mag <= tol * abs(total):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return total, SeriesTail(used, mag, True)
        else:
            small = 0
    return total, SeriesTail(used, last_mag, True)


def hypergeometric_terms(t, a, b, y, k=0):
    """The terms t_k, t_{k+1}, ... of a generalized hypergeometric series
    (DLMF 16.2.1), from the term t = t_k:
    t_{j+1} = t_j y prod_i (a_i + j) / prod_i (b_i + j).

    The ratio is one division of y prod(a_i + j) by prod(b_i + j): with
    integer or half-integer parameters the products are exact, which keeps
    the rounding per term to about four.  The caller keeps prod(b_i + j)
    in the normal range.  A k! in the denominator is a b of 1.
    """
    k = float(k)  # float + float is the cheaper addition in the loop
    while True:
        yield t
        num, den = y, 1.0
        for c in a:
            num *= c + k
        for c in b:
            den *= c + k
        t *= num / den
        k += 1.0
