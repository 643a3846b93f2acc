"""Independent numerical ground truth.

Adaptive Gauss-Kronrod quadrature on finite and half-line domains, every
piece starting from one GK15 panel as in QUADPACK's QAGS.  This module
never calls the closed-form or umbral evaluators; integrands arrive as
plain callables of one float and may be complex valued.

Every integral refines one panel at a time, worst first.  An integrable
singularity at an end of the interval, such as x^(nu-1) at 0 in a Mellin
moment, keeps the panel at that end the worst one, and bisection alone
must halve it about log2(1/tol)/nu times before the mass it misses,
h^nu/nu, is below tol: for small nu, more often than floats allow.  So the
integral after each bisection of that panel also goes into a
Wynn's epsilon table for that end, and the extrapolated limit is the result
once its error estimate is within the tolerance (as in QUADPACK's QAGS).
An end panel that grows (a divergent end) is never extrapolated, and an end
that is still unresolved when its panels run out of floats raises.  A
half-line integral splits at a point x0 and folds [x0, infinity) onto
(0, 1] by x = x0/u.  A conditionally convergent integral comes with an
OscillatoryTail that describes f beyond x0 as smooth + wave: the head
[0, x0] of f and the folded smooth part are integrated as above, and the
wave one half-period at a time, its partial sums extrapolated by Wynn's
epsilon algorithm (as in QUADPACK's QAWF).  An integrand that raises
OverflowError ends the integration with a QuadratureError that counts
every integrand call made.

All routines are pure functions over caller-supplied integrands; the
integrand contract requires that it be safe to evaluate concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ExtrapolationError, QuadratureError

__all__ = [
    "QuadratureResult",
    "ExtrapolationTrace",
    "OscillatoryTail",
    "integrate_finite",
    "integrate_half_line",
]

_EPS = 2.220446049250313e-16
_UNDERFLOW = 2.2250738585072014e-308

# 15-point Kronrod extension of 7-point Gauss, the classic embedded pair.
# Even indices are Kronrod-only nodes, odd indices carry Gauss weights too.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# An oscillatory tail is summed over at least _MIN_PIECES + 1 and at most
# _MAX_PIECES half-periods (QUADPACK's QAWF allows 50 cycles).
_MIN_PIECES = 3
_MAX_PIECES = 50

# An extrapolated end is trusted only while its limit stays within this
# factor of the integral it extrapolates (QUADPACK's divergence test in
# QAGS); beyond it the limit rests on differences near rounding level.
_MAX_EXTRAPOLATION = 100.0

# The panels one adaptive piece may split into: all of integrate_finite,
# and each piece of integrate_half_line.
_FINITE_MAX_INTERVALS = 20_000
_HALF_LINE_MAX_INTERVALS = 40_000


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of one oracle integration."""

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool
    trace: "ExtrapolationTrace | None" = None


@dataclass(frozen=True)
class ExtrapolationTrace:
    """Record of an extrapolated oscillatory tail: the partial sums of the
    integral after each of its half-periods, and the last change of their
    epsilon-algorithm limit, which is the result's value."""

    values: tuple
    residual: float


@dataclass(frozen=True)
class OscillatoryTail:
    """The integrand beyond ``start`` as smooth + wave.

    ``wave`` changes sign about once every ``half_period``; ``smooth`` is
    the decaying rest, None when the integrand is all wave.
    """

    start: float
    half_period: float
    wave: Callable
    smooth: Callable | None = None

    def __post_init__(self):
        if not (self.start > 0.0 and self.half_period > 0.0):
            raise DomainError("an oscillatory tail needs start > 0 and half_period > 0")


def _nudged_inside(f, a: float, b: float):
    """f with each node that rounding put on or past an end of [a, b] moved
    to the nearest float inside."""
    def at(x):
        if x <= a:
            x = math.nextafter(a, b)
        elif x >= b:
            x = math.nextafter(b, a)
        return f(x)

    return at


def _gauss_kronrod_15(f, a: float, b: float):
    """One Gauss-7/Kronrod-15 panel; returns (value, error_estimate,
    at_floor), where ``at_floor`` says that the estimate is no more than the
    rounding floor 50 eps integral|f| that no split can lower.

    Nodes are interior in exact arithmetic; after rounding they can land on
    a panel endpoint, where the integrand contract no longer holds.  Rounding
    is monotone, so when the outermost pair is strictly inside, every node
    is; otherwise (a panel a few ulps wide) the nodes are nudged inside.
    The code is written out node by node, since the interpreter's work per
    node, not the integrand, bounds the oracle's speed on cheap integrands.
    The sums run in QUADPACK's order (the Gauss pairs 1, 3, 5 before the
    Kronrod pairs 0, 2, 4, 6; pairs 0 to 6 for resasc), which fixes every
    bit of the result.
    """
    center = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0 = h * x0
    if not (a < center - d0 and center + d0 < b):
        f = _nudged_inside(f, a, b)
    d1 = h * x1
    d2 = h * x2
    d3 = h * x3
    d4 = h * x4
    d5 = h * x5
    d6 = h * x6
    fc = f(center)
    f1l = f(center - d1)
    f1r = f(center + d1)
    f3l = f(center - d3)
    f3r = f(center + d3)
    f5l = f(center - d5)
    f5r = f(center + d5)
    f0l = f(center - d0)
    f0r = f(center + d0)
    f2l = f(center - d2)
    f2r = f(center + d2)
    f4l = f(center - d4)
    f4r = f(center + d4)
    f6l = f(center - d6)
    f6r = f(center + d6)

    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g1, g3, g5, gc = _WG
    s1 = f1l + f1r
    s3 = f3l + f3r
    s5 = f5l + f5r
    resg = gc * fc + g1 * s1 + g3 * s3 + g5 * s5
    resk = (w7 * fc + w1 * s1 + w3 * s3 + w5 * s5
            + w0 * (f0l + f0r) + w2 * (f2l + f2r) + w4 * (f4l + f4r) + w6 * (f6l + f6r))
    resabs = (w7 * abs(fc)
              + w1 * (abs(f1l) + abs(f1r)) + w3 * (abs(f3l) + abs(f3r))
              + w5 * (abs(f5l) + abs(f5r)) + w0 * (abs(f0l) + abs(f0r))
              + w2 * (abs(f2l) + abs(f2r)) + w4 * (abs(f4l) + abs(f4r))
              + w6 * (abs(f6l) + abs(f6r)))
    mean = resk * 0.5
    resasc = (w7 * abs(fc - mean)
              + w0 * (abs(f0l - mean) + abs(f0r - mean))
              + w1 * (abs(f1l - mean) + abs(f1r - mean))
              + w2 * (abs(f2l - mean) + abs(f2r - mean))
              + w3 * (abs(f3l - mean) + abs(f3r - mean))
              + w4 * (abs(f4l - mean) + abs(f4r - mean))
              + w5 * (abs(f5l - mean) + abs(f5r - mean))
              + w6 * (abs(f6l - mean) + abs(f6r - mean)))
    resabs *= h
    resasc *= h
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    if resabs > _UNDERFLOW / (50.0 * _EPS):
        err = max(err, floor)
    return resk * h, err, err <= floor


# The node values of a panel, in the order _gauss_kronrod_15 evaluates them.
_NODES = ("fc", "f1l", "f1r", "f3l", "f3r", "f5l", "f5r", "f0l", "f0r",
          "f2l", "f2r", "f4l", "f4r", "f6l", "f6r")


def _calls_made(exc) -> int:
    """The integrand calls of the panel that ``exc`` ended: the nodes that
    hold a value, and the call that raised."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code is not _gauss_kronrod_15.__code__:
        tb = tb.tb_next
    return 0 if tb is None else min(15, 1 + sum(map(tb.tb_frame.f_locals.__contains__, _NODES)))


class _EndExtrapolation:
    """Wynn's epsilon table over the bisection levels at one end of an
    interval (QUADPACK's QAGS).

    It is fed the integral after each bisection of the end panel.  Splits
    of other panels between two feeds would make steps in that sequence, so
    the table holds the integral as it would be with only this end refined,
    ``level_sum``.  Once three limits exist, ``correction`` is what the
    newest adds to that sum, ``error`` its QELG error (the distance from
    the two limits before it), and ``end_err`` the error estimate of the
    end panel, which the extrapolation replaces.
    """

    def __init__(self):
        self.table, self.limits = [], []
        self.level_sum = 0.0
        self.ready = False
        self.correction = self.error = self.end_err = 0.0

    def feed(self, value, children, end_value, end_err, total):
        """Record the split of the end panel of ``value`` into panels summing
        to ``children``, the one at the end of ``end_value`` and
        ``end_err``, with ``total`` the integral after it.  An end panel
        that does not shrink is no convergent singularity: the table starts
        again.
        """
        if not abs(end_value) < abs(value):
            self.__init__()
            return
        limits = self.limits
        if not self.table:   # the level before this split starts the table
            self.level_sum = total - (children - value)
            limits.append(_epsilon_step(self.table, self.level_sum))
        self.level_sum += children - value
        limit = _epsilon_step(self.table, self.level_sum)
        limits.append(limit)
        if len(limits) >= 3:
            self.ready = True
            self.correction = limit - self.level_sum
            self.error = abs(limit - limits[-2]) + abs(limit - limits[-3])
            self.end_err = end_err


def _adaptive(f, a: float, b: float, tol: float, max_intervals: int,
              spent: int = 0):
    """Worst-panel-first adaptive bisection over [a, b], starting from one
    panel, as in QUADPACK's QAGS.

    A panel that cannot be refined, because its midpoint is no longer
    representable or its error is at its rounding floor, has its error
    estimate frozen into the total instead of being split away, so the
    reported error stays honest at float-resolution limits; once the frozen
    errors alone exceed ``tol``, nothing can converge.  The worst panel
    touching an end of [a, b] ends the integration unconverged already
    when it is no wider than 200 eps of its midpoint (QUADPACK's test for
    bad integrand behaviour): its nodes have collapsed onto a few floats,
    so its own error estimate no longer measures the singularity there.

    When the worst panel touches an end and its split leaves a smaller end
    panel, the integral after the split also goes into that end's epsilon
    table (_EndExtrapolation).  The integral plus the corrections of both
    ends is the result once their QELG errors plus the other panels' errors
    are within ``tol``, unless it exceeds the integral it extrapolates by
    more than _MAX_EXTRAPOLATION.  An integrand's OverflowError raises a
    QuadratureError counting its calls and ``spent``, the earlier pieces'.
    """
    frozen_err = 0.0
    evaluations = 0
    try:
        total, err_total, at_floor = _gauss_kronrod_15(f, a, b)
        evaluations = 15
        if err_total <= tol:   # one panel resolves most pieces
            return total, err_total, evaluations
        heap = [(-err_total, 0, a, b, total, err_total, at_floor)]
        n = 1
        ends = (_EndExtrapolation(), _EndExtrapolation())
        while frozen_err <= tol < err_total + frozen_err and n < max_intervals and heap:
            _, _, left, right, value, err, at_floor = heapq.heappop(heap)
            end = ends[0] if left == a else ends[1] if right == b else None
            mid = 0.5 * (left + right)
            splittable = left < mid < right
            if end is not None and not (splittable and right - left > 200.0 * _EPS * abs(mid)):
                break
            if at_floor or not splittable:
                err_total -= err
                frozen_err += err
                continue
            total -= value
            err_total -= err
            v1, e1, floor1 = _gauss_kronrod_15(f, left, mid)
            evaluations += 15
            v2, e2, floor2 = _gauss_kronrod_15(f, mid, right)
            evaluations += 15
            total += v1 + v2
            err_total += e1 + e2
            heapq.heappush(heap, (-e1, n, left, mid, v1, e1, floor1))
            n += 1
            heapq.heappush(heap, (-e2, n, mid, right, v2, e2, floor2))
            n += 1
            if end is None:
                continue
            end_value, end_err = (v1, e1) if end is ends[0] else (v2, e2)
            end.feed(value, v1 + v2, end_value, end_err, total)
            if not end.ready or err_total + frozen_err <= tol:
                continue
            estimate, estimate_err = total, err_total + frozen_err
            for e in ends:
                if e.ready:
                    estimate += e.correction
                    estimate_err += e.error - e.end_err
            if estimate_err <= tol and abs(estimate) <= _MAX_EXTRAPOLATION * abs(total):
                return estimate, estimate_err, evaluations
        return total, err_total + frozen_err, evaluations
    except OverflowError as exc:
        raise QuadratureError(f"integrand overflowed: {exc.args[-1]}", partial=QuadratureResult(
            math.nan, math.inf, spent + evaluations + _calls_made(exc), False)) from exc


def _certified(interval: str, value, err: float, evaluations: int,
               tol: float) -> QuadratureResult:
    """The result of a single integral, or QuadratureError with it attached
    as the partial result when its error is above ``tol``."""
    result = QuadratureResult(value, err, evaluations, err <= tol)
    if not result.converged:
        raise QuadratureError(
            f"{interval} quadrature stalled at error {err:.3e} > {tol:.3e}",
            partial=result)
    return result


def integrate_finite(f: Callable, a: float, b: float, tol: float) -> QuadratureResult:
    """Adaptive integral over [a, b] to absolute tolerance ``tol``.

    Interior nodes only, so integrable endpoint singularities are handled by
    subdivision.  Raises QuadratureError (with the partial result attached)
    when the interval budget, ``_FINITE_MAX_INTERVALS``, runs out first.
    """
    if not a < b:
        raise DomainError("integrate_finite needs a < b")
    return _certified("finite-interval",
                      *_adaptive(f, a, b, tol, _FINITE_MAX_INTERVALS), tol)


def _fold(f, x0: float):
    """f on [x0, infinity) as an integrand over (0, 1]: x = x0/u.

    The fold puts a slow algebraic tail at u -> 0, where floats are
    logarithmically dense, so adaptive bisection can keep refining instead
    of hitting resolution limits.
    """
    def folded(u):
        if u <= 0.0:
            return 0.0
        x = x0 / u
        if not math.isfinite(x):
            return 0.0
        fx = f(x)
        if fx == 0.0:
            return 0.0
        return fx * x * x / x0

    return folded


def _epsilon_step(table: list, partial_sum):
    """Append one partial sum to Wynn's epsilon table and return the newest
    estimate of the limit.

    ``table`` holds the last counter-diagonal of the table, highest column
    first, and gets one rhombus-rule pass per new sum (Weniger 1989); the
    estimate is its highest even-column entry.  Entry j of the diagonal
    depends only on the sums from row j on, so where two entries of a
    column agree to rounding, the entries past that column are noise and
    the table restarts from row j.
    """
    table.append(partial_sum)
    aux2 = 0.0
    for j in range(len(table) - 1, 0, -1):
        aux1 = aux2
        aux2 = table[j - 1]
        diff = table[j] - aux2
        if abs(diff) <= _EPS * abs(aux2):
            del table[:j]
            break
        table[j - 1] = aux1 + 1.0 / diff
    return table[(len(table) - 1) % 2]


def _wave_tail(wave, start: float, half_period: float, tol: float,
               value, err: float, evaluations: int):
    """Add to the integral ``value`` of the rest of f the integral of
    ``wave`` over [start, infinity), one half-period at a time, with the
    partial sums extrapolated by Wynn's epsilon algorithm.

    Each piece aims at a sixteenth of what ``err`` leaves of ``tol``; the
    integration stalls when the errors pass ``tol`` itself.  The error
    estimate is, as in QUADPACK's QELG, the distance of the newest
    extrapolated value from each of the three before it, at least 5 eps of
    that value, plus ``err`` and the pieces' own errors.
    """
    piece_tol = (tol - err) / 16.0
    table, sums, estimates = [], [], []
    for k in range(_MAX_PIECES):
        a = start + k * half_period
        v, e, n = _adaptive(wave, a, a + half_period, piece_tol,
                            _HALF_LINE_MAX_INTERVALS, evaluations)
        value, err, evaluations = value + v, err + e, evaluations + n
        if not err <= tol:
            raise QuadratureError(
                f"oscillatory tail stalled on [{a:g}, {a + half_period:g}] "
                f"at error {err:.3e} > {tol:.3e}",
                partial=QuadratureResult(value, err, evaluations, False))
        sums.append(value)
        estimates.append(_epsilon_step(table, value))
        if k >= _MIN_PIECES:
            last = estimates[-1]
            total_err = err + max(abs(last - estimates[-2]) + abs(last - estimates[-3])
                                  + abs(last - estimates[-4]), 5.0 * _EPS * abs(last))
            if total_err <= tol:
                break
    trace = ExtrapolationTrace(tuple(sums), abs(last - estimates[-2]))
    result = QuadratureResult(last, total_err, evaluations, total_err <= tol, trace)
    if not result.converged:
        raise ExtrapolationError(
            f"oscillatory tail extrapolation settled at {total_err:.3e} > {tol:.3e}",
            partial=result)
    return result


def integrate_half_line(f: Callable, tol: float,
                        tail: OscillatoryTail | None = None) -> QuadratureResult:
    """Integral over (0, infinity) to absolute tolerance ``tol``.

    Without ``tail`` the integral splits at x = 1, folds [1, infinity) by
    x = 1/u, and integrates both pieces adaptively, each to half of
    ``tol``; f must decay.

    With ``tail``, which describes f as ``smooth + wave`` beyond
    ``tail.start``, the integral is the sum of three parts: f over
    [0, start]; ``smooth`` over [start, infinity), folded by x = start/u;
    and ``wave`` over [start, infinity), summed one half-period at a time
    and extrapolated by Wynn's epsilon algorithm (as in QUADPACK's QAWF).
    The head and the smooth part each get a quarter of ``tol``, the wave
    the rest.  Every piece starts from one GK15 panel, so a piece that one
    panel resolves costs 15 evaluations.  ``_HALF_LINE_MAX_INTERVALS``
    bounds each adaptive piece.
    """
    if tail is None:
        head = _adaptive(f, 0.0, 1.0, 0.5 * tol, _HALF_LINE_MAX_INTERVALS)
        fold = _adaptive(_fold(f, 1.0), 0.0, 1.0, 0.5 * tol, _HALF_LINE_MAX_INTERVALS,
                         head[2])
        return _certified("half-line", head[0] + fold[0], head[1] + fold[1],
                          head[2] + fold[2], tol)

    x0 = tail.start
    value, err, evaluations = 0.0, 0.0, 0
    parts = [("head", f, 0.0, x0)]
    if tail.smooth is not None:
        parts.append(("smooth part", _fold(tail.smooth, x0), 0.0, 1.0))
    for name, g, a, b in parts:
        v, e, n = _adaptive(g, a, b, 0.25 * tol, _HALF_LINE_MAX_INTERVALS, evaluations)
        value, err, evaluations = value + v, err + e, evaluations + n
        if not e <= 0.25 * tol:   # nan included
            raise QuadratureError(
                f"half-line {name} stalled at error {e:.3e} > {0.25 * tol:.3e}",
                partial=QuadratureResult(value, err, evaluations, False))
    return _wave_tail(tail.wave, x0, tail.half_period, tol, value, err, evaluations)
