"""Independent numerical ground truth.

Adaptive Gauss-Kronrod quadrature on finite, half-line, and whole-line
domains, and damping-ladder regularization for conditionally convergent
integrals.  This module never calls the closed-form or umbral evaluators;
integrands arrive as plain callables of one float and may be complex valued.

Single integrals refine one panel at a time, worst first.  A damping ladder
integrates f e^{-eps_r x^p} for all of its rungs r in one adaptive pass:
each node is evaluated once, the rungs are a matrix axis of the damped
values, and the panels are split in batches.  An integrand that raises
OverflowError ends the integration with a QuadratureError.

All routines are pure functions over caller-supplied integrands; the
integrand contract requires that it be safe to evaluate concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ExtrapolationError, QuadratureError, overflow_raises

__all__ = [
    "QuadratureResult",
    "RegularizationTrace",
    "integrate_finite",
    "integrate_half_line",
    "integrate_real_line",
    "integrate_oscillatory_gaussian",
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
# The same pair over all 15 nodes in ascending order, for batches of panels:
# node offsets, Kronrod weights, and Gauss weights (zero at Kronrod-only nodes).
_GAUSS_AT_XGK = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3])
_NODES15 = np.array(tuple(-x for x in _XGK) + _XGK[-2::-1])
_WK15 = np.array(_WGK + _WGK[-2::-1])
_WG15 = np.array(_GAUSS_AT_XGK + _GAUSS_AT_XGK[-2::-1])

# Damping ladders eps_j = 0.2 * 2^-j: 8 rungs of exp damping, and 6 rungs of
# Gaussian damping scaled by beta.  Each is geometric with ratio 2, which
# the exponent elimination in _extrapolate relies on.
_LADDER_RATIO = 2.0
_EXP_LADDER = tuple(0.2 * _LADDER_RATIO ** (-j) for j in range(8))
_EXP_EXPONENTS = (1, 1, 2, 2, 3, 3)
_OSC_RUNGS = 6
_OSC_EXPONENTS = (1, 2, 3, 4, 5)
# Both ladders start from 16 equal panels of each half-line piece.
_LADDER_PANELS = 16


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of one oracle integration."""

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool
    trace: "RegularizationTrace | None" = None


@dataclass(frozen=True)
class RegularizationTrace:
    """Record of a damping ladder: damped values and their extrapolation."""

    epsilons: tuple
    values: tuple
    extrapolated: complex
    residual: float
    residual_history: tuple


def _gauss_kronrod_15(f, a: float, b: float):
    """One Gauss-7/Kronrod-15 panel; returns (value, error_estimate).

    Nodes are interior in exact arithmetic; after rounding they can land on
    a panel endpoint, where the integrand contract no longer holds, so they
    are nudged strictly inside.
    """
    center = 0.5 * (a + b)
    h = 0.5 * (b - a)

    def at(x):
        if x <= a:
            x = math.nextafter(a, b)
        elif x >= b:
            x = math.nextafter(b, a)
        return f(x)

    fc = at(center)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    pairs = [None] * 7
    for j in range(3):
        dx = h * _XGK[2 * j + 1]
        f1 = at(center - dx)
        f2 = at(center + dx)
        pairs[2 * j + 1] = (f1, f2)
        resg += _WG[j] * (f1 + f2)
        resk += _WGK[2 * j + 1] * (f1 + f2)
        resabs += _WGK[2 * j + 1] * (abs(f1) + abs(f2))
    for j in range(4):
        dx = h * _XGK[2 * j]
        f1 = at(center - dx)
        f2 = at(center + dx)
        if 2 * j < 7:
            pairs[2 * j] = (f1, f2)
        resk += _WGK[2 * j] * (f1 + f2)
        resabs += _WGK[2 * j] * (abs(f1) + abs(f2))
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += _WGK[j] * (abs(f1 - mean) + abs(f2 - mean))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UNDERFLOW / (50.0 * _EPS):
        err = max(err, 50.0 * _EPS * resabs)
    return value, err


def _adaptive(f, a: float, b: float, tol: float, max_intervals: int,
              panels: int):
    """Worst-panel-first adaptive bisection over [a, b], starting from
    ``panels`` equal panels.

    A panel whose midpoint is no longer representable cannot be refined;
    its error estimate is frozen into the total instead of being split
    away, so the reported error stays honest at float-resolution limits.
    """
    heap = []
    total = 0.0
    err_total = 0.0
    frozen_err = 0.0
    evaluations = 0
    n = 0
    for i in range(panels):
        left = a + (b - a) * i / panels
        right = a + (b - a) * (i + 1) / panels
        value, err = _gauss_kronrod_15(f, left, right)
        evaluations += 15
        total += value
        err_total += err
        heapq.heappush(heap, (-err, n, left, right, value, err))
        n += 1
    while err_total + frozen_err > tol and n < max_intervals and heap:
        _, _, left, right, value, err = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        if not left < mid < right:
            err_total -= err
            frozen_err += err
            continue
        total -= value
        err_total -= err
        v1, e1 = _gauss_kronrod_15(f, left, mid)
        v2, e2 = _gauss_kronrod_15(f, mid, right)
        evaluations += 30
        total += v1 + v2
        err_total += e1 + e2
        heapq.heappush(heap, (-e1, n, left, mid, v1, e1))
        n += 1
        heapq.heappush(heap, (-e2, n, mid, right, v2, e2))
        n += 1
    return total, err_total + frozen_err, evaluations


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


@overflow_raises(QuadratureError, "integrand")
def integrate_finite(f: Callable, a: float, b: float, tol: float,
                     max_intervals: int = 20_000) -> QuadratureResult:
    """Adaptive integral over [a, b] to absolute tolerance ``tol``.

    Interior nodes only, so integrable endpoint singularities are handled by
    subdivision.  Raises QuadratureError (with the partial result attached)
    when the interval budget runs out first.
    """
    if not a < b:
        raise DomainError("integrate_finite needs a < b")
    return _certified("finite-interval", *_adaptive(f, a, b, tol, max_intervals, 1),
                      tol)


def _half_line(core, f, tol):
    """Split at x = 1 and fold the tail with x = 1/u.

    Both pieces then put their difficult behavior (an origin singularity, a
    slow algebraic tail) at u -> 0, where floats are logarithmically dense,
    so adaptive bisection can keep refining instead of hitting resolution
    limits.  ``core(integrand, x_of, tol)`` integrates one piece over [0, 1];
    ``x_of`` maps an array of its nodes to x.
    """
    def tail(u):
        if u <= 0.0:
            return 0.0
        x = 1.0 / u
        if not math.isfinite(x):
            return 0.0
        fx = f(x)
        if fx == 0.0:
            return 0.0
        return fx * x * x

    v1, e1, n1 = core(f, np.positive, 0.5 * tol)        # x = t
    v2, e2, n2 = core(tail, np.reciprocal, 0.5 * tol)   # x = 1/u
    return v1 + v2, e1 + e2, n1 + n2


def _ladder_panels(g, x_of, eps, power, left, right):
    """GK15 on every panel [left_i, right_i] of g(t) e^{-eps_r x(t)^power},
    for every rung r at once; returns values and error estimates, each of
    shape (panels, rungs).

    g is called once per node, on a float, and not at all where even the
    weakest damping underflows.  Nodes are nudged inside their panel as in
    _gauss_kronrod_15.
    """
    left = left[:, None]
    right = right[:, None]
    h = 0.5 * (right - left)
    t = 0.5 * (left + right) + h * _NODES15
    t = np.where(t <= left, np.nextafter(left, right), t)
    t = np.where(t >= right, np.nextafter(right, left), t)
    with np.errstate(over="ignore", divide="ignore"):
        xp = x_of(t) ** power
    live = eps[-1] * xp <= 745.0
    sampled = np.array([g(v) for v in t[live].tolist()])
    fx = np.zeros(t.shape, np.result_type(sampled, 0.0))
    fx[live] = sampled

    damped = np.multiply(xp[:, None, :], -eps[:, None])
    damped[damped < -745.0] = -np.inf
    np.exp(damped, out=damped)
    if np.iscomplexobj(fx):
        # a new array: the float damping factors cannot hold complex values
        damped = damped * fx[:, None, :]
    else:
        damped *= fx[:, None, :]

    resk = damped @ _WK15
    resg = damped @ _WG15
    resabs = np.abs(damped) @ _WK15
    resasc = np.abs(damped - 0.5 * resk[..., None]) @ _WK15
    values = resk * h
    err = np.abs((resk - resg) * h)
    resabs *= np.abs(h)
    resasc *= np.abs(h)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UNDERFLOW / (50.0 * _EPS),
                   np.maximum(err, 50.0 * _EPS * resabs), err)
    return values, err


def _adaptive_ladder(g, x_of, eps, power, tol, max_intervals):
    """Adaptive bisection over [0, 1] of g(t) e^{-eps_r x(t)^power} for all
    rungs r at once, until every rung's error is within ``tol``.

    Each round takes the rung with the largest error and splits, largest
    first, its panels that together hold half of its error above ``tol``.
    ``max_intervals`` and the frozen-midpoint rule act as in _adaptive.
    Returns per-rung values and errors and the evaluation count.
    """
    left = np.arange(_LADDER_PANELS) / _LADDER_PANELS
    right = np.arange(1, _LADDER_PANELS + 1) / _LADDER_PANELS
    values, errors = _ladder_panels(g, x_of, eps, power, left, right)
    n = _LADDER_PANELS
    frozen_value = 0.0
    frozen_err = 0.0
    while True:
        err = frozen_err + errors.sum(axis=0)
        worst = int(np.argmax(err))
        excess = err[worst] - tol
        if not excess > 0.0 or n >= max_intervals or len(left) == 0:
            break
        order = np.argsort(-errors[:, worst], kind="stable")
        held = np.cumsum(errors[order, worst])
        count = int(np.searchsorted(held, 0.5 * excess)) + 1
        pick = order[:min(count, (max_intervals - n + 1) // 2)]
        mid = 0.5 * (left[pick] + right[pick])
        splits = (left[pick] < mid) & (mid < right[pick])
        frozen = pick[~splits]
        frozen_value = frozen_value + values[frozen].sum(axis=0)
        frozen_err = frozen_err + errors[frozen].sum(axis=0)
        split, mid = pick[splits], mid[splits]
        new_left = np.concatenate((left[split], mid))
        new_right = np.concatenate((mid, right[split]))
        new_values, new_errors = _ladder_panels(g, x_of, eps, power,
                                                new_left, new_right)
        n += len(new_left)
        keep = np.ones(len(left), dtype=bool)
        keep[pick] = False
        left = np.concatenate((left[keep], new_left))
        right = np.concatenate((right[keep], new_right))
        values = np.concatenate((values[keep], new_values))
        errors = np.concatenate((errors[keep], new_errors))
    return frozen_value + values.sum(axis=0), err, 15 * n


def _extrapolate(values, ratio: float, exponents):
    """Eliminate c eps^p terms stage by stage on a geometric ladder.

    A repeated exponent removes an eps^p log(eps) component: the first pass
    turns it into a pure eps^p term, the second annihilates it.  Returns the
    extrapolated value and the per-stage step sizes.
    """
    vals = list(values)
    estimate = vals[-1]
    history = []
    amplification = 1.0
    for p in exponents:
        if len(vals) < 2:
            break
        factor = ratio ** p
        vals = [(factor * vals[j + 1] - vals[j]) / (factor - 1.0)
                for j in range(len(vals) - 1)]
        history.append(abs(vals[-1] - estimate))
        estimate = vals[-1]
        amplification *= (factor + 1.0) / (factor - 1.0)
    return estimate, history, amplification


def _run_ladder(f, power, ladder, exponents, tol, inner_tol, max_intervals):
    """Integrate f e^{-eps x^power} on every ladder rung in one adaptive
    pass and extrapolate to eps -> 0."""
    eps = np.array(ladder, dtype=float)

    def core(piece, x_of, piece_tol):
        return _adaptive_ladder(piece, x_of, eps, power, piece_tol, max_intervals)

    values, errors, evaluations = _half_line(core, f, inner_tol)
    values, errors = values.tolist(), errors.tolist()
    for rung, value, err in zip(ladder, values, errors):
        if err > inner_tol:
            raise QuadratureError(
                f"ladder rung eps={rung:g} stalled at error {err:.3e} > {inner_tol:.3e}",
                partial=QuadratureResult(value, err, evaluations, False))
    inner_err = max(errors)
    estimate, history, amplification = _extrapolate(values, _LADDER_RATIO, exponents)
    residual = history[-1] if history else math.inf
    err_est = residual + amplification * inner_err
    trace = RegularizationTrace(tuple(ladder), tuple(values), estimate,
                                residual, tuple(history))
    result = QuadratureResult(estimate, err_est, evaluations, err_est <= tol,
                              trace=trace)
    if not result.converged:
        raise ExtrapolationError(
            f"ladder extrapolation settled at {err_est:.3e} > {tol:.3e}",
            partial=result)
    return result


@overflow_raises(QuadratureError, "integrand")
def integrate_half_line(f: Callable, tol: float, damping: str = "none",
                        max_intervals: int = 40_000) -> QuadratureResult:
    """Integral over (0, infinity) to absolute tolerance ``tol``.

    damping="none" splits at x = 1, folds the tail by x -> 1/x, and
    integrates both pieces adaptively; the integrand must decay.
    damping="exp_extrapolated" computes the integral of f(x) e^{-eps x} on
    the ladder eps_j = 0.2 * 2^-j, j = 0..7, and extrapolates to eps -> 0,
    which also handles conditionally convergent oscillatory tails.  All
    rungs share one adaptive pass, so f is evaluated once per node, and
    ``max_intervals`` bounds each of its two pieces.  The elimination
    exponents (1, 1, 2, 2, 3, 3) remove the eps^k log(eps) contributions
    that algebraic integrand tails produce.
    """
    if damping == "none":
        def core(piece, _, piece_tol):
            return _adaptive(piece, 0.0, 1.0, piece_tol, max_intervals, 8)

        return _certified("half-line", *_half_line(core, f, tol), tol)
    if damping != "exp_extrapolated":
        raise DomainError(f"unknown damping mode {damping!r}")

    inner_tol = max(tol / 200.0, 5e-12)
    return _run_ladder(f, 1, _EXP_LADDER, _EXP_EXPONENTS, tol, inner_tol,
                       max_intervals)


@overflow_raises(QuadratureError, "integrand")
def integrate_real_line(f: Callable, tol: float) -> QuadratureResult:
    """Integral over the whole line via the rational map t = u/(1-u^2)."""
    def mapped(u):
        w = 1.0 - u * u
        if w <= 0.0:
            return 0.0
        t = u / w
        if not math.isfinite(t):
            return 0.0
        ft = f(t)
        if ft == 0.0:
            return 0.0
        return ft * (1.0 + u * u) / (w * w)

    return _certified("whole-line", *_adaptive(mapped, -1.0, 1.0, tol, 40_000, 8),
                      tol)


@overflow_raises(QuadratureError, "integrand")
def integrate_oscillatory_gaussian(f: Callable, beta: float, tol: float,
                                   max_intervals: int = 40_000) -> QuadratureResult:
    """Half-line integral of h(x) e^{i beta x^2}-type integrands.

    Gaussian damping e^{-eps x^2} on the ladder eps_j = 0.2 beta 2^-j,
    j = 0..5, all rungs in one adaptive pass, then polynomial extrapolation
    to eps -> 0 with exponents 1..5.  The damped values are analytic in eps
    (the nearest singularity sits at eps = i beta), so plain power
    elimination converges geometrically.
    """
    if beta <= 0:
        raise DomainError("integrate_oscillatory_gaussian needs beta > 0")
    ladder = tuple(0.2 * beta * _LADDER_RATIO ** (-j) for j in range(_OSC_RUNGS))
    inner_tol = max(tol / 100.0, 5e-12)
    return _run_ladder(f, 2, ladder, _OSC_EXPONENTS, tol, inner_tol, max_intervals)
