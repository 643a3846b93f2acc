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
caller takes the singular terms out and integrates them exactly, as
QUADPACK's QAWS does (closedforms._less_power_terms); an end still
unresolved when its panels run out of floats, or at 0 when halving its
panel no longer shrinks the error fast enough to reach tol before they
do, raises.

Every integral is a list of pieces, each integrated as above to its share
of the tolerance; a piece that misses its share raises with the sum so
far.  A half-line integral splits at a point x0 and folds [x0, infinity)
onto (0, 1] by x = x0/u.  An integrand bounded by one exponential,
a e^(-r x), comes with an ExponentialTail instead.  A conditionally
convergent integral comes with a ContourTail that describes f beyond x0
as smooth + w, where w is the trace of a function analytic and exponentially decaying
in the upper half-plane: the head [0, x0] of f and the folded smooth part
are pieces as above, and the integral of w moves up the vertical line from
x0 (numerical steepest descent).  Every tail, of either type, has one
envelope term and one rule: it is summed first by the rule of that method,
a pair of Gauss-Laguerre rules (12 and 18 points) in r x whose difference
is the error estimate, and only where the pair misses is it cut where the
envelope's tail is below its share of the tolerance and integrated in
pieces.  What bounds a tail, the pair's estimate or the envelope's
integral beyond the cut, takes half of the tolerance, and the pieces share
the other half.  An integrand that raises OverflowError ends the
integration with a QuadratureError that counts every integrand call made.

All routines are pure functions over caller-supplied integrands; the
integrand contract requires that it be safe to evaluate concurrently.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureResult",
    "ExponentialTail",
    "ContourTail",
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

# The 12- and 18-point Gauss-Laguerre rules for the weight e^-x, computed in
# mpmath: the nodes x_i, and the weights w_i times e^(x_i), so that
# sum_i W_i g(x_i) integrates g itself, of the form e^-x times a polynomial
# of degree below 24 (36), exactly over (0, infinity).
_XGL12 = (
    0.115722117358020675267196428240494,
    0.61175748451513066539163005304167,
    1.5126102697764187867817379268667,
    2.83375133774350722862747177657214,
    4.59922763941834848460572922485053,
    6.84452545311517734775433041849384,
    9.62131684245686704391238234923099,
    13.006054993306347720346052429401,
    17.1168551874622557281840528007592,
    22.1510903793970056699218950836638,
    28.4879672509840003125686072325215,
    37.0991210444669203366389142763581,
)
_WGL12 = (
    0.297209636044410797791981220367544,
    0.696462980430597230678066955855312,
    1.1077813946157521533394673801419,
    1.53846423904282912479403863350538,
    1.99832760627424276519696409653673,
    2.50074576910086687475087066330432,
    3.06532151828238623620460341805104,
    3.72328911078277159999560977971293,
    4.52981402998173506209331191236788,
    5.59725846183532109269052390850947,
    7.21299546092587700817113516652025,
    10.5438374619100811117158467701544,
)
_XGL18 = (
    0.078169166669705471298674761533442,
    0.412490085259129291039101536535819,
    1.01652017962353968919093686186689,
    1.89488850996976091426727831954126,
    3.05435311320265975115241130718887,
    4.50420553888989282633795571454897,
    6.25672507394911145274209116326313,
    8.32782515660563002170470261563667,
    10.737990047757609335217903339663,
    13.5136562075550898190863812108221,
    16.6893062819301059378183984162744,
    20.3107676262677428561313764553274,
    24.4406813592837027656442257980448,
    29.1682086625796161312980677804599,
    34.6279270656601721454012429438273,
    41.0418167728087581392948614283871,
    48.833922716086522748658609329002,
    59.0905464359012507037157810180769,
)
_WGL18 = (
    0.200677989208906042456711735385868,
    0.468552686891879312345103840472362,
    0.740265682653508482132884895216518,
    1.01759171730396685757336019638846,
    1.3028787020654185274613294165011,
    1.59886213975724197146416362631925,
    1.90881390696969144940538318579055,
    2.23677787785692886280874548803744,
    2.58792416679275046526546324054277,
    2.96910237772625302688999754513983,
    3.38974887385400469321494313335621,
    3.86346227604296058350217721957299,
    4.41093689696631678729455746167988,
    5.06593151461139059797696717983251,
    5.88894626367338954443867767663227,
    7.00435926919015216807565159336225,
    8.73234485076647154208563069167394,
    12.3799064921737474506342507203262,
)
_GL_NODES = _XGL12 + _XGL18

# The panels one adaptive piece may split into.
_MAX_INTERVALS = 20_000


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of one oracle integration."""

    value: complex
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _check_envelope(envelope, needs: str) -> None:
    try:   # exactly one pair (a, r) of finite positive numbers
        ok = len(envelope) == 1 and all(
            len(term) == 2 and all(0.0 < x < math.inf for x in term) for term in envelope)
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"{needs} (a, r), with finite a > 0 and r > 0")


@dataclass(frozen=True)
class ExponentialTail:
    """The envelope of an integrand on (0, infinity), one term ((a, r),):
    |f(x)| <= a e^(-r x), with a and r positive.  f is summed at
    Gauss-Laguerre nodes in r x, or cut at its envelope where they fall
    short.  An integrand that is a sum of terms decaying at different
    rates is integrated term by term, one tail each: nodes scaled by a
    slow rate miss a fast term, and a cut at the slow term's end leaves
    the fast term's decay to one panel."""

    envelope: tuple

    def __post_init__(self):
        _check_envelope(self.envelope, "an exponential tail needs one envelope term")


@dataclass(frozen=True)
class ContourTail:
    """The integrand beyond ``start`` as smooth + w, where w is the trace on
    the real axis of a function analytic in the upper half-plane that decays
    there exponentially.  By Cauchy's theorem the integral of w over
    [start, infinity) is i times that of w(start + i y) over y > 0, a smooth
    and exponentially decaying integrand (numerical steepest descent,
    Huybrechs & Vandewalle 2006).

    ``line`` is that integrand of y, i w(start + i y), or its real part
    where f is real; ``envelope``, one term ((a, r),), bounds it by
    a e^(-r y), as an ExponentialTail's bounds its integrand, and the line
    is summed as that integrand is.  ``smooth`` is the rest, None when f
    is all w.
    """

    start: float
    line: Callable
    envelope: tuple
    smooth: Callable | None = None

    def __post_init__(self):
        if not 0.0 < self.start < math.inf:
            raise DomainError("a contour tail needs a finite start > 0")
        _check_envelope(self.envelope, "a contour tail needs one envelope term")


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


def _adaptive(f, a: float, b: float, tol: float, spent: int = 0):
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
    Next to an end at 0 floats stay dense, and that test never holds; an
    end panel no wider than 200 eps of the piece's scale, max(|a|, |b|),
    ends the integration there when halving it shrank its error too slowly
    to reach ``tol`` before its width reaches the float floor, as for
    u^-0.99, whose missed mass u^0.01/0.01 stays above 1e-8 down to 1e-308.
    An integrand's OverflowError raises a QuadratureError counting its
    calls and ``spent``, the earlier pieces'.
    """
    frozen_err = 0.0
    evaluations = 0
    deep = 200.0 * _EPS * max(abs(a), abs(b))
    try:
        total, err_total, at_floor = _gauss_kronrod_15(f, a, b)
        evaluations = 15
        if err_total <= tol:   # one panel resolves most pieces
            return total, err_total, evaluations
        heap = [(-err_total, 0, a, b, total, err_total, at_floor)]
        n = 1
        while frozen_err <= tol < err_total + frozen_err and n < _MAX_INTERVALS and heap:
            _, _, left, right, value, err, at_floor = heapq.heappop(heap)
            mid = 0.5 * (left + right)
            splittable = left < mid < right
            if (left == a or right == b) and not (
                    splittable and right - left > 200.0 * _EPS * abs(mid)):
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
            if (left == a or right == b) and right - left <= deep:
                # the end half's error, shrinking by e_end/err a halving,
                # carried on down to the width of the smallest normal float
                e_end = e1 if left == a else e2
                halvings = max(1.0, math.log2(0.5 * (right - left) / _UNDERFLOW))
                if e_end > tol and e_end >= err * (tol / e_end) ** (1.0 / halvings):
                    break
        return total, err_total + frozen_err, evaluations
    except OverflowError as exc:
        raise QuadratureError(f"integrand overflowed: {exc.args[-1]}", partial=QuadratureResult(
            math.nan, math.inf, spent + evaluations + _calls_made(exc), False)) from exc


def _integrate_pieces(pieces, share: float, err: float = 0.0, value: complex = 0.0,
                      evaluations: int = 0) -> QuadratureResult:
    """The sum of the integrals of the pieces (name, f, a, b),
    f over [a, b] by _adaptive, each to absolute tolerance ``share``, with
    ``value``, ``err`` and ``evaluations``, those of what was integrated
    before, added to its own.  A piece that misses its share raises
    QuadratureError with the sum so far, that piece included, attached as
    the partial result.
    """
    for name, f, a, b in pieces:
        v, e, n = _adaptive(f, a, b, share, evaluations)
        value, err, evaluations = value + v, err + e, evaluations + n
        if not e <= share:   # nan included
            raise QuadratureError(f"{name} stalled at error {e:.3e} > {share:.3e}",
                                  partial=QuadratureResult(value, err, evaluations, False))
    return QuadratureResult(value, err, evaluations, True)


def integrate_finite(f: Callable, a: float, b: float, tol: float) -> QuadratureResult:
    """Adaptive integral over [a, b] to absolute tolerance ``tol``.

    Interior nodes only, so f need not be defined at a or b.  A raw end
    singularity is the caller's to take out: bisection alone resolves a
    mild one, such as u^(-1/2) at 0, but one whose end panels run out of
    floats first makes the call raise QuadratureError, as does the interval
    budget, ``_MAX_INTERVALS``, running out; the partial result is attached.
    """
    if not a < b:
        raise DomainError("integrate_finite needs a < b")
    return _integrate_pieces((("finite-interval quadrature", f, a, b),), tol)


def _fold(f, x0: float):
    """f on [x0, infinity) as an integrand over (0, 1]: x = x0/u.

    The fold puts a slow algebraic tail at u -> 0, where floats are
    logarithmically dense, so adaptive bisection can keep refining instead
    of hitting resolution limits.  The panels call it at u > 0 only.
    """
    def folded(u):
        x = x0 / u
        if not math.isfinite(x):
            return 0.0
        fx = f(x)
        if fx == 0.0:
            return 0.0
        return fx * x * x / x0

    return folded


def _envelope_cut(name: str, f, envelope, tol: float):
    """The pieces (name, f, a, b) of f over (0, infinity) up to the cut c
    where the tail a e^(-r c) / r of ``envelope``, ((a, r),), a bound of
    |f|, is ``tol``, and that tail: the fallback of a tail that the
    Gauss-Laguerre pair misses.  An envelope whose whole integral a/r is
    within ``tol`` leaves no piece.
    """
    ((a, r),) = envelope
    cut = max(0.0, math.log(a / (r * tol)) / r)
    pieces = [(f"{name} [0, {cut:g}]", f, 0.0, cut)] if cut > 0.0 else []
    return pieces, a * math.exp(-r * cut) / r


def _gauss_laguerre_pair(f, r: float):
    """The integral of f over (0, infinity), where f decays as e^(-r y)
    times a smooth function, as (Q18, max(|Q18 - Q12|, 50 eps
    sum_i |W_i f_i| / r)): Qn is the n-point Gauss-Laguerre rule in r y, and
    the second term of the estimate is the rounding floor GK15 uses.  An
    integrand's OverflowError raises a QuadratureError counting its calls.
    """
    values = []
    try:
        for x in _GL_NODES:
            values.append(f(x / r))
    except OverflowError as exc:
        raise QuadratureError(f"integrand overflowed: {exc.args[-1]}", partial=QuadratureResult(
            math.nan, math.inf, len(values) + 1, False)) from exc
    q12 = sum(map(operator.mul, _WGL12, values)) / r
    terms = list(map(operator.mul, _WGL18, values[len(_XGL12):]))
    q18 = sum(terms) / r
    return q18, max(abs(q18 - q12), 50.0 * _EPS * sum(map(abs, terms)) / r)


def integrate_half_line(f: Callable, tol: float,
                        tail: ExponentialTail | ContourTail | None = None) -> QuadratureResult:
    """Integral over (0, infinity) to absolute tolerance ``tol``.

    Without ``tail`` the integral splits at x = 1, folds [1, infinity) by
    x = 1/u, and integrates both pieces adaptively, each to half of
    ``tol``; f must decay.

    With a tail, f, or with a ContourTail its ``line``, is summed by one
    rule: first by the 12- and 18-point Gauss-Laguerre rules in r x, r the
    envelope's rate, the rule of numerical steepest descent.  When the
    pair's estimate, max(|Q18 - Q12|, its rounding floor), is within tol/2,
    the tail is Q18 and costs 30 evaluations.  Otherwise it is cut where
    the envelope's tail is below tol/2 (_envelope_cut), that tail joins the
    error estimate, and the pieces integrated by GK15 panels share the
    other half of ``tol`` equally; the pair's 30 evaluations count all the
    same.  An ExponentialTail's f is not folded: the fold would turn
    e^(-x) into a boundary layer e^(-1/u) at u = 0 that bisection meets by
    evaluating every panel on its way.

    With a ContourTail the integral is the sum of f over [0, start],
    ``smooth`` over [start, infinity), folded by x = start/u, and the line
    over (0, infinity); the head and the fold are pieces too.

    Every piece starts from one GK15 panel, so a piece that one panel
    resolves costs 15 evaluations.
    """
    if tail is None:
        return _integrate_pieces((("half-line head", f, 0.0, 1.0),
                                  ("half-line fold", _fold(f, 1.0), 0.0, 1.0)), 0.5 * tol)
    half, name, pieces = 0.5 * tol, "half-line piece", []
    if isinstance(tail, ContourTail):
        pieces.append(("half-line head", f, 0.0, tail.start))
        if tail.smooth is not None:
            pieces.append(("half-line fold", _fold(tail.smooth, tail.start), 0.0, 1.0))
        name, f = "contour piece", tail.line
    ((_, r),) = tail.envelope
    value, err = _gauss_laguerre_pair(f, r)
    if not err <= half:   # nan included: the pair misses, so cut at the envelope
        cut, err = _envelope_cut(name, f, tail.envelope, half)
        pieces, value = pieces + cut, 0.0
    return _integrate_pieces(pieces, half / max(len(pieces), 1), err, value, len(_GL_NODES))
