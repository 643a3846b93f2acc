import cmath
import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from umbralint import cli, closedforms as cf, oracle, specfun as sf, summation, umbral as um
from umbralint.errors import ConvergenceError, DomainError, EngineError, QuadratureError
from umbralint.reference import (
    bessel_j_complex_ref,
    bessel_j_ref,
    pseudo_trig3_closed,
    struve_ref,
)

SQRT_PI = math.sqrt(math.pi)


def eq08_elementary(alpha, beta):
    return (0.5j / beta) * cmath.exp(-1j * alpha * alpha / (4.0 * beta))


class TestFresnelBessel:
    @pytest.mark.parametrize("ab", [(1.0, 1.0), (0.5, 2.0), (2.0, 5.0)])
    def test_order_zero_reduces_to_elementary_form(self, ab):
        alpha, beta = ab
        value = cf.fresnel_bessel(0.0, alpha, beta)
        expected = eq08_elementary(alpha, beta)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_reference_point(self):
        value = cf.fresnel_bessel(0.0, 1.0, 1.0)
        assert value.real == pytest.approx(0.5 * math.sin(0.25), rel=1e-12)
        assert value.imag == pytest.approx(0.5 * math.cos(0.25), rel=1e-12)

    def test_half_order_against_the_contour_oracle(self):
        params = {"nu": 0.5, "alpha": 1.0, "beta": 2.0}
        closed = cf.fresnel_bessel(**params)
        quad = cf.get_identity("eq08_fresnel_bessel").oracle_eval(params, abs(closed) * 2.5e-6)
        assert abs(closed - quad.value) <= 1e-5 * abs(closed)

    def test_continuity_toward_order_zero(self):
        # values converge to the elementary form with shrinking differences
        target = cf.fresnel_bessel(0.0, 1.0, 1.0)
        values = [cf.fresnel_bessel(nu, 1.0, 1.0) for nu in (0.1, 0.01, 0.001)]
        gaps = [abs(v - target) for v in values]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.fresnel_bessel(0.0, 2.0, 1.0)  # alpha^2 >= 4 beta
        with pytest.raises(DomainError):
            cf.fresnel_bessel(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            cf.fresnel_bessel(0.0, -1.0, 1.0)


class TestStruveHalfline:
    def test_values(self):
        assert cf.struve_halfline_integral(-0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert cf.struve_halfline_integral(-0.5, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert cf.struve_halfline_integral(-1.0, 3.0) == 0.0

    # tan(pi nu / 2) at a rounded pi nu / 2 was 1.6e-10, 1.5e-10 and 3.0e-13
    # off here; the values are 40-digit mpmath's
    @pytest.mark.parametrize("nu,b,exact", [
        (-1.999999, 2.0, -318309.8862097151563135553973239766064269),
        (-1.0000001, 1.0, -1.570796327712045955212063407547208783474e-7),
        (-1.9999, 0.3, -21220.65890438879052003034970904744835043),
    ])
    def test_near_a_pole_or_the_zero(self, nu, b, exact):
        assert cf.struve_halfline_integral(nu, b) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(38)
        with mpmath.workdps(40):
            for _ in range(500):
                nu = rng.uniform(-2.0, 0.0)
                b = math.exp(rng.uniform(math.log(0.1), math.log(1000.0)))
                exact = -1 / (b * mpmath.tan(mpmath.pi * mpmath.mpf(nu) / 2))
                got = cf.struve_halfline_integral(nu, b)
                assert abs(got - exact) <= 1e-15 * abs(exact), (nu, b)

    @pytest.mark.parametrize("nu", [-1.9, -1.8, -1.7, -1.55])
    @pytest.mark.parametrize("b", [0.3, 0.7, 1.2, 2.0])
    def test_smooth_part_is_one_panel(self, monkeypatch, nu, b):
        # with K_nu's z^(nu-1) and z^(nu-3) out, the folded smooth part is
        # one GK15 panel; with them in it took 45 to 135 evaluations here
        calls = []

        def counting(v):
            struve_h, bessel_y, struve_k, hankel1 = struve_ref(v)

            def counted_k(x):
                calls.append(x)
                return struve_k(x)
            return struve_h, bessel_y, counted_k, hankel1

        monkeypatch.setattr(cf.reference, "struve_ref", counting)
        identity = cf.get_identity("eq12_struve_halfline")
        identity.oracle_eval({"nu": nu, "b": b}, 0.25 * identity.default_tol)
        assert len(calls) == 15

    def test_domain(self):
        for nu in (-2.0, 0.0, 0.5, -2.5):
            with pytest.raises(DomainError):
                cf.struve_halfline_integral(nu, 1.0)
        with pytest.raises(DomainError):
            cf.struve_halfline_integral(-0.5, 0.0)


class TestStruveMoment:
    def test_values(self):
        assert cf.struve_moment_integral(0.0) == pytest.approx(math.pi, rel=1e-14)
        assert cf.struve_moment_integral(0.5) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-13)
        assert cf.struve_moment_integral(1.0) == pytest.approx(
            0.5 * math.pi, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.struve_moment_integral(-0.5)


def _oracle_meets_closed_form(identity_id, params):
    """The catalog oracle, run as verify runs it, within the identity's
    tolerance of the closed form on the oracle's budget scale, and its own
    error estimate within 3x of the true error."""
    identity = cf.get_identity(identity_id)
    tol = identity.default_tol
    closed = identity.closed(**params)
    scale = max(abs(closed), 1.0)
    r = identity.oracle_eval(params, 0.25 * tol * scale)
    error = abs(r.value - closed)
    assert error <= tol * scale, (params, closed, r)
    assert error <= 3.0 * r.abs_error_estimate, (params, closed, r)


class TestOscillatoryOracleDomain:
    # within about 0.02 of either end the integrand's endpoint singularity
    # is nearly non-integrable, past what the adaptive core resolves
    @pytest.mark.parametrize("nu", [-1.97, -1.8, -1.5, -1.25, -0.75, -0.5, -0.25, -0.03])
    @pytest.mark.parametrize("b", [0.1, 0.45, 2.0])
    def test_eq12(self, nu, b):
        _oracle_meets_closed_form("eq12_struve_halfline", {"nu": nu, "b": b})

    @pytest.mark.parametrize("nu", [-0.49, -0.25, 0.0, 0.5, 1.5, 3.0, 4.5, 6.0, 7.0, 8.0])
    def test_eq13(self, nu):
        _oracle_meets_closed_form("eq13_struve_moment", {"nu": nu})


def _contour_tail(monkeypatch, identity_id, params):
    """The ContourTail that the identity's oracle hands the oracle at
    ``params``."""
    tails = []

    def capture(f, tol, tail=None):
        tails.append(tail)
        return oracle.QuadratureResult(0.0, 0.0, 0, True)

    monkeypatch.setattr(cf.oracle, "integrate_half_line", capture)
    cf.get_identity(identity_id).oracle_eval(params, 1e-6)
    (tail,) = tails
    assert isinstance(tail, oracle.ContourTail)
    return tail


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _eq08_draw(rng):
    beta = _log_uniform(rng, 1e-2, 1e2)
    nu = rng.choice((0.0, rng.uniform(0.0, 2.0), _log_uniform(rng, 1e-3, 30.0)))
    return {"nu": nu, "alpha": rng.uniform(1e-6, 1.0) * 2.0 * math.sqrt(beta), "beta": beta}


def _eq12_draw(rng):
    return {"nu": rng.uniform(-2.0, 0.0), "b": _log_uniform(rng, 1e-2, 1e3)}


def _eq13_draw(rng):
    return {"nu": rng.choice((rng.uniform(-0.5, 8.0), _log_uniform(rng, 8.0, 300.0)))}


class TestContourEnvelopes:
    # |line(y)| <= sum_i a_i e^(-r_i y) on a grid of y out to where the
    # envelope has fallen by e^-40, over seeded draws from each identity's
    # whole domain: an envelope below its line would cut the tail short
    # with no sign in the estimate
    @pytest.mark.parametrize("identity_id, draw", [("eq08_fresnel_bessel", _eq08_draw),
                                                   ("eq12_struve_halfline", _eq12_draw),
                                                   ("eq13_struve_moment", _eq13_draw)])
    def test_envelope_bounds_the_line(self, monkeypatch, identity_id, draw):
        rng = random.Random(39)
        for _ in range(150):
            params = draw(rng)
            if not cf.get_identity(identity_id).check_point(params)[0]:
                continue
            tail = _contour_tail(monkeypatch, identity_id, params)
            slowest = min(r for _, r in tail.envelope)
            for k in range(81):
                y = 0.5 * k / slowest
                bound = sum(a * math.exp(-r * y) for a, r in tail.envelope)
                assert abs(tail.line(y)) <= bound, (params, y)


class TestContourOracleEstimate:
    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_eq13_meets_its_estimate(self, nu):
        # Y_nu goes up a vertical line; the error is within 3x the estimate
        r = cf.get_identity("eq13_struve_moment").oracle_eval({"nu": nu}, 1e-6)
        assert abs(r.value - cf.struve_moment_integral(nu)) <= 3.0 * r.abs_error_estimate


class TestOscillatoryOracleNodes:
    # every integrand evaluation of a contour oracle calls one reference
    # callable, the complex-argument J and H1 of its contour line included,
    # and no callable twice at the same argument
    @pytest.mark.parametrize("identity_id,point", [
        ("eq08_fresnel_bessel", {"nu": 0.0, "alpha": 0.5, "beta": 2.0}),
        ("eq08_fresnel_bessel", {"nu": 1.5, "alpha": 1.0, "beta": 1.0}),
        ("eq12_struve_halfline", {"nu": -1.5, "b": 1.0}),
        ("eq12_struve_halfline", {"nu": -0.5, "b": 2.0}),
        ("eq13_struve_moment", {"nu": 0.0}),
        ("eq13_struve_moment", {"nu": 5.0}),
    ])
    def test_each_reference_argument_once(self, monkeypatch, identity_id, point):
        seen = []

        def counted(ref):
            xs = []
            seen.append(xs)

            def call(x):
                xs.append(x)
                return ref(x)
            return call

        monkeypatch.setattr(cf.reference, "bessel_j_ref", lambda v: counted(bessel_j_ref(v)))
        monkeypatch.setattr(cf.reference, "bessel_j_complex_ref",
                            lambda v: counted(bessel_j_complex_ref(v)))
        monkeypatch.setattr(cf.reference, "struve_ref",
                            lambda v: tuple(map(counted, struve_ref(v))))
        identity = cf.get_identity(identity_id)
        report = cli.verify_point(identity, point, identity.default_tol)
        assert report.passed, report
        assert sum(map(len, seen)) == report.oracle_cost > 0
        for xs in seen:
            assert len(set(xs)) == len(xs)


class TestBesselGenerating:
    def test_zero_argument_collapses(self):
        for m in (2, 3):
            assert cf.bessel_generating_function(0.0, 0.7, m) == pytest.approx(1.0)

    def test_zero_parameter_collapses(self):
        for m in (2, 3):
            assert cf.bessel_generating_function(1.0, 0.0, m) == pytest.approx(
                sf.bessel_j(0.0, 2.0), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0])
    def test_methods_agree(self, m, t):
        for x in (0.25, 0.5, 1.0, 2.0):
            direct = cf.bessel_generating_function(x, t, m)
            tricomi = cf._closed_eq19(x, t, m)
            assert abs(direct - tricomi) <= 1e-8 * max(1.0, abs(direct))

    def test_validation(self):
        with pytest.raises(DomainError):
            cf.bessel_generating_function(1.0, 0.5, 1)

    # the sum by mpmath at 30 digits; the power series of each order cancel
    # from |x| ~ 6 on, the one recurrence does not
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(2, 6), x=st.floats(-12.0, 12.0), t=st.floats(-4.0, 4.0))
    def test_against_mpmath(self, m, x, t):
        mpmath = pytest.importorskip("mpmath")
        try:
            got = cf.bessel_generating_function(x, t, m)
        except EngineError:
            return
        with mpmath.workdps(30):
            total, n = mpmath.mpf(0), 0
            while True:
                term = (mpmath.mpf(t) ** n / mpmath.factorial(n)
                        * mpmath.besselj(m * n, 2 * mpmath.mpf(x)))
                total += term
                if n > 2 * abs(x) + 5 and abs(term) <= 1e-32 * max(abs(total), 1):
                    break
                n += 1
            expected = float(total)
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 1.0)

    # J_0(2x) ... J_top(2x) against scipy's jv, z = 2x in [-30, 30]: relative
    # past the turning point k = |z|, where J_k has no zeros, and absolute
    # before it, where |J_k| <= 1 and jv itself is off by up to 9e-16 next
    # to the turning point.  scipy's jv loses tiny values, so |x| starts at
    # 1e-3.
    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(st.floats(-15.0, -1e-3), st.floats(1e-3, 15.0)),
           top=st.integers(0, 60))
    def test_recurrence_against_scipy(self, x, top):
        got = cf._strided_bessel_j(x, 1, top)
        assert len(got) == top + 1
        for k, value in enumerate(got):
            expected = bessel_j_ref(k)(2.0 * x)
            if k > abs(2.0 * x):
                assert abs(value - expected) <= 1e-12 * abs(expected), k
            else:
                assert abs(value - expected) <= 2e-15, k

    # the power series of each order printed -0.00300444897825 here; the
    # sum by mpmath at 30 digits is -0.0030044578642523027
    def test_large_argument_case(self):
        got = cf.bessel_generating_function(10.56954297182655, 2.941566501090506, 2)
        assert got == pytest.approx(-0.0030044578642523027, rel=1e-12)

    # past |x| ~ 1,000 the w of the recurrence outgrew the double range and
    # the function raised; rerun rescaled, it meets the sums by mpmath at
    # 40 digits
    @pytest.mark.parametrize("x,t,m,expected", [
        (2000.0, 0.5, 2, -0.007647618904481982),
        (3000.0, 0.3, 3, 0.006177682144773599),
    ])
    def test_recurrence_past_the_double_range(self, x, t, m, expected):
        assert cf.bessel_generating_function(x, t, m) == pytest.approx(expected, rel=1e-12)

    def test_recurrence_past_its_order_cap_raises_convergence_error(self):
        # the recurrence's own error has no tail for sum_series to read
        with pytest.raises(ConvergenceError, match="10000 orders"):
            cf.bessel_generating_function(3800.0, 0.5, 2)


class TestBesselGaussDilation:
    def test_odd_vanishing_at_zero(self):
        assert cf.bessel_gauss_dilation(1, 0.0) == 0.0

    def test_matches_literal_series(self):
        for (n, x) in [(1, 1.0), (2, 2.0), (3, 0.5)]:
            literal = SQRT_PI * sum(
                (-1.0) ** k * (0.5 * x) ** (2 * k + n)
                / (math.factorial(k) * math.factorial(k + n)
                   * math.sqrt(2.0 * k + n))
                for k in range(60))
            assert cf.bessel_gauss_dilation(n, x) == pytest.approx(literal, rel=1e-12)

    def test_against_oracle(self):
        identity = cf.get_identity("eq28_bessel_gauss_dilation")
        for (n, x) in [(1, 1.0), (2, 2.0)]:
            closed = cf.bessel_gauss_dilation(n, x)
            quad = identity.oracle_eval({"n": n, "x": x}, 1e-10)
            assert abs(closed - quad.value) <= 1e-7 * abs(quad.value)

    def test_oracle_evaluates_each_node_once(self, monkeypatch):
        # the integrand is even in t: a whole-line rule would call J_n at
        # t and -t with the same argument.  Far out x e^{-t^2} underflows,
        # and those calls all share the argument 0
        calls = []

        def counting(n):
            bessel_j = bessel_j_ref(n)

            def counted(x):
                calls.append((n, x))
                return bessel_j(x)
            return counted

        monkeypatch.setattr(cf.reference, "bessel_j_ref", counting)
        identity = cf.get_identity("eq28_bessel_gauss_dilation")
        r = identity.oracle_eval({"n": 2.0, "x": 1.0}, 0.25 * identity.default_tol)
        assert len(calls) == r.evaluations > 0
        inside = [c for c in calls if c[1] != 0.0]
        assert len(set(inside)) == len(inside)

    def test_needs_positive_integer_order(self):
        with pytest.raises(DomainError):
            cf.bessel_gauss_dilation(0, 1.0)
        with pytest.raises(DomainError):
            cf.bessel_gauss_dilation(-1, 1.0)


class TestLorentzGauss:
    def test_value_at_zero(self):
        assert cf.lorentz_gauss_integral(0.0) == pytest.approx(0.5 * math.pi,
                                                               rel=1e-13)
        assert cf.lorentz_gauss_series(0.0) == pytest.approx(
            0.5 * math.pi, rel=1e-13)

    def test_against_oracle(self):
        closed = cf.lorentz_gauss_integral(1.0)
        quad = cf.get_identity("eq30_lorentz_gauss").oracle_eval({"x": 1.0}, 1e-11)
        assert abs(closed - quad.value) <= 1e-9 * abs(quad.value)

    def test_methods_agree(self):
        for x in (0.5, 1.0, 2.0, 3.0):
            a = cf.lorentz_gauss_series(x)
            b = cf.lorentz_gauss_integral(x)
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_series_is_the_shifted_lorentz_symbol(self):
        # the law once typed in by hand: sqrt(pi) Gamma(2k+3/2)/(k! Gamma(2k+2))
        typed = um.GammaRatioSequence(scale=math.sqrt(math.pi), numer=((1.5, 2.0),),
                                      denom=((1.0, 1.0), (2.0, 2.0)))
        assert cf._LORENTZ_SERIES.law == typed
        typed_series = um.CoefficientSeries(typed, stride=2, geometric=-1.0)
        for x in (0.0, 0.5, 1.0, 2.0, 3.0, -1.7):
            assert cf.lorentz_gauss_series(x) == \
                typed_series.evaluate(x).real

    def test_uncorrected_variant_disagrees_with_oracle(self):
        # the plain (2k+2) denominator gives pi/4 at x = 0, half the true
        # integral; the disagreement is the point of keeping the variant
        literal = cf.lorentz_gauss_paper_literal(0.0)
        assert literal == pytest.approx(0.25 * math.pi, rel=1e-13)
        quad = cf.get_identity("eq30_lorentz_gauss").oracle_eval({"x": 0.0}, 1e-11)
        assert quad.value == pytest.approx(0.5 * math.pi, abs=1e-10)
        assert abs(literal - quad.value) > 0.25 * math.pi - 1e-6


class TestPowerTerms:
    # x^(-1/2) (1 + 2x + 3x^2) on [0, 1] and x^-2 (1 - 1/x + 1/x^2) on
    # [1, infinity), each plus a part the terms do not hold
    @pytest.mark.parametrize("lo,hi,p1,s,coefficients,exact,extra,extra_integral", [
        (0.0, 1.0, 0.5, 1, (1.0, 2.0, 3.0), 2.0 + 4.0 / 3.0 + 6.0 / 5.0,
         math.exp, math.e - 1.0),
        (1.0, math.inf, -1.0, -1, (1.0, -1.0, 1.0), 1.0 - 0.5 + 1.0 / 3.0,
         lambda x: 1.0 / (x * x * x * x), 1.0 / 3.0),
    ])
    def test_pure_power_series_is_integrated_exactly(self, lo, hi, p1, s, coefficients,
                                                     exact, extra, extra_integral):
        def series(x):
            return sum(c * x ** (p1 - 1.0 + s * k) for k, c in enumerate(coefficients))

        rest, (value, rounding) = cf._less_power_terms(series, lo, hi, p1, s, coefficients,
                                                       1.0)
        assert value == pytest.approx(exact, rel=1e-15)
        assert rounding == pytest.approx(
            sys.float_info.epsilon * sum(abs(c) / abs(p1 + s * k)
                                         for k, c in enumerate(coefficients)), rel=1e-14)
        for x in (1e-6, 0.3, 1.0, 7.0, 1e6):
            if lo <= x <= hi:
                assert abs(rest(x)) <= 8.0 * sys.float_info.epsilon * abs(series(x))
        # with a part the terms do not hold, the rest integrates to that part
        rest, (value, _) = cf._less_power_terms(lambda x: series(x) + extra(x),
                                                lo, hi, p1, s, coefficients, 1.0)
        if math.isinf(hi):
            r = oracle.integrate_finite(lambda u: rest(lo / u) * lo / (u * u), 0.0, 1.0, 1e-12)
        else:
            r = oracle.integrate_finite(rest, lo, hi, 1e-12)
        assert r.value + value == pytest.approx(exact + extra_integral, rel=1e-12)
        assert r.evaluations == 15

    def test_terms_that_would_round_past_the_budget_stay_in(self):
        # on [0, 1/2] the terms of e^(40 u) reach 20^k/k!: at tol 1e-11 only
        # the first three are taken out, at tol 0 only the first, which is
        # the end's own mass
        coefficients = tuple(40.0 ** k / math.factorial(k) for k in range(8))
        for tol, kept in ((1.0, 8), (1e-11, 3), (0.0, 1)):
            rest, (value, rounding) = cf._less_power_terms(
                lambda u: u ** -0.5 * math.exp(40.0 * u), 0.0, 0.5, 0.5, 1, coefficients, tol)
            integrals = [c * 0.5 ** (k + 0.5) / (k + 0.5) for k, c in enumerate(coefficients)]
            assert value == pytest.approx(sum(integrals[:kept]), rel=1e-14)
            assert rounding <= max(tol / 200.0, sys.float_info.epsilon * abs(integrals[0]))
            assert rest(0.25) == pytest.approx(0.25 ** -0.5 * (math.exp(10.0) - sum(
                c * 0.25 ** k for k, c in enumerate(coefficients[:kept]))), rel=1e-12)


# eq31 and eq35: the Borel integrand as each oracle forms it, and its closed form
BOREL_PAIRS = {
    "eq31_borel_cosine": (lambda x: lambda t: math.exp(-t) * math.cos(x * t),
                          lambda x: 1.0 / (1.0 + x * x)),
    "eq35_borel_pseudo_trig3": (lambda x: lambda t: pseudo_trig3_closed(x * t, -t),
                                lambda x: 1.0 / (1.0 + x ** 3)),
}


class TestLaplaceOracle:
    # each at tol times max(|closed|, 1), as tools/estimate_sweep.py draws them
    @pytest.mark.parametrize("identity_id", sorted(BOREL_PAIRS))
    def test_error_within_three_estimates_on_seeded_points(self, identity_id):
        oracle_eval, closed = cf.get_identity(identity_id).oracle_eval, BOREL_PAIRS[identity_id][1]
        rng = random.Random(36)
        for x in (rng.uniform(-0.999, 0.999) for _ in range(20)):
            for tol in (1e-4, 1e-6, 1e-9):
                result = oracle_eval({"x": x}, tol * max(closed(x), 1.0))
                assert abs(result.value - closed(x)) <= 3.0 * result.abs_error_estimate, (x, tol)

    def test_no_piece_spans_a_fast_and_a_slow_term(self):
        # e^(-1.5 t) and e^(-0.005 t) at x = -0.995: one cut at the slow
        # term's end, about t = 2,000, left one GK15 panel to accept 66.665
        # for 67.001 at 178 times its estimate
        x = -0.995
        closed = 1.0 / (1.0 + x ** 3)
        result = cf.get_identity("eq35_borel_pseudo_trig3").oracle_eval({"x": x}, 1e-4 * closed)
        assert abs(result.value - closed) <= 3.0 * result.abs_error_estimate

    @pytest.mark.parametrize("identity_id", sorted(BOREL_PAIRS))
    def test_default_grid_costs_fewer_evaluations_than_the_fold(self, identity_id):
        identity = cf.get_identity(identity_id)
        integrand, closed = BOREL_PAIRS[identity_id]
        for x in identity.default_grid["x"]:
            tol = 0.25 * identity.default_tol * max(closed(x), 1.0)
            cut = identity.oracle_eval({"x": x}, tol)
            folded = oracle.integrate_half_line(integrand(x), tol)
            assert cut.value == pytest.approx(folded.value, abs=2.0 * tol)
            assert cut.evaluations < folded.evaluations, x

    # the geometric sum of the closed side reaches the radius, where the
    # loop's terms fell too slowly to end within its term budget
    @pytest.mark.parametrize("identity_id", sorted(BOREL_PAIRS))
    @pytest.mark.parametrize("x", [-0.9999, 0.9999])
    def test_verify_passes_near_the_radius(self, identity_id, x):
        report = cli.verify_point(cf.get_identity(identity_id), {"x": x}, 1e-8)
        assert report.passed, report.reason

    def test_envelope_below_tol_needs_no_piece(self):
        result = oracle.integrate_half_line(lambda t: math.exp(-4.0 * t), 1.0,
                                           oracle.ExponentialTail(((1.0, 4.0),)))
        assert (result.value, result.abs_error_estimate, result.evaluations) == (0.0, 0.25, 0)


def _eq13_half(p):
    nu = p["nu"]
    power = -(nu + 1.0)
    struve_h, _, struve_k, hankel1 = struve_ref(nu)
    x0 = max(nu, 1.0) + math.pi

    def weighted(ref):
        return lambda x: x ** power * ref(x)

    def line(y):
        z = complex(x0, y)
        return (z ** power * hankel1(z)).real

    envelope = (cf._envelope_term(power * math.log(x0) + cf._log_hankel_bound(nu, x0), 1.0),)
    return weighted(struve_h), oracle.ContourTail(x0, line, envelope, smooth=weighted(struve_k))


def _eq28_half(p):
    bessel_j = bessel_j_ref(p["n"])
    return (lambda t: bessel_j(p["x"] * math.exp(-t * t))), None


def _eq30_half(p):
    def integrand(t):
        w = 1.0 + t * t
        return math.exp(-p["x"] ** 2 / (w * w)) / (w * w)

    return integrand, None


class TestEvenOracles:
    # an even integrand's whole-line oracle integrates twice its half-line
    # integrand to the whole tol; doubling is exact in binary floating
    # point, so each result is twice the half-line one at tol/2, bit for bit.
    # eq13's contour tail doubles its envelope with its tol, so both cut
    # its line at the same point
    @pytest.mark.parametrize("identity_id, half", [("eq13_struve_moment", _eq13_half),
                                                   ("eq28_bessel_gauss_dilation", _eq28_half),
                                                   ("eq30_lorentz_gauss", _eq30_half)])
    def test_twice_the_half_line_result(self, identity_id, half):
        identity = cf.get_identity(identity_id)
        tol = 0.25 * identity.default_tol
        for values in itertools.product(*identity.default_grid.values()):
            p = dict(zip(identity.parameters, values))
            whole = identity.oracle_eval(p, tol)
            f, tail = half(p)
            half_result = oracle.integrate_half_line(f, tol / 2.0, tail)
            assert whole.value == 2.0 * half_result.value, p
            assert whole.abs_error_estimate == 2.0 * half_result.abs_error_estimate, p
            assert whole.evaluations == half_result.evaluations, p


class TestStruveKExpansion:
    # K_nu(z) less k_0 z^(nu-1) + k_1 z^(nu-3), the terms eq12's smooth part
    # takes out, against 40-digit mpmath: for real nu and z > 0 the rest of
    # DLMF 11.6.1 has the sign of its first neglected term, k_2 z^(nu-5),
    # with k_2 = 12 (nu-1/2)(nu-3/2) k_0, and is within it
    @pytest.mark.parametrize("nu", [-1.9, -1.7, -1.2, -0.7, -0.3])
    @pytest.mark.parametrize("z", [3.0 * math.pi, 20.0, 100.0])
    def test_rest_is_within_the_next_term(self, nu, z):
        mpmath = pytest.importorskip("mpmath")
        k0, k1 = cf._struve_k_terms(nu)
        with mpmath.workdps(40):
            nu_, z_ = mpmath.mpf(nu), mpmath.mpf(z)
            rest = (mpmath.struveh(nu_, z_) - mpmath.bessely(nu_, z_)
                    - k0 * z_ ** (nu_ - 1) - k1 * z_ ** (nu_ - 3))
            next_term = 12 * (nu_ - 0.5) * (nu_ - 1.5) * k0 * z_ ** (nu_ - 5)
            assert 0.0 < rest / next_term <= 1.01

    @pytest.mark.parametrize("nu", [-0.5, -1.5])
    def test_terms_vanish_with_k_nu(self, nu):
        assert cf._struve_k_terms(nu) == (0.0, 0.0)


class TestBetaExponential:
    # with 3 panels a piece the left one converges in 45 evaluations and the
    # right one stalls after 45 more; its partial result held the right's only
    def test_partial_result_holds_both_pieces(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_INTERVALS", 3)
        with pytest.raises(QuadratureError, match="stalled") as excinfo:
            cf.get_identity("eq36_beta_exponential").oracle_eval(
                {"alpha": 0.3, "beta": 0.1, "x": -5.0}, 1e-12)
        assert excinfo.value.partial.evaluations == 90

    def test_kummer_route_where_the_alternating_sum_cancelled(self):
        # B(a, b) 1F1(a; a+b; -x) at large a and x: the alternating series
        # lost 5.5e-10 here; Kummer's transformation sums positive terms
        special = pytest.importorskip("scipy.special")
        closed = cf.get_identity("eq36_beta_exponential").closed
        a, b, x = 8.0626, 0.1219, 9.5945
        expected = special.beta(a, b) * special.hyp1f1(a, a + b, -x)
        assert abs(closed(a, b, x) - expected) <= 1e-12 * abs(expected)


class TestCatalog:
    def test_expected_identities_present(self):
        ids = {d.id for d in cf.CATALOG}
        assert "eq08_fresnel_bessel" in ids
        assert "eq12_struve_halfline" in ids
        assert "eq30_lorentz_gauss" in ids

    def test_lookup(self):
        d = cf.get_identity("eq13_struve_moment")
        assert d.parameters == ("nu",)
        with pytest.raises(KeyError):
            cf.get_identity("nope")

    def test_domains_are_machine_checkable(self):
        d = cf.get_identity("eq12_struve_halfline")
        ok, _ = d.check_point({"nu": -0.5, "b": 1.0})
        assert ok
        ok, reason = d.check_point({"nu": 0.5, "b": 1.0})
        assert not ok and reason

    def test_every_identity_has_nonempty_domain_and_grid(self):
        for d in cf.CATALOG:
            assert d.parameter_domain
            assert set(d.default_grid) == set(d.parameters)
            assert d.default_tol > 0

    def test_closed_and_oracle_callable_on_cheap_points(self):
        cheap = {
            "eq19_bessel_generating": {"m": 2.0, "x": 0.5, "t": 0.5},
            "eq28_bessel_gauss_dilation": {"n": 1.0, "x": 1.0},
            "eq30_lorentz_gauss": {"x": 0.5},
            "eq02_mellin_exponential": {"nu": 0.5},
            "eq02_mellin_rational": {"nu": 0.5},
            "eq31_borel_cosine": {"x": 0.5},
            "eq35_borel_pseudo_trig3": {"x": 0.5},
            "eq36_beta_exponential": {"alpha": 2.0, "beta": 3.0, "x": 1.0},
        }
        for identity_id, point in cheap.items():
            d = cf.get_identity(identity_id)
            ok, _ = d.check_point(point)
            assert ok
            closed = complex(d.closed(**point))
            quad = d.oracle_eval(point, max(abs(closed), 1.0) * d.default_tol)
            assert abs(closed - quad.value) <= \
                4.0 * d.default_tol * max(abs(quad.value), 1.0)

    def test_oracles_never_reach_the_series_kernels(self, monkeypatch):
        # every oracle on its default grid, at verify's tolerance, with
        # specfun's public kernels, the two summation loops and umbral's
        # series sum made to raise wherever they are bound; eq19's oracle is
        # the double-series route by design
        jobs = []
        for d in cf.CATALOG:
            if d.id == "eq19_bessel_generating":
                continue
            for values in itertools.product(*d.default_grid.values()):
                point = dict(zip(d.parameters, values))
                scale = max(abs(complex(d.closed(**point))), 1.0)
                jobs.append((d, point, 0.25 * d.default_tol * scale))
        public = [getattr(sf, name) for name in sf.__all__]
        kernels = ([value for value in public if callable(value)]
                   + [summation.sum_hypergeometric, summation.sum_series, um._sum_terms])
        reached = []

        def forbidden(*args, **kwargs):
            reached.append(args)
            raise AssertionError("an oracle reached a series kernel")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "umbralint":
                for attr, value in list(vars(module).items()):
                    if any(value is kernel for kernel in kernels):
                        monkeypatch.setattr(module, attr, forbidden)
        with pytest.raises(AssertionError):   # the patch is in force
            cf.get_identity("eq13_struve_moment").closed(nu=0.5)
        reached.clear()
        for d, point, tol in jobs:
            d.oracle_eval(point, tol)
        assert not reached


# One point per identity and declared condition: the first default-grid
# point with one parameter moved so that this condition is the first broken.
BROKEN = [
    ("eq08_fresnel_bessel", {"nu": -0.5}, "nu >= 0"),
    ("eq08_fresnel_bessel", {"alpha": -0.5}, "alpha > 0"),
    ("eq08_fresnel_bessel", {"beta": -1.0}, "beta > 0"),
    ("eq08_fresnel_bessel", {"alpha": 3.0}, "alpha^2 < 4 beta"),
    ("eq12_struve_halfline", {"nu": 0.5}, "-2 < nu < 0"),
    ("eq12_struve_halfline", {"nu": -2.0}, "-2 < nu < 0"),
    ("eq12_struve_halfline", {"b": 0.0}, "b > 0"),
    ("eq13_struve_moment", {"nu": -0.5}, "nu > -1/2"),
    ("eq19_bessel_generating", {"m": 2.5}, "m integer >= 2"),
    ("eq19_bessel_generating", {"m": 1.0}, "m integer >= 2"),
    ("eq19_bessel_generating", {"m": math.inf}, "m integer >= 2"),
    ("eq19_bessel_generating", {"m": math.nan}, "m integer >= 2"),
    ("eq19_bessel_generating", {"m": 2j}, "m integer >= 2"),
    ("eq28_bessel_gauss_dilation", {"n": 0.0}, "n integer > 0"),
    ("eq28_bessel_gauss_dilation", {"n": 1.5}, "n integer > 0"),
    ("eq28_bessel_gauss_dilation", {"n": 1j}, "n integer > 0"),
    ("eq30_lorentz_gauss", {"x": 1j}, "x real"),
    ("eq02_mellin_exponential", {"nu": 1.0}, "0 < nu < 1"),
    ("eq02_mellin_rational", {"nu": 0.0}, "0 < nu < 1"),
    ("eq31_borel_cosine", {"x": 1.0}, "|x| < 1"),
    ("eq35_borel_pseudo_trig3", {"x": -1.0}, "|x| < 1"),
    ("eq36_beta_exponential", {"alpha": 0.0}, "alpha > 0"),
    ("eq36_beta_exponential", {"beta": -1.0}, "beta > 0"),
]

# the closed forms that take the parameters directly and check them
SELF_CHECKING = {
    "eq08_fresnel_bessel": "fresnel_bessel",
    "eq12_struve_halfline": "struve_halfline_integral",
    "eq13_struve_moment": "struve_moment_integral",
    "eq19_bessel_generating": "bessel_generating_function",
    "eq28_bessel_gauss_dilation": "bessel_gauss_dilation",
}


def first_grid_point(d):
    return {name: values[0] for name, values in d.default_grid.items()}


class TestDomainDeclaration:
    @pytest.mark.parametrize("identity_id,change,text", BROKEN)
    def test_first_broken_condition_is_named(self, identity_id, change, text):
        d = cf.get_identity(identity_id)
        point = {**first_grid_point(d), **change}
        assert d.check_point(point) == (False, f"needs {text}")
        if identity_id in SELF_CHECKING:
            function = SELF_CHECKING[identity_id]
            with pytest.raises(DomainError, match=f"^{re.escape(function)} needs "
                                                  f"{re.escape(text)}$"):
                d.closed(**point)

    def test_every_declared_condition_is_tested(self):
        tested = {(identity_id, text) for identity_id, _, text in BROKEN}
        declared = {(d.id, text) for d in cf.CATALOG for text, _ in d.parameter_domain}
        assert tested == declared

    @pytest.mark.parametrize("d", cf.CATALOG, ids=lambda d: d.id)
    def test_closed_forms_take_grid_keywords(self, d):
        point = first_grid_point(d)
        assert d.check_point(point) == (True, "")
        assert d.parameters == tuple(d.default_grid)
        for closed in (d.closed, *d.variants.values()):
            assert cmath.isfinite(complex(closed(**point)))

    def test_integral_orders_are_taken_as_integers(self):
        assert cf.bessel_generating_function(0.5, 0.5, 3.0) == \
            cf.bessel_generating_function(0.5, 0.5, 3)
        assert cf.bessel_gauss_dilation(2.0, 1.5) == cf.bessel_gauss_dilation(2, 1.5)
