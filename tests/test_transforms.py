import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import hyp1f1

from umbralint import oracle, specfun as sf, transforms as tr, umbral as um
from umbralint.closedforms import get_identity
from umbralint.errors import ConvergenceError, DomainError
from umbralint.reference import bessel_j_ref

from references import hybrid_hermite_moment

# sum_k (-x)^k / (k!)^2 and its exponential-moment preimage sum_k (-x)^k / (k!)^3
BESSEL_MOMENTS = tr.CoefficientSeries(um.GammaRatioSequence(denom=((1.0, 1.0),) * 2),
                                      geometric=-1.0)
BESSEL_PREIMAGE = tr.CoefficientSeries(um.GammaRatioSequence(denom=((1.0, 1.0),) * 3),
                                       geometric=-1.0)
# the symbol 1/Gamma(a + 1), which undoes borel_transform's Gamma(a + 1)
BOREL_INVERSE = um.MellinMultiplier(um.bessel_phi())


class TestCoefficientSeries:
    def test_gamma_ratio_law_with_alternation(self):
        # exp(-x) as a coefficient series
        s = tr.CoefficientSeries(um.GammaRatioSequence(denom=((1.0, 1.0),)),
                                 geometric=-1.0)
        assert s.evaluate(1.0) == pytest.approx(complex(math.exp(-1.0)), rel=1e-12)

    def test_geometric_factor(self):
        s = tr.CoefficientSeries(law=um.bessel_phi(), geometric=0.5)
        # sum (x/2)^k / k! = e^{x/2}
        assert s.evaluate(2.0) == pytest.approx(complex(math.e), rel=1e-12)


class TestPseudoTrigSeries:
    # the orders of specfun.pseudo_trig, by its rule as_integer: a float
    # order raised DomainError and no order was too large
    def test_float_orders_are_the_integer_series(self):
        assert tr.pseudo_trig_series(0, 3.0) is tr.pseudo_trig_series(0, 3)
        assert tr.pseudo_trig_series(1.0, 3) is tr.pseudo_trig_series(1, 3)
        assert (tr.pseudo_trig_series(0, 3.0).evaluate(0.8).real
                == pytest.approx(sf.pseudo_trig(0, 3.0, 0.8), rel=1e-14))

    @pytest.mark.parametrize("k,m", [(0, 1), (0, 10_001), (3, 3), (-1, 3), (0, 2.5),
                                     (0.5, 3), (0, math.nan), (0, 1j), ("zero", 3)])
    def test_orders_out_of_range_raise(self, k, m):
        with pytest.raises(DomainError):
            tr.pseudo_trig_series(k, m)
        with pytest.raises(DomainError):
            sf.pseudo_trig(k, m, 0.5)

    def test_largest_order(self):
        assert tr.pseudo_trig_series(9_999, 10_000).stride == 10_000

    # from slope ~ 700 the law's expanded product 900!/900^900 underflows;
    # the step divided by zero and _sum_terms raised a bare ZeroDivisionError
    def test_slope_past_the_normal_range_is_specfuns(self):
        assert tr.pseudo_trig_series(0, 900).evaluate(0.5) == sf.pseudo_trig(0, 900, 0.5)

    # the steps leave the normal range, and each term is seeded in log space:
    # 900!/900^900 underflows, and x^m overflowed before y = -x^m/m^m was
    # scaled, so that (0, 300) at x = 100 raised 'series overflowed'
    @pytest.mark.parametrize("k,m,x", [(0, 900, 330.0), (7, 900, 250.0), (450, 900, 300.0),
                                       (0, 300, 100.0)])
    def test_steps_past_the_normal_range(self, k, m, x):
        with mpmath.workdps(40):
            expected = float(mpmath.nsum(
                lambda r: (-1) ** r * mpmath.mpf(x) ** (m * r + k)
                / mpmath.factorial(m * r + k), [0, mpmath.inf]))
        assert tr.pseudo_trig_series(k, m).evaluate(x).real == pytest.approx(
            expected, rel=1e-13, abs=0.0)


class TestBorelPair:
    def test_factorial_multiplication_on_moment_series(self):
        # coefficients phi(k)/(k!)^2 become phi(k)/k!
        L = tr.borel_transform(BESSEL_PREIMAGE)
        for k in range(50):
            assert L.coefficient(k) == pytest.approx(BESSEL_MOMENTS.coefficient(k),
                                                     rel=1e-12)

    def test_cosine_to_geometric(self):
        L = tr.borel_transform(tr.pseudo_trig_series(0, 2))
        for x in (0.0, 0.3, 0.5, -0.6):
            assert L.evaluate(x, tol=1e-13) == pytest.approx(
                complex(1.0 / (1.0 + x * x)), rel=1e-11)

    def test_inverse_of_geometric_is_pseudo_trig(self):
        for m in (2, 3):
            # 1/(1 + x^m) = sum_r (-1)^r x^(m r)
            geometric = tr.CoefficientSeries(um.GammaRatioSequence(), stride=m, geometric=-1.0)
            g = BOREL_INVERSE.edit(geometric)
            for k in range(40):
                assert g.coefficient(k) == pytest.approx(
                    tr.pseudo_trig_series(0, m).coefficient(k), rel=1e-12)
            assert g.evaluate(0.7).real == pytest.approx(
                sf.pseudo_trig(0, m, 0.7), rel=1e-11)

    def test_inverse_of_exponential(self):
        # e^x coefficients divided by k! give sum x^k/(k!)^2
        L = tr.CoefficientSeries(law=um.bessel_phi())
        g = BOREL_INVERSE.edit(L)
        direct = sum(1.0 / math.factorial(k) ** 2 for k in range(40))
        assert g.evaluate(1.0).real == pytest.approx(direct, rel=1e-12)

    def test_round_trip_exact(self):
        candidates = [
            tr.pseudo_trig_series(0, 2),
            tr.pseudo_trig_series(0, 3),
            BESSEL_PREIMAGE,
            tr.CoefficientSeries(law=um.GammaRatioSequence(numer=((1.0, 1.0),)),
                                 geometric=-0.25),
        ]
        for g in candidates:
            back = BOREL_INVERSE.edit(tr.borel_transform(g))
            assert back == g
            for k in range(50):
                assert back.coefficient(k) == g.coefficient(k)

    @pytest.mark.parametrize("m", [2, 3])
    def test_divergent_argument_raises_convergence_error(self, m):
        # past |x| = 1 the transformed terms grow until one leaves the
        # double range; that must end the sum, not raise OverflowError
        L = tr.borel_transform(tr.pseudo_trig_series(0, m))
        with pytest.raises(ConvergenceError):
            L.evaluate(1.5)

    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_integral_consistency(self, x):
        # series side of the transform against the defining moment integral;
        # the integrands grow at most like e^{u/2}, so beyond t = 700 the
        # e^{-t} weight has won and the contribution is identically zero
        pairs = [
            (tr.pseudo_trig_series(0, 2), lambda u: math.cos(u)),
            (tr.pseudo_trig_series(0, 3),
             lambda u: sf.pseudo_trig(0, 3, u, tol=1e-14)),
            (BESSEL_PREIMAGE,
             lambda u: BESSEL_PREIMAGE.evaluate(u, tol=1e-14).real),
        ]
        for series, g in pairs:
            lhs = tr.borel_transform(series).evaluate(x, tol=1e-13)

            def integrand(t, _g=g):
                if t > 700.0:
                    return 0.0
                return math.exp(-t) * _g(x * t)

            quad = oracle.integrate_half_line(integrand, 1e-11)
            assert abs(lhs - quad.value) <= 1e-8 * abs(quad.value)


class TestHybridHermiteMoments:
    """Eq. 34: the termwise exponential-moment transform of the hybrid
    Hermite polynomial is the order-m Hermite polynomial over n! in the
    first variable and the truncated exponential in the second."""

    def test_trivial(self):
        assert hybrid_hermite_moment(0, 2, 1.3, -0.4, "first") == 1.0
        assert hybrid_hermite_moment(0, 3, 1.3, -0.4, "second") == 1.0

    def test_hand_expansion(self):
        x, y = 1.7, -0.6
        assert hybrid_hermite_moment(2, 2, x, y, "first") == pytest.approx(
            x * x / 2.0 + y, rel=1e-13)
        assert hybrid_hermite_moment(2, 2, x, y, "second") == pytest.approx(
            x * x / 4.0 + y, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 3])
    def test_first_variable_reproduces_scaled_polynomial(self, m):
        x, y = 0.9, 1.4
        for n in range(9):
            lhs = hybrid_hermite_moment(n, m, x, y, "first")
            rhs = sf.hermite_higher(n, m, x, y) / math.factorial(n)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    # up to past the edge of specfun's 1/j! table; the scale is the sum of
    # the terms' moduli, the transform at |x|, |y|
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_second_variable_reproduces_truncated_polynomial(self, m):
        for n in (*range(9), *range(9, 201, 7)):
            for x, y in ((-1.1, 0.8), (9.0, 2.0), (0.5 + 1.5j, -3.0)):
                lhs = hybrid_hermite_moment(n, m, x, y, "second")
                scale = hybrid_hermite_moment(n, m, abs(x), abs(y), "second")
                assert abs(lhs - sf.truncated_e(n, m, x, y)) <= 1e-14 * scale


class TestBetaTransform:
    def test_uniform_average_of_exponential(self):
        series = tr.beta_transform(um.exponential_series(), 1.0, 1.0)
        assert series.evaluate(1.0) == pytest.approx(
            complex(1.0 - math.exp(-1.0)), rel=1e-12)

    def test_value_at_zero_is_beta_times_seed(self):
        for (a, b) in [(1.0, 1.0), (2.0, 3.0), (0.5, 0.5)]:
            series = tr.beta_transform(um.exponential_series(), a, b)
            assert series.evaluate(0.0) == pytest.approx(
                complex(sf.beta(a, b)), rel=1e-12)

    def test_exponential_reduces_to_kummer(self):
        # the transform of exp(-x) is B(a, b) M(a; a+b; -x)
        a, b, x = 2.0, 3.0, 1.0
        series = tr.beta_transform(um.exponential_series(), a, b)
        expected = sf.beta(a, b) * sf.hyper_pfq((a,), (a + b,), -x)
        assert series.evaluate(x) == pytest.approx(complex(expected), rel=1e-11)
        assert expected == pytest.approx(sf.beta(a, b) * hyp1f1(a, a + b, -x),
                                         rel=1e-11)

    # the Euler kernel by the catalog's eq36 oracle, which takes the kernel's
    # singular terms out at both ends: raw, u^(-1/2) (1 - u)^(-1/2) keeps
    # about 2e-8 of its mass within one ulp of u = 1, where no panel reaches
    @pytest.mark.parametrize("ab", [(1.0, 1.0), (2.0, 3.0), (0.5, 0.5)])
    @pytest.mark.parametrize("x", [0.0, 1.0, 3.0])
    def test_against_euler_kernel_quadrature(self, ab, x):
        a, b = ab
        series = tr.beta_transform(um.exponential_series(), a, b)
        lhs = series.evaluate(x, tol=1e-13)
        quad = get_identity("eq36_beta_exponential").oracle_eval(
            {"alpha": a, "beta": b, "x": x}, 1e-11)
        assert abs(lhs - quad.value) <= 1e-8 * abs(quad.value)

    def test_scaled_argument_series(self):
        # f(x) = exp(-2x) folds the scale into the coefficient law
        f = tr.CoefficientSeries(um.bessel_phi(), geometric=-2.0)
        series = tr.beta_transform(f, 1.0, 1.0)
        quad = oracle.integrate_finite(lambda u: math.exp(-2.0 * u), 0.0, 1.0, 1e-12)
        assert series.evaluate(1.0) == pytest.approx(complex(quad.value), rel=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            tr.beta_transform(um.exponential_series(), 0.0, 1.0)

    # B(a, b) 1F1(a; a+b; -x) alternates at x > 0, where the law's sum takes
    # Kummer's form; the first example was 2.5e4 off in the alternating sum,
    # the second is the law 1/Gamma(b + 1 + k), where a = 1 cancels k!
    @settings(max_examples=150, deadline=None)
    @given(log_a=st.floats(math.log(0.2), math.log(5.0)),
           log_b=st.floats(math.log(0.2), math.log(5.0)), x=st.floats(-40.0, 40.0))
    @example(log_a=math.log(4.746068968522609), log_b=math.log(0.24160655423795416),
             x=34.76075441066281)
    @example(log_a=0.0, log_b=math.log(0.5), x=30.0)
    def test_exponential_against_mpmath(self, log_a, log_b, x):
        mpmath = pytest.importorskip("mpmath")
        a, b = math.exp(log_a), math.exp(log_b)
        with mpmath.workdps(40):
            expected = float(mpmath.beta(a, b) * mpmath.hyp1f1(a, a + b, -x))
        got = tr.beta_transform(um.exponential_series(), a, b).evaluate(x)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    # past x ~ 722 the sum of Kummer's terms leaves the double range while
    # e^-x goes to 0: a ConvergenceError, not the nan of their product
    @pytest.mark.parametrize("x", [725.0, 760.0])
    def test_exponential_past_the_double_range_raises(self, x):
        with pytest.raises(ConvergenceError, match="overflowed"):
            tr.beta_transform(um.exponential_series(), 2.0, 3.0).evaluate(x)

    # from x ~ 708 Kummer's factor e^-x B(2, 3) is subnormal and kept few
    # bits: 7e-11 off at x = 720; at tol 1e-14 the truncation is below them
    @pytest.mark.parametrize("x", [712.0, 715.0, 720.0])
    def test_exponential_where_kummers_factor_is_subnormal(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.beta(2, 3) * mpmath.hyp1f1(2, 5, -x))
        got = tr.beta_transform(um.exponential_series(), 2.0, 3.0).evaluate(x, tol=1e-14)
        assert got.imag == 0.0
        assert abs(got.real - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("ab", [(1.0, 1.0), (2.0, 3.0), (0.5, 1.5)])
    def test_strided_series_against_euler_kernel_quadrature(self, ab):
        # J_1(u x) has stride 2 and offset 1; the edit is exact for any shape
        a, b = ab
        series = tr.beta_transform(um.bessel_power_series(1), a, b)
        bessel_j = bessel_j_ref(1)
        for x in (0.5, 2.0, 5.0):
            quad = oracle.integrate_finite(
                lambda u: u ** (a - 1.0) * (1.0 - u) ** (b - 1.0) * bessel_j(u * x),
                0.0, 1.0, 1e-12)
            lhs = series.evaluate(x, tol=1e-13)
            assert abs(lhs - quad.value) <= 1e-10 * abs(quad.value)


class TestMultiplierCoherence:
    def test_borel_kernel_matches_transform_on_shifted_exponential(self):
        # the exponential-moment transform of x^n e^{-x} multiplies the
        # coefficient of x^(k+n) by Gamma(k+n+1), which sums to
        # Gamma(n+1) x^n / (1+x)^(n+1)
        factorial = um.borel_factorial()
        for n in (0.0, 1.0, 2.0, 3.5):
            spec = um.CoefficientSeries(um.bessel_phi(), offset=n, geometric=-1.0)
            got = um.apply_mellin_multiplier(factorial, spec, 0.5)
            expected = sf.gamma(n + 1.0) * 0.5 ** n / 1.5 ** (n + 1.0)
            assert got == pytest.approx(complex(expected), rel=1e-12)
            assert tr.borel_transform(spec).evaluate(0.5) == pytest.approx(got, rel=1e-12)

    def test_borel_kernel_matches_transform_on_moment_series(self):
        # same numbers from the multiplier engine and the coefficient route
        transformed = tr.borel_transform(BESSEL_PREIMAGE)
        for x in (0.3, 0.7):
            a = um.apply_mellin_multiplier(um.borel_factorial(), BESSEL_PREIMAGE, x)
            b = transformed.evaluate(x, tol=1e-13)
            assert a == pytest.approx(b, rel=1e-11)
