import cmath
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from umbralint import specfun as sf, umbral as um
from umbralint.errors import ConvergenceError, DomainError, EngineError, PoleError
from umbralint.reference import struve_ref

from references import b_nu_closed, classical_hermite

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# independent mini-oracles (direct summation, no shared code paths)
# ---------------------------------------------------------------------------


def bessel_j_direct(nu, x, terms=60):
    """Plain truncated Bessel series at double the depth the kernel needs."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (0.5 * x) ** (2 * k + nu) \
            / (math.factorial(k) * math.gamma(k + nu + 1.0))
    return total


def hermite_higher_direct(n, m, u, v):
    total = 0.0
    for k in range(n // m + 1):
        total += (math.factorial(n) / (math.factorial(n - m * k) * math.factorial(k))
                  * u ** (n - m * k) * v ** k)
    return total


class TestGamma:
    def test_classic_values(self):
        assert sf.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
        assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0, complex(-3.0, 0.0)])
    def test_pole_error(self, z):
        with pytest.raises(PoleError) as excinfo:
            sf.gamma(z)
        assert excinfo.value.location == z

    def test_negative_noninteger(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert sf.gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)

    def test_recurrence_on_complex_grid(self):
        # |Gamma(z+1) - z Gamma(z)| / |Gamma(z+1)| <= 1e-12
        worst = 0.0
        for i in range(12):
            for j in range(11):
                z = complex(0.1 + (10.0 - 0.1) * i / 11, -5.0 + j)
                g1 = sf.gamma(z + 1)
                rel = abs(g1 - z * sf.gamma(z)) / abs(g1)
                worst = max(worst, rel)
        assert worst <= 1e-12

    def test_euler_reflection(self):
        # Gamma(z) Gamma(1-z) sin(pi z) / pi = 1 to 1e-11 on (-3, 3)
        worst = 0.0
        z = -2.95
        while z < 3.0:
            if abs(z - round(z)) > 1e-9:
                value = sf.gamma(z) * sf.gamma(1.0 - z) * math.sin(math.pi * z) / math.pi
                worst = max(worst, abs(value - 1.0))
            z += 0.1
        assert worst <= 1e-11

    def test_large_real_arguments_match_scipy(self):
        # the Lanczos sum is off by up to 1.7e-13 relative on this range
        from scipy.special import gamma as gamma_ref
        for i in range(311):
            x = 140.0 + 0.1 * i
            assert sf.gamma(x) == pytest.approx(gamma_ref(x), rel=1e-14), x

    def test_underflow_and_overflow(self):
        assert math.copysign(1.0, sf.gamma(-200.5)) == -1.0
        assert sf.gamma(-200.5) == 0.0
        with pytest.raises(DomainError, match="overflow"):
            sf.gamma(171.7)

    # t^(z + 1/2) of the Lanczos form passes the double range here while
    # Gamma does not; exp(log Gamma) takes it in logs
    def test_complex_overflow_fallback_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = complex(mpmath.gamma(mpmath.mpc(170.0, 0.5)))
        assert abs(sf.gamma(170 + 0.5j) / expected - 1.0) <= 1e-13

    def test_known_complex_modulus(self):
        # |Gamma(1+i)| = sqrt(pi / sinh(pi))
        assert abs(sf.gamma(1 + 1j)) == pytest.approx(
            math.sqrt(math.pi / math.sinh(math.pi)), rel=1e-13)

    def test_log_gamma_consistency(self):
        for z in (0.3, 2.7, complex(1.5, 2.0), complex(-0.7, 0.4)):
            assert cmath.exp(sf.log_gamma(z)) == pytest.approx(
                complex(sf.gamma(z)), rel=1e-12)

    # Gamma of a complex z is exp(log_gamma(z)), on the left half-plane
    # through reflection; the Lanczos product gave inf + nan i at the first
    # point, where its t^(z + 1/2) overflowed without an OverflowError.
    # Uniform draws: the reflection's sin(pi z) is not reduced by the
    # nearest integer, so within about 1e-6 of a pole on the real axis the
    # error passes this bound, as it did on the Lanczos product
    def test_complex_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20)
        points = [complex(142.2587269976899, 4.007487446694519)]
        points += [complex(rng.uniform(-60.0, 170.0), rng.uniform(-30.0, 30.0))
                   for _ in range(2000)]
        worst = 0.0
        with mpmath.workdps(30):
            for z in points:
                expected = complex(mpmath.gamma(mpmath.mpc(z)))
                worst = max(worst, abs(sf.gamma(z) - expected) / abs(expected))
        assert worst <= 5e-13


class TestBeta:
    def test_values(self):
        assert sf.beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert sf.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_symmetry_and_large_arguments(self):
        # log-space assembly keeps huge Gammas finite
        assert sf.beta(200.0, 150.0) == pytest.approx(sf.beta(150.0, 200.0), rel=1e-12)
        assert sf.beta(200.0, 150.0) > 0.0

    @pytest.mark.parametrize("a,b", [(1.5 + 0.5j, 2.0), (0.3 - 1.2j, 0.7 + 0.4j),
                                     (2.0, -0.5 + 1j), (-1.3 + 0.2j, 2.5)])
    def test_complex_arguments_against_mpmath(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = complex(mpmath.beta(a, b))
        assert abs(sf.beta(a, b) / expected - 1.0) <= 1e-13

    def test_pole(self):
        with pytest.raises(PoleError):
            sf.beta(0.0, 1.0)
        with pytest.raises(PoleError):
            sf.beta(0.5, -0.5)  # a+b at a pole


class TestBesselJ:
    def test_trivial(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0
        assert sf.bessel_j(1.0, 0.0) == 0.0

    def test_j0_of_2_against_direct_series(self):
        # frozen from the direct-summation oracle at double depth
        expected = bessel_j_direct(0.0, 2.0)
        assert expected == pytest.approx(0.2238907791412357, abs=1e-15)
        assert sf.bessel_j(0.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_integer_order(self):
        assert sf.bessel_j(-3.0, 1.7) == pytest.approx(-sf.bessel_j(3.0, 1.7), rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_negative_argument_against_scipy(self, n):
        # J_n(-x) = (-1)^n J_n(x)
        from scipy.special import jv
        for x in (0.7, 3.2, 6.1):
            assert sf.bessel_j(float(n), -x) == pytest.approx((-1) ** n * jv(n, x),
                                                              rel=1e-12, abs=1e-15)

    def test_half_integer_reduction(self):
        x = 1.3
        assert sf.bessel_j(0.5, x) == pytest.approx(
            math.sqrt(2.0 / (math.pi * x)) * math.sin(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_j(-0.5, 1.0)
        with pytest.raises(DomainError):
            sf.bessel_j(0.5, -1.0)


class TestBesselI:
    def test_trivial(self):
        assert sf.bessel_i(0.0, 0.0) == 1.0

    def test_zero_argument(self):
        assert sf.bessel_i(2.5, 0.0) == 0.0
        assert sf.bessel_i(-3.0, 0.0) == 0.0   # I_-3 = I_3
        with pytest.raises(DomainError, match="diverges"):
            sf.bessel_i(-0.5, 0.0)

    def test_half_integer_reductions(self):
        assert sf.bessel_i(0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-12)
        assert sf.bessel_i(-0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.cosh(1.0), rel=1e-12)


class TestStruveH:
    def test_trivial_zero(self):
        assert sf.struve_h(0.0, 0.0) == 0.0
        assert sf.struve_h(-1.0, 0.0) == 2.0 / math.pi
        with pytest.raises(DomainError, match="diverges"):
            sf.struve_h(-1.5, 0.0)

    @pytest.mark.parametrize("n", [-1, 0, 1, 3])
    def test_negative_argument_against_scipy(self, n):
        # H_n(-x) = (-1)^(n+1) H_n(x)
        from scipy.special import struve
        for x in (0.7, 3.2, 6.1):
            assert sf.struve_h(float(n), -x) == pytest.approx((-1) ** (n + 1) * struve(n, x),
                                                              rel=1e-11, abs=1e-15)

    def test_half_integer_reductions(self):
        x = 2.0
        assert sf.struve_h(0.5, x) == pytest.approx(
            math.sqrt(2.0 / (math.pi * x)) * (1.0 - math.cos(x)), rel=1e-12)
        assert sf.struve_h(-0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sin(1.0), rel=1e-12)

    def test_pole_terms_are_zero(self):
        # at nu = -3/2 the k = 0 denominator Gamma is at a pole; the series
        # reduces to -J_{3/2}
        x = 1.7
        assert sf.struve_h(-1.5, x) == pytest.approx(-sf.bessel_j(1.5, x), rel=1e-12)

    @pytest.mark.parametrize("nu", [-3.5, -4.5, -5.5, -6.5])
    def test_leading_vanishing_terms(self, nu):
        # the first -(nu + 1/2) terms are 0 for every x; summed, three of
        # them passed the stopping rule and the kernel returned 0
        struve_h = struve_ref(nu)[0]
        for x in (0.5, 1.0, 3.0):
            assert sf.struve_h(nu, x) == pytest.approx(struve_h(x), rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, 2.5])
    def test_against_reference(self, nu):
        struve_h = struve_ref(nu)[0]
        for x in (0.5, 1.0, 3.0, 10.0):
            assert sf.struve_h(nu, x) == pytest.approx(struve_h(x), rel=1e-10, abs=1e-13)


class TestBNu:
    def test_k0_term(self):
        assert sf.b_nu(0.0, 0.0) == pytest.approx(1.0)

    def test_exponential_reduction(self):
        for x in (-2.0, 0.7, 3.0):
            assert sf.b_nu(0.0, x) == pytest.approx(complex(math.exp(x)), rel=1e-12)

    def test_direct_series_oracle(self):
        # b_1(1) = sum_k 1/((k+2) k!)
        expected = sum(1.0 / ((k + 2) * math.factorial(k)) for k in range(60))
        assert sf.b_nu(1.0, 1.0) == pytest.approx(complex(expected), rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_dual_method_agreement(self, nu):
        # 20 points in [-5, 5] \ {0}
        xs = [-5.0 + 0.5 * i for i in range(21) if i != 10]
        for x in xs:
            series = sf.b_nu(nu, x)
            closed = b_nu_closed(nu, x)
            assert abs(series - closed) <= 1e-10 * abs(closed)

    def test_dual_method_complex_argument(self):
        z = complex(-0.3, -0.25)
        series = sf.b_nu(0.5, z)
        closed = b_nu_closed(0.5, z)
        assert abs(series - closed) <= 1e-10 * abs(closed)

    @pytest.mark.parametrize("nu", [-3.0, -1.5, -1.0])
    def test_series_equals_direct_sum(self, nu):
        # head, zeros and law of the term-ratio route against the defining
        # coefficients, with the limit along nu where both Gammas sit on poles
        def coefficient(k):
            a1, a2 = nu + k + 1.0, 2.0 * nu + k + 1.0
            if a2 <= 0 and a2.is_integer():
                if a1 <= 0 and a1.is_integer():
                    n1, n2 = int(-a1), int(-a2)
                    return (2.0 * (-1) ** (n1 + n2) * math.factorial(n2)
                            / (math.factorial(n1) * math.factorial(k)))
                return 0.0
            return math.gamma(a1) / (math.gamma(a2) * math.factorial(k))

        for x in (-1.7, 0.9, 2.0):
            direct = sum(coefficient(k) * x ** k for k in range(60))
            assert abs(sf.b_nu(nu, x) - direct) <= 1e-13 * abs(direct)

    def test_simultaneous_pole_limit(self):
        # at nu = -1 the k = 0 ratio Gamma(0)/Gamma(-1) has the limit -2
        value = sf.b_nu(-1.0, 1e-30)
        assert value.real == pytest.approx(-2.0, rel=1e-9)

    @pytest.mark.parametrize("nu", [-1.5, -2.5, -3.5, -4.5, -3.0, -4.0, -5.0])
    def test_vanishing_terms_against_closed_form(self, nu):
        # 1/Gamma(2 nu + k + 1) is 0 for the leading terms when 2 nu + 1 is
        # an integer <= -2, and for terms in the middle at integer nu <= -3;
        # I_{nu -+ 1/2} of the closed form has leading zeros at half-odd nu
        for x in (-3.0, -1.0, 0.5, 1.0, 2.5):
            series = sf.b_nu(nu, x)
            closed = b_nu_closed(nu, x)
            assert abs(series - closed) <= 1e-12 * abs(closed)

    def test_half_odd_order_against_mpmath(self):
        # (sqrt(pi)/2) e^{1/2} (I_{-3}(1/2) + I_{-2}(1/2)) by mpmath at 30 digits
        assert sf.b_nu(-2.5, 1.0).real == pytest.approx(0.0504842705743648, rel=1e-13)
        assert b_nu_closed(-2.5, 1.0).real == pytest.approx(
            0.0504842705743648, rel=1e-13)

    # the alternating series printed -0.0683 here; Kummer's form sums
    # positive terms, and mpmath at 30 digits gives 0.0020153595243972313.
    # The route goes by value: a complex x on the negative real axis takes it
    # too, with the same bits
    def test_kummer_route_at_negative_argument(self):
        assert sf.b_nu(0.5, -40.0).real == pytest.approx(0.0020153595243972313, rel=1e-13)
        assert sf.b_nu(0.5, complex(-40.0, 0.0)) == sf.b_nu(0.5, -40.0)
        assert sf.b_nu(0.5, complex(-40.0, -0.0)) == sf.b_nu(0.5, -40.0)

    # off the axis at Re x < 0 the moduli of Kummer's terms sum to at most
    # e^(Re x + |x|) times the first, not e^|x|; at -3 + 30i the route is
    # 1.3e-6 off and that bound says so
    def test_kummer_route_off_the_axis(self):
        for z in (complex(-40.0, 1.0), complex(-40.0, -1.0)):
            closed = b_nu_closed(0.5, z)
            assert abs(sf.b_nu(0.5, z) - closed) <= 1e-12 * abs(closed)
        with pytest.raises(DomainError, match="cancel"):
            sf.b_nu(0.5, complex(-3.0, 30.0))

    # at -1/2 < nu < 0 the law is 1F1(nu+1; 2 nu+1; x) with every Gamma
    # shift positive, so the series type takes Kummer's form at x < 0 too;
    # the alternating sum printed -1.104 at (-0.45, -38)
    @pytest.mark.parametrize("nu,x", [(-0.45, -38.0), (-0.3, -30.0), (-0.2, -5.0)])
    def test_kummer_route_at_negative_order(self, nu, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.gamma(nu + 1) / mpmath.gamma(2 * nu + 1)
                             * mpmath.hyp1f1(nu + 1, 2 * nu + 1, x))
        assert abs(sf.b_nu(nu, x).real - expected) <= 1e-12 * abs(expected)

    # every order is one 1F1 summed in ``summation``: no law is built
    @pytest.mark.parametrize("nu,x", [(-0.3, -5.0), (-2.5, 1.0), (-3.0, 1.5)])
    def test_negative_orders_build_no_law(self, monkeypatch, nu, x):
        def no_law(*args, **kwargs):
            raise AssertionError("b_nu built an umbral law")
        monkeypatch.setattr(um, "CoefficientSeries", no_law)
        monkeypatch.setattr(um, "GammaRatioSequence", no_law)
        assert cmath.isfinite(sf.b_nu(nu, x))

    # at nu < 0 away from half-integers, Gamma(nu+1)/Gamma(2 nu+1)
    # 1F1(nu+1; 2 nu+1; x) on both routes; the law's alternating sum was up
    # to 7e-3 off at x < 0 and nu < -1/2.  b_nu has real zeros here (at
    # nu = -0.01 near x = -6.2), so the scale is the larger of |b_nu| and
    # the first term, times e^x at x < 0 (Kummer's 1)
    @example(nu=-0.950879670168232, x=-29.894697332444466)
    @example(nu=-0.01, x=-6.2)
    @settings(max_examples=150, deadline=None)
    @given(nu=st.builds(lambda h, d: 0.5 * h + d, st.integers(-8, -1),
                        st.floats(1e-3, 0.5 - 1e-3)),
           x=st.floats(-30.0, 20.0))
    def test_negative_order_against_mpmath(self, nu, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.gamma(nu + 1) / mpmath.gamma(2 * nu + 1)
                             * mpmath.hyp1f1(nu + 1, 2 * nu + 1, x))
        first = abs(math.gamma(nu + 1.0) / math.gamma(2.0 * nu + 1.0)) * math.exp(min(x, 0.0))
        assert abs(sf.b_nu(nu, x) - expected) <= 1e-12 * max(abs(expected), first)

    # at half-odd and integer orders, against mpmath's limit along nu: the
    # mean of the 1F1 form at nu -+ 1e-30, at 80 digits, is the limit to
    # O(1e-60).  The law was up to 1.2e-11 off at -10 + 4i, and more than
    # 1e-12 off at 11 of the 12 orders
    @pytest.mark.parametrize("x", [complex(-10.0, 4.0), -38.0, -25.0])
    @pytest.mark.parametrize("nu", [-0.5 * i for i in range(1, 13)])
    def test_half_odd_and_integer_orders_against_mpmath(self, nu, x):
        mpmath = pytest.importorskip("mpmath")

        def form(order):
            return (mpmath.gamma(order + 1) * mpmath.rgamma(2 * order + 1)
                    * mpmath.hyp1f1(order + 1, 2 * order + 1, mpmath.mpmathify(x)))

        with mpmath.workdps(80):
            step = mpmath.mpf(10) ** -30
            expected = complex((form(nu + step) + form(nu - step)) / 2)
        assert abs(sf.b_nu(nu, x) - expected) <= 1e-12 * abs(expected)

    # at nu = -100.5 the sum starts at k = 201, where x^201 alone passes the
    # double range while the value does not: |x|^j is taken in the logs of
    # the first term.  Against mpmath's sum of the defining terms
    @pytest.mark.parametrize("x", [50.0, -50.0])
    def test_large_power_of_x_stays_in_range(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            nu = mpmath.mpf(-100.5)
            expected = float(mpmath.nsum(
                lambda k: mpmath.gamma(nu + k + 1) / mpmath.gamma(2 * nu + k + 1)
                * mpmath.mpf(x) ** k / mpmath.factorial(k), [201, mpmath.inf]))
        assert abs(sf.b_nu(-100.5, x) - expected) <= 1e-12 * abs(expected)

    # from x ~ -722 the terms of Kummer's 1F1 stay finite while their sum
    # does not; b_nu printed inf there, and nan once e^x is 0
    @pytest.mark.parametrize("x", [-725.0, -760.0])
    def test_kummer_sum_past_the_double_range_raises(self, x):
        with pytest.raises(ConvergenceError, match="overflowed"):
            sf.b_nu(0.5, x)

    # at x = 710 the terms of 1F1(1; 1; x) stay finite while their sum,
    # e^710, does not; the loop returned that inf as converged
    @pytest.mark.parametrize("call", [lambda: sf.b_nu(0.0, 710.0),
                                      lambda: sf.hyper_pfq((), (), 710.0)],
                             ids=["b_nu", "hyper_pfq"])
    def test_sum_past_the_double_range_raises(self, call):
        with pytest.raises(ConvergenceError, match="overflowed"):
            call()

    def test_zero_everywhere_series_stay_finite(self):
        # with every term 0 the sum still ends, at 0
        for nu in (-1.5, -3.5):
            assert sf.b_nu(nu, 0.0) == 0.0
        for m in (3, 4, 5):
            for k in range(1, m):
                assert sf.pseudo_trig(k, m, 0.0) == 0.0

    def test_closed_form_needs_nonzero_argument(self):
        with pytest.raises(ValueError):
            b_nu_closed(1.0, 0.0)


class TestHermiteFamilies:
    def test_higher_trivial(self):
        for m in (2, 3, 5):
            assert sf.hermite_higher(0, m, 0.3, -0.7) == 1.0
            assert sf.hermite_higher(1, m, 0.3, -0.7) == pytest.approx(0.3)

    def test_higher_hand_expansion(self):
        u, v = 1.3, -0.4
        assert sf.hermite_higher(2, 2, u, v) == pytest.approx(u * u + 2 * v, rel=1e-14)

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (7, 2), (9, 4)])
    def test_higher_against_direct(self, n, m):
        u, v = -0.8, 0.6
        assert sf.hermite_higher(n, m, u, v) == pytest.approx(
            hermite_higher_direct(n, m, u, v), rel=1e-13)

    def test_generating_function(self):
        # sum_n z^n/n! H_n = exp(u z + v z^m) to 1e-9 for |z|,|u|,|v| <= 1
        for m in (2, 3):
            for (z, u, v) in [(1.0, 1.0, 1.0), (-0.7, 0.5, -1.0),
                              (0.3, -1.0, 0.8), (1.0, -0.2, -0.9)]:
                total = sum(z ** n / math.factorial(n) * sf.hermite_higher(n, m, u, v)
                            for n in range(40))
                assert abs(total - math.exp(u * z + v * z ** m)) <= 1e-9

    def test_classical_hermite_reduction(self):
        # H_n of order 2 at (x, y) = (-i)^n y^{n/2} H_n(i x / (2 sqrt(y)))
        for n in range(11):
            for (x, y) in [(0.7, 1.3), (-1.1, 0.4), (2.0, 2.5)]:
                lhs = complex(sf.hermite_higher(n, 2, x, y))
                z = 1j * x / (2.0 * math.sqrt(y))
                rhs = (-1j) ** n * y ** (n / 2.0) * classical_hermite(n, z)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_hybrid_and_truncated(self):
        x, y = 1.7, -0.3
        assert sf.hermite_hybrid(0, 2, x, y) == 1.0
        assert sf.hermite_hybrid(2, 2, x, y) == pytest.approx(x * x / 4.0 + y, rel=1e-14)
        assert sf.truncated_e(2, 2, x, y) == pytest.approx(x * x / 4.0 + y, rel=1e-14)

    def test_degree_is_bounded(self):
        for family in (sf.hermite_higher, sf.hermite_hybrid, sf.truncated_e,
                       sf.hermite_tricomi):
            with pytest.raises(DomainError, match="degree"):
                family(10_001, 2, 1.0, 1.0)
            with pytest.raises(DomainError, match="degree"):
                family(1e9, 2, 1.0, 1.0)
        # at x = 0 only the term y^(n/m) / 0!^2 is left
        assert sf.truncated_e(10_000, 2, 0.0, 1.0) == 1.0

    # the exact coefficients at n > 170, against the sum at 60 digits
    @pytest.mark.parametrize("n,m,u,v", [(200, 2, 1.0, 1.0), (180, 4, -2.0, 1.1)])
    def test_higher_past_170_against_mpmath(self, n, m, u, v):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            expected = mpmath.factorial(n) * mpmath.fsum(
                mpmath.mpf(u) ** (n - m * k) * mpmath.mpf(v) ** k
                / (mpmath.factorial(n - m * k) * mpmath.factorial(k))
                for k in range(n // m + 1))
            assert abs((sf.hermite_higher(n, m, u, v) - expected) / expected) <= 1e-15

    def test_higher_coefficient_past_the_double_range(self):
        with pytest.raises(DomainError, match="overflowed"):
            sf.hermite_higher(300, 3, 1.5, -0.7)

    # 1/j! is read from a table, 0 from j = 178 on; the values at its edge
    def test_factorial_table_edge(self):
        assert sf.hermite_hybrid(177, 3, 9.0, 2.0) == 6.434418376070381e-60
        assert sf.truncated_e(178, 2, 11.0, 0.5) == 3.113012266779536e-25

    def test_order_validation(self):
        with pytest.raises(DomainError):
            sf.hermite_higher(-1, 2, 1.0, 1.0)
        with pytest.raises(DomainError):
            sf.hermite_hybrid(2, 1, 1.0, 1.0)


class TestPseudoTrig:
    def test_matches_cos_sin(self):
        x = -3.0
        while x <= 3.0:
            assert sf.pseudo_trig(0, 2, x) == pytest.approx(math.cos(x), abs=1e-12)
            assert sf.pseudo_trig(1, 2, x) == pytest.approx(math.sin(x), abs=1e-12)
            x += 0.25

    def test_trivials(self):
        assert sf.pseudo_trig(1, 2, 0.0) == 0.0

    def test_direct_summation_oracle(self):
        expected = sum((-1.0) ** r / math.factorial(3 * r) for r in range(20))
        assert sf.pseudo_trig(0, 3, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            sf.pseudo_trig(2, 2, 1.0)

    def test_order_is_bounded(self):
        # the term loop is O(m); m = 1e300 would never end
        assert sf.pseudo_trig(0, 10_000, 1.0) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DomainError):
            sf.pseudo_trig(0, 10_001, 1.0)
        with pytest.raises(DomainError):
            sf.pseudo_trig(0, 1e300, 0.0)

    def test_underflowing_term_ratio_is_not_dropped(self):
        # at m = 800 both (x/m)^m and prod (k + i)/m underflow; at x = 300 the
        # second term is 1.7e-5 of the first, and c_0 is -64552, not 1: the
        # law seeds the terms in log space (40-digit mpmath values)
        assert sf.pseudo_trig(0, 800, 300.0) == pytest.approx(-64552.4619509249, rel=1e-12)
        # at x = 250, m = 705 the ratio is 8.5e-14, and the sum is not 1.0
        assert sf.pseudo_trig(0, 705, 250.0) == pytest.approx(0.99999999999991513, abs=1e-15)

    # c_k is the sum of its law, inside the normal range and past it (from
    # m ~ 708 on, at a k past the 1/k! table, where y underflows); a complex
    # x keeps its complex value
    @pytest.mark.parametrize("k,m,x", [(0, 900, 330.0), (0, 800, 300.0), (3, 705, 250.0),
                                       (0, 10_000, -1.0), (178, 200, 2.0), (0, 900, 300j),
                                       (1, 3, 5.0), (2, 4, -38.660959681726126)])
    def test_is_the_sum_of_its_law(self, k, m, x):
        law = um.pseudo_trig_series(k, m).evaluate(x)
        assert sf.pseudo_trig(k, m, x) == (law if isinstance(x, complex) else law.real)

    # x^k overflowed before it was divided by k!: DomainError('pseudo_trig
    # overflowed') where c_k is 1.4e33 (40-digit mpmath value)
    def test_power_past_the_double_range_against_mpmath(self):
        assert abs(sf.pseudo_trig(170, 171, 100.0) / 1.3779009677917706e33 - 1.0) <= 1e-12

    # from k = 178 on 1/k! is 0 in floats, and the first term x^k/k! was
    # taken as 0: both sums came out 0.0 (40-digit mpmath values)
    def test_index_past_the_factorial_table_against_mpmath(self):
        for k, m, x, expected in [(178, 200, 2.0, 6.144596080238222e-272),
                                  (200, 300, 20.0, 2.0375604057921704e-115)]:
            assert abs(sf.pseudo_trig(k, m, x) / expected - 1.0) <= 1e-12


class TestHermiteTricomi:
    def test_unit_at_origin(self):
        for m in (2, 3, 4):
            assert sf.hermite_tricomi(0, m, 0.0, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_bessel_reduction(self):
        # with y = 0 the coefficients are x^k, giving the J_0 series
        value = sf.hermite_tricomi(0, 2, 1.0, 0.0)
        assert value.real == pytest.approx(sf.bessel_j(0.0, 2.0), rel=1e-12)
        assert value.imag == 0.0

    def test_underflowing_order_is_a_domain_error(self):
        # past n = 177 every term is 0
        assert sf.hermite_tricomi(177, 2, 1.0, 1.0).real > 0.0
        with pytest.raises(DomainError, match="underflows"):
            sf.hermite_tricomi(178, 2, 1.0, 1.0)
        with pytest.raises(DomainError):
            sf.hermite_tricomi(200, 2, 1.0, 1.0)

    def test_brute_force_double_sum(self):
        # direct double summation oracle at (n, m, x, y) = (1, 2, 1, 1)
        expected = 0.0
        for k in range(80):
            h = hermite_higher_direct(k, 2, 1.0, 1.0)
            expected += (-1.0) ** k / (math.factorial(k) * math.factorial(1 + k)) * h
        assert sf.hermite_tricomi(1, 2, 1.0, 1.0).real == pytest.approx(expected, rel=1e-10)

    @staticmethod
    def direct(n, m, x, y, terms=80):
        return sum((-1.0) ** k * hermite_higher_direct(k, m, x, y)
                   / (math.factorial(k) * math.factorial(n + k)) for k in range(terms))

    @pytest.mark.parametrize("m", [4, 5, 6])
    @pytest.mark.parametrize("x", [0.0, 1e-8])
    def test_zero_terms_between_powers_of_y_do_not_stop_the_sum(self, m, x):
        # at x = 0 only every m-th term is nonzero, and the m - 1 zero (or,
        # at x = 1e-8, near-zero) terms between must not stop the sum
        expected = self.direct(0, m, x, 5.0)
        assert sf.hermite_tricomi(0, m, x, 5.0).real == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5), m=st.integers(2, 6),
           x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
    def test_matches_direct_double_sum(self, n, m, x, y):
        expected = self.direct(n, m, x, y)
        try:
            value = sf.hermite_tricomi(n, m, x, y)
        except EngineError:
            return
        assert value.imag == 0.0
        assert abs(value.real - expected) <= 1e-12 * max(abs(expected), 1.0)

    @pytest.mark.parametrize("m", [10_000, 1e300])
    def test_huge_order_returns_promptly(self, m):
        # past k = 177 every term is 0, so no section is longer than 178
        # terms, and only powers y^0 of the order-m polynomials are reached
        start = time.perf_counter()
        value = sf.hermite_tricomi(0, m, 1.0, 1.0)
        assert time.perf_counter() - start < 1.0
        assert value.real == pytest.approx(sf.bessel_j(0.0, 2.0), rel=1e-12)


class TestHyperPfq:
    def test_unit_at_zero(self):
        assert sf.hyper_pfq((0.3, 1.9), (0.7,), 0.0) == pytest.approx(1.0)

    def test_0f0_is_exp(self):
        assert sf.hyper_pfq((), (), 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_2f2_direct_summation(self):
        def direct(y, depth=60):
            total = 0.0
            for k in range(depth):
                num = sf.gamma(0.75 + k) / sf.gamma(0.75) * sf.gamma(1.25 + k) / sf.gamma(1.25)
                den = sf.gamma(1.0 + k) / sf.gamma(1.0) * sf.gamma(1.5 + k) / sf.gamma(1.5)
                total += num / den * y ** k / math.factorial(k)
            return total

        assert sf.hyper_pfq((0.75, 1.25), (1.0, 1.5), -1.0) == pytest.approx(
            direct(-1.0), rel=1e-12)

    def test_1f1_exponential(self):
        # 1F1(a; a; y) = e^y
        assert sf.hyper_pfq((2.3,), (2.3,), 0.7) == pytest.approx(math.exp(0.7), rel=1e-13)

    def test_terminating_polynomial(self):
        # 2F1 with a = -2 terminates after three terms
        y = 0.3
        value = sf.hyper_pfq((-2.0, 1.5), (2.0,), y)
        expected = 1.0 - 2.0 * 1.5 / 2.0 * y \
            + (-2.0) * (-1.0) * 1.5 * 2.5 / (2.0 * 3.0) * y * y / 2.0
        assert value == pytest.approx(expected, rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(PoleError):
            sf.hyper_pfq((1.0,), (0.0,), 0.5)
        with pytest.raises(DomainError):
            sf.hyper_pfq((1.0, 2.0, 3.0), (4.0,), 0.5)

    def test_divergent_raises(self):
        with pytest.raises(ConvergenceError):
            sf.hyper_pfq((1.0, 1.0), (1.0,), 2.0)

    # prod_j (b_j + k) underflows to 0: the step raised a bare ZeroDivisionError
    def test_lower_product_underflow_raises(self):
        with pytest.raises(ConvergenceError, match="divided by zero"):
            sf.hyper_pfq((), (0.001,) * 120, 1e-300)

    # a subnormal prod_j b_j kept few bits: the sums were 333447.87 and
    # 331807.97, where mpmath gives 333334.33 for both
    @pytest.mark.parametrize("b,y", [((3e-161, 1e-160), 1e-315), ((3e-162, 1e-160), 1e-316)])
    def test_subnormal_lower_product_raises(self, b, y):
        with pytest.raises(DomainError, match="subnormal"):
            sf.hyper_pfq((), b, y)

    # the check saw only the whole product 3e-221, while the step forms
    # 3e-161 * 1e-160 = 3e-321 first: the sum was 1.33344688, where mpmath
    # gives 1.33333333; in an order whose partial products stay normal it is right
    def test_subnormal_partial_product_raises(self):
        with pytest.raises(DomainError, match="subnormal"):
            sf.hyper_pfq((), (3e-161, 1e-160, 1e100), 1e-221)
        assert sf.hyper_pfq((), (1e100, 3e-161, 1e-160), 1e-221) == pytest.approx(
            4.0 / 3.0, rel=1e-15)


# a non-finite order escaped as a bare ValueError (math.floor, round) or
# OverflowError, b_nu(-inf, 1) returned e: its law cancelled the shifts
# -inf and -inf, and a law took a nan slope
@pytest.mark.parametrize("call", [
    lambda: sf.beta(math.nan, 1.0),
    lambda: sf.bessel_i(math.nan, 1.0),
    lambda: sf.struve_h(math.nan, 1.0),
    lambda: um.struve_series(math.nan, 1.0),
    lambda: sf.hyper_pfq((1.0,), (-math.inf,), 0.5),
    lambda: sf.b_nu(-math.inf, 1.0),
    lambda: um.GammaRatioSequence(denom=((1.0, math.nan),)),
], ids=["beta", "bessel_i", "struve_h", "struve_series", "hyper_pfq", "b_nu", "law_slope"])
def test_non_finite_order_is_a_domain_error(call):
    with pytest.raises(DomainError, match="finite"):
        call()


class TestTermRatioKernelsProperties:
    # Each value is within tol of its reference, or the kernel raises.  The
    # orders keep every function free of zeros on x > 0: I_mu for mu >= -1,
    # and b_nu's series has positive terms for nu >= 0, as has its Kummer
    # form at x < 0.  scipy's iv loses tiny values (it gives I_1(1e-200) as
    # 0 and I_0(5e-324) as nan), so its x starts at 1e-3.
    # At x < 0 the orders are integers, where I_n(-x) = (-1)^n I_n(x).
    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(-1.0, 5.0), x=st.floats(1e-3, 50.0), negative=st.booleans())
    def test_bessel_i_against_scipy(self, mu, x, negative):
        special = pytest.importorskip("scipy.special")
        if negative:
            mu, x = float(round(mu)), -x
        try:
            got = sf.bessel_i(mu, x)
        except EngineError:
            return
        expected = float(special.iv(mu, x))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    # The closed form is taken on scipy's iv, which loses tiny values as for
    # I_mu, so for |x| < 1e-3 the reference is the confluent form
    # Gamma(nu+1)/Gamma(2 nu+1) 1F1(nu+1; 2 nu+1; x) by mpmath at 30 digits.
    # At x < 0 the closed form adds two I of opposite signs, since I_mu(-y) =
    # e^(i pi mu) I_mu(y), and b_nu goes to e^x as nu goes to 0: the form
    # keeps eps times the size of its terms, which is the scale there.  At
    # x > 0 the scale is |closed|.
    @settings(max_examples=300, deadline=None)
    @given(nu=st.floats(0.0, 3.0),
           x=st.one_of(st.floats(-40.0, 50.0, allow_subnormal=False),
                       st.floats(-1e-3, 1e-3, allow_subnormal=False)))
    def test_b_nu_series_against_closed_form(self, nu, x):
        special = pytest.importorskip("scipy.special")
        try:
            series = sf.b_nu(nu, x)
        except EngineError:
            return
        if abs(x) < 1e-3:
            mpmath = pytest.importorskip("mpmath")
            with mpmath.workdps(30):
                a = mpmath.mpf(nu) + 1
                expected = float(mpmath.gamma(a) / mpmath.gamma(2 * a - 1)
                                 * mpmath.hyp1f1(a, 2 * a - 1, x))
            assert abs(series - expected) <= 1e-12 * abs(expected)
            return
        closed = b_nu_closed(nu, x)
        terms = (0.5 * SQRT_PI * abs(x) ** (0.5 - nu) * math.exp(0.5 * x)
                 * special.iv(nu - 0.5, 0.5 * abs(x)))
        assert abs(series - closed) <= 1e-12 * max(abs(closed), terms)

    # b_nu for nu >= 0 off the negative real axis, the 1F1 summed by its
    # term ratio, at the arguments of eq08's fresnel_bessel, i s, and in the
    # right half-plane.  Where the terms cancel past tol it raises.
    @settings(max_examples=300, deadline=None)
    @given(nu=st.floats(0.0, 3.0),
           z=st.one_of(st.one_of(st.floats(-20.0, -1e-3), st.floats(1e-3, 20.0)).map(
                           lambda s: complex(0.0, s)),
                       st.builds(cmath.rect, st.floats(1e-3, 10.0),
                                 st.floats(-0.5 * math.pi, 0.5 * math.pi))))
    def test_b_nu_ratio_route_against_closed_form(self, nu, z):
        try:
            series = sf.b_nu(nu, z)
        except EngineError:
            return
        closed = b_nu_closed(nu, z)
        assert abs(series - closed) <= 1e-12 * abs(closed)

    # b_nu for nu >= 0 in the left half-plane, by Kummer's form.  Against
    # mpmath: scipy's iv under b_nu_closed is up to 2.7e-11 off here.  At
    # nu = 1e-13 every term past the first is below 1e-12 while they grow,
    # and a sum that stopped there was 1.9e-12 off
    @example(nu=1e-13, z=cmath.rect(5.0, 3.0))
    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(0.0, 3.0),
           z=st.builds(cmath.rect, st.floats(1e-3, 20.0),
                       st.floats(0.5 * math.pi, 1.5 * math.pi)))
    def test_b_nu_kummer_route_against_mpmath(self, nu, z):
        mpmath = pytest.importorskip("mpmath")
        try:
            series = sf.b_nu(nu, z)
        except EngineError:
            return
        with mpmath.workdps(30):
            a = mpmath.mpf(nu) + 1
            expected = complex(mpmath.gamma(a) / mpmath.gamma(2 * a - 1)
                               * mpmath.hyp1f1(a, 2 * a - 1, mpmath.mpc(z)))
        assert abs(series - expected) <= 1e-12 * abs(expected)


class TestHypergeometricKernelsProperties:
    # J_nu (DLMF 10.2.2), H_nu (DLMF 11.2.1) and c_k all step through
    # summation.hypergeometric_terms; each value is within 1e-12 relative
    # or 1e-14 absolute of its reference, or the kernel raises.
    @staticmethod
    def _close(got, expected):
        return abs(got - expected) <= max(1e-12 * abs(expected), 1e-14)

    @settings(max_examples=300, deadline=None)
    @given(nu=st.floats(0.0, 5.0), x=st.floats(1e-3, 5.0))
    def test_bessel_j_against_scipy(self, nu, x):
        special = pytest.importorskip("scipy.special")
        try:
            got = sf.bessel_j(nu, x)
        except EngineError:
            return
        assert self._close(got, float(special.jv(nu, x)))

    @settings(max_examples=300, deadline=None)
    @given(nu=st.floats(0.0, 5.0), x=st.floats(1e-3, 5.0))
    def test_struve_h_against_scipy(self, nu, x):
        special = pytest.importorskip("scipy.special")
        try:
            got = sf.struve_h(nu, x)
        except EngineError:
            return
        assert self._close(got, float(special.struve(nu, x)))

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from((0, 1)), x=st.floats(-5.0, 5.0))
    def test_pseudo_trig_of_order_two_is_cos_and_sin(self, k, x):
        try:
            got = sf.pseudo_trig(k, 2, x)
        except EngineError:
            return
        assert self._close(got, math.sin(x) if k else math.cos(x))
