import cmath
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from umbralint import specfun as sf
from umbralint.errors import ConvergenceError, DomainError, EngineError, PoleError
from umbralint.reference import classical_hermite, struve_h_ref, struve_k_ref

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

    def test_known_complex_modulus(self):
        # |Gamma(1+i)| = sqrt(pi / sinh(pi))
        assert abs(sf.gamma(1 + 1j)) == pytest.approx(
            math.sqrt(math.pi / math.sinh(math.pi)), rel=1e-13)

    def test_log_gamma_consistency(self):
        for z in (0.3, 2.7, complex(1.5, 2.0), complex(-0.7, 0.4)):
            assert cmath.exp(sf.log_gamma(z)) == pytest.approx(
                complex(sf.gamma(z)), rel=1e-12)


class TestBeta:
    def test_values(self):
        assert sf.beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert sf.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_symmetry_and_large_arguments(self):
        # log-space assembly keeps huge Gammas finite
        assert sf.beta(200.0, 150.0) == pytest.approx(sf.beta(150.0, 200.0), rel=1e-12)
        assert sf.beta(200.0, 150.0) > 0.0

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

    def test_half_integer_reductions(self):
        assert sf.bessel_i(0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-12)
        assert sf.bessel_i(-0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.cosh(1.0), rel=1e-12)


class TestStruveH:
    def test_trivial_zero(self):
        assert sf.struve_h(0.0, 0.0) == 0.0

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
        for x in (0.5, 1.0, 3.0):
            assert sf.struve_h(nu, x) == pytest.approx(struve_h_ref(nu, x), rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, 2.5])
    def test_against_reference(self, nu):
        for x in (0.5, 1.0, 3.0, 10.0):
            assert sf.struve_h(nu, x) == pytest.approx(struve_h_ref(nu, x),
                                                       rel=1e-10, abs=1e-13)


class TestStruveK:
    # K_nu = H_nu - Y_nu, the oracle's smooth Struve tail, against mpmath at
    # 30 digits on both sides of the switch to the large-x expansion at x = 50
    @pytest.mark.parametrize("nu", [-1.9, -1.5, -0.5, -0.2, 0.0, 2.5, 8.0])
    @pytest.mark.parametrize("x", [10.0, 49.9, 50.0, 1e3, 1e8])
    def test_against_mpmath(self, nu, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expected = float(mpmath.struveh(nu, x) - mpmath.bessely(nu, x))
        got = struve_k_ref(nu, x)
        if expected == 0.0:   # K_{-1/2} = 0; H - Y leaves rounding of Y
            assert abs(got) <= 1e-15
        else:
            assert got == pytest.approx(expected, rel=1e-13 if x >= 50.0 else 1e-10)


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
            series = sf.b_nu(nu, x, method="series")
            closed = sf.b_nu(nu, x, method="bessel_closed_form")
            assert abs(series - closed) <= 1e-10 * abs(closed)

    def test_dual_method_complex_argument(self):
        z = complex(-0.3, -0.25)
        series = sf.b_nu(0.5, z)
        closed = sf.b_nu(0.5, z, method="bessel_closed_form")
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
            closed = sf.b_nu(nu, x, method="bessel_closed_form")
            assert abs(series - closed) <= 1e-12 * abs(closed)

    def test_half_odd_order_against_mpmath(self):
        # (sqrt(pi)/2) e^{1/2} (I_{-3}(1/2) + I_{-2}(1/2)) by mpmath at 30 digits
        assert sf.b_nu(-2.5, 1.0).real == pytest.approx(0.0504842705743648, rel=1e-13)
        assert sf.b_nu(-2.5, 1.0, method="bessel_closed_form").real == pytest.approx(
            0.0504842705743648, rel=1e-13)

    def test_zero_everywhere_series_stay_finite(self):
        # with every term 0 the sum still ends, at 0
        for nu in (-1.5, -3.5):
            assert sf.b_nu(nu, 0.0) == 0.0
        for m in (3, 4, 5):
            for k in range(1, m):
                assert sf.pseudo_trig(k, m, 0.0) == 0.0

    def test_closed_form_needs_nonzero_argument(self):
        with pytest.raises(DomainError):
            sf.b_nu(1.0, 0.0, method="bessel_closed_form")


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
        # second term is 1.7e-5 of the first, and c_0 is -64552, not 1
        with pytest.raises(DomainError, match="double range"):
            sf.pseudo_trig(0, 800, 300.0)
        # at x = 250, m = 705 the ratio is 1e-13: the first term is the sum
        assert sf.pseudo_trig(0, 705, 250.0) == pytest.approx(1.0, rel=1e-12)


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


class TestTermRatioKernelsProperties:
    # Each value is within tol of its reference, or the kernel raises.  The
    # arguments are positive and the orders keep every function free of
    # zeros on x > 0: I_mu for mu >= -1, and b_nu's series has positive
    # terms for nu >= 0.  At negative x b_nu's series cancels, which the
    # stopping rule does not see yet.  scipy's iv loses tiny values (it gives
    # I_1(1e-200) as 0 and I_0(5e-324) as nan), so its x starts at 1e-3.
    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(-1.0, 5.0), x=st.floats(1e-3, 50.0))
    def test_bessel_i_against_scipy(self, mu, x):
        special = pytest.importorskip("scipy.special")
        try:
            got = sf.bessel_i(mu, x)
        except EngineError:
            return
        expected = float(special.iv(mu, x))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    @settings(max_examples=300, deadline=None)
    @given(nu=st.floats(0.0, 3.0), x=st.floats(0.0, 50.0, allow_subnormal=False))
    def test_b_nu_series_against_closed_form(self, nu, x):
        try:
            series = sf.b_nu(nu, x)
            closed = sf.b_nu(nu, x, method="bessel_closed_form")
        except EngineError:
            return
        assert abs(series - closed) <= 1e-12 * abs(closed)


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
