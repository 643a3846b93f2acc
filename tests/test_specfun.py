import cmath
import math

import pytest

from umbralint import specfun as sf
from umbralint.errors import ConvergenceError, DomainError, PoleError
from umbralint.reference import classical_hermite, struve_h_ref

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

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, 2.5])
    def test_against_reference(self, nu):
        for x in (0.5, 1.0, 3.0, 10.0):
            assert sf.struve_h(nu, x) == pytest.approx(struve_h_ref(nu, x),
                                                       rel=1e-10, abs=1e-13)


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

    def test_simultaneous_pole_limit(self):
        # at nu = -1 the k = 0 ratio Gamma(0)/Gamma(-1) has the limit -2
        value = sf.b_nu(-1.0, 1e-30)
        assert value.real == pytest.approx(-2.0, rel=1e-9)

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


class TestHermiteTricomi:
    def test_unit_at_origin(self):
        for m in (2, 3, 4):
            assert sf.hermite_tricomi(0, m, 0.0, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_bessel_reduction(self):
        # with y = 0 the coefficients are x^k, giving the J_0 series
        value = sf.hermite_tricomi(0, 2, 1.0, 0.0)
        assert value.real == pytest.approx(sf.bessel_j(0.0, 2.0), rel=1e-12)
        assert value.imag == 0.0

    def test_brute_force_double_sum(self):
        # direct double summation oracle at (n, m, x, y) = (1, 2, 1, 1)
        expected = 0.0
        for k in range(80):
            h = hermite_higher_direct(k, 2, 1.0, 1.0)
            expected += (-1.0) ** k / (math.factorial(k) * math.factorial(1 + k)) * h
        assert sf.hermite_tricomi(1, 2, 1.0, 1.0).real == pytest.approx(expected, rel=1e-10)


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
