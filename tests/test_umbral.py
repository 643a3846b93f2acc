import cmath
import copy
import gc
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbralint import closedforms, oracle, specfun as sf, transforms as tr, umbral as um
from umbralint.errors import (ConvergenceError, DomainError, KernelDomainError,
                              PoleError, StripError)
from umbralint.reference import bessel_j_ref, struve_ref
from umbralint.summation import sum_series

SQRT_PI = math.sqrt(math.pi)

# Gamma(1+s), the moment law of 1/(1+x)
FACTORIAL_LAW = um.GammaRatioSequence(numer=((1.0, 1.0),))


def struve_law(nu):
    """Gamma(s+1) / (Gamma(s+3/2) Gamma(s+nu+3/2)), the Struve moment law."""
    return um.GammaRatioSequence(numer=((1.0, 1.0),),
                                 denom=((1.5, 1.0), (nu + 1.5, 1.0)))


def bessel_series(n):
    """J_n(2x) as a series in x."""
    law = um.GammaRatioSequence(denom=((1.0, 1.0), (n + 1.0, 1.0)))
    return um.CoefficientSeries(law, stride=2, offset=float(n), geometric=-1.0)


class TestGammaRatioSequence:
    def test_validation(self):
        with pytest.raises(DomainError):
            um.GammaRatioSequence(scale=0.0)
        with pytest.raises(DomainError):
            um.GammaRatioSequence(numer=((1.0, -1.0),))
        with pytest.raises(DomainError):
            # phi(0) = 1/Gamma(0) = 0 violates the nonzero-seed invariant
            um.GammaRatioSequence(denom=((0.0, 1.0),))

    def test_canonical_form(self):
        # identical factors cancel and the rest are sorted, so a ratio and
        # its simplification compare equal
        assert um.GammaRatioSequence(numer=((1, 1),), denom=((1, 1),)) == um.GammaRatioSequence()
        assert (um.GammaRatioSequence(denom=((2.0, 1.0), (1.0, 1.0)))
                == um.GammaRatioSequence(denom=((1.0, 1.0), (2.0, 1.0))))
        assert um.bessel_phi().times(numer=((1.0, 1.0),)) == um.GammaRatioSequence()

    def test_callable_sugar(self):
        phi = um.bessel_phi()
        assert phi(3.0) == pytest.approx(complex(1.0 / 6.0), rel=1e-13)


class TestPhiEval:
    def test_bessel_at_integer(self):
        assert um.phi_eval(um.bessel_phi(), 3.0) == pytest.approx(1 / 6, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.7, 1.5, 3.0])
    def test_struve_continuation_at_minus_half(self, nu):
        # the value that produces the closed whole-line Struve moment
        value = um.phi_eval(struve_law(nu), -0.5)
        assert value == pytest.approx(complex(SQRT_PI / sf.gamma(nu + 1.0)), rel=1e-12)

    def test_factorial_at_minus_half(self):
        assert um.phi_eval(FACTORIAL_LAW, -0.5) == pytest.approx(
            complex(SQRT_PI), rel=1e-13)

    def test_denominator_pole_gives_zero(self):
        # continuation of the basic struve law hits Gamma(0) in the
        # denominator at s = -3/2
        phi = struve_law(0.0)
        assert um.phi_eval(phi, 0.0) != 0
        assert um.phi_eval(phi, -1.5) == 0.0

    def test_numerator_pole_raises_with_index(self):
        with pytest.raises(PoleError) as excinfo:
            um.phi_eval(FACTORIAL_LAW, -1.0)
        assert excinfo.value.factor_index == 0

    def test_paired_pole_residue_limit(self):
        # Gamma(1+s)/Gamma(1+2s) at s = -1: simple poles in both, limit from
        # the residue ratio including the slope factor
        phi = um.GammaRatioSequence(numer=((1.0, 1.0),), denom=((1.0, 2.0),))
        value = um.phi_eval(phi, -1.0)
        eps = 1e-7
        approached = (sf.gamma(1.0 + (-1.0 + eps))
                      / sf.gamma(1.0 + 2.0 * (-1.0 + eps)))
        assert value.real == pytest.approx(approached, rel=1e-5)
        assert value.real == pytest.approx(-2.0, rel=1e-12)

    def test_complex_argument(self):
        phi = um.bessel_phi()
        s = complex(0.5, 1.5)
        assert um.phi_eval(phi, s) == pytest.approx(1.0 / sf.gamma(1.0 + s), rel=1e-12)

    def test_log_space_survives_large_arguments(self):
        # direct Gamma products would overflow far below s = 150
        value = um.phi_eval(struve_law(0.5), 150.0)
        assert value.real > 0.0
        assert math.isfinite(value.real)
        expected = math.exp(math.lgamma(151.0) - math.lgamma(151.5)
                            - math.lgamma(152.0))
        assert value.real == pytest.approx(expected, rel=1e-12)

    def test_seed_invariant_rejects_vanishing_series(self):
        # the basic struve law at order -3/2 has a vanishing leading moment
        with pytest.raises(DomainError):
            struve_law(-1.5)


class TestUmbralSeries:
    def test_exponential_instance(self):
        f = um.exponential_series()
        assert f.evaluate(1.0) == pytest.approx(
            complex(math.exp(-1.0)), rel=1e-13)

    # exp(-x) and exp(-x^2) at positive x: the 1F1 laws 1/k! at y < 0,
    # whose alternating sums printed 6.1e-6 and -0.0332 here
    def test_alternating_exponentials_take_kummers_form(self):
        assert um.exponential_series().evaluate(30.0).real == pytest.approx(
            math.exp(-30.0), rel=1e-12)
        gauss = um.CoefficientSeries(um.bessel_phi(), stride=2, geometric=-1.0)
        assert gauss.evaluate(6.0).real == pytest.approx(math.exp(-36.0), rel=1e-12)

    # (k + 720)/k! at y = -x is Kummer's c = b - a = -1: its terms 1 - x/720
    # sum to exactly 0 at x = 720 under a subnormal factor 720 e^-720, and
    # the value, 6.5e-358, is 0 in floats
    def test_kummer_sum_of_zero_under_a_subnormal_factor(self):
        law = um.GammaRatioSequence(numer=[(721.0, 1.0)], denom=[(1.0, 1.0), (720.0, 1.0)])
        series = um.CoefficientSeries(law, geometric=-1.0)
        assert series.evaluate(720.0) == 0.0
        assert series.evaluate(721.0).real == pytest.approx(-7.476159319272408e-314, rel=1e-9)

    def test_bessel_instance_matches_kernel(self):
        f = bessel_series(0)
        assert f.evaluate(1.0) == pytest.approx(
            complex(sf.bessel_j(0.0, 2.0)), rel=1e-12)
        f3 = bessel_series(3)
        for x in (0.3, 1.0, 2.5):
            assert f3.evaluate(x) == pytest.approx(
                complex(sf.bessel_j(3.0, 2.0 * x)), rel=1e-11)

    def test_struve_instance_matches_kernel(self):
        f = um.struve_series(0.0)
        assert f.evaluate(2.0) == pytest.approx(
            complex(sf.struve_h(0.0, 2.0)), rel=1e-11)
        fb = um.struve_series(-0.5, b=2.0)
        assert fb.evaluate(1.5) == pytest.approx(
            complex(sf.struve_h(-0.5, 3.0)), rel=1e-11)

    @pytest.mark.parametrize("nu", [-1.5, -2.5, -3.5])
    def test_struve_instance_skips_vanishing_terms(self, nu):
        # 1/Gamma(k + nu + 3/2) is 0 for the first -(nu + 1/2) terms, so the
        # series starts past them
        f, struve_h = um.struve_series(nu), struve_ref(nu)[0]
        for x in (0.7, 2.0):
            assert f.evaluate(x).real == pytest.approx(struve_h(x), rel=1e-13)

    def test_coefficient_reconstruction(self):
        # phi(n) equals n! times the coefficient of (-x)^n for every
        # cataloged law, n <= 20
        laws = [um.GammaRatioSequence(), um.bessel_phi(), FACTORIAL_LAW,
                struve_law(0.0), struve_law(1.5)]
        for phi in laws:
            f = um.CoefficientSeries(phi.times(denom=((1.0, 1.0),)), geometric=-1.0)
            for n in range(21):
                recon = f.coefficient(n) * math.factorial(n) * (-1.0) ** n
                assert recon == pytest.approx(um.phi_eval(phi, float(n)), rel=1e-11)

    def test_validation(self):
        with pytest.raises(DomainError):
            um.CoefficientSeries(um.bessel_phi(), stride=0)
        with pytest.raises(DomainError):
            um.CoefficientSeries(um.bessel_phi(), geometric=0.0)
        for geometric in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                um.CoefficientSeries(um.bessel_phi(), geometric=geometric)

    def test_overflowing_argument_scale_is_rejected(self):
        # (b/2)^2 overflows to -inf, where the Mellin value would be 0j
        # against a true -1/b = -1e-300
        with pytest.raises(DomainError):
            um.struve_series(-0.5, 1e300)

    @pytest.mark.parametrize("b", [1e200, 1e300])
    def test_overflowing_scale_power_is_a_domain_error(self, b):
        # (b/2)^(nu+1) leaves the double range before (b/2)^2 is formed
        with pytest.raises(DomainError, match="overflow"):
            um.mellin_master_strided(um.struve_series(2.0, b), 1.0)


class TestMellinMaster:
    def test_exponential(self):
        assert um.mellin_master(um.exponential_series(), 0.5) == pytest.approx(
            complex(SQRT_PI), rel=1e-13)

    def test_rational_reflection(self):
        assert um.mellin_master(um.rational_series(), 0.5) == pytest.approx(
            complex(math.pi), rel=1e-13)
        assert um.mellin_master(um.rational_series(), 1.0 / 3.0) == pytest.approx(
            complex(math.pi / math.sin(math.pi / 3.0)), rel=1e-13)

    # a complex nu takes phi_eval's sum of log Gammas
    @pytest.mark.parametrize("nu", [0.3 + 0.4j, 0.7 - 1.1j, 0.5 + 2j])
    def test_rational_reflection_at_complex_nu(self, nu):
        expected = cmath.pi / cmath.sin(cmath.pi * nu)
        assert abs(um.mellin_master(um.rational_series(), nu) / expected - 1.0) <= 1e-13

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
    def test_oracle_consistency(self, nu):
        # the quadrature oracle reproduces both cataloged transforms
        exp_val = um.mellin_master(um.exponential_series(), nu)
        got = oracle.integrate_half_line(
            lambda x: x ** (nu - 1.0) * math.exp(-x), 1e-10)
        assert abs(exp_val - got.value) <= 1e-8 * abs(exp_val)

        rat_val = um.mellin_master(um.rational_series(), nu)
        got = oracle.integrate_half_line(
            lambda x: x ** (nu - 1.0) / (1.0 + x), abs(rat_val) * 2.5e-9)
        assert abs(rat_val - got.value) <= 1e-8 * abs(rat_val)

    def test_strip_and_shape_errors(self):
        with pytest.raises(StripError):
            um.mellin_master(um.exponential_series(), -0.5)
        with pytest.raises(DomainError):
            um.mellin_master(bessel_series(0), 0.5)

    def test_is_the_stride_one_strided_evaluator(self):
        for series in (um.exponential_series(), um.rational_series()):
            for nu in (0.1, 0.5, 2.5, 7.25, 149.5):
                assert um.mellin_master(series, nu) == um.mellin_master_strided(series, nu)


class TestMellinMasterStrided:
    @pytest.mark.parametrize("nu", [-1.9, -1.5, -1.2, -0.5, -0.25])
    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_struve_halfline_reduction(self, nu, b):
        value = um.mellin_master_strided(um.struve_series(nu, b), 1.0)
        expected = -1.0 / (b * math.tan(0.5 * math.pi * nu))
        assert value.real == pytest.approx(expected, rel=1e-12)
        assert abs(value.imag) < 1e-14 * abs(value)

    def test_struve_moment_reduction(self):
        # x^{-(nu+1)} times the Struve series, integrated over the even
        # extension of the whole line
        for nu in (0.0, 0.5, 1.0, 2.0):
            series = replace(um.struve_series(nu), offset=0.0)
            value = 2.0 * um.mellin_master_strided(series, 1.0)
            assert value.real == pytest.approx(
                math.pi / (2.0 ** nu * sf.gamma(1.0 + nu)), rel=1e-12)

    def test_gaussian(self):
        gaussian = um.CoefficientSeries(um.bessel_phi(), stride=2, geometric=-1.0)
        assert um.mellin_master_strided(gaussian, 1.0) == pytest.approx(
            complex(0.5 * SQRT_PI), rel=1e-13)

    def test_bessel_halfline_with_contour_oracle(self):
        value = um.mellin_master_strided(bessel_series(0), 1.0)
        assert value.real == pytest.approx(0.5, rel=1e-13)
        # J_0 = Re H1_0 on the real axis, so beyond x0 the integral of
        # J_0(2 x) is Re i times that of H1_0(2 (x0 + i y)) over y > 0,
        # within the Hankel bound at 2 x0 times e^(-2 y)
        bessel_j, hankel1 = bessel_j_ref(0), struve_ref(0.0)[3]
        x0 = 1.0 + 0.5 * math.pi
        tail = oracle.ContourTail(
            x0, lambda y: -hankel1(complex(2.0 * x0, 2.0 * y)).imag,
            ((math.exp(closedforms._log_hankel_bound(0.0, 2.0 * x0)), 2.0),))
        got = oracle.integrate_half_line(lambda x: bessel_j(2.0 * x), 1e-6, tail)
        assert abs(got.value - 0.5) <= 1e-6

    def test_strip_error(self):
        with pytest.raises(StripError):
            um.mellin_master_strided(bessel_series(2), -3.0)


# F(a+2) for the Lorentz symbol F(a) = sqrt(pi) Gamma(a-1/2)/Gamma(a)
LORENTZ_SHIFTED = um.MellinMultiplier(um.GammaRatioSequence(
    scale=SQRT_PI, numer=((1.5, 1.0),), denom=((2.0, 1.0),)))


def _kernels_with_domain():
    return [
        (um.gaussian_kernel(), 0.0),
        (um.borel_factorial(), -1.0),
        (um.beta_kernel(1.5, 2.0), -1.5),
        (LORENTZ_SHIFTED, -1.5),
    ]


def _series_shapes():
    """x^n e^{-x} = sum_k (-1)^k x^(k+n)/k!, then stride-2 and stride-3
    series with offsets."""
    return ([um.CoefficientSeries(um.bessel_phi(), offset=n, geometric=-1.0)
             for n in (0.0, 0.5, 1.0, 2.0, 3.5)]
            + [um.bessel_power_series(n) for n in (1, 2)]
            + [tr.pseudo_trig_series(k, 3) for k in range(3)])


class TestMellinMultiplier:
    def test_symbol_values(self):
        assert um.gaussian_kernel().value(2.0) == pytest.approx(math.sqrt(math.pi / 2.0))
        assert um.borel_factorial().value(3.0) == pytest.approx(6.0)
        assert um.beta_kernel(2.0, 3.0).value(1.0) == pytest.approx(sf.beta(3.0, 3.0))

    def test_eigenvalue_property(self):
        # each power x^a of the series is scaled by F(a), so the result is
        # the direct sum of the scaled terms
        for multiplier, bound in _kernels_with_domain():
            for spec in _series_shapes():
                if spec.offset <= bound:
                    continue
                # Gamma(a + 1) stays finite up to a = 150
                exponents = [spec.stride * k + spec.offset
                             for k in range(150 // spec.stride)]
                for x in (0.3, 0.6):
                    got = um.apply_mellin_multiplier(multiplier, spec, x)
                    direct = sum(spec.coefficient(k) * multiplier.value(a) * x ** a
                                 for k, a in enumerate(exponents))
                    assert got == pytest.approx(direct, rel=1e-12)

    def test_lower_bound_is_derived_from_the_symbol(self):
        for multiplier, bound in _kernels_with_domain():
            assert multiplier.lower_bound == bound

    def test_symbol_with_slope_half(self):
        # F(a) = Gamma(1 + a/2): its factor (s, sigma) = (1, 1/2) meets the
        # exponent a = m k + p of term k as the law factor (1 + p/2, m/2)
        half = um.MellinMultiplier(um.GammaRatioSequence(numer=((1.0, 0.5),)))
        assert half.lower_bound == -2.0
        spec = um.bessel_power_series(3)
        assert half.edit(spec).law == spec.law.times(numer=((2.5, 1.0),))
        for x in (0.8, 2.0):
            got = um.apply_mellin_multiplier(half, spec, x)
            direct = sum(spec.coefficient(k) * sf.gamma(k + 2.5) * x ** (2 * k + 3)
                         for k in range(40))
            assert got == pytest.approx(direct, rel=1e-12)
        shifted = um.CoefficientSeries(um.bessel_phi(), offset=-1.5, geometric=-1.0)
        got = um.apply_mellin_multiplier(half, shifted, 0.5)
        direct = sum((-0.5) ** k / math.factorial(k) * sf.gamma(0.25 + 0.5 * k)
                     for k in range(60)) * 0.5 ** -1.5
        assert got == pytest.approx(direct, rel=1e-12)
        with pytest.raises(KernelDomainError):
            um.apply_mellin_multiplier(half, replace(shifted, offset=-2.0), 0.5)

    def test_kernels_are_module_constants(self):
        assert um.gaussian_kernel() is um.gaussian_kernel()
        assert um.borel_factorial() is um.borel_factorial()
        assert "MultiplierKind" not in um.__all__

    def test_kernel_domain_errors(self):
        with pytest.raises(KernelDomainError):
            um.gaussian_kernel().value(0.0)
        with pytest.raises(KernelDomainError):
            um.beta_kernel(1.5, 2.0).value(-1.5)
        spec = um.CoefficientSeries(um.bessel_phi(), stride=2, offset=-1.25)
        with pytest.raises(KernelDomainError):
            um.apply_mellin_multiplier(um.borel_factorial(), spec, 1.0)

    def test_gaussian_bessel_series(self):
        # the Gaussian kernel applied to the Bessel series gives
        # sqrt(pi) sum_k (-1)^k (x/2)^{2k+n} / (k! (k+n)! sqrt(2k+n))
        for n in (1, 2):
            for x in (0.5, 1.0, 3.0):
                got = um.apply_mellin_multiplier(um.gaussian_kernel(),
                                                 um.bessel_power_series(n), x)
                direct = SQRT_PI * sum(
                    (-1.0) ** k * (0.5 * x) ** (2 * k + n)
                    / (math.factorial(k) * math.factorial(k + n)
                       * math.sqrt(2.0 * k + n))
                    for k in range(60))
                assert got.real == pytest.approx(direct, rel=1e-12)

    def test_bessel_power_series_matches_kernel(self):
        spec = um.bessel_power_series(2)
        for x in (0.5, 2.0):
            assert spec.evaluate(x) == pytest.approx(
                complex(sf.bessel_j(2.0, x)), rel=1e-11)

    def test_negative_x_with_integer_offset(self):
        spec = um.bessel_power_series(1)
        got = um.apply_mellin_multiplier(um.gaussian_kernel(), spec, -1.0)
        pos = um.apply_mellin_multiplier(um.gaussian_kernel(), spec, 1.0)
        assert got == pytest.approx(-pos, rel=1e-13)

    def test_zero_argument(self):
        spec = um.bessel_power_series(1)
        assert um.apply_mellin_multiplier(um.gaussian_kernel(), spec, 0.0) == 0.0



def _direct(series, x, terms=80, power=0.0):
    """sum_k coefficient(k) a_k^power x^a_k, each coefficient built from the
    law in log space, a_k = stride k + offset."""
    total = 0.0
    for k in range(terms):
        a = series.stride * k + series.offset
        total += series.coefficient(k) * a ** power * x ** a
    return total


# the series of TestTermRatio, each with the x it is summed at
TERM_RATIO_CASES = [
    (bessel_series(2), (-1.7, 0.9, 2.0)),                        # stride 2
    (tr.pseudo_trig_series(1, 3), (-1.7, 0.9, 2.0)),             # stride 3, slope 3
    (tr.beta_transform(tr.pseudo_trig_series(2, 3), 0.7, 2.5), (-1.7, 0.9, 2.0)),
    (closedforms._LORENTZ_SERIES, (-1.7, 0.9, 2.0)),             # slope-2 factors
    (um.struve_series(-3.5), (0.3, 0.9, 2.0)),                   # starts past zeros
    (tr.beta_transform(um.exponential_series(), 0.7, 2.5), (-1.7, 0.9, 2.0)),
    # b_nu's law at nu = -3 without its head: poles up to k = 5
    (um.CoefficientSeries(um.GammaRatioSequence(
        numer=((-2.0, 1.0),), denom=((-5.0, 1.0), (1.0, 1.0)))), (-1.7, 0.9, 2.0)),
]
TERM_RATIO_IDS = ["stride2", "stride3", "beta_slope3", "eq30", "struve_-3.5", "beta", "poles"]
TERM_RATIO_SERIES = [series for series, _ in TERM_RATIO_CASES]


class TestTermRatio:
    # an integer-slope law is summed by its Pochhammer term ratio; each sum
    # must agree with the term-by-term sum of its own coefficients
    @pytest.mark.parametrize("series,xs", TERM_RATIO_CASES, ids=TERM_RATIO_IDS)
    def test_equals_direct_sum(self, series, xs):
        for x in xs:
            direct = _direct(series, x)
            assert abs(series.evaluate(x) - direct) <= 1e-13 * abs(direct)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_gaussian_kernel_power(self, n):
        spec = um.bessel_power_series(n)
        for x in (-0.5, 2.0, 4.0):
            got = um.apply_mellin_multiplier(um.gaussian_kernel(), spec, x)
            direct = SQRT_PI * _direct(spec, x, power=-0.5)
            assert abs(got - direct) <= 1e-13 * abs(direct)

    def test_slope_half_takes_every_term_from_the_law(self):
        half = um.MellinMultiplier(um.GammaRatioSequence(numer=((1.0, 0.5),)))
        for spec in (um.bessel_power_series(3),
                     um.CoefficientSeries(um.bessel_phi(), offset=-1.5, geometric=-1.0)):
            edited = half.edit(spec)
            direct = _direct(edited, 0.5, terms=60)
            assert abs(edited.evaluate(0.5) - direct) <= 1e-13 * abs(direct)

    def test_subnormal_terms_are_reseeded(self):
        # the first terms, 1e-320 * 30^k / k!, are subnormal; stepping from
        # them would carry their few significant bits into the sum
        law = um.GammaRatioSequence(scale=1e-320, denom=((1.0, 1.0),))
        got = um.CoefficientSeries(law).evaluate(30.0)
        assert got.real == pytest.approx(1e-320 * math.exp(30.0), rel=1e-12)

    def test_complex_argument_takes_principal_powers(self):
        # the phase of z moves into the geometric factor and the scale
        spec = um.CoefficientSeries(um.GammaRatioSequence(denom=((1.0, 1.0), (1.5, 1.0))),
                                    stride=2, offset=0.5)
        for z in (complex(-1.2, 0.0), complex(0.4, -1.1), -0.7j):
            direct = sum(spec.coefficient(k) * z ** (2 * k + 0.5) for k in range(60))
            assert abs(spec.evaluate(z) - direct) <= 1e-13 * abs(direct)

    # the Borel edits of c_0: their Gamma factors cancel, and the sum is
    # geometric, 1 / (1 + x^m), also where the loop needed over 10000 terms
    # (a real x is taken exactly, since 1 + x^m in floats cancels near -1)
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("x", [-0.9999, 0.5, 0.9999, 0.3 + 0.4j])
    def test_law_without_factors_sums_as_geometric(self, m, x):
        series = tr.borel_transform(tr.pseudo_trig_series(0, m))
        assert series.law == um.GammaRatioSequence()
        exact = (float(1 / (1 + Fraction(x) ** m)) if isinstance(x, float)
                 else 1.0 / (1.0 + x ** m))
        assert series.evaluate(x) == pytest.approx(exact, rel=1e-14)

    # 1 - y from the rounded y = -x^3 was 1.5e-11 and 1.6e-13 off here; the
    # values of 1 / (1 + x^3) are 40-digit mpmath's
    @pytest.mark.parametrize("x,exact", [
        (-0.999999, 333333.6666573036674948783050976110284621),
        (-0.9999, 3333.666688890367150781398669362220522909),
    ])
    def test_geometric_sum_near_its_pole(self, x, exact):
        got = tr.borel_transform(tr.pseudo_trig_series(0, 3)).evaluate(x)
        assert got == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_overflowing_term_still_ends_in_convergence_error(self):
        with pytest.raises(ConvergenceError):
            um.exponential_series().evaluate(-800.0)


def _stream_sum(t, a, b, y, tol, k=0, seed=None, k_safe=0, weight=None):
    """sum_series over a generator of the same terms as the fused loop:
    each run of stepped terms starts from a seed, at k_safe and after a
    term that is 0 or subnormal; a None seed is skipped."""
    def stepped(t, k):
        while True:
            yield t
            num, den = y, 1.0
            for c in a:
                num *= c + k
            for c in b:
                den *= c + k
            t *= num / den
            k += 1.0

    def terms():
        k = 0
        while True:
            t = seed(k)
            if t is None:
                k += 1
                continue
            for t in stepped(t, float(k)) if k >= k_safe else (t,):
                yield t * weight(k) if weight else t
                k += 1
                if abs(t) < 2.2250738585072014e-308:
                    break

    return sum_series(terms(), tol)


def _bits(call):
    try:
        return repr(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


# Gamma(k - 1.7) / k!: three terms seeded in log space before it is stepped
NEGATIVE_SHIFT = um.CoefficientSeries(
    um.GammaRatioSequence(numer=((-1.7, 1.0),), denom=((1.0, 1.0),)), geometric=-0.5)


class TestFusedSum:
    # a law's sum through the fused loop is the sum of its term stream, bit for bit

    @staticmethod
    def _both(call, monkeypatch):
        fused = _bits(call)
        with monkeypatch.context() as patch:
            patch.setattr(um, "sum_hypergeometric", _stream_sum)
            return fused, _bits(call)

    @settings(max_examples=40, deadline=None)
    @given(x=st.one_of(st.floats(-6.0, 6.0), st.floats(-60.0, 60.0)))
    def test_series(self, x):
        with pytest.MonkeyPatch.context() as monkeypatch:
            for series in TERM_RATIO_SERIES + [um.exponential_series(), NEGATIVE_SHIFT]:
                fused, stream = self._both(lambda: series.evaluate(x), monkeypatch)
                assert fused == stream, series

    @pytest.mark.parametrize("x", [-1.9, -0.77, 0.3, 1.7])
    def test_terms_up_to_k_safe_are_seeded(self, x, monkeypatch):
        fused, stream = self._both(lambda: NEGATIVE_SHIFT.evaluate(x), monkeypatch)
        assert fused == stream

    @pytest.mark.parametrize("x", [30.0, 700.0, -5.0])
    def test_subnormal_reseed(self, x, monkeypatch):
        # the terms 1e-320 x^k / k! start subnormal and are seeded until normal
        series = um.CoefficientSeries(um.GammaRatioSequence(scale=1e-320, denom=((1.0, 1.0),)))
        fused, stream = self._both(lambda: series.evaluate(x), monkeypatch)
        assert fused == stream

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("x", [-0.5, 2.0, 4.0, 25.0])
    def test_gaussian_power(self, n, x, monkeypatch):
        fused, stream = self._both(lambda: um.apply_mellin_multiplier(
            um.gaussian_kernel(), um.bessel_power_series(n), x), monkeypatch)
        assert fused == stream

    def test_non_integer_slope_seeds_every_term(self, monkeypatch):
        half = um.MellinMultiplier(um.GammaRatioSequence(numer=((1.0, 0.5),)))
        series = half.edit(um.bessel_power_series(3))
        fused, stream = self._both(lambda: series.evaluate(0.5), monkeypatch)
        assert fused == stream


def _fresh(series):
    """An equal series built anew, its law too, so without the memos of ``series``."""
    law = series.law
    return um.CoefficientSeries(um.GammaRatioSequence(law.scale, law.numer, law.denom),
                                series.stride, series.offset, series.geometric)


# (symbol or None, series): the kept edits of the symbols without a
# parameter, and series summed through their kept plans
KEPT_CASES = ([(um.gaussian_kernel(), um.bessel_power_series(n)) for n in range(1, 6)]
              + [(um.borel_factorial(), um.bessel_power_series(n)) for n in range(1, 5)]
              + [(um.borel_factorial(), tr.pseudo_trig_series(k, m))
                 for m in (2, 3) for k in range(m)]
              + [(None, tr.pseudo_trig_series(k, m)) for m in (2, 3) for k in range(m)]
              + [(None, um.exponential_series())])   # the Kummer route at x > 0


def _kept_and_fresh(symbol, series, x):
    """The sum through the kept edit and plan, and that of a fresh equal series."""
    if symbol is None:
        return _bits(lambda: series.evaluate(x)), _bits(lambda: _fresh(series).evaluate(x))
    return (_bits(lambda: um.apply_mellin_multiplier(symbol, series, x)),
            _bits(lambda: um._sum_terms(_fresh(symbol.edit(series)), x, sf.DEFAULT_TOL,
                                        symbol.power)))


class TestKeptPlans:
    # a series' plan, a law's phi(0) and the edits of the fixed symbols are
    # built once and kept; every sum through them keeps every bit

    @settings(max_examples=40, deadline=None)
    @given(x=st.one_of(
        st.floats(-4.0, 4.0),
        st.sampled_from([0.0, complex(-2.0, 0.0), complex(3.0, -0.0), complex(0.0, -0.5),
                         complex(-0.4, -0.0)]),
        st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    def test_kept_sums_keep_every_bit(self, x):
        for symbol, series in KEPT_CASES:
            _kept_and_fresh(symbol, series, 0.5)   # the plan is kept from here on
            assert "_plan" in vars(symbol.edit(series) if symbol else series)
            kept, fresh = _kept_and_fresh(symbol, series, x)
            assert kept == fresh, (symbol, series, x)

    def test_seeded_law_keeps_every_bit(self):
        # slopes past 708: every term is seeded in log space
        series = tr.pseudo_trig_series(0, 900)
        kept, fresh = _kept_and_fresh(None, series, 330.0)
        assert kept == fresh
        assert vars(series)["_plan"][0] == math.inf

    def test_term_0_is_the_phi0_its_law_keeps(self, monkeypatch):
        # a law stepped from k = 0, and the Kummer route, take no _log_phi of their own
        stepped, kummer = _fresh(tr.pseudo_trig_series(1, 3)), _fresh(um.exponential_series())
        calls, log_phi = [], um._log_phi
        monkeypatch.setattr(um, "_log_phi", lambda *args: calls.append(args) or log_phi(*args))
        stepped.evaluate(2.0)
        kummer.evaluate(3.0)
        assert calls == []

    def test_memos_are_not_seen(self):
        series = _fresh(tr.pseudo_trig_series(1, 3))
        law = series.law
        # equal to gaussian_kernel(), but not it, so that it starts with no memo
        gauss = um.MellinMultiplier(um.GammaRatioSequence(scale=SQRT_PI), power=-0.5)

        def seen(value, field, new):
            copied, pickled = copy.deepcopy(value), pickle.loads(pickle.dumps(value))
            return (hash(value), repr(value), repr(replace(value, **{field: new})),
                    repr(copied), copied == value, repr(pickled), pickled == value)

        def all_seen():
            return seen(series, "stride", 2), seen(law, "scale", 2.0), seen(gauss, "power", 1.0)

        before = all_seen()
        value = _bits(lambda: series.evaluate(0.5))
        gaussed = _bits(lambda: um.apply_mellin_multiplier(gauss, series, 0.5))
        um.mellin_master_strided(series, 0.7)
        um.borel_factorial().edit(series).evaluate(0.5)
        um.gaussian_kernel().edit(series).evaluate(0.5)
        assert {"_plan", "_borel_edit", "_gaussian_edit"} <= set(vars(series))
        assert "_moments" in vars(law) and "lower_bound" in vars(gauss)
        assert all_seen() == before
        for copied in (copy.deepcopy(series), pickle.loads(pickle.dumps(series))):
            assert _bits(lambda: copied.evaluate(0.5)) == value
            assert _bits(lambda: um.apply_mellin_multiplier(gauss, copied, 0.5)) == gaussed
        for copied in (copy.deepcopy(gauss), pickle.loads(pickle.dumps(gauss))):
            assert _bits(lambda: um.apply_mellin_multiplier(copied, series, 0.5)) == gaussed

    def test_lower_bound_is_kept_on_the_multiplier(self):
        multiplier = um.beta_kernel(0.7, 2.5)
        assert "lower_bound" not in vars(multiplier)
        um.apply_mellin_multiplier(multiplier, um.bessel_power_series(2), 0.5)
        assert vars(multiplier)["lower_bound"] == -0.7

    @pytest.mark.parametrize("symbol", [um.gaussian_kernel(), um.borel_factorial()],
                             ids=["gauss", "borel"])
    def test_an_edited_series_is_freed_when_dropped(self, symbol):
        # the edit lives on its series, so nothing else holds the series
        series = _fresh(um.bessel_power_series(2))
        edited = symbol.edit(series)
        um.apply_mellin_multiplier(symbol, series, 0.5)
        assert symbol.edit(series) is edited
        dropped = weakref.ref(series)
        del series
        gc.collect()
        assert dropped() is None

    def test_moment_law_is_kept_on_its_law(self):
        um.mellin_master(um.exponential_series(), 0.7)
        moments = vars(um.exponential_series().law)["_moments"]
        um.mellin_master(um.exponential_series(), 1.3)
        assert vars(um.exponential_series().law)["_moments"] is moments

    def test_a_kept_edit_is_keyed_on_the_object(self):
        # equal series, one with a complex field: each is edited as it is
        law = um.GammaRatioSequence(denom=((2.0, 3.0),))
        real, cplx = (um.CoefficientSeries(law, stride=3, offset=1.0, geometric=g)
                      for g in (-1.0, complex(-1.0, 0.0)))
        assert real == cplx and hash(real) == hash(cplx)
        borel = um.borel_factorial()
        assert borel.edit(real) is borel.edit(real)
        assert borel.edit(cplx) is not borel.edit(real)
        assert isinstance(borel.edit(cplx).geometric, complex)


def _replaced_edit(multiplier, series):
    """MellinMultiplier.edit as dataclasses.replace of the series law."""
    m, p = series.stride, series.offset
    numer, denom = ([(shift + slope * p, slope * m) for shift, slope in side]
                    for side in (multiplier.symbol.numer, multiplier.symbol.denom))
    return replace(series, law=series.law.times(multiplier.symbol.scale, numer, denom))


class TestConstantLaws:
    def test_constants_are_one_value(self):
        assert um.exponential_series() is um.exponential_series()
        assert um.exponential_series() == um.CoefficientSeries(um.bessel_phi(), geometric=-1.0)
        assert um.rational_series() is um.rational_series()
        assert um.rational_series() == um.CoefficientSeries(um.GammaRatioSequence(), geometric=-1.0)
        assert um.bessel_phi() is um.bessel_phi()
        assert um.bessel_phi() == um.GammaRatioSequence(denom=((1.0, 1.0),))

    def test_fixed_order_series_are_one_value(self):
        assert um.bessel_power_series(2) is um.bessel_power_series(2.0)
        assert um.bessel_power_series(2) == um.CoefficientSeries(
            um.GammaRatioSequence(scale=0.25, denom=((1.0, 1.0), (3.0, 1.0))), stride=2,
            offset=2.0, geometric=-0.25)
        assert tr.pseudo_trig_series(1, 3) is tr.pseudo_trig_series(1.0, 3.0)

    @pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf, 1j, "two", None])
    def test_fixed_order_series_check_the_order(self, n):
        with pytest.raises(DomainError):
            um.bessel_power_series(n)

    def test_fixed_order_series_cache_is_bounded(self):
        for n in range(2 * um._SERIES_CACHE):
            um.bessel_power_series(n)
            tr.pseudo_trig_series(0, n + 2)
        for cached in (um._bessel_power_series, um._pseudo_trig_series):
            assert cached.cache_info().currsize == um._SERIES_CACHE
        assert um.bessel_power_series(1) == um.bessel_power_series(1)
        # a symbol with a parameter keeps none of its edits on the series
        series = um.bessel_power_series(1)
        kept = dict(vars(series))
        assert um.beta_kernel(1.3, 2.2).edit(series) is not um.beta_kernel(1.3, 2.2).edit(series)
        assert vars(series).keys() == kept.keys()

    @pytest.mark.parametrize("value,field", [
        (um.exponential_series(), "geometric"), (um.rational_series(), "law"),
        (um.bessel_phi(), "denom"), (um.gaussian_kernel(), "power"),
    ])
    def test_constants_are_frozen(self, value, field):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, 2.0)

    @pytest.mark.parametrize("series", TERM_RATIO_SERIES, ids=TERM_RATIO_IDS)
    @pytest.mark.parametrize("multiplier", [
        um.gaussian_kernel(), um.borel_factorial(), um.beta_kernel(0.7, 2.5),
        um.MellinMultiplier(um.GammaRatioSequence(numer=((1.0, 0.5),))),
    ], ids=["gauss", "borel", "beta", "half"])
    def test_edit_equals_replace(self, series, multiplier):
        assert multiplier.edit(series) == _replaced_edit(multiplier, series)
