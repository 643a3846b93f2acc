import cmath
import math

import pytest

from umbralint import oracle
from umbralint.errors import (
    DomainError,
    ExtrapolationError,
    QuadratureError,
)
from umbralint.reference import bessel_j_ref, struve_h_ref
from umbralint.specfun import beta as beta_fn

SQRT_PI = math.sqrt(math.pi)


class TestIntegrateFinite:
    def test_linear(self):
        r = oracle.integrate_finite(lambda u: u, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(0.5, abs=1e-12)
        assert r.converged

    def test_endpoint_singularity(self):
        r = oracle.integrate_finite(lambda u: u ** -0.5, 0.0, 1.0, 1e-9)
        assert r.value == pytest.approx(2.0, abs=5e-9)

    def test_beta_integrand_independent_path(self):
        r = oracle.integrate_finite(lambda u: u * (1.0 - u) ** 2, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(beta_fn(2.0, 3.0), rel=1e-11)
        assert r.value == pytest.approx(1.0 / 12.0, rel=1e-11)

    def test_budget_exhaustion_raises_with_partial(self):
        with pytest.raises(QuadratureError) as excinfo:
            oracle.integrate_finite(lambda u: math.sin(3000.0 * u), 0.0, 1.0,
                                    1e-14, max_intervals=12)
        partial = excinfo.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.evaluations > 0

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            oracle.integrate_finite(lambda u: u, 1.0, 0.0, 1e-8)


class TestIntegrateHalfLine:
    def test_exponential(self):
        r = oracle.integrate_half_line(lambda x: math.exp(-x), 1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_mellin_reflection_value(self):
        r = oracle.integrate_half_line(lambda x: x ** -0.5 / (1.0 + x), 1e-8)
        assert r.value == pytest.approx(math.pi, abs=1e-8)

    def test_damped_struve_matches_closed_form(self):
        r = oracle.integrate_half_line(lambda x: struve_h_ref(-0.5, x), 2.5e-6,
                                       damping="exp_extrapolated")
        assert r.value == pytest.approx(1.0, abs=2.5e-6)
        assert r.trace is not None
        assert r.trace.extrapolated == r.value

    def test_unknown_damping(self):
        with pytest.raises(DomainError):
            oracle.integrate_half_line(lambda x: math.exp(-x), 1e-8, damping="bogus")

    def test_non_geometric_ladder_rejected(self):
        with pytest.raises(DomainError):
            oracle.integrate_half_line(lambda x: math.exp(-x), 1e-6,
                                       damping="exp_extrapolated",
                                       ladder=(0.2, 0.1, 0.07))


class TestIntegrateRealLine:
    def test_gaussian(self):
        r = oracle.integrate_real_line(lambda t: math.exp(-t * t), 1e-10)
        assert r.value == pytest.approx(SQRT_PI, abs=1e-10)

    def test_lorentzian_square(self):
        r = oracle.integrate_real_line(lambda t: (1.0 + t * t) ** -2, 1e-10)
        assert r.value == pytest.approx(0.5 * math.pi, abs=1e-10)

    def test_lorentzian_cube(self):
        # sqrt(pi) Gamma(5/2)/Gamma(3) = 3 pi / 8
        r = oracle.integrate_real_line(lambda t: (1.0 + t * t) ** -3, 1e-10)
        assert r.value == pytest.approx(3.0 * math.pi / 8.0, abs=1e-10)
        assert r.value == pytest.approx(
            SQRT_PI * math.gamma(2.5) / math.gamma(3.0), abs=1e-10)

    def test_substitution_invariance(self):
        # whole-line of an even function equals twice the half-line value
        for f, tol in [(lambda t: math.exp(-t * t), 1e-10),
                       (lambda t: (1.0 + t * t) ** -2, 1e-10)]:
            whole = oracle.integrate_real_line(f, tol)
            half = oracle.integrate_half_line(f, tol)
            assert abs(whole.value - 2.0 * half.value) <= \
                whole.abs_error_estimate + 2.0 * half.abs_error_estimate + 1e-13


class TestOscillatoryGaussian:
    def test_quadratic_phase_moment(self):
        r = oracle.integrate_oscillatory_gaussian(
            lambda x: x * cmath.exp(1j * x * x), 1.0, 1e-7)
        assert abs(r.value - 0.5j) <= 1e-7

    def test_beta_scaling(self):
        r = oracle.integrate_oscillatory_gaussian(
            lambda x: x * cmath.exp(2j * x * x), 2.0, 1e-7)
        assert abs(r.value - 0.25j) <= 1e-7

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_residuals_decrease_monotonically(self, beta):
        r = oracle.integrate_oscillatory_gaussian(
            lambda x, _b=beta: x * cmath.exp(1j * _b * x * x), beta, 1e-7)
        hist = r.trace.residual_history
        assert len(hist) >= 3
        assert hist[-3] > hist[-2] > hist[-1]

    def test_trace_invariants(self):
        r = oracle.integrate_oscillatory_gaussian(
            lambda x: x * cmath.exp(1j * x * x), 1.0, 1e-7)
        eps = r.trace.epsilons
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert r.trace.residual == r.trace.residual_history[-1]

    def test_needs_positive_beta(self):
        with pytest.raises(DomainError):
            oracle.integrate_oscillatory_gaussian(lambda x: x, 0.0, 1e-6)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ExtrapolationError) as excinfo:
            oracle.integrate_oscillatory_gaussian(
                lambda x: x * cmath.exp(1j * x * x), 1.0, 1e-16)
        assert excinfo.value.partial is not None


def _struve_eq12(x):
    return struve_h_ref(-0.5, x)


def _fresnel(x):
    return x * bessel_j_ref(0, x) * cmath.exp(1j * x * x)


# ladder kind: (integrand, run at tol with keyword options, damping power,
# inner tolerance of a rung at tol)
LADDERS = {
    "exp": (_struve_eq12,
            lambda f, tol, **kw: oracle.integrate_half_line(
                f, tol, damping="exp_extrapolated", **kw),
            1, lambda tol: tol / 200.0),
    "gaussian": (_fresnel,
                 lambda f, tol, **kw: oracle.integrate_oscillatory_gaussian(
                     f, 1.0, tol, **kw),
                 2, lambda tol: tol / 100.0),
}


class TestOnePassLadder:
    @pytest.mark.parametrize("kind", sorted(LADDERS))
    def test_each_node_evaluated_once(self, kind):
        f, run, _, _ = LADDERS[kind]
        seen = []

        def counting(x):
            seen.append(x)
            return f(x)

        r = run(counting, 2.5e-6)
        assert 0 < len(seen) <= r.evaluations
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("kind", sorted(LADDERS))
    def test_rungs_match_independent_damped_integrals(self, kind):
        f, run, power, inner = LADDERS[kind]
        tol = 2.5e-6
        r = run(f, tol)
        for eps, value in zip(r.trace.epsilons, r.trace.values):
            def damped(x, _eps=eps):
                d = _eps * x ** power
                return 0.0 if d > 745.0 else f(x) * math.exp(-d)

            alone = oracle.integrate_half_line(damped, inner(tol))
            assert abs(value - alone.value) <= 2.0 * inner(tol), eps

    @pytest.mark.parametrize("kind", sorted(LADDERS))
    def test_stalled_rung_raises_with_partial(self, kind):
        f, run, _, _ = LADDERS[kind]
        with pytest.raises(QuadratureError, match="stalled") as excinfo:
            run(f, 2.5e-6, max_intervals=40)
        partial = excinfo.value.partial
        assert not partial.converged
        assert partial.evaluations > 0

    def test_integrand_overflow_is_a_quadrature_error(self):
        with pytest.raises(QuadratureError, match="overflow"):
            oracle.integrate_half_line(lambda x: x ** -1.98, 1e-8)


class TestErrorEstimateHonesty:
    def test_true_error_within_three_times_estimate(self):
        cases = []

        def run(fn, expected):
            cases.append((abs(fn.value - expected), fn.abs_error_estimate))

        for tol in (1e-6, 1e-9):
            run(oracle.integrate_finite(lambda u: u, 0.0, 1.0, tol), 0.5)
            run(oracle.integrate_finite(lambda u: u ** -0.5, 0.0, 1.0, tol), 2.0)
            run(oracle.integrate_finite(lambda u: u * (1 - u) ** 2, 0.0, 1.0, tol),
                1.0 / 12.0)
            run(oracle.integrate_half_line(lambda x: math.exp(-x), tol), 1.0)
            run(oracle.integrate_half_line(lambda x: x ** -0.5 / (1 + x), tol),
                math.pi)
            run(oracle.integrate_real_line(lambda t: math.exp(-t * t), tol), SQRT_PI)
            run(oracle.integrate_real_line(lambda t: (1 + t * t) ** -2, tol),
                0.5 * math.pi)
            run(oracle.integrate_real_line(lambda t: (1 + t * t) ** -3, tol),
                3.0 * math.pi / 8.0)
        for tol in (1e-6, 1e-7):
            r = oracle.integrate_oscillatory_gaussian(
                lambda x: x * cmath.exp(1j * x * x), 1.0, tol)
            cases.append((abs(r.value - 0.5j), r.abs_error_estimate))
            r = oracle.integrate_oscillatory_gaussian(
                lambda x: x * cmath.exp(2j * x * x), 2.0, tol)
            cases.append((abs(r.value - 0.25j), r.abs_error_estimate))
        # Struve half-line ladders, closed form -1/(b tan(pi nu/2))
        for nu, b in ((-0.5, 1.0), (-1.5, 2.0)):
            r = oracle.integrate_half_line(
                lambda x, _nu=nu, _b=b: struve_h_ref(_nu, _b * x), 2.5e-6,
                damping="exp_extrapolated")
            cases.append((abs(r.value + 1.0 / (b * math.tan(0.5 * math.pi * nu))),
                          r.abs_error_estimate))

        honest = sum(1 for true_err, est in cases if true_err <= 3.0 * est)
        assert honest / len(cases) >= 0.95, cases
