import cmath
import math
import re

import pytest

from umbralint import closedforms as cf, oracle, specfun as sf, umbral as um
from umbralint.errors import DomainError
from umbralint.reference import bessel_j_ref

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

    def test_half_order_against_oscillatory_oracle(self):
        nu, alpha, beta = 0.5, 1.0, 2.0
        closed = cf.fresnel_bessel(nu, alpha, beta)

        # in s = x^2 the integrand is a wave of half-period pi/beta
        def integrand(s):
            return 0.5 * bessel_j_ref(2.0 * nu, alpha * math.sqrt(s)) * cmath.exp(1j * beta * s)

        tail = oracle.OscillatoryTail(1.0 + 3.0 * math.pi / beta, math.pi / beta, integrand)
        quad = oracle.integrate_half_line(integrand, abs(closed) * 2.5e-6, tail)
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

    def test_against_real_line_oracle(self):
        for (n, x) in [(1, 1.0), (2, 2.0)]:
            closed = cf.bessel_gauss_dilation(n, x)
            quad = oracle.integrate_real_line(
                lambda t, _n=n, _x=x: bessel_j_ref(_n, _x * math.exp(-t * t)), 1e-10)
            assert abs(closed - quad.value) <= 1e-7 * abs(quad.value)

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

        def integrand(t):
            w = 1.0 + t * t
            return math.exp(-1.0 / (w * w)) / (w * w)

        quad = oracle.integrate_real_line(integrand, 1e-11)
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
        quad = oracle.integrate_real_line(lambda t: (1.0 + t * t) ** -2, 1e-11)
        assert quad.value == pytest.approx(0.5 * math.pi, abs=1e-10)
        assert abs(literal - quad.value) > 0.25 * math.pi - 1e-6


class TestBetaExponential:
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
