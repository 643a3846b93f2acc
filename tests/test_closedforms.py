import cmath
import math
import re

import pytest

from umbralint import closedforms as cf, oracle, specfun as sf
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

        def integrand(x):
            return x * bessel_j_ref(2.0 * nu, alpha * x) * cmath.exp(1j * beta * x * x)

        quad = oracle.integrate_oscillatory_gaussian(integrand, beta,
                                                     abs(closed) * 2.5e-6)
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
            direct = cf.bessel_generating_function(x, t, m, method="direct")
            tricomi = cf.bessel_generating_function(x, t, m, method="tricomi")
            assert abs(direct - tricomi) <= 1e-8 * max(1.0, abs(direct))

    def test_validation(self):
        with pytest.raises(DomainError):
            cf.bessel_generating_function(1.0, 0.5, 1)
        with pytest.raises(DomainError):
            cf.bessel_generating_function(1.0, 0.5, 2, method="magic")


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
        assert cf.lorentz_gauss_integral(0.0, method="series") == pytest.approx(
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
            a = cf.lorentz_gauss_integral(x, method="series")
            b = cf.lorentz_gauss_integral(x, method="hypergeometric")
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_uncorrected_variant_disagrees_with_oracle(self):
        # the plain (2k+2) denominator gives pi/4 at x = 0, half the true
        # integral; the disagreement is the point of keeping the variant
        literal = cf.lorentz_gauss_paper_literal(0.0)
        assert literal == pytest.approx(0.25 * math.pi, rel=1e-13)
        quad = oracle.integrate_real_line(lambda t: (1.0 + t * t) ** -2, 1e-11)
        assert quad.value == pytest.approx(0.5 * math.pi, abs=1e-10)
        assert abs(literal - quad.value) > 0.25 * math.pi - 1e-6


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
