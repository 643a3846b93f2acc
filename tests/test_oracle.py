import cmath
import math
import random

import pytest

from umbralint import closedforms, oracle
from umbralint.errors import (
    DomainError,
    ExtrapolationError,
    QuadratureError,
)
from umbralint.reference import bessel_j_ref, struve_ref
from umbralint.specfun import beta as beta_fn

SQRT_PI = math.sqrt(math.pi)


def struve_tail(nu, b=1.0):
    """H_nu(b x) and its tail Y_nu(b x) + K_nu(b x), from three half-periods past 1."""
    half_period = math.pi / b
    struve_h, bessel_y, struve_k = struve_ref(nu)
    tail = oracle.OscillatoryTail(1.0 + 3.0 * half_period, half_period,
                                  wave=lambda x: bessel_y(b * x),
                                  smooth=lambda x: struve_k(b * x))
    return (lambda x: struve_h(b * x)), tail


def run_tail(integrand_and_tail, tol):
    f, tail = integrand_and_tail
    return oracle.integrate_half_line(f, tol, tail)


def both_halves(f):
    """f(t) + f(-t), whose half-line integral is the whole-line one of f."""
    return lambda t: f(t) + f(-t)


def chirp(beta):
    """x e^{i beta x^2} in s = x^2: (1/2) e^{i beta s}, all wave; its
    half-line integral is i/(2 beta)."""
    def f(s):
        return 0.5 * cmath.exp(1j * beta * s)

    half_period = math.pi / beta
    return f, oracle.OscillatoryTail(1.0 + 3.0 * half_period, half_period, f)


def fresnel():
    """x J_0(x) e^{i x^2} in s = x^2, all wave."""
    bessel_j = bessel_j_ref(0)

    def f(s):
        return 0.5 * bessel_j(math.sqrt(s)) * cmath.exp(1j * s)

    return f, oracle.OscillatoryTail(1.0 + 3.0 * math.pi, math.pi, f)


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

    def test_budget_exhaustion_raises_with_partial(self, monkeypatch):
        monkeypatch.setattr(oracle, "_FINITE_MAX_INTERVALS", 12)
        with pytest.raises(QuadratureError) as excinfo:
            oracle.integrate_finite(lambda u: math.sin(3000.0 * u), 0.0, 1.0, 1e-14)
        partial = excinfo.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.evaluations > 0

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            oracle.integrate_finite(lambda u: u, 1.0, 0.0, 1e-8)

    def test_endpoint_singularity_is_extrapolated(self):
        # bisection alone would go down to the denormal floor
        r = oracle.integrate_finite(lambda u: u ** -0.99, 0.0, 1.0, 1e-8)
        assert r.value == pytest.approx(100.0, abs=1e-8)
        assert r.evaluations <= 500

    def test_singularities_at_both_ends(self):
        r = oracle.integrate_finite(lambda u: (u * (1.0 - u)) ** -0.5, 0.0, 1.0, 1e-11)
        assert r.value == pytest.approx(math.pi, abs=1e-11)

    def test_end_singularity_finer_than_floats_raises(self):
        # the panels next to u = 1 run out of floats long before the missing
        # mass, about 9964 of 10^4, is resolved or extrapolated
        with pytest.raises(QuadratureError, match="stalled") as excinfo:
            oracle.integrate_finite(lambda u: (1.0 - u) ** -0.9999, 0.0, 1.0, 1e-6)
        assert excinfo.value.partial.evaluations <= 5_000


class TestIntegrateHalfLine:
    def test_exponential(self):
        r = oracle.integrate_half_line(lambda x: math.exp(-x), 1e-10)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_mellin_reflection_value(self):
        r = oracle.integrate_half_line(lambda x: x ** -0.5 / (1.0 + x), 1e-8)
        assert r.value == pytest.approx(math.pi, abs=1e-8)

    def test_tolerance_below_the_rounding_floor_raises_early(self):
        # no split lowers an error that is already at 50 eps integral|f|
        with pytest.raises(QuadratureError, match="stalled") as excinfo:
            oracle.integrate_half_line(lambda x: math.exp(-x), 1e-17)
        partial = excinfo.value.partial
        assert not partial.converged
        assert partial.evaluations <= 5_000

    def test_oscillatory_struve_matches_closed_form(self):
        r = run_tail(struve_tail(-0.5), 2.5e-6)
        assert r.value == pytest.approx(1.0, abs=2.5e-6)
        assert len(r.trace.values) > oracle._MIN_PIECES
        assert 0.0 < r.trace.residual <= r.abs_error_estimate


class TestWholeLineByHalves:
    """A whole-line integral is the half-line integral of f(t) + f(-t)."""

    def test_gaussian(self):
        r = oracle.integrate_half_line(both_halves(lambda t: math.exp(-t * t)), 1e-10)
        assert r.value == pytest.approx(SQRT_PI, abs=1e-10)

    def test_lorentzian_square(self):
        r = oracle.integrate_half_line(both_halves(lambda t: (1.0 + t * t) ** -2), 1e-10)
        assert r.value == pytest.approx(0.5 * math.pi, abs=1e-10)

    def test_lorentzian_cube(self):
        # sqrt(pi) Gamma(5/2)/Gamma(3) = 3 pi / 8
        r = oracle.integrate_half_line(both_halves(lambda t: (1.0 + t * t) ** -3), 1e-10)
        assert r.value == pytest.approx(3.0 * math.pi / 8.0, abs=1e-10)
        assert r.value == pytest.approx(
            SQRT_PI * math.gamma(2.5) / math.gamma(3.0), abs=1e-10)

    @pytest.mark.parametrize("f,expected", [
        (lambda t: math.exp(-(t - 1.0) ** 2), SQRT_PI),
        (lambda t: (1.0 + (t - 3.0) ** 2) ** -2, 0.5 * math.pi),
    ])
    def test_asymmetric(self, f, expected):
        # off-center peaks, so the halves t > 0 and t < 0 differ
        r = oracle.integrate_half_line(both_halves(f), 1e-10)
        assert r.value == pytest.approx(expected, abs=1e-10)
        assert abs(r.value - expected) <= 3.0 * r.abs_error_estimate

    def test_substitution_invariance(self):
        # whole-line of an even function equals twice the half-line value
        for f, tol in [(lambda t: math.exp(-t * t), 1e-10),
                       (lambda t: (1.0 + t * t) ** -2, 1e-10)]:
            whole = oracle.integrate_half_line(both_halves(f), tol)
            half = oracle.integrate_half_line(f, tol)
            assert abs(whole.value - 2.0 * half.value) <= \
                whole.abs_error_estimate + 2.0 * half.abs_error_estimate + 1e-13


class TestOscillatoryTail:
    def test_quadratic_phase_moment(self):
        r = run_tail(chirp(1.0), 1e-7)
        assert abs(r.value - 0.5j) <= 1e-7

    def test_beta_scaling(self):
        r = run_tail(chirp(2.0), 1e-7)
        assert abs(r.value - 0.25j) <= 1e-7

    def test_bad_tail(self):
        for start, half_period in ((0.0, 1.0), (1.0, 0.0), (1.0, -math.pi)):
            with pytest.raises(DomainError):
                oracle.OscillatoryTail(start, half_period, math.sin)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError) as excinfo:
            run_tail(chirp(1.0), 1e-16)
        assert excinfo.value.partial is not None

    def test_tail_that_does_not_settle_raises(self):
        # sin x + 0.1 has partial sums that grow without bound
        tail = oracle.OscillatoryTail(math.pi, math.pi, lambda x: math.sin(x) + 0.1)
        with pytest.raises(ExtrapolationError, match="settled") as excinfo:
            oracle.integrate_half_line(lambda x: math.exp(-x), 1e-6, tail)
        partial = excinfo.value.partial
        assert not partial.converged
        assert len(partial.trace.values) == oracle._MAX_PIECES

    @pytest.mark.parametrize("kind", ["struve", "fresnel"])
    def test_each_node_evaluated_once(self, kind):
        f, tail = struve_tail(-0.5) if kind == "struve" else fresnel()
        seen = []

        def counting(g):
            def counted(x):
                seen.append(x)
                return g(x)
            return counted

        smooth = tail.smooth and counting(tail.smooth)
        tail = oracle.OscillatoryTail(tail.start, tail.half_period,
                                      counting(tail.wave), smooth)
        r = oracle.integrate_half_line(counting(f), 2.5e-6, tail)
        assert 0 < len(seen) <= r.evaluations
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("kind", ["struve", "fresnel"])
    def test_partial_sums_match_independent_pieces(self, kind):
        f, tail = struve_tail(-0.5) if kind == "struve" else fresnel()
        tol = 2.5e-6
        sums = oracle.integrate_half_line(f, tol, tail).trace.values
        for k, (before, after) in enumerate(zip(sums, sums[1:]), start=1):
            a = tail.start + k * tail.half_period
            alone = oracle.integrate_finite(tail.wave, a, a + tail.half_period, tol / 100.0)
            assert abs(after - before - alone.value) <= tol / 50.0, k

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_head_and_smooth_part_start_from_one_panel(self, tol):
        # a cubic head is exact on one GK15 panel, and the smooth part
        # x0/x^2 folds to the constant 1: 15 calls each, then 15 a piece
        x0 = math.pi
        tail = oracle.OscillatoryTail(x0, math.pi, wave=lambda x: math.sin(x) / x,
                                      smooth=lambda x: x0 / (x * x))
        r = oracle.integrate_half_line(lambda x: 1.0 + x * x * (x - 2.0), tol, tail)
        assert r.evaluations == 15 + 15 + 15 * len(r.trace.values)
        # x0 + x0^4/4 - 2 x0^3/3, then 1, then pi/2 - Si(pi)
        si_pi = 1.8519370519824661703610534
        exact = x0 + x0 ** 4 / 4.0 - 2.0 * x0 ** 3 / 3.0 + 1.0 + 0.5 * math.pi - si_pi
        assert abs(r.value - exact) <= 3.0 * r.abs_error_estimate <= 3.0 * tol

    def test_stalled_head_raises_with_partial(self, monkeypatch):
        # the head starts from one panel; 12 panels already meet 2.5e-6 / 4
        monkeypatch.setattr(oracle, "_HALF_LINE_MAX_INTERVALS", 8)
        with pytest.raises(QuadratureError, match="head stalled") as excinfo:
            run_tail(struve_tail(-0.5), 2.5e-6)
        partial = excinfo.value.partial
        assert not partial.converged
        assert partial.evaluations > 0

    def test_stalled_wave_raises_with_partial(self, monkeypatch):
        # integrable singularities at the zeros of cos x, inside every piece
        tail = oracle.OscillatoryTail(
            math.pi, math.pi, lambda x: math.sin(x) * abs(math.cos(x)) ** -0.9 / x)
        monkeypatch.setattr(oracle, "_HALF_LINE_MAX_INTERVALS", 40)
        with pytest.raises(QuadratureError, match="tail stalled") as excinfo:
            oracle.integrate_half_line(lambda x: math.exp(-x), 2.5e-6, tail)
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
            run(oracle.integrate_half_line(both_halves(lambda t: math.exp(-t * t)), tol),
                SQRT_PI)
            run(oracle.integrate_half_line(both_halves(lambda t: (1 + t * t) ** -2), tol),
                0.5 * math.pi)
            run(oracle.integrate_half_line(both_halves(lambda t: (1 + t * t) ** -3), tol),
                3.0 * math.pi / 8.0)
        for tol in (1e-6, 1e-7):
            r = run_tail(chirp(1.0), tol)
            cases.append((abs(r.value - 0.5j), r.abs_error_estimate))
            r = run_tail(chirp(2.0), tol)
            cases.append((abs(r.value - 0.25j), r.abs_error_estimate))
        # Struve half-line tails, closed form -1/(b tan(pi nu/2))
        for nu, b in ((-0.5, 1.0), (-1.5, 2.0)):
            r = run_tail(struve_tail(nu, b), 2.5e-6)
            cases.append((abs(r.value + 1.0 / (b * math.tan(0.5 * math.pi * nu))),
                          r.abs_error_estimate))
        # the catalog's oscillatory oracles against their closed forms
        points = [("eq12_struve_halfline", {"nu": nu, "b": b})
                  for nu, b in ((-0.5, 1.0), (-1.5, 2.0), (-1.9, 0.3))]
        points += [("eq13_struve_moment", {"nu": nu}) for nu in (0.0, 2.0, 7.0)]
        points += [("eq08_fresnel_bessel", {"nu": nu, "alpha": 1.0, "beta": 2.0})
                   for nu in (0.0, 1.5)]
        for identity_id, params in points:
            identity = closedforms.get_identity(identity_id)
            closed = identity.closed(**params)
            if identity_id.startswith("eq08") and params["nu"] == 0.0:
                closed = 0.25j * cmath.exp(-0.125j)   # (i/(2 beta)) e^{-i alpha^2/(4 beta)}
            for tol in (1e-6, 1e-9):
                r = identity.oracle_eval(params, tol)
                cases.append((abs(r.value - closed), r.abs_error_estimate))

        honest = sum(1 for true_err, est in cases if true_err <= 3.0 * est)
        assert honest / len(cases) >= 0.95, cases

    @pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_eq12_wave_tail_error_near_the_singular_end(self, tol):
        # two of the wave's epsilon limits can agree by chance at the fewest
        # half-periods; the third earlier one keeps the estimate honest
        identity = closedforms.get_identity("eq12_struve_halfline")
        params = {"nu": -1.999, "b": 2.0}
        r = identity.oracle_eval(params, tol)
        assert abs(r.value - identity.closed(**params)) <= 3.0 * r.abs_error_estimate

    @pytest.mark.parametrize("nu,b", [
        (-1.5, 1.0),    # the end term's coefficient is 0
        (-1.0, 2.0),    # the integral is 0
        (-1.99, 0.1),
        (-0.01, 1.0),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_eq12_end_term_taken_out_exactly(self, nu, b, tol):
        identity = closedforms.get_identity("eq12_struve_halfline")
        closed = identity.closed(nu=nu, b=b)
        r = identity.oracle_eval({"nu": nu, "b": b}, tol * max(abs(closed), 1.0))
        assert abs(r.value - closed) <= 3.0 * r.abs_error_estimate

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_every_tailed_oracle_within_three_times_estimate(self, tol):
        points = [("eq12_struve_halfline", {"nu": -1.99 + 0.2 * i, "b": b})
                  for i in range(10) for b in (0.1, 0.3, 1.0, 3.0)]
        points += [("eq13_struve_moment", {"nu": -0.49 + 0.5 * i}) for i in range(17)]
        points += [("eq08_fresnel_bessel", {"nu": nu, "alpha": math.sqrt(beta), "beta": beta})
                   for nu in (0.0, 0.7, 1.5, 2.5) for beta in (0.1, 1.0, 10.0)]
        dishonest = []
        for identity_id, params in points:
            identity = closedforms.get_identity(identity_id)
            closed = identity.closed(**params)
            r = identity.oracle_eval(params, tol * max(abs(closed), 1.0))
            if not abs(r.value - closed) <= 3.0 * r.abs_error_estimate:
                dishonest.append((identity_id, params, r.value, closed, r.abs_error_estimate))
        assert len(points) == 69
        assert not dishonest

    # endpoint singularities the adaptive core extrapolates: each result is
    # within three times its estimate, or the integration raises
    @pytest.mark.parametrize("identity_id,params", [
        ("eq02_mellin_exponential", {"nu": 0.005}),
        ("eq02_mellin_exponential", {"nu": 0.03}),
        ("eq02_mellin_rational", {"nu": 0.97}),
        ("eq02_mellin_rational", {"nu": 0.995}),
        ("eq36_beta_exponential", {"alpha": 0.7299, "beta": 0.209, "x": 2.2618}),
        ("eq12_struve_halfline", {"nu": -0.01, "b": 1.0}),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_endpoint_singularity_estimates(self, identity_id, params, tol):
        identity = closedforms.get_identity(identity_id)
        closed = identity.closed(**params)
        try:
            r = identity.oracle_eval(params, tol * max(abs(closed), 1.0))
        except QuadratureError:
            return
        assert abs(r.value - closed) <= 3.0 * r.abs_error_estimate

    # the Mellin oracles at the strip-edge nu of verify's strip-edge test,
    # against Gamma(nu) and pi/sin(pi nu) from math: at nu = 1e-12 the
    # closed sides are a few ulps of 10^12 off, more than the estimate
    @pytest.mark.parametrize("identity_id,exact", [
        ("eq02_mellin_exponential", math.gamma),
        ("eq02_mellin_rational", lambda nu: math.pi / math.sin(math.pi * min(nu, 1.0 - nu))),
    ])
    @pytest.mark.parametrize("nu", [1e-12, 1e-9, 1e-6, 0.005, 0.02, 0.995])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_mellin_strip_edge_estimates(self, identity_id, exact, nu, tol):
        value = exact(nu)
        r = closedforms.get_identity(identity_id).oracle_eval({"nu": nu}, tol * value)
        assert abs(r.value - value) <= 3.0 * r.abs_error_estimate

    # the Beta kernel takes out the terms of its integrand at both ends;
    # at x = -8.8, e^-x outside the right piece once made its error 6,500
    # times larger
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_beta_oracle_within_three_times_estimate(self, tol):
        identity = closedforms.get_identity("eq36_beta_exponential")
        shapes = (0.1, 0.3, 1.0, 3.0, 10.0)
        dishonest = []
        for a in shapes:
            for b in shapes:
                for x in (-10.0, -8.8, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0):
                    closed = identity.closed(a, b, x)
                    r = identity.oracle_eval({"alpha": a, "beta": b, "x": x},
                                             tol * max(abs(closed), 1.0))
                    if not abs(r.value - closed) <= 3.0 * r.abs_error_estimate:
                        dishonest.append((a, b, x, r.value, closed, r.abs_error_estimate))
        assert not dishonest

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_near_non_integrable_end_estimate(self, tol):
        try:
            r = oracle.integrate_finite(lambda u: u ** -0.99, 0.0, 1.0, tol)
        except QuadratureError:
            return
        assert abs(r.value - 100.0) <= 3.0 * r.abs_error_estimate


def loop_panel(f, a, b):
    """The Gauss-Kronrod panel in its loop form, as it stood before the
    panel was written out node by node: the reference it must match bit
    for bit."""
    _XGK, _WGK, _WG = oracle._XGK, oracle._WGK, oracle._WG
    _EPS, _UNDERFLOW = oracle._EPS, oracle._UNDERFLOW
    center = 0.5 * (a + b)
    h = 0.5 * (b - a)

    def at(x):
        if x <= a:
            x = math.nextafter(a, b)
        elif x >= b:
            x = math.nextafter(b, a)
        return f(x)

    fc = at(center)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    pairs = [None] * 7
    for j in range(3):
        dx = h * _XGK[2 * j + 1]
        f1 = at(center - dx)
        f2 = at(center + dx)
        pairs[2 * j + 1] = (f1, f2)
        resg += _WG[j] * (f1 + f2)
        resk += _WGK[2 * j + 1] * (f1 + f2)
        resabs += _WGK[2 * j + 1] * (abs(f1) + abs(f2))
    for j in range(4):
        dx = h * _XGK[2 * j]
        f1 = at(center - dx)
        f2 = at(center + dx)
        if 2 * j < 7:
            pairs[2 * j] = (f1, f2)
        resk += _WGK[2 * j] * (f1 + f2)
        resabs += _WGK[2 * j] * (abs(f1) + abs(f2))
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += _WGK[j] * (abs(f1 - mean) + abs(f2 - mean))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    if resabs > _UNDERFLOW / (50.0 * _EPS):
        err = max(err, floor)
    return value, err, err <= floor


def ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


class TestPanel:
    """The written-out panel against its loop form."""

    @staticmethod
    def integrands(rng):
        c, d, p = rng.uniform(-3, 3), rng.uniform(0.1, 40), rng.uniform(-2, 2)
        return [
            lambda x: math.exp(c * x) * math.cos(d * x) + p * x * x,
            lambda x: 1.0 / (1.0 + d * x * x),
            lambda x: abs(x - p) ** 0.5,   # a kink inside some panels
            lambda x: cmath.exp(1j * d * x) * (1.0 + c * x),
            lambda x: complex(p, c) / (1.0 + x * x) + 1j * math.sin(d * x),
        ]

    @staticmethod
    def panels(rng):
        for _ in range(30):   # panels from 1e-9 to 100 wide
            a = rng.uniform(-10.0, 10.0)
            yield a, a + 10.0 ** rng.uniform(-9.0, 2.0)
        for width in (1, 2, 3, 4):   # a few ulps wide at 0 and near 1
            yield 0.0, ulps_above(0.0, width)
            for start in (0.5, math.nextafter(1.0, 0.0), 1.0, rng.uniform(0.9, 1.1)):
                yield start, ulps_above(start, width)
            yield math.nextafter(-1.0, 0.0), ulps_above(math.nextafter(-1.0, 0.0), width)

    def test_bit_identical_to_loop_form(self):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(20):
            for f in self.integrands(rng):
                for a, b in self.panels(rng):
                    assert oracle._gauss_kronrod_15(f, a, b) == loop_panel(f, a, b), (a, b)
                    checked += 1
        assert checked == 20 * 5 * 54

    def test_nodes_stay_inside(self):
        rng = random.Random(7)
        for a, b in self.panels(rng):
            seen = []

            def f(x):
                seen.append(x)
                return math.cos(x)

            oracle._gauss_kronrod_15(f, a, b)
            assert len(seen) == 15
            if math.nextafter(a, b) < b:
                assert all(a < x < b for x in seen), (a, b, seen)
            else:   # no float lies strictly inside a panel one ulp wide
                assert all(a <= x <= b for x in seen), (a, b, seen)


class TestEvaluationCount:
    """QuadratureResult.evaluations counts every call of every integrand
    an entry point is given, on integrands that never take the shortcuts of
    the fold (a zero value or a node mapped to infinity)."""

    @staticmethod
    def counted(g, calls):
        def counting(x):
            calls[0] += 1
            return g(x)
        return counting

    @pytest.mark.parametrize("g,a,b", [
        (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 3.0),
        (lambda x: x ** -0.5, 0.0, 1.0),
        (lambda x: cmath.exp(2j * x), -1.0, 4.0),
    ])
    def test_finite(self, g, a, b):
        calls = [0]
        r = oracle.integrate_finite(self.counted(g, calls), a, b, 1e-10)
        assert calls[0] == r.evaluations > 0

    @pytest.mark.parametrize("g", [
        lambda x: math.exp(-x),
        lambda x: x ** -0.5 / (1.0 + x),
        both_halves(lambda t: math.exp(-t * t)),
        both_halves(lambda t: (1.0 + t * t) ** -2),
        both_halves(lambda t: math.exp(-(t - 1.0) ** 2)),
    ])
    def test_half_line(self, g):
        calls = [0]
        r = oracle.integrate_half_line(self.counted(g, calls), 1e-10)
        assert calls[0] == r.evaluations > 0

    @pytest.mark.parametrize("kind", ["struve", "chirp"])
    def test_half_line_with_tail(self, kind):
        f, tail = struve_tail(-0.5) if kind == "struve" else chirp(2.0)
        calls = [0]
        smooth = tail.smooth and self.counted(tail.smooth, calls)
        tail = oracle.OscillatoryTail(tail.start, tail.half_period,
                                      self.counted(tail.wave, calls), smooth)
        r = oracle.integrate_half_line(self.counted(f, calls), 2.5e-6, tail)
        assert calls[0] == r.evaluations > 0

    # an overflow ends the integration in any piece; its partial result
    # counts the calls of the pieces before it and of the panel it ended
    @pytest.mark.parametrize("piece", ["head", "fold", "wave"])
    def test_overflow_counts_every_call(self, piece):
        def g(x):
            if piece == "head" and x < 0.5 or piece == "fold" and x > 1e3:
                return 10.0 ** (x if piece == "fold" else 1.0 / x)
            return math.exp(-x)

        calls = [0]
        tail = None
        if piece == "wave":
            tail = oracle.OscillatoryTail(1.0, math.pi, self.counted(
                lambda x: math.sin(x) / (x * x) if x < 8.0 else 10.0 ** (50.0 * x), calls))
        with pytest.raises(QuadratureError, match="overflow") as excinfo:
            oracle.integrate_half_line(self.counted(g, calls), 1e-10, tail)
        assert calls[0] == excinfo.value.partial.evaluations > 0
        assert excinfo.value.partial.abs_error_estimate == math.inf
