import cmath
import math
import random

import pytest

from umbralint import closedforms, oracle
from umbralint.errors import DomainError, QuadratureError
from umbralint.reference import bessel_j_complex_ref, struve_ref
from umbralint.specfun import beta as beta_fn

SQRT_PI = math.sqrt(math.pi)


def struve_tail(nu, b=1.0):
    """H_nu(b x) and its tail Y_nu(b x) + K_nu(b x) from one half-period past
    1, x0: Y_nu = Im H1_nu on the real axis, so the integral of Y_nu(b x)
    over [x0, infinity) is Re of that of H1_nu(b (x0 + i y)) over y > 0,
    bounded by the Hankel bound at b x0 times e^(-b y)."""
    x0 = 1.0 + math.pi / b
    struve_h, _, struve_k, hankel1 = struve_ref(nu)
    z0 = b * x0
    tail = oracle.ContourTail(x0, lambda y: hankel1(complex(z0, b * y)).real,
                              ((math.exp(closedforms._log_hankel_bound(nu, z0)), b),),
                              smooth=lambda x: struve_k(b * x))
    return (lambda x: struve_h(b * x)), tail


def run_tail(integrand_and_tail, tol):
    f, tail = integrand_and_tail
    return oracle.integrate_half_line(f, tol, tail)


def both_halves(f):
    """f(t) + f(-t), whose half-line integral is the whole-line one of f."""
    return lambda t: f(t) + f(-t)


def chirp(beta):
    """x e^{i beta x^2} in s = x^2: (1/2) e^{i beta s}, all of it taken up
    the line from one half-period past 1, s0, where it is
    i (1/2) e^{i beta s0} e^{-beta t}; its half-line integral is i/(2 beta)."""
    def f(s):
        return 0.5 * cmath.exp(1j * beta * s)

    s0 = 1.0 + math.pi / beta
    turn = 0.5j * cmath.exp(1j * beta * s0)
    return f, oracle.ContourTail(s0, lambda t: turn * math.exp(-beta * t), ((0.5, beta),))


def fresnel():
    """x J_0(x) e^{i x^2} in s = x^2, all of it taken up the line from
    s0 = 1 + pi.  There |J_0(sqrt(s))| <= e^(Im sqrt(s)) (DLMF 10.14.4) with
    Im sqrt(s0 + i t) <= sqrt(t/2) <= 1/2 + t/4, so the line is at most
    (1/2) e^(1/2) e^(-3t/4) in size."""
    bessel_j = bessel_j_complex_ref(0)
    s0 = 1.0 + math.pi

    def f(s):
        return 0.5 * bessel_j(math.sqrt(s)).real * cmath.exp(1j * s)

    def line(t):
        s = complex(s0, t)
        return 0.5j * bessel_j(cmath.sqrt(s)) * cmath.exp(1j * s)

    return f, oracle.ContourTail(s0, line, ((0.5 * math.exp(0.5), 0.75),))


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
        monkeypatch.setattr(oracle, "_MAX_INTERVALS", 12)
        with pytest.raises(QuadratureError) as excinfo:
            oracle.integrate_finite(lambda u: math.sin(3000.0 * u), 0.0, 1.0, 1e-14)
        partial = excinfo.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.evaluations > 0

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            oracle.integrate_finite(lambda u: u, 1.0, 0.0, 1e-8)

    @pytest.mark.parametrize("f", [lambda u: u ** -0.99, lambda u: (1.0 - u) ** -0.99,
                                   lambda u: u ** -1.98])
    def test_raw_end_singularity_raises_with_partial(self, f):
        # the mass u^0.01/0.01 that the end panel [0, u] misses stays above
        # tol down to the bottom of the float range (u^-1.98 is not even
        # integrable there): an end singularity is
        # the caller's to take out, and one at 0 stalls about as soon as one
        # at 1, once its end panel is 200 eps of the piece wide
        with pytest.raises(QuadratureError, match="stalled") as excinfo:
            oracle.integrate_finite(f, 0.0, 1.0, 1e-8)
        partial = excinfo.value.partial
        assert not partial.converged
        assert 0 < partial.evaluations < 2_000

    @pytest.mark.parametrize("power,evaluations", [(-0.9, 8_715), (-0.95, 17_595)])
    def test_slow_end_singularity_at_zero_still_bisects_to_tol(self, power, evaluations):
        # the missed mass u^(1+power)/(1+power) reaches 1e-8 above u = 1e-300
        r = oracle.integrate_finite(lambda u: u ** power, 0.0, 1.0, 1e-8)
        assert r.converged and r.evaluations == evaluations
        assert abs(r.value - 1.0 / (1.0 + power)) <= 3.0 * r.abs_error_estimate

    def test_end_singularity_finer_than_floats_raises(self):
        # the panels next to u = 1 run out of floats long before the missing
        # mass, about 9964 of 10^4, is resolved
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

    # with no splits the head's error, 0.092, is within tol but not within
    # its half, while the fold's is 1.2e-6: the sum alone would pass
    def test_each_piece_keeps_its_half_of_tol(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_INTERVALS", 1)
        with pytest.raises(QuadratureError, match="head stalled") as excinfo:
            oracle.integrate_half_line(lambda x: x ** 0.1 / (1.0 + x ** 4), 0.15)
        assert excinfo.value.partial.abs_error_estimate <= 0.15

    def test_oscillatory_struve_matches_closed_form(self):
        r = run_tail(struve_tail(-0.5), 2.5e-6)
        assert r.value == pytest.approx(1.0, abs=2.5e-6)
        assert r.converged


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


class TestTailedHalfLine:
    """Half-line integrals whose oscillating tail goes up a contour."""

    def test_quadratic_phase_moment(self):
        r = run_tail(chirp(1.0), 1e-7)
        assert abs(r.value - 0.5j) <= 1e-7

    def test_beta_scaling(self):
        r = run_tail(chirp(2.0), 1e-7)
        assert abs(r.value - 0.25j) <= 1e-7

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError) as excinfo:
            run_tail(chirp(1.0), 1e-16)
        assert excinfo.value.partial is not None

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
        tail = oracle.ContourTail(tail.start, counting(tail.line), tail.envelope, smooth)
        r = oracle.integrate_half_line(counting(f), 2.5e-6, tail)
        assert 0 < len(seen) <= r.evaluations
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("kind", ["struve", "fresnel", "chirp"])
    def test_sum_of_independently_integrated_parts(self, kind):
        # the head on [0, x0], the smooth part shifted to start at 0 and the
        # line with its envelope as an ExponentialTail, each on its own
        f, tail = {"struve": lambda: struve_tail(-0.7, 2.0), "fresnel": fresnel,
                   "chirp": lambda: chirp(1.0)}[kind]()
        tol = 2.5e-6
        r = oracle.integrate_half_line(f, tol, tail)
        parts = [oracle.integrate_finite(f, 0.0, tail.start, tol / 100.0),
                 oracle.integrate_half_line(tail.line, tol / 100.0,
                                            oracle.ExponentialTail(tail.envelope))]
        if tail.smooth is not None:
            parts.append(oracle.integrate_half_line(
                lambda x: tail.smooth(tail.start + x), tol / 100.0))
        alone = sum(p.value for p in parts)
        assert abs(r.value - alone) <= r.abs_error_estimate + \
            sum(p.abs_error_estimate for p in parts)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_head_and_smooth_part_start_from_one_panel(self, tol):
        # a cubic head is exact on one GK15 panel, and the smooth part
        # x0/x^2 folds to the constant 1: 15 calls each
        x0 = math.pi
        calls = {"head": 0, "smooth": 0}

        def counted(name, g):
            def counting(x):
                calls[name] += 1
                return g(x)
            return counting

        line = sine_integral_tail(x0)
        tail = oracle.ContourTail(x0, line.line, line.envelope,
                                  smooth=counted("smooth", lambda x: x0 / (x * x)))
        r = oracle.integrate_half_line(counted("head", lambda x: 1.0 + x * x * (x - 2.0)),
                                       tol, tail)
        assert calls == {"head": 15, "smooth": 15}
        # x0 + x0^4/4 - 2 x0^3/3, then 1, then pi/2 - Si(pi)
        si_pi = 1.8519370519824661703610534
        exact = x0 + x0 ** 4 / 4.0 - 2.0 * x0 ** 3 / 3.0 + 1.0 + 0.5 * math.pi - si_pi
        assert abs(r.value - exact) <= 3.0 * r.abs_error_estimate <= 3.0 * tol

    def test_stalled_head_raises_with_partial(self, monkeypatch):
        # the head starts from one panel; four leave it 0.02 off, where
        # eight already meet its share of 2.5e-6
        monkeypatch.setattr(oracle, "_MAX_INTERVALS", 4)
        with pytest.raises(QuadratureError, match="head stalled") as excinfo:
            run_tail(struve_tail(-0.5), 2.5e-6)
        partial = excinfo.value.partial
        assert not partial.converged
        assert partial.evaluations > 0

    def test_stalled_line_raises_with_partial(self, monkeypatch):
        # the Gauss-Laguerre pair misses cos(200 y) e^-y, which then needs
        # more than 40 panels on its piece of the line; the partial counts
        # the pair's 30 calls with the rest
        line_calls = []

        def line(y):
            line_calls.append(y)
            return math.cos(200.0 * y) * math.exp(-y)

        monkeypatch.setattr(oracle, "_MAX_INTERVALS", 40)
        with pytest.raises(QuadratureError, match="contour piece .* stalled") as excinfo:
            oracle.integrate_half_line(lambda x: math.exp(-x), 2.5e-6,
                                       oracle.ContourTail(1.0, line, ((1.0, 1.0),)))
        partial = excinfo.value.partial
        assert not partial.converged
        assert line_calls[:30] == list(oracle._GL_NODES)
        assert partial.evaluations == 15 + len(line_calls) > 30 + 15

    def test_integrand_overflow_is_a_quadrature_error(self):
        # e^(1/x) overflows below x = 1/710, a few halvings into the head
        with pytest.raises(QuadratureError, match="overflow"):
            oracle.integrate_half_line(lambda x: math.exp(1.0 / x), 1e-8)


class TestExponentialTail:
    @pytest.mark.parametrize("envelope", [(), ((0.0, 1.0),), ((-1.0, 1.0),), ((1.0, 0.0),),
                                          ((1.0, 1.0), (2.0, -0.5)), ((math.nan, 1.0),),
                                          ((math.inf, 1.0),)])
    def test_rejects_an_empty_or_nonpositive_envelope(self, envelope):
        with pytest.raises(DomainError):
            oracle.ExponentialTail(envelope)

    # e^-t cut where its tail is below tol/2: [0, log(2/tol)] is one piece
    def test_cut_where_the_envelope_tail_is_half_of_tol(self):
        tol = 1e-8
        r = oracle.integrate_half_line(lambda t: math.exp(-t), tol,
                                       oracle.ExponentialTail(((1.0, 1.0),)))
        assert r.converged
        assert abs(r.value - 1.0) <= r.abs_error_estimate <= tol
        assert r.abs_error_estimate >= 0.5 * tol * (1.0 - 1e-12)


def sine_integral_tail(x0):
    """sin x / x beyond x0 as a contour tail: Im e^(ix)/x is the trace of
    e^(iz)/z, so its integral over [x0, infinity) is Re of that of
    e^(i(x0+iy))/(x0+iy) over y > 0, at most e^-y/x0 in size."""
    def line(y):
        z = complex(x0, y)
        return (cmath.exp(1j * z) / z).real

    return oracle.ContourTail(x0, line, ((1.0 / x0, 1.0),))


class TestContourTail:
    @pytest.mark.parametrize("start", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_start(self, start):
        with pytest.raises(DomainError):
            oracle.ContourTail(start, math.exp, ((1.0, 1.0),))

    @pytest.mark.parametrize("envelope", [(), ((0.0, 1.0),), ((-1.0, 1.0),), ((1.0, 0.0),),
                                          ((1.0, -2.0),), ((1.0, 1.0), (2.0, -0.5)),
                                          ((math.nan, 1.0),), ((math.inf, 1.0),)])
    def test_rejects_an_empty_or_nonpositive_envelope(self, envelope):
        with pytest.raises(DomainError):
            oracle.ContourTail(1.0, math.exp, envelope)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_sine_integral_beyond_one(self, tol):
        # with a zero head, the integral of sin x / x over [1, infinity),
        # pi/2 - Si(1)
        si_1 = 0.9460830703671830149413533
        r = oracle.integrate_half_line(lambda x: 0.0, tol, sine_integral_tail(1.0))
        assert r.converged
        assert abs(r.value - (0.5 * math.pi - si_1)) <= 3.0 * r.abs_error_estimate <= 3.0 * tol

    @pytest.mark.parametrize("x0", [0.5, math.pi, 10.0])
    def test_dirichlet_integral_from_any_start(self, x0):
        # sin x / x on [0, x0] and up the line beyond: pi/2 wherever the
        # contour leaves the real axis
        tol = 1e-8
        r = oracle.integrate_half_line(lambda x: math.sin(x) / x, tol, sine_integral_tail(x0))
        assert r.converged
        assert abs(r.value - 0.5 * math.pi) <= 3.0 * r.abs_error_estimate <= 3.0 * tol

    def test_line_cut_where_the_envelope_tail_is_a_quarter_of_tol(self):
        # the Gauss-Laguerre pair misses cos(20 y) e^-y, whose integral is
        # 1/401, so the line is cut at log(4/tol), and the envelope's tail
        # beyond, a quarter of tol, joins the estimate
        tol = 1e-8
        r = oracle.integrate_half_line(lambda x: 1.0, tol, oracle.ContourTail(
            2.0, lambda y: math.cos(20.0 * y) * math.exp(-y), ((1.0, 1.0),)))
        assert abs(r.value - (2.0 + 1.0 / 401.0)) <= r.abs_error_estimate <= tol
        assert r.abs_error_estimate >= 0.25 * tol * (1.0 - 1e-12)
        assert r.evaluations > 15 + 30 + 15

    def test_resolved_line_costs_thirty_evaluations(self):
        # e^-y is exact for both rules of the pair: the head's one panel
        # and the pair's 12 + 18 nodes
        calls = []

        def line(y):
            calls.append(y)
            return math.exp(-y)

        r = oracle.integrate_half_line(lambda x: 1.0, 1e-8,
                                       oracle.ContourTail(2.0, line, ((1.0, 1.0),)))
        assert r.converged
        assert (len(calls), r.evaluations) == (30, 45)
        assert abs(r.value - 3.0) <= r.abs_error_estimate <= 1e-13

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_gauss_laguerre_pair_exact_to_degree_23(self, r):
        # both rules integrate y^k e^(-r y), k!/r^(k+1), exactly for k <= 23
        for k in range(24):
            value, estimate = oracle._gauss_laguerre_pair(lambda y: y ** k * math.exp(-r * y), r)
            exact = math.factorial(k) / r ** (k + 1)
            assert abs(value - exact) <= estimate <= 1e-13 * exact, k

    def test_exact_line_gets_the_rounding_floor(self):
        # both rules sum 2 e^-y to 2 up to rounding, and the estimate is at
        # least 50 eps of sum |w_i f_i|, as a GK15 panel's
        value, estimate = oracle._gauss_laguerre_pair(lambda y: 2.0 * math.exp(-y), 1.0)
        assert abs(value - 2.0) <= estimate
        assert 100.0 * 2.220446049250313e-16 * (1.0 - 1e-12) <= estimate <= 1e-13

    def test_each_node_evaluated_once(self):
        seen = []

        def counting(g):
            def counted(x):
                seen.append(x)
                return g(x)
            return counted

        tail = sine_integral_tail(2.0)
        tail = oracle.ContourTail(tail.start, counting(tail.line), tail.envelope,
                                  smooth=counting(lambda x: 1.0 / (x * x * x)))
        r = oracle.integrate_half_line(counting(lambda x: math.sin(x) / x), 1e-8, tail)
        assert len(seen) == r.evaluations > 0
        assert len(set(seen)) == len(seen)
        # Si(infinity) = pi/2, and the smooth part 1/x^3 adds 1/(2 x0^2)
        assert abs(r.value - (0.5 * math.pi + 0.125)) <= 3.0 * r.abs_error_estimate


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
    def test_eq12_contour_tail_error_near_the_singular_end(self, tol):
        # at nu = -1.999 the head's end term z^(nu+1) is all but
        # non-integrable, and the line starts near the order's half, where
        # the Hankel bound is loosest
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

    # endpoint singularities whose terms the catalog takes out exactly: each
    # result is within three times its estimate, or the integration raises
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
    # closed sides are a few ulps of 10^12 off, more than the estimate.  At
    # nu = 0.527 one GK15 panel over e^-x folded onto (0, 1] was 24 times
    # its estimate off
    @pytest.mark.parametrize("identity_id,exact", [
        ("eq02_mellin_exponential", math.gamma),
        ("eq02_mellin_rational", lambda nu: math.pi / math.sin(math.pi * min(nu, 1.0 - nu))),
    ])
    @pytest.mark.parametrize("nu", [1e-12, 1e-9, 1e-6, 0.005, 0.02, 0.527, 0.995])
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

    # the line of e^(ix)/x up from x = 1, on a finite interval: smooth at
    # both ends.  When three bisections of an unresolved end panel were
    # extrapolated, it returned 0.6247143913, 15 times its estimate off
    def test_unresolved_smooth_end_within_three_times_estimate(self):
        r = oracle.integrate_finite(
            lambda y: (cmath.exp(1j * complex(1.0, y)) / complex(1.0, y)).real,
            0.0, math.log(4e6), 1e-7)
        assert abs(r.value - 0.62471324293133) <= 3.0 * r.abs_error_estimate

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
        tail = oracle.ContourTail(tail.start, self.counted(tail.line, calls), tail.envelope,
                                  smooth)
        r = oracle.integrate_half_line(self.counted(f, calls), 2.5e-6, tail)
        assert calls[0] == r.evaluations > 0

    # an overflow ends the integration in any piece; its partial result
    # counts the calls of the pieces before it and of the panel it ended.
    # The line is summed by the Gauss-Laguerre pair before any piece: its
    # nodes reach y = 8 ("line"); cos(20 y) e^-y makes the pair fall back
    # to the line's cut, whose first panel, [0, log(4e15)], has a node in
    # (30, 34), where the pair has none ("cut")
    @pytest.mark.parametrize("piece", ["head", "fold", "line", "cut"])
    def test_overflow_counts_every_call(self, piece):
        def g(x):
            if piece == "head" and x < 0.5 or piece == "fold" and x > 1e3:
                return 10.0 ** (x if piece == "fold" else 1.0 / x)
            return math.exp(-x)

        calls = [0]
        tail = None
        if piece == "line":
            tail = oracle.ContourTail(1.0, self.counted(
                lambda y: math.exp(-y) if y < 8.0 else 10.0 ** (50.0 * y), calls), ((1.0, 1.0),))
        if piece == "cut":
            tail = oracle.ContourTail(1.0, self.counted(
                lambda y: 10.0 ** (50.0 * y) if 30.0 < y < 34.0
                else math.cos(20.0 * y) * math.exp(-y), calls), ((1e5, 1.0),))
        with pytest.raises(QuadratureError, match="overflow") as excinfo:
            oracle.integrate_half_line(self.counted(g, calls), 1e-10, tail)
        assert calls[0] == excinfo.value.partial.evaluations > 0
        assert excinfo.value.partial.abs_error_estimate == math.inf
