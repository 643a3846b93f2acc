"""Acceptance suite: every cataloged identity against its independent route.

Each test prints exactly one pass/fail line (run pytest -s to see them all)
and asserts at the tolerance stated in the criterion.
"""

import cmath
import math

from umbralint import closedforms as cf, oracle, specfun as sf, transforms as tr, umbral as um
from umbralint.reference import (bessel_j_ref, bessel_y_ref, classical_hermite, pseudo_trig3_closed,
                                 struve_h_ref, struve_k_ref)

SQRT_PI = math.sqrt(math.pi)


def report(num, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} [{label}]: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_fresnel_bessel():
    # internal: order zero equals the elementary exponential form, rel 1e-12
    worst_internal = 0.0
    pairs = [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 5.0)]
    for alpha, beta in pairs:
        closed = cf.fresnel_bessel(0.0, alpha, beta)
        elementary = (0.5j / beta) * cmath.exp(-1j * alpha * alpha / (4.0 * beta))
        worst_internal = max(worst_internal,
                             abs(closed - elementary) / abs(elementary))
    # oracle: quadrature of the defining integrand, its tail extrapolated, rel 1e-5
    worst_oracle = 0.0
    for alpha, beta in pairs:
        closed = cf.fresnel_bessel(0.0, alpha, beta)

        # in s = x^2 the integrand is a wave of half-period pi/beta
        def integrand(s, _a=alpha, _b=beta):
            return 0.5 * bessel_j_ref(0.0, _a * math.sqrt(s)) * cmath.exp(1j * _b * s)

        half_period = math.pi / beta
        tail = oracle.OscillatoryTail(1.0 + 3.0 * half_period, half_period, integrand)
        quad = oracle.integrate_half_line(integrand, abs(closed) * 2.5e-6, tail)
        worst_oracle = max(worst_oracle, abs(closed - quad.value) / abs(closed))
    ok = worst_internal <= 1e-12 and worst_oracle <= 1e-5
    report(1, "Fresnel-Bessel integral, Eq. 6-8", ok,
           f"max_rel_internal={worst_internal:.2e} (tol 1e-12), "
           f"max_rel_oracle={worst_oracle:.2e} (tol 1e-5)")


def test_criterion_02_b_nu_dual_route():
    worst = 0.0
    xs = [-5.0 + 0.5 * i for i in range(21) if i != 10]
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
        for x in xs:
            series = sf.b_nu(nu, x, method="series")
            closed = sf.b_nu(nu, x, method="bessel_closed_form")
            worst = max(worst, abs(series - closed) / abs(closed))
    ok = worst <= 1e-10
    report(2, "exponential-ratio function, two methods", ok,
           f"max_rel={worst:.2e} over 5 orders x 20 points (tol 1e-10)")


def test_criterion_03_struve_halfline():
    worst = 0.0
    zero_case = 0.0
    for nu in (-1.5, -1.0, -0.5):
        for b in (1.0, 2.0):
            closed = cf.struve_halfline_integral(nu, b)
            scale = 1.0 / b
            # H_nu = Y_nu + K_nu: Y_nu(b x) is the wave, K_nu(b x) the smooth rest
            tail = oracle.OscillatoryTail(
                1.0 + 3.0 * math.pi / b, math.pi / b,
                wave=lambda x, _n=nu, _b=b: bessel_y_ref(_n, _b * x),
                smooth=lambda x, _n=nu, _b=b: struve_k_ref(_n, _b * x))
            quad = oracle.integrate_half_line(
                lambda x, _n=nu, _b=b: struve_h_ref(_n, _b * x), 2.5e-6 * scale, tail)
            if nu == -1.0:
                assert closed == 0.0
                zero_case = max(zero_case, abs(quad.value) / scale)
            else:
                worst = max(worst, abs(closed - quad.value) / abs(closed))
    ok = worst <= 1e-5 and zero_case <= 1e-5
    report(3, "half-line Struve integral, Eq. 12", ok,
           f"max_rel={worst:.2e}, zero-case |oracle|/scale={zero_case:.2e} "
           f"(tol 1e-5)")


def test_criterion_04_struve_moment():
    spot = abs(cf.struve_moment_integral(0.0) - math.pi)
    spot = max(spot, abs(cf.struve_moment_integral(0.5) - math.sqrt(2.0 * math.pi)))
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.0):
        closed = cf.struve_moment_integral(nu)
        tail = oracle.OscillatoryTail(
            max(nu, 1.0) + 3.0 * math.pi, math.pi,
            wave=lambda x, _n=nu: x ** (-(_n + 1.0)) * bessel_y_ref(_n, x),
            smooth=lambda x, _n=nu: x ** (-(_n + 1.0)) * struve_k_ref(_n, x))
        half = oracle.integrate_half_line(
            lambda x, _n=nu: x ** (-(_n + 1.0)) * struve_h_ref(_n, x),
            closed * 2.5e-7 / 2.0, tail)
        worst = max(worst, abs(closed - 2.0 * half.value) / closed)
    ok = worst <= 1e-6 and spot <= 1e-12
    report(4, "whole-line Struve moment, Eq. 13", ok,
           f"max_rel={worst:.2e} (tol 1e-6), sqrt(2 pi) spot diff={spot:.1e}")


def test_criterion_05_generating_function():
    worst = 0.0
    for m in (2, 3):
        for x in (0.25, 0.5, 1.0, 2.0):
            for t in (-1.0, -0.5, 0.5, 1.0):
                direct = cf.bessel_generating_function(x, t, m)
                tricomi = cf._closed_eq19(x, t, m)
                worst = max(worst, abs(direct - tricomi) / max(abs(direct), 1e-30))
    ok = worst <= 1e-8
    report(5, "strided Bessel generating function, Eq. 19", ok,
           f"max_rel={worst:.2e} over m in {{2,3}}, 16 (x,t) points (tol 1e-8)")


def test_criterion_06_gaussian_dilation():
    worst = 0.0
    for n in (1, 2, 3):
        for x in (0.5, 1.0, 2.0, 4.0):
            closed = cf.bessel_gauss_dilation(n, x)
            quad = oracle.integrate_real_line(
                lambda t, _n=n, _x=x: bessel_j_ref(_n, _x * math.exp(-t * t)),
                abs(closed) * 2.5e-8)
            worst = max(worst, abs(closed - quad.value) / abs(quad.value))
    ok = worst <= 1e-7
    report(6, "Gaussian-dilated Bessel integral, Eq. 28", ok,
           f"max_rel={worst:.2e} over n in {{1,2,3}}, 4 x-points (tol 1e-7)")


def test_criterion_07_lorentz_gauss():
    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0, 3.0):
        closed = cf.lorentz_gauss_integral(x)

        def integrand(t, _x=x):
            w = 1.0 + t * t
            return math.exp(-_x * _x / (w * w)) / (w * w)

        quad = oracle.integrate_real_line(integrand, abs(closed) * 2.5e-9)
        worst = max(worst, abs(closed - quad.value) / abs(quad.value))
    # the uncorrected series variant must fail against the oracle at x = 0
    literal = cf.lorentz_gauss_paper_literal(0.0)
    oracle_zero = oracle.integrate_real_line(lambda t: (1 + t * t) ** -2, 1e-10)
    literal_fails = (abs(literal - 0.25 * math.pi) <= 1e-12
                     and abs(literal - oracle_zero.value) > 1e-3)
    ok = worst <= 1e-8 and literal_fails
    report(7, "Lorentzian-dilated Gaussian, Eq. 30", ok,
           f"max_rel={worst:.2e} (tol 1e-8); uncorrected variant gives pi/4 "
           f"vs oracle pi/2: {'disagrees as required' if literal_fails else 'UNEXPECTED'}")


def test_criterion_08_master_theorem():
    worst = 0.0
    for nu in (0.25, 1.0 / 3.0, 0.5, 0.75):
        closed = um.mellin_master(um.exponential_series(), nu)
        quad = oracle.integrate_half_line(
            lambda x, _n=nu: x ** (_n - 1.0) * math.exp(-x),
            abs(closed) * 2.5e-9)
        worst = max(worst, abs(closed - quad.value) / abs(closed))

        closed = um.mellin_master(um.rational_series(), nu)
        quad = oracle.integrate_half_line(
            lambda x, _n=nu: x ** (_n - 1.0) / (1.0 + x),
            abs(closed) * 2.5e-9)
        worst = max(worst, abs(closed - quad.value) / abs(closed))
    ok = worst <= 1e-8
    report(8, "Mellin master evaluator, Eq. 1-4", ok,
           f"max_rel={worst:.2e} for exp and rational laws, 4 exponents "
           f"(tol 1e-8)")


def test_criterion_09_borel_pair():
    worst = 0.0
    cases = [
        (tr.pseudo_trig_series(0, 2), math.cos),
        (tr.pseudo_trig_series(0, 3), pseudo_trig3_closed),
    ]
    for series, g in cases:
        transformed = tr.borel_transform(series)
        for x in (0.2, 0.5, 0.8):
            lhs = transformed.evaluate(x, tol=1e-13)

            def integrand(t, _g=g, _x=x):
                if t > 700.0:
                    return 0.0
                return math.exp(-t) * _g(_x * t)

            quad = oracle.integrate_half_line(integrand, abs(lhs) * 2.5e-9)
            worst = max(worst, abs(lhs - quad.value) / abs(quad.value))
    round_trip = all(
        tr.borel_inverse(tr.borel_transform(series)).coefficient(k)
        == series.coefficient(k)
        for series, _ in cases for k in range(50))
    ok = worst <= 1e-8 and round_trip
    report(9, "exponential-moment transform pair, Eq. 31-35", ok,
           f"max_rel={worst:.2e} (tol 1e-8), 50-coefficient round trip "
           f"{'exact' if round_trip else 'BROKEN'}")


def test_criterion_10_beta_transform():
    worst = 0.0
    for (a, b) in ((1.0, 1.0), (2.0, 3.0), (0.5, 0.5)):
        series = tr.beta_transform(um.exponential_series(), a, b)
        for x in (0.0, 1.0, 3.0):
            lhs = series.evaluate(x, tol=1e-13)
            quad = oracle.integrate_finite(
                lambda u, _a=a, _b=b, _x=x: u ** (_a - 1.0)
                * (1.0 - u) ** (_b - 1.0) * math.exp(-u * _x),
                0.0, 1.0, abs(lhs) * 2.5e-9)
            worst = max(worst, abs(lhs - quad.value) / abs(quad.value))
    # the exponential case reduces to the confluent hypergeometric form
    a, b, x = 2.0, 3.0, 1.0
    closed = sf.beta(a, b) * sf.hyper_pfq((a,), (a + b,), -x)
    kummer_gap = abs(tr.beta_transform(um.exponential_series(), a, b)
                     .evaluate(x, tol=1e-13) - closed) / abs(closed)
    ok = worst <= 1e-8 and kummer_gap <= 1e-10
    report(10, "Euler-kernel transform, Eq. 36-39", ok,
           f"max_rel={worst:.2e} (tol 1e-8), confluent-form gap={kummer_gap:.2e}")


def test_criterion_11_gamma_and_hermite_kernel():
    worst_rec = 0.0
    for i in range(12):
        for j in range(11):
            z = complex(0.1 + (10.0 - 0.1) * i / 11, -5.0 + j)
            g1 = sf.gamma(z + 1)
            worst_rec = max(worst_rec, abs(g1 - z * sf.gamma(z)) / abs(g1))
    worst_ref = 0.0
    z = -2.95
    while z < 3.0:
        if abs(z - round(z)) > 1e-9:
            value = sf.gamma(z) * sf.gamma(1.0 - z) * math.sin(math.pi * z) / math.pi
            worst_ref = max(worst_ref, abs(value - 1.0))
        z += 0.1
    worst_herm = 0.0
    for n in range(11):
        for (x, y) in ((0.7, 1.3), (-1.1, 0.4), (2.0, 2.5)):
            lhs = complex(sf.hermite_higher(n, 2, x, y))
            w = 1j * x / (2.0 * math.sqrt(y))
            rhs = (-1j) ** n * y ** (n / 2.0) * classical_hermite(n, w)
            worst_herm = max(worst_herm, abs(lhs - rhs) / max(abs(rhs), 1.0))
    ok = worst_rec <= 1e-12 and worst_ref <= 1e-11 and worst_herm <= 1e-10
    report(11, "Gamma invariants and classical-Hermite reduction", ok,
           f"recurrence={worst_rec:.2e} (tol 1e-12), "
           f"reflection={worst_ref:.2e} (tol 1e-11), "
           f"hermite={worst_herm:.2e} (tol 1e-10)")


def test_criterion_12_hybrid_borel_relations():
    worst_first = 0.0
    worst_second = 0.0
    for m in (2, 3):
        for n in range(9):
            for (x, y) in ((0.9, 1.4), (-1.2, 0.5)):
                first = tr.borel_hybrid_hermite(n, m, x, y, "first")
                expected = sf.hermite_higher(n, m, x, y) / math.factorial(n)
                worst_first = max(worst_first,
                                  abs(first - expected) / max(abs(expected), 1.0))
                second = tr.borel_hybrid_hermite(n, m, x, y, "second")
                truncated = sf.truncated_e(n, m, x, y)
                worst_second = max(worst_second,
                                   abs(second - truncated) / max(abs(truncated), 1.0))
    ok = worst_first <= 1e-13 and worst_second <= 1e-13
    report(12, "hybrid Hermite moment transforms, Eq. 34", ok,
           f"first-variable={worst_first:.2e}, second-variable="
           f"{worst_second:.2e} (exact finite sums, n <= 8, m in {{2,3}})")
