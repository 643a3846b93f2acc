"""The oracle's scipy references, called through scipy.special.cython_special,
against the scipy.special ufuncs over the same C code: the same bits.

Each reference is bound once per order and called at each x; the helpers
below do both at one point."""

import collections
import math
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from umbralint import reference

special = pytest.importorskip("scipy.special")

_rng = random.Random(14)
# orders from -3 to 9 and arguments from 0 to 120, with negative and
# integer orders, an int order (eq28 passes its n as one), int arguments
# and x = 0 put in on purpose
POINTS = ([(_rng.uniform(-3.0, 9.0), _rng.uniform(0.0, 120.0)) for _ in range(200)]
          + [(float(n), x) for n in range(-3, 10) for x in (0.0, 0.7, 13.0, 99.5)]
          + [(n, x) for n in (-2, 0, 1, 3) for x in (0.0, 2.5, 60.0)]
          + [(v, n) for v in (-1.5, 0.5, 2.0) for n in (0, 1, 7, 80)])


def bessel_j(v, x):
    return reference.bessel_j_ref(v)(x)


def struve_h(v, x):
    return reference.struve_ref(v)[0](x)


def bessel_y(v, x):
    return reference.struve_ref(v)[1](x)


def struve_k(v, x):
    return reference.struve_ref(v)[2](x)


def same_bits(got, want):
    return type(got) is float and got.hex() == float(want).hex()


@pytest.mark.parametrize("ref,ufunc", [(bessel_j, "jv"), (struve_h, "struve")],
                         ids=["bessel_j_ref-jv", "struve_h_ref-struve"])
def test_scalar_entry_points_match_the_ufuncs(ref, ufunc):
    ufunc = getattr(special, ufunc)
    for v, x in POINTS:
        assert same_bits(ref(v, x), ufunc(v, x)), (v, x)


# where Im H1 is not Y: x = 0 (yv gives +-inf), Y overflowing at a tiny x
# (-inf), x past about 1e17 (AMOS gives nan, yv finite values) and x < 0
# (H1 is continued to a finite value, yv gives nan)
Y_FALLBACK = ([(v, 0.0) for v in (-1.7, 0.0, 0.5, 2.0)]
              + [(v, 1e-300) for v in (-2.5, -1.7, 1.5, 2.0, 6.5)] + [(2.0, 5e-324)]
              + [(v, x) for v in (0.3, 1.0, -1.7) for x in (1e17, 2e17, 3e19)]
              + [(v, x) for v in (-1.7, 1.0, 2.5) for x in (-2.0, -1e-300)])


def test_bessel_y_is_the_imaginary_part_of_hankel1():
    # Im H1_v(x) (DLMF 10.4.3) from the C code of the hankel1 ufunc, and
    # yv's value where H1 is nan or x <= 0
    for v, x in POINTS + Y_FALLBACK:
        h = special.hankel1(v, x).imag
        want = h if x > 0.0 and not math.isnan(h) else special.yv(v, x)
        assert same_bits(bessel_y(v, x), want), (v, x)
    for v, x in Y_FALLBACK:
        assert x <= 0.0 or math.isnan(special.hankel1(v, x).imag), (v, x)
    assert math.isfinite(bessel_y(1.0, 1e17))
    assert bessel_y(2.0, 1e-300) == -math.inf
    assert math.isnan(bessel_y(1.0, -2.0))
    # at a subnormal order AMOS gives nan and yv 0 for x < 2; Y_v is Y_0
    for v in (5e-324, -1e-310, 2e-308):
        assert bessel_y(v, 1.0) == bessel_y(0.0, 1.0)
    assert math.isnan(bessel_y(math.nan, 1.0))


@settings(max_examples=200, deadline=None)
@given(v=st.floats(-3.0, 9.0), log_x=st.floats(-2.0, 4.0))
@example(v=-1.7, log_x=math.log10(7.3))   # where yv is 7.4e-14 off, relative
@example(v=-1.9, log_x=0.5)   # eq12's orders, nu in (-1.9, -1.55)
@example(v=-1.8, log_x=1.2)
@example(v=-1.55, log_x=2.0)
@example(v=-3.0, log_x=-2.0)
@example(v=9.0, log_x=4.0)
def test_bessel_y_against_mpmath(v, log_x):
    # on the scale of Y's envelope sqrt(2 / (pi x)), as Y passes its zeros
    mpmath = pytest.importorskip("mpmath")
    x = 10.0 ** log_x
    with mpmath.workdps(40):
        expected = float(mpmath.bessely(v, x))
    scale = max(abs(expected), math.sqrt(2.0 / (math.pi * x)))
    assert abs(bessel_y(v, x) - expected) <= 5e-14 * scale


class CountingSpecial:
    """A stand-in for cython_special that counts the calls of each name."""

    def __init__(self, module):
        self.module, self.calls = module, collections.Counter()

    def __getattr__(self, name):
        function = getattr(self.module, name)

        def counted(*args):
            self.calls[name] += 1
            return function(*args)
        return counted


def test_bessel_y_makes_one_hankel1_call(monkeypatch):
    # one AMOS call for Y, at any order, with H - Y below x = 8 one more
    # for H, and no yv call; the order is bound before the count
    proxy = CountingSpecial(pytest.importorskip("scipy.special.cython_special"))
    monkeypatch.setattr(reference, "_sp", proxy)
    rng = random.Random(26)
    points = ([(v, x) for v, x in POINTS if 0.0 < x <= 1e4]
              + [(rng.uniform(-3.0, 9.0), 10.0 ** rng.uniform(-2.0, 4.0)) for _ in range(200)])
    for v, x in points:
        _, y, k, _ = reference.struve_ref(v)
        proxy.calls.clear()
        y(x)
        assert proxy.calls == {"hankel1": 1}, (v, x)
        if x < 8.0:
            proxy.calls.clear()
            k(x)
            assert proxy.calls == {"struve": 1, "hankel1": 1}, (v, x)


def test_struve_k_matches_its_ufunc_evaluation(monkeypatch):
    # H - Y below x = 8 and the Laplace integral from x = 8 on, where past
    # v = 30 H - Y is kept, with the scalar entry points and, as the
    # reference, the ufuncs bound instead; at x = 0, outside K's domain,
    # H - Y can be inf - inf, which numpy warns of and Python floats do not
    points = POINTS + [(v, x) for v in (-1.9, -0.5, 0.0, 2.5, 3, 30.0, 30.5)
                       for x in (7.9, 8.0, 8.1, 1e3, 1e8)]
    got = [struve_k(v, x) for v, x in points]
    monkeypatch.setattr(reference, "_sp", special)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = [struve_k(v, x) for v, x in points]
    for point, value, expected in zip(points, got, want):
        assert same_bits(value, expected), point


class TestStruveK:
    # K_nu = H_nu - Y_nu, the oracle's smooth Struve tail, against mpmath at
    # 40 digits on both sides of the switch to the Laplace integral at x = 8
    @pytest.mark.parametrize("nu", [-1.9, -1.5, -0.5, -0.2, 0.0, 2.5, 8.0])
    @pytest.mark.parametrize("x", [7.9, 8.0, 9.5, 10.0, 12.0, 20.0, 30.0, 49.9, 50.0,
                                   1e3, 1e8])
    def test_against_mpmath(self, nu, x):
        got = struve_k(nu, x)
        if nu in (-1.5, -0.5):   # K_{-n-1/2} = 0: 1/Gamma(nu + 1/2) is 0,
            # and H - Y leaves the rounding of scipy's H and Y
            assert got == 0.0 if x >= 8.0 else abs(got) <= 1e-14
            return
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.struveh(nu, x) - mpmath.bessely(nu, x))
        assert got == pytest.approx(expected, rel=1e-13 if x >= 8.0 else 1e-10)

    def test_laguerre_rule(self):
        # the table against the zeros s of L_30 and their weights
        # s / (31 L_31(s))^2, found again in 40-digit arithmetic from numpy's
        # rule, whose own weights are only within about 4e-13 of the true ones
        mpmath = pytest.importorskip("mpmath")
        numpy_nodes, numpy_weights = pytest.importorskip(
            "numpy.polynomial.laguerre").laggauss(30)

        def laguerre(n, s):
            before, value = 1, 1 - s
            for j in range(1, n):
                before, value = value, ((2 * j + 1 - s) * value - j * before) / (j + 1)
            return value

        nodes, weights = reference._LAGUERRE_NODES, reference._LAGUERRE_WEIGHTS
        assert len(nodes) == len(weights) == 30
        with mpmath.workdps(40):
            for s, w, s0, w0 in zip(nodes, weights, numpy_nodes, numpy_weights):
                root = mpmath.findroot(lambda t: laguerre(30, t), float(s0))
                assert s == pytest.approx(float(root), rel=1e-15)
                assert w == pytest.approx(float(root / (31 * laguerre(31, root)) ** 2),
                                          rel=1e-15)
                assert s == pytest.approx(float(s0), rel=1e-14)
                assert w == pytest.approx(float(w0), rel=1e-12)
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-15)
