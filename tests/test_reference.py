"""The oracle's scipy references, called through scipy.special.cython_special,
against the scipy.special ufuncs over the same C code: the same bits."""

import math
import random
import warnings

import pytest

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


def same_bits(got, want):
    return type(got) is float and got.hex() == float(want).hex()


@pytest.mark.parametrize("ref,ufunc", [
    (reference.bessel_j_ref, "jv"),
    (reference.struve_h_ref, "struve"),
    (reference.bessel_y_ref, "yv"),
])
def test_scalar_entry_points_match_the_ufuncs(ref, ufunc):
    ufunc = getattr(special, ufunc)
    for v, x in POINTS:
        assert same_bits(ref(v, x), ufunc(v, x)), (v, x)


def test_struve_k_matches_its_ufunc_evaluation(monkeypatch):
    # H - Y below x = 8 and the Laplace integral from x = 8 on, where past
    # v = 30 H - Y is kept, with the scalar entry points and, as the
    # reference, the ufuncs bound instead; at x = 0, outside K's domain,
    # H - Y can be inf - inf, which numpy warns of and Python floats do not
    points = POINTS + [(v, x) for v in (-1.9, -0.5, 0.0, 2.5, 3, 30.0, 30.5)
                       for x in (7.9, 8.0, 8.1, 1e3, 1e8)]
    got = [reference.struve_k_ref(v, x) for v, x in points]
    monkeypatch.setattr(reference, "_sp", special)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = [reference.struve_k_ref(v, x) for v, x in points]
    for point, value, expected in zip(points, got, want):
        assert same_bits(value, expected), point


class TestStruveK:
    # K_nu = H_nu - Y_nu, the oracle's smooth Struve tail, against mpmath at
    # 40 digits on both sides of the switch to the Laplace integral at x = 8
    @pytest.mark.parametrize("nu", [-1.9, -1.5, -0.5, -0.2, 0.0, 2.5, 8.0])
    @pytest.mark.parametrize("x", [7.9, 8.0, 9.5, 10.0, 12.0, 20.0, 30.0, 49.9, 50.0,
                                   1e3, 1e8])
    def test_against_mpmath(self, nu, x):
        got = reference.struve_k_ref(nu, x)
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
