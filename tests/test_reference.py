"""The oracle's scipy references, called through scipy.special.cython_special,
against the scipy.special ufuncs over the same C code: the same bits."""

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
    # the large-x expansion from x = 50 on and H - Y below it, with the
    # scalar entry points and, as the reference, the ufuncs bound instead;
    # at x = 0, outside K's domain, H - Y can be inf - inf, which numpy
    # warns of and Python floats do not
    points = POINTS + [(v, x) for v in (-1.9, -0.5, 0.0, 2.5, 3)
                       for x in (49.9, 50.0, 50.1, 1e3, 1e8)]
    got = [reference.struve_k_ref(v, x) for v, x in points]
    monkeypatch.setattr(reference, "_sp", special)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = [reference.struve_k_ref(v, x) for v, x in points]
    for point, value, expected in zip(points, got, want):
        assert same_bits(value, expected), point
