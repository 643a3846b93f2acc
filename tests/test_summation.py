import math
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

from umbralint import summation, transforms, umbral
from umbralint.errors import ConvergenceError
from umbralint.summation import DEFAULT_CAP, SeriesTail, sum_hypergeometric, sum_series

from references import hypergeometric_sum


def stepped_terms(t, a, b, y, k=0):
    """The plain term stream t_k, t_(k+1), ... of a hypergeometric series,
    stepped one division per term as the fused loop steps it."""
    k = float(k)
    while True:
        yield t
        num, den = y, 1.0
        for c in a:
            num *= c + k
        for c in b:
            den *= c + k
        t *= num / den
        k += 1.0


def plain_sum(terms, tol):
    """The stopping rule written out over a stream, as a reference."""
    def finished(total, used, mag):
        if not abs(total) < math.inf:   # finite terms whose sum passes the double range
            raise ConvergenceError(f"series overflowed: the sum of {used} terms passed the "
                                   "double range", partial=total,
                                   tail=SeriesTail(used, math.inf, False))
        return total, SeriesTail(used, mag, True)

    total, small, last_mag, used = 0.0, 0, 0.0, 0
    for k, term in enumerate(terms):
        if k >= DEFAULT_CAP:
            raise ConvergenceError(f"series did not converge within {DEFAULT_CAP} terms "
                                   f"(last |term| = {last_mag:.3e})", partial=total,
                                   tail=SeriesTail(used, last_mag, False))
        total += term
        used = k + 1
        try:
            mag = abs(term)
            small_term = mag <= tol * abs(total)
        except OverflowError:   # a complex whose modulus passes the double range
            mag = math.inf
        if not math.isfinite(mag):
            raise ConvergenceError(f"series overflowed: non-finite term at index {k}",
                                   partial=total, tail=SeriesTail(used, mag, False))
        last_mag = mag
        if small_term:
            small += 1
            if small >= 3:
                return finished(total, used, mag)
        else:
            small = 0
    return finished(total, used, last_mag)


def outcome(sum_call):
    """What a sum returned, or the ConvergenceError it raised, with every
    float as its repr so that equal outcomes are equal to the bit."""
    try:
        value, tail = sum_call()
    except ConvergenceError as exc:
        return ("raised", str(exc), repr(exc.partial), repr(exc.tail))
    return ("returned", repr(value), repr(tail))


def test_geometric_series():
    value, tail = sum_series((0.5 ** k for k in count()), 1e-12)
    assert abs(value - 2.0) < 1e-11
    assert tail.converged


def test_alternating_factorial_series():
    value, tail = sum_series(((-1.0) ** k / math.factorial(k) for k in count()),
                             1e-14)
    assert abs(value - math.exp(-1.0)) < 1e-14
    assert tail.converged
    # the tail invariant: converged implies the last term was negligible
    assert tail.last_term_magnitude <= 1e-14 * abs(value)


def test_cap_exceeded_raises_with_partial():
    with pytest.raises(ConvergenceError) as excinfo:
        sum_series((1.0 / (k + 1.0) for k in count()), 1e-12)
    err = excinfo.value
    assert isinstance(err.tail, SeriesTail)
    assert not err.tail.converged
    assert err.tail.terms_used == DEFAULT_CAP
    assert err.partial == pytest.approx(sum(1.0 / (k + 1.0) for k in range(DEFAULT_CAP)))


def test_stream_error_without_a_tail_is_raised_as_it_is():
    def terms():
        yield 1.0
        raise ConvergenceError("the stream gave up")

    with pytest.raises(ConvergenceError, match="gave up") as excinfo:
        sum_series(terms(), 1e-12)
    assert excinfo.value.tail is None


def test_finite_iterable_is_converged():
    value, tail = sum_series(iter([1.0, 2.0, 3.0]), 1e-12)
    assert value == 6.0
    assert tail.converged
    assert tail.terms_used == 3


def test_isolated_small_term_does_not_trigger_stop():
    # one near-zero term inside an otherwise large series must not stop it
    terms = [1.0, 1e-30, 1.0, 1.0, 1e-20, 1e-20, 1e-20]
    value, tail = sum_series(iter(terms), 1e-12)
    assert value == pytest.approx(3.0)
    assert tail.terms_used == len(terms)


def test_all_zero_series():
    value, tail = sum_series((0.0 for _ in range(100)), 1e-12)
    assert value == 0.0
    assert tail.converged


@pytest.mark.parametrize("terms", [
    [], [1.0, 2.0, 3.0], [1.0, 1e-30, 1.0, 1.0, 1e-20, 1e-20, 1e-20], [0.0] * 100,
    [1.0, -1.0, 1e-300, 0.0, 0.0], [1.0, math.inf, 2.0], [1.0, math.nan], [2.0, 1j, -0.5j],
    [1.0] * DEFAULT_CAP, [1.0] * (DEFAULT_CAP - 2) + [1.7e308, 1.7e308],
], ids=["empty", "finite", "isolated_small", "zeros", "cancelled", "inf", "nan", "complex",
        "ends_at_the_cap", "overflows_at_the_cap"])
def test_streams_follow_the_plain_rule(terms):
    assert (outcome(lambda: sum_series(iter(terms), 1e-12))
            == outcome(lambda: plain_sum(iter(terms), 1e-12)))


class TestHypergeometricTerms:
    # t_{j+1} = t_j y prod(a_i + j) / prod(b_i + j); a k! is a b of 1

    def test_0f0_is_exp(self):
        for y in (-3.0, 0.5, 2.0):
            value, _ = sum_hypergeometric(1.0, (), (1.0,), y, 1e-16)
            assert value == pytest.approx(math.exp(y), rel=1e-14)

    def test_1f0_is_a_binomial(self):
        # 1F0(a;; y) = (1 - y)^-a for |y| < 1
        for a, y in ((0.7, 0.3), (2.5, -0.6), (-1.3, 0.8)):
            value, _ = sum_hypergeometric(1.0, (a,), (1.0,), y, 1e-16)
            assert value == pytest.approx((1.0 - y) ** -a, rel=1e-13)

    def test_terminating_parameter_gives_a_cubic(self):
        # 1F1(-3; 2; y) = 1 - 3y/2 + y^2/2 - y^3/24, then three zeros stop it
        y = 1.7
        value, tail = sum_hypergeometric(1.0, (-3.0,), (2.0, 1.0), y, 1e-12)
        assert value == pytest.approx(1.0 - 1.5 * y + 0.5 * y ** 2 - y ** 3 / 24.0,
                                      rel=1e-15)
        assert tail == SeriesTail(7, 0.0, True)

    def test_start_at_k_continues_the_stream(self):
        a, b, y = (0.75, 1.25), (1.0, 1.5, 1.0), -2.3
        stream = list(islice(stepped_terms(1.0, a, b, y), 200))
        assert (outcome(lambda: sum_hypergeometric(stream[5], a, b, y, 1e-12, 5))
                == outcome(lambda: sum_series(iter(stream[5:]), 1e-12)))


upper = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -1.0, -2.0, -5.0]))
lower = st.one_of(st.floats(0.25, 6.0), st.just(1.0))


class TestFusedLoop:
    # the fused loop is sum_series over the stepped stream, bit for bit

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(-1e3, 1e3), a=st.lists(upper, max_size=3),
           b=st.lists(lower, max_size=3), y=st.floats(-60.0, 60.0),
           k=st.integers(0, 20), tol=st.sampled_from([1e-16, 1e-12, 1e-8]))
    def test_equals_sum_series_over_the_stream(self, t, a, b, y, k, tol):
        fused = outcome(lambda: sum_hypergeometric(t, a, b, y, tol, k))
        assert fused == outcome(lambda: sum_series(stepped_terms(t, a, b, y, k), tol))
        assert fused == outcome(lambda: plain_sum(stepped_terms(t, a, b, y, k), tol))

    @pytest.mark.parametrize("t,a,b,y", [
        (1.0, (1.0,), (1.0,), 1.0),              # 1 + 1 + ...: the cap
        (1.0, (1.0, 1.0), (1.0,), -1.0),         # k! (-1)^k: overflows
        (1e300, (), (1.0,), 1e300),              # inf on the first step
        (1.0, (-2.0,), (1.0,), 0.0),             # all zero after the first
    ], ids=["cap", "factorial", "first_step", "zeros"])
    def test_cap_and_overflow_raise_the_same_error(self, t, a, b, y):
        fused = outcome(lambda: sum_hypergeometric(t, a, b, y, 1e-12))
        assert fused == outcome(lambda: sum_series(stepped_terms(t, a, b, y), 1e-12))
        assert fused == outcome(lambda: plain_sum(stepped_terms(t, a, b, y), 1e-12))

    def test_cap_error_carries_partial_and_tail(self):
        with pytest.raises(ConvergenceError) as excinfo:
            sum_hypergeometric(1.0, (1.0,), (1.0,), 1.0, 1e-12)
        assert excinfo.value.partial == DEFAULT_CAP
        assert excinfo.value.tail == SeriesTail(DEFAULT_CAP, 1.0, False)

    # a complex term whose parts are finite but whose modulus is not: abs()
    # raises OverflowError there, and the sum ends as at a non-finite term
    @pytest.mark.parametrize("call", [
        lambda: umbral.exponential_series().evaluate(540 + 540j),
        lambda: sum_hypergeometric(391.0, (1.0, 1.0), (1.0, 1.0), 21.46875 + 5.6875j, 1e-16),
        lambda: sum_series(iter([1.0, complex(1.5e308, 1.5e308)]), 1e-12),
    ], ids=["law", "fused", "stream"])
    def test_complex_modulus_past_the_double_range(self, call):
        with pytest.raises(ConvergenceError, match="non-finite term") as excinfo:
            call()
        assert excinfo.value.tail.last_term_magnitude == math.inf
        assert not excinfo.value.tail.converged


# every shape (len a, len b) up to three a and five b, each compiled with its
# step in one expression, and one past _UNROLLED, which loops over a and b
SHAPES = [(p, q) for p in range(4) for q in range(6)] + [(1, summation._UNROLLED)]


class TestCompiledShapes:
    # each shape's compiled loop is the plain rule over the stepped stream, bit for bit

    @pytest.mark.parametrize("p,q", SHAPES, ids=[f"{p}_{q}" for p, q in SHAPES])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), t=st.floats(-1e3, 1e3),
           y=st.one_of(st.floats(-60.0, 60.0),
                       st.complex_numbers(max_magnitude=60.0, allow_nan=False)),
           k=st.integers(0, 20), tol=st.sampled_from([1e-16, 1e-12, 1e-8]))
    def test_equals_the_stepped_stream(self, p, q, data, t, y, k, tol):
        a = data.draw(st.lists(upper, min_size=p, max_size=p))
        b = data.draw(st.lists(lower, min_size=q, max_size=q))
        fused = outcome(lambda: sum_hypergeometric(t, a, b, y, tol, k))
        assert fused == outcome(lambda: sum_series(stepped_terms(t, a, b, y, k), tol))
        assert fused == outcome(lambda: plain_sum(stepped_terms(t, a, b, y, k), tol))

    # terms, or at complex y their sum, past the double range: both raise
    # 'series overflowed'
    @pytest.mark.parametrize("y", [1.5, 1.5 + 0.5j])
    def test_sum_past_the_double_range(self, y):
        a, b = [0.0, 0.0], [1.0, 1.0]
        fused = outcome(lambda: sum_hypergeometric(1.0, a, b, y, 1e-16, 1))
        assert fused[0] == "raised" and fused[1].startswith("series overflowed")
        assert fused == outcome(lambda: sum_series(stepped_terms(1.0, a, b, y, 1), 1e-16))
        assert fused == outcome(lambda: plain_sum(stepped_terms(1.0, a, b, y, 1), 1e-16))

    def test_one_loop_per_shape(self):
        sum_hypergeometric(1.0, (0.5,), (1.5, 1.0), 0.3, 1e-12)
        loop = summation._LOOPS[(1, 2)]
        sum_hypergeometric(2.0, (0.7,), (2.5, 1.0), -0.3, 1e-12)
        assert summation._LOOPS[(1, 2)] is loop
        for q in (summation._UNROLLED + 1, 40):
            sum_hypergeometric(1.0, (), [1.0] * q, 0.5, 1e-12)
        assert all(key is None or sum(key) <= summation._UNROLLED for key in summation._LOOPS)

    # prod(b_i + k) at 0, by underflow or by a b_i + k that is 0, raised a
    # bare ZeroDivisionError from the step
    @pytest.mark.parametrize("b,used", [([1e-200, 1e-200], 1), ([1e-3] * 120, 1),
                                        ([-2.0, 1.0], 3)],
                             ids=["underflow", "underflow_past_unrolled", "zero"])
    def test_zero_divisor_raises(self, b, used):
        with pytest.raises(ConvergenceError, match="divided by zero") as excinfo:
            sum_hypergeometric(1.0, (), b, 1e-300, 1e-12)
        assert excinfo.value.tail.terms_used == used
        assert not excinfo.value.tail.converged
        assert (outcome(lambda: sum_hypergeometric(1.0, (), b, 1e-300, 1e-12))
                == outcome(lambda: hypergeometric_sum(1.0, (), b, 1e-300, 1e-12)))

    # through umbral._sum_terms, whose seeds and weights the stream above
    # has not: the bits of the loop written out in tests/references.py
    @pytest.mark.parametrize("call", [
        # Gamma(k + 0.3) in the denominator: terms 0 and 1 are seeded, then
        # the 0F1 shape (0, 2) steps
        lambda x: umbral._sum_terms(umbral.struve_series(-1.2), x, 1e-12),
        # the Gaussian multiplier weights each term by (2k + 1)^-1/2
        lambda x: umbral.apply_mellin_multiplier(umbral.gaussian_kernel(),
                                                 umbral.bessel_power_series(1), x),
        # slope 12: the shape (0, 12) is past _UNROLLED
        lambda x: transforms.pseudo_trig_series(5, 12).evaluate(x),
    ], ids=["seeded", "weight", "past_unrolled"])
    def test_law_sums_equal_the_reference_loop(self, call, monkeypatch):
        xs = (0.7, 3.1, 6.2, 8.5)
        fused = [repr(call(x)) for x in xs]
        monkeypatch.setattr(umbral, "sum_hypergeometric", hypergeometric_sum)
        assert fused == [repr(call(x)) for x in xs]
