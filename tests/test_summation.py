import math
from itertools import count, islice

import pytest

from umbralint.errors import ConvergenceError
from umbralint.summation import SeriesTail, hypergeometric_terms, sum_series


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
        sum_series((1.0 / (k + 1.0) for k in count()), 1e-12, cap=50)
    err = excinfo.value
    assert isinstance(err.tail, SeriesTail)
    assert not err.tail.converged
    assert err.tail.terms_used == 50
    assert err.partial == pytest.approx(sum(1.0 / (k + 1.0) for k in range(50)))


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


def test_ratio_guard_delays_convergence_check():
    # terms grow for a while; without the guard, the relative test could
    # fire during the early plateau of a tiny partial sum
    def growing_then_decaying():
        t = 1e-18
        for k in count():
            yield t
            t = t * 3.0 if k < 10 else t * 1e-6

    value, tail = sum_series(growing_then_decaying(), 1e-10, ratio_guard=0.9)
    expected = sum(1e-18 * 3.0 ** min(k, 10) * (1e-6 ** max(0, k - 10))
                   for k in range(20))
    assert value == pytest.approx(expected, rel=1e-12)


def test_all_zero_series():
    value, tail = sum_series((0.0 for _ in range(100)), 1e-12)
    assert value == 0.0
    assert tail.converged


class TestHypergeometricTerms:
    # t_{j+1} = t_j y prod(a_i + j) / prod(b_i + j); a k! is a b of 1

    def test_0f0_is_exp(self):
        for y in (-3.0, 0.5, 2.0):
            value, _ = sum_series(hypergeometric_terms(1.0, (), (1.0,), y), 1e-16)
            assert value == pytest.approx(math.exp(y), rel=1e-14)

    def test_1f0_is_a_binomial(self):
        # 1F0(a;; y) = (1 - y)^-a for |y| < 1
        for a, y in ((0.7, 0.3), (2.5, -0.6), (-1.3, 0.8)):
            value, _ = sum_series(hypergeometric_terms(1.0, (a,), (1.0,), y), 1e-16)
            assert value == pytest.approx((1.0 - y) ** -a, rel=1e-13)

    def test_terminating_parameter_gives_a_cubic(self):
        # 1F1(-3; 2; y) = 1 - 3y/2 + y^2/2 - y^3/24, then only zeros
        y = 1.7
        terms = list(islice(hypergeometric_terms(1.0, (-3.0,), (2.0, 1.0), y), 8))
        assert terms[4:] == [0.0] * 4
        assert sum(terms) == pytest.approx(1.0 - 1.5 * y + 0.5 * y ** 2 - y ** 3 / 24.0,
                                           rel=1e-15)

    def test_start_at_k_continues_the_stream(self):
        a, b, y = (0.75, 1.25), (1.0, 1.5, 1.0), -2.3
        stream = list(islice(hypergeometric_terms(1.0, a, b, y), 20))
        assert list(islice(hypergeometric_terms(stream[5], a, b, y, 5), 15)) == stream[5:]
