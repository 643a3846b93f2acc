"""Exception types shared across the engine."""

from __future__ import annotations

import functools


class EngineError(Exception):
    """Base class for every error raised by this package."""


class PoleError(EngineError, ValueError):
    """A Gamma factor was requested at a non-positive integer.

    ``location`` is the offending argument; ``factor_index`` identifies the
    factor inside a Gamma-ratio product when applicable.
    """

    def __init__(self, location, factor_index=None, message=None):
        self.location = location
        self.factor_index = factor_index
        if message is None:
            message = f"gamma pole at {location!r}"
            if factor_index is not None:
                message += f" (factor {factor_index})"
        super().__init__(message)


class DomainError(EngineError, ValueError):
    """An argument lies outside the domain an operation supports."""


class KernelDomainError(DomainError):
    """A dilation-kernel multiplier was evaluated below its lower bound."""


class StripError(DomainError):
    """A Mellin evaluation was requested outside its convergence strip."""


class ConvergenceError(EngineError, ArithmeticError):
    """A guarded series did not converge within its term budget.

    ``partial`` holds the partial sum and ``tail`` the summation metadata
    collected up to the point of failure.
    """

    def __init__(self, message, partial=None, tail=None):
        self.partial = partial
        self.tail = tail
        super().__init__(message)


class QuadratureError(EngineError, ArithmeticError):
    """Adaptive quadrature exhausted its budget before reaching tolerance.

    ``partial`` holds the best QuadratureResult obtained so far.
    """

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


class ExtrapolationError(QuadratureError):
    """A damping-ladder extrapolation failed to settle within tolerance."""


def overflow_raises(error, what=None):
    """Decorator: an OverflowError inside the function leaves it as
    ``error``, naming ``what`` (by default the function) as what overflowed."""
    def decorate(fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except OverflowError as exc:
                raise error(f"{what or fn.__name__} overflowed: {exc.args[-1]}") from exc
        return guarded
    return decorate
