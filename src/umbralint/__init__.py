"""Symbolic-numeric engine for special-function integrals.

Special functions are represented as moment-sequence (umbral) series whose
coefficient laws are ratios of Gamma functions.  Definite integrals and
transforms of such series reduce to closed forms through a one-step Mellin
evaluator and dilation-kernel multipliers, and every cataloged closed form
is cross-checked against an independent adaptive-quadrature oracle.
"""

from . import closedforms, oracle, reference, specfun, transforms, umbral
from .errors import (
    ConvergenceError,
    DomainError,
    EngineError,
    KernelDomainError,
    PoleError,
    QuadratureError,
    StripError,
)
from .summation import SeriesTail, sum_series

__version__ = "0.1.0"

__all__ = [
    "closedforms",
    "oracle",
    "reference",
    "specfun",
    "transforms",
    "umbral",
    "ConvergenceError",
    "DomainError",
    "EngineError",
    "KernelDomainError",
    "PoleError",
    "QuadratureError",
    "StripError",
    "SeriesTail",
    "sum_series",
    "__version__",
]
