"""Every cataloged function returns a finite value or raises an EngineError.

The draws cover each ``cli._EVAL_FUNCS`` entry and each catalog closed side
and variant: real values 0 and +-1e-300 to +-1e300 times U(0.9, 1.1),
integer orders up to 5000, and complex values where the entry takes them.
Accuracy is not asserted here; only the two outcomes the engine allows.
"""

import cmath
import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

from umbralint import cli
from umbralint.closedforms import CATALOG
from umbralint.errors import EngineError

MAGNITUDES = (0.0, 1e-300, 1e-8, 0.5, 1.0, 2.5, 10.0, 37.0, 150.0, 700.0, 1e4, 1e300)
ORDERS = (0, 1, 2, 3, 5, 10, 50, 200, 1000, 5000)
ORDER_NAMES = ("n", "m", "k")


def _required(fn):
    return tuple(p.name for p in inspect.signature(fn).parameters.values()
                 if p.default is p.empty)


# (function, its parameter names, the ones that take complex values)
ENTRIES = {f"eval {name}": (fn, _required(fn), complex_params)
           for name, (fn, _, complex_params) in cli._EVAL_FUNCS.items()}
for identity in CATALOG:
    ENTRIES[f"closed {identity.id}"] = (identity.closed, identity.parameters, ())
    for variant, fn in identity.variants.items():
        ENTRIES[f"{variant} {identity.id}"] = (fn, identity.parameters, ())

value = st.builds(lambda m, sign, u: sign * m * u, st.sampled_from(MAGNITUDES),
                  st.sampled_from((1.0, -1.0)), st.floats(0.9, 1.1))
imag = st.one_of(st.none(), value)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(derandomize=True, max_examples=40, deadline=2000)
@given(reals=st.tuples(value, value, value, value), imags=st.tuples(imag, imag, imag, imag),
       orders=st.tuples(st.sampled_from(ORDERS), st.sampled_from(ORDERS)))
# inside eq19's domain, (-x)^m t overflowed in floats
@example(reals=(0.0, -37.9, 1e-8, 0.0), imags=(None,) * 4, orders=(200, 0))
def test_finite_value_or_engine_error(entry, reals, imags, orders):
    fn, names, complex_params = ENTRIES[entry]
    orders = iter(orders)
    args = {}
    for name, re, im in zip(names, reals, imags):
        if name in ORDER_NAMES:
            args[name] = float(next(orders))
        elif name in complex_params and im is not None:
            args[name] = complex(re, im)
        else:
            args[name] = re
    try:
        result = fn(**args)
    except EngineError:
        return
    assert cmath.isfinite(complex(result)), (args, result)
