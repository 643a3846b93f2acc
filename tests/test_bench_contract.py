"""The benchmark's contract with the package.

bench/workloads.py calls the package by name and bench/tracing.py wraps
its functions and the evaluate methods of the series class from outside,
so a rename in the package would break bench/run.py without failing any
other test.  The bench modules are imported from their files, unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

from umbralint import cli, closedforms, oracle, reference, specfun, summation, transforms, umbral
from umbralint.errors import EngineError

BENCH = Path(__file__).resolve().parent.parent / "bench"

LAYER_MODULES = {"cli": cli, "closedforms": closedforms, "oracle": oracle,
                 "reference": reference, "specfun": specfun, "summation": summation,
                 "umbral": umbral, "transforms": transforms}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_eval_kind_runs(workloads):
    pool = workloads.eval_pool(0, len(workloads.EVAL_FIXED) + len(workloads.EVAL_KINDS))
    first = {}
    for kind, args in pool:
        first.setdefault(kind, args)
    assert set(first) == set(workloads.EVAL_CALLS)
    for kind, args in first.items():
        try:
            workloads.EVAL_CALLS[kind](*args)
        except EngineError:
            pass


def test_tracing_instruments_and_restores(workloads, tmp_path):
    tracing = _load("tracing")
    originals = {name: vars(transforms.CoefficientSeries)[name]
                 for name in ("evaluate", "coefficients")}
    phi_eval = umbral.phi_eval
    tracer = tracing.Tracer(tmp_path / "trace.jsonl.gz")
    undo = tracing.instrument(tracer, LAYER_MODULES)
    try:
        tracer.run_op(0, lambda: workloads.EVAL_CALLS["transforms_evaluate"]("beta", 1.0, 2.0, 0.5))
    finally:
        tracing.restore(undo)
        tracer.close_file()
    assert tracer.stats["transforms.evaluate"][0] == 1
    assert umbral.phi_eval is phi_eval
    for name, original in originals.items():
        assert vars(transforms.CoefficientSeries)[name] is original


def test_ladder_evaluates_each_reference_argument_once(tmp_path):
    # tracing.py wraps integrands and reference calls with scalar code, and
    # counts a reference call whose arguments already occurred in the op.
    # The references bind one order per oracle and return the callables
    # each node calls, so this sees the bindings; test_closedforms.py's
    # TestOscillatoryOracleNodes counts the nodes
    tracing = _load("tracing")
    identity = closedforms.get_identity("eq13_struve_moment")
    tracer = tracing.Tracer(tmp_path / "trace.jsonl.gz")
    undo = tracing.instrument(tracer, LAYER_MODULES)
    try:
        traced = tracing.traced_identity(tracer, identity)
        report = tracer.run_op(0, lambda: cli.verify_point(traced, {"nu": 5.0},
                                                           identity.default_tol))
    finally:
        tracing.restore(undo)
        tracer.close_file()
    assert report.passed, report
    assert 0 < tracer.counts["oracle.evals"] <= report.oracle_cost
    assert tracer.counts["reference.repeats"] == 0
