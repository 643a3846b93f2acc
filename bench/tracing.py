"""Per-layer tracing installed from outside the program.

Layers are the modules of umbralint.  ``instrument`` replaces each public
function by a wrapper at every module attribute through which a caller looks
it up (``closedforms.b_nu`` as well as ``specfun.b_nu``), and the evaluate
methods on their class.  Nothing in the program changes, and ``restore``
puts the original objects back.

Every wrapper opens a span on a shared stack.  A span's self time is its
duration minus the time of the spans it encloses.  Coarse spans are kept one
by one as (id, name, start, end, parent id, op id, self time).  Hot spans,
entered once per series term or integrand evaluation, are folded into their
nearest kept ancestor as a count and two totals per name, which keeps the
cost per call and the memory small on ops with a million evaluations.  The
spans are written to a gzip file of JSON lines between ops and at the end.
Self times include the wrappers' own cost, most of it on the hot spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
from collections import defaultdict
from dataclasses import replace
from statistics import median
from time import perf_counter

LAYERS = ("cli", "closedforms", "oracle", "reference", "specfun", "summation",
          "umbral", "transforms")

# cli exports only main; its verification entry points are public in use
_EXTRA_PUBLIC = {"cli": ("verify_point", "run_verification")}

HOT = {"umbral.phi_eval", "specfun.log_gamma"}

HALF_LINE = ("integrate_half_line", "integrate_oscillatory_gaussian")
ORACLE_ENTRIES = ("integrate_finite",) + HALF_LINE + ("integrate_real_line",)

_FLUSH_SPANS = 20_000


class Tracer:
    def __init__(self, path):
        # frame: [child seconds, id of the nearest kept span, its folds, layer]
        self.stack = []
        self.spans = []
        self.folded = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, incl, self
        self.counts = defaultdict(float)
        self.residuals = []
        self.ref_seen = set()
        self.op = None
        self._next_id = 0
        self._out = gzip.open(path, "wt", encoding="utf-8", compresslevel=1)

    def open(self, layer):
        start = perf_counter()
        self._next_id += 1
        frame = [0.0, self._next_id, {}, layer]
        self.stack.append(frame)
        return frame, start

    def close(self, name, frame, start):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - start
        parent_id = None
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent_id = parent[1]
        self.spans.append((frame[1], name, start, end, parent_id, self.op,
                           duration - frame[0]))
        for hot, fold in frame[2].items():
            self.folded.append((self.op, frame[1], hot, fold[0], fold[1], fold[2]))

    def open_hot(self, layer):
        start = perf_counter()
        parent = self.stack[-1]
        frame = [0.0, parent[1], parent[2], layer]
        self.stack.append(frame)
        return frame, start

    def close_hot(self, name, frame, start):
        duration = perf_counter() - start
        stack = self.stack
        stack.pop()
        stack[-1][0] += duration
        fold = frame[2].get(name)
        if fold is None:
            fold = frame[2][name] = [0, 0.0, 0.0]
        fold[0] += 1
        fold[1] += duration
        fold[2] += duration - frame[0]

    def run_op(self, op_id, fn):
        """Run one op as a root span of the benchmark's own layer."""
        self.op = op_id
        self.ref_seen.clear()
        frame, start = self.open("bench")
        try:
            return fn()
        finally:
            self.close("bench.op", frame, start)

    def between_ops(self):
        if len(self.spans) > _FLUSH_SPANS:
            self.flush()

    def flush(self):
        """Add the kept spans to the per-name totals and write them out."""
        out = self._out
        for span_id, name, start, end, parent, op, self_time in self.spans:
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += end - start
            stat[2] += self_time
            out.write(f'{{"span":{span_id},"name":"{name}","start":{start!r},'
                      f'"end":{end!r},"parent":{json.dumps(parent)},"op":{op}}}\n')
        for op, parent, name, count, total, self_time in self.folded:
            stat = self.stats[name]
            stat[0] += count
            stat[1] += total
            stat[2] += self_time
            out.write(f'{{"folded":"{name}","parent":{parent},"op":{op},"count":{count},'
                      f'"total_s":{total!r},"self_s":{self_time!r}}}\n')
        self.spans.clear()
        self.folded.clear()

    def close_file(self):
        self.flush()
        self._out.close()

    def layer_self(self):
        out = defaultdict(float)
        for name, (_, _, self_time) in self.stats.items():
            out[name.split(".", 1)[0]] += self_time
        return out

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        hot = name in HOT
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if hot:
                frame, start = tracer.open_hot(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close_hot(name, frame, start)
            frame, start = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(name, frame, start)

        return traced

    def wrap_reference(self, name, fn):
        """A leaf called once per integrand evaluation: no frame of its own."""
        stack = self.stack
        seen = self.ref_seen
        repeats = self.counts

        def traced(*args):
            start = perf_counter()
            key = hash(args)
            if key in seen:
                repeats["reference.repeats"] += 1
            else:
                seen.add(key)
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                parent = stack[-1]
                parent[0] += duration
                fold = parent[2].get(name)
                if fold is None:
                    fold = parent[2][name] = [0, 0.0, 0.0]
                fold[0] += 1
                fold[1] += duration
                fold[2] += duration

        return traced

    def wrap_sum_series(self, fn, convergence_error):
        tracer = self
        counts = self.counts

        def traced(terms, *args, **kwargs):
            # the caller's generator runs inside sum_series; the time spent
            # producing terms is charged back to the caller's layer
            caller = tracer.stack[-1][3]
            frame, start = tracer.open("summation")
            try:
                value, tail = fn(tracer.timed_terms(terms, caller), *args, **kwargs)
            except convergence_error as exc:
                counts["summation.convergence_errors"] += 1
                if exc.tail is not None:
                    counts["summation.terms"] += exc.tail.terms_used
                raise
            finally:
                tracer.close("summation.sum_series", frame, start)
            counts["summation.terms"] += tail.terms_used
            return value, tail

        return traced

    def timed_terms(self, terms, layer):
        name = f"{layer}.series_terms"
        iterator = iter(terms)
        while True:
            frame, start = self.open_hot(layer)
            try:
                term = next(iterator)
            except StopIteration:
                return
            finally:
                self.close_hot(name, frame, start)
            yield term

    def wrap_integrate(self, entry, fn, quadrature_error):
        """An oracle entry point.  Its integrand is wrapped to count
        evaluations and to charge the integrand's own code to closedforms,
        where the integrands are defined."""
        name = f"oracle.{entry}"
        tracer = self
        counts = self.counts
        half_line = entry in HALF_LINE

        def traced(f, *args, **kwargs):
            evals = [0, 0]

            def integrand(x):
                frame, start = tracer.open_hot("closedforms")
                evals[0] += 1
                if x > 1.0:
                    evals[1] += 1
                try:
                    return f(x)
                finally:
                    tracer.close_hot("closedforms.integrand", frame, start)

            frame, start = tracer.open("oracle")
            result = None
            try:
                result = fn(integrand, *args, **kwargs)
                return result
            except quadrature_error as exc:
                counts["oracle.failures"] += 1
                result = exc.partial
                raise
            finally:
                tracer.close(name, frame, start)
                counts["oracle.evals"] += evals[0]
                if result is not None and result.converged:
                    counts["oracle.useful_evals"] += evals[0]
                if half_line:
                    counts["oracle.half_line_evals"] += evals[0]
                    counts["oracle.tail_evals"] += evals[1]
                trace = getattr(result, "trace", None)
                if trace is not None:
                    counts["oracle.ladder.rungs"] += len(trace.values)
                    if math.isfinite(trace.residual):
                        tracer.residuals.append(trace.residual)

        return traced


def _public_functions(layer, module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    for attr in tuple(names) + _EXTRA_PUBLIC.get(layer, ()):
        fn = getattr(module, attr, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield attr, fn


def instrument(tracer, modules):
    """Install wrappers on the layer modules given as {layer: module}.

    Returns the list of (owner, attribute, original) that ``restore`` undoes.
    """
    from umbralint.errors import ConvergenceError, QuadratureError
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(layer, module):
            name = f"{layer}.{attr}"
            if layer == "reference":
                wrappers[fn] = tracer.wrap_reference(name, fn)
            elif name == "summation.sum_series":
                wrappers[fn] = tracer.wrap_sum_series(fn, ConvergenceError)
            elif layer == "oracle" and attr in ORACLE_ENTRIES:
                wrappers[fn] = tracer.wrap_integrate(attr, fn, QuadratureError)
            else:
                wrappers[fn] = tracer.wrap(name, fn)

    undo = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    series = modules["transforms"].CoefficientSeries
    for method in ("evaluate", "coefficients"):
        original = vars(series)[method]
        undo.append((series, method, original))
        setattr(series, method, tracer.wrap(f"transforms.{method}", original))
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def traced_identity(tracer, identity):
    """A copy of a catalog entry whose closed and oracle sides are spans;
    cli.verify_point looks both up on the entry it is given."""
    return replace(
        identity,
        closed=tracer.wrap(f"closedforms.{identity.id}.closed", identity.closed),
        oracle_eval=tracer.wrap(f"closedforms.{identity.id}.oracle", identity.oracle_eval))


def layer_metrics(tracer, ops, identity_ids, op_time):
    """Per-layer figures; counts and times are per attempted op."""
    totals, counts = tracer.stats, tracer.counts
    layer_self = tracer.layer_self()
    per_op = 1.0 / ops if ops else 0.0

    def stat(name):
        return totals.get(name, (0, 0.0, 0.0))

    def us_per_call(name):
        calls, incl, _ = stat(name)
        return 1e6 * incl / calls if calls else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {}
    evals = counts["oracle.evals"]
    oracle_time = sum(stat(f"oracle.{e}")[1] for e in ORACLE_ENTRIES)
    m["oracle.evals"] = evals * per_op
    m["oracle.evals_per_s"] = share(evals, oracle_time)
    m["oracle.useful_eval_share"] = share(counts["oracle.useful_evals"], evals)
    m["oracle.failures"] = counts["oracle.failures"] * per_op
    m["oracle.tail_eval_share"] = share(counts["oracle.tail_evals"],
                                        counts["oracle.half_line_evals"])
    m["oracle.ladder.rungs"] = counts["oracle.ladder.rungs"] * per_op
    m["oracle.ladder.residual_p50"] = median(tracer.residuals) if tracer.residuals else 0.0
    for e in ORACLE_ENTRIES:
        calls, _, self_time = stat(f"oracle.{e}")
        m[f"oracle.{e}.calls"] = calls * per_op
        m[f"oracle.{e}.self_s"] = self_time * per_op

    ref_calls = sum(v[0] for k, v in totals.items() if k.startswith("reference."))
    ref_self = layer_self["reference"]
    m["reference.calls"] = ref_calls * per_op
    m["reference.self_s"] = ref_self * per_op
    m["reference.us_per_call"] = 1e6 * share(ref_self, ref_calls)
    m["reference.repeat_arg_share"] = share(counts["reference.repeats"], ref_calls)

    for identity_id in identity_ids:
        for side in ("closed", "oracle"):
            calls, incl, _ = stat(f"closedforms.{identity_id}.{side}")
            m[f"closedforms.{identity_id}.{side}_s"] = share(incl, calls)

    for fn in ("gamma", "bessel_j", "struve_h", "b_nu", "hyper_pfq",
               "hermite_tricomi", "pseudo_trig"):
        m[f"specfun.{fn}.calls"] = stat(f"specfun.{fn}")[0] * per_op
        m[f"specfun.{fn}.us_per_call"] = us_per_call(f"specfun.{fn}")

    m["summation.calls"] = stat("summation.sum_series")[0] * per_op
    m["summation.terms"] = counts["summation.terms"] * per_op
    m["summation.convergence_errors"] = counts["summation.convergence_errors"] * per_op

    m["umbral.phi_eval.calls"] = stat("umbral.phi_eval")[0] * per_op
    for fn in ("phi_eval", "mellin_master", "mellin_master_strided",
               "apply_mellin_multiplier"):
        m[f"umbral.{fn}.us_per_call"] = us_per_call(f"umbral.{fn}")
    m["transforms.evaluate.calls"] = stat("transforms.evaluate")[0] * per_op
    m["transforms.evaluate.us_per_call"] = us_per_call("transforms.evaluate")
    m["cli.verify_point.self_s"] = stat("cli.verify_point")[2] * per_op

    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = share(layer_self[layer], op_time)
    m["trace.coverage"] = sum(m[f"layer.{layer}.self_share"] for layer in LAYERS)
    return m
