#!/usr/bin/env python3
"""Layered benchmark of umbralint.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see BENCHMARK.json for why each exists):

  verify_ladder  cli.verify_point on eq08, eq12, eq13 (damping-ladder oracle)
  verify_plain   cli.verify_point on the eight identities without a ladder
  eval_kernel    the closed-form and kernel functions behind ``eval``, plus
                 the umbral Mellin evaluators and transforms, no oracle

Each run first makes a census: every input of a seeded pool (the default
grids plus a fixed number of seeded points, or the eval pool) runs once,
untimed, and ends as pass, mismatch, EngineError or another exception by
type; nothing aborts the run.  verify ops are judged by the report
verify_point returns; eval ops by an mpmath reference computed in a child
process (bench/refvalues.py).  The census outcomes, the known defects among
them, go into the ``record`` line.  The timed loop then runs for S seconds,
a closed loop with one client that cycles through the inputs that passed.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it
runs the timed loop untraced for S/2 seconds, then the same ops again with
every layer wrapped (bench/tracing.py), prints the per-layer metrics, and
writes the spans to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``attempted`` and ``failed`` count timed
ops; an op fails there only when an input that passed the census does not
pass again.  ``correct`` is false when an output could not be checked: the
checker's self-test failed, a reference could not be computed, or a report
contradicts itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import accuracy
import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify_ladder", "verify_plain", "eval_kernel")

# Tail percentile per workload: the highest of 50/75/90/95/99/99.9 with at
# least ten ops beyond it at the op counts of the first measured version.
# It is fixed rather than recomputed per run, so that a faster program is
# not read at a higher percentile and shown as a tail regression.
TAIL_PERCENTILE = {"verify_ladder": 75.0, "verify_plain": 99.0, "eval_kernel": 99.0}

# Exponent of the speed correction per workload; see calibration.py.
SPEED_EXPONENT = {"verify_ladder": 0.69, "verify_plain": 0.74, "eval_kernel": 0.87}

# Size of the eval pool: 10 fixed inputs and 400 per eval kind.
EVAL_POOL = 8410

SETUP_RUNS = 7

# On a shared 2-vCPU machine, OpenBLAS starting one thread per core when
# numpy loads made import time depend on the load of the other core (import
# CPU time was 1.5x its wall time).  Every op here is scalar, so one BLAS
# thread changes nothing else; the setting is inherited by the set-up runs.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}

_SETUP_CODE = ("import time\n"
               "start = time.perf_counter()\n"
               "import umbralint.cli as cli\n"
               "ready = len(cli.CATALOG)\n"
               "print(time.perf_counter() - start)\n")


def measure_setup():
    """Median time, in reference seconds, to import the package and have the
    catalog ready, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        before = calibration.unit_seconds()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        after = calibration.unit_seconds()
        factor = calibration.REF_UNIT_S / (0.5 * (before + after))
        times.append(float(done.stdout.strip().splitlines()[-1]) * factor)
    return median(times)


# -- ops -------------------------------------------------------------------------
#
# Every run first makes a census: each input of the seeded pool runs once,
# untimed, and ends as pass, mismatch, EngineError or another exception
# recorded by type.  The census outcomes, with every known defect the pool
# holds, go into the record line.  The timed loop then cycles through the
# inputs of the timed part of the pool that passed the census, so that an op
# that fails there is a fault of the run (an output that changed between two
# calls with the same input) and the number of failed ops does not depend on
# how many ops fit into a run.


def attempt(fn):
    """(output, error) of one call; every exception is an outcome."""
    try:
        return fn(), None
    except Exception as exc:  # every failure is an outcome, not an abort
        return None, exc


def error_outcome(error):
    from umbralint.errors import EngineError
    return "engine_error" if isinstance(error, EngineError) \
        else f"other:{type(error).__name__}"


class VerifyOps:
    """cli.verify_point over the default grids and a fixed number of seeded
    points, each a pair (identity id, params).  An op is judged by the report
    verify_point returns."""

    def __init__(self, workload, seed):
        from umbralint import cli
        from umbralint.closedforms import CATALOG
        import workloads
        self.cli = cli
        self.identities = {d.id: d for d in CATALOG}
        self.workload = workload
        self.pool = workloads.VerifyPool(workload, seed, self.identities)
        self.defaults = len(self.pool.defaults)
        self.size = self.pool.size
        self.timed = self.pool.timed
        self.problems = []

    def call(self, slot, identities=None):
        identity_id, params = self.pool[slot]
        identity = (identities or self.identities)[identity_id]
        return self.cli.verify_point(identity, params, identity.default_tol)

    def judge(self, slot, output, error):
        if error is not None:
            return error_outcome(error)
        identity_id, params = self.pool[slot]
        r = output
        if r.identity_id != identity_id or r.point != params:
            self.problems.append(f"report for {r.identity_id} {r.point} "
                                 f"answers {identity_id} {params}")
        rel_ok = r.relative_error is not None and r.relative_error <= r.tolerance
        if r.passed != rel_ok:
            self.problems.append(f"report pass flag contradicts its error: {r.to_record()}")
        if r.passed:
            return "pass"
        # no error: outside domain, closed-form failure or oracle failure
        return "engine_error" if r.relative_error is None else "mismatch"

    def census(self):
        self.verdict = [self.judge(slot, *attempt(lambda: self.call(slot)))
                        for slot in range(self.size)]
        return self.verdict

    def notes(self):
        """The default-grid failures one by one, the seeded ones per
        identity and outcome, those among the timed inputs apart."""
        grid, seeded = [], Counter()
        for slot, outcome in enumerate(self.verdict):
            if outcome == "pass":
                continue
            identity_id, params = self.pool[slot]
            if slot < self.defaults:
                point = ", ".join(f"{k}={v:g}" for k, v in params.items())
                grid.append(f"{identity_id}({point}): {outcome}")
            elif slot < self.timed:
                seeded[f"{identity_id} (timed): {outcome}"] += 1
            else:
                seeded[f"{identity_id}: {outcome}"] += 1
        return {"default_grid_failures": grid,
                "seeded_failures": dict(sorted(seeded.items()))}


class EvalOps:
    """Direct calls of the eval-path functions over a fixed pool of inputs.

    The census calls every input once and checks its output against an
    mpmath reference computed in a child process, so that the checker's
    memory stays out of the peak RSS of the timed process.  In the timed
    loop an output that equals the census output passes; any other output
    is checked against the reference again."""

    def __init__(self, workload, seed):
        import workloads
        self.workloads = workloads
        self.workload = workload
        self.pool = workloads.eval_pool(seed, EVAL_POOL)
        self.size = self.timed = len(self.pool)
        self.problems = []

    def call(self, slot, identities=None):
        kind, args = self.pool[slot]
        return self.workloads.EVAL_CALLS[kind](*args)

    def judge(self, slot, output, error):
        first = self.first[slot]
        if first is not None and _same(first, (output, error)):
            return self.verdict[slot]
        if error is not None:
            return error_outcome(error)
        ref = self.refs[slot]
        if ref is None:
            return "unchecked"
        return "pass" if accuracy.check(self.pool[slot][0], output, ref)[0] else "mismatch"

    def census(self):
        self.first = [attempt(lambda: self.call(slot)) for slot in range(self.size)]
        self.refs = self._references()
        self.verdict, self.errors = [], {}
        for slot, (output, error) in enumerate(self.first):
            if error is not None:
                self.verdict.append(error_outcome(error))
                continue
            ref = self.refs[slot]
            if ref is None:
                self.verdict.append("unchecked")
                continue
            ok, err = accuracy.check(self.pool[slot][0], output, ref)
            self.errors[slot] = err
            self.verdict.append("pass" if ok else "mismatch")
        # keep only what judge needs: outputs of the inputs that passed
        self.first = [first if v == "pass" else None
                      for first, v in zip(self.first, self.verdict)]
        return self.verdict

    def _references(self):
        """Reference values from a child process (bench/refvalues.py), which
        also runs the checker's self-test."""
        request = json.dumps([[kind, list(args)] for kind, args in self.pool])
        done = subprocess.run([sys.executable, str(HERE / "refvalues.py"), "--stdin"],
                              input=request, capture_output=True, text=True,
                              timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"reference process failed: {done.stderr.strip()[-500:]}")
        answer = json.loads(done.stdout)
        self.problems.extend(f"self-test: {p}" for p in answer["self_test"])
        refs = []
        for (kind, args), value in zip(self.pool, answer["refs"]):
            if isinstance(value, str):  # a checker fault, not the program's
                self.problems.append(f"no reference for {kind}{args}: {value}")
                refs.append(None)
            else:
                refs.append(complex(*value))
        return refs

    def notes(self):
        baseline = []
        for slot, item in enumerate(self.pool[:len(self.workloads.EVAL_FIXED)]):
            if item in self.workloads.BASELINE_DEFECTS:
                err = self.errors.get(slot)
                detail = f" rel_err={err:.3g}" if err is not None else ""
                baseline.append(f"{item[0]}{item[1]}: {self.verdict[slot]}{detail}")
        failures = Counter(f"{self.pool[slot][0]}: {outcome}"
                           for slot, outcome in enumerate(self.verdict) if outcome != "pass")
        return {"baseline_cases": baseline, "census_failures": dict(sorted(failures.items()))}


def _same(a, b):
    """Whether two (output, error) pairs are the same result."""
    (x, ex), (y, ey) = a, b
    if ex is not None or ey is not None:
        return ex is not None and ey is not None and type(ex) is type(ey)
    x, y = complex(x), complex(y)
    return x == y or (x != x and y != y)


def make_ops(workload, seed):
    return (EvalOps if workload == "eval_kernel" else VerifyOps)(workload, seed)


class Latencies:
    """Per-op latencies in log-spaced bins (0.5% wide), so that memory, and
    with it peak RSS, does not grow with the number of ops."""

    PER_DECADE = 460
    FLOOR = 1e-8

    def __init__(self):
        self.bins = [0] * (12 * self.PER_DECADE)
        self.count = 0
        self.total = 0.0
        self.raw_total = 0.0

    def add(self, seconds, raw_seconds):
        i = int(math.log10(max(seconds, self.FLOOR) / self.FLOOR) * self.PER_DECADE)
        self.bins[min(i, len(self.bins) - 1)] += 1
        self.count += 1
        self.total += seconds
        self.raw_total += raw_seconds

    def percentile(self, q):
        """The q-th percentile, interpolated geometrically inside its bin."""
        rank = q / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.bins):
            if c and seen + c >= rank:
                frac = (rank - seen) / c
                return self.FLOOR * 10.0 ** ((i + frac) / self.PER_DECADE)
            seen += c
        raise ValueError("no latencies recorded")

    def smoothed(self, q):
        """Mean of the percentiles over q +- d, d = min(5, (100 - q) / 2).

        Ops repeat a finite set of inputs, whose costs form clusters with
        gaps between them; a bare percentile that falls into a gap jumps
        between the clusters on either side from run to run."""
        d = min(5.0, (100.0 - q) / 2.0)
        return sum(self.percentile(q + d * (k - 4) / 4.0) for k in range(9)) / 9.0


def timed_loop(ops, seconds, limit=None, runner=None, identities=None, between=None):
    """Closed loop over the inputs that passed the census, in the order
    run_census sets and round again, until ``seconds`` have passed, or exactly ``limit`` ops.
    Latencies are kept in reference seconds (see calibration.py); the
    machine speed is sampled between ops.  Outcomes are counted by kind."""
    slots = ops.passing
    latencies = Latencies()
    outcomes = Counter()
    speed = calibration.Speed(SPEED_EXPONENT[ops.workload])
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < limit) if limit is not None else (time.perf_counter() < deadline):
        slot = slots[index % len(slots)]
        start = time.perf_counter()
        if runner is None:
            output, error = attempt(lambda: ops.call(slot, identities))
        else:
            output, error = attempt(lambda: runner(index, lambda: ops.call(slot, identities)))
        raw = time.perf_counter() - start
        speed.after_op()
        latencies.add(raw * speed.factor(), raw)
        outcomes[ops.judge(slot, output, error)] += 1
        if between is not None:
            between()
        index += 1
    latencies.speed = speed.summary()
    latencies.outcomes = outcomes
    return latencies


def run_census(ops):
    """Run the census and set ``ops.passing``, the order of the timed loop,
    or return None when no input passed.

    The timed loop walks the timed part of the census pool in a golden-ratio
    stride; where an input failed the census, it takes the next passing
    input of the same group (identity, or eval function) instead.  The
    groups then have the same shares of the ops as in the pool, whatever
    the number of their inputs that passed, which varies with the seed and
    would otherwise set the op mix and with it the timed figures.  Within a
    group the passing inputs go in a golden-ratio stride too.  Both strides
    make a run that ends inside a cycle (a 20 s verify_ladder run holds
    about one) take inputs from all over the pool, not only from its head,
    the default grids."""
    start = time.perf_counter()
    verdict = ops.census()
    ops.census_seconds = time.perf_counter() - start
    ops.census_outcomes = Counter(verdict)
    groups = {}
    for slot, outcome in enumerate(verdict[:ops.timed]):
        if outcome == "pass":
            groups.setdefault(ops.pool[slot][0], []).append(slot)
    if not groups:
        return None
    order = {group: _spread_order(slots) for group, slots in groups.items()}
    taken = Counter()
    ops.passing = []
    for slot in _spread_order(range(ops.timed)):
        group = ops.pool[slot][0]
        if group in order:
            ops.passing.append(order[group][taken[group] % len(order[group])])
            taken[group] += 1
    ops.timed_inputs = sum(len(slots) for slots in groups.values())
    ops.timed_groups = {group: len(slots) for group, slots in groups.items()}
    return ops.passing


def _spread_order(slots):
    """``slots`` in a stride of about 0.618 of their number, coprime with it."""
    n = len(slots)
    step = max(1, round(0.6180339887 * n))
    while math.gcd(step, n) != 1:
        step += 1
    return [slots[(k * step) % n] for k in range(n)]


# -- run record ------------------------------------------------------------------


def run_record(workload, seed, ops, outcomes, extra):
    import numpy
    import scipy
    import mpmath
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import workloads
    census = ops.census_outcomes
    record = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "inputs_sha256": workloads.digest(ops.pool, ops.size),
        "census_inputs": ops.size,
        "census_outcomes": dict(sorted(census.items())),
        "census_fail_share": 1.0 - census["pass"] / ops.size,
        "census_seconds": ops.census_seconds,
        "timed_inputs": ops.timed_inputs,
        "timed_inputs_per_group": ops.timed_groups,
        "ops": sum(outcomes.values()),
        "outcomes": dict(sorted(outcomes.items())),
    }
    record.update(extra)
    return record


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            path = ROOT / ".git" / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "umbralint").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def emit(spec_metrics, values, correct, attempted, failed):
    metrics = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# -- main -----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "umbralint" / "__init__.py").is_file():
        print(f"no umbralint sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(_ONE_BLAS_THREAD)
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.trace:
        return run_traced(args, spec)
    return run_plain(args, spec)


def run_plain(args, spec):
    setup_s = measure_setup()
    ops = make_ops(args.workload, args.seed)
    if run_census(ops) is None:
        print("no input passed the census; nothing to time", file=sys.stderr)
        return 1
    latencies = timed_loop(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = latencies.outcomes
    n = latencies.count
    q = TAIL_PERCENTILE[args.workload]
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / latencies.total,
        "latency_p50_ms": 1e3 * latencies.smoothed(50.0),
        "latency_tail_ms": 1e3 * latencies.smoothed(q),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"tail_percentile": q, "ops_beyond_tail": round(n * (1 - q / 100.0), 1),
             "raw_ops_per_s": n / latencies.raw_total, "problems": ops.problems}
    extra.update(latencies.speed)
    extra.update(ops.notes())
    print("record " + json.dumps(run_record(args.workload, args.seed, ops, outcomes, extra)))
    for name, value in values.items():
        print(f"{name} = {value:.6g}")
    emit(spec["end_to_end"], values, not ops.problems, n, n - outcomes["pass"])
    return 0


def run_traced(args, spec):
    import tracing
    from umbralint import (cli, closedforms, oracle, reference, specfun, summation,
                           transforms, umbral)
    from umbralint.closedforms import CATALOG
    ops = make_ops(args.workload, args.seed)
    if run_census(ops) is None:
        print("no input passed the census; nothing to time", file=sys.stderr)
        return 1
    untraced = timed_loop(ops, args.seconds / 2.0)
    n = untraced.count

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer = tracing.Tracer(trace_path)
    modules = {"cli": cli, "closedforms": closedforms, "oracle": oracle,
               "reference": reference, "specfun": specfun, "summation": summation,
               "umbral": umbral, "transforms": transforms}
    undo = tracing.instrument(tracer, modules)
    try:
        identities = {d.id: tracing.traced_identity(tracer, d) for d in CATALOG}
        traced = timed_loop(ops, 0.0, limit=n, runner=tracer.run_op, identities=identities,
                            between=tracer.between_ops)
    finally:
        tracing.restore(undo)
        tracer.close_file()
    outcomes = traced.outcomes + untraced.outcomes
    op_time = tracer.stats["bench.op"][1]
    values = tracing.layer_metrics(tracer, n, [d.id for d in CATALOG], op_time)
    values["trace_overhead_share"] = traced.total / untraced.total - 1.0
    values["fail_share"] = 1.0 - ops.census_outcomes["pass"] / ops.size
    extra = {"traced_seconds": traced.total, "untraced_seconds": untraced.total,
             "spans": tracer._next_id,
             "trace_file": str(trace_path.relative_to(ROOT)), "problems": ops.problems}
    extra.update(ops.notes())
    print("record " + json.dumps(run_record(args.workload, args.seed, ops, outcomes, extra)))
    for name, value in values.items():
        if value:
            print(f"{name} = {value:.6g}")
    emit(spec["per_layer"], values, not ops.problems, 2 * n, 2 * n - outcomes["pass"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
