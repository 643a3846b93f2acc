#!/usr/bin/env python3
"""Compare the outputs of a revision with those of the working tree.

    python3 tools/outputs_diff.py --base REV [--seeds 1 2 3]

The base, revision REV, is extracted with ``git archive`` into a temporary
directory; the change is the working tree at the repository root.  Each side
runs in its own interpreter with its own ``src`` and ``bench/workloads.py``
and records, for every input of the eval_kernel pool and every census point
of verify_plain and verify_ladder at each seed, what the call returned or
the type of what it raised.  A verify point is recorded as its report
without the timing fields ``closed_time`` and ``oracle_time``.  Floats are
compared by their exact repr, so -0.0 differs from 0.0.

An input differs when a field of its record differs, a field that one side
lacks (a report field that only one revision has) counting as null there.
Every input that differs is printed with the fields that differ, one
``field: base -> change`` line each, then the total, then the count per
group that differs: per eval kind in eval_kernel, per identity in
verify_plain and verify_ladder.  With each count goes the largest relative
difference among the group's inputs that returned a finite number on both
sides: |base - change| / max(|base|, |change|) of an eval's value, and of
a verify point's closed-form and oracle values |base - change| on verify's
own scale, max(|closed|, |oracle|, 1).  A verify group also gets the total
``oracle_cost`` of its inputs on each side, the machine-independent count
of integrand evaluations.  The exit status is 1 when there is any
difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_pairs import dumped, extract   # this directory leads sys.path when run as a script

ROOT = Path(__file__).resolve().parent.parent
VERIFY_WORKLOADS = ("verify_plain", "verify_ladder")
TIMING_FIELDS = ("closed_time", "oracle_time")


def eval_pool_size(root: Path) -> int:
    """``EVAL_POOL`` of the side's bench/run.py, read without importing it."""
    tree = ast.parse((root / "bench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "EVAL_POOL"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no EVAL_POOL in {root / 'bench' / 'run.py'}")


def _plain(value):
    """A value as JSON-safe text that keeps every bit of its floats."""
    if isinstance(value, complex):
        return [repr(value.real), repr(value.imag)]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def dump(root: Path, seeds) -> None:
    """Print one JSON line per input: its key and its record."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from umbralint import cli
    from umbralint.closedforms import CATALOG

    def record(key, call):
        try:
            out = {"value": _plain(call())}
        except Exception as exc:   # the type is the record
            out = {"raised": type(exc).__name__}
        print(json.dumps([key, out]))

    def report(identity, params):
        fields = cli.verify_point(identity, params, identity.default_tol).to_record()
        for name in TIMING_FIELDS:
            del fields[name]
        return fields

    size = eval_pool_size(root)
    catalog = {d.id: d for d in CATALOG}
    for seed in seeds:
        for slot, (kind, args) in enumerate(workloads.eval_pool(seed, size)):
            record(f"eval_kernel seed {seed} #{slot} {kind}{_plain(args)}",
                   lambda: workloads.EVAL_CALLS[kind](*args))
        for workload in VERIFY_WORKLOADS:
            pool = workloads.VerifyPool(workload, seed, catalog)
            for slot in range(pool.size):
                identity_id, params = pool[slot]
                record(f"{workload} seed {seed} #{slot} {identity_id} {_plain(params)}",
                       lambda: report(catalog[identity_id], params))


def group(key: str) -> str:
    """The workload and the eval kind or verify identity of an input's key."""
    workload, _, _, _, call = key.split(" ", 4)
    return f"{workload} {call.split(' ')[0].split('[')[0]}"


def _number(v):
    """A recorded number as a finite complex, or None for anything else."""
    if isinstance(v, dict):   # a verify value, {"re": ..., "im": ...}
        v = [v.get("re"), v.get("im")]
    elif isinstance(v, str):  # a float's repr
        v = [v, "0.0"]
    try:
        z = complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError, IndexError):
        return None
    return z if cmath.isfinite(z) else None


def numbers(record) -> list:
    """The numbers of a record: an eval's value, or a verify point's
    closed-form and oracle values; None where there is no finite one."""
    value = (record or {}).get("value")
    if isinstance(value, dict):
        return [_number(value.get("closed_form_value")), _number(value.get("oracle_value"))]
    return [_number(value)]


def oracle_cost(records: dict, keys) -> int:
    """The summed ``oracle_cost`` of the verify records among ``keys``."""
    return sum(((records.get(key) or {}).get("value") or {}).get("oracle_cost") or 0
               for key in keys)


def relative_difference(base, change) -> float | None:
    """The largest relative difference of the numbers both records hold.

    An eval's value is judged on max(|base|, |change|).  A verify point is
    judged on the scale verify judges it on, max(|closed|, |oracle|, 1) over
    both sides, so an integral that is exactly 0 does not turn the noise of
    its oracle into a large relative move."""
    pairs = [(b, c) for b, c in zip(numbers(base), numbers(change))
             if b is not None and c is not None]
    if not pairs:
        return None
    if isinstance(base["value"], dict):   # a verify point
        scale = max(1.0, *(abs(z) for pair in pairs for z in pair))
        return max(abs(b - c) for b, c in pairs) / scale
    return max(abs(b - c) / max(abs(b), abs(c)) if b != c else 0.0 for b, c in pairs)


def _fields(record, prefix="") -> dict:
    """The leaves of a record by their dotted path: a verify report's fields
    by their own names, an eval's ``value`` and a ``raised`` type as such."""
    if not isinstance(record, dict):
        return {prefix: record}
    fields = {}
    for name, value in record.items():
        path = name if prefix in ("", "value") else f"{prefix}.{name}"
        fields.update(_fields(value, path))
    return fields


def field_changes(base, change) -> list:
    """One ``field: base -> change`` line per field that differs, a field
    that one side lacks shown as null there."""
    old, new = _fields(base or {}), _fields(change or {})
    return [f"{name}: {_shown(old.get(name))} -> {_shown(new.get(name))}"
            for name in [*old, *(name for name in new if name not in old)]
            if old.get(name) != new.get(name)]


def _shown(leaf) -> str:
    """A recorded leaf as printed: a float by its repr, as it was recorded."""
    return leaf if isinstance(leaf, str) else json.dumps(leaf)


def outputs(root: Path, seeds) -> dict:
    return dict(dumped(__file__, root, ["--seeds", *map(str, seeds)],
                       f"the outputs of {root} could not be recorded"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        dump(args.dump, args.seeds)
        return 0
    if args.base is None:
        parser.error("--base is required")

    with tempfile.TemporaryDirectory(prefix="outputs-diff-") as tmp:
        base = outputs(extract(args.base, Path(tmp)), args.seeds)
    change = outputs(ROOT, args.seeds)
    keys = sorted(set(base) | set(change))
    changes = {key: field_changes(base.get(key), change.get(key)) for key in keys}
    differ = [key for key in keys if changes[key]]
    for key in differ:
        print(key, *(f"  {line}" for line in changes[key]), sep="\n")
    print(f"{len(differ)} of {len(keys)} inputs differ")
    inputs = Counter(map(group, keys))
    largest: dict = {}
    for key in differ:
        rel = relative_difference(base.get(key), change.get(key))
        if rel is not None:
            name = group(key)
            largest[name] = max(largest.get(name, 0.0), rel)
    for name, count in sorted(Counter(map(group, differ)).items()):
        rel = (f"largest relative difference {largest[name]:.2e}" if name in largest
               else "no number on both sides")
        cost = ""
        if name.split(" ")[0] in VERIFY_WORKLOADS:
            members = [key for key in keys if group(key) == name]
            cost = (f", oracle_cost {oracle_cost(base, members)}"
                    f" -> {oracle_cost(change, members)}")
        print(f"  {name}: {count} of {inputs[name]}, {rel}{cost}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
