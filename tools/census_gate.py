#!/usr/bin/env python3
"""Check that no census failure count rises above its ceiling.

    python3 tools/census_gate.py

Runs the seed-1 census of each workload of ``bench/run.py``, with its
``make_ops`` and ``run_census``: every input of the pool once, untimed,
judged as the benchmark judges it (an eval output against its mpmath
reference, a verify point by its report).  The non-pass outcomes are
counted as the run record's notes name them: per "kind: outcome" in
eval_kernel, per "identity (timed): outcome" among seeded verify points,
and one for each failing default-grid point.  A fourth pool, ``found``,
holds the inputs of ``FOUND.json`` at the root of the repository: each is
called through its eval kind in ``bench/workloads.py`` and judged as an
eval_kernel input, against the reference stored with it, so no mpmath is
needed; its non-pass outcomes are counted per "kind: outcome" too.

The counts are compared with the ceilings of ``CENSUS.json`` at the root of
the repository.  The exit status is 1 when a count rises above its ceiling,
when a (workload, kind, outcome) key without a ceiling appears, or when the
census reports a checker problem, and 0 otherwise.  Counts that fell are
printed, then the file with them lowered, so that the change that lowers a
count lowers its ceiling in the same commit.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CEILINGS = ROOT / "CENSUS.json"
FOUND = ROOT / "FOUND.json"
SEED = 1
POOLS = ("verify_ladder", "verify_plain", "eval_kernel", "found")


def failure_counts(notes: dict) -> dict:
    """The non-pass counts of one census from the notes of its ops."""
    counts = Counter(notes.get("census_failures", {}))
    counts.update(notes.get("seeded_failures", {}))
    counts.update(notes.get("default_grid_failures", []))
    return dict(sorted(counts.items()))


def census(pool: str):
    """(failure counts, checker problems) of a workload's seed-1 census, or
    of the ``found`` pool."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import run
    if pool == "found":
        return found_counts(), []
    ops = run.make_ops(pool, SEED)
    run.run_census(ops)
    return failure_counts(ops.notes()), list(ops.problems)


def found_counts() -> dict:
    """The non-pass counts of the ``FOUND.json`` inputs, each judged against
    its stored reference."""
    import accuracy
    import run
    import workloads
    counts = Counter()
    for entry in json.loads(FOUND.read_text()):
        kind = entry["kind"]
        output, error = run.attempt(lambda: workloads.EVAL_CALLS[kind](*entry["args"]))
        if error is not None:
            counts[f"{kind}: {run.error_outcome(error)}"] += 1
        elif not accuracy.check(kind, output, complex(entry["reference"]))[0]:
            counts[f"{kind}: mismatch"] += 1
    return dict(sorted(counts.items()))


def compare(ceilings: dict, counts: dict):
    """(rose, fell) lines of the counts against the ceilings, per workload;
    a key without a ceiling rises from none, a ceiling without a count
    falls to 0."""
    rose, fell = [], []
    for workload, found in counts.items():
        ceiling = ceilings.get(workload, {})
        for key in sorted(set(found) | set(ceiling)):
            now, was = found.get(key, 0), ceiling.get(key)
            line = f"{workload}: {key!r} {'none' if was is None else was} -> {now}"
            if was is None or now > was:
                rose.append(line)
            elif now < was:
                fell.append(line)
    return rose, fell


def lowered(ceilings: dict, counts: dict) -> dict:
    """The ceilings with every count that fell taken as the new ceiling."""
    return {workload: {key: min(was, counts.get(workload, {}).get(key, 0))
                       for key, was in ceiling.items()
                       if counts.get(workload, {}).get(key, 0)}
            for workload, ceiling in ceilings.items()}


def main() -> int:
    ceilings = json.loads(CEILINGS.read_text())
    counts, problems = {}, []
    for pool in POOLS:
        counts[pool], found = census(pool)
        problems += [f"{pool}: {p}" for p in found]
        print(f"{pool}: {sum(counts[pool].values())} non-pass outcomes")
    rose, fell = compare(ceilings, counts)
    for line in problems:
        print(f"checker problem: {line}")
    for line in rose:
        print(f"rose: {line}")
    for line in fell:
        print(f"fell: {line}")
    if fell:
        print(f"{CEILINGS.name} with the counts that fell:")
        print(json.dumps(lowered(ceilings, counts), indent=2))
    return 1 if rose or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
