#!/usr/bin/env python3
"""Per-kind eval_kernel timings of a revision and the working tree, in one
interpreter, for a low-noise view of a change to the eval path.

    python3 tools/kind_pairs.py --base REV [--seed N] [--rounds R]

The base, revision REV, is extracted with ``git archive`` into a temporary
directory, as ``bench_pairs.py`` does; the change is the working tree at the repository root.  Both
trees' ``umbralint`` and ``bench/workloads.py`` are loaded side by side
under different package names.  The inputs are those of the eval_kernel
timed loop at the seed: ``bench/run.py``'s ``make_ops`` and ``run_census``
run the census of the working tree and set the loop's order, one cycle of
which is one pass here.

The output gives R whole passes per side, alternating, the base first in
even rounds and the change first in odd ones: each side's best and median
pass and the rounds each side won.  Then, per kind, the best of R passes
over that kind's inputs, in microseconds per call.  A per-kind pass repeats
the same inputs back to back, so a cache keyed on inputs looks like a gain
there that the benchmark, which cycles over all kinds, does not see; the
whole-pass figure is the one to quote.  Whether the two sides return the
same values is ``outputs_diff.py``'s question, not this tool's.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

from bench_pairs import extract   # this directory leads sys.path when run as a script

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PACKAGE = "umbralint"


def _load(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(package_dir)] if package_dir else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(root: Path, name: str):
    """``root``'s bench/workloads.py, loaded as ``name``_workloads, with
    ``root``'s umbralint loaded as the package ``name`` and seen by the
    workloads module as ``umbralint``.  ``sys.modules`` keeps its own
    ``umbralint`` entries as they were."""
    src = root / "src" / PACKAGE
    _load(name, src / "__init__.py", src)
    own = {key: sys.modules.pop(key) for key in list(sys.modules)
           if key == PACKAGE or key.startswith(PACKAGE + ".")}
    aliases = {PACKAGE + key[len(name):]: module for key, module in list(sys.modules.items())
               if key == name or key.startswith(name + ".")}
    sys.modules.update(aliases)
    try:
        return _load(f"{name}_workloads", root / "bench" / "workloads.py")
    finally:
        for key in [key for key in sys.modules if key == PACKAGE or key.startswith(PACKAGE + ".")]:
            # a submodule the workloads imported on their own keeps its tree's name
            module = sys.modules.pop(key)
            sys.modules.setdefault(name + key[len(PACKAGE):], module)
        sys.modules.update(own)


def timed_pass(calls: dict, inputs) -> float:
    """Seconds to call every input once in order; a raise is a return."""
    start = time.perf_counter()
    for kind, args in inputs:
        try:
            calls[kind](*args)
        except Exception:   # timed like a return, as the benchmark times it
            pass
    return time.perf_counter() - start


def alternate(run, rounds: int) -> dict:
    """Each side's run() seconds over ``rounds`` rounds, the base first in
    even rounds and the change first in odd ones."""
    seconds = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            seconds[side].append(run(side))
    return seconds


def summary(seconds: dict) -> dict:
    """Best and median per side and the rounds each side won (ties for neither)."""
    base, change = seconds["base"], seconds["change"]
    won = {"base": sum(b < c for b, c in zip(base, change)),
           "change": sum(c < b for b, c in zip(base, change))}
    return {side: {"best": min(seconds[side]), "median": median(seconds[side]),
                   "won": won[side]} for side in SIDES}


def timed_inputs(seed: int) -> list:
    """The eval_kernel timed loop's inputs at ``seed``, one cycle, in its order."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import run
    ops = run.make_ops("eval_kernel", seed)
    if run.run_census(ops) is None:
        raise SystemExit("no eval_kernel input passed the census")
    return [ops.pool[slot] for slot in ops.passing]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare the working tree with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)

    inputs = timed_inputs(args.seed)
    with tempfile.TemporaryDirectory(prefix="kind-pairs-") as tmp:
        roots = {"base": extract(args.base, Path(tmp)), "change": ROOT}
        calls = {side: load_tree(roots[side], f"{side}_{PACKAGE}").EVAL_CALLS
                 for side in SIDES}
        report(args, inputs, calls)
    return 0


def report(args, inputs, calls) -> None:
    """Print the whole passes and the per-kind passes."""
    print(f"base {args.base} against the working tree, seed {args.seed}: "
          f"{len(inputs)} inputs a pass")

    whole = summary(alternate(lambda side: timed_pass(calls[side], inputs), args.rounds))
    print(f"whole passes, {args.rounds} rounds (ms):")
    for side in SIDES:
        s = whole[side]
        print(f"  {side:6s} best {1e3 * s['best']:8.2f}  median {1e3 * s['median']:8.2f}"
              f"  rounds won {s['won']}")
    print(f"  best change/base {whole['change']['best'] / whole['base']['best']:.3f}")

    by_kind = defaultdict(list)
    for kind, params in inputs:
        by_kind[kind].append((kind, params))
    print(f"per kind, best of {args.rounds} passes (us per call):")
    print(f"  {'kind':24s} {'inputs':>6s} {'base':>9s} {'change':>9s} {'ratio':>6s}")
    for kind, group in sorted(by_kind.items()):
        best = summary(alternate(lambda side: timed_pass(calls[side], group), args.rounds))
        base, change = (1e6 * best[side]["best"] / len(group) for side in SIDES)
        print(f"  {kind:24s} {len(group):6d} {base:9.2f} {change:9.2f} {change / base:6.3f}")
    print("note: a per-kind pass repeats the same inputs back to back, so a cache keyed "
          "on inputs looks like a gain there; quote the whole-pass figure.")


if __name__ == "__main__":
    sys.exit(main())
