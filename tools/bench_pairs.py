#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised.

    python3 tools/bench_pairs.py --base REV [--claim WORKLOAD:METRIC]
        [--trace WORKLOAD] --out BENCH_N.json

The parent, revision REV, is extracted with ``git archive`` into a
temporary directory and benchmarked from there; the change is the working
tree at the repository root.  Each of ten pairs, i = 1 to 10, runs both
sides on seed i, one ``bench/run.py`` run of ``run_seconds``
(BENCHMARK.json) per side and workload, the parent first on odd seeds and
the change first on even ones.  For every workload and end-to-end metric of
BENCHMARK.json the output gives each side's runs, median and quartiles, the
pairs the change won (ties count for neither), and whether the change's
median is within the metric's bound.  A metric whose parent spread
(interquartile range over median) exceeds its bound is marked unresolved,
unless every change run beats every parent run.  ``--claim`` adds the verdict of the claim rule: the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.  ``--trace`` adds one traced run per side at seed 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10   # the fewest pairs the claim rule accepts


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def extract(rev: str, into: Path) -> Path:
    """The tree of ``rev``, written under ``into`` by git archive."""
    data = git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return into


def dumped(script: str, root: Path, args, failed: str) -> list:
    """The JSON lines that ``script --dump ROOT *args`` prints when run in
    ``root`` in its own interpreter; ``failed`` is the exit message if it fails."""
    done = subprocess.run([sys.executable, script, "--dump", str(root), *args], cwd=root,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(failed)
    return [json.loads(line) for line in done.stdout.splitlines()]


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of bench/run.py in ``root``: its metrics and op counts."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench/run.py failed in {root} on {workload} seed {seed}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "cpu": record.get("cpu"),
            "timed_inputs": record.get("timed_inputs")}


def quartiles(values):
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarise(metric: dict, parent: list, change: list) -> dict:
    """Medians, quartiles, wins and the bound verdict of one metric."""
    higher = metric["better"] == "higher"

    def better(x, y):
        return x > y if higher else x < y

    p, c = quartiles(parent), quartiles(change)
    gap = c["median"] - p["median"]
    worse_by = (-gap if higher else gap) / p["median"] if p["median"] else 0.0
    iqr = p["q3"] - p["q1"]
    spread = iqr / p["median"] if p["median"] else 0.0
    all_better = all(better(x, y) for x in change for y in parent)
    return {
        "parent": p, "change": c,
        "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
        "change_better": sum(better(x, y) for x, y in zip(change, parent)),
        "worse_by": worse_by,
        "within_bound": worse_by <= metric["bound"],
        "resolved": spread <= metric["bound"] or all_better,
        "median_gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
        "parent_runs": parent, "change_runs": change,
    }


def claim_verdict(summary: dict) -> dict:
    gap_ok = (summary["median_gap_over_parent_iqr"] or 0.0) > 1.0
    wins_ok = summary["change_better"] >= 0.9 * PAIRS
    return {"change_better": summary["change_better"], "pairs": PAIRS,
            "ratio_of_medians": summary["ratio_of_medians"],
            "median_gap_over_parent_iqr": summary["median_gap_over_parent_iqr"],
            "met": gap_ok and wins_ok and summary["worse_by"] < 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC whose gain is claimed; may repeat")
    parser.add_argument("--trace", action="append", default=[],
                        help="workload to run traced once per side at seed 1; may repeat")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claims = [c.split(":", 1) for c in args.claim]
    if any(len(c) != 2 for c in claims):
        parser.error("--claim takes WORKLOAD:METRIC")
    for w in args.trace + [w for w, _ in claims]:
        if w not in workloads:
            parser.error(f"unknown workload {w!r}")
    for _, m in claims:
        if m not in metrics:
            parser.error(f"unknown end-to-end metric {m!r}")

    revs = {"parent": git("rev-parse", args.base).decode().strip(),
            "change": "working tree"}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": extract(revs["parent"], Path(tmp)), "change": ROOT}
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    print(f"seed {seed} {w} {side}", file=sys.stderr, flush=True)
                    runs[w][side].append(bench(roots[side], w, seed, seconds, 0))
        traced = {w: {side: bench(roots[side], w, 1, seconds, 1)["metrics"]
                      for side in SIDES} for w in args.trace}

    pairs = {}
    for w in workloads:
        pairs[w] = {name: summarise(metric, [r["metrics"][name] for r in runs[w]["parent"]],
                                    [r["metrics"][name] for r in runs[w]["change"]])
                    for name, metric in metrics.items()}
        for side in SIDES:
            rs = runs[w][side]
            pairs[w][f"{side}_failed_ops"] = f"{sum(r['failed'] for r in rs)} of " \
                                             f"{sum(r['attempted'] for r in rs)}"
            pairs[w][f"{side}_all_correct"] = all(r["correct"] for r in rs)
            pairs[w][f"{side}_timed_inputs"] = sorted({r["timed_inputs"] for r in rs})
    out = {
        "revisions": revs,
        "machine": {"nproc": os.cpu_count(), "cpu": runs[workloads[0]]["parent"][0]["cpu"],
                    "python": platform.python_version()},
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "command": f"python3 tools/bench_pairs.py {' '.join(argv or sys.argv[1:])}",
        "method": f"seeds 1-{PAIRS}, one {seconds} s run of bench/run.py --trace 0 "
                  "per side and seed, the parent first on odd seeds; quartiles by "
                  "statistics.quantiles(method='inclusive'); change_better counts "
                  "pairs, ties for neither; within_bound and resolved use the bounds "
                  "of BENCHMARK.json",
        "claims": {f"{w}:{m}": claim_verdict(pairs[w][m]) for w, m in claims},
        "pairs": pairs,
        "traced_seed1": traced,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
