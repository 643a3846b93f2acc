#!/usr/bin/env python3
"""Check the oracles' error estimates against the closed forms on seeded points.

    python3 tools/estimate_sweep.py [--base REV] [--seed N]

Draws 635 points: 100 of eq12, 70 of eq13, 65 of eq08, 50 each of eq31 and
eq35, and 60 each of eq02 (both), eq28, eq30 and eq36.  They are uniform
over eq12's nu in (-2, 0) with b log-uniform in [0.1, 10^4], eq13's nu in
[-0.49, 8], eq08's nu in [0, 3.9] with beta log-uniform in [0.1, 10^4] and
alpha a uniform share of its bound 2 sqrt(beta), eq31's and eq35's x in
(-0.999, 0.999), eq02's nu in (0, 1), eq28's integer n in [1, 6] with x in
(-8, 8), eq30's x in (-3.5, 3.5) and eq36's x in (-10, 10) with alpha and
beta log-uniform in [0.1, 10].  Each point's oracle runs at the tolerances
1e-4, 1e-6 and 1e-9, each times max(|closed|, 1), and its true error is
taken as its distance from the closed form.  The oracle's rule is that this
error stays within 3x its estimate.  eq08, eq12 and eq13 take their
oscillatory tails up a vertical contour, and eq02's exponential, eq31 and
eq35 pass their exponentially decaying tails, eq35 one term at a time,
each tail with a one-term envelope a e^(-r x).  Every tail is summed by a
Gauss-Laguerre pair in r x and, only where the pair falls short, cut
where its envelope's tail is below half of the tolerance: a wrong
envelope, a cut too early or a pair that misses a term shows here as a
result over 3x.  eq02, eq08, eq12 and eq36 take the first terms of their
integrands out at a singular end and integrate them exactly; the
adaptive core has no other treatment of an end singularity.
eq30's closed side cancels as |x| grows: it is 2e-12 off the integral at
x = 3.6 and 2.4e-9 at 4.5, more than the oracle's estimates at 1e-9, so
it is drawn only where it holds to about 4.5e-13.

Per identity the output gives the worst ratio |oracle - closed| / estimate,
the count of results over 3x, the EngineErrors by type, the total
integrand evaluations, those of raised results' partials included, and
the costliest point: the most evaluations one oracle call made, partials
included, with its parameters and tolerance.  With
``--base`` the revision REV, extracted with ``git archive`` into a
temporary directory, is swept on the same points first, and both sides are
printed.  The exit status is 1 when the working tree has a result over 3x
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_pairs import dumped, extract   # this directory leads sys.path when run as a script

ROOT = Path(__file__).resolve().parent.parent
TOLERANCES = (1e-4, 1e-6, 1e-9)
RULE = 3.0


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _eq08(rng):
    beta = _log_uniform(rng, 0.1, 1e4)
    return {"nu": rng.uniform(0.0, 3.9), "alpha": rng.random() * 2.0 * math.sqrt(beta),
            "beta": beta}


# identity -> (points, draw of one parameter dict)
DRAWS = {
    "eq12_struve_halfline": (100, lambda rng: {"nu": rng.uniform(-2.0, 0.0),
                                               "b": _log_uniform(rng, 0.1, 1e4)}),
    "eq13_struve_moment": (70, lambda rng: {"nu": rng.uniform(-0.49, 8.0)}),
    "eq08_fresnel_bessel": (65, _eq08),
    "eq31_borel_cosine": (50, lambda rng: {"x": rng.uniform(-0.999, 0.999)}),
    "eq35_borel_pseudo_trig3": (50, lambda rng: {"x": rng.uniform(-0.999, 0.999)}),
    "eq02_mellin_exponential": (60, lambda rng: {"nu": rng.uniform(0.0, 1.0)}),
    "eq02_mellin_rational": (60, lambda rng: {"nu": rng.uniform(0.0, 1.0)}),
    "eq28_bessel_gauss_dilation": (60, lambda rng: {"n": float(rng.randint(1, 6)),
                                                    "x": rng.uniform(-8.0, 8.0)}),
    # eq30's closed side cancels past |x| of about 3.5 (see above)
    "eq30_lorentz_gauss": (60, lambda rng: {"x": rng.uniform(-3.5, 3.5)}),
    "eq36_beta_exponential": (60, lambda rng: {"alpha": _log_uniform(rng, 0.1, 10.0),
                                               "beta": _log_uniform(rng, 0.1, 10.0),
                                               "x": rng.uniform(-10.0, 10.0)}),
}


def points(seed: int) -> list:
    """The (identity, params) pairs of ``seed``."""
    rng = random.Random(seed)
    return [(identity_id, draw(rng)) for identity_id, (count, draw) in DRAWS.items()
            for _ in range(count)]


def sweep(root: Path, seed: int) -> dict:
    """Per identity: worst ratio, count over the rule, errors, evaluations and
    the costliest point."""
    sys.path.insert(0, str(root / "src"))
    from umbralint.closedforms import get_identity
    from umbralint.errors import EngineError

    summary = {i: {"worst": 0.0, "over": 0, "errors": Counter(), "evaluations": 0,
                   "results": 0, "costliest": [0, {}, 0.0]} for i in DRAWS}
    for identity_id, params in points(seed):
        identity = get_identity(identity_id)
        closed = identity.closed(**params)
        row = summary[identity_id]
        for tol in TOLERANCES:
            tol *= max(abs(closed), 1.0)
            try:
                result = identity.oracle_eval(params, tol)
            except EngineError as exc:
                row["errors"][type(exc).__name__] += 1
                evaluations = getattr(getattr(exc, "partial", None), "evaluations", 0)
            else:
                error, estimate = abs(result.value - closed), result.abs_error_estimate
                ratio = error / estimate if estimate > 0.0 else (0.0 if error == 0.0 else math.inf)
                row["worst"] = max(row["worst"], ratio)
                row["over"] += ratio > RULE
                row["results"] += 1
                evaluations = result.evaluations
            row["evaluations"] += evaluations
            if evaluations > row["costliest"][0]:
                row["costliest"] = [evaluations, params, tol]
    return summary


def side(root: Path, seed: int) -> dict:
    """The sweep of ``root``, run in its own interpreter."""
    (summary,) = dumped(__file__, root, ["--seed", str(seed)], f"the sweep of {root} failed")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to sweep before the working tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        print(json.dumps(sweep(args.dump, args.seed)))
        return 0

    sides = {}
    if args.base is not None:
        with tempfile.TemporaryDirectory(prefix="estimate-sweep-") as tmp:
            sides[args.base] = side(extract(args.base, Path(tmp)), args.seed)
    sides["working tree"] = side(ROOT, args.seed)

    print(f"seed {args.seed}: {len(points(args.seed))} points at tolerances "
          f"{', '.join(map(str, TOLERANCES))} times max(|closed|, 1)")
    for name, summary in sides.items():
        print(name)
        for identity_id, row in summary.items():
            errors = ", ".join(f"{k} {v}" for k, v in sorted(row["errors"].items())) or "none"
            most, params, tol = row["costliest"]
            print(f"  {identity_id}: worst {row['worst']:.3f}, over {RULE:g}x "
                  f"{row['over']} of {row['results']}, errors: {errors}, "
                  f"evaluations {row['evaluations']}, costliest {most} at {params}, tol {tol:.3g}")
        total = sum(row["evaluations"] for row in summary.values())
        print(f"  total evaluations {total}")
    return 1 if any(row["over"] for row in sides["working tree"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
