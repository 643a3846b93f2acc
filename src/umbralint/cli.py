"""Command-line verification harness.

Three commands: ``list`` prints the identity catalog, ``eval`` evaluates a
cataloged function at given arguments, and ``verify`` runs closed form
against oracle over a parameter grid and writes a machine-readable report.

Exit codes: 0 every comparison passed; 1 at least one grid point failed,
including a point outside the identity's domain, which is reported with a
reason rather than skipped; 2 a usage error, or an ``eval`` argument outside
the function's domain.  Grid points are processed in deterministic
declaration order, so identical invocations produce identical reports.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import inspect
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import product

from . import closedforms, specfun
from .closedforms import CATALOG, get_identity
from .errors import EngineError, QuadratureError

__all__ = ["main", "VerificationReport"]

# comparisons fall back to absolute error below this magnitude
_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """One grid-point comparison record."""

    identity_id: str
    equation: str
    point: dict
    closed_form_value: complex | None
    oracle_value: complex | None
    relative_error: float | None
    tolerance: float
    passed: bool
    oracle_cost: int
    timing: float
    reason: str = ""
    oracle_error_estimate: float | None = None
    ladder_residual: float | None = None

    def to_record(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "equation": self.equation,
            "point": self.point,
            "closed_form_value": _complex_json(self.closed_form_value),
            "oracle_value": _complex_json(self.oracle_value),
            "relative_error": self.relative_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "oracle_cost": self.oracle_cost,
            "oracle_error_estimate": self.oracle_error_estimate,
            "ladder_residual": self.ladder_residual,
            "timing": self.timing,
            "reason": self.reason,
        }


def _complex_json(value):
    if value is None:
        return None
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _format_value(value) -> str:
    if value is None:
        return "n/a"
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}i"


def verify_point(identity, params: dict, tol: float, variant=None) -> VerificationReport:
    """Compare closed form and oracle at one grid point."""
    ok, reason = identity.check_point(params)
    if not ok:
        return VerificationReport(identity.id, identity.equation, dict(params),
                                  None, None, None, tol, False, 0, 0.0,
                                  f"outside domain: {reason}")
    closed_form = identity.variants[variant] if variant else identity.closed
    start = time.perf_counter()
    try:
        closed = complex(closed_form(**params))
    except EngineError as exc:
        return VerificationReport(identity.id, identity.equation, dict(params),
                                  None, None, None, tol, False, 0,
                                  time.perf_counter() - start,
                                  f"closed-form failure: {exc}")
    # run the oracle a factor 4 tighter than the comparison so its own
    # error budget cannot consume the tolerance being certified
    scale = max(abs(closed), 1.0)
    try:
        oracle_result = identity.oracle_eval(params, 0.25 * tol * scale)
    except EngineError as exc:
        partial = exc.partial if isinstance(exc, QuadratureError) else None
        cost = partial.evaluations if partial is not None else 0
        return VerificationReport(identity.id, identity.equation, dict(params),
                                  closed, None, None, tol, False, cost,
                                  time.perf_counter() - start,
                                  f"oracle failure: {exc}",
                                  *_oracle_accuracy(partial))
    elapsed = time.perf_counter() - start
    oracle_value = complex(oracle_result.value)
    diff = abs(closed - oracle_value)
    if abs(oracle_value) < _ABS_FLOOR:
        rel = diff
    else:
        rel = diff / abs(oracle_value)
    passed = rel <= tol
    return VerificationReport(identity.id, identity.equation, dict(params),
                              closed, oracle_value, rel, tol, passed,
                              oracle_result.evaluations, elapsed, "",
                              *_oracle_accuracy(oracle_result))


def _oracle_accuracy(result):
    """The error estimate of an oracle result, partial or not, and its
    ladder residual; None where there is no result or no ladder."""
    if result is None:
        return None, None
    trace = result.trace
    return result.abs_error_estimate, trace.residual if trace is not None else None


def run_verification(identity, grid: dict, tol: float, variant=None):
    """Verify every point of the cartesian grid, in declaration order."""
    names = identity.parameters
    reports = []
    for values in product(*(grid[name] for name in names)):
        params = dict(zip(names, values))
        reports.append(verify_point(identity, params, tol, variant))
    return reports


# ---------------------------------------------------------------------------
# argument and config parsing
# ---------------------------------------------------------------------------


def _check_finite(values, text: str):
    """The values, if all are finite; either part of a complex value counts."""
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"values must be finite, got {text!r}")
    return values


def _parse_values(text: str):
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ValueError(f"range must be min:max:count, got {text!r}")
        lo, hi = float(pieces[0]), float(pieces[1])
        n = int(pieces[2])
        if n < 1:
            raise ValueError("range count must be >= 1")
        step = (hi - lo) / max(n - 1, 1)
        values = tuple(lo + step * i for i in range(n))
    else:
        values = tuple(float(v) for v in text.split(","))
    return _check_finite(values, text)


def _parse_tol(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a positive finite number, got {text!r}")
    return tol


def _parse_grid_option(option: str):
    if "=" not in option:
        raise ValueError(f"grid option must look like name=v1,v2 or "
                         f"name=min:max:n, got {option!r}")
    name, _, values = option.partition("=")
    return name.strip(), _parse_values(values.strip())


def _load_config(path: str):
    """Key-value config, one entry per line: <identity>.grid.<param> = values
    or <identity>.tol = x.  '#' starts a comment."""
    grids: dict = {}
    tols: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            parts = key.split(".")
            if len(parts) == 3 and parts[1] == "grid":
                grids.setdefault(parts[0], {})[parts[2]] = _parse_values(value)
            elif len(parts) == 2 and parts[1] == "tol":
                tols[parts[0]] = _parse_tol(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return grids, tols


def _parse_scalar(text: str):
    try:
        value = float(text)
    except ValueError:
        value = complex(text)
    return _check_finite((value,), text)[0]


# ---------------------------------------------------------------------------
# eval command: cataloged functions by name
# ---------------------------------------------------------------------------


_SERIES = "series, tolerance 1e-12"
_CLOSED_APPROX = "closed approximation, <= 1e-13 relative"
_FINITE = "exact (finite sum)"
_EXACT = "closed form (exact)"

# (function, accuracy note); eval passes the required parameters, and each
# function checks its own integer orders
_EVAL_FUNCS = {
    "gamma": (specfun.gamma, _CLOSED_APPROX),
    "beta": (specfun.beta, _CLOSED_APPROX),
    "bessel_j": (specfun.bessel_j, _SERIES),
    "bessel_i": (specfun.bessel_i, _SERIES),
    "struve_h": (specfun.struve_h, _SERIES),
    "b_nu": (specfun.b_nu, _SERIES),
    "pseudo_trig": (specfun.pseudo_trig, _SERIES),
    "hermite_higher": (specfun.hermite_higher, _FINITE),
    "hermite_hybrid": (specfun.hermite_hybrid, _FINITE),
    "truncated_e": (specfun.truncated_e, _FINITE),
    "hermite_tricomi": (specfun.hermite_tricomi, _SERIES),
    "fresnel_bessel": (closedforms.fresnel_bessel, _SERIES),
    "struve_halfline": (closedforms.struve_halfline_integral, _EXACT),
    "struve_moment": (closedforms.struve_moment_integral, _EXACT),
    "bessel_gauss_dilation": (closedforms.bessel_gauss_dilation, _SERIES),
    "lorentz_gauss": (closedforms.lorentz_gauss_integral, _SERIES),
    "bessel_generating": (closedforms.bessel_generating_function, _SERIES),
}


def _cmd_list(args) -> int:
    if args.format == "json":
        payload = [
            {
                "id": d.id,
                "equation": d.equation,
                "description": d.description,
                "parameter_domain": [text for text, _ in d.parameter_domain],
                "parameters": list(d.parameters),
                "default_tol": d.default_tol,
                "variants": list(d.variants),
            }
            for d in CATALOG
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(d.id) for d in CATALOG)
    for d in CATALOG:
        domain = "; ".join(text for text, _ in d.parameter_domain)
        print(f"{d.id:<{width}}  [{d.equation}]  {domain}")
        print(f"{'':<{width}}  {d.description}")
    return 0


def _cmd_eval(args) -> int:
    name = args.function
    if name not in _EVAL_FUNCS:
        print(f"unknown function {name!r}; choose from: "
              f"{', '.join(sorted(_EVAL_FUNCS))}", file=sys.stderr)
        return 2
    fn, note = _EVAL_FUNCS[name]
    arity = sum(p.default is p.empty for p in inspect.signature(fn).parameters.values())
    if len(args.args) != arity:
        print(f"{name} takes {arity} argument(s)", file=sys.stderr)
        return 2
    try:
        values = [_parse_scalar(a) for a in args.args]
    except ValueError as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2
    try:
        result = fn(*values)
    except EngineError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    print(_format_value(result))
    print(f"accuracy: {note}")
    return 0


def _write_reports(reports, path, fmt):
    if fmt == "jsonl":
        text = "\n".join(json.dumps(r.to_record()) for r in reports) + "\n"
    else:
        # the JSON record's fields in order, each complex value as two columns
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["identity_id", "equation", "point",
                         "closed_re", "closed_im", "oracle_re", "oracle_im",
                         "relative_error", "tolerance", "pass", "oracle_cost",
                         "oracle_error_estimate", "ladder_residual",
                         "timing", "reason"])
        for r in reports:
            row = []
            for key, value in r.to_record().items():
                if key in ("closed_form_value", "oracle_value"):
                    row += (value["re"], value["im"]) if value else ("", "")
                else:
                    row.append(json.dumps(value) if key == "point" else
                               "" if value is None else value)
            writer.writerow(row)
        text = buffer.getvalue()
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    if args.identity == "all":
        identities = list(CATALOG)
    else:
        try:
            identities = [get_identity(args.identity)]
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    config_grids: dict = {}
    config_tols: dict = {}
    if args.config:
        try:
            config_grids, config_tols = _load_config(args.config)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    overrides = {}
    for option in args.grid or ():
        try:
            name, values = _parse_grid_option(option)
        except ValueError as exc:
            print(f"grid error: {exc}", file=sys.stderr)
            return 2
        overrides[name] = values

    all_reports = []
    for identity in identities:
        grid = dict(identity.default_grid)
        grid.update(config_grids.get(identity.id, {}))
        unknown = set(overrides) - set(identity.parameters)
        if unknown and len(identities) == 1:
            print(f"unknown grid parameter(s) {sorted(unknown)} for "
                  f"{identity.id}; expected {list(identity.parameters)}",
                  file=sys.stderr)
            return 2
        for name, values in overrides.items():
            if name in identity.parameters:
                grid[name] = values
        tol = args.tol if args.tol is not None else \
            config_tols.get(identity.id, identity.default_tol)
        variant = args.variant
        if variant is not None and variant not in identity.variants:
            if len(identities) == 1:
                print(f"{identity.id} has no variant {variant!r}", file=sys.stderr)
                return 2
            variant = None
        reports = run_verification(identity, grid, tol, variant)
        all_reports.extend(reports)
        # progress goes to stderr so a report streamed to stdout stays parseable
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            point = ", ".join(f"{k}={v:g}" for k, v in r.point.items())
            detail = (f"rel_err={r.relative_error:.3e}"
                      if r.relative_error is not None else r.reason)
            print(f"[{status}] {r.identity_id} ({point}): "
                  f"closed={_format_value(r.closed_form_value)} "
                  f"oracle={_format_value(r.oracle_value)} {detail}",
                  file=sys.stderr)

    _write_reports(all_reports, args.out, args.format)
    return 0 if all(r.passed for r in all_reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbralint",
        description="Evaluate cataloged special-function integrals in closed "
                    "form and verify them against an independent quadrature "
                    "oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the identity catalog")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=_cmd_list)

    p_eval = sub.add_parser("eval", help="evaluate a cataloged function")
    p_eval.add_argument("function")
    p_eval.add_argument("args", nargs="*")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify",
                              help="run closed form against the oracle over a grid")
    p_verify.add_argument("identity", help="identity id or 'all'")
    p_verify.add_argument("--grid", action="append",
                          help="name=v1,v2 or name=min:max:n (repeatable)")
    p_verify.add_argument("--tol", type=_parse_tol, default=None)
    p_verify.add_argument("--out", default=None, help="report file path")
    p_verify.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_verify.add_argument("--variant", default=None)
    p_verify.add_argument("--config", default=None,
                          help="key-value file with default grids/tolerances")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
