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
import functools
import inspect
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass, fields
from itertools import product

from . import closedforms, reference, specfun
from .closedforms import CATALOG, get_identity
from .errors import EngineError, QuadratureError

__all__ = ["main", "VerificationReport"]


@dataclass(frozen=True, kw_only=True)
class VerificationReport:
    """One grid-point comparison record, its fields in the record's order.
    What the comparison did not reach is None, 0 or False."""

    identity_id: str
    equation: str
    point: dict
    closed_form_value: complex | None = None
    oracle_value: complex | None = None
    relative_error: float | None = None
    tolerance: float
    passed: bool = False
    oracle_cost: int = 0
    oracle_error_estimate: float | None = None
    closed_time: float = 0.0
    oracle_time: float = 0.0
    reason: str = ""

    def to_record(self) -> dict:
        """The fields under their record keys, each complex value as {re, im}."""
        return {key: _complex_json(getattr(self, name)) if name in _COMPLEX_COLUMNS
                else getattr(self, name) for name, key in _RECORD_KEYS}


# (field, record key) in order, ``passed`` written as ``pass``; the CSV
# writes each complex value as two columns, its real and imaginary parts
_RECORD_KEYS = tuple((f.name, "pass" if f.name == "passed" else f.name)
                     for f in fields(VerificationReport))
_COMPLEX_COLUMNS = {"closed_form_value": ("closed_re", "closed_im"),
                    "oracle_value": ("oracle_re", "oracle_im")}


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
    """Compare closed form and oracle at one grid point.  It passes when the
    ``relative_error`` |closed - oracle| / max(|closed|, |oracle|, 1) <= tol."""
    report = functools.partial(VerificationReport, identity_id=identity.id,
                               equation=identity.equation, point=dict(params), tolerance=tol)
    ok, reason = identity.check_point(params)
    if not ok:
        return report(reason=f"outside domain: {reason}")
    closed_form = identity.variants[variant] if variant else identity.closed
    start = time.perf_counter()
    try:
        closed = complex(closed_form(**params))
    except EngineError as exc:
        return report(closed_time=time.perf_counter() - start,
                      reason=f"closed-form failure: {exc}")
    closed_time = time.perf_counter() - start
    # run the oracle a factor 4 tighter than the comparison so its own
    # error budget cannot consume the tolerance being certified
    scale = max(abs(closed), 1.0)
    start = time.perf_counter()
    try:
        oracle_result = identity.oracle_eval(params, 0.25 * tol * scale)
    except EngineError as exc:
        partial = exc.partial if isinstance(exc, QuadratureError) else None
        return report(closed_form_value=closed, closed_time=closed_time,
                      oracle_time=time.perf_counter() - start,
                      reason=f"oracle failure: {exc}", **_oracle_fields(partial))
    oracle_time = time.perf_counter() - start
    oracle_value = complex(oracle_result.value)
    # judged on the scale the oracle's budget used, and never below 1
    error = abs(closed - oracle_value) / max(abs(closed), abs(oracle_value), 1.0)
    return report(closed_form_value=closed, oracle_value=oracle_value, relative_error=error,
                  passed=error <= tol, closed_time=closed_time, oracle_time=oracle_time,
                  **_oracle_fields(oracle_result))


def _oracle_fields(result) -> dict:
    """The report fields of an oracle result, partial or not: its cost and
    error estimate; none without a result."""
    if result is None:
        return {}
    return {"oracle_cost": result.evaluations, "oracle_error_estimate": result.abs_error_estimate}


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
    or <identity>.tol = x, for any cataloged identity and one of its
    parameters.  '#' starts a comment."""
    parameters = {d.id: d.parameters for d in CATALOG}
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
            identity, *rest = key.split(".")
            if identity in parameters and rest == ["tol"]:
                tols[identity] = _parse_tol(value)
            elif (identity in parameters and len(rest) == 2 and rest[0] == "grid"
                  and rest[1] in parameters[identity]):
                grids.setdefault(identity, {})[rest[1]] = _parse_values(value)
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
_FINITE = "finite sum in floating point, cancellation not bounded"
_EXACT = "closed form (exact)"

# (function, accuracy note, the parameters that take complex values); eval
# passes the required parameters, all others must be real since the kernels
# order them, and each function checks its own integer orders
_EVAL_FUNCS = {
    "gamma": (specfun.gamma, _CLOSED_APPROX, ("z",)),
    "beta": (specfun.beta, _CLOSED_APPROX, ("a", "b")),
    "bessel_j": (specfun.bessel_j, _SERIES, ()),
    "bessel_i": (specfun.bessel_i, _SERIES, ()),
    "struve_h": (specfun.struve_h, _SERIES, ()),
    "b_nu": (specfun.b_nu, _SERIES, ("x",)),
    "pseudo_trig": (specfun.pseudo_trig, _SERIES, ("x",)),
    "hermite_higher": (specfun.hermite_higher, _FINITE, ("u", "v")),
    "hermite_hybrid": (specfun.hermite_hybrid, _FINITE, ("x", "y")),
    "truncated_e": (specfun.truncated_e, _FINITE, ("x", "y")),
    "hermite_tricomi": (specfun.hermite_tricomi, _SERIES, ("x", "y")),
    "fresnel_bessel": (closedforms.fresnel_bessel, _SERIES, ()),
    "struve_halfline": (closedforms.struve_halfline_integral, _EXACT, ()),
    "struve_moment": (closedforms.struve_moment_integral, _EXACT, ()),
    "bessel_gauss_dilation": (closedforms.bessel_gauss_dilation, _SERIES, ()),
    "lorentz_gauss": (closedforms.lorentz_gauss_integral, _SERIES, ("x",)),
    "bessel_generating": (closedforms.bessel_generating_function, _SERIES, ("t",)),
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
    fn, note, complex_params = _EVAL_FUNCS[name]
    params = [p.name for p in inspect.signature(fn).parameters.values()
              if p.default is p.empty]
    if len(args.args) != len(params):
        print(f"{name} takes {len(params)} argument(s)", file=sys.stderr)
        return 2
    try:
        values = [_parse_scalar(a) for a in args.args]
    except ValueError as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2
    for param, value in zip(params, values):
        if isinstance(value, complex) and param not in complex_params:
            print(f"domain error: {name} needs a real {param}, got {value!r}",
                  file=sys.stderr)
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
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow([column for name, key in _RECORD_KEYS
                         for column in _COMPLEX_COLUMNS.get(name, (key,))])
        for r in reports:
            row = []
            for key, value in r.to_record().items():
                if key in _COMPLEX_COLUMNS:
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


def _settings(args):
    """(identity, grid, tolerance, variant) for each selected identity, in
    catalog order.  A grid is the defaults, then the config's lines, then the
    --grid values the identity takes; the tolerance is --tol, else the
    config's, else the default.  A setting that no selected identity takes
    raises ValueError with the message to print."""
    try:
        identities = list(CATALOG) if args.identity == "all" else [get_identity(args.identity)]
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    grids, tols = {}, {}
    if args.config:
        try:
            grids, tols = _load_config(args.config)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config error: {exc}") from None
    try:
        overrides = dict(_parse_grid_option(option) for option in args.grid or ())
    except ValueError as exc:
        raise ValueError(f"grid error: {exc}") from None
    taken = {name for d in identities for name in d.parameters}
    if not taken.issuperset(overrides):
        raise ValueError(f"grid error: unknown grid parameter(s) {sorted(set(overrides) - taken)} "
                         f"for {args.identity}; expected one of {sorted(taken)}")
    variants = {name for d in identities for name in d.variants}
    if args.variant is not None and args.variant not in variants:
        raise ValueError(f"{args.identity} has no variant {args.variant!r}; "
                         f"expected one of {sorted(variants)}")
    return [(d, {**d.default_grid, **grids.get(d.id, {}),
                 **{name: values for name, values in overrides.items() if name in d.parameters}},
             args.tol if args.tol is not None else tols.get(d.id, d.default_tol),
             args.variant if args.variant in d.variants else None)
            for d in identities]


def _cmd_verify(args) -> int:
    try:
        settings = _settings(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    # bind scipy now, so that its import is not timed as the first oracle
    reference._special()
    all_reports = []
    for identity, grid, tol, variant in settings:
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


# argparse reads only -<digits> and -<digits>.<digits> as negative numbers
# and anything else that starts with '-' as an option, so -1e-300 and
# -1-2j were refused; this is the pattern later Pythons use
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


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
    for p in (parser, p_list, p_eval, p_verify):
        p._negative_number_matcher = _NEGATIVE_NUMBER
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
