"""Batch command-line front end.

Subcommands: constants, bounds, sandwich, sweep, thresholds, groundstate,
validate.  sweep takes comma-separated --s and --q lists and runs their
s-major product; the others take one --s and one --q.  Each subcommand
returns its params, domain, result, provenance and exit code, and `run`
builds the one record from them.  Output is that record as a JSON document
by default, or with --format csv one row per result item, derived from the
same result (the columns are `_CSV_COLUMNS`); numeric fields are serialized
with 17 significant digits so values round-trip losslessly.  Identical
invocations produce byte-identical output (pass --timing to include wall
time, which breaks that determinism).

Domain grammar: ball:R | interval:a,b | rn:L  (L = truncation half-width).

Exit codes: 0 success, 1 validation/check failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__, bounds, constants, pde, varmin
from .constants import ConstantValue, Params, Regime
from .errors import DomainError, GridError, RegimeError
from .grids import Field, Grid
from .validate import run_validation

_CSV_COLUMNS = {
    "constants": ["which", "N", "s", "p", "q", "value", "kind", "error_estimate",
                  "provenance"],
    "bounds": ["N", "s", "p", "q", "domain", "lower", "upper", "lower_provenance",
               "upper_provenance"],
    "sandwich": ["N", "s", "p", "q", "domain", "lower", "numeric", "upper",
                 "rel_slack_lower", "rel_slack_upper", "pass", "note"],
    "sweep": ["N", "s", "p", "q", "domain", "lower", "numeric", "upper",
              "rel_slack_lower", "rel_slack_upper", "pass", "note"],
    "thresholds": ["N", "s", "q", "S", "c_star", "h_norm_threshold",
                   "lq_norm_threshold", "f3_coeff", "alpha", "lambda_lower"],
    "groundstate": ["s", "q", "I0", "residual_rel", "h_norm_sq", "h_threshold",
                    "lq_norm", "lq_threshold", "iterations", "converged"],
    "validate": ["check", "passed", "detail"],
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_dumps(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return f'"{obj!r}"'
        return format(obj, ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    s = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{s}"'


def _numbers(text: str, flag: str) -> list[float]:
    """The comma-separated list of numbers given to flag."""
    try:
        return [float(v) for v in str(text).split(",")]
    except ValueError:
        raise DomainError(f"bad {flag} {text!r}: expected a number or a "
                          "comma-separated list of numbers") from None


def _number(text: str, flag: str) -> float:
    """The single number given to flag."""
    vals = _numbers(text, flag)
    if len(vals) != 1:
        raise DomainError(f"{flag} takes a single number here, got {text!r}")
    return vals[0]


def _parse_domain(text: str, N: int) -> bounds.DomainSpec:
    kind, _, rest = text.partition(":")
    try:
        if kind == "ball":
            return bounds.DomainSpec.ball(float(rest), N)
        if kind == "interval":
            a, b = (float(v) for v in rest.split(","))
            return bounds.DomainSpec.interval(a, b)
        if kind == "rn":
            return bounds.DomainSpec.whole_space(float(rest) if rest else 200.0)
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(f"bad domain {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"bad domain {text!r}: expected ball:R | interval:a,b | rn:L")


def _parse_field(text: str, grid: Grid) -> Field:
    """Field grammar: const:c | bump:base,amp,width | well:base,depth,width."""
    kind, _, rest = text.partition(":")
    try:
        vals = [float(v) for v in rest.split(",")] if rest else []
        x = grid.x
        if kind == "const" and len(vals) == 1:
            return Field(grid, np.full(grid.points, vals[0]))
        if kind == "bump" and len(vals) == 3:
            base, amp, width = vals
            return Field(grid, base + amp * np.exp(-((x / width) ** 2)))
        if kind == "well" and len(vals) == 3:
            base, depth, width = vals
            return Field(grid, base - depth * np.exp(-((x / width) ** 2)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad field {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"bad field {text!r}: expected const:c | bump:base,amp,width | well:base,depth,width")


def _constant_payload(c: ConstantValue) -> dict:
    return {"value": c.value, "kind": c.kind.value, "provenance": c.provenance,
            "error_estimate": c.error_estimate}


_CONSTANT_DISPATCH = {
    "unit-ball-volume": lambda a: ConstantValue(
        constants.unit_ball_volume(a.N), constants.ConstantKind.CLOSED_FORM,
        "unit-ball-volume"),
    "classical-sobolev": lambda a: constants.classical_sobolev(a.N, a.p or 2.0),
    "isoperimetric": lambda a: constants.isoperimetric(a.N),
    "hardy-sobolev-a": lambda a: constants.hardy_sobolev_A(a.N, a.s),
    "frac-isoperimetric": lambda a: constants.frac_isoperimetric(a.N, a.s),
    "lieb": lambda a: constants.lieb_constant(a.N, a.s),
    "norm-bridge": lambda a: constants.norm_bridge(a.N, a.s),
    "hilbert-sobolev": lambda a: constants.frac_sobolev_hilbert(a.N, a.s),
    "mazya-lower": lambda a: constants.mazya_lower(a.N, a.s, a.p or 2.0),
    "lieb-loss-lower": lambda a: constants.lieb_loss_lower(a.q),
}


def _params_payload(p: Params) -> dict:
    return {"N": p.N, "s": p.s, "p": p.p, "q": p.q, "regime": p.regime().value}


def _domain_payload(d: bounds.DomainSpec) -> dict:
    out = {"kind": d.kind, "dim": d.dim}
    for name in ("radius", "a", "b", "measure", "inradius", "truncation"):
        v = getattr(d, name)
        if v is not None:
            out[name] = v
    return out


def _sandwich_payload(r: varmin.SandwichReport) -> dict:
    return {
        "params": _params_payload(r.params),
        "lower": _constant_payload(r.lower),
        "numeric": _constant_payload(r.numeric) if r.numeric else None,
        "upper": _constant_payload(r.upper),
        "rel_slack_lower": r.rel_slack_lower,
        "rel_slack_upper": r.rel_slack_upper,
        "tol": r.tol,
        "pass": r.passed,
        "note": r.note,
    }


class _Outcome(NamedTuple):
    """What a subcommand computed; `run` turns it into the record."""

    params: dict | None
    domain: dict | None
    result: dict | list
    provenance: list[str]
    code: int = 0


def _csv_rows(args, out: _Outcome) -> list[dict]:
    """One row per result item (the result itself, or each entry of a list):
    the argv fields, then the record's params, then the item, with nested
    params spread out and each constant payload under key flattened to
    <key> (its value) and <key>_provenance."""
    rows = []
    for item in out.result if isinstance(out.result, list) else [out.result]:
        if "error" in item:   # a sweep point that raised
            rows.append({**item["params"], "domain": args.domain, "pass": False,
                         "note": f"error: {item['error']}"})
            continue
        row = {**vars(args), **(out.params or {})}
        for key, val in item.items():
            if key == "params":
                row.update(val)
            elif isinstance(val, dict):
                row[key], row[f"{key}_provenance"] = val["value"], val["provenance"]
            else:
                row[key] = val
        rows.append(row)
    return rows


def _emit(args, record: dict, out: _Outcome) -> None:
    if args.format == "csv":
        columns = _CSV_COLUMNS[args.cmd]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in _csv_rows(args, out):
            writer.writerow({k: ("" if row.get(k) is None else _fmt(row.get(k)))
                             for k in columns})
        text = buf.getvalue()
    else:
        text = _dumps(record) + "\n"
    path = getattr(args, "out", None)   # validate has no --out
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn_tm_constants(args, points: list[Params]) -> None:
    """Limiting-case lower bounds carry C1/C2; say so when they are defaulted."""
    if (getattr(args, "c1", 1.0) == 1.0 and args.c2 == 1.0
            and any(p.regime() is Regime.LIMITING for p in points)):
        print("warning: Trudinger-Moser constants --c1/--c2 defaulted to 1.0; "
              "limiting-case lower bounds are normalized, not certified",
              file=sys.stderr)


def _constants(args) -> _Outcome:
    params = {"N": args.N, "s": _number(args.s, "--s"), "p": args.p,
              "q": _number(args.q, "--q")}
    c = _CONSTANT_DISPATCH[args.which](argparse.Namespace(**params))
    return _Outcome(params, None, _constant_payload(c), [c.provenance])


def _bounds(args) -> _Outcome:
    params = Params(args.N, _number(args.s, "--s"), args.p, _number(args.q, "--q"))
    _warn_tm_constants(args, [params])
    domain = _parse_domain(args.domain, args.N)
    pair = bounds.bounds_for(params, domain, C1=args.c1, C2=args.c2)
    return _Outcome(_params_payload(params), _domain_payload(domain),
                    {"lower": _constant_payload(pair.lower),
                     "upper": _constant_payload(pair.upper)},
                    [pair.lower.provenance, pair.upper.provenance])


def _sandwich(args) -> _Outcome:
    """sandwich (one point) and sweep (the s-major product of the lists)."""
    ss, qs = _numbers(args.s, "--s"), _numbers(args.q, "--q")
    if args.cmd == "sandwich" and (len(qs) > 1 or len(ss) > 1):
        raise DomainError("sandwich takes a single (s, q); use sweep for lists")
    plist = [Params(args.N, s_, args.p, q_) for s_ in ss for q_ in qs]
    _warn_tm_constants(args, plist)
    domain = _parse_domain(args.domain, args.N)
    grid = varmin.default_grid(domain, args.grid, args.box)
    cfg = varmin.SolverConfig(max_iters=args.max_iters)
    reports = varmin.sweep(plist, domain, cfg, grid, tol=args.tol,
                           C1=args.c1, C2=args.c2)
    payloads, prov = [], []
    for point, rep in zip(plist, reports):
        if isinstance(rep, Exception):
            payloads.append({"params": _params_payload(point),
                             "error": f"{type(rep).__name__}: {rep}"})
        else:
            payloads.append(_sandwich_payload(rep))
            prov += [c.provenance for c in (rep.lower, rep.upper, rep.numeric) if c]
    if args.cmd == "sweep":
        bad = any(isinstance(r, Exception) or not r.passed for r in reports)
        return _Outcome({"N": args.N, "s": ss, "p": args.p, "q": qs},
                        _domain_payload(domain), payloads, prov, 1 if bad else 0)
    rep = reports[0]
    if isinstance(rep, Exception):
        print(f"error: {rep}", file=sys.stderr)
        code = 2
    else:
        code = 0 if rep.passed else 1
    return _Outcome(_params_payload(plist[0]), _domain_payload(domain), payloads[0],
                    prov, code)


def _thresholds(args) -> _Outcome:
    s, q = _number(args.s, "--s"), _number(args.q, "--q")
    params = Params(args.N, s, 2.0, q)
    regime = params.regime()
    S = args.S
    note = "caller-supplied S"
    if S is None:
        if regime is Regime.HILBERT:
            S = bounds.hilbert_wholespace_bounds(params).lower.value
            note = "S = certified whole-space lower bound"
        elif regime is Regime.LIMITING:
            _warn_tm_constants(args, [params])
            S = bounds.limiting_wholespace_lower(q, args.c2).value
            note = "S = whole-space lower bound at supplied C2"
        else:
            raise RegimeError(f"no default S available in regime {regime.value}")
    c_star = pde.ps_level(s, q, S)
    hthr, lthr = pde.existence_thresholds(q, S)
    f3 = pde.growth_coefficient(q, S) if regime is Regime.LIMITING else None
    alpha = lam_lo = None
    if regime is Regime.HILBERT:
        alpha = pde.coupling_alpha(args.N, s, q, S)
        if 0.0 < alpha < 1.0:
            lam_lo = pde.coupling_lambda_interval(alpha)[0]
    return _Outcome(_params_payload(params), None,
                    {"S": S, "S_note": note, "c_star": c_star,
                     "h_norm_threshold": hthr, "lq_norm_threshold": lthr,
                     "f3_coeff": f3, "alpha": alpha, "lambda_lower": lam_lo}, [])


def _groundstate(args) -> _Outcome:
    s, q = _number(args.s, "--s"), _number(args.q, "--q")
    box = args.box if args.box is not None else 40.0
    grid = Grid(half_width=box, points=args.grid)
    V = _parse_field(args.V, grid)
    Q = _parse_field(args.Q, grid)
    if np.max(np.abs(Q.values - 1.0)) > 1e-12:
        pde.check_weight_hypotheses(Q)
    if np.max(np.abs(V.values - 1.0)) > 1e-12:
        pde.check_potential_hypotheses(V)
    res = varmin.minimize_quotient(grid, None, s, q, "whole_space",
                                   varmin.SolverConfig(max_iters=args.max_iters))
    u0, I0, rep = pde.ground_state_solve(grid, s, q, V, Q, max_iters=args.max_iters,
                                         S_reference=res.estimate)
    result = {
        "I0": I0, "iterations": rep.iterations, "converged": rep.converged,
        "residual": rep.residual, "residual_rel": rep.residual_rel,
        "residual_ok": rep.residual_ok,
        "h_norm_sq": rep.h_norm_sq, "h_threshold": rep.h_threshold,
        "lq_norm": rep.lq_norm, "lq_threshold": rep.lq_threshold,
        "S_numeric": res.estimate,
        "thresholds_satisfied": bool(rep.h_norm_sq < rep.h_threshold
                                     and rep.lq_norm < rep.lq_threshold),
    }
    return _Outcome({"N": 1, "s": s, "p": 2.0, "q": q},
                    {"kind": "whole_space", "dim": 1, "truncation": box},
                    result, ["rayleigh-numeric"],
                    0 if (rep.converged and rep.residual_ok) else 1)


def _validate(args) -> _Outcome:
    results = run_validation()
    checks = [{"check": r.name, "passed": r.passed, "detail": r.detail}
              for r in results]
    return _Outcome(None, None, checks, [], 0 if all(r.passed for r in results) else 1)


_COMMANDS = {"constants": _constants, "bounds": _bounds, "sandwich": _sandwich,
             "sweep": _sandwich, "thresholds": _thresholds,
             "groundstate": _groundstate, "validate": _validate}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracsob",
        description="Fractional Sobolev embedding constants: exact values, "
                    "bounds, numeric estimates and PDE thresholds.",
        epilog="CSV columns per subcommand: "
               + "; ".join(f"{k}: {','.join(v)}" for k, v in _CSV_COLUMNS.items()))
    ap.add_argument("--version", action="version", version=f"fracsob {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, solver=False):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        p.add_argument("--timing", action="store_true",
                       help="include wall time (breaks byte-identical output)")
        p.add_argument("--N", type=int, default=1)
        p.add_argument("--s", type=str, default="0.5")
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--q", type=str, default="2")
        if solver:
            p.add_argument("--grid", type=int, default=4096,
                           help="grid points (power of two)")
            p.add_argument("--box", type=float, default=None,
                           help="grid half-width (default: domain-derived)")
            p.add_argument("--max-iters", type=int, default=20000)

    def bracket(p, solver=False):
        common(p, solver=solver)
        if solver:
            p.add_argument("--tol", type=float, default=0.02,
                           help="sandwich acceptance tolerance")
        p.add_argument("--domain", default="rn:200")
        p.add_argument("--c1", type=float, default=1.0)
        p.add_argument("--c2", type=float, default=1.0)

    pc = sub.add_parser("constants", help="evaluate one exact constant")
    common(pc)
    pc.add_argument("--which", required=True, choices=sorted(_CONSTANT_DISPATCH))

    bracket(sub.add_parser("bounds", help="lower/upper bounds at one point"))
    bracket(sub.add_parser("sandwich", help="bounds + numeric estimate + check"),
            solver=True)
    bracket(sub.add_parser("sweep", help="sandwich over comma-separated s/q lists"),
            solver=True)

    pt = sub.add_parser("thresholds", help="PDE threshold constants from S")
    common(pt)
    pt.add_argument("--S", type=float, default=None,
                    help="embedding constant (default: certified lower bound)")
    pt.add_argument("--c2", type=float, default=1.0)

    pg = sub.add_parser("groundstate", help="constrained ground-state solve")
    common(pg, solver=True)
    pg.add_argument("--V", default="const:1", help="potential field")
    pg.add_argument("--Q", default="bump:1,2,1", help="weight field")

    sub.add_parser("validate", help="run the oracle cross-check suite").add_argument(
        "--format", choices=("json", "csv"), default="json")
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        out = _COMMANDS[args.cmd](args)
    except (DomainError, RegimeError, GridError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        ap.print_usage(sys.stderr)
        return 2
    command = ["fracsob"] + list(argv if argv is not None else sys.argv[1:])
    if args.cmd == "validate":
        npass = sum(c["passed"] for c in out.result)
        record = {"command": command, "checks": out.result, "passed": npass,
                  "failed": len(out.result) - npass}
    else:
        record = {"command": command, "params": out.params, "domain": out.domain,
                  "result": out.result, "provenance": sorted(set(out.provenance)),
                  "wall_time_s": (time.perf_counter() - t0) if args.timing else None}
    _emit(args, record, out)
    return out.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
