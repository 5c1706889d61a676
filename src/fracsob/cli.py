"""Batch command-line front end.

Subcommands: constants, bounds, sandwich, sweep, thresholds, groundstate,
validate.  sweep takes comma-separated --s and --q lists and runs their
s-major product; the others take one --s and one --q.  Each subcommand
returns its params, domain, result, provenance and exit code, and `run`
builds the one record from them.  Output is that record as a JSON document
by default, or with --format csv one row per result item, derived from the
same result (the columns are `_CSV_COLUMNS`).  The standard library's json
and csv write them: a number prints as Python's shortest round-trip text (an
integral float as 3.0), which parses back to the same double, and a record
holds only finite numbers.  Identical invocations produce byte-identical
output (pass --timing to include wall time, which breaks that determinism).

argparse types every number flag.  The CLI parses by hand only the two
grammars that need N or the grid: the domain, ball:R | interval:a,b | rn:L
(L = truncation half-width, the box a whole-space solve runs on; a bare rn
is rn:200), and the fields of --V/--Q.
A bad --c1/--c2 is the library's refusal, even where no point reads it:
`bounds.bounds_for` makes it at a point, `varmin.sweep` before any point.

Exit codes: 0 success, 1 validation/check failure, 2 usage error or refusal.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__, bounds, constants, pde, varmin
from .constants import ConstantValue, Params, Regime, _positive
from .errors import DomainError, FracsobError
from .grids import Field, Grid
from .validate import run_validation

_SANDWICH_COLUMNS = ["N", "s", "p", "q", "domain", "lower", "numeric", "upper",
                     "rel_slack_lower", "rel_slack_upper", "pass", "note"]
_CSV_COLUMNS = {
    "constants": ["which", "N", "s", "p", "q", "value", "kind", "error_estimate",
                  "provenance"],
    "bounds": ["N", "s", "p", "q", "domain", "lower", "upper", "lower_provenance",
               "upper_provenance"],
    "sandwich": _SANDWICH_COLUMNS,
    "sweep": _SANDWICH_COLUMNS,
    "thresholds": ["N", "s", "q", "S", "c_star", "h_norm_threshold",
                   "lq_norm_threshold", "f3_coeff", "alpha", "lambda_lower"],
    "groundstate": ["s", "q", "I0", "residual_rel", "h_norm_sq", "h_threshold",
                    "lq_norm", "lq_threshold", "iterations", "converged"],
    "validate": ["check", "passed", "detail"],
}


def _numbers(text: str) -> list[float]:
    """The argparse type of sweep's --s and --q: a comma-separated list of
    numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or a comma-separated list of numbers, got {text!r}"
        ) from None


def _parse_domain(text: str, N: int) -> bounds.DomainSpec:
    kind, _, rest = text.partition(":")
    try:
        if kind == "ball":
            return bounds.DomainSpec.ball(float(rest), N)
        if kind == "interval" and rest.count(",") == 1:
            a, b = (float(v) for v in rest.split(","))
            return bounds.DomainSpec.interval(a, b)
        if kind == "rn":
            return (bounds.DomainSpec.whole_space(float(rest), N) if rest
                    else bounds.DomainSpec.whole_space(N=N))
    except ValueError as exc:   # DomainError is a ValueError
        raise DomainError(f"bad domain {text!r}: {exc}") from exc
    raise DomainError(f"bad domain {text!r}: expected ball:R | interval:a,b | rn:L")


def _parse_field(text: str, grid: Grid) -> Field:
    """Field grammar: const:c | bump:base,amp,width | well:base,depth,width,
    with finite parameters and a positive width."""
    kind, _, rest = text.partition(":")
    try:
        vals = [float(v) for v in rest.split(",")] if rest else []
        if not all(map(math.isfinite, vals)):
            raise ValueError("parameters must be finite")
        x = grid.x
        if kind == "const" and len(vals) == 1:
            return Field(grid, np.full(grid.points, vals[0]))
        if kind in ("bump", "well") and len(vals) == 3:
            base, height, width = vals
            _positive(width, "width")
            # a narrow width overflows (x/width)^2 to inf, where exp(-inf) = 0
            # is the limit; a sum that overflows is refused by Field
            with np.errstate(over="ignore"):
                bell = np.exp(-((x / width) ** 2))
                return Field(grid, base + height * bell if kind == "bump"
                             else base - height * bell)
    except ValueError as exc:   # GridError is a ValueError
        raise DomainError(f"bad field {text!r}: {exc}") from exc
    raise DomainError(
        f"bad field {text!r}: expected const:c | bump:base,amp,width | well:base,depth,width")


def _constant_payload(c: ConstantValue) -> dict:
    return {"value": c.value, "kind": c.kind.value, "provenance": c.provenance,
            "error_estimate": c.error_estimate}


_CONSTANT_DISPATCH = {
    "unit-ball-volume": lambda a: ConstantValue(
        constants.unit_ball_volume(a.N), constants.ConstantKind.CLOSED_FORM,
        "unit-ball-volume"),
    "classical-sobolev": lambda a: constants.classical_sobolev(a.N, a.p),
    "isoperimetric": lambda a: constants.isoperimetric(a.N),
    "hardy-sobolev-a": lambda a: constants.hardy_sobolev_A(a.N, a.s),
    "frac-isoperimetric": lambda a: constants.frac_isoperimetric(a.N, a.s),
    "lieb": lambda a: constants.lieb_constant(a.N, a.s),
    "norm-bridge": lambda a: constants.norm_bridge(a.N, a.s),
    "hilbert-sobolev": lambda a: constants.frac_sobolev_hilbert(a.N, a.s),
    "mazya-lower": lambda a: constants.mazya_lower(a.N, a.s, a.p),
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


def _sandwich_payload(p: Params, r: varmin.SandwichReport) -> dict:
    return {
        "params": _params_payload(p),
        "lower": _constant_payload(r.lower),
        "numeric": _constant_payload(r.numeric) if r.numeric else None,
        "upper": _constant_payload(r.upper),
        "rel_slack_lower": r.rel_slack_lower,
        "rel_slack_upper": r.rel_slack_upper,
        "tol": varmin._SANDWICH_TOL,
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
    <key> (its value) and <key>_provenance.  csv writes a missing or None
    cell empty and a number as its shortest round-trip text."""
    rows = []
    for item in out.result if isinstance(out.result, list) else [out.result]:
        if "error" in item:   # a refused sweep point
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
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS[args.cmd],
                                lineterminator="\n", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(_csv_rows(args, out))
        text = buf.getvalue()
    else:
        text = json.dumps(record, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    path = getattr(args, "out", None)   # validate has no --out
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _warn_tm_constants(args, provenance: list[str]) -> None:
    """Warn where a lower bound read a Trudinger-Moser constant left at its
    default 1.0: its provenance says whether C1 or C2."""
    reads = {"limiting-domain-lower": "c1", "limiting-rn-lower": "c2"}
    for flag in sorted({reads.get(key) for key in provenance} - {None}):
        if getattr(args, flag) == 1.0:
            print(f"warning: Trudinger-Moser constant --{flag} defaulted to 1.0; "
                  "the limiting-case lower bound is normalized, not certified",
                  file=sys.stderr)


def _constants(args) -> _Outcome:
    c = _CONSTANT_DISPATCH[args.which](args)
    return _Outcome({"N": args.N, "s": args.s, "p": args.p, "q": args.q}, None,
                    _constant_payload(c), [c.provenance])


def _bounds(args) -> _Outcome:
    params = Params(args.N, args.s, args.p, args.q)
    domain = _parse_domain(args.domain, args.N)
    pair = bounds.bounds_for(params, domain, C1=args.c1, C2=args.c2)
    return _Outcome(_params_payload(params), _domain_payload(domain),
                    {"lower": _constant_payload(pair.lower),
                     "upper": _constant_payload(pair.upper)},
                    [pair.lower.provenance, pair.upper.provenance])


def _sandwich(args) -> _Outcome:
    """sandwich (one point) and sweep (the s-major product of the lists)."""
    ss, qs = (args.s, args.q) if args.cmd == "sweep" else ([args.s], [args.q])
    plist = [Params(args.N, s_, args.p, q_) for s_ in ss for q_ in qs]
    domain = _parse_domain(args.domain, args.N)
    # `varmin.sweep` checks C1/C2 once and builds the grid only where a point solves
    reports = varmin.sweep(plist, domain, C1=args.c1, C2=args.c2, points=args.grid,
                           half_width=args.box)
    if args.cmd == "sandwich" and isinstance(reports[0], FracsobError):
        raise reports[0]
    payloads, prov = [], []
    for point, rep in zip(plist, reports):
        if isinstance(rep, FracsobError):
            payloads.append({"params": _params_payload(point),
                             "error": f"{type(rep).__name__}: {rep}"})
        else:
            payloads.append(_sandwich_payload(point, rep))
            prov += [c.provenance for c in (rep.lower, rep.upper, rep.numeric) if c]
    if args.cmd == "sweep":
        bad = any(isinstance(r, FracsobError) or not r.passed for r in reports)
        return _Outcome({"N": args.N, "s": ss, "p": args.p, "q": qs},
                        _domain_payload(domain), payloads, prov, 1 if bad else 0)
    return _Outcome(_params_payload(plist[0]), _domain_payload(domain), payloads[0],
                    prov, 0 if reports[0].passed else 1)


def _thresholds(args) -> _Outcome:
    params = Params(args.N, args.s, 2.0, args.q)
    regime = params.regime()
    S = args.S
    note = "caller-supplied S"
    if S is None:
        lower = bounds.bounds_for(params, bounds.DomainSpec.whole_space(N=args.N),
                                  C2=args.c2).lower
        _warn_tm_constants(args, [lower.provenance])   # the record does not print it
        S = lower.value
        note = ("S = certified whole-space lower bound" if regime is Regime.HILBERT
                else f"S = whole-space lower bound at C2={args.c2!r}")
    c_star = pde.ps_level(args.q, S)
    hthr, lthr = pde.existence_thresholds(args.q, S)
    f3 = alpha = lam_lo = None
    if regime is Regime.LIMITING:
        try:
            f3 = pde.growth_coefficient(args.q, S)
        except DomainError:   # ps_level checked q and S: only the range is left
            note += "; f3_coeff not reported: (q/2) S^(q/2) leaves the normal double range"
    if regime is Regime.HILBERT:
        alpha = pde.coupling_alpha(args.N, args.s, args.q, S)
        if 0.0 < alpha < 1.0:
            lam_lo = pde.coupling_lambda_interval(alpha)[0]
    return _Outcome(_params_payload(params), None,
                    {"S": S, "S_note": note, "c_star": c_star,
                     "h_norm_threshold": hthr, "lq_norm_threshold": lthr,
                     "f3_coeff": f3, "alpha": alpha, "lambda_lower": lam_lo}, [])


def _groundstate(args) -> _Outcome:
    grid = Grid(half_width=args.box, points=args.grid)
    V = _parse_field(args.V, grid)
    Q = _parse_field(args.Q, grid)
    u0, I0, rep = pde.ground_state_solve(grid, args.s, args.q, V, Q)
    res = varmin.minimize_quotient(grid, None, args.s, args.q, "whole_space")
    hthr, lthr = pde.existence_thresholds(args.q, res.estimate)
    result = {
        "I0": I0, "iterations": rep.iterations, "converged": rep.converged,
        "residual": rep.residual, "residual_rel": rep.residual_rel,
        "residual_ok": rep.residual_ok,
        "h_norm_sq": rep.h_norm_sq, "h_threshold": hthr,
        "lq_norm": rep.lq_norm, "lq_threshold": lthr,
        "S_numeric": res.estimate,
        "thresholds_satisfied": bool(rep.h_norm_sq < hthr and rep.lq_norm < lthr),
    }
    return _Outcome({"N": 1, "s": args.s, "p": 2.0, "q": args.q},
                    _domain_payload(bounds.DomainSpec.whole_space(args.box)),
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `run` and shared by every later
    call in the process (parsing leaves it unchanged); importing this module
    builds none."""
    ap = argparse.ArgumentParser(
        prog="fracsob",
        description="Fractional Sobolev embedding constants: exact values, "
                    "bounds, numeric estimates and PDE thresholds.",
        epilog="CSV columns per subcommand: "
               + "; ".join(f"{k}: {','.join(v)}" for k, v in _CSV_COLUMNS.items()))
    ap.add_argument("--version", action="version", version=f"fracsob {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, solver=False, N=True, exponent_p=True, q="2", number=float):
        """The shared flags, with q the default of --q and `number` the type of
        --s and --q; --N and --p only where the subcommand reads them."""
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        p.add_argument("--timing", action="store_true",
                       help="include wall time (breaks byte-identical output)")
        if N:
            p.add_argument("--N", type=int, default=1)
        p.add_argument("--s", type=number, default="0.5")
        if exponent_p:
            p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--q", type=number, default=q)
        if solver:
            p.add_argument("--grid", type=int, default=varmin._DEFAULT_POINTS,
                           help="grid points (power of two)")

    def bracket(p, solver=False, number=float):
        common(p, solver=solver, number=number)
        if solver:
            p.add_argument("--box", type=float, default=None,
                           help="grid half-width of a bounded domain (default: 8 x "
                                "its inradius); rn:L solves on its box [-L, L)")
        p.add_argument("--domain", default="rn")
        p.add_argument("--c1", type=float, default=1.0)
        p.add_argument("--c2", type=float, default=1.0)

    pc = sub.add_parser("constants", help="evaluate one exact constant")
    common(pc)
    pc.add_argument("--which", required=True, choices=sorted(_CONSTANT_DISPATCH))

    bracket(sub.add_parser("bounds", help="lower/upper bounds at one point"))
    bracket(sub.add_parser("sandwich", help="bounds + numeric estimate + check"),
            solver=True)
    bracket(sub.add_parser("sweep", help="sandwich over comma-separated s/q lists"),
            solver=True, number=_numbers)

    pt = sub.add_parser("thresholds", help="PDE threshold constants from S")
    common(pt, exponent_p=False, q="4")
    # --c2 is read only to compute S, so a given --S excludes it
    given = pt.add_mutually_exclusive_group()
    given.add_argument("--S", type=float, default=None,
                       help="embedding constant (default: the whole-space lower "
                            "bound of bounds_for)")
    given.add_argument("--c2", type=float, default=1.0)

    pg = sub.add_parser("groundstate", help="constrained ground-state solve")
    common(pg, solver=True, N=False, exponent_p=False, q="4")
    pg.add_argument("--box", type=float, default=40.0,
                    help="grid half-width (default: %(default)g)")
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
    command = ["fracsob"] + list(argv if argv is not None else sys.argv[1:])
    try:
        out = _COMMANDS[args.cmd](args)
        _warn_tm_constants(args, out.provenance)
        if args.cmd == "validate":
            npass = sum(c["passed"] for c in out.result)
            record = {"command": command, "checks": out.result, "passed": npass,
                      "failed": len(out.result) - npass}
        else:
            record = {"command": command, "params": out.params, "domain": out.domain,
                      "result": out.result, "provenance": sorted(set(out.provenance)),
                      "wall_time_s": (time.perf_counter() - t0) if args.timing else None}
        _emit(args, record, out)
    except FracsobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        ap.print_usage(sys.stderr)
        return 2
    return out.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
