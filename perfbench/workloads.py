"""Seeded workload generators, operation runners and the correctness gate.

A workload is a list of operations drawn from the seed with `random.Random`
(pure Python, so the draw does not depend on the numpy version).  The
program only ever sees the generated arguments.  `run_op` executes one
operation and returns its output and the reasons it failed, if any.

Failure reasons come in two classes.  A *check* failure is the program
honestly reporting that its estimate missed its own bracket (a sandwich with
pass=false) or that its solver stopped short (a ground state that is not
converged with an acceptable residual).  Every other reason -- an exception,
CLI exit code 2, a failed `validate` check, a negative Moser slack, a
`QuadratureError`, an oracle mismatch, or a drift from the recorded
reference -- means the output is wrong, and clears the run's `correct` flag.
Both classes count as failed operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random

WORKLOADS = ("cli-mix", "fine-grid", "oracles")
DEFAULT_SEED = 0

# failure reasons that are the program's own honest verdict, not a wrong output
CHECK_REASONS = frozenset({"pass=false", "not-converged"})

# reference tolerances (relative) for the default seed: solver estimates may
# move by a quarter of the sandwich's 2% acceptance band (a changed descent
# path stops at a slightly different point); the numbers of an operation that
# runs adaptive quadrature (rules at rel_tol 1e-8 to 1e-10) may move by the
# tightest oracle bound, 1e-6; closed forms must agree to 1e-8
SOLVER_KEYS = frozenset({"numeric", "I0", "S_numeric", "estimate"})
SOLVER_RTOL = 5e-3
QUADRATURE_RTOL = 1e-6
EXACT_RTOL = 1e-8
# closed forms that sit next to quadrature values in an oracle's output
CLOSED_FORM_KEYS = frozenset({"oracle", "bound"})
QUADRATURE_KINDS = frozenset({"hardy-A", "gagliardo-bump", "gagliardo-char", "moser"})
# work counts and quadrature error estimates, not results: compared between
# passes, never to the reference
UNCOMPARED_KEYS = frozenset({"iterations", "error_estimate"})


def _r(x: float, nd: int = 3) -> float:
    return round(x, nd)


def _design(rng: random.Random, ranges: list[tuple[float, float]], n: int
            ) -> list[tuple[float, ...]]:
    """n points in the box spanned by `ranges`, one in each of n equal
    slices of every range.

    Point i lies in slice i of the first range and in slice (m_j i) mod n of
    range j, with a fixed multiplier m_j coprime to n (a rank-1 lattice), at
    a seeded uniform position inside each slice.  Every seed thus covers the
    box evenly with the same cells, so a pass costs about the same for every
    seed, while each point still moves with the seed.
    """
    coprime = [m for m in range(1, n + 1) if math.gcd(m, n) == 1]
    # m_0 = 1; later multipliers sit near n * frac(j / golden ratio), which
    # keeps any two coordinates from running in step
    mults = [min(coprime, key=lambda m: abs(m - n * ((j * 0.618034) % 1.0)))
             for j in range(len(ranges))]
    return [tuple(lo + (hi - lo) / n * ((m * i) % n + rng.random())
                  for m, (lo, hi) in zip(mults, ranges))
            for i in range(n)]


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One seeded draw from each of n equal slices of [lo, hi], in order."""
    return [x for (x,) in _design(rng, [(lo, hi)], n)]


def _hilbert_q(s: float, u: float) -> float:
    """q = 2 + u (q* - 2) in (2, q*) for N = 1, q* = 2/(1-2s); u is drawn
    from [0.02, 0.98] so that 3-decimal rounding cannot land on an excluded
    endpoint."""
    return _r(2.0 + (2.0 / (1.0 - 2.0 * s) - 2.0) * u)


def _cli(argv: list[str]) -> dict:
    return {"kind": "cli", "argv": argv}


def gen_cli_mix(rng: random.Random, smoke: bool) -> list[dict]:
    def n(full):
        return 1 if smoke else full

    ops = []
    box = ["--box", "8"]
    for domain, extra in (("rn:200", []), ("interval:-1,1", box)):
        for s, u in _design(rng, [(0.1, 0.45), (0.02, 0.98)], n(16)):
            ops.append(_cli(["sandwich", "--p", "2", "--N", "1", "--s", str(_r(s)),
                             "--q", str(_hilbert_q(_r(s), u)), "--domain", domain] + extra))
    for domain, extra in (("rn:200", []), ("interval:-1,1", box)):
        for q in _strata(rng, 3.0, 8.0, n(4)):
            ops.append(_cli(["sandwich", "--p", "2", "--N", "1", "--s", "0.5", "--q",
                             str(_r(q)), "--domain", domain] + extra))
    for N in (2, 3):
        for s, u in _design(rng, [(0.1, 0.9), (0.02, 0.98)], n(3)):
            q = 1.0 + (N / (N - _r(s)) - 1.0) * u
            ops.append(_cli(["sandwich", "--p", "1", "--N", str(N), "--s", str(_r(s)),
                             "--q", str(_r(q)), "--domain", "ball:1"]))
    draws = _design(rng, [(0.4, 0.6), (3.0, 5.0), (1.0, 3.0), (0.5, 1.5), (0.2, 0.5)], n(4))
    for i, (s, q, amp, width, depth) in enumerate(draws):
        V = "const:1" if i % 2 == 0 else f"well:1,{_r(depth, 2)},1"
        ops.append(_cli(["groundstate", "--s", str(_r(s)), "--q", str(_r(q)),
                         "--box", "40", "--grid", "4096", "--V", V,
                         "--Q", f"bump:1,{_r(amp, 2)},{_r(width, 2)}"]))
    s = _r(rng.uniform(0.2, 0.3))
    qs = sorted(_hilbert_q(s, u) for u in _strata(rng, 0.02, 0.98, 3))
    ops.append(_cli(["sweep", "--p", "2", "--N", "1", "--s", str(s), "--q",
                     ",".join(map(str, qs)), "--domain", "rn:200"]))
    for s, u in _design(rng, [(0.1, 0.45), (0.02, 0.98)], n(3)):
        ops.append(_cli(["thresholds", "--N", "1", "--s", str(_r(s)), "--q",
                         str(_hilbert_q(_r(s), u))]))
    if not smoke:
        ops.append(_cli(["thresholds", "--N", "1", "--s", "0.5", "--q",
                         str(_r(rng.uniform(3.0, 8.0)))]))
    # each constant at a fixed dimension, so its cost does not hop with the seed
    which = [("frac-isoperimetric", 2), ("hilbert-sobolev", 1), ("lieb", 3),
             ("norm-bridge", 2)]
    for (w, N), s in zip(which, _strata(rng, 0.1, 0.45, n(4))):
        ops.append(_cli(["constants", "--N", str(N), "--s", str(_r(s)), "--which", w]))
    ops.append(_cli(["validate"]))
    rng.shuffle(ops)
    return ops


def gen_fine_grid(rng: random.Random, seed: int, smoke: bool) -> list[dict]:
    # the default seed is the Tier-1 slow case; the band around it keeps the
    # seed-to-seed spread of the ladder's cost inside the benchmark's bounds
    q = 32.0 if seed == DEFAULT_SEED else _r(rng.uniform(31.0, 33.0))
    ladder = (2048, 4096) if smoke else (2048, 4096, 8192, 16384)
    # The fixed solves go first, so that they start from the same heap state
    # whatever the seed: their timing then does not depend on the ladder's q.
    # The ground state runs three times: it is the median operation, and a
    # median over three solves is steadier than one ~0.8 s sample.
    gs = {"kind": "ground-state", "s": 0.5, "q": 4.0, "L": 40.0,
          "M": 2048 if smoke else 16384, "Q": [1.0, 2.0, 1.0]}
    ops = [dict(gs) for _ in range(1 if smoke else 3)]
    ops.append({"kind": "domain-solve", "s": 0.75, "q": 3.0, "a": -1.0, "b": 1.0,
                "L": 8.0, "M": 1024 if smoke else 8192})
    ops += [{"kind": "ladder", "s": 0.5, "q": q, "L": 10.0, "M": M} for M in ladder]
    return ops


def gen_oracles(rng: random.Random, smoke: bool) -> list[dict]:
    def n(full):
        return 1 if smoke else full

    ops = [{"kind": "validate"}]
    # distinct (N, s) points, so every Hardy A quadrature starts cold
    for N in (2,) if smoke else (2, 3, 4):
        for s in _strata(rng, 0.1, 0.9, n(2)):
            ops.append({"kind": "hardy-A", "N": N, "s": _r(s)})
    for s in [] if smoke else _strata(rng, 0.1, 0.45, 2):  # ~1.5 s each
        ops.append({"kind": "gagliardo-bump", "s": _r(s), "k": 1.0})
    for s, k in _design(rng, [(0.1, 0.9), (0.5, 2.0)], n(2)):
        ops.append({"kind": "gagliardo-char", "s": _r(s), "k": _r(k)})
    for lk, K in _design(rng, [(math.log(0.01), math.log(0.4)), (0.5, 1.0)], n(10)):
        k = _r(math.exp(lk), 4)
        ops.append({"kind": "moser", "k": k, "K": _r(max(K, 1.5 * k))})
    return ops


def generate(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The operations of one workload pass, with stable ids."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-mix":
        ops = gen_cli_mix(rng, smoke)
    elif workload == "fine-grid":
        ops = gen_fine_grid(rng, seed, smoke)
    elif workload == "oracles":
        ops = gen_oracles(rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, op in enumerate(ops):
        op["id"] = f"{i:02d}-{op['argv'][0] if op['kind'] == 'cli' else op['kind']}"
    return ops


# ---------------------------------------------------------------------------
# execution


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _sandwich_out(res: dict) -> tuple[dict, list[str]]:
    num = res["numeric"]
    out = {"lower": res["lower"]["value"], "upper": res["upper"]["value"],
           "numeric": num["value"] if num else None, "pass": res["pass"]}
    return out, ([] if res["pass"] else ["pass=false"])


def _cli_gate(cmd: str, doc: dict) -> tuple[object, list[str]]:
    res = doc.get("result")
    if cmd == "sandwich":
        if "error" in res:
            return res, ["error-payload"]
        return _sandwich_out(res)
    if cmd == "sweep":
        outs, reasons = [], []
        for r in res:
            if "error" in r:
                outs.append(r)
                reasons.append("error-payload")
                continue
            o, why = _sandwich_out(r)
            outs.append(o)
            reasons += why
        return outs, sorted(set(reasons))
    if cmd == "groundstate":
        out = {k: res[k] for k in ("I0", "S_numeric", "converged", "residual_ok",
                                   "iterations")}
        ok = res["converged"] and res["residual_ok"]
        return out, ([] if ok else ["not-converged"])
    if cmd == "thresholds":
        return {k: v for k, v in res.items() if k != "S_note"}, []
    if cmd == "constants":
        return {"value": res["value"]}, []
    if cmd == "validate":
        failed = [c["check"] for c in doc["checks"] if not c["passed"]]
        return ({"passed": doc["passed"], "failed": doc["failed"], "failed_checks": failed},
                (["validate-failed"] if failed else []))
    raise ValueError(f"unknown command {cmd!r}")


def _run_cli(fracsob, op: dict, timer) -> tuple[object, list[str], float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = timer()
        code = fracsob.cli.run(list(op["argv"]))
        dt = timer() - t0
    if code == 2:
        return {"exit": code, "stderr": err.getvalue()[-300:]}, ["exit:2"], dt
    output, reasons = _cli_gate(op["argv"][0], json.loads(out.getvalue()))
    if code != 0 and not reasons:
        reasons = [f"exit:{code}"]
    return output, reasons, dt


def _run_lib(fracsob, op: dict, timer) -> tuple[object, list[str], float]:
    import numpy as np

    kind = op["kind"]
    t0 = timer()
    if kind == "ladder":
        p = fracsob.Params(1, op["s"], 2.0, op["q"])
        rep = fracsob.varmin.sandwich(p, fracsob.DomainSpec.whole_space(op["L"]),
                                      grid=fracsob.Grid(op["L"], op["M"]))
        dt = timer() - t0
        out = {"lower": rep.lower.value, "upper": rep.upper.value,
               "numeric": rep.numeric.value, "pass": bool(rep.passed), "note": rep.note}
        return out, ([] if rep.passed else ["pass=false"]), dt
    if kind == "domain-solve":
        grid = fracsob.Grid(op["L"], op["M"])
        mask = fracsob.varmin.domain_mask(grid, fracsob.DomainSpec.interval(op["a"], op["b"]))
        res = fracsob.varmin.minimize_quotient(grid, mask, op["s"], op["q"], "domain")
        dt = timer() - t0
        out = {"estimate": float(res.estimate), "converged": bool(res.converged),
               "iterations": int(res.iterations)}
        ok = res.converged and math.isfinite(res.estimate) and res.estimate > 0
        return out, ([] if ok else ["not-converged"]), dt
    if kind == "ground-state":
        grid = fracsob.Grid(op["L"], op["M"])
        base, amp, width = op["Q"]
        V = fracsob.Field(grid, np.ones(grid.points))
        Q = fracsob.Field(grid, base + amp * np.exp(-((grid.x / width) ** 2)))
        _, I0, rep = fracsob.pde.ground_state_solve(grid, op["s"], op["q"], V, Q)
        dt = timer() - t0
        out = {"I0": float(I0), "converged": bool(rep.converged),
               "residual_ok": bool(rep.residual_ok), "iterations": int(rep.iterations)}
        ok = rep.converged and rep.residual_ok
        return out, ([] if ok else ["not-converged"]), dt
    if kind == "validate":
        results = fracsob.validate.run_validation()
        dt = timer() - t0
        failed = [r.name for r in results if not r.passed]
        out = {"passed": len(results) - len(failed), "failed": len(failed),
               "failed_checks": failed}
        return out, (["validate-failed"] if failed else []), dt
    if kind == "hardy-A":
        c = fracsob.constants.hardy_sobolev_A(op["N"], op["s"])
        dt = timer() - t0
        out = {"value": c.value, "error_estimate": c.error_estimate}
        ok = math.isfinite(c.value) and c.value > 0 and c.error_estimate <= 1e-6 * c.value
        return out, ([] if ok else ["oracle"]), dt
    if kind == "gagliardo-bump":
        s, k = op["s"], op["k"]
        got = fracsob.rayleigh.gagliardo_seminorm_1d(
            fracsob.rayleigh.RadialProfile.bump(k, s), s, 2)
        dt = timer() - t0
        # Gagliardo seminorm^2 = (2 / B(1,s)) * half-Laplacian energy
        want = (2.0 / fracsob.constants.norm_bridge(1, s).value
                * fracsob.rayleigh.bump_seminorm_sq(1, s, k))
        out = {"value": got, "oracle": want}
        return out, ([] if _rel(got, want) <= 1e-3 else ["oracle"]), dt
    if kind == "gagliardo-char":
        s, k = op["s"], op["k"]
        got = fracsob.rayleigh.gagliardo_seminorm_1d(
            fracsob.rayleigh.RadialProfile.char_ball(k), s, 1)
        dt = timer() - t0
        # twice the s-perimeter of an interval of length 2k
        want = 4.0 * (2.0 * k) ** (1.0 - s) / (s * (1.0 - s))
        out = {"value": got, "oracle": want}
        return out, ([] if _rel(got, want) <= 1e-6 else ["oracle"]), dt
    if kind == "moser":
        numeric, bound, slack = fracsob.rayleigh.moser_bound_check(op["k"], op["K"])
        dt = timer() - t0
        out = {"numeric": numeric, "bound": bound, "slack": slack}
        return out, ([] if slack >= 0.0 else ["negative-slack"]), dt
    raise ValueError(f"unknown operation kind {kind!r}")


def run_op(fracsob, op: dict, timer) -> tuple[object, list[str], float]:
    """Execute one operation; returns (output, failure reasons, seconds).

    Exceptions are failures of the operation, recorded and not re-raised, so
    one bad point does not hide the others.
    """
    t0 = timer()
    try:
        if op["kind"] == "cli":
            return _run_cli(fracsob, op, timer)
        return _run_lib(fracsob, op, timer)
    except Exception as exc:  # noqa: BLE001 - every op failure is counted
        name = type(exc).__name__
        return {"exception": f"{name}: {exc}"[:300]}, [f"exception:{name}"], timer() - t0


# ---------------------------------------------------------------------------
# reference comparison


def uses_quadrature(op: dict) -> bool:
    """Whether an operation's numbers come from adaptive quadrature: the
    oracles, the p=1 bounds built on Hardy A, and the constant built on it."""
    if op["kind"] != "cli":
        return op["kind"] in QUADRATURE_KINDS
    argv = op["argv"]
    return (("--p" in argv and argv[argv.index("--p") + 1] == "1")
            or argv[-1] == "frac-isoperimetric")


def reference_drift(out, ref, quadrature: bool = False, key: str = "") -> list[str]:
    """Paths at which `out` leaves `ref` by more than the stated tolerance;
    `quadrature` says whether the operation runs adaptive quadrature."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [key or "."]
        bad = []
        for k, v in ref.items():
            if k in UNCOMPARED_KEYS:
                continue
            bad += reference_drift(out.get(k), v, quadrature, k)
        return bad
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [key or "."]
        return [p for o, r in zip(out, ref)
                for p in reference_drift(o, r, quadrature, key)]
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if out == ref else [key]
    if isinstance(ref, (int, float)):
        if isinstance(out, bool) or not isinstance(out, (int, float)):
            return [key]
        if key in CLOSED_FORM_KEYS:
            tol = EXACT_RTOL
        elif quadrature:
            tol = QUADRATURE_RTOL
        else:
            tol = SOLVER_RTOL if key in SOLVER_KEYS else EXACT_RTOL
        return [] if _rel(out, ref) <= tol or out == ref else [key]
    return [] if out == ref else [key]
