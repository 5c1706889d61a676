"""fracsob benchmark runner.

    python3 perfbench/run.py --workload cli-mix --seed 0 --seconds 40 --trace 0

Runs one seeded workload (cli-mix, fine-grid, oracles, or all three) from
the root of a checkout and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, taken from wrapped entry points.

Every pass is a fresh interpreter (worker.py), started one at a time from
this process with the BLAS/OpenMP thread counts pinned, so per-process
caches start cold as they do for a CLI user.  Set-up time is sampled from
several extra interpreter starts.  Times are scaled to a reference machine
speed by a fixed probe that a timer signal runs during the operations (see
`op_speeds`).  The full record of a run -- environment, generated inputs,
every output, failure and latency -- is written to perfbench/results/.  See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# fixed reduction order: one BLAS/OpenMP thread, serial sweep
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "FRASOB_THREADS": "1"}
SETUP_STARTS = 4
# a median of at least two passes, even when one pass takes half the run;
# with --trace 1, at least two traced passes, so the work counts are
# compared between them
MIN_PASSES = 2
MIN_TRACED = 2
WORKER_TIMEOUT_S = 170
# The speed probe's median time on the reference machine.  Each operation's
# latency is multiplied by CAL_REF_S / (median probe time while it ran),
# which takes out the shared host's drift in per-core speed (up to 1.6x,
# switching every few seconds).  An operation with fewer than PROBE_MIN
# probe samples pools those of its nearest neighbours in the pass.
CAL_REF_S = 0.0004
PROBE_MIN = 15
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
# work counts that must repeat exactly between passes under the pins
REPEAT_COUNTS = ("varmin.iters", "varmin.iters.M2048", "varmin.iters.M4096",
                 "varmin.iters.M8192", "varmin.iters.M16384", "pde.iters",
                 "varmin.quotient_evals", "specfun.integrand_points")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "thread_pins": THREAD_PINS}


def spawn(spec: dict) -> dict:
    t = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - t
    return res


def op_speeds(res: dict) -> list[float]:
    """Per operation of a pass, the factor from measured to reference-speed
    time."""
    recs = res["records"]
    factors = []
    for i in range(len(recs)):
        lo, hi, xs = i, i, list(recs[i]["probe_s"])
        while len(xs) < PROBE_MIN and (lo > 0 or hi < len(recs) - 1):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(recs) - 1)
            xs = [x for rec in recs[lo:hi + 1] for x in rec["probe_s"]]
        if not xs:
            raise WorkerError("a pass too short for a single speed probe")
        factors.append(CAL_REF_S / statistics.median(xs))
    return factors


def harrell_davis(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass on each
    ((i-1)/n, i/n].  Unlike a single order statistic, it does not jump when
    operations near the quantile trade places."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n, cells = len(xs), 1 << 18
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(cells) + 0.5) / cells  # midpoints: the density may be singular at 0 or 1
    cdf = np.concatenate(([0.0], np.cumsum(np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)))))
    w = np.diff(cdf[np.rint(np.arange(n + 1) * cells / n).astype(int)])
    return float(w @ xs / w.sum())


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            tag: str) -> dict:
    base = {"workload": workload, "seed": seed, "smoke": smoke, "trace": False,
            "setup_only": True}
    spawn(base)  # fills the bytecode cache of a fresh checkout; not timed
    starts = [spawn(base) for _ in range(SETUP_STARTS)]
    plain, traced = [], []
    t_start = time.monotonic()
    while True:
        # traced and untraced passes alternate, so both see the same drift
        want_trace = trace and len(traced) < len(plain)
        spec = dict(base, setup_only=False, trace=want_trace)
        if want_trace:
            spec["spans_out"] = str(RESULTS / f"{tag}-spans.json")
        t = time.monotonic()
        res = spawn(spec)
        (traced if want_trace else plain).append(res)
        starts.append(res)
        last = time.monotonic() - t
        if plain and (traced or not trace):
            if smoke or (len(plain) >= MIN_PASSES
                         and (not trace or len(traced) >= MIN_TRACED)
                         and time.monotonic() - t_start + last > seconds):
                break
    return {"setups": [r["setup_s"] for r in starts], "plain": plain, "traced": traced}


def check(workload: str, runs: dict, with_reference: bool) -> dict:
    """Correctness gate over every pass: counts failed operations and
    decides `correct`."""
    passes = runs["plain"] + runs["traced"]
    first = passes[0]
    problems = []
    ref = None
    if with_reference:
        ref = json.loads(REFERENCE.read_text()).get(workload) if REFERENCE.exists() else None
        if ref is None:
            problems.append("no reference recorded for the default seed")
        elif ref["ops"] != first["ops"]:
            problems.append("generated inputs differ from the recorded reference inputs")
            ref = None
    # each operation counts once, however many passes ran it: it failed if
    # it failed in any pass, and every pass must give the first pass's output
    failures: dict[str, list[str]] = {}
    for i, res in enumerate(passes):
        for op, rec, first_rec in zip(first["ops"], res["records"], first["records"]):
            reasons = list(rec["reasons"])
            if ref is not None:
                drift = workloads.reference_drift(rec["output"], ref["outputs"][rec["id"]],
                                                  workloads.uses_quadrature(op))
                if drift:
                    reasons.append("reference:" + ",".join(sorted(set(drift))))
            if rec["output"] != first_rec["output"]:  # also traced vs untraced
                problems.append(f"pass {i} output of {rec['id']} differs from pass 0")
            if reasons:
                failures.setdefault(rec["id"], reasons)
    attempted, failed = len(first["ops"]), len(failures)
    broken = sorted({r for rs in failures.values() for r in rs}
                    - workloads.CHECK_REASONS)
    counts = [{k: r["layers"][k] for k in REPEAT_COUNTS} for r in runs["traced"]]
    if any(c != counts[0] for c in counts):
        problems.append("solver work counts differ between traced passes")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "broken": broken, "problems": problems,
            "correct": not broken and not problems}


def summarize(runs: dict, gate: dict, trace: bool) -> tuple[dict, dict]:
    """Metric values named in BENCHMARK.json, plus sample counts."""
    plain, traced = runs["plain"], runs["traced"]
    speeds = [op_speeds(r) for r in plain]
    # latencies at reference speed, [pass][operation]
    scaled = [[f * rec["seconds"] for f, rec in zip(fs, r["records"])]
              for fs, r in zip(speeds, plain)]
    # each operation's median over the passes, then percentiles over operations
    per_op = [statistics.median(lat) for lat in zip(*scaled)]
    e2e = {
        # start-ups are too short to carry probes of their own: the run's factor
        "setup_s": statistics.median(runs["setups"])
                   * statistics.median(f for fs in speeds for f in fs),
        "wall_s": statistics.median(sum(lat) for lat in scaled),
        "op_p50_ms": 1e3 * harrell_davis(per_op, 0.5),
        "op_p90_ms": 1e3 * harrell_davis(per_op, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_frac": 1.0 - gate["failed"] / gate["attempted"],
    }
    samples = {"setup": len(runs["setups"]), "passes": len(plain),
               "ops": len(per_op), "op_samples": len(per_op) * len(plain),
               "traced_passes": len(traced),
               "speed_probes": sum(len(rec["probe_s"]) for r in plain for rec in r["records"])}
    if not trace:
        return e2e, samples
    layer = {k: statistics.median(r["layers"][k] for r in traced)
             for k in traced[0]["layers"]}
    untraced = statistics.median(r["wall_s"] for r in plain)
    layer["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / untraced
    return layer, samples


def run_workload(workload: str, args, bench: dict) -> dict:
    tag = f"{workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    RESULTS.mkdir(exist_ok=True)
    runs = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke, tag)
    gate = check(workload, runs, args.seed == workloads.DEFAULT_SEED and not args.smoke
                 and not args.write_reference)
    values, samples = summarize(runs, gate, bool(args.trace))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise WorkerError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    first = runs["plain"][0]
    record = {
        "workload": workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "machine": dict(machine(), numpy=first["numpy"],
                                                 python=first["python"]),
        "samples": samples, "metrics": metrics,
        "fail_frac": gate["failed"] / gate["attempted"], "gate": gate,
        "ops": first["ops"],
        "outputs": {rec["id"]: rec["output"] for rec in first["records"]},
        "latency_s": {rec["id"]: [r["records"][i]["seconds"] for r in runs["plain"]]
                      for i, rec in enumerate(first["records"])},
        "probe_s": {rec["id"]: [r["records"][i]["probe_s"] for r in runs["plain"]]
                    for i, rec in enumerate(first["records"])},
        "wall_s": [r["wall_s"] for r in runs["plain"]],
        "speed": [op_speeds(r) for r in runs["plain"]],
        "traced_wall_s": [r["wall_s"] for r in runs["traced"]],
        "setup_s": runs["setups"],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.write_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[workload] = {"ops": first["ops"], "outputs": record["outputs"]}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    m = record["machine"]
    print(f"# {workload} seed {args.seed} trace {args.trace}: "
          f"{len(first['ops'])} ops/pass, {samples['passes']} untraced + "
          f"{samples['traced_passes']} traced passes, {samples['op_samples']} op "
          f"latency samples, {samples['setup']} set-up samples")
    print(f"# {m['cpu_model']}, nproc {m['nproc']}, numpy {m['numpy']}, "
          f"python {m['python']}, pins {THREAD_PINS}")
    print("# times are scaled to reference speed; median factor per pass: "
          + " ".join(f"{statistics.median(f):.3f}" for f in record["speed"]))
    print(f"# fail_frac {record['fail_frac']:.4f} ({gate['failed']}/{gate['attempted']})"
          + "".join(f"\n#   {k}: {v}" for k, v in gate["failures"].items()))
    for p in gate["problems"]:
        print(f"# problem: {p}")
    for name, mv in metrics.items():
        print(f"{workload:10s} {name:28s} {mv['value']:.6g} {mv['unit']}")
    print(f"# record: {RESULTS / (tag + '.json')}")
    return {"correct": gate["correct"], "attempted": gate["attempted"],
            "failed": gate["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time; passes are whole, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of each kind at reduced size (self-test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default seed's outputs as the reference")
    args = ap.parse_args(argv)
    if args.write_reference and (args.seed != workloads.DEFAULT_SEED or args.smoke):
        ap.error("--write-reference needs the default seed at full size")
    if not (ROOT / "src" / "fracsob" / "__init__.py").is_file():
        print(f"error: no fracsob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args, bench) for w in names}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    else:
        out = results[args.workload]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
