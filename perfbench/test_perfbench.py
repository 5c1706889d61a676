"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench

Each workload runs once at reduced size, untraced and traced; the tests
check that every metric of BENCHMARK.json is printed with its unit, and that
the traced pass reproduced the untraced pass's outputs and solver counts.
"""
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", str(SEED), "--smoke",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    # each operation counts once, however many passes ran it
    assert out["attempted"] == len(workloads.generate(workload, SEED, smoke=True))
    assert 0 <= out["failed"] <= out["attempted"]
    assert out["correct"], proc.stdout
    if trace:
        record = json.loads(
            (HERE / "results" / f"{workload}-seed{SEED}-trace1-smoke.json").read_text())
        # the gate compares every traced output with the untraced pass
        assert record["samples"]["traced_passes"] >= 1
        assert record["gate"]["problems"] == []
        if workload == "fine-grid":
            m = out["metrics"]
            assert m["varmin.iters.M2048"]["value"] > 0
            assert m["pde.iters"]["value"] > 0
            assert m["varmin.quotient_evals"]["value"] >= m["varmin.iters"]["value"]


def test_generation_is_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 11) == workloads.generate(w, 11)
        assert workloads.generate(w, 11) != workloads.generate(w, 12)
    ladder = [op for op in workloads.generate("fine-grid", workloads.DEFAULT_SEED)
              if op["kind"] == "ladder"]
    assert {op["q"] for op in ladder} == {32.0}
    assert len(workloads.generate("cli-mix", 5)) == 60


def test_design_uses_the_same_cells_for_every_seed():
    def cells(seed):
        pts = workloads._design(random.Random(seed), [(0.0, 1.0), (2.0, 4.0)], 16)
        return [(int(x * 16), int((y - 2.0) / 2.0 * 16)) for x, y in pts]

    assert cells(1) == cells(2)
    assert workloads._design(random.Random(1), [(0.0, 1.0)], 4) != \
        workloads._design(random.Random(2), [(0.0, 1.0)], 4)
    for j in range(2):
        assert sorted(c[j] for c in cells(1)) == list(range(16))


def test_speed_scaling_pools_neighbours():
    fast, slow = bench_run.CAL_REF_S / 2, bench_run.CAL_REF_S * 2
    recs = [{"probe_s": [slow] * 20}, {"probe_s": [slow]}, {"probe_s": [fast] * 20}]
    f = bench_run.op_speeds({"records": recs})
    assert f[0] == pytest.approx(0.5) and f[2] == pytest.approx(2.0)
    # one sample is too few: the middle operation pools both neighbours
    assert f[1] == pytest.approx(bench_run.CAL_REF_S / statistics.median([slow] * 21 + [fast] * 20))


def test_harrell_davis():
    xs = [float(x) for x in range(1, 102)]
    assert bench_run.harrell_davis(xs, 0.5) == pytest.approx(51.0)
    assert bench_run.harrell_davis(xs, 0.9) == pytest.approx(91.0, rel=0.01)
    assert bench_run.harrell_davis([5.0], 0.5) == 5.0


def test_reference_drift_tolerances():
    ref = {"numeric": 1.0, "lower": 2.0, "pass": True, "iterations": 10}
    assert workloads.reference_drift(dict(ref, numeric=1.004, iterations=99), ref) == []
    assert workloads.reference_drift(dict(ref, numeric=1.006), ref) == ["numeric"]
    assert workloads.reference_drift(dict(ref, lower=2.0 + 1e-7), ref) == ["lower"]
    assert workloads.reference_drift(dict(ref, **{"pass": False}), ref) == ["pass"]
    # quadrature outputs move with the rule, within the oracle bound
    hardy = {"value": 2.0, "error_estimate": 1e-10}
    moved = {"value": 2.0 * (1 + 5e-7), "error_estimate": 3e-9}
    assert workloads.reference_drift(moved, hardy, quadrature=True) == []
    assert workloads.reference_drift(moved, hardy) == ["value"]
    assert workloads.reference_drift(dict(moved, value=2.0 * (1 + 2e-6)), hardy,
                                     quadrature=True) == ["value"]
    moser = {"numeric": 6.0, "bound": 8.5, "slack": 2.5}
    assert workloads.reference_drift(dict(moser, bound=8.5 + 1e-7), moser,
                                     quadrature=True) == ["bound"]
    assert workloads.reference_drift(dict(moser, numeric=6.001), moser,
                                     quadrature=True) == ["numeric"]


def test_quadrature_operations():
    ops = {op["kind"] if op["kind"] != "cli" else " ".join(op["argv"][:3]): op
           for w in workloads.WORKLOADS for op in workloads.generate(w, 0)}
    assert workloads.uses_quadrature(ops["hardy-A"])
    assert workloads.uses_quadrature(ops["moser"])
    assert not workloads.uses_quadrature(ops["ladder"])
    assert workloads.uses_quadrature(ops["sandwich --p 1"])
    assert not workloads.uses_quadrature(ops["sandwich --p 2"])


def test_refuses_to_run_without_sources():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("--workload", "oracles", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
