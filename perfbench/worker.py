"""One workload pass in a fresh interpreter.

Started by run.py, one process at a time, with the thread pins in its
environment.  Usage: python3 perfbench/worker.py '<json spec>'.  The spec
names the workload, seed, size (smoke or full), whether to trace, and
whether to stop once set-up is done.  The last line of standard output is
one JSON object with the pass's results.
"""
import json
import os
import resource
import signal
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# Speed probe: in an untraced pass a timer signal runs `probe` every
# PROBE_EVERY_S, between two bytecodes of whatever operation is running.
PROBE_EVERY_S = 0.02
_PROBE_X = np.cos(np.arange(1024) * 0.01)
_PROBE_NODES = np.linspace(0.0, 1.0, 64)


def probe() -> None:
    """A fixed sample (about 0.4 ms) of the kinds of work fracsob's time goes
    to: interpreted arithmetic, object churn, numpy calls on short arrays (as
    in quadrature) and an FFT pair (as in the solvers).  It is the
    benchmark's own code, so a change to fracsob cannot move its time; only
    the machine's speed does."""
    acc = 0
    for i in range(1000):
        acc += i * i
    rows = sorted(({"i": i, "t": (i, -i)} for i in range(100)), key=lambda r: -r["i"])
    acc += len(rows)
    for _ in range(10):
        acc += float(np.sum(np.exp(-_PROBE_NODES * _PROBE_NODES) * np.sin(_PROBE_NODES)))
    acc += float(np.sum(np.fft.irfft(np.fft.rfft(_PROBE_X), n=_PROBE_X.size)))


class SpeedSampler:
    """Runs `probe` on a timer signal and keeps (start, seconds) of each run.

    `clock` is perf_counter less the time spent in probes, so latencies
    timed with it leave the probes out."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self._spent += dt
        self.samples.append((t0, dt))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def during(self, t0: float, t1: float) -> list[float]:
        """Probe times of the samples that started in [t0, t1) (perf_counter)."""
        return [dt for t, dt in self.samples if t0 <= t < t1]


def main() -> int:
    spec = json.loads(sys.argv[1])
    import fracsob
    import fracsob.cli  # the CLI entry point; imports every layer

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(fracsob.__file__).startswith(src + os.sep):
        print(f"fracsob imported from {fracsob.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    ops = workloads.generate(spec["workload"], spec["seed"], spec["smoke"])
    ready = time.monotonic()
    if spec["setup_only"]:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    sampler = SpeedSampler() if tracer is None else None
    timer = sampler.clock if sampler else time.perf_counter
    records, spans = [], []
    if sampler:
        sampler.start()
    for op in ops:
        t0 = time.perf_counter()
        output, reasons, dt = workloads.run_op(fracsob, op, timer)
        spans.append((t0, time.perf_counter()))
        records.append({"id": op["id"], "seconds": dt, "output": output,
                        "reasons": reasons})
    if sampler:
        sampler.stop()
        for rec, (t0, t1) in zip(records, spans):
            rec["probe_s"] = sampler.during(t0, t1)
    result = {
        "ready": ready,
        "ops": ops,
        "records": records,
        "wall_s": sum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["layers"] = tracer_mod.layer_metrics(tracer.spans)
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as fh:
                json.dump({"fields": ["name", "layer", "parent", "t0", "t1", "info"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
