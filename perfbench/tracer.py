"""Outside-in tracing of fracsob's layers.

Every public entry point of a layer is replaced, in each module namespace
that binds it, by a wrapper that records a span (name, parent, start, end,
info).  A span is named after the binding the caller looked the function up
by, so ``fracsob.varmin.bounds_for`` and ``fracsob.bounds.bounds_for`` are
told apart.  Nothing under ``src/`` is edited: the wrappers only time the
call, read the returned object, and count the points handed to quadrature
integrands.  Spans stay in memory; `layer_metrics` reduces them at the end.
"""
from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

import numpy as np

# layer -> (defining module, entry points); None means "every function in
# the module's __all__"
LAYERS = {
    "cli": ("fracsob.cli", ["run"]),
    "validate": ("fracsob.validate", ["run_validation"]),
    "varmin": ("fracsob.varmin", ["minimize_quotient", "sandwich", "sweep"]),
    "pde": ("fracsob.pde", ["ground_state_solve", "ps_level", "existence_thresholds",
                            "growth_coefficient", "coupling_alpha",
                            "coupling_lambda_interval"]),
    "bounds": ("fracsob.bounds", None),
    # unit_ball_volume and frac_iso_kernel are left out: closed forms called
    # per point inside quadrature integrands, where a span would cost more
    # than the call
    "constants": ("fracsob.constants", ["hardy_sobolev_A", "frac_isoperimetric",
                                        "lieb_constant", "norm_bridge",
                                        "frac_sobolev_hilbert", "classical_sobolev",
                                        "isoperimetric", "mazya_lower",
                                        "lieb_loss_lower"]),
    "rayleigh": ("fracsob.rayleigh", ["gagliardo_seminorm_1d", "moser_bound_check"]),
    "specfun": ("fracsob.specfun", ["integrate"]),
}
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
FFT_INVERSE = ("numpy.fft.ifft", "numpy.fft.irfft")
LADDER_M = (2048, 4096, 8192, 16384)

# span fields
NAME, LAYER, PARENT, T0, T1, INFO = range(6)


def _info_minimize(res, args, kwargs):
    grid = args[0] if args else kwargs["grid"]
    return {"M": grid.points, "iters": res.iterations, "converged": bool(res.converged)}


def _info_ground_state(res, args, kwargs):
    rep = res[2]
    return {"iters": rep.iterations, "converged": bool(rep.converged),
            "residual_rel": float(rep.residual_rel)}


def _info_validation(res, args, kwargs):
    return {"failed": sum(not r.passed for r in res)}


_INFO = {
    ("varmin", "minimize_quotient"): _info_minimize,
    ("pde", "ground_state_solve"): _info_ground_state,
    ("validate", "run_validation"): _info_validation,
}


class Tracer:
    """Span recorder; `install` patches fracsob and numpy.fft in place."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[T0] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[T1] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, layer: str, fn, info=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                span[INFO] = {"error": type(exc).__name__}
                raise
            tracer._close(span)
            if info is not None:
                span[INFO] = info(res, args, kwargs)
            return res

        traced.__wrapped__ = fn
        return traced

    def wrap_integrate(self, name: str, fn):
        """integrate(f, a, b, cfg): also counts the points passed to f."""
        tracer = self

        def traced(f, *args, **kwargs):
            span = tracer._open(name, "specfun")
            info = span[INFO] = {"points": 0}

            def counted(x):
                y = f(x)
                info["points"] += int(np.size(x))
                return y

            try:
                return fn(counted, *args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "fracsob" or n.startswith("fracsob.")) and m is not None]
        for layer, (modname, names) in LAYERS.items():
            home = importlib.import_module(modname)
            if names is None:
                names = [n for n in home.__all__ if inspect.isfunction(getattr(home, n))]
            for fname in names:
                fn = getattr(home, fname)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is not fn:
                            continue
                        span_name = f"{m.__name__}.{attr}"
                        if layer == "specfun":
                            setattr(m, attr, self.wrap_integrate(span_name, fn))
                        else:
                            setattr(m, attr, self.wrap(span_name, layer, fn,
                                                       _INFO.get((layer, fname))))
        from fracsob.grids import Grid

        Grid.multiplier = self.wrap("fracsob.grids.Grid.multiplier", "grids",
                                    Grid.multiplier)
        for fname in FFT_NAMES:
            setattr(np.fft, fname, self.wrap(f"numpy.fft.{fname}", "fft",
                                             getattr(np.fft, fname)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    A layer's time counts only its outermost spans (no ancestor in the same
    layer); self time is a span's duration minus its direct children's.
    """
    n = len(spans)
    child = [0.0] * n
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[T1] - sp[T0]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield p
            p = spans[p][PARENT]

    outer = [all(spans[a][LAYER] != sp[LAYER] for a in ancestors(i))
             for i, sp in enumerate(spans)]
    self_s: dict[str, float] = {}
    for i, sp in enumerate(spans):
        self_s[sp[LAYER]] = self_s.get(sp[LAYER], 0.0) + (sp[T1] - sp[T0]) - child[i]

    def short(sp):
        return sp[NAME].rsplit(".", 1)[-1]

    def outer_spans(layer):
        return [sp for i, sp in enumerate(spans) if outer[i] and sp[LAYER] == layer]

    def outer_calls(fname):
        """Calls of fname not nested in another call of fname."""
        return [sp for i, sp in enumerate(spans) if short(sp) == fname
                and all(short(spans[a]) != fname for a in ancestors(i))]

    def total(sps):
        return sum(sp[T1] - sp[T0] for sp in sps)

    m: dict[str, float] = {}
    # varmin: every minimize_quotient call is one solve, wherever it came from
    solves = [sp for sp in spans if sp[LAYER] == "varmin"
              and short(sp) == "minimize_quotient" and sp[INFO] and "iters" in sp[INFO]]
    solve_idx = {id(sp) for sp in solves}
    iters = sum(sp[INFO]["iters"] for sp in solves)
    solve_s = total(solves)
    evals = 0
    for i, sp in enumerate(spans):
        if sp[NAME] in FFT_INVERSE and any(id(spans[a]) in solve_idx for a in ancestors(i)):
            evals += 1
    m["varmin.solve_s"] = solve_s
    m["varmin.solves"] = len(solves)
    m["varmin.iters"] = iters
    by_m = {M: 0 for M in LADDER_M}
    for sp in solves:
        if sp[INFO]["M"] in by_m:
            by_m[sp[INFO]["M"]] += sp[INFO]["iters"]
    for M in LADDER_M:
        m[f"varmin.iters.M{M}"] = by_m[M]
    m["varmin.iter_growth"] = _ratio(by_m[16384], by_m[2048])
    m["varmin.ms_per_iter"] = 1e3 * _ratio(solve_s, iters)
    m["varmin.quotient_evals"] = evals
    m["varmin.evals_per_iter"] = _ratio(evals, iters)
    m["varmin.us_per_eval"] = 1e6 * _ratio(solve_s, evals)
    m["varmin.converged_frac"] = _ratio(sum(sp[INFO]["converged"] for sp in solves),
                                        len(solves))
    gs = [sp for sp in outer_calls("ground_state_solve") if sp[INFO]
          and "iters" in sp[INFO]]
    pde_iters = sum(sp[INFO]["iters"] for sp in gs)
    m["pde.solve_s"] = total(gs)
    m["pde.iters"] = pde_iters
    m["pde.ms_per_iter"] = 1e3 * _ratio(total(gs), pde_iters)
    m["pde.residual_rel_max"] = max((sp[INFO]["residual_rel"] for sp in gs), default=0.0)
    m["grids.multiplier_calls"] = sum(sp[LAYER] == "grids" for sp in spans)
    m["bounds.calls"] = len(outer_spans("bounds"))
    m["bounds.s"] = total(outer_spans("bounds"))
    hardy = outer_calls("hardy_sobolev_A")
    m["constants.hardy_A_calls"] = len(hardy)
    m["constants.hardy_A_s"] = total(hardy)
    integ = [sp for sp in spans if sp[LAYER] == "specfun"]
    points = sum(sp[INFO]["points"] for sp in integ)
    m["specfun.integrate_calls"] = len(integ)
    m["specfun.integrate_s"] = total(outer_spans("specfun"))
    m["specfun.integrand_points"] = points
    m["specfun.points_per_call"] = _ratio(points, len(integ))
    m["specfun.quadrature_errors"] = sum(
        sp[INFO].get("error") == "QuadratureError" for sp in outer_spans("specfun"))
    m["rayleigh.gagliardo_s"] = total(outer_calls("gagliardo_seminorm_1d"))
    m["rayleigh.moser_s"] = total(outer_calls("moser_bound_check"))
    val = outer_calls("run_validation")
    m["validate.s"] = total(val)
    m["validate.checks_failed"] = sum(sp[INFO]["failed"] for sp in val if sp[INFO]
                                      and "failed" in sp[INFO])
    m["fft.calls"] = sum(sp[LAYER] == "fft" for sp in spans)
    for layer in list(LAYERS) + ["grids", "fft"]:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["trace.spans"] = n
    for k, v in m.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"non-finite per-layer metric {k}")
    return m

