"""Numerical estimation of embedding constants by Rayleigh-quotient descent
on a periodic grid, and sandwich verification against the bound formulas.

The discrete quotient is

    R(u) = ||(-Lap)^(s/2) u||^2 / ||u||_q^2            (domain mode)
    R(u) = (||(-Lap)^(s/2) u||^2 + ||u||^2) / ||u||_q^2  (whole-space mode)

with the fractional energy applied through the whole-line Fourier multiplier
on the periodic box; domain mode masks the support, matching the convention
that competitors live on the line and vanish outside Omega.  Descent is
projected gradient (mask, then positivity) along the H^s-preconditioned
gradient P g, P = 1/(symbol + c) applied in Fourier, with a
Barzilai-Borwein step in the P-metric and Armijo backtracking, which keeps
the quotient trace nonincreasing at every accepted step.  The
preconditioner makes the iteration count nearly independent of the grid
(q = 32 on rn:10: 18 -> 43 iterations from M = 2048 to 16384).

Both modes are instances of one weighted quotient, evaluated by `_quotient`
and minimized by `_descend`; the ground-state solver in `pde` runs the same
kernel with a potential V and a weight Q.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import DomainSpec, bounds_for
from .constants import ConstantKind, ConstantValue, Params, Regime
from .errors import ConvergenceError, DomainError, GridError
from .grids import Field, Grid

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SandwichReport",
    "domain_mask",
    "quotient_value_grad",
    "minimize_quotient",
    "default_grid",
    "sandwich",
    "sweep",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for the projected-gradient quotient minimizer."""

    max_iters: int = 20000
    quotient_tol: float = 1e-9
    verify_projection: bool = False        # per-step numerator check (slow)

    def __post_init__(self):
        if self.max_iters < 1 or self.quotient_tol <= 0:
            raise DomainError("max_iters and quotient_tol must be positive")


@dataclass
class SolveResult:
    estimate: float
    minimizer: Field
    trace: np.ndarray
    converged: bool
    iterations: int
    tail_mass_warning: bool = False
    projection_violations: int = 0


@dataclass
class SandwichReport:
    """Bracket check: lower bound <= numeric estimate <= upper bound."""

    params: Params
    domain: DomainSpec
    lower: ConstantValue
    upper: ConstantValue
    numeric: Optional[ConstantValue]
    rel_slack_lower: Optional[float]
    rel_slack_upper: Optional[float]
    tol: float
    passed: bool
    note: str = ""


def domain_mask(grid: Grid, domain: DomainSpec) -> np.ndarray:
    """Boolean support indicator of a bounded 1-D domain on the grid."""
    if not domain.bounded:
        raise DomainError("whole-space domains have no mask")
    if domain.dim != 1:
        raise GridError("the spectral solver is one-dimensional")
    x = grid.x
    if domain.kind == "interval":
        return (x > domain.a) & (x < domain.b)
    return np.abs(x) < domain.radius


def _apply(symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fourier multiplier with the given symbol applied to a real field."""
    return np.fft.ifft(symbol * np.fft.fft(u)).real


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> in numpy's own summation loop, not BLAS: a multi-threaded BLAS
    sum makes the last bits of every estimate depend on the thread count,
    and its threads' wake-up measured ~1 s once per process on a shared
    2-core machine."""
    return float(np.einsum("i,i->", a, b))


def _quotient(u: np.ndarray, symbol: np.ndarray, h: float, q: float,
              V: Optional[np.ndarray] = None, Q: Optional[np.ndarray] = None
              ) -> tuple[float, np.ndarray]:
    """The weighted quotient

        R(u) = h (<A u, u> + sum V u^2) / (h sum Q |u|^q)^(2/q)

    and its gradient, where A has the given symbol; V = None stands for
    V = 0 and Q = None for Q = 1.  Every solver descends on this function.
    """
    Au = _apply(symbol, u)
    if V is not None:
        Au = Au + V * u
    E = h * _dot(u, Au)
    w = np.abs(u) ** q
    G = h * float(np.sum(w if Q is None else Q * w))
    nq2 = G ** (2.0 / q)
    R = E / nq2
    gE = 2.0 * h * Au
    if q < 2.0:
        # |u|^(q-2) u -> 0 as u -> 0 for q > 1; avoid 0**negative
        with np.errstate(divide="ignore", invalid="ignore"):
            uq = np.where(u != 0.0, np.abs(u) ** (q - 2.0) * u, 0.0)
    else:
        uq = np.abs(u) ** (q - 2.0) * u
    if Q is not None:
        uq = Q * uq
    gq2 = 2.0 * h * G ** (2.0 / q - 1.0) * uq
    return R, (gE - R * gq2) / nq2


def _normalize(v: np.ndarray, h: float, q: float,
               Q: Optional[np.ndarray]) -> np.ndarray:
    """Scale a field onto the (weighted) unit L^q sphere."""
    w = np.abs(v) ** q
    n = (h * np.sum(w if Q is None else Q * w)) ** (1.0 / q)
    if not n > 1e-300:
        raise ConvergenceError("degenerate field: L^q norm underflow")
    return v / n


_ARMIJO = 1e-4   # sufficient-decrease constant of the line search
# a whole-space minimizer warns when more than _TAIL_MASS_LIMIT of its q-mass
# lies in the outer _TAIL_FRACTION of the box
_TAIL_FRACTION = 0.05
_TAIL_MASS_LIMIT = 1e-6


def _descend(u: np.ndarray, symbol: np.ndarray, h: float, q: float,
             max_iters: int, tol: float, mask: Optional[np.ndarray] = None,
             V: Optional[np.ndarray] = None, Q: Optional[np.ndarray] = None,
             verify_projection: bool = False
             ) -> tuple[np.ndarray, list[float], bool, int]:
    """Minimize `_quotient` from u by preconditioned projected gradient
    descent.

    The gradient g is preconditioned by the H^s Sobolev metric
    P = 1 / (symbol + c), diagonal in Fourier, with c = max V (plus 1 where
    symbol + max V has a zero); the direction is d = P g, and
    d = mask P(mask g) on a bounded support, so that it stays there.  Each
    trial point u - tau d is projected (mask, then |.|) and normalized onto
    the weighted L^q sphere.  The step is a Barzilai-Borwein guess in the
    P-metric, <s, y> / <y, P y> with s, y the last changes of u and g (P y
    is the change of d, so it costs no FFT), floored at
    1 / max((symbol + max V) P), and halved until the Armijo condition
    holds, so the returned quotient trace is nonincreasing.  Stops when the
    relative decrease falls below tol, or when no step of the line search
    decreases R (stationary at line-search resolution).  Returns the
    minimizer, the trace, the converged flag and the number of steps at
    which |.| increased the numerator (counted only if verify_projection).
    """
    u = _normalize(np.abs(u if mask is None else np.where(mask, u, 0.0)), h, q, Q)
    vmax = 0.0 if V is None else float(np.max(V))
    c = vmax if float(np.min(symbol)) + vmax > 0.0 else vmax + 1.0
    P = 1.0 / (symbol + c)
    tau_floor = 1.0 / float(np.max((symbol + vmax) * P))

    def precondition(g: np.ndarray) -> np.ndarray:
        if mask is None:
            return _apply(P, g)
        return np.where(mask, _apply(P, np.where(mask, g, 0.0)), 0.0)

    R, g = _quotient(u, symbol, h, q, V, Q)
    trace = [R]
    converged = False
    violations = 0
    u_prev = g_prev = d_prev = None
    for _ in range(max_iters):
        d = precondition(g)
        if u_prev is None:
            tau = tau_floor
        else:
            dg = g - g_prev
            sy = _dot(u - u_prev, dg)
            yPy = _dot(dg, d - d_prev)
            tau = sy / yPy if sy > 0 and yPy > 0 else 4.0 * tau_floor
            tau = min(max(tau, tau_floor), 1e8)
        for _bt in range(80):
            raw = u - tau * d
            masked = np.where(mask, raw, 0.0) if mask is not None else raw
            v = np.abs(masked)
            if verify_projection:
                # |.| must not increase the numerator (discrete analogue of
                # the continuum contraction, checked to 1e-9 per step)
                Em = h * _dot(masked, _apply(symbol, masked))
                Ev = h * _dot(v, _apply(symbol, v))
                if Ev > Em * (1.0 + 1e-9) + 1e-300:
                    violations += 1
            try:
                v = _normalize(v, h, q, Q)
            except ConvergenceError:
                tau *= 0.5
                continue
            Rv, gv = _quotient(v, symbol, h, q, V, Q)
            decrease = _dot(g, v - u)
            if Rv <= R + _ARMIJO * min(decrease, 0.0):
                break
            tau *= 0.5
        else:
            # no descent direction at line-search resolution: stationary
            converged = True
            break
        rel = (R - Rv) / max(R, 1e-300)
        u_prev, g_prev, d_prev = u, g, d
        u, R, g = v, Rv, gv
        trace.append(R)
        if rel < tol:
            converged = True
            break
    return u, trace, converged, violations


def quotient_value_grad(grid: Grid, mask: Optional[np.ndarray], s: float,
                        q: float, mode: str, u: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """Discrete Rayleigh quotient and its gradient at a field, as the
    solver evaluates them."""
    if mode not in ("domain", "whole_space"):
        raise DomainError(f"unknown mode {mode!r}")
    symbol = grid.multiplier(s)
    if mode == "whole_space":
        symbol = symbol + 1.0
    u = np.asarray(u, dtype=float)
    if mask is not None:
        u = np.where(mask, u, 0.0)
    return _quotient(u, symbol, grid.spacing, q)


def _initial_field(grid: Grid, s: float, mode: str,
                   mask: Optional[np.ndarray]) -> np.ndarray:
    x = grid.x
    if mode == "domain":
        xs = x[mask]
        center = 0.5 * (xs.max() + xs.min())
        k0 = 0.5 * (xs.max() - xs.min()) / 2.0
        u = np.maximum(k0 ** 2 - (x - center) ** 2, 0.0) ** s
        u[~mask] = 0.0
    else:
        u = np.exp(-x * x)
    return u


def minimize_quotient(grid: Grid, mask: Optional[np.ndarray], s: float, q: float,
                      mode: str, cfg: SolverConfig | None = None,
                      u0: Optional[np.ndarray] = None) -> SolveResult:
    """Minimize the discrete Rayleigh quotient; returns the estimate, the
    minimizer field, and the (nonincreasing) quotient trace.

    mode is "domain" (requires a mask; quotient without the mass term) or
    "whole_space" (adds ||u||_2^2 to the numerator).
    """
    if mode not in ("domain", "whole_space"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "domain" and mask is None:
        raise DomainError("domain mode requires a support mask")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if not q >= 1.0:
        raise DomainError(f"q must be >= 1, got {q}")
    if cfg is None:
        cfg = SolverConfig()

    symbol = grid.multiplier(s)
    if mode == "whole_space":
        symbol = symbol + 1.0
        mask = None
    if u0 is not None:
        u = np.asarray(u0, dtype=float).copy()
    else:
        u = _initial_field(grid, s, mode, mask)
    u, trace, converged, violations = _descend(
        u, symbol, grid.spacing, q, cfg.max_iters, cfg.quotient_tol, mask=mask,
        verify_projection=cfg.verify_projection)

    tail_warning = False
    if mode == "whole_space":
        x = grid.x
        edge = np.abs(x) >= (1.0 - _TAIL_FRACTION) * grid.half_width
        mass = np.sum(np.abs(u[edge]) ** q) / np.sum(np.abs(u) ** q)
        tail_warning = bool(mass > _TAIL_MASS_LIMIT)

    return SolveResult(estimate=trace[-1], minimizer=Field(grid, u),
                       trace=np.asarray(trace), converged=converged,
                       iterations=len(trace) - 1,
                       tail_mass_warning=tail_warning,
                       projection_violations=violations)


_DEFAULT_TOL = 0.02


def default_grid(domain: DomainSpec, points: int = 4096,
                 half_width: float | None = None) -> Grid:
    """The sandwich grid: `points` nodes on [-half_width, half_width], by
    default 8 x the inradius of a bounded domain or the whole-space
    truncation."""
    if half_width is None:
        half_width = 8.0 * domain.inradius if domain.bounded else domain.truncation
    return Grid(half_width=half_width, points=points)


def sandwich(params: Params, domain: DomainSpec, cfg: SolverConfig | None = None,
             grid: Grid | None = None, tol: float = _DEFAULT_TOL,
             C1: float = 1.0, C2: float = 1.0) -> SandwichReport:
    """Assemble lower/upper bounds and a numeric estimate for one parameter
    point and check lower (1-tol) <= numeric <= upper (1+tol).

    p=1 on balls uses the exact characteristic-function value in place of a
    descent output (the constant is attained there); p=1 on the whole space
    is reported bound-only.  p=2 runs the spectral minimizer (N = 1 grids).
    """
    pair = bounds_for(params, domain, C1=C1, C2=C2)
    lo, up = pair.lower, pair.upper
    numeric = None
    if params.regime() is Regime.BORDERLINE:
        if not domain.bounded:
            note = "bound-only: whole-space p=1 attainability unknown"
        # every bounded 1-D domain is an interval (= ball); in higher
        # dimension only balls admit the exact value
        elif domain.kind == "ball" or domain.dim == 1:
            numeric = ConstantValue(lo.value, ConstantKind.NUMERIC_ESTIMATE,
                                    "char-ball-exact",
                                    error_estimate=lo.error_estimate + 1e-30)
            note = "exact char-function value"
        else:
            note = "bound-only: p=1 numeric limited to balls"
    elif params.N != 1:
        note = "bound-only: spectral solver is one-dimensional"
    else:
        if grid is None:
            grid = default_grid(domain)
        if domain.bounded:
            res = minimize_quotient(grid, domain_mask(grid, domain), params.s,
                                    params.q, "domain", cfg)
        else:
            res = minimize_quotient(grid, None, params.s, params.q, "whole_space", cfg)
        err = abs(res.trace[-1] - res.trace[0]) * 1e-6 + tol * res.estimate
        numeric = ConstantValue(res.estimate, ConstantKind.NUMERIC_ESTIMATE,
                                "rayleigh-numeric", error_estimate=err)
        notes = []
        if not res.converged:
            notes.append("solver hit max_iters")
        if res.tail_mass_warning:
            notes.append("tail mass near truncation boundary")
        note = "; ".join(notes)

    if numeric is None:
        return SandwichReport(params, domain, lo, up, None, None, None, tol,
                              passed=lo.value <= up.value, note=note)
    sl = (numeric.value - lo.value) / lo.value
    su = (up.value - numeric.value) / up.value
    passed = (numeric.value >= lo.value * (1 - tol)
              and numeric.value <= up.value * (1 + tol))
    return SandwichReport(params, domain, lo, up, numeric, sl, su, tol, passed, note)


def sweep(param_list: list[Params], domain: DomainSpec,
          cfg: SolverConfig | None = None, grid: Grid | None = None,
          tol: float = _DEFAULT_TOL, C1: float = 1.0, C2: float = 1.0
          ) -> list[SandwichReport | Exception]:
    """One sandwich per parameter point, run serially; per-point failures are
    recorded as exceptions and do not interrupt the sweep.  Reports keep
    input order."""
    def run(p: Params):
        try:
            return sandwich(p, domain, cfg, grid, tol, C1, C2)
        except Exception as exc:  # noqa: BLE001 - reported per point
            return exc

    return [run(p) for p in param_list]
