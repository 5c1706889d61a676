"""Numerical estimation of embedding constants by Rayleigh-quotient descent
on a periodic grid, and sandwich verification against the bound formulas.

The discrete quotient is

    R(u) = ||(-Lap)^(s/2) u||^2 / ||u||_q^2            (domain mode)
    R(u) = (||(-Lap)^(s/2) u||^2 + ||u||^2) / ||u||_q^2  (whole-space mode)

with the fractional energy applied through the whole-line Fourier multiplier
on the periodic box; domain mode restricts it to the support, matching the
convention that competitors live on the line and vanish outside Omega.
Descent is projected gradient along the H^s-preconditioned gradient P g,
and the projection is |.|.
The step is Barzilai-Borwein in the P-metric with Armijo backtracking,
which keeps the quotient trace nonincreasing at every accepted step.  The
preconditioner makes the iteration count nearly independent of the grid,
and a whole-box descent starts from the Gaussian at its best dilation
(Weinstein's scaling, `_start_width`), so it need not search for the
minimizer's scale (q = 32 on rn:10: 9 -> 11 iterations from M = 2048 to
16384; 13 -> 20 from exp(-x^2)).

Both modes are instances of one weighted quotient, evaluated by `_value`
(its gradient by `_gradient`) from the applied energy and minimized by
`_descend`, which takes the energy A, the preconditioner P and the step
floor from its caller.
Symbols live on the n/2 + 1 nonnegative frequencies of a real transform,
so each operator apply is one rfft/irfft pair (`_apply`) of n points.  A
whole-space solve is `_box_descent` on all M box nodes with V = 1; the
ground-state solver in `pde` runs it with a potential V and a weight Q.
There P inverts the energy up to a pointwise shift, so the descent
carries the applied energy along with the field, and an iteration costs
one pair, that of the direction P g.  A domain solve runs on the m
nodes of its support alone (`minimize_quotient` takes them out and puts
the minimizer back), on a grid dilated by the power of two 2^-k that puts
the support's half-width in [1/2, 1), so the solve does not depend on the
domain's scale; it has the m x m Toeplitz blocks of symbol and of
P = 1/(symbol + 1), applied through circulants of the smallest
power-of-two size n >= 2m - 1 (or n = M when that is not smaller;
`_embed`).  The blocks do not invert each other, so it passes no shift, and
an iteration costs one pair for P g and one for the energy of each trial
point.  Each trial point takes one power |v|^q, shared by its normalization
and its quotient, and costs that quotient's value alone: the gradient is
formed once per iteration, at the accepted point.  The trial point, its
field, power and energy are written into arrays that the solve allocates
once and reuses for every trial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .bounds import (DomainSpec, _check_tm_constants, _dilation_argmin, _dilation_exponent,
                     _inv_gap, bounds_for)
from .constants import ConstantKind, ConstantValue, Params, Regime, _power
from .errors import ConvergenceError, DomainError, FracsobError, GridError
from .grids import Field, Grid

__all__ = [
    "SolveResult",
    "SandwichReport",
    "domain_mask",
    "minimize_quotient",
    "default_grid",
    "sandwich",
    "sweep",
]


@dataclass
class SolveResult:
    estimate: float
    minimizer: Field
    trace: np.ndarray
    converged: bool
    iterations: int
    tail_mass_warning: bool = False


@dataclass
class SandwichReport:
    """Bracket check: lower bound <= numeric estimate <= upper bound."""

    lower: ConstantValue
    upper: ConstantValue
    numeric: Optional[ConstantValue]
    rel_slack_lower: Optional[float]
    rel_slack_upper: Optional[float]
    passed: bool
    note: str = ""


def domain_mask(grid: Grid, domain: DomainSpec) -> np.ndarray:
    """Boolean support indicator of a bounded 1-D domain, centred in the
    box: the nodes a whole number of grid steps from the centre node x = 0
    whose offset (steps times spacing) lies below the inradius, so a node
    on the boundary is outside and the mask is symmetric.  The constant is
    translation invariant and an interval is a 1-D ball, so an interval
    (a, b) is solved as (-(b - a)/2, (b - a)/2).  The inradius must lie
    below the box half-width, or the periodic box would wrap the domain
    onto itself; `_support` checks the nodes."""
    if not domain.bounded:
        raise DomainError("whole-space domains have no mask")
    if domain.dim != 1:
        raise GridError("the spectral solver is one-dimensional")
    if not domain.inradius < grid.half_width:
        raise GridError(
            f"{domain} does not fit in the box [-{grid.half_width:g}, "
            f"{grid.half_width:g}): its inradius {domain.inradius:g} must lie below "
            "the box half-width")
    steps = np.abs(np.arange(grid.points) - grid.points // 2)
    return steps * grid.spacing < domain.inradius


def _apply(symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The circulant of size n whose spectrum is the given even symbol, held
    on the n/2 + 1 nonnegative `rfft` frequencies, applied to u zero-padded
    to n samples; returns the first len(u) entries.  With len(u) = n this is
    the Fourier multiplier on the periodic box; with len(u) = m < n it is the
    leading m x m Toeplitz block of that circulant."""
    n = 2 * (symbol.shape[0] - 1)
    return np.fft.irfft(symbol * np.fft.rfft(u, n=n), n=n)[:u.shape[0]]


def _embed(symbol: np.ndarray, m: int) -> np.ndarray:
    """The spectrum of a circulant whose leading m x m block is that of the
    M-point circulant with the given symbol, of the smallest power-of-two
    size n >= 2m - 1 (Chan-Ng embedding of a symmetric Toeplitz block): its
    first column e holds the box kernel's offsets -(m-1) .. m-1 and zeros in
    between.  When n would not be smaller than M the box symbol serves."""
    M = 2 * (symbol.shape[0] - 1)
    n = 1 << (2 * m - 2).bit_length()
    if n >= M:
        return symbol
    c = np.fft.irfft(symbol, n=M)
    e = np.zeros(n)
    e[:m] = c[:m]
    e[n - m + 1:] = c[M - m + 1:]
    # e is even (e[j] = e[n - j]), so its spectrum is real to rounding
    return np.fft.rfft(e).real


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> in numpy's own summation loop, not BLAS: a multi-threaded BLAS
    sum makes the last bits of every estimate depend on the thread count,
    and its threads' wake-up measured ~1 s once per process on a shared
    2-core machine."""
    return float(np.einsum("i,i->", a, b))


def _value(u: np.ndarray, Au: np.ndarray, h: float, q: float,
           Q: Optional[np.ndarray], w: np.ndarray, scratch: np.ndarray
           ) -> tuple[float, float]:
    """The weighted quotient

        R(u) = h <A u + V u, u> / (h sum Q |u|^q)^(2/q)

    given the applied energy Au = A u + V u and w = |u|^q (as `_normalize`
    writes it); Q = None stands for Q = 1, and Q w is written to scratch.
    Returns R and G = h sum Q |u|^q, which `_gradient` takes.  Every solver
    descends on this function.
    """
    E = h * _dot(u, Au)
    G = h * float((w if Q is None else np.multiply(Q, w, out=scratch)).sum())
    return E / G ** (2.0 / q), G


def _gradient(u: np.ndarray, Au: np.ndarray, h: float, q: float,
              Q: Optional[np.ndarray], w: np.ndarray, R: float, G: float,
              out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The gradient (2 h Au - R 2 h G^(2/q - 1) Q |u|^(q-2) u) / G^(2/q) of
    `_value`'s quotient, from its R and G, written to out (and returned);
    scratch takes the second term."""
    # |u|^(q-2) u = |u|^q / u, set to its limit 0 at u = 0 (q > 1; also the
    # q = 1 convention), which avoids 0**negative for q < 2
    scratch.fill(0.0)
    np.divide(w, u, out=scratch, where=u != 0.0)
    if Q is not None:
        np.multiply(Q, scratch, out=scratch)
    np.multiply(2.0 * h * G ** (2.0 / q - 1.0), scratch, out=scratch)
    np.multiply(R, scratch, out=scratch)
    np.multiply(2.0 * h, Au, out=out)
    np.subtract(out, scratch, out=out)
    out /= G ** (2.0 / q)
    return out


def _normalize(x: np.ndarray, v: np.ndarray, w: np.ndarray, h: float, q: float,
               Q: Optional[np.ndarray], scratch: np.ndarray) -> float:
    """Project x by |.| into v and scale v in place onto the (weighted) unit
    L^q sphere, v = |x| / n, writing v^q = |x|^q / n^q (for `_value`) into
    w and Q w to scratch; returns n."""
    np.abs(x, out=v)
    np.copyto(w, v)
    # a trial point far off the sphere can overflow v^q: refused below
    with np.errstate(over="ignore"):
        # `**=`, not np.power(out=): it takes the scalar fast paths of v ** q
        # (sqrt, square, ... on numpy 1.x), so the bits are those of v ** q
        w **= q
        nq = h * float((w if Q is None else np.multiply(Q, w, out=scratch)).sum())
    n = nq ** (1.0 / q)
    if not 1e-300 < n < math.inf:
        raise ConvergenceError("degenerate field: L^q norm underflow or overflow")
    v /= n
    w /= nq
    return n


_ARMIJO = 1e-4   # sufficient-decrease constant of the line search
_QUOTIENT_TOL = 1e-9   # relative quotient decrease at which a solve stops
_MAX_ITERS = 20000   # iteration cap of every descent; solves take a few dozen
# a whole-space minimizer warns when more than _TAIL_MASS_LIMIT of its q-mass
# lies in the outer _TAIL_FRACTION of the box
_TAIL_FRACTION = 0.05
_TAIL_MASS_LIMIT = 1e-6


def _descend(u: np.ndarray, A: Callable[[np.ndarray], np.ndarray],
             P: Callable[[np.ndarray], np.ndarray], tau_floor: float, h: float,
             q: float, tol: float, Q: Optional[np.ndarray] = None,
             shift: Optional[np.ndarray | float] = None
             ) -> tuple[np.ndarray, list[float], bool]:
    """Minimize `_value`'s quotient from u, over the nodes of u, by
    preconditioned projected gradient descent.

    A applies the energy, u -> A u + V u, and P the preconditioner; the
    direction is d = P g for the gradient g.  Each trial point u - tau d is
    projected by |.| and normalized onto the weighted L^q sphere.  The step
    is a Barzilai-Borwein guess in the P-metric, <s, y> / <y, P y> with s, y
    the last changes of u and g (P y is the change of d, so it costs no
    apply); a pair without positive curvature (<s, y> <= 0 or <y, P y> <= 0)
    takes four times the last accepted step instead, so a run whose steps
    have grown does not restart at the floor.  The step is clamped to
    [tau_floor, 1e8] and halved until the Armijo condition holds, so the
    returned quotient trace is nonincreasing.  Stops when the
    relative decrease falls below tol, or when no step of the line search
    decreases R (stationary at line-search resolution), or unconverged after
    _MAX_ITERS iterations.

    A trial point costs its value R (`_value`) and the Armijo test; the
    gradient (`_gradient`) is formed once per iteration, at the accepted
    point.  The trial field, its power, energy and gradient live in arrays
    allocated once per solve, which trade places with the iterate's and the
    previous iterate's on acceptance, so a trial point allocates only what
    A and P return.

    shift = V - c is given when P inverts the energy shifted by c.  Then
    A d + V d = g + shift d, and a trial point x = u - tau d that |.| leaves
    alone (no negative entry) has the energy (A u + V u) - tau (A d + V d),
    divided by the same norm as x: the descent carries A u + V u and applies
    A only at the start and where |.| changes an entry (A must return a new
    array, which the carried energy may overwrite).  Without shift every
    trial point is applied.  Returns the minimizer, the trace and the
    converged flag.
    """
    # u, u_prev and the trial field v trade places on acceptance, as do g
    # and g_prev, and the energies Au and Av; x is the trial point u - tau d
    # and t scratch.  Only a carried energy needs Ad = A d + V d and Av.
    u0 = u
    u, u_prev, v, w, x, t, g, g_prev = (np.empty(u0.shape) for _ in range(8))
    Ad, Av = (None, None) if shift is None else (np.empty(u0.shape), np.empty(u0.shape))
    _normalize(u0, u, w, h, q, Q, t)
    Au = A(u)
    R, G = _value(u, Au, h, q, Q, w, t)
    _gradient(u, Au, h, q, Q, w, R, G, g, t)
    trace = [R]
    converged = False
    d_prev = None
    for _ in range(_MAX_ITERS):
        d = P(g)
        if Ad is not None:
            np.multiply(shift, d, out=Ad)
            np.add(g, Ad, out=Ad)
        if d_prev is None:
            tau = tau_floor
        else:
            dg = np.subtract(g, g_prev, out=x)
            sy = _dot(np.subtract(u, u_prev, out=t), dg)
            yPy = _dot(dg, np.subtract(d, d_prev, out=t))
            # tau still holds the last accepted step
            tau = sy / yPy if sy > 0 and yPy > 0 else 4.0 * tau
            tau = min(max(tau, tau_floor), 1e8)
        for _bt in range(80):
            np.multiply(tau, d, out=x)
            np.subtract(u, x, out=x)
            try:
                n = _normalize(x, v, w, h, q, Q, t)
            except ConvergenceError:
                tau *= 0.5
                continue
            if Ad is not None and x.min() >= 0.0:
                np.multiply(tau, Ad, out=Av)
                np.subtract(Au, Av, out=Av)
                Av /= n
            else:
                Av = A(v)
            Rv, G = _value(v, Av, h, q, Q, w, t)
            decrease = _dot(g, np.subtract(v, u, out=t))
            if Rv <= R + _ARMIJO * min(decrease, 0.0):
                break
            tau *= 0.5
        else:
            # no descent direction at line-search resolution: stationary
            converged = True
            break
        rel = (R - Rv) / max(R, 1e-300)
        # g_prev has served the step: the accepted gradient takes its array
        _gradient(v, Av, h, q, Q, w, Rv, G, g_prev, t)
        u_prev, u, v = u, v, u_prev
        g_prev, g = g, g_prev
        Au, Av = Av, Au
        d_prev = d
        R = Rv
        trace.append(R)
        if rel < tol:
            converged = True
            break
    return u, trace, converged


def _gaussian_norms(s: float) -> tuple[float, float]:
    """The energy E = 2^(s - 1/2) Gamma(s + 1/2), under the symbol
    |2 pi xi|^(2s) of the grids, and the mass B = sqrt(pi/2) of exp(-x^2)."""
    return 2.0 ** (s - 0.5) * math.gamma(s + 0.5), math.sqrt(0.5 * math.pi)


def _start_width(s: float, q: float, V: np.ndarray | float,
                 Q: Optional[np.ndarray]) -> float:
    """The width lambda of the start exp(-(x/lambda)^2) of `_box_descent`.

    Where V = c > 0 and Q are constant, u(x/lambda) has the quotient
    (lambda^(-2s phi) E + lambda^(2s theta) c B) / G for the norms E, B, G of
    u = exp(-x^2), theta = (1/s)(1/2 - 1/q) and phi = 1 - theta (Weinstein's
    scaling), least for 0 < theta < 1 at the `_dilation_argmin` of E and
    c B (`_gaussian_norms`).  Elsewhere (q <= 2, q at or above the critical
    exponent, V or Q not constant, or an argmin outside the positive
    doubles) the width is 1.
    """
    c = float(np.max(V))
    theta = _inv_gap(2.0, q) / s
    if not (0.0 < theta < 1.0 and c > 0.0 and float(np.min(V)) == c
            and (Q is None or float(np.min(Q)) == float(np.max(Q)))):
        return 1.0
    E, B = _gaussian_norms(s)
    try:
        lam = _dilation_argmin(theta, 1.0 - theta, E, c * B, 2.0 * s)
    except OverflowError:   # a Python float power raises where numpy gives inf
        return 1.0
    return lam if 0.0 < lam < math.inf else 1.0


def _box_descent(grid: Grid, s: float, q: float, tol: float,
                 V: np.ndarray | float, Q: Optional[np.ndarray] = None
                 ) -> tuple[np.ndarray, list[float], bool]:
    """`_descend` on all M box nodes for the energy (-Lap)^s u + V u, from
    exp(-(x/lambda)^2) at the width of `_start_width`: the whole-space solve
    (V = 1) and the ground state share it.

    With c = max V it applies the energy as (symbol + c) v through the box
    circulant plus (V - c) v pointwise, and P = 1/(symbol + c) inverts the
    spectral part, so it passes the shift V - c and the step floor
    1 / max((symbol + c) P).  V = 1 gives A = symbol + 1 and the shift 0.
    """
    # x / lambda and its square overflow to inf on a huge box (or a narrow
    # start), where exp(-inf) = 0 is the limit; lambda = 1 leaves x as it is
    with np.errstate(over="ignore"):
        y = grid.x / _start_width(s, q, V, Q)
        start = np.exp(-y * y)
    c = float(np.max(V))
    A = grid.multiplier(s) + c
    P = 1.0 / A
    shift = V - c
    return _descend(start, lambda v: _apply(A, v) + shift * v, partial(_apply, P),
                    1.0 / float(np.max(A * P)), grid.spacing, q, tol, Q=Q, shift=shift)


def _support(grid: Grid, mask: np.ndarray) -> slice:
    """The slice of the one run of nodes where a support mask is True; any
    other mask is refused.  The run holds at least 3 nodes (on fewer the cap
    start of `minimize_quotient` vanishes) and fewer than all M (where a
    constant has zero energy).  Its scale is the solve's: any width will
    do."""
    if not isinstance(mask, np.ndarray) or mask.shape != (grid.points,):
        raise GridError(f"the support mask must have shape ({grid.points},), one entry "
                        f"per grid node, got {np.shape(mask)}")
    if mask.dtype != np.bool_:
        raise GridError(f"the support mask must be boolean, got dtype {mask.dtype}")
    nodes = np.flatnonzero(mask)
    if not 3 <= nodes.size < grid.points:
        raise GridError(f"the support mask holds {nodes.size} of the {grid.points} nodes "
                        f"on [-{grid.half_width:g}, {grid.half_width:g}); the solver "
                        f"needs at least 3 and fewer than {grid.points}")
    runs = 1 + int(np.count_nonzero(np.diff(nodes) > 1))
    if runs > 1:
        raise GridError(f"the support mask must be one run of nodes, got {runs} runs")
    return slice(int(nodes[0]), int(nodes[-1]) + 1)


def minimize_quotient(grid: Grid, mask: Optional[np.ndarray], s: float, q: float,
                      mode: str) -> SolveResult:
    """Minimize the discrete Rayleigh quotient; returns the estimate, the
    minimizer field, and the (nonincreasing) quotient trace.  The descent
    stops unconverged after _MAX_ITERS iterations.

    mode is "domain" (requires a mask; quotient without the mass term) or
    "whole_space" (adds ||u||_2^2 to the numerator; takes no mask, and
    refuses one with `DomainError`).  A domain mask (`domain_mask`) must be
    a boolean array with one entry per grid node, True on one run that
    `_support` accepts; any other mask is refused (`GridError`).

    A whole-space solve is `_box_descent` with V = 1, at the tolerance
    _QUOTIENT_TOL, from exp(-(x/lambda)^2) at the best dilation lambda of
    `_start_width` for 2 < q below the critical exponent (from exp(-x^2)
    elsewhere), and warns when its minimizer's q-mass reaches the box
    edge.  A domain solve hands `_descend` the m nodes of that run alone,
    so its cost per iteration scales with m, not with M, with the Toeplitz
    blocks (`_embed`) of symbol and of P = 1/(symbol + 1), which are not
    inverses: no shift.  It puts the minimizer back on the box, zero off
    the run.

    A domain solve owns its scale: with rho = (m - 1) h / 2 the run's
    half-width and k the exponent with rho 2^-k in [1/2, 1), it solves on
    Grid(L 2^-k, M), the same discrete problem (a power of two changes the
    spacing, nodes and frequencies exactly) at the scale that the shift 1
    of P and the step bounds of `_descend` suit.  The estimate and trace
    come back times 2^(k e), e = 1 - 2s - 2/q the dilation exponent, and the
    minimizer times 2^(-k/q), all in the caller's scale; a factor or a trace
    outside the double range is a `DomainError`.  (-1, 1) at the default
    grid has rho = 255/256, so k = 0.

    The descent stays in the cone u >= 0, which holds the minimizer when the
    projection |.| does not raise the discrete energy.  For s <= 1/2 the
    periodic kernel irfft(grid.multiplier(s), n=M) is nonpositive off the
    diagonal (to rounding), so that is so.  For s > 1/2 it has positive
    entries at even offsets (k_2/k_0 = 0.07 at s = 0.75), so the cone
    minimum of the discrete quotient need not be its signed minimum; the
    continuum contraction holds for every s < 1, and smooth iterates have
    not been seen to differ.  The solves of N = 1 sandwiches have s <= 1/2
    (p = 2 bounds need N >= 2s), so this concerns direct library solves
    and `groundstate`.
    """
    if mode not in ("domain", "whole_space"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "domain" and mask is None:
        raise DomainError("domain mode requires a support mask")
    if mode == "whole_space" and mask is not None:
        raise DomainError("whole_space mode takes no support mask")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if not q >= 1.0:
        raise DomainError(f"q must be >= 1, got {q}")

    if mode == "whole_space":
        u, trace, converged = _box_descent(grid, s, q, _QUOTIENT_TOL, 1.0)
        # u >= 0: the descent projects by |.|
        edge = np.abs(grid.x) >= (1.0 - _TAIL_FRACTION) * grid.half_width
        mass = np.sum(u[edge] ** q) / np.sum(u ** q)
        tail_warning = bool(mass > _TAIL_MASS_LIMIT)
    else:
        # the descent runs on the support's nodes alone, from the cap
        # (k0^2 - (x-c)^2)_+^s of half its width, on the box scaled by 2^-k
        support = _support(grid, mask)
        rho = 0.5 * (support.stop - support.start - 1) * grid.spacing
        k = math.frexp(rho)[1]
        at = f"s={s}, q={q} on a support of half-width {rho:g}"
        scale = _power(2.0, k * _dilation_exponent(1, s, 2.0, q), at)
        unit = Grid(math.ldexp(grid.half_width, -k), grid.points)
        symbol = unit.multiplier(s)
        xs = unit.x[support]
        center = 0.5 * (xs.max() + xs.min())
        k0 = 0.5 * (xs.max() - xs.min()) / 2.0
        cap = np.maximum(k0 ** 2 - (xs - center) ** 2, 0.0) ** s
        P = 1.0 / (symbol + 1.0)
        u_support, trace, converged = _descend(
            cap, partial(_apply, _embed(symbol, cap.size)),
            partial(_apply, _embed(P, cap.size)), 1.0 / float(np.max(symbol * P)),
            unit.spacing, q, _QUOTIENT_TOL)
        trace = [scale * t for t in trace]
        if not 0.0 < trace[-1] <= trace[0] < math.inf:
            raise DomainError(f"the quotient times {scale!r} leaves the double range at {at}")
        u = np.zeros(grid.points)
        u[support] = _power(2.0, -k / q, at) * u_support
        tail_warning = False

    return SolveResult(estimate=trace[-1], minimizer=Field(grid, u),
                       trace=np.asarray(trace), converged=converged,
                       iterations=len(trace) - 1,
                       tail_mass_warning=tail_warning)


_SANDWICH_TOL = 0.02   # sandwich acceptance band, relative to each bound
_DEFAULT_POINTS = 4096   # grid points of a solve where none are given


def default_grid(domain: DomainSpec, points: int = _DEFAULT_POINTS,
                 half_width: float | None = None) -> Grid:
    """The sandwich grid: `points` nodes on [-half_width, half_width], by
    default 8 x the inradius of a bounded domain or the whole-space
    truncation.  A bounded domain whose default box, of width 16 x its
    inradius, overflows a double is refused."""
    if half_width is None:
        if domain.bounded and not math.isfinite(16.0 * domain.inradius):
            raise GridError(f"the default box of {domain} overflows a double: its width "
                            f"16 x the inradius {domain.inradius:g} is not finite")
        half_width = 8.0 * domain.inradius if domain.bounded else domain.truncation
    return Grid(half_width=half_width, points=points)


def _solves(params: Params) -> bool:
    """Whether `sandwich` runs the spectral minimizer at this point: p = 2
    in N = 1.  Any other point takes an exact value or is bound-only, and
    needs no grid."""
    return params.regime() is not Regime.BORDERLINE and params.N == 1


def sandwich(params: Params, domain: DomainSpec, grid: Grid | None = None,
             C1: float = 1.0, C2: float = 1.0) -> SandwichReport:
    """Assemble lower/upper bounds and a numeric estimate for one parameter
    point and check lower (1 - tol) <= numeric <= upper (1 + tol) at the
    fixed band tol = _SANDWICH_TOL.

    p=1 on balls uses the exact characteristic-function value in place of a
    descent output (the constant is attained there); p=1 on the whole space
    is bound-only, since its bracket is the exact constant.  p=2 runs the
    spectral minimizer (N = 1 grids) on `grid`, by default `default_grid`;
    a whole-space record notes when no field on its box, or on its grid,
    can reach the bracket.
    """
    pair = bounds_for(params, domain, C1=C1, C2=C2)
    lo, up = pair.lower, pair.upper
    numeric = None
    if not _solves(params):
        if params.regime() is not Regime.BORDERLINE:
            note = "bound-only: spectral solver is one-dimensional"
        elif not domain.bounded:
            note = "bound-only: the p=1 whole-space bracket is the exact constant"
        else:
            # a bounded domain is a ball or a 1-D interval (= ball)
            numeric = ConstantValue(lo.value, ConstantKind.NUMERIC_ESTIMATE,
                                    "char-ball-exact", error_estimate=lo.error_estimate)
            note = "exact char-function value"
    else:
        if grid is None:
            grid = default_grid(domain)
        mask = domain_mask(grid, domain) if domain.bounded else None
        mode = "domain" if domain.bounded else "whole_space"
        res = minimize_quotient(grid, mask, params.s, params.q, mode)
        # the acceptance band, until a measured discretization bias replaces it
        numeric = ConstantValue(res.estimate, ConstantKind.NUMERIC_ESTIMATE,
                                "rayleigh-numeric",
                                error_estimate=_SANDWICH_TOL * res.estimate)
        notes = []
        if not res.converged:
            notes.append("solver hit its iteration cap")
        if res.tail_mass_warning:
            notes.append("tail mass near truncation boundary")
        if not domain.bounded:
            # q >= 2 puts every quotient on the box in [h^e, (2L)^e], e = 1 - 2/q:
            # a constant field has zero energy, and ||u||_lq <= ||u||_l2
            e = 1.0 - 2.0 / params.q
            flat, spike = (2.0 * grid.half_width) ** e, grid.spacing ** e
            if flat < lo.value * (1 - _SANDWICH_TOL):
                notes.append("the box cannot reach the bracket: a constant field has "
                             f"quotient {flat:g}")
            if spike > up.value * (1 + _SANDWICH_TOL):
                notes.append("the grid cannot reach the bracket: every field on it has "
                             f"quotient at least {spike:g}")
        note = "; ".join(notes)

    if numeric is None:   # bound-only: BoundPair has checked lower <= upper
        return SandwichReport(lo, up, None, None, None, passed=True, note=note)
    sl = (numeric.value - lo.value) / lo.value
    su = (up.value - numeric.value) / up.value
    passed = (numeric.value >= lo.value * (1 - _SANDWICH_TOL)
              and numeric.value <= up.value * (1 + _SANDWICH_TOL))
    return SandwichReport(lo, up, numeric, sl, su, passed, note)


def sweep(param_list: list[Params], domain: DomainSpec, C1: float = 1.0,
          C2: float = 1.0, *, points: int = _DEFAULT_POINTS,
          half_width: float | None = None) -> list[SandwichReport | FracsobError]:
    """One sandwich per parameter point, each checked at the fixed band
    _SANDWICH_TOL, run serially; a point's refusal (a `FracsobError`) is
    recorded in its place and does not interrupt the sweep, while any other
    exception propagates.  Reports keep input order.

    A refusal that every point would make is the sweep's, not a point's: it
    propagates.  A Trudinger-Moser constant C1/C2 that `bounds_for` would
    refuse is refused before any point.  Every point that solves
    (`_solves`) runs on one grid, default_grid(domain, points, half_width),
    built at the first such point, so a sweep that solves nothing needs no
    grid; a refusal of that grid (`GridError`) propagates too."""
    _check_tm_constants(C1, C2)
    grid = None

    def run(p: Params):
        nonlocal grid
        if grid is None and _solves(p):
            grid = default_grid(domain, points, half_width)
        try:
            return sandwich(p, domain, grid, C1=C1, C2=C2)
        except FracsobError as exc:
            return exc

    return [run(p) for p in param_list]
