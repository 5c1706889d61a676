"""Existence/nonexistence threshold constants built from embedding constants,
a desk-scale constrained ground-state solver, and the coupled-system
nonexistence diagnostic.

All threshold formulas take the embedding constant S as an input, so that a
certified lower bound for S propagates to a certified threshold.  The
ground-state solver is the whole-box descent of the embedding-constant
solver (`varmin._box_descent`) with the potential V and the weight Q, so
at V = Q = 1 it is the whole-space solve of S.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import _power, classical_sobolev, frac_sobolev_hilbert
from .errors import DomainError, GridError, RegimeError
from .grids import Field, Grid
from .varmin import _TAIL_FRACTION, _apply, _box_descent, _dot

__all__ = [
    "ps_level",
    "existence_thresholds",
    "growth_coefficient",
    "nonlinearity_threshold",
    "coupling_alpha",
    "coupling_lambda_interval",
    "pohozaev_defect",
    "check_weight_hypotheses",
    "check_potential_hypotheses",
    "GroundStateReport",
    "ground_state_solve",
]


def _check_q_S(q: float, S: float) -> str:
    """Refuse q <= 2 and S outside (0, inf); name the point for `_power`."""
    if not q > 2.0:
        raise DomainError(f"q must be > 2, got {q}")
    if not S > 0.0:
        raise DomainError(f"S must be positive, got {S}")
    if S == math.inf:
        raise DomainError(f"S must be finite, got {S}")
    return f"S={S!r}, q={q!r}"


def ps_level(q: float, S: float) -> float:
    """First non-compactness energy level (1/2 - 1/q) S^(q/(q-2)).

    Monotone in S, so evaluating at a lower bound for S gives a certified
    lower estimate of the true level.
    """
    at = _check_q_S(q, S)
    return (0.5 - 1.0 / q) * _power(S, q / (q - 2.0), at)


def existence_thresholds(q: float, S: float) -> tuple[float, float]:
    """Norm thresholds satisfied by the constructed positive solution:
    ||u||_{H^s}^2 < S^(q/(q-2)) and ||u||_{L^q} < S^(1/(q-2))."""
    at = _check_q_S(q, S)
    return _power(S, q / (q - 2.0), at), _power(S, 1.0 / (q - 2.0), at)


def growth_coefficient(q: float, S: float) -> float:
    """Coefficient (q/2) S^(q/2) of the power growth condition
    f(t) >= (q/2) S^(q/2) |t|^(q-2) t in the limiting-case scalar field
    equation; evaluating at an upper bound for S is conservative."""
    at = _check_q_S(q, S)
    return q / 2.0 * _power(S, q / 2.0, at)


def nonlinearity_threshold(N: int, s: float, q: float, S: float) -> float:
    """Lower threshold for the coefficient lambda in f(t) >= lambda t^(q-1)
    guaranteeing a ground state of the scalar field equation.

    Branch N >= 2 (0 < s < 1, N > 2s) uses the sharp H^s critical constant;
    branch N = 1, s = 1/2 is ((q-2)/q)^((q-2)/2) S^(q/2).
    """
    at = _check_q_S(q, S)
    if N == 1 and s == 0.5:
        return ((q - 2.0) / q) ** ((q - 2.0) / 2.0) * _power(S, q / 2.0, at)
    if N >= 2 and 0.0 < s < 1.0 and N > 2 * s:
        crit_const = frac_sobolev_hilbert(N, s).value
        sig = N / (2.0 * s)
        bracket = (N ** sig * (q - 2.0)
                   / (2.0 * s * q * crit_const ** sig * (N - 2.0 * s) ** (sig - 1.0)))
        return bracket ** ((q - 2.0) / 2.0) * _power(S, q / 2.0, at)
    raise RegimeError(
        f"nonlinearity threshold needs N>=2 with N>2s, or (N,s)=(1,1/2); got N={N}, s={s}")


def coupling_alpha(N: int, s: float, q: float, S: float) -> float:
    """The fraction alpha_s controlling ground-state existence of the
    coupled system at upper-critical q:

        alpha_s = [ S_crit^(N/2s) / ((N/s)(1/2-1/q) S^(q/(q-2))) ]^(1/(q/(q-2)-N/2s)).

    s = 1 evaluates the classical variant with the first-order critical
    constant.  Raises at q/(q-2) = N/(2s) exactly (the critical q), where
    the exponent is singular.
    """
    at = _check_q_S(q, S)
    if s == 1.0:
        if N <= 2:
            raise RegimeError("classical variant needs N >= 3")
        crit_const = classical_sobolev(N, 2.0).value
    else:
        if not (0.0 < s < 1.0 and N > 2 * s):
            raise RegimeError(f"coupling_alpha needs N > 2s, got N={N}, s={s}")
        crit_const = frac_sobolev_hilbert(N, s).value
    sig = N / (2.0 * s)
    expo_den = q / (q - 2.0) - sig
    if expo_den == 0.0:
        raise DomainError(
            "q/(q-2) equals N/(2s): alpha is singular at the critical exponent")
    level = (N / s) * (0.5 - 1.0 / q) * _power(S, q / (q - 2.0), at)
    base = crit_const ** sig / level
    return _power(base, 1.0 / expo_den, at)


def coupling_lambda_interval(alpha: float) -> tuple[float, float]:
    """Interval [sqrt(1-alpha), 1) containing the coupling threshold."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    return math.sqrt(1.0 - alpha), 1.0


def pohozaev_defect(u: Field, v: Field, lam: float) -> float:
    """int u^2 + int v^2 - 2 lambda int uv.

    For lambda in (0,1) this is bounded below by (1-lambda)(int u^2 + int v^2)
    and vanishes only at u = v = 0: the algebraic core of the nonexistence
    argument at critical coupling.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"lambda must lie in (0,1], got {lam}")
    u.same_grid(v)
    h = u.grid.spacing
    return h * float(np.sum(u.values ** 2) + np.sum(v.values ** 2)
                     - 2.0 * lam * np.sum(u.values * v.values))


# ---------------------------------------------------------------------------
# hypothesis validation for the weight Q and potential V

_HYPOTHESIS_TOL = 1e-12   # rounding slack of the hypotheses' inequalities


def _check_edge(F: Field, name: str) -> None:
    """The rule both fields obey: F -> 1 on the outer `_TAIL_FRACTION` of the box."""
    edge = np.abs(F.grid.x) >= (1.0 - _TAIL_FRACTION) * F.grid.half_width
    if np.max(np.abs(F.values[edge] - 1.0)) > 1e-3:
        raise DomainError(f"{name} must approach 1 at infinity (check the box size)")


def check_weight_hypotheses(Q: Field) -> None:
    """Validate the weight hypotheses on the grid samples: Q >= 1 and
    Q -> 1 on the outer `_TAIL_FRACTION` of the box.  Q = 1 (to rounding) is the
    unperturbed problem, which they leave alone: it passes."""
    v = Q.values
    if np.max(np.abs(v - 1.0)) <= _HYPOTHESIS_TOL:
        return
    if np.min(v) < 1.0 - _HYPOTHESIS_TOL:
        raise DomainError("weight must satisfy Q >= 1")
    _check_edge(Q, "weight")


def check_potential_hypotheses(V: Field) -> None:
    """Validate the potential hypotheses: 0 < V <= 1 and V -> 1 on the outer
    `_TAIL_FRACTION` of the box.  V = 1 (to rounding) is the unperturbed problem,
    which they leave alone: it passes."""
    v = V.values
    if np.max(np.abs(v - 1.0)) <= _HYPOTHESIS_TOL:
        return
    if np.min(v) <= 0.0:
        raise DomainError("potential must be strictly positive")
    if np.max(v) > 1.0 + _HYPOTHESIS_TOL:
        raise DomainError("potential must satisfy V <= 1")
    _check_edge(V, "potential")


# ---------------------------------------------------------------------------
# constrained ground-state solver

# relative quotient decrease at which the ground-state descent stops
_GROUND_STATE_TOL = 1e-13


@dataclass
class GroundStateReport:
    iterations: int
    converged: bool
    energy_trace: np.ndarray
    residual: float
    residual_rel: float
    residual_ok: bool
    h_norm_sq: float
    lq_norm: float


def ground_state_solve(grid: Grid, s: float, q: float, V: Field, Q: Field
                       ) -> tuple[Field, float, GroundStateReport]:
    """Minimize I(u) = 1/2 (||(-Lap)^(s/2)u||^2 + int V u^2) over the
    weighted sphere int Q |u|^q = 1 and rescale the minimizer to a positive
    solution of (-Lap)^s u + V u = Q |u|^(q-2) u.

    Works on the scale-invariant quotient I(u) / (int Q|u|^q)^(2/q), which
    has the same minimizers, with the whole-box descent of the
    embedding-constant solver (`varmin._box_descent`, at the tolerance
    _GROUND_STATE_TOL), which takes a few dozen iterations whatever the grid
    and at most `varmin._MAX_ITERS`.  At V = Q = 1 it is the whole-space
    solve of `minimize_quotient` run to that tolerance: 2 I0 is its
    estimate bit for bit.  Returns (u0, I0, report) with
    u0 = (2 I0)^(1/(q-2)) u; a scale outside the double range (q near 2) is a
    `DomainError`, and so is a scale whose ||u0||_{H^s}^2, ||u0||_q^q or
    squared residual leaves the normal double range.  V and Q outside their
    hypotheses are refused.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if not q > 2.0:
        raise DomainError(f"q must be > 2, got {q}")
    V.same_grid(Q)
    if V.grid != grid:
        raise GridError("V and Q must live on the solver grid")
    check_weight_hypotheses(Q)
    check_potential_hypotheses(V)

    h = grid.spacing
    Vv, Qv = V.values, Q.values

    # the descent minimizes R = 2 I / (int Q|u|^q)^(2/q); J = R/2 is reported
    u, trace, converged = _box_descent(grid, s, q, _GROUND_STATE_TOL, Vv, Qv)
    trace = 0.5 * np.asarray(trace)

    I0 = float(trace[-1])  # u is normalized: the quotient is the constrained minimum
    # u >= 0 (the descent projects by |.|), so u0 is its own |u0|
    u0_vals = _power(2.0 * I0, 1.0 / (q - 2.0), f"s={s}, q={q}") * u
    # |2 pi xi|^(2s) is the symbol of (-Lap)^s in the residual and in
    # ||u0||_{H^s}^2 = h (<u0, A u0> + <u0, u0>)
    Au0 = _apply(grid.multiplier(s), u0_vals)
    nonlin = Qv * u0_vals ** (q - 2.0) * u0_vals
    resid = Au0 + Vv * u0_vals - nonlin
    hs_sq = h * (_dot(u0_vals, Au0) + _dot(u0_vals, u0_vals))
    lq_q = h * float(np.sum(u0_vals ** q))
    res_sq = h * float(np.sum(resid ** 2))
    # near q = 2 the scale is a double but these sums of powers of u0 are
    # not: they underflow to subnormals or to 0, and a norm or a residual
    # taken from them is no longer one
    for name, value in (("h_norm_sq", hs_sq), ("lq_norm^q", lq_q),
                        ("residual^2", res_sq)):
        if not sys.float_info.min <= value < math.inf:
            raise DomainError(f"{name} = {value!r} of u0 = (2 I0)^(1/(q-2)) u "
                              f"leaves the normal double range at s={s}, q={q}")
    rnorm = math.sqrt(res_sq)
    scale = max(math.sqrt(h * float(np.sum(Au0 ** 2))),
                math.sqrt(h * float(np.sum((Vv * u0_vals) ** 2))),
                math.sqrt(h * float(np.sum(nonlin ** 2))))
    rel_res = rnorm / scale

    lqn = lq_q ** (1.0 / q)
    report = GroundStateReport(
        iterations=len(trace) - 1, converged=converged,
        energy_trace=trace, residual=rnorm, residual_rel=rel_res,
        residual_ok=rel_res <= 1e-4,
        h_norm_sq=hs_sq, lq_norm=lqn)
    return Field(grid, u0_vals), I0, report
