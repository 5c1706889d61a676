"""Test-function profiles, their closed-form norms, and the upper-bound
objectives they generate, plus oracle-grade quadrature.

Profiles (radial, N = 1 for the quadrature oracles):

* char_ball(k): the characteristic function of [-k, k];
* bump(k): the cap profile (k^2 - x^2)^s on |x| < k.

Each test-function family, inserted into the whole-space Rayleigh quotient,
produces a one- or two-parameter objective whose closed-form minimum is the
corresponding whole-space upper bound.  The cap's norms are those of
`bounds._cap_norms` scaled to radius k, and the char-ball and bump argmins
are `bounds._dilation_argmin`, where `bounds._dilation_min` is attained;
the two-parameter Moser objectives come from the truncated logarithm,
constant ln(K/k) on |x| <= k and ln(K/|x|) on k <= |x| <= K.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _cap_norms, _dilation_argmin, _dilation_exponent, _dilation_weights
from .constants import Params, Regime, frac_isoperimetric, unit_ball_volume
from .errors import DomainError, RegimeError
from .specfun import QuadratureConfig, integrate

__all__ = [
    "RadialProfile",
    "bump_seminorm_sq",
    "bump_lq_norm",
    "Objective",
    "objective_value",
    "objective_minimizer",
    "gagliardo_seminorm_1d",
    "moser_bound_check",
]


@dataclass(frozen=True)
class RadialProfile:
    """A compactly supported radial test profile on the line."""

    kind: str                     # "char_ball" | "bump"
    k: float
    s: Optional[float] = None     # cap exponent, bump only

    def __post_init__(self):
        if self.kind not in ("char_ball", "bump"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if not self.k > 0:
            raise DomainError("profile radius k must be positive")
        if self.kind == "bump":
            if self.s is None or not 0.0 < self.s < 1.0:
                raise DomainError("bump profile needs a cap exponent s in (0,1)")

    @staticmethod
    def char_ball(k: float) -> "RadialProfile":
        return RadialProfile("char_ball", k)

    @staticmethod
    def bump(k: float, s: float) -> "RadialProfile":
        return RadialProfile("bump", k, s=s)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "char_ball":
            return (np.abs(x) < self.k).astype(float)
        return np.maximum(self.k ** 2 - x * x, 0.0) ** self.s


def bump_seminorm_sq(N: int, s: float, k: float) -> float:
    """Closed form ||(-Lap)^(s/2) u||_2^2 for the cap profile (k^2-|x|^2)^s:
    the unit cap's E (`bounds._cap_norms`) times k^(N+2s)."""
    if not (N >= 1 and 0.0 < s < 1.0 and k > 0.0):
        raise DomainError(f"invalid bump parameters N={N}, s={s}, k={k}")
    return _cap_norms(N, s, 2.0)[0] * k ** (N + 2.0 * s)


def bump_lq_norm(N: int, s: float, q: float, k: float) -> float:
    """Closed form ||u||_q for the cap profile: the square root of the unit
    cap's G (`bounds._cap_norms`) times k^(N/q+2s)."""
    if not (N >= 1 and 0.0 < s < 1.0 and k > 0.0 and q >= 1.0):
        raise DomainError(f"invalid parameters N={N}, s={s}, q={q}, k={k}")
    return math.sqrt(_cap_norms(N, s, q)[2]) * k ** (N / q + 2.0 * s)


# ---------------------------------------------------------------------------
# upper-bound objectives


class Objective(enum.Enum):
    CHAR_BALL = "char-ball"   # p=1 whole space, characteristic functions
    BUMP = "bump"             # p=2 whole space, cap profiles
    MOSER_BALL = "moser-ball"  # limiting case, unit interval
    MOSER_LINE = "moser-line"  # limiting case, whole line


_REGIME = {Objective.CHAR_BALL: Regime.BORDERLINE, Objective.BUMP: Regime.HILBERT,
           Objective.MOSER_BALL: Regime.LIMITING, Objective.MOSER_LINE: Regime.LIMITING}


def _require_regime(which: Objective, params: Params) -> None:
    """Refuse an objective outside the regime whose bound it generates."""
    if which not in _REGIME:
        raise DomainError(f"unknown objective {which!r}")
    if params.regime() is not _REGIME[which]:
        raise RegimeError(f"{which.value} objective needs the {_REGIME[which].value} "
                          f"regime, got {params}")


def _unit_norms(which: Objective, params: Params) -> tuple[float, float, float]:
    """E, B = ||u||_p^p and G = ||u||_q^p of the family's radius-1 profile: the
    cap's `bounds._cap_norms`, or for the unit ball S w^(1/crit) (its
    s-perimeter, S the isoperimetric constant), w and w^(1/q), w = omega_N."""
    N, s, q = params.N, params.s, params.q
    if which is Objective.BUMP:
        return _cap_norms(N, s, q)
    w = unit_ball_volume(N)
    E = frac_isoperimetric(N, s).value * w ** (1.0 / params.critical_exponent)
    return E, w, w ** (1.0 / q)


def _objective(which: Objective, params: Params, k: float, K: float | None) -> float:
    """The objective at (k, K), unchecked."""
    N, s, p, q = params.N, params.s, params.p, params.q
    if which in (Objective.CHAR_BALL, Objective.BUMP):   # radius k dilates E, B and G
        E, B, G = _unit_norms(which, params)
        return (E * k ** _dilation_exponent(N, s, p, q) + B * k ** (N - p * N / q)) / G
    if which is Objective.MOSER_BALL:
        return 2.0 ** (-2.0 / q) * math.pi * k ** (-2.0 / q) / math.log(K / k)
    return 2.0 ** (-2.0 / q) * (
        math.pi * k ** (-2.0 / q) / math.log(K / k) + 2.0 * k ** (-2.0 / q) * K)


def objective_value(which: Objective, params: Params, k: float,
                    K: float | None = None) -> float:
    """Evaluate the upper-bound objective of a test-function family at the
    given profile parameters."""
    _require_regime(which, params)
    if not k > 0.0:
        raise DomainError(f"k must be positive, got {k}")
    if _REGIME[which] is Regime.LIMITING and (K is None or not K > k):
        raise DomainError("moser objectives need K > k")
    if which is Objective.MOSER_BALL and K > 1.0:
        raise DomainError("moser-ball objective needs K <= 1")
    return _objective(which, params, k, K)


def objective_minimizer(which: Objective, params: Params
                        ) -> tuple[tuple[float, ...], float]:
    """Closed-form argmin and minimum of an upper-bound objective.

    The minimum value equals the corresponding whole-space (or unit-ball)
    upper bound of the matching theorem-regime formula.
    """
    _require_regime(which, params)
    q = params.q
    if which is Objective.MOSER_BALL:
        k_star, K_star = math.exp(-q / 2.0), 1.0
        return (k_star, K_star), _objective(which, params, k_star, K_star)
    if q <= params.p:   # the infimum is approached as k -> inf
        raise RegimeError(f"no attained minimizer at q <= p = {params.p:g}")
    if which is Objective.MOSER_LINE:
        K_star = 2.0 * math.pi / (q - 2.0) ** 2
        k_star = K_star * math.exp(-(q - 2.0) / 2.0)
        return (k_star, K_star), _objective(which, params, k_star, K_star)
    E, B, _ = _unit_norms(which, params)
    k_star = _dilation_argmin(*_dilation_weights(params), E, B, params.p * params.s)
    return (k_star,), _objective(which, params, k_star, None)


# ---------------------------------------------------------------------------
# oracle-grade quadrature seminorm (N = 1)

_DELTA = 1e-4  # near-diagonal cut; below it the profile modulus model applies


def _difference_lp(profile: RadialProfile, p: float, ts: np.ndarray,
                   cfg: QuadratureConfig) -> np.ndarray:
    """D(t) = int |u(x+t) - u(x)|^p dx for each shift 0 < t <= 2k in ts.

    D(t) is the sum over the pieces [-k-t, -k], [-k, k-t] and [k-t, k],
    which end at the kinks of u(x) and u(x + t).  Each piece is mapped onto
    [0, 1] by x = x0(t) + (x1(t) - x0(t)) r, so every shift has its kinks at
    r = 0 and r = 1, and each piece is one stacked quadrature with a row per
    shift.  At t = 2k the middle piece has length 0 and adds exactly 0.
    """
    k = profile.k
    t = np.asarray(ts, dtype=float)[:, None]
    total = 0.0
    for x0, x1 in ((-k - t, -k), (-k, k - t), (k - t, k)):
        width = x1 - x0

        def piece(r):
            x = x0 + width * r
            return width * np.abs(profile(x + t) - profile(x)) ** p

        v, _ = integrate(piece, 0.0, 1.0, cfg)
        total += v
    return total


def gagliardo_seminorm_1d(profile: RadialProfile, s: float, p: float) -> float:
    """Gagliardo seminorm (to the p-th power) of a 1-D profile by adaptive
    double quadrature:

        int int |u(x)-u(y)|^p / |x-y|^(1+sp) dx dy
            = 2 int_0^inf D(t) t^(-1-sp) dt,   D(t) = int |u(x+t)-u(x)|^p dx.

    The diagonal band t < 1e-4 is handled by the profile's smoothness
    modulus (D(t) ~ C t^beta anchored at t = delta); t beyond the support
    diameter contributes the exact disjoint-support tail D(diam) diam^(-sp)/sp.
    Each inner piece of D(t) ends at a kink of u(x) or u(x+t) and is mapped
    onto [0, 1], so the kinks sit at r = 0 and r = 1 for every shift; for the
    cap profile they are (x - x0)^s powers, which the inner quadrature
    removes by declaring the endpoint exponent 1 - s on both ends.  The 15
    shifts of an outer panel share one stacked inner quadrature per piece.
    """
    if p not in (1, 2, 1.0, 2.0):
        raise DomainError(f"p must be 1 or 2, got {p}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    sp = s * p
    if profile.kind == "char_ball" and sp >= 1.0:
        raise DomainError(
            f"characteristic functions are not in W^(s,p) for sp >= 1 (sp={sp})")
    kink = 1.0 - profile.s if profile.kind == "bump" else None
    inner = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-8, max_subdivisions=400,
                             left_singularity_exponent=kink,
                             right_singularity_exponent=kink)

    diam = 2.0 * profile.k
    delta = min(_DELTA, 0.5 * diam)

    # smoothness exponent of D(t) as t -> 0
    if p == 1 or profile.kind == "char_ball":
        beta_exp = 1.0
    else:
        beta_exp = min(2.0, 1.0 + 2.0 * profile.s)
    # the supports of u and u(. + diam) are disjoint: D(diam) = 2 ||u||_p^p
    d_delta, d_diam = _difference_lp(profile, p, [delta, diam], inner)
    near = d_delta / delta ** beta_exp * delta ** (beta_exp - sp) / (beta_exp - sp)

    mid, _ = integrate(
        lambda ts: _difference_lp(profile, p, ts, inner) * ts ** (-1.0 - sp),
        delta, diam, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=400))

    tail = d_diam * diam ** (-sp) / sp

    return float(2.0 * (near + mid + tail))


_LANDEN = math.sqrt(2.0) - 1.0   # fixed point of t -> (1-t)/(1+t)
_ODD = 2.0 * np.arange(64) + 1.0


def _chi2_gap(t: np.ndarray) -> np.ndarray:
    """pi^2/8 - chi_2(t) for 0 < t <= 1, where Legendre's chi_2(t) is the sum
    of t^n/n^2 over odd n.  The series runs only at arguments <= sqrt(2) - 1:
    above that, Landen's identity chi_2(t) + chi_2(y) = pi^2/8 - ln(t) ln(y)/2,
    y = (1-t)/(1+t), gives the gap without cancellation as t -> 1."""
    low = t <= _LANDEN
    y = np.where(low, t, (1.0 - t) / (1.0 + t))
    chi2 = (y[:, None] ** _ODD / _ODD ** 2).sum(axis=1)
    landen = 0.5 * np.log(t) * np.log(np.maximum(y, np.finfo(float).tiny))
    return np.where(low, math.pi ** 2 / 8.0 - chi2, landen + chi2)


def moser_bound_check(k: float, K: float) -> tuple[float, float, float]:
    """Quantify the slack in the truncated-log energy estimate.

    Returns (numeric_seminorm, bound, slack) where

        numeric_seminorm = (2/pi) int_k^K int_k^K (xy)^(-1) ln|(x+y)/(x-y)| dx dy,
        bound            = pi (ln K - ln k),

    and slack = bound - numeric_seminorm is nonnegative because the inner
    logarithmic integral never exceeds pi^2/2.  That integral is
    int_k^y ln((y+x)/(y-x)) dx/x = 2 (pi^2/8 - chi_2(k/y)), so with t = k/y
    the seminorm is one quadrature (absolute tolerance 1e-9, relative 1e-8):

        numeric_seminorm = (8/pi) int_{k/K}^1 (pi^2/8 - chi_2(t)) dt/t.
    """
    if not 0.0 < k < K:
        raise DomainError(f"need 0 < k < K, got k={k}, K={K}")
    val, _ = integrate(lambda t: _chi2_gap(t) / t, k / K, 1.0,
                       QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=400))
    numeric = (8.0 / math.pi) * val
    bound = math.pi * math.log(K / k)
    return numeric, bound, bound - numeric
