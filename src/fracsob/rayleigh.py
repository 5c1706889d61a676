"""Test-function profiles, their closed-form norms, and the upper-bound
objectives they generate, plus oracle-grade quadrature and spectral norms.

Profiles (all radial, N = 1 for the quadrature oracles):

* char_ball(k): the characteristic function of [-k, k];
* bump(k): the cap profile (k^2 - x^2)^s on |x| < k;
* moser(k, K): the truncated logarithm, constant ln(K/k) on |x| <= k,
  ln(K/|x|) on k <= |x| <= K, zero outside.

Each profile family, inserted into the whole-space Rayleigh quotient,
produces a one- or two-parameter objective whose closed-form minimum is the
corresponding whole-space upper bound.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _inv_gap
from .constants import Params, Regime, frac_isoperimetric, unit_ball_volume
from .errors import DomainError, RegimeError
from .grids import Field, Grid
from .specfun import QuadratureConfig, beta_fn, gamma_fn, integrate

__all__ = [
    "RadialProfile",
    "bump_seminorm_sq",
    "bump_lq_norm",
    "Objective",
    "objective_value",
    "objective_minimizer",
    "gagliardo_seminorm_1d",
    "halflap_norm_sq",
    "moser_bound_check",
]


@dataclass(frozen=True)
class RadialProfile:
    """A compactly supported radial test profile on the line."""

    kind: str                     # "char_ball" | "bump" | "moser"
    k: float
    s: Optional[float] = None     # cap exponent, bump only
    K: Optional[float] = None     # outer radius, moser only
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("char_ball", "bump", "moser"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if not self.k > 0:
            raise DomainError("profile radius k must be positive")
        if self.amplitude < 0:
            raise DomainError("amplitude must be nonnegative")
        if self.kind == "bump":
            if self.s is None or not 0.0 < self.s < 1.0:
                raise DomainError("bump profile needs a cap exponent s in (0,1)")
        if self.kind == "moser":
            if self.K is None or not self.K > self.k:
                raise DomainError("moser profile needs K > k")

    @staticmethod
    def char_ball(k: float, amplitude: float = 1.0) -> "RadialProfile":
        return RadialProfile("char_ball", k, amplitude=amplitude)

    @staticmethod
    def bump(k: float, s: float, amplitude: float = 1.0) -> "RadialProfile":
        return RadialProfile("bump", k, s=s, amplitude=amplitude)

    @staticmethod
    def moser(k: float, K: float, amplitude: float = 1.0) -> "RadialProfile":
        return RadialProfile("moser", k, K=K, amplitude=amplitude)

    @property
    def support_radius(self) -> float:
        return self.K if self.kind == "moser" else self.k

    def breakpoints(self) -> list[float]:
        r = [self.k, -self.k]
        if self.kind == "moser":
            r += [self.K, -self.K]
        return sorted(r)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        if self.kind == "char_ball":
            v = (a < self.k).astype(float)
        elif self.kind == "bump":
            v = np.maximum(self.k ** 2 - x * x, 0.0) ** self.s
        else:
            v = np.zeros_like(a)
            core = a <= self.k
            ring = (a > self.k) & (a <= self.K)
            v[core] = math.log(self.K / self.k)
            v[ring] = np.log(self.K / a[ring])
        return self.amplitude * v

    def sample(self, grid: Grid) -> Field:
        """Sample onto a grid; cells containing a kink of the truncated-log
        profile receive cell-averaged values to tame Gibbs contamination."""
        x = grid.x
        vals = self(x)
        if self.kind == "moser":
            h = grid.spacing
            kinks = np.array(self.breakpoints())
            near = np.min(np.abs(x[:, None] - kinks[None, :]), axis=1) <= h / 2
            if near.any():
                offs = (np.arange(9) - 4.0) / 9.0 * h
                sub = self(x[near][:, None] + offs[None, :])
                vals[near] = sub.mean(axis=1)
        return Field(grid, vals)


def bump_seminorm_sq(N: int, s: float, k: float) -> float:
    """Closed form ||(-Lap)^(s/2) u||_2^2 for the cap profile (k^2-|x|^2)^s:
    2^(2s) omega_N N / (N+2s) Gamma(s+1)^2 k^(N+2s)."""
    if not (N >= 1 and 0.0 < s < 1.0 and k > 0.0):
        raise DomainError(f"invalid bump parameters N={N}, s={s}, k={k}")
    return (2.0 ** (2.0 * s) * unit_ball_volume(N) * N / (N + 2.0 * s)
            * gamma_fn(s + 1.0) ** 2 * k ** (N + 2.0 * s))


def bump_lq_norm(N: int, s: float, q: float, k: float) -> float:
    """Closed form ||u||_q for the cap profile:
    [omega_N N/2 B(N/2, qs+1) k^(N+2qs)]^(1/q)."""
    if not (N >= 1 and 0.0 < s < 1.0 and k > 0.0 and q >= 1.0):
        raise DomainError(f"invalid parameters N={N}, s={s}, q={q}, k={k}")
    return (unit_ball_volume(N) * N / 2.0 * beta_fn(N / 2.0, q * s + 1.0)
            * k ** (N + 2.0 * q * s)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# upper-bound objectives


class Objective(enum.Enum):
    CHAR_BALL = "char-ball"   # p=1 whole space, characteristic functions
    BUMP = "bump"             # p=2 whole space, cap profiles
    MOSER_BALL = "moser-ball"  # limiting case, unit interval
    MOSER_LINE = "moser-line"  # limiting case, whole line


def objective_value(which: Objective, params: Params, k: float,
                    K: float | None = None) -> float:
    """Evaluate the upper-bound objective of a test-function family at the
    given profile parameters."""
    if not k > 0.0:
        raise DomainError(f"k must be positive, got {k}")
    N, s, q = params.N, params.s, params.q
    if which is Objective.CHAR_BALL:
        if params.regime() is not Regime.BORDERLINE:
            raise RegimeError("char-ball objective needs the p=1 regime")
        crit = params.critical_exponent
        S = frac_isoperimetric(N, s).value
        w = unit_ball_volume(N)
        return (w ** (1.0 / crit - 1.0 / q) * S * k ** (N * (1.0 / crit - 1.0 / q))
                + w ** (1.0 - 1.0 / q) * k ** (N * (1.0 - 1.0 / q)))
    if which is Objective.BUMP:
        if params.regime() is not Regime.HILBERT:
            raise RegimeError("bump objective needs the p=2, N>2s regime")
        crit = params.critical_exponent
        w = unit_ball_volume(N)
        bq = beta_fn(N / 2.0, q * s + 1.0) ** (-2.0 / q)
        a = 2.0 ** (2.0 * s + 2.0 / q) / (N + 2.0 * s) * gamma_fn(s + 1.0) ** 2 * bq
        b = 2.0 ** (2.0 / q - 1.0) * beta_fn(N / 2.0, 2.0 * s + 1.0) * bq
        return (w * N) ** (1.0 - 2.0 / q) * (
            a * k ** (2.0 * N * _inv_gap(crit, q)) + b * k ** (N * (1.0 - 2.0 / q)))
    # moser objectives: limiting regime, two parameters
    if params.regime() is not Regime.LIMITING:
        raise RegimeError("moser objectives need the limiting regime (N=1, s=1/2, p=2)")
    if K is None or not K > k:
        raise DomainError("moser objectives need K > k")
    if which is Objective.MOSER_BALL:
        if K > 1.0:
            raise DomainError("moser-ball objective needs K <= 1")
        return 2.0 ** (-2.0 / q) * math.pi * k ** (-2.0 / q) / math.log(K / k)
    if which is Objective.MOSER_LINE:
        return 2.0 ** (-2.0 / q) * (
            math.pi * k ** (-2.0 / q) / math.log(K / k) + 2.0 * k ** (-2.0 / q) * K)
    raise DomainError(f"unknown objective {which!r}")


def objective_minimizer(which: Objective, params: Params
                        ) -> tuple[tuple[float, ...], float]:
    """Closed-form argmin and minimum of an upper-bound objective.

    The minimum value equals the corresponding whole-space (or unit-ball)
    upper bound of the matching theorem-regime formula.
    """
    N, s, q = params.N, params.s, params.q
    if which is Objective.CHAR_BALL:
        if params.regime() is not Regime.BORDERLINE:
            raise RegimeError("char-ball objective needs the p=1 regime")
        if q == 1.0:
            raise RegimeError("no attained minimizer at q = 1 (infimum 1 as k -> inf)")
        crit = params.critical_exponent
        S = frac_isoperimetric(N, s).value
        w = unit_ball_volume(N)
        k_star = (S * _inv_gap(q, crit) / (w ** (s / N) * (1.0 - 1.0 / q))) ** (1.0 / s)
        return (k_star,), objective_value(which, params, k_star)
    if which is Objective.BUMP:
        if params.regime() is not Regime.HILBERT:
            raise RegimeError("bump objective needs the p=2, N>2s regime")
        if q <= 2.0:
            raise RegimeError("no attained minimizer at q <= 2")
        crit = params.critical_exponent
        k_star = ((2.0 ** (2.0 * s + 1.0) * gamma_fn(s + 1.0) ** 2 * _inv_gap(q, crit))
                  / ((N + 2.0 * s) * beta_fn(N / 2.0, 2.0 * s + 1.0)
                     * (0.5 - 1.0 / q))) ** (1.0 / (2.0 * s))
        return (k_star,), objective_value(which, params, k_star)
    if params.regime() is not Regime.LIMITING:
        raise RegimeError("moser objectives need the limiting regime")
    if which is Objective.MOSER_BALL:
        k_star, K_star = math.exp(-q / 2.0), 1.0
        return (k_star, K_star), objective_value(which, params, k_star, K_star)
    if which is Objective.MOSER_LINE:
        if q <= 2.0:
            raise RegimeError("no attained minimizer at q <= 2")
        K_star = 2.0 * math.pi / (q - 2.0) ** 2
        k_star = K_star * math.exp(-(q - 2.0) / 2.0)
        return (k_star, K_star), objective_value(which, params, k_star, K_star)
    raise DomainError(f"unknown objective {which!r}")


# ---------------------------------------------------------------------------
# oracle-grade quadrature seminorm (N = 1)

_DELTA = 1e-4  # near-diagonal cut; below it the profile modulus model applies


def _difference_lp(profile: RadialProfile, p: float, t: float,
                   cfg: QuadratureConfig) -> float:
    """D(t) = int |u(x+t) - u(x)|^p dx, with splits at all kink locations."""
    r = profile.support_radius
    pts = sorted(set(profile.breakpoints()
                     + [b - t for b in profile.breakpoints()] + [-r - t, r]))
    total = 0.0
    for x0, x1 in zip(pts[:-1], pts[1:]):
        if x1 - x0 < 1e-300:
            continue
        v, _ = integrate(lambda x: np.abs(profile(x + t) - profile(x)) ** p,
                         x0, x1, cfg)
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
    Every inner piece of D(t) ends at a kink of u(x) or u(x+t); for the cap
    profile these kinks are (x - x0)^s powers, which the inner quadrature
    removes by declaring the endpoint exponent 1 - s on both ends.
    """
    if p not in (1, 2, 1.0, 2.0):
        raise DomainError(f"p must be 1 or 2, got {p}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    sp = s * p
    if profile.kind == "char_ball" and sp >= 1.0:
        raise DomainError(
            f"characteristic functions are not in W^(s,p) for sp >= 1 (sp={sp})")
    if profile.amplitude == 0.0:
        return 0.0
    kink = 1.0 - profile.s if profile.kind == "bump" else None
    inner = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-8, max_subdivisions=400,
                             left_singularity_exponent=kink,
                             right_singularity_exponent=kink)

    diam = 2.0 * profile.support_radius
    delta = min(_DELTA, 0.5 * diam)

    # smoothness exponent of D(t) as t -> 0
    if p == 1 or profile.kind == "char_ball":
        beta_exp = 1.0
    elif profile.kind == "bump":
        beta_exp = min(2.0, 1.0 + 2.0 * profile.s)
    else:
        beta_exp = 2.0
    d_delta = _difference_lp(profile, p, delta, inner)
    near = d_delta / delta ** beta_exp * delta ** (beta_exp - sp) / (beta_exp - sp)

    mid, _ = integrate(
        lambda ts: np.array([_difference_lp(profile, p, t, inner) for t in ts])
        * ts ** (-1.0 - sp),
        delta, diam, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=400))

    # the supports of u and u(. + diam) are disjoint: D(diam) = 2 ||u||_p^p
    tail = _difference_lp(profile, p, diam, inner) * diam ** (-sp) / sp

    return 2.0 * (near + mid + tail)


def halflap_norm_sq(field: Field, s: float) -> float:
    """Discrete ||(-Lap)^(s/2) u||_2^2: Plancherel sum of |2 pi xi|^(2s)
    |u_hat(xi)|^2 over the grid frequencies, scaled to the continuum norm."""
    if not 0.0 <= s < 1.0:
        raise DomainError(f"s must lie in [0,1), got {s}")
    g = field.grid
    U = np.fft.fft(field.values)
    return g.spacing / g.points * float(np.sum(g.multiplier(s) * np.abs(U) ** 2))


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
