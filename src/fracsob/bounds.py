"""Lower/upper bounds for the subcritical embedding constants S_{s,q}.

Three regimes are covered (see `constants.Regime`):

* borderline (p = 1): the exact constant, one closed form on every domain
  `DomainSpec` admits (a ball, an interval, the whole space), printed as
  both ends of the pair;
* Hilbert (p = 2, N > 2s): Hoelder lower bound and the cap-profile upper
  bound on domains;
* limiting (p = 2, N = 1, s = 1/2): truncated-logarithm upper bounds and
  exponential-integrability lower bounds, the latter carrying the caller
  supplied Trudinger-Moser constants C1 (domain) and C2 (whole space).

`bounds_for` is the one entry to these formulas: it checks each input fact
once (scope, the domain's dimension, C1 and C2) and dispatches to one private
formula per regime and domain kind.

Two scaling facts have one owner each: a dilation multiplies a constant by
lambda^(N - sp - Np/q) (`_dilation_exponent`), and the least quotient of
the dilates of a profile is kappa(theta) E^theta B^(1-theta) / G
(`_dilation_min`, attained at `_dilation_argmin`, where `varmin` starts
its whole-space descents).  Every whole-space bound for p = 1, 2 is that
minimum: of a critical constant (lower; for p = 1 both ends) or of the cap
(1 - |x|^2)_+^s, whose norms are `_cap_norms` (upper).

Every bound holds for 1 <= q below the critical exponent, the scope of
`Params.regime()`.  The q-dependent weights and domain exponents are fused
differences (`_inv_gap`), safe from cancellation near the critical exponent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .constants import (
    _EVAL_EPS,
    ConstantKind,
    ConstantValue,
    Params,
    Regime,
    _ln_unit_ball_volume,
    _power,
    frac_isoperimetric,
    frac_sobolev_hilbert,
    unit_ball_volume,
)
from .errors import DomainError, RegimeError
from .specfun import beta_fn, gamma_fn, ln_gamma

__all__ = [
    "DomainSpec",
    "BoundPair",
    "dilation_transfer",
    "young_lower",
    "bounds_for",
]

_DEFAULT_TRUNCATION = 200.0   # whole-space truncation half-width where none is given


def _ball_measure(N: int, radius: float) -> float:
    """omega_N R^N in log space (R^N alone can overflow while the product is
    finite); inf where the product overflows."""
    try:
        return math.exp(_ln_unit_ball_volume(N) + N * math.log(radius))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DomainSpec:
    """A ball, an interval, or the whole space with a truncation half-width.

    A domain is its shape: the measure and inradius of a bounded domain are
    computed from it (omega_N R^N and R for a ball of radius R in R^N).
    """

    kind: str                      # "ball" | "interval" | "whole_space"
    dim: int
    radius: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    truncation: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("ball", "interval", "whole_space"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise DomainError(f"{self.kind} dim must be an integer >= 1, got {self.dim!r}")
        if self.kind == "interval" and self.dim != 1:
            raise DomainError(f"interval dim must be 1, got {self.dim}")
        if self.kind == "ball" and (self.radius is None or self.radius <= 0):
            raise DomainError("ball radius must be positive")
        if self.kind == "interval" and (None in (self.a, self.b) or not self.a < self.b):
            raise DomainError(f"interval requires a < b, got ({self.a}, {self.b})")
        for name in ("radius", "a", "b", "truncation"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise DomainError(f"{self.kind} {name} must be finite, got {v}")
        if self.kind == "whole_space":
            if not (self.truncation and self.truncation > 0):
                raise DomainError("whole_space needs a positive truncation half-width")
        elif not math.isfinite(self.measure):
            raise DomainError(f"{self}: measure overflows a double")
        elif not (self.measure > 0.0 and self.inradius > 0.0):
            raise DomainError(f"{self}: measure or inradius underflows to 0")

    def __str__(self) -> str:
        shape = ", ".join(f"{k}={getattr(self, k):g}" for k in ("radius", "a", "b")
                          if getattr(self, k) is not None)
        return f"{self.kind} ({shape}) in R^{self.dim}"

    @staticmethod
    def ball(radius: float, N: int) -> "DomainSpec":
        return DomainSpec(kind="ball", dim=N, radius=radius)

    @staticmethod
    def interval(a: float, b: float) -> "DomainSpec":
        return DomainSpec(kind="interval", dim=1, a=a, b=b)

    @staticmethod
    def whole_space(truncation: float = _DEFAULT_TRUNCATION, N: int = 1) -> "DomainSpec":
        return DomainSpec(kind="whole_space", dim=N, truncation=truncation)

    @property
    def bounded(self) -> bool:
        return self.kind != "whole_space"

    @property
    def measure(self) -> Optional[float]:
        if self.kind == "ball":
            return _ball_measure(self.dim, self.radius)
        if self.kind == "interval":
            return self.b - self.a
        return None

    @property
    def inradius(self) -> Optional[float]:
        if self.kind == "ball":
            return self.radius
        if self.kind == "interval":
            return (self.b - self.a) / 2.0
        return None


@dataclass(frozen=True)
class BoundPair:
    """A lower/upper bracket around one embedding constant."""

    lower: ConstantValue
    upper: ConstantValue

    def __post_init__(self):
        if self.lower.value > self.upper.value * (1 + 1e-12):
            raise DomainError(
                f"lower bound {self.lower.value} exceeds upper bound {self.upper.value}")


def _inv_gap(q: float, q_crit: float) -> float:
    """1/q - 1/q_crit as a fused expression (cancellation-safe near q_crit)."""
    return (q_crit - q) / (q * q_crit)


def _dilation_exponent(N: int, s: float, p: float, q: float) -> float:
    """N - sp - Np/q, the exponent of S(lambda Omega) = lambda^e S(Omega)."""
    return N - s * p - N * p / q


def _dilation_weights(params: Params) -> tuple[float, float]:
    """theta = (N/s)(1/p - 1/q) and phi = (N/s)(1/q - 1/crit) = 1 - theta."""
    N, s = params.N, params.s
    return (N / s * _inv_gap(params.p, params.q),
            N / s * _inv_gap(params.q, params.critical_exponent))


def _dilation_min(theta: float, phi: float, E: float, B: float) -> float:
    """kappa(theta) E^theta B^phi, kappa = theta^-theta phi^-phi, the minimum
    over lambda of lambda^(-ps phi) E + lambda^(ps theta) B (at lambda^(ps) =
    phi E / (theta B)): times 1/G, the quotient of u(x/lambda) for a profile
    u with energy E, ||u||_p^p = B and ||u||_q^p = G (Weinstein's scaling)."""
    return phi ** (-phi) * theta ** (-theta) * E ** theta * B ** phi


def _dilation_argmin(theta: float, phi: float, E: float, B: float, ps: float) -> float:
    """The lambda = (phi E / (theta B))^(1/(ps)) at which `_dilation_min` is
    attained.  A Python float power that overflows raises OverflowError."""
    return (phi * E / (theta * B)) ** (1.0 / ps)


def _cap_norms(N: int, s: float, q: float) -> tuple[float, float, float]:
    """E = ||(-Lap)^(s/2) u||^2 = 2^(2s+1) Gamma(s+1)^2 c / (N+2s), B = ||u||_2^2
    = c B(N/2, 2s+1) and G = ||u||_q^2 = (c B(N/2, qs+1))^(2/q), c = omega_N N/2,
    of the cap u = (1 - |x|^2)_+^s in R^N."""
    c = unit_ball_volume(N) * N / 2.0
    return (2.0 ** (2.0 * s + 1.0) * gamma_fn(s + 1.0) ** 2 * c / (N + 2.0 * s),
            c * beta_fn(N / 2.0, 2.0 * s + 1.0),
            (c * beta_fn(N / 2.0, q * s + 1.0)) ** (2.0 / q))


def dilation_transfer(S: float, lam: float, params: Params) -> float:
    """Rescale a constant under the dilation group: the constant on
    lambda*Omega from the constant S on Omega, lambda^(N - sp - Np/q) S."""
    if not lam > 0.0:
        raise DomainError(f"dilation factor must be positive, got {lam}")
    if not S > 0.0:
        raise DomainError(f"constant must be positive, got {S}")
    N, s, p, q = params.N, params.s, params.p, params.q
    if N < p * s:
        raise RegimeError(f"dilation transfer undefined for N < ps (N={N}, s={s}, p={p})")
    return _power(lam, _dilation_exponent(N, s, p, q), str(params)) * S


def young_lower(lambda_exp: float, S: float) -> tuple[float, float]:
    """Weights (epsilon, rho) of the Young-interpolation split
    ||u||_q^p <= rho (||u||_p^p + S ||u||_crit^p), S the critical
    constant; 1/rho is the generic whole-space lower-bound factor."""
    if not 0.0 < lambda_exp < 1.0:
        raise DomainError(f"interpolation weight must lie in (0,1), got {lambda_exp}")
    if not S > 0.0:
        raise DomainError("critical constant must be positive")
    lam = lambda_exp
    eps = (lam * S / (1.0 - lam)) ** (lam * (lam - 1.0))
    rho = lam ** lam * (S / (1.0 - lam)) ** (lam - 1.0)
    return eps, rho


def _pair(key: str, lo: float, up: float) -> BoundPair:
    """The bracket [lo, up] with provenances key-lower / key-upper and error
    estimates _EVAL_EPS * value."""
    return BoundPair(
        ConstantValue(lo, ConstantKind.BOUND_LOWER, f"{key}-lower",
                      error_estimate=_EVAL_EPS * lo),
        ConstantValue(up, ConstantKind.BOUND_UPPER, f"{key}-upper",
                      error_estimate=_EVAL_EPS * up))


def _exact_one(key: str) -> BoundPair:
    """The exact bracket [1, 1], both ends with provenance key."""
    return BoundPair(
        ConstantValue(1.0, ConstantKind.BOUND_LOWER, key, error_estimate=_EVAL_EPS),
        ConstantValue(1.0, ConstantKind.BOUND_UPPER, key, error_estimate=_EVAL_EPS))


# ---------------------------------------------------------------------------
# borderline case p = 1

def _borderline_domain(params: Params, domain: DomainSpec) -> BoundPair:
    """p=1 on a bounded domain: the exact constant S |Omega|^(1/crit - 1/q),
    S the isoperimetric constant, at both ends.  Characteristic functions of
    balls attain it (coarea formula and rearrangement), and every bounded
    `DomainSpec` is a ball (an interval is a 1-D ball); another shape would
    need the inradius-ball upper bound S |B_R|^(1/crit - 1/q) back."""
    S = frac_isoperimetric(params.N, params.s).value
    e = _inv_gap(params.critical_exponent, params.q)  # 1/crit - 1/q <= 0
    v = S * _power(domain.measure, e, f"{params} on {domain}")
    return _pair("borderline-domain", v, v)


def _borderline_wholespace(params: Params) -> BoundPair:
    """p=1 whole-space constant, exact: q=1 gives 1; for 1 < q < crit the
    dilation minimum kappa(theta) S^theta of the interpolation, which
    characteristic functions of balls saturate, as both ends of the pair."""
    if params.q == 1.0:
        return _exact_one("borderline-rn-q1")
    S = frac_isoperimetric(params.N, params.s).value
    v = _dilation_min(*_dilation_weights(params), S, 1.0)
    return _pair("borderline-rn", v, v)


# ---------------------------------------------------------------------------
# Hilbert case p = 2, N > 2s

def _hilbert_domain(params: Params, domain: DomainSpec) -> BoundPair:
    """p=2 bounds on a bounded domain: Hoelder lower bound against the
    critical constant, and the cap's E/G dilated to the inradius ball."""
    e = 2.0 * _inv_gap(params.critical_exponent, params.q)   # 2 (1/crit - 1/q)
    E, _, G = _cap_norms(params.N, params.s, params.q)
    at = f"{params} on {domain}"
    lo = frac_sobolev_hilbert(params.N, params.s).value * _power(domain.measure, e, at)
    up = E / G * _power(domain.inradius, params.N * e, at)
    return _pair("hilbert-domain", lo, up)


def _hilbert_wholespace(params: Params) -> BoundPair:
    """p=2 whole-space bounds for 2 <= q < crit: q=2 is exactly 1; otherwise
    the dilation minima kappa S*^theta of the critical constant (the Young
    interpolation) and kappa E^theta B^phi / G of the cap."""
    N, s, q = params.N, params.s, params.q
    if q < 2.0:
        raise RegimeError(f"whole-space bounds need q >= 2, got q={q}")
    if q == 2.0:
        return _exact_one("hilbert-rn-q2")
    theta, phi = _dilation_weights(params)
    E, B, G = _cap_norms(N, s, q)
    lo = _dilation_min(theta, phi, frac_sobolev_hilbert(N, s).value, 1.0)
    return _pair("hilbert-rn", lo, _dilation_min(theta, phi, E, B) / G)


# ---------------------------------------------------------------------------
# limiting case s = 1/2, p = 2, N = 1

def _limiting_domain(params: Params, domain: DomainSpec, C1: float) -> BoundPair:
    """Exponential-integrability lower bound
    C1^(-2/q) pi Gamma(q/2+1)^(-2/q) |Omega|^(-2/q) and truncated-log upper
    bound 2^(1-2/q) pi e / q * R^(-2/q), R the inradius.

    C1 is the domain Trudinger-Moser constant, supplied by the caller (the
    literature provides existence, not a numeric value)."""
    q = params.q
    at = f"{params} on {domain}"
    lo = (_power(C1, -2.0 / q, at) * math.pi
          * math.exp(-(2.0 / q) * ln_gamma(q / 2.0 + 1.0))
          * _power(domain.measure, -2.0 / q, at))
    up = (2.0 ** (1.0 - 2.0 / q) * math.pi * math.e / q
          * _power(domain.inradius, -2.0 / q, at))
    try:
        return _pair("limiting-domain", lo, up)
    except DomainError as exc:   # lo grows as C1^(-2/q): name C1 as the input
        raise DomainError(f"C1={C1!r} gives no bracket at {at}: {exc}") from None


def _limiting_wholespace(params: Params, C2: float) -> BoundPair:
    """Whole-space bounds for q >= 2: q=2 is exactly 1; otherwise the lower
    bound [(C2+2) pi^(-q/2) Gamma(q/2+1) + 2^(2-q/2)/(q-2)]^(-2/q), C2 the
    whole-space Trudinger-Moser constant (caller supplied), and the
    truncated-log upper bound 2^(1-4/q) pi^(1-2/q) q (q-2)^(4/q-2) e^((q-2)/q)."""
    q = params.q
    if q < 2.0:
        raise RegimeError("limiting whole-space bounds need q >= 2")
    if q == 2.0:
        return _exact_one("limiting-rn-q2")
    # log-space evaluation keeps Gamma(q/2+1) usable at large q
    t1 = math.log(C2 + 2.0) - (q / 2.0) * math.log(math.pi) + ln_gamma(q / 2.0 + 1.0)
    t2 = (2.0 - q / 2.0) * math.log(2.0) - math.log(q - 2.0)
    m = max(t1, t2)
    lo = math.exp(-(2.0 / q) * (m + math.log(math.exp(t1 - m) + math.exp(t2 - m))))
    up = (2.0 ** (1.0 - 4.0 / q) * math.pi ** (1.0 - 2.0 / q) * q
          * (q - 2.0) ** (4.0 / q - 2.0) * math.exp((q - 2.0) / q))
    return _pair("limiting-rn", lo, up)


def _check_tm_constants(C1: float, C2: float) -> None:
    """Refuse a Trudinger-Moser constant C1 that is not finite and positive,
    or C2 that is not finite and nonnegative."""
    if not 0.0 < C1 < math.inf:
        raise DomainError(f"C1 must be finite and positive, got {C1}")
    if not 0.0 <= C2 < math.inf:
        raise DomainError(f"C2 must be finite and nonnegative, got {C2}")


def bounds_for(params: Params, domain: DomainSpec, C1: float = 1.0, C2: float = 1.0
               ) -> BoundPair:
    """The bound pair matching the parameter regime and domain.  C1 and C2,
    read only by the limiting lower bounds, are checked at every point."""
    _check_tm_constants(C1, C2)
    regime = params.regime()
    if regime is Regime.OUT_OF_SCOPE:
        raise RegimeError(f"no bounds available: params {params} out of scope")
    if domain.bounded:
        if domain.dim != params.N:
            raise DomainError(f"domain dimension {domain.dim} != N={params.N}")
        if regime is Regime.BORDERLINE:
            return _borderline_domain(params, domain)
        if regime is Regime.HILBERT:
            return _hilbert_domain(params, domain)
        return _limiting_domain(params, domain, C1)
    if regime is Regime.BORDERLINE:
        return _borderline_wholespace(params)
    if regime is Regime.HILBERT:
        return _hilbert_wholespace(params)
    return _limiting_wholespace(params, C2)
