"""Exact embedding constants and literature bounds, all in closed form.

Every constant is returned as a `ConstantValue` carrying a provenance key
from `PROVENANCE_KEYS`, its evaluation kind and an error estimate.  The
parameter quadruple (N, s, p, q) with its regime classification lives here
as `Params`.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .specfun import ln_gamma

__all__ = [
    "Regime",
    "Params",
    "ConstantKind",
    "ConstantValue",
    "PROVENANCE_KEYS",
    "unit_ball_volume",
    "classical_sobolev",
    "isoperimetric",
    "hardy_sobolev_A",
    "frac_isoperimetric",
    "lieb_constant",
    "norm_bridge",
    "frac_sobolev_hilbert",
    "mazya_lower",
    "lieb_loss_lower",
]

# roundoff allowance attached to closed formulas when they feed non-exact kinds
_EVAL_EPS = 1e-14

PROVENANCE_KEYS = frozenset({
    "aubin-talenti",
    "unit-ball-volume",
    "isoperimetric",
    "hardy-sobolev",
    "frac-isoperimetric",
    "lieb",
    "norm-bridge",
    "hilbert-sobolev",
    "mazya-lower",
    "lieb-loss-lower",
    "borderline-domain-lower",
    "borderline-domain-upper",
    "borderline-rn-lower",
    "borderline-rn-upper",
    "borderline-rn-q1",
    "hilbert-domain-lower",
    "hilbert-domain-upper",
    "hilbert-rn-lower",
    "hilbert-rn-upper",
    "hilbert-rn-q2",
    "limiting-domain-upper",
    "limiting-domain-lower",
    "limiting-rn-upper",
    "limiting-rn-lower",
    "limiting-rn-q2",
    "char-ball-exact",
    "rayleigh-numeric",
})


class Regime(enum.Enum):
    """Which family of bounds applies to a parameter quadruple."""

    BORDERLINE = "borderline"   # p = 1, 1 <= q < N/(N-s)
    HILBERT = "hilbert"         # p = 2, N > 2s, 1 <= q < 2N/(N-2s)
    LIMITING = "limiting"       # p = 2, N = 1, s = 1/2, q >= 1
    OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class Params:
    """The quadruple (N, s, p, q) of an embedding constant."""

    N: int
    s: float
    p: float
    q: float

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise DomainError(f"N must be an integer >= 1, got {self.N!r}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must lie in (0,1), got {self.s}")
        if self.p not in (1, 2, 1.0, 2.0):
            raise DomainError(f"p must be 1 or 2, got {self.p}")
        if not self.q >= 1.0:
            raise DomainError(f"q must be >= 1, got {self.q}")
        if self.q == math.inf:
            raise DomainError(f"q must be finite, got {self.q}")

    @property
    def critical_exponent(self) -> float:
        """p_s^* = Np/(N - sp); defined only below the limiting line N = sp."""
        if not self.N > self.s * self.p:
            raise DomainError(
                f"critical exponent undefined: N={self.N} <= s*p={self.s * self.p}")
        return self.N * self.p / (self.N - self.s * self.p)

    def regime(self) -> Regime:
        if self.p == 1:
            if self.q < self.critical_exponent:
                return Regime.BORDERLINE
            return Regime.OUT_OF_SCOPE
        # p == 2
        if self.N == 1 and self.s == 0.5:
            return Regime.LIMITING
        if self.N > 2 * self.s and self.q < self.critical_exponent:
            return Regime.HILBERT
        return Regime.OUT_OF_SCOPE


class ConstantKind(enum.Enum):
    CLOSED_FORM = "closed_form"
    BOUND_LOWER = "bound_lower"
    BOUND_UPPER = "bound_upper"
    NUMERIC_ESTIMATE = "numeric_estimate"


@dataclass(frozen=True)
class ConstantValue:
    """A positive real constant with provenance and an error estimate."""

    value: float
    kind: ConstantKind
    provenance: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise DomainError(f"constant must be finite and positive, got {self.value}")
        if self.provenance not in PROVENANCE_KEYS:
            raise DomainError(f"unknown provenance key {self.provenance!r}")
        if self.error_estimate < 0.0:
            raise DomainError("error estimate must be nonnegative")
        if self.error_estimate == 0.0 and self.kind is not ConstantKind.CLOSED_FORM:
            raise DomainError("only closed-form constants may claim zero error")


_LN_MAX = math.log(sys.float_info.max)


def _exp_normal(ln_val: float, name: str, where: str) -> float:
    """exp(ln_val); a DomainError naming `name` and `where` if that leaves
    the normal double range."""
    if ln_val > _LN_MAX:
        raise DomainError(f"{name} overflows a double at {where}")
    val = math.exp(ln_val)
    if val < sys.float_info.min:
        raise DomainError(f"{name} underflows a double at {where}")
    return val


def _power(x: float, e: float, where: str) -> float:
    """x ** e for x > 0, refused where it leaves the double range (overflows,
    or underflows to 0) with a message that names `where`."""
    try:
        r = x ** e
    except OverflowError:
        r = math.inf
    if not 0.0 < r < math.inf:
        raise DomainError(f"{x!r} ** {e!r} leaves the double range at {where}")
    return r


def _ln_unit_ball_volume(N: int) -> float:
    """log omega_N = (N/2) log pi - log Gamma(N/2+1)."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    return N / 2.0 * math.log(math.pi) - ln_gamma(N / 2.0 + 1.0)


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N: pi^(N/2)/Gamma(N/2+1), evaluated in
    log space so that N >= 342, where Gamma(N/2+1) overflows, stays finite.
    Raises DomainError from N = 436 on, where it falls below the smallest
    normal double."""
    return _exp_normal(_ln_unit_ball_volume(N), "unit_ball_volume", f"N={N}")


def classical_sobolev(N: int, p: float) -> ConstantValue:
    """Optimal constant of the critical first-order Sobolev inequality
    ||grad u||_p^p >= C ||u||_{Np/(N-p)}^p on R^N, for 1 < p < N."""
    if not (N >= 2 and 1.0 < p < N):
        raise DomainError(f"classical_sobolev requires 1 < p < N, got N={N}, p={p}")
    val = (math.pi ** (p / 2.0) * N * ((N - p) / (p - 1.0)) ** (p - 1.0)
           * math.exp((p / N) * (ln_gamma(N / p) + ln_gamma(1.0 + N - N / p)
                                 - ln_gamma(N / 2.0 + 1.0) - ln_gamma(float(N)))))
    return ConstantValue(val, ConstantKind.CLOSED_FORM, "aubin-talenti")


def isoperimetric(N: int) -> ConstantValue:
    """N * omega_N^(1/N), the sharp constant of the p=1 critical embedding;
    the root is taken in log space, so it stays exact where omega_N
    underflows."""
    return ConstantValue(N * math.exp(_ln_unit_ball_volume(N) / N),
                         ConstantKind.CLOSED_FORM, "isoperimetric")


def hardy_sobolev_A(N: int, s: float) -> ConstantValue:
    """Sharp constant A(N,s) of the fractional Hardy-Sobolev inequality,

        A(N,s) = 2^(2-s) pi^((N-1)/2) Gamma((1-s)/2) / (s Gamma((N-s)/2)),

    the p = 1 case of the sharp Hardy constant of Frank and Seiringer
    (J. Funct. Anal. 255, 2008), i.e. 2 int_0^1 r^(s-1)(1 - r^(N-s)) K(r) dr
    with K the angular kernel of the nonlocal perimeter of the unit ball.
    Evaluated in log space; raises DomainError where A falls below the
    smallest normal double (near N = 440).
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    val = _exp_normal((2.0 - s) * math.log(2.0) + (N - 1) / 2.0 * math.log(math.pi)
                      + ln_gamma((1.0 - s) / 2.0) - math.log(s) - ln_gamma((N - s) / 2.0),
                      "A(N,s)", f"N={N}, s={s}")
    return ConstantValue(val, ConstantKind.CLOSED_FORM, "hardy-sobolev")


def frac_isoperimetric(N: int, s: float) -> ConstantValue:
    """omega_N^(s/N) * N/(N-s) * A(N,s): the sharp constant of the
    W^{s,1} -> L^{N/(N-s)} embedding, attained by balls."""
    A = hardy_sobolev_A(N, s)
    pref = math.exp(_ln_unit_ball_volume(N) * s / N) * N / (N - s)
    return ConstantValue(pref * A.value, ConstantKind.CLOSED_FORM, "frac-isoperimetric")


def lieb_constant(N: int, s: float) -> ConstantValue:
    """Sharp constant of the critical W^{s,2} embedding in the Gagliardo
    seminorm normalization (N > 2s),

        2 pi^(N/2+s) Gamma(2-s) / (s (1-s) Gamma(N/2-s)) [Gamma(N/2)/Gamma(N)]^(2s/N),

    evaluated in log space; raises DomainError where it falls below the
    smallest normal double (from N = 439 on at s = 1/2)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if not N > 2 * s:
        raise DomainError(f"lieb_constant requires N > 2s, got N={N}, s={s}")
    val = _exp_normal(math.log(2.0) + (N / 2.0 + s) * math.log(math.pi)
                      - math.log(s * (1.0 - s)) + ln_gamma(2.0 - s) - ln_gamma(N / 2.0 - s)
                      + (2.0 * s / N) * (ln_gamma(N / 2.0) - ln_gamma(float(N))),
                      "lieb_constant", f"N={N}, s={s}")
    return ConstantValue(val, ConstantKind.CLOSED_FORM, "lieb")


def norm_bridge(N: int, s: float) -> ConstantValue:
    """Factor B(N,s) converting between the Gagliardo seminorm squared and
    the half-Laplacian L^2 norm squared: [u]^2 = (2/B) ||(-Lap)^(s/2) u||^2,

        B(N,s) = 2^(2s) s Gamma(N/2+s) / (pi^(N/2) Gamma(1-s)),

    evaluated in log space; raises DomainError where it exceeds the largest
    double (from N = 438 on at s = 1/2)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    val = _exp_normal(2.0 * s * math.log(2.0) + math.log(s) - N / 2.0 * math.log(math.pi)
                      + ln_gamma(N / 2.0 + s) - ln_gamma(1.0 - s),
                      "norm_bridge", f"N={N}, s={s}")
    return ConstantValue(val, ConstantKind.CLOSED_FORM, "norm-bridge")


def frac_sobolev_hilbert(N: int, s: float) -> ConstantValue:
    """Sharp constant of the critical H^s embedding, half-Laplacian
    normalization (N > 2s):
    2^(2s) pi^s [Gamma(N/2+s)/Gamma(N/2-s)] [Gamma(N/2)/Gamma(N)]^(2s/N)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if not N > 2 * s:
        raise DomainError(f"frac_sobolev_hilbert requires N > 2s, got N={N}, s={s}")
    val = (2.0 ** (2.0 * s) * math.pi ** s
           * math.exp(ln_gamma(N / 2.0 + s) - ln_gamma(N / 2.0 - s)
                      + (2.0 * s / N) * (ln_gamma(N / 2.0) - ln_gamma(float(N)))))
    return ConstantValue(val, ConstantKind.CLOSED_FORM, "hilbert-sobolev")


def mazya_lower(N: int, s: float, p: float) -> ConstantValue:
    """Maz'ya-Shaposhnikova lower bound for the critical W^{s,p} constant,

        omega_N N (N-sp)^(p-1) / (2^((N+1)(N+2)) s (1-s) p^(p+2) (N+2p)^(3p)),

    valid for N > sp.  Assumed to refer to the Gagliardo-seminorm quotient.
    The power of two is applied as an exact binary-exponent shift; raises
    DomainError where the bound falls below the smallest normal double
    (from N = 30 on)."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    if not (p >= 1.0 and N > s * p):
        raise DomainError(f"mazya_lower requires p >= 1 and N > sp, got N={N}, s={s}, p={p}")
    val = math.ldexp(math.exp(_ln_unit_ball_volume(N)) * N * (N - s * p) ** (p - 1.0)
                     / (s * (1.0 - s) * p ** (p + 2.0) * (N + 2.0 * p) ** (3.0 * p)),
                     -(N + 1) * (N + 2))
    if val < sys.float_info.min:
        raise DomainError(f"mazya_lower underflows a double at N={N}, s={s}, p={p}")
    return ConstantValue(val, ConstantKind.BOUND_LOWER, "mazya-lower",
                         error_estimate=_EVAL_EPS * val)


def lieb_loss_lower(q: float) -> ConstantValue:
    """Lieb-Loss lower bound for the limiting-case whole-space constant:
    (q-1)^(1-1/q) [q(q-2)/(2 pi)]^(2/q-1), q > 2."""
    if not q > 2.0:
        raise DomainError(f"lieb_loss_lower requires q > 2, got {q}")
    val = ((q - 1.0) ** (1.0 - 1.0 / q)
           * (q * (q - 2.0) / (2.0 * math.pi)) ** (2.0 / q - 1.0))
    return ConstantValue(val, ConstantKind.BOUND_LOWER, "lieb-loss-lower",
                         error_estimate=_EVAL_EPS * val)
