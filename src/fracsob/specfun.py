"""Special functions and adaptive quadrature with endpoint-singularity handling.

Gamma and log Gamma come from the standard library.  Bessel J_v combines
the defining power series with the large-argument Hankel expansion.
`integrate` is an adaptive Gauss-Kronrod 15(7) scheme; declared endpoint
singularities of power type (x-a)^{-alpha} are removed by the substitution
x = a + t^{1/(1-alpha)} before any subdivision, and an infinite upper limit
is mapped to (0,1) by t = a + u/(1-u).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "gamma_fn",
    "ln_gamma",
    "beta_fn",
    "ln_beta",
    "bessel_j",
    "integrate",
]


def gamma_fn(x: float) -> float:
    """Gamma function on the positive real axis (`math.gamma`).

    Raises DomainError for x <= 0, where no in-scope formula needs it, and
    when Gamma(x) exceeds the double range (x > 171.6).
    """
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x}) overflows double precision") from None


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (`math.lgamma`)."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log Gamma({x}) overflows double precision") from None


def ln_beta(a: float, b: float) -> float:
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"ln_beta requires a, b > 0, got ({a}, {b})")
    # symmetric evaluation order so beta_fn(a,b) == beta_fn(b,a) exactly
    lo, hi = (a, b) if a <= b else (b, a)
    return ln_gamma(lo) + ln_gamma(hi) - ln_gamma(lo + hi)


def beta_fn(a: float, b: float) -> float:
    """Beta function Gamma(a)Gamma(b)/Gamma(a+b), evaluated in log space."""
    return math.exp(ln_beta(a, b))


# ---------------------------------------------------------------------------
# Bessel J_v, v >= -1/2


def _bessel_series(v: float, t: float) -> float:
    # J_v(t) = sum_k (-1)^k (t/2)^(v+2k) / (k! Gamma(v+k+1))
    half = 0.5 * t
    if half == 0.0:
        return 1.0 if v == 0.0 else 0.0
    term = math.exp(v * math.log(half) - ln_gamma(v + 1.0))
    acc = term
    x2 = half * half
    for k in range(1, 400):
        term *= -x2 / (k * (v + k))
        acc += term
        if abs(term) < 1e-17 * abs(acc) + 1e-300 and k > half:
            break
    return acc


def _bessel_asymptotic(v: float, t: float) -> float:
    # Hankel expansion: J_v(t) ~ sqrt(2/(pi t)) [P cos chi - Q sin chi]
    chi = t - (0.5 * v + 0.25) * math.pi
    mu = 4.0 * v * v
    p, q = 1.0, 0.0
    term = 1.0
    for k in range(1, 30):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * t)
        if k % 2 == 1:
            q += term * (-1) ** ((k - 1) // 2)
        else:
            p += term * (-1) ** (k // 2)
        if abs(term) < 1e-17:
            break
    return math.sqrt(2.0 / (math.pi * t)) * (p * math.cos(chi) - q * math.sin(chi))


def bessel_j(v: float, t: float) -> float:
    """Bessel function of the first kind J_v(t) for v >= -1/2, t >= 0.

    v = -1/2 uses the closed form sqrt(2/(pi t)) cos t; other orders switch
    from the power series to the Hankel asymptotic form at t = max(12, 2|v|)
    to control cancellation in double precision.
    """
    v, t = float(v), float(t)
    if v < -0.5:
        raise DomainError(f"bessel_j requires v >= -1/2, got v={v}")
    if t < 0.0:
        raise DomainError(f"bessel_j requires t >= 0, got t={t}")
    if v == -0.5:
        if t == 0.0:
            return math.inf
        return math.sqrt(2.0 / (math.pi * t)) * math.cos(t)
    switch = max(12.0, 2.0 * abs(v))
    if t < switch:
        return _bessel_series(v, t)
    return _bessel_asymptotic(v, t)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature

# 15-point Kronrod nodes on [-1,1] and weights, with the embedded 7-point
# Gauss weights (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WGAUSS = np.zeros(15)
_WGAUSS[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and declared endpoint singularities for `integrate`.

    Singularity exponents alpha declare that the integrand behaves like
    (x - a)^(-alpha) (resp. (b - x)^(-alpha)) at the endpoint; alpha must be
    in [0, 1) for integrability.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 400
    left_singularity_exponent: float | None = None
    right_singularity_exponent: float | None = None

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        for e in (self.left_singularity_exponent, self.right_singularity_exponent):
            if e is not None and not (0.0 <= e < 1.0):
                raise DomainError(
                    f"singularity exponent must lie in [0,1), got {e}")


def _eval(f, x: np.ndarray) -> np.ndarray:
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise ValueError
        return y
    except Exception:
        return np.array([float(f(float(xi))) for xi in x])


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    y = _eval(f, c + hw * _NODES)
    if not np.all(np.isfinite(y)):
        # a node landed on an undeclared singular point; drop it and let the
        # inflated Kronrod-Gauss discrepancy drive further subdivision
        y = np.where(np.isfinite(y), y, 0.0)
    k = hw * float(_WK @ y)
    g = hw * float(_WGAUSS @ y)
    return k, abs(k - g)


def integrate(f, a: float, b: float, cfg: QuadratureConfig | None = None
              ) -> tuple[float, float]:
    """Adaptive quadrature of f over (a, b); returns (value, error_estimate).

    b may be +inf.  f may be vectorized over numpy arrays (preferred) or
    scalar.  Declared endpoint power singularities are removed by
    substitution before subdivision.  Raises QuadratureError if the error
    estimate is still above tolerance when max_subdivisions is exhausted.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    a = float(a)
    if not a < b:
        raise DomainError(f"integrate requires a < b, got a={a}, b={b}")

    g = f
    lo, hi = a, b
    right_exp = cfg.right_singularity_exponent

    if math.isinf(b):
        if right_exp is not None:
            raise DomainError("right singularity exponent with infinite upper limit")
        base = g

        def g(u, _base=base, _a=a):
            t = _a + u / (1.0 - u)
            return _base(t) / (1.0 - u) ** 2

        lo, hi = 0.0, 1.0

    pieces = []
    alpha = cfg.left_singularity_exponent
    beta = right_exp if not math.isinf(b) else None
    if alpha or beta:
        mid = 0.5 * (lo + hi)
        if alpha:
            p = 1.0 / (1.0 - alpha)

            def gl(t, _g=g, _lo=lo, _p=p, _al=alpha):
                return _g(_lo + t ** _p) * _p * t ** (_p - 1.0)

            pieces.append((gl, 0.0, (mid - lo) ** (1.0 - alpha)))
        else:
            pieces.append((g, lo, mid))
        if beta:
            p = 1.0 / (1.0 - beta)

            def gr(t, _g=g, _hi=hi, _p=p, _be=beta):
                return _g(_hi - t ** _p) * _p * t ** (_p - 1.0)

            pieces.append((gr, 0.0, (hi - mid) ** (1.0 - beta)))
        else:
            pieces.append((g, mid, hi))
    else:
        pieces.append((g, lo, hi))

    # adaptive loop over a worst-first interval heap shared by all pieces
    heap: list[tuple[float, int, float, float, float, float, object]] = []
    counter = 0
    total = 0.0
    toterr = 0.0
    for gg, x0, x1 in pieces:
        val, err = _gk15(gg, x0, x1)
        total += val
        toterr += err
        heapq.heappush(heap, (-err, counter, x0, x1, val, err, gg))
        counter += 1

    nsub = len(pieces)
    while toterr > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if nsub >= cfg.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge: error estimate {toterr:.3e} after "
                f"{nsub} subdivisions (value {total:.6e})")
        _, _, x0, x1, val, err, gg = heapq.heappop(heap)
        xm = 0.5 * (x0 + x1)
        if xm <= x0 or xm >= x1:
            # interval at machine resolution; park it at the back of the heap
            heapq.heappush(heap, (math.inf, counter, x0, x1, val, err, gg))
            counter += 1
            nsub += 1
            continue
        v1, e1 = _gk15(gg, x0, xm)
        v2, e2 = _gk15(gg, xm, x1)
        total += v1 + v2 - val
        toterr += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, x0, xm, v1, e1, gg))
        counter += 1
        heapq.heappush(heap, (-e2, counter, xm, x1, v2, e2, gg))
        counter += 1
        nsub += 1

    return total, toterr
