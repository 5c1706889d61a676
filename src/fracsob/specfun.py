"""Gamma/Beta and adaptive quadrature with endpoint-singularity handling.

Gamma and log Gamma come from the standard library.  `integrate` is an
adaptive Gauss-Kronrod 15(7) scheme over a finite interval, for integrands
vectorized over numpy arrays; declared endpoint singularities of power type
(x-a)^{-alpha} are removed by the substitution x = a + t^{1/(1-alpha)}
before any subdivision.  A stacked integrand maps the nodes to m rows of
values at once; the rows share one adaptive mesh, which is refined until
every row meets its own tolerance.
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
    in [0, 1) for integrability.  A declared alpha is the substitution
    x = a + t^(1/(1-alpha)) (resp. x = b - t^(1/(1-alpha))), which maps
    (x - a)^(1-alpha) onto t: it also removes an endpoint kink of that power.
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


def _gk15(f, a: float, b: float):
    """GK15 value and error estimate of f on [a, b]: Python floats for an
    integrand of the nodes' shape, arrays of shape (m,) for a stacked one."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = c + hw * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape[-1:] != x.shape:
        raise DomainError(f"integrand must map nodes of shape {x.shape} to values of "
                          f"the same shape, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise QuadratureError(f"non-finite integrand value on the panel [{a!r}, {b!r}]")
    if y.ndim == 1:
        k = hw * float(_WK @ y)
        g = hw * float(_WGAUSS @ y)
        return k, abs(k - g)
    k = hw * (y @ _WK)
    return k, np.abs(k - hw * (y @ _WGAUSS))


def _endpoint_map(f, x0: float, direction: float, alpha: float):
    """f(x0 + direction t^p) p t^(p-1), p = 1/(1-alpha): the integrand in the
    variable t that removes a (x - x0)^(-alpha) endpoint singularity."""
    p = 1.0 / (1.0 - alpha)

    def g(t):
        return f(x0 + direction * t ** p) * p * t ** (p - 1.0)

    return g


def integrate(f, a: float, b: float, cfg: QuadratureConfig | None = None
              ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Adaptive quadrature of f over the finite interval (a, b); returns
    (value, error_estimate).

    f must be vectorized: it maps a numpy array of nodes to an array of the
    same shape, and the result is a pair of floats.  A stacked f maps the
    nodes, of shape (n,), to m rows of shape (m, n); the result is then a
    pair of arrays of shape (m,).  The rows share one adaptive mesh: a panel
    is refined in the order of its worst row error, and the loop stops only
    when every row meets max(abs_tol, rel_tol |row value|).  Any other
    output shape is a DomainError.  Declared endpoint power singularities
    are removed by substitution before subdivision.  Raises QuadratureError
    at a non-finite integrand value in any row, and if some row's error
    estimate is still above its tolerance when max_subdivisions is exhausted.

    A scalar integrand keeps its own float path rather than running as a
    one-row stack: the values agree bit for bit, but the stack takes 1.6x the
    time (e^(-x) x^(-1/2) + sin 30x on (0, 3): 1.61 against 0.98 ms on a
    2-core Xeon) and raised the median oracles op from 0.55-0.73 to 0.9 ms.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integrate requires a finite interval, got a={a}, b={b}")
    if not a < b:
        raise DomainError(f"integrate requires a < b, got a={a}, b={b}")

    alpha = cfg.left_singularity_exponent
    beta = cfg.right_singularity_exponent
    if alpha or beta:
        mid = 0.5 * (a + b)
        left = ((_endpoint_map(f, a, 1.0, alpha), 0.0, (mid - a) ** (1.0 - alpha))
                if alpha else (f, a, mid))
        right = ((_endpoint_map(f, b, -1.0, beta), 0.0, (b - mid) ** (1.0 - beta))
                 if beta else (f, mid, b))
        pieces = [left, right]
    else:
        pieces = [(f, a, b)]

    # adaptive loop over a worst-first interval heap shared by all pieces
    heap: list[tuple[float, int, float, float, object, object, object]] = []
    counter = 0
    total = 0.0
    toterr = 0.0
    for gg, x0, x1 in pieces:
        val, err = _gk15(gg, x0, x1)
        total += val
        toterr += err
        heapq.heappush(heap, (_priority(err), counter, x0, x1, val, err, gg))
        counter += 1

    nsub = len(pieces)
    while _unmet(total, toterr, cfg):
        if nsub >= cfg.max_subdivisions:
            errs, vals = np.ravel(toterr), np.ravel(total)
            i = int(np.argmax(errs / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(vals))))
            raise QuadratureError(
                f"quadrature did not converge: error estimate {errs[i]:.3e} after "
                f"{nsub} subdivisions (value {vals[i]:.6e})")
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
        heapq.heappush(heap, (_priority(e1), counter, x0, xm, v1, e1, gg))
        counter += 1
        heapq.heappush(heap, (_priority(e2), counter, xm, x1, v2, e2, gg))
        counter += 1
        nsub += 1

    return total, toterr


def _priority(err) -> float:
    """Heap key of a panel: minus its error estimate, or minus its worst row
    error for a stacked integrand."""
    return -err if isinstance(err, float) else -float(err.max())


def _unmet(total, toterr, cfg: QuadratureConfig) -> bool:
    """Whether some row's error estimate is above max(abs_tol, rel_tol |value|)."""
    if isinstance(total, float):
        return toterr > max(cfg.abs_tol, cfg.rel_tol * abs(total))
    return bool(np.any(toterr > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))))
