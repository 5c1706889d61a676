"""Nested adaptive quadratures that the closed forms in `fracsob` replaced.

They are kept here, as they were, as independent references: the radial and
angular quadrature of the fractional Hardy constant A(N, s) and of its
kernel, and the double quadrature of the truncated-log seminorm in
`moser_bound_check`.  They are slow (0.05 to 0.5 s a call) and refuse
points where the angular integrand overflows a double.
"""
import math

import numpy as np

from fracsob.constants import unit_ball_volume
from fracsob.errors import DomainError
from fracsob.specfun import QuadratureConfig, integrate


def _nodewise(f):
    """A scalar integrand mapped over the node arrays `integrate` passes."""
    return lambda xs: np.array([f(float(x)) for x in xs])


def _kernel_from_gap(N: int, s: float, gap):
    """frac_iso_kernel expressed through gap = 1 - r (arithmetic-stable form;
    gap may be a numpy array when N = 1)."""
    if N == 1:
        return gap ** (-1.0 - s) + (2.0 - gap) ** (-1.0 - s)

    gap = float(gap)  # the angular quadrature handles one radius at a time
    pref = (N - 1) * unit_ball_volume(N - 1)
    r = 1.0 - gap
    gap_sq = gap * gap

    def f(theta):
        dist_sq = gap_sq + 4.0 * r * np.sin(0.5 * theta) ** 2
        y = np.sin(theta) ** (N - 2) * dist_sq ** (-(N + s) / 2.0)
        if not math.isfinite(y.sum()):
            # an inf or nan node would be dropped by the quadrature, which
            # then returns a wrong value with a small error estimate
            raise DomainError(f"the angular kernel overflows a double at N={N}, "
                              f"s={s}, 1-r={gap:.3g}")
        return y

    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10, max_subdivisions=2000)
    with np.errstate(over="ignore", invalid="ignore"):  # f raises instead
        val, _ = integrate(f, 0.0, math.pi, cfg)
    return pref * val


def frac_iso_kernel(N: int, s: float, r: float) -> float:
    """Angular kernel of the nonlocal perimeter of the unit ball.

    N = 1 has the closed form (1-r)^(-1-s) + (1+r)^(-1-s).  For N >= 2 the
    angular integral is taken in the polar angle, where the inverse-distance
    factor has the cancellation-free form (1-r)^2 + 4 r sin^2(theta/2); this
    absorbs the (1-t^2)^((N-3)/2) endpoint singularity of the t variable
    analytically (t = cos theta) and stays accurate arbitrarily close to
    r = 1, where the integrand peaks like (1-r)^(-1-s).
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"kernel argument r must lie in [0,1), got {r}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0,1), got {s}")
    return _kernel_from_gap(N, s, 1.0 - r)


def hardy_A_quadrature(N: int, s: float) -> tuple[float, float]:
    """A(N,s) = 2 int_0^1 r^(s-1)(1 - r^(N-s)) K(r) dr by singular quadrature,
    as (value, error estimate).

    Near r = 1 the integrand behaves like (1-r)^(-s); the quadrature is
    split at r = 0.9 so that the right-endpoint substitution acts only
    where that behavior is local.
    """
    def f(r):
        return (r ** (s - 1.0) * -np.expm1((N - s) * np.log(r))
                * _kernel_from_gap(N, s, 1.0 - r))

    cfg_left = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=600,
                                left_singularity_exponent=1.0 - s)
    if N > 1:  # the angular quadrature takes one radius at a time
        f = _nodewise(f)
    v1, e1 = integrate(f, 0.0, 0.9, cfg_left)

    # right piece: the (1-r)^(-s) behavior is removed by r = 1 - t^(1/(1-s)),
    # applied by hand so the gap 1 - r = t^p stays exact in double precision
    p = 1.0 / (1.0 - s)

    def g(t):
        gap = t ** p
        r = 1.0 - gap
        return (r ** (s - 1.0) * -np.expm1((N - s) * np.log1p(-gap))
                * _kernel_from_gap(N, s, gap) * p * t ** (p - 1.0))

    cfg_right = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=600)
    if N > 1:
        g = _nodewise(g)
    v2, e2 = integrate(g, 0.0, 0.1 ** (1.0 - s), cfg_right)
    return 2.0 * (v1 + v2), 2.0 * (e1 + e2)


def moser_nested_quadrature(k: float, K: float, cfg: QuadratureConfig | None = None
                            ) -> tuple[float, float, float]:
    """(numeric_seminorm, bound, slack) of `moser_bound_check`, with the inner
    logarithmic integral taken by quadrature at every outer node."""
    if not 0.0 < k < K:
        raise DomainError(f"need 0 < k < K, got k={k}, K={K}")
    if cfg is None:
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=400)
    inner_cfg = QuadratureConfig(abs_tol=cfg.abs_tol * 1e-2, rel_tol=cfg.rel_tol,
                                 max_subdivisions=cfg.max_subdivisions)

    def inner(y: float) -> float:
        # x < y half; the integrand's log singularity sits at the endpoint x=y
        v, _ = integrate(lambda x: np.log((x + y) / (y - x)) / x, k, y, inner_cfg)
        return v / y

    # exploit symmetry: double the lower triangle
    val, _ = integrate(_nodewise(inner), k, K, cfg)
    numeric = (2.0 / math.pi) * 2.0 * val
    bound = math.pi * math.log(K / k)
    return numeric, bound, bound - numeric
