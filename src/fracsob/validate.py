"""Fast oracle cross-check suite backing the `validate` CLI subcommand.

Each check recomputes a quantity along two independent routes (closed form
vs quadrature, closed-form minimizer vs golden-section search, identity vs
direct evaluation) and compares at a fixed tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, constants, rayleigh
from .constants import Params
from .specfun import QuadratureConfig, beta_fn, gamma_fn, integrate

__all__ = ["CheckResult", "run_validation"]

_2PIE = 2.0 * math.pi * math.e
_ZETA_3 = 1.2020569031595942  # zeta(3), Apery's constant


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _golden_min(f, a: float, b: float) -> float:
    """argmin of f on [a, b] by golden-section search, to 1e-12 relative."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12 * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def run_validation() -> list[CheckResult]:
    out: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        out.append(CheckResult(name, bool(passed), detail))

    def rn(params: Params) -> bounds.BoundPair:   # the whole-space bracket
        return bounds.bounds_for(params, bounds.DomainSpec.whole_space(N=params.N))

    # special functions
    xs = np.geomspace(0.1, 50.0, 500)
    worst = max(abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) / gamma_fn(x + 1.0)
                for x in xs)
    check("gamma-recurrence", worst <= 1e-12, f"worst rel {worst:.2e} over 500 samples")
    ok = (abs(beta_fn(0.5, 0.5) - math.pi) < 1e-13
          and beta_fn(1.5, 2.0) == beta_fn(2.0, 1.5))
    check("beta-identities", ok, "B(1/2,1/2)=pi and symmetry")
    v, _ = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0,
                     QuadratureConfig(right_singularity_exponent=0.5))
    check("quadrature-endpoint", abs(v - 2.0) < 1e-9, f"got {v!r}")
    # int_0^inf ln|(t+1)/(t-1)| dt/t, with t -> 1/t folding (1, inf) onto (0, 1)
    v, _ = integrate(lambda t: 2.0 * np.log((1.0 + t) / (1.0 - t)) / t, 0.0, 1.0,
                     QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9,
                                      max_subdivisions=2000))
    check("quadrature-log-kernel", abs(v - math.pi ** 2 / 2) < 1e-7,
          f"got {v!r} vs pi^2/2")
    # the truncated-log slack along Legendre's chi_3: d chi_3(t)/dt = chi_2(t)/t
    # and chi_3(1) = 7 zeta(3)/8 give slack = (7 zeta(3) - 8 chi_3(k/K)) / pi
    worst = 0.0
    for k, K in ((math.exp(-2.0), 1.0), (0.05, 0.5), (0.5, 1.0)):
        chi3 = sum((k / K) ** n / n ** 3 for n in range(1, 120, 2))
        want = (7.0 * _ZETA_3 - 8.0 * chi3) / math.pi
        worst = max(worst, abs(rayleigh.moser_bound_check(k, K)[2] - want) / want)
    check("moser-slack-chi3", worst <= 1e-8, f"worst rel {worst:.2e}")

    # constant identities
    worst = 0.0
    for N in (1, 2, 3, 4):
        for s in (0.1, 0.2, 0.3, 0.45):
            lhs = constants.lieb_constant(N, s).value
            rhs = (2.0 / constants.norm_bridge(N, s).value
                   * constants.frac_sobolev_hilbert(N, s).value)
            worst = max(worst, abs(lhs - rhs) / lhs)
    check("lieb-bridge-identity", worst <= 1e-10, f"worst rel {worst:.2e}")

    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        got = constants.frac_isoperimetric(1, s).value
        worst = max(worst, abs(got - 4.0 / (s * (1.0 - s))) / (4.0 / (s * (1.0 - s))))
    check("frac-iso-1d-closed-form", worst <= 1e-6, f"worst rel {worst:.2e}")

    ref = constants.classical_sobolev(3, 2.0).value
    got = constants.frac_sobolev_hilbert(3, 1.0 - 1e-4).value
    check("classical-limit", abs(got - ref) / ref <= 0.01,
          f"S_s(3,1-1e-4)={got:.6f} vs {ref:.6f}")

    ok = all(constants.mazya_lower(N, s, 2.0).value <= constants.lieb_constant(N, s).value
             for N in (1, 2, 3) for s in (0.1, 0.25, 0.45))
    check("mazya-below-lieb", ok, "sampled (N,s) grid")
    ok = all(constants.lieb_loss_lower(q).value <= rn(Params(1, 0.5, 2.0, q)).upper.value
             for q in (2.5, 3.0, 4.0, 8.0, 16.0, 64.0))
    check("lieb-loss-below-upper", ok, "q in {2.5,...,64}")

    # dilation algebra
    p = Params(1, 0.25, 2.0, 3.0)
    a = bounds.dilation_transfer(bounds.dilation_transfer(1.7, 2.0, p), 3.0, p)
    b = bounds.dilation_transfer(1.7, 6.0, p)
    check("dilation-composition", abs(a - b) / b <= 1e-12, f"{a!r} vs {b!r}")
    pc = Params(1, 0.25, 2.0, 4.0)  # q = critical exponent
    c = bounds.dilation_transfer(2.3, 5.0, pc)
    check("dilation-critical-invariance", abs(c - 2.3) <= 1e-14, f"got {c!r}")

    # exact endpoints
    one = rn(Params(2, 0.3, 1.0, 1.0))
    ok = one.lower.value == 1.0 and one.upper.value == 1.0
    two = rn(Params(1, 0.25, 2.0, 2.0))
    ok = ok and two.lower.value == 1.0 and two.upper.value == 1.0
    lim = rn(Params(1, 0.5, 2.0, 2.0))
    ok = ok and lim.lower.value == 1.0 and lim.upper.value == 1.0
    check("exact-endpoints", ok, "q=1 (p=1), q=2 (p=2), q=2 (limiting)")

    # the exact p=1 whole-space constant is the char-ball objective's minimum
    worst = 0.0
    for (N, s, q) in [(1, 0.5, 1.5), (2, 0.3, 1.1), (3, 0.7, 1.25)]:
        p = Params(N, s, 1.0, q)
        m = rayleigh.objective_minimizer(rayleigh.Objective.CHAR_BALL, p)[1]
        worst = max(worst, abs(m - rn(p).lower.value) / m)
    check("borderline-rn-char-ball", worst <= 1e-12, f"worst rel {worst:.2e}")

    # closed-form minimizers vs golden-section search; the search locates an
    # argmin only to ~sqrt(machine eps) relative (value comparisons go flat),
    # so the double-precision check uses 2e-7 (the test suite repeats this
    # oracle in high precision at 1e-8); borderline-rn-char-ball checks the
    # char-ball minimum, the p = 1 bracket [v, v]
    p1 = Params(1, 0.5, 1.0, 1.5)
    (k1,), _ = rayleigh.objective_minimizer(rayleigh.Objective.CHAR_BALL, p1)
    k1g = _golden_min(lambda k: rayleigh.objective_value(
        rayleigh.Objective.CHAR_BALL, p1, k), 1e-3, 1e3)
    check("char-ball-minimizer", abs(k1 - k1g) / k1 <= 2e-7,
          f"k*={k1:.8f} vs search {k1g:.8f}")
    p2 = Params(1, 0.25, 2.0, 3.0)
    (k2,), m2 = rayleigh.objective_minimizer(rayleigh.Objective.BUMP, p2)
    k2g = _golden_min(lambda k: rayleigh.objective_value(
        rayleigh.Objective.BUMP, p2, k), 1e-3, 1e2)
    up2 = rn(p2).upper.value
    check("bump-minimizer",
          abs(k2 - k2g) / k2 <= 2e-7 and abs(m2 - up2) / up2 <= 1e-12,
          f"k*={k2:.8f} vs search {k2g:.8f}; min matches upper bound")
    p3 = Params(1, 0.5, 2.0, 4.0)
    (k3, K3), m3 = rayleigh.objective_minimizer(rayleigh.Objective.MOSER_BALL, p3)
    unit = bounds.DomainSpec.interval(-1.0, 1.0)
    up3 = bounds.bounds_for(p3, unit).upper.value
    (k4, K4), m4 = rayleigh.objective_minimizer(rayleigh.Objective.MOSER_LINE, p3)
    up4 = rn(p3).upper.value
    check("moser-minimizers",
          abs(m3 - up3) / up3 <= 1e-12 and abs(m4 - up4) / up4 <= 1e-12,
          f"ball min {m3:.8f} vs {up3:.8f}; line min {m4:.8f} vs {up4:.8f}")

    # Young-interpolation reproduction of the Hilbert whole-space lower bound
    N, s, q = 1, 0.25, 3.0
    crit = Params(N, s, 2.0, q).critical_exponent
    lam = N / s * (1.0 / q - 1.0 / crit)
    _, rho = bounds.young_lower(lam, constants.frac_sobolev_hilbert(N, s).value)
    lo = rn(Params(N, s, 2.0, q)).lower.value
    check("young-reproduces-lower", abs(1.0 / rho - lo) / lo <= 1e-12,
          f"1/rho={1/rho!r} vs {lo!r}")

    # limiting-case asymptotics: q * bound -> 2 pi e
    qd = 1000.0
    r1 = qd * bounds.bounds_for(Params(1, 0.5, 2.0, qd), unit).upper.value / _2PIE
    big = rn(Params(1, 0.5, 2.0, 1e6))
    r2 = 1e6 * big.upper.value / _2PIE
    r3 = 1e6 * big.lower.value / _2PIE
    check("limiting-asymptotics",
          abs(r1 - 1.0) <= 5e-3 and abs(r2 - 1.0) <= 1e-4 and abs(r3 - 1.0) <= 1e-4,
          f"q*bound/2pie: domain(1e3)={r1:.5f}, rn-up(1e6)={r2:.6f}, rn-lo(1e6)={r3:.6f}")

    return out
