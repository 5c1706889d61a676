"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""
import math

import numpy as np
import pytest

from fracsob.bounds import DomainSpec, bounds_for
from fracsob.constants import (
    Params,
    classical_sobolev,
    frac_isoperimetric,
    frac_sobolev_hilbert,
    lieb_constant,
    lieb_loss_lower,
    mazya_lower,
    norm_bridge,
)
from fracsob.grids import Field, Grid
from fracsob.pde import coupling_alpha, ground_state_solve, pohozaev_defect
from fracsob.rayleigh import (
    Objective,
    RadialProfile,
    bump_lq_norm,
    bump_seminorm_sq,
    moser_bound_check,
    objective_minimizer,
)
from fracsob.specfun import QuadratureConfig, integrate
from fracsob.varmin import minimize_quotient, sandwich

TWO_PI_E = 2.0 * math.pi * math.e


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def rel(a, b):
    return abs(a - b) / abs(b)


def rn(params):
    return bounds_for(params, DomainSpec.whole_space(N=params.N))


def interval_upper(q, R):
    """The limiting-case upper bound on the interval (-R, R)."""
    return bounds_for(Params(1, 0.5, 2.0, q), DomainSpec.interval(-R, R)).upper.value


def test_criterion_01_exact_endpoints():
    b1 = rn(Params(2, 0.3, 1.0, 1.0))
    b2 = rn(Params(1, 0.25, 2.0, 2.0))
    b3 = rn(Params(1, 0.5, 2.0, 2.0))
    ok = (b1.lower.value == 1.0 and b1.upper.value == 1.0
          and b2.lower.value == 1.0 and b2.upper.value == 1.0
          and b3.lower.value == 1.0 and b3.upper.value == 1.0)
    report(1, "exact-endpoints-q1-q2", ok)


def test_criterion_02_lieb_bridge_identity():
    ok = True
    for N in (1, 2, 3, 4):
        for s in (0.1, 0.2, 0.3, 0.45):
            if N > 2 * s:
                lhs = lieb_constant(N, s).value
                rhs = 2.0 / norm_bridge(N, s).value * frac_sobolev_hilbert(N, s).value
                ok = ok and rel(lhs, rhs) <= 1e-10
    report(2, "lieb-bridge-identity-1e-10", ok)


def test_criterion_03_frac_iso_1d_closed_form():
    ok = all(rel(frac_isoperimetric(1, s).value, 4.0 / (s * (1.0 - s))) <= 1e-6
             for s in (0.25, 0.5, 0.75))
    report(3, "frac-iso-1d-quadrature-1e-6", ok)


def test_criterion_04_classical_limit():
    got = frac_sobolev_hilbert(3, 1.0 - 1e-4).value
    ok = rel(got, classical_sobolev(3, 2.0).value) <= 0.01
    report(4, "classical-limit-1pct", ok)


def test_criterion_05_test_function_oracles():
    N, s, q, k = 1, 0.25, 3.0, 1.0
    M = 2 ** 14
    # spectral oracle: DFT-multiplier sum over the 2^14 samples, zero-padded
    # in x to refine the frequency grid (controls the multiplier-cusp error)
    L, pad = 4.0, 64
    grid = Grid(half_width=L, points=M)
    u = RadialProfile.bump(k, s)(grid.x)
    padded = np.zeros(pad * M)
    padded[:M] = u
    xi = np.fft.fftfreq(pad * M, d=grid.spacing)
    spectral = grid.spacing / (pad * M) * float(
        np.sum(np.abs(2.0 * np.pi * xi) ** (2.0 * s)
               * np.abs(np.fft.fft(padded)) ** 2))
    ok = rel(bump_seminorm_sq(N, s, k), spectral) <= 1e-3
    # quadrature oracle for the L^q norm
    direct, _ = integrate(lambda x: np.maximum(k * k - x * x, 0.0) ** (q * s),
                          -k, k, QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12))
    ok = ok and rel(bump_lq_norm(N, s, q, k), direct ** (1.0 / q)) <= 1e-3
    report(5, "bump-norm-oracles-1e-3", ok)


def _golden_mp(f, a, b, mp):
    gr = (mp.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > mp.mpf("1e-20") * (1 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return (a + b) / 2


def test_criterion_06_minimizer_correctness():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ok = True

    # char-ball family at (N,s,q) = (1, 1/2, 3/2)
    p1 = Params(1, 0.5, 1.0, 1.5)
    (k1,), m1 = objective_minimizer(Objective.CHAR_BALL, p1)
    s_, q_ = mp.mpf("0.5"), mp.mpf("1.5")
    S16, w = mp.mpf(16), mp.mpf(2)
    c1 = 1 / (1 - s_)

    def g1(k):
        return (w ** (1 / c1 - 1 / q_) * S16 * k ** (1 / c1 - 1 / q_)
                + w ** (1 - 1 / q_) * k ** (1 - 1 / q_))

    k1_star = _golden_mp(g1, mp.mpf(1), mp.mpf(200), mp)
    ok = ok and abs(k1 - float(k1_star)) / float(k1_star) <= 1e-8
    up1 = rn(p1).upper.value
    ok = ok and rel(m1, up1) <= 1e-12

    # bump family at (1, 1/4, 3)
    p2 = Params(1, 0.25, 2.0, 3.0)
    (k2,), m2 = objective_minimizer(Objective.BUMP, p2)
    ss, qq = mp.mpf("0.25"), mp.mpf(3)
    cc = 2 / (1 - 2 * ss)

    def B(a, b):
        return mp.gamma(a) * mp.gamma(b) / mp.gamma(a + b)

    def g2(k):
        bq = B(mp.mpf("0.5"), qq * ss + 1) ** (-2 / qq)
        a = 2 ** (2 * ss + 2 / qq) / (1 + 2 * ss) * mp.gamma(ss + 1) ** 2 * bq
        b = 2 ** (2 / qq - 1) * B(mp.mpf("0.5"), 2 * ss + 1) * bq
        return (w * 1) ** (1 - 2 / qq) * (a * k ** (2 * (1 / cc - 1 / qq))
                                          + b * k ** (1 - 2 / qq))

    k2_star = _golden_mp(g2, mp.mpf("0.01"), mp.mpf(10), mp)
    ok = ok and abs(k2 - float(k2_star)) / float(k2_star) <= 1e-8
    up2 = rn(p2).upper.value
    ok = ok and rel(m2, up2) <= 1e-12

    # truncated-log families at q = 4
    p3 = Params(1, 0.5, 2.0, 4.0)
    (k3, K3), m3 = objective_minimizer(Objective.MOSER_BALL, p3)
    q4 = mp.mpf(4)

    def g3(k, K=mp.mpf(1)):
        return 2 ** (-2 / q4) * mp.pi * k ** (-2 / q4) / (mp.log(K) - mp.log(k))

    k3_star = _golden_mp(g3, mp.mpf("1e-4"), mp.mpf("0.99"), mp)
    ok = ok and abs(k3 - float(k3_star)) / float(k3_star) <= 1e-8 and K3 == 1.0
    ok = ok and rel(m3, interval_upper(4.0, 1.0)) <= 1e-12

    (k4, K4), m4 = objective_minimizer(Objective.MOSER_LINE, p3)

    def g4(k, K):
        return 2 ** (-2 / q4) * (mp.pi * k ** (-2 / q4) / (mp.log(K) - mp.log(k))
                                 + 2 * k ** (-2 / q4) * K)

    # nested golden-section: outer over K of the inner-minimized value
    def inner_argmin(K):
        return _golden_mp(lambda k: g4(k, K), mp.mpf("1e-6"),
                          K * (1 - mp.mpf("1e-12")), mp)

    KK = _golden_mp(lambda K: g4(inner_argmin(K), K), mp.mpf("0.2"), mp.mpf(20), mp)
    kk = inner_argmin(KK)
    ok = ok and abs(k4 - float(kk)) / float(kk) <= 1e-8
    ok = ok and abs(K4 - float(KK)) / float(KK) <= 1e-8
    ok = ok and rel(m4, rn(p3).upper.value) <= 1e-12

    report(6, "g-minimizers-golden-1e-8-values-1e-12", ok)


def test_criterion_07_sandwich_verification():
    ok = True
    # p=2 on the interval and on the truncated line
    for q in (2.5, 3.0, 3.5):
        p = Params(1, 0.25, 2.0, q)
        rep = sandwich(p, DomainSpec.interval(-1.0, 1.0),
                       grid=Grid(half_width=8.0, points=4096))
        ok = ok and rep.numeric is not None
        ok = ok and rep.lower.value * 0.98 <= rep.numeric.value <= rep.upper.value * 1.02
        rep = sandwich(p, DomainSpec.whole_space(200.0),
                       grid=Grid(half_width=200.0, points=4096))
        ok = ok and rep.lower.value * 0.98 <= rep.numeric.value <= rep.upper.value * 1.02
    # p=1 on balls: all three values coincide exactly
    for (N, s, q) in ((1, 0.5, 1.5), (2, 0.5, 1.2)):
        rep = sandwich(Params(N, s, 1.0, q), DomainSpec.ball(1.0, N))
        ok = ok and rep.numeric.value == rep.lower.value
        ok = ok and rel(rep.numeric.value, rep.upper.value) <= 1e-12
    report(7, "sandwich-2pct-and-p1-exact", ok)


def test_criterion_08_limiting_asymptotics():
    ok = 1000.0 * interval_upper(1000.0, 1.0) == pytest.approx(
        TWO_PI_E, rel=5e-3)
    grid = Grid(half_width=10.0, points=16384)
    res = minimize_quotient(grid, None, 0.5, 32.0, "whole_space")
    ok = ok and rel(32.0 * res.estimate, TWO_PI_E) <= 0.25
    report(8, "q-asymptotics-2pie", ok)


def test_criterion_09_moser_slack_lattice():
    ok = True
    pts = [(math.exp(-2.0), 1.0), (math.exp(-4.0), 1.0)]  # q = 4, 8
    for k in (0.05, 0.15, 0.35):
        for K in (0.5, 0.8, 1.0):
            pts.append((k, K))
    pts.append((0.01, 0.9))
    for (k, K) in pts:
        numeric, bound, slack = moser_bound_check(k, K)
        ok = ok and slack >= 0.0
    report(9, "moser-energy-slack-nonnegative", ok)


def test_criterion_10_ground_state():
    grid = Grid(half_width=40.0, points=4096)
    V = Field(grid, np.ones(grid.points))
    Q = Field(grid, 1.0 + 2.0 * np.exp(-grid.x ** 2))
    u0, I0, rep = ground_state_solve(grid, 0.5, 4.0, V, Q)
    ok = rep.converged
    ok = ok and bool(np.all(np.diff(rep.energy_trace) <= 0.0))
    ok = ok and bool(np.all(u0.values[np.abs(grid.x) < 20.0] > 0.0))
    ok = ok and rep.residual_rel < 1e-4
    S = minimize_quotient(Grid(half_width=200.0, points=4096), None, 0.5, 4.0,
                          "whole_space").estimate
    ok = ok and rep.h_norm_sq < S ** (4.0 / (4.0 - 2.0))
    report(10, "ground-state-thresholds", ok)


def test_criterion_11_alpha_threshold():
    ok = True
    pts = 0
    for (N, s) in [(1, 0.25), (2, 0.45), (3, 0.3), (2, 0.35), (4, 0.45)]:
        crit = 2.0 * N / (N - 2.0 * s)
        for frac in (0.3, 0.5, 0.7, 0.9):
            q = 2.0 + (crit - 2.0) * frac
            S = rn(Params(N, s, 2.0, q)).lower.value
            a = coupling_alpha(N, s, q, S)
            ok = ok and 0.0 < a < 1.0 and 0.0 < math.sqrt(1.0 - a) < 1.0
            pts += 1
    ok = ok and pts == 20
    report(11, "alpha-in-unit-interval", ok)


def test_criterion_12_pohozaev_defect():
    g = Grid(half_width=5.0, points=512)
    rng = np.random.default_rng(99)
    ok = True
    for lam in (0.1, 0.5, 0.9):
        for _ in range(100):
            u = Field(g, rng.normal(size=512))
            v = Field(g, rng.normal(size=512))
            d = pohozaev_defect(u, v, lam)
            floor = (1.0 - lam) * g.spacing * float(np.sum(u.values ** 2)
                                                    + np.sum(v.values ** 2))
            ok = ok and d >= floor - 1e-12 * max(1.0, floor)
    report(12, "pohozaev-defect-floor-1e-12", ok)


def test_criterion_13_literature_bound_consistency():
    ok = True
    for N in (1, 2, 3, 4):
        for s in (0.1, 0.25, 0.45):
            if N > 2 * s:
                ok = ok and (mazya_lower(N, s, 2.0).value
                             <= lieb_constant(N, s).value)
    for q in (2.5, 3.0, 4.0, 8.0, 16.0, 64.0):
        ok = ok and (lieb_loss_lower(q).value
                     <= rn(Params(1, 0.5, 2.0, q)).upper.value)
    report(13, "literature-bounds-consistent", ok)
