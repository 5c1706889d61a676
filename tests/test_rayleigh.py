import math

import numpy as np
import pytest

from fracsob.constants import Params, norm_bridge
from fracsob.bounds import DomainSpec, bounds_for
from fracsob.errors import DomainError, RegimeError
from fracsob.grids import Grid
import fracsob.rayleigh as rayleigh
from fracsob.rayleigh import (
    Objective,
    RadialProfile,
    bump_lq_norm,
    bump_seminorm_sq,
    gagliardo_seminorm_1d,
    moser_bound_check,
    objective_minimizer,
    objective_value,
)
from fracsob.specfun import QuadratureConfig, integrate
from quadrature_oracles import moser_nested_quadrature


def rel(a, b):
    return abs(a - b) / abs(b)


BUMP_SEMI_1_025_1 = 1.5491586698003223
BUMP_LQ_1_025_3_1 = 1.1286595643220031
CHAR_GAG_1_05 = 22.627416997969521  # 4 (2k)^(1-s)/(s(1-s)) at k=1, s=1/2
BUMP_GAG_1_025 = 15.532659172140232  # [bump(1, 1/4)]^2 at s = 1/4, p = 2
ZETA_3 = 1.2020569031595942          # zeta(3), Apery's constant


def spectral_energy_oracle(values: np.ndarray, half_width: float, s: float,
                           pad: int = 64) -> float:
    """DFT-multiplier evaluation of ||(-Lap)^(s/2)u||^2 from grid samples.

    Zero-padding in x refines the frequency grid, which controls the
    quadrature error of the |2 pi xi|^(2s) cusp at xi = 0 without changing
    the sample set.
    """
    M = len(values)
    h = 2.0 * half_width / M
    padded = np.zeros(pad * M)
    padded[:M] = values
    xi = np.fft.fftfreq(pad * M, d=h)
    U = np.fft.fft(padded)
    return h / (pad * M) * float(
        np.sum(np.abs(2.0 * np.pi * xi) ** (2.0 * s) * np.abs(U) ** 2))


class TestBumpNorms:
    def test_seminorm_homogeneity(self):
        for (N, s) in ((1, 0.25), (2, 0.5), (3, 0.7)):
            r = bump_seminorm_sq(N, s, 2.0) / bump_seminorm_sq(N, s, 1.0)
            assert rel(r, 2.0 ** (N + 2 * s)) < 1e-13

    def test_seminorm_value(self):
        assert rel(bump_seminorm_sq(1, 0.25, 1.0), BUMP_SEMI_1_025_1) < 1e-13

    def test_seminorm_vs_spectral_oracle(self):
        grid = Grid(half_width=4.0, points=2 ** 14)
        u = RadialProfile.bump(1.0, 0.25)(grid.x)
        got = spectral_energy_oracle(u, 4.0, 0.25)
        assert rel(got, bump_seminorm_sq(1, 0.25, 1.0)) < 1e-3

    def test_lq_homogeneity(self):
        N, s, q = 1, 0.25, 3.0
        r = bump_lq_norm(N, s, q, 2.0) / bump_lq_norm(N, s, q, 1.0)
        assert rel(r, 2.0 ** ((N + 2 * q * s) / q)) < 1e-13

    def test_lq_vs_quadrature(self):
        got = bump_lq_norm(1, 0.25, 3.0, 1.0)
        direct, _ = integrate(
            lambda x: np.maximum(1.0 - x * x, 0.0) ** 0.75, -1.0, 1.0,
            QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12))
        assert rel(got, direct ** (1.0 / 3.0)) < 1e-10
        assert rel(got, BUMP_LQ_1_025_3_1) < 1e-13

    def test_quotient_k_dependence(self):
        # k-invariant exactly at the critical exponent, monotone otherwise
        N, s = 1, 0.25
        crit = 4.0

        def quot(q, k):
            return bump_seminorm_sq(N, s, k) / bump_lq_norm(N, s, q, k) ** 2

        assert rel(quot(crit, 0.5), quot(crit, 2.0)) < 1e-12
        # subcritical q: exponent 2N(1/crit - 1/q) < 0, decreasing in k
        assert quot(3.0, 0.5) > quot(3.0, 1.0) > quot(3.0, 2.0)


class TestObjectives:
    def test_moser_ball_min_equals_domain_upper(self):
        p = Params(1, 0.5, 2.0, 4.0)
        (k, K), m = objective_minimizer(Objective.MOSER_BALL, p)
        assert rel(k, math.exp(-2.0)) < 1e-14 and K == 1.0
        assert rel(m, bounds_for(p, DomainSpec.interval(-1.0, 1.0)).upper.value) < 1e-12

    def test_moser_line_min_equals_wholespace_upper(self):
        p = Params(1, 0.5, 2.0, 4.0)
        (k, K), m = objective_minimizer(Objective.MOSER_LINE, p)
        assert rel(m, bounds_for(p, DomainSpec.whole_space()).upper.value) < 1e-12

    @pytest.mark.parametrize("which,params,bracket", [
        (Objective.CHAR_BALL, Params(1, 0.5, 1.0, 1.5), (1.0, 200.0)),
        (Objective.BUMP, Params(1, 0.25, 2.0, 3.0), (0.01, 10.0)),
    ])
    def test_argmin_beats_random_points(self, which, params, bracket):
        (k_star, *_), m = objective_minimizer(which, params)
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = float(rng.uniform(*bracket))
            assert objective_value(which, params, k) >= m * (1.0 - 1e-12)

    def test_moser_argmins_beat_random_points(self):
        p = Params(1, 0.5, 2.0, 4.0)
        rng = np.random.default_rng(6)
        (_, _), m3 = objective_minimizer(Objective.MOSER_BALL, p)
        (_, _), m4 = objective_minimizer(Objective.MOSER_LINE, p)
        for _ in range(100):
            k = float(rng.uniform(1e-4, 0.9))
            K = float(rng.uniform(k * 1.01, 1.0))
            assert objective_value(Objective.MOSER_BALL, p, k, K) >= m3 * (1 - 1e-12)
            K2 = float(rng.uniform(k * 1.01, 5.0))
            assert objective_value(Objective.MOSER_LINE, p, k, K2) >= m4 * (1 - 1e-12)

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            objective_value(Objective.CHAR_BALL, Params(1, 0.25, 2.0, 3.0), 1.0)
        with pytest.raises(RegimeError):
            objective_minimizer(Objective.BUMP, Params(1, 0.25, 2.0, 2.0))
        with pytest.raises(RegimeError):
            objective_minimizer(Objective.CHAR_BALL, Params(1, 0.5, 1.0, 1.0))
        with pytest.raises(DomainError):
            objective_value(Objective.MOSER_BALL, Params(1, 0.5, 2.0, 4.0),
                            0.5, 1.5)  # K > 1


class TestGagliardo:
    def test_char_ball_vs_elementary(self):
        got = gagliardo_seminorm_1d(RadialProfile.char_ball(1.0), 0.5, 1)
        assert rel(got, CHAR_GAG_1_05) < 1e-8

    def test_char_scaling(self):
        s = 0.5
        base = gagliardo_seminorm_1d(RadialProfile.char_ball(1.0), s, 1)
        for k in (0.5, 2.0):
            got = gagliardo_seminorm_1d(RadialProfile.char_ball(k), s, 1)
            assert rel(got / base, k ** (1.0 - s)) < 1e-4

    def test_bump_vs_bridge_identity(self):
        # Gagliardo seminorm squared = (2/B(N,s)) * half-Laplacian energy
        s = 0.25
        got = gagliardo_seminorm_1d(RadialProfile.bump(1.0, s), s, 2)
        expected = 2.0 / norm_bridge(1, s).value * bump_seminorm_sq(1, s, 1.0)
        assert rel(got, expected) < 1e-3
        # the value of an inner rule that bisected the cap's endpoint kinks;
        # declaring them to the rule must not move it
        assert rel(got, BUMP_GAG_1_025) < 1e-8

    @pytest.mark.parametrize("s", [0.85, 0.9])
    def test_char_ball_near_s_one(self, s):
        got = gagliardo_seminorm_1d(RadialProfile.char_ball(1.0), s, 1)
        assert rel(got, 4.0 * 2.0 ** (1.0 - s) / (s * (1.0 - s))) < 1e-8

    def test_char_p2_needs_sp_below_1(self):
        with pytest.raises(DomainError):
            gagliardo_seminorm_1d(RadialProfile.char_ball(1.0), 0.5, 2)

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            RadialProfile.bump(1.0, 1.5)
        with pytest.raises(DomainError, match="unknown profile kind 'moser'"):
            RadialProfile("moser", 1.0)
        with pytest.raises(DomainError):
            RadialProfile.char_ball(-1.0)


class TestStackedDifference:
    """D(t) = int |u(x+t) - u(x)|^p dx over an array of shifts, one stacked
    inner quadrature per piece."""

    @staticmethod
    def inner(kink=None):
        return QuadratureConfig(abs_tol=1e-11, rel_tol=1e-8,
                                left_singularity_exponent=kink,
                                right_singularity_exponent=kink)

    @pytest.mark.parametrize("p", [1, 2])
    def test_char_ball_is_twice_the_shift(self, p):
        k = 0.75
        ts = np.array([1e-4, 0.3, 1.0, 1.4999, 2.0 * k])
        got = rayleigh._difference_lp(RadialProfile.char_ball(k), p, ts, self.inner())
        assert got.shape == ts.shape
        assert np.all(np.abs(got - 2.0 * np.minimum(ts, 2.0 * k)) <= 1e-13)

    @pytest.mark.parametrize("s,k", [(0.25, 1.0), (0.45, 0.6)])
    def test_bump_at_the_diameter_is_twice_the_l2_norm(self, s, k):
        # the supports of u and u(. + 2k) are disjoint
        d = rayleigh._difference_lp(RadialProfile.bump(k, s), 2, [1e-4, 0.7 * k, 2.0 * k],
                                    self.inner(1.0 - s))
        assert rel(d[-1], 2.0 * bump_lq_norm(1, s, 2.0, k) ** 2) < 1e-10

    def test_bump_seminorm_work(self, monkeypatch):
        # one inner quadrature per piece and outer panel, not one per shift
        # (over 1100 integrate calls when each shift had its own)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(rayleigh, "integrate", counted)
        got = gagliardo_seminorm_1d(RadialProfile.bump(1.0, 0.25), 0.25, 2)
        assert rel(got, BUMP_GAG_1_025) < 1e-8
        assert len(calls) <= 120


class TestMoserBoundCheck:
    def test_slack_positive(self):
        for (k, K) in ((math.exp(-2.0), 1.0), (0.5, 1.0)):
            numeric, bound, slack = moser_bound_check(k, K)
            assert slack > 0.0
            assert rel(bound, math.pi * math.log(K / k)) < 1e-14

    def test_degenerate_interval(self):
        numeric, bound, slack = moser_bound_check(0.95, 1.0)
        assert bound < 0.2 and 0.0 <= numeric <= bound

    def test_domain(self):
        with pytest.raises(DomainError):
            moser_bound_check(1.0, 0.5)

    @pytest.mark.parametrize("k,K", [(0.95, 1.0), (0.01, 0.9), (math.exp(-8.0), 1.0)])
    def test_matches_nested_quadrature(self, k, K):
        numeric, bound, _ = moser_bound_check(k, K)
        want, want_bound, _ = moser_nested_quadrature(k, K)
        assert bound == want_bound
        assert rel(numeric, want) < 1e-8

    @pytest.mark.parametrize("k,K", [(math.exp(-2.0), 1.0), (math.exp(-8.0), 1.0),
                                     (math.exp(-16.0), 1.0), (0.05, 0.5), (0.35, 0.8),
                                     (0.5, 1.0)])
    def test_slack_closed_form(self, k, K):
        # d chi_3(t)/dt = chi_2(t)/t and chi_3(1) = 7 zeta(3)/8 give
        # slack = (7 zeta(3) - 8 chi_3(k/K)) / pi
        t = k / K
        chi3 = sum(t ** (2 * j + 1) / (2 * j + 1) ** 3 for j in range(60))
        want = (7.0 * ZETA_3 - 8.0 * chi3) / math.pi
        assert rel(moser_bound_check(k, K)[2], want) < 1e-8

    def test_nearly_degenerate_interval(self):
        numeric, bound, slack = moser_bound_check(1.0, 1.0 + 1e-6)
        assert numeric >= 0.0 and slack >= 0.0
