import math
import re

import numpy as np
import pytest

from fracsob import varmin
from fracsob.bounds import DomainSpec, bounds_for
from fracsob.constants import Params, classical_sobolev, frac_sobolev_hilbert
from fracsob.errors import DomainError, GridError, RegimeError
from fracsob.grids import Field, Grid
from fracsob.pde import (
    _GROUND_STATE_TOL,
    check_potential_hypotheses,
    check_weight_hypotheses,
    coupling_alpha,
    coupling_lambda_interval,
    existence_thresholds,
    ground_state_solve,
    growth_coefficient,
    nonlinearity_threshold,
    pohozaev_defect,
    ps_level,
)


def rel(a, b):
    return abs(a - b) / abs(b)


def rn_lower(params):
    """The whole-space lower bound at params."""
    return bounds_for(params, DomainSpec.whole_space(N=params.N)).lower.value


GROWTH_AT_THM3_UPPER = 68.317873781388537  # 2 * (2 sqrt(pi e))^2


class TestPsLevel:
    def test_value(self):
        assert ps_level(4.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_monotone_in_S(self):
        vals = [ps_level(3.0, S) for S in np.linspace(0.1, 5.0, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_certified_from_lower_bound(self):
        S_lo = rn_lower(Params(1, 0.25, 2.0, 3.0))
        assert ps_level(3.0, S_lo) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ps_level(2.0, 1.0)


class TestThresholds:
    def test_unit(self):
        assert existence_thresholds(4.0, 1.0) == (1.0, 1.0)

    def test_example(self):
        h, l = existence_thresholds(4.0, 2.0)
        assert rel(h, 4.0) < 1e-15 and rel(l, math.sqrt(2.0)) < 1e-15

    def test_h_equals_lq_power(self):
        for q in (2.5, 3.0, 7.0):
            for S in (0.3, 1.7):
                h, l = existence_thresholds(q, S)
                assert rel(h, l ** q) < 1e-12

    def test_monotone(self):
        hs = [existence_thresholds(3.0, S)[0] for S in np.linspace(0.5, 4.0, 30)]
        assert all(b > a for a, b in zip(hs, hs[1:]))


class TestGrowthCoefficient:
    def test_unit(self):
        assert growth_coefficient(4.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_at_limiting_upper_bound(self):
        S = bounds_for(Params(1, 0.5, 2.0, 4.0), DomainSpec.whole_space()).upper.value
        assert rel(growth_coefficient(4.0, S), GROWTH_AT_THM3_UPPER) < 1e-13

    def test_monotone(self):
        vals = [growth_coefficient(4.0, S) for S in np.linspace(0.2, 3.0, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestNonlinearityThreshold:
    def test_limiting_branch(self):
        got = nonlinearity_threshold(1, 0.5, 4.0, 1.0)
        assert rel(got, 0.5) < 1e-15

    def test_fractional_branch_positive(self):
        got = nonlinearity_threshold(2, 0.5, 3.0, 1.0)
        assert got > 0.0 and math.isfinite(got)
        # the formula at the sharp H^s constant: with S = 1, q = 3, N = 2,
        # s = 1/2 it is (2^2 / (3 S_crit^2))^(1/2)
        S_crit = frac_sobolev_hilbert(2, 0.5).value
        assert rel(got, math.sqrt(4.0 / (3.0 * S_crit ** 2))) < 1e-15

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            nonlinearity_threshold(1, 0.3, 3.0, 1.0)


class TestCouplingAlpha:
    def test_tau_algebra_equality_point(self):
        # with S set to the interpolation lower bound the alpha formula
        # collapses to pure tau algebra: tau2 * tau1^((sigma-1)/(q/(q-2)-sigma))
        for (N, s, q, expected) in [(2, 0.5, 3.0, 2.0 / 9.0),
                                    (1, 0.25, 3.0, 2.0 / 9.0)]:
            S = rn_lower(Params(N, s, 2.0, q))
            a = coupling_alpha(N, s, q, S)
            assert rel(a, expected) < 1e-12

    def test_below_one_on_grid(self):
        pts = 0
        for (N, s) in [(1, 0.25), (2, 0.45), (3, 0.3), (2, 0.35), (4, 0.45)]:
            crit = 2.0 * N / (N - 2.0 * s)
            for frac in (0.3, 0.5, 0.7, 0.9):
                q = 2.0 + (crit - 2.0) * frac
                S = rn_lower(Params(N, s, 2.0, q))
                a = coupling_alpha(N, s, q, S)
                lo, hi = coupling_lambda_interval(a)
                assert 0.0 < a < 1.0
                assert 0.0 < lo < 1.0 and hi == 1.0
                pts += 1
        assert pts == 20

    def test_singular_at_critical_q(self):
        N, s = 1, 0.25
        q = 2.0 * N / (N - 2.0 * s)  # q/(q-2) = N/(2s) exactly
        with pytest.raises(DomainError):
            coupling_alpha(N, s, q, 1.0)

    def test_classical_variant(self):
        S1 = classical_sobolev(3, 2.0).value
        q = 5.0
        got = coupling_alpha(3, 1.0, q, 1.0)
        sig = 1.5
        expected = (S1 ** sig / (3.0 * (0.5 - 1.0 / q))) ** (1.0 / (q / (q - 2.0) - sig))
        assert rel(got, expected) < 1e-12

    def test_interval(self):
        assert coupling_lambda_interval(0.75) == (0.5, 1.0)
        with pytest.raises(DomainError):
            coupling_lambda_interval(1.0)
        with pytest.raises(DomainError):
            coupling_lambda_interval(0.0)


class TestPohozaevDefect:
    def test_trivial_zeros(self):
        g = Grid(half_width=5.0, points=256)
        z = Field(g, np.zeros(256))
        assert pohozaev_defect(z, z, 0.5) == 0.0

    def test_equal_fields_lambda_one(self):
        g = Grid(half_width=5.0, points=256)
        rng = np.random.default_rng(2)
        u = Field(g, rng.normal(size=256))
        assert abs(pohozaev_defect(u, u, 1.0)) < 1e-12

    def test_lower_bound_inequality(self):
        g = Grid(half_width=5.0, points=512)
        rng = np.random.default_rng(3)
        h = g.spacing
        for lam in (0.1, 0.5, 0.9):
            for _ in range(100):
                u = Field(g, rng.normal(size=512))
                v = Field(g, rng.normal(size=512))
                d = pohozaev_defect(u, v, lam)
                floor = (1.0 - lam) * h * float(np.sum(u.values ** 2)
                                                + np.sum(v.values ** 2))
                assert d >= floor - 1e-12 * max(1.0, floor)

    def test_grid_mismatch(self):
        u = Field(Grid(half_width=5.0, points=256), np.zeros(256))
        v = Field(Grid(half_width=4.0, points=256), np.zeros(256))
        with pytest.raises(GridError):
            pohozaev_defect(u, v, 0.5)


class TestHypothesisChecks:
    def test_weight(self):
        g = Grid(half_width=40.0, points=1024)
        ok = Field(g, 1.0 + 2.0 * np.exp(-g.x * g.x))
        check_weight_hypotheses(ok)
        # Q = 1 is the unperturbed problem: the hypotheses leave it alone
        check_weight_hypotheses(Field(g, np.ones(1024)))
        with pytest.raises(DomainError):
            check_weight_hypotheses(
                Field(g, 1.0 - 0.5 * np.exp(-g.x * g.x)))
        with pytest.raises(DomainError, match="weight must approach 1"):
            check_weight_hypotheses(Field(g, np.full(1024, 2.0)))

    def test_potential(self):
        g = Grid(half_width=40.0, points=1024)
        ok = Field(g, 1.0 - 0.5 * np.exp(-g.x * g.x))
        check_potential_hypotheses(ok)
        check_potential_hypotheses(Field(g, np.ones(1024)))   # unperturbed
        with pytest.raises(DomainError):
            check_potential_hypotheses(
                Field(g, 1.0 + np.exp(-g.x * g.x)))
        with pytest.raises(DomainError, match="potential must approach 1"):
            check_potential_hypotheses(Field(g, np.full(1024, 0.5)))


class TestGroundState:
    def test_solve_and_rescaling(self):
        grid = Grid(half_width=40.0, points=2048)
        V = Field(grid, np.ones(grid.points))
        Q = Field(grid, 1.0 + 2.0 * np.exp(-grid.x * grid.x))
        u0, I0, rep = ground_state_solve(grid, 0.5, 4.0, V, Q)
        assert rep.converged
        assert np.all(np.diff(rep.energy_trace) <= 0.0)
        assert rep.residual_rel < 1e-4
        # the returned field is the rescaled minimizer: undoing the scaling
        # lands back on the weighted unit sphere
        u = u0.values / (2.0 * I0) ** (1.0 / (4.0 - 2.0))
        G = grid.spacing * float(np.sum(Q.values * np.abs(u) ** 4))
        assert abs(G - 1.0) < 1e-10
        assert np.all(u0.values[np.abs(grid.x) < 10.0] > 0.0)

    def test_weight_below_one_is_refused(self):
        # the solver took any positive Q; only the CLI held it to Q >= 1
        grid = Grid(half_width=20.0, points=256)
        ones = Field(grid, np.ones(grid.points))
        dip = Field(grid, 1.0 - 0.5 * np.exp(-grid.x ** 2))
        with pytest.raises(DomainError, match="weight must satisfy Q >= 1"):
            ground_state_solve(grid, 0.5, 4.0, ones, dip)

    @pytest.mark.parametrize("q", [2.00001, 2.000000001])
    def test_scale_out_of_the_double_range_is_refused(self, q):
        # with the CLI's default weight Q = 1 + 2 exp(-x^2) the scale
        # (2 I0)^(1/(q-2)) is about 0.617^100000 at q = 2.00001: it underflowed
        # to 0, and the solve returned a zero field with residual 0
        grid = Grid(half_width=20.0, points=256)
        V = Field(grid, np.ones(grid.points))
        Q = Field(grid, 1.0 + 2.0 * np.exp(-grid.x ** 2))
        with pytest.raises(DomainError,
                           match=rf"leaves the normal double range at s=0.5, "
                                 rf"q={re.escape(str(q))}$"):
            ground_state_solve(grid, 0.5, q, V, Q)

    @pytest.mark.parametrize("q,name", [(2.001, "h_norm_sq"), (2.0014, "residual^2")])
    def test_norm_out_of_the_double_range_is_refused(self, q, name):
        # the scale (2 I0)^(1/(q-2)) is a double, about 1e-209 at q = 2.001,
        # but u0^2 underflowed: the solve reported h_norm_sq, lq_norm and the
        # residual 0 and residual_rel inf.  At q = 2.0014 h_norm_sq is normal
        # but the squared residual is subnormal, a residual with few digits
        grid = Grid(half_width=40.0, points=2048)
        V = Field(grid, np.ones(grid.points))
        Q = Field(grid, 1.0 + 2.0 * np.exp(-grid.x ** 2))
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} = .* leaves the "
                                              rf"normal double range at s=0.5, q={re.escape(str(q))}$"):
            ground_state_solve(grid, 0.5, q, V, Q)

    def test_flat_weight_recovers_embedding_constant(self):
        # at V = Q = 1 the ground state is the whole-space descent of
        # minimize_quotient run to the ground state's tolerance, bit for bit
        for L, M, s, q in [(100.0, 2048, 0.5, 4.0), (40.0, 4096, 0.3, 3.5),
                           (40.0, 16384, 0.75, 8.0)]:
            grid = Grid(half_width=L, points=M)
            ones = Field(grid, np.ones(grid.points))
            _, I0, rep = ground_state_solve(grid, s, q, ones, ones)
            _, trace, _ = varmin._box_descent(grid, s, q, _GROUND_STATE_TOL, 1.0)
            assert 2.0 * I0 == trace[-1]
            assert np.array_equal(rep.energy_trace, 0.5 * np.asarray(trace))

    @pytest.mark.parametrize("s,q,depth,amp", [(0.5, 4.0, 0.0, 2.0), (0.3, 3.5, 0.5, 1.5)])
    def test_h_norm_sq_is_the_plancherel_sum(self, s, q, depth, amp):
        # h (<u0, A u0> + <u0, u0>) against sum (|2 pi xi|^(2s) + 1) |fft u0|^2,
        # over all M frequencies of the complex transform
        grid = Grid(half_width=30.0, points=2048)
        bell = np.exp(-grid.x ** 2)
        u0, _, rep = ground_state_solve(grid, s, q, Field(grid, 1.0 - depth * bell),
                                        Field(grid, 1.0 + amp * bell))
        xi = np.fft.fftfreq(grid.points, d=grid.spacing)
        plancherel = grid.spacing / grid.points * float(np.sum(
            (np.abs(2.0 * np.pi * xi) ** (2.0 * s) + 1.0) * np.abs(np.fft.fft(u0.values)) ** 2))
        assert rel(rep.h_norm_sq, plancherel) <= 1e-13

    @pytest.mark.parametrize("M", [2048, 16384])
    def test_iterations_stable_under_rounding_perturbation(self, M, monkeypatch):
        # the work of a solve must not hang on rounding: the ground-state
        # descent from a start perturbed in its last bit takes (nearly) the
        # same number of iterations
        grid = Grid(half_width=40.0, points=M)
        V = np.ones(grid.points)
        Q = 1.0 + 2.0 * np.exp(-grid.x * grid.x)
        _, trace, converged = varmin._box_descent(grid, 0.5, 4.0, _GROUND_STATE_TOL, V, Q)
        # the same operators, from exp(-x^2) perturbed in its last bit
        descend = varmin._descend
        monkeypatch.setattr(varmin, "_descend", lambda u, *args, **kwargs: descend(
            u * (1.0 + 2.0 ** -52 * np.cos(grid.x)), *args, **kwargs))
        _, trace_p, converged_p = varmin._box_descent(grid, 0.5, 4.0, _GROUND_STATE_TOL,
                                                      V, Q)
        assert converged and converged_p
        assert abs(len(trace) - len(trace_p)) <= 2
        assert len(trace) - 1 <= 100


def _fields(M=16, value=1.0):
    grid = Grid(half_width=8.0, points=M)
    return grid, Field(grid, np.full(M, value))


@pytest.mark.parametrize("call,cls,message", [
    pytest.param(lambda: ps_level(3.0, 0.0), DomainError,
                 "S must be finite and positive, got 0.0", id="S"),
    # coupling_alpha restated the rules of the constants it reads
    pytest.param(lambda: coupling_alpha(2, 1.0, 3.0, 1.0), DomainError,
                 "classical_sobolev requires 1 < p < N, got N=2, p=2.0", id="classical-N"),
    pytest.param(lambda: coupling_alpha(1, 0.5, 3.0, 1.0), DomainError,
                 "N must be > sp, got N=1, s=0.5, p=2.0", id="fractional-N"),
    # returned a value
    pytest.param(lambda: coupling_alpha(2.5, 0.5, 3.0, 1.0), DomainError,
                 "N must be an integer >= 1, got 2.5", id="fractional-N-fraction"),
    # a bare power raised a raw OverflowError
    pytest.param(lambda: nonlinearity_threshold(400, 0.01, 2.00001, 1.0), DomainError,
                 "400 ** 20000.0 = inf leaves the normal double range at S=1.0, q=2.00001",
                 id="threshold-N-power"),
    pytest.param(lambda: pohozaev_defect(_fields()[1], _fields()[1], 0.0), DomainError,
                 "lambda must lie in (0,1], got 0.0", id="lambda"),
    pytest.param(lambda: check_potential_hypotheses(_fields(value=-0.5)[1]), DomainError,
                 "potential must be strictly positive", id="potential"),
    pytest.param(lambda: ground_state_solve(_fields()[0], 1.0, 3.0, _fields()[1],
                                            _fields()[1]),
                 DomainError, "s must lie in (0,1), got 1.0", id="solve-s"),
    pytest.param(lambda: ground_state_solve(_fields()[0], 0.5, math.inf, _fields()[1],
                                            _fields()[1]),
                 DomainError, "q must be finite, got inf", id="solve-q-inf"),
    pytest.param(lambda: ps_level(4.0, 1e-155), DomainError,
                 "1e-155 ** 2.0 = 1e-310 leaves the normal double range at S=1e-155, q=4.0",
                 id="S-power-subnormal"),
    pytest.param(lambda: ground_state_solve(_fields(32)[0], 0.5, 3.0, _fields()[1],
                                            _fields()[1]),
                 GridError, "V and Q must live on the solver grid", id="solve-grid"),
])
def test_refusal_names_its_input(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


@pytest.mark.parametrize("call,q", [
    pytest.param(lambda: nonlinearity_threshold(2, 0.5, 1e4, 1.0), 1e4, id="bracket"),
    pytest.param(lambda: coupling_alpha(400, 0.01, 2.00001, 1.0), 2.00001, id="crit-power"),
])
def test_threshold_power_out_of_the_double_range_is_refused(call, q):
    # a bare float power raised a raw OverflowError
    with pytest.raises(DomainError, match=rf" = inf leaves the normal double range at "
                                          rf"S=1.0, q={re.escape(repr(q))}$"):
        call()
