import math

import numpy as np
import pytest

from fracsob.bounds import DomainSpec
from fracsob.constants import ConstantKind, Params
from fracsob.errors import DomainError, GridError
from fracsob.grids import Field, Grid
from fracsob.rayleigh import halflap_norm_sq
from fracsob.varmin import (
    SolverConfig,
    domain_mask,
    minimize_quotient,
    quotient_value_grad,
    sandwich,
    sweep,
)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestGridField:
    def test_power_of_two(self):
        with pytest.raises(GridError):
            Grid(half_width=1.0, points=1000)
        with pytest.raises(GridError):
            Grid(half_width=-1.0, points=1024)

    def test_frequencies(self):
        g = Grid(half_width=4.0, points=16)
        assert g.spacing == 0.5
        assert np.allclose(np.sort(g.frequencies),
                           np.arange(-8, 8) / 8.0)

    def test_field_shape_check(self):
        g = Grid(half_width=1.0, points=8)
        with pytest.raises(GridError):
            Field(g, np.zeros(7))
        with pytest.raises(GridError):
            Field(g, np.full(8, np.nan))

    def test_plancherel_consistency(self):
        g = Grid(half_width=6.0, points=2048)
        f = Field.from_function(g, lambda x: np.exp(-x * x))
        assert rel(halflap_norm_sq(f, 0.0), f.l2_norm_sq()) < 1e-12


class TestGradient:
    def test_directional_derivative_matches_fd(self):
        grid = Grid(half_width=10.0, points=256)
        rng = np.random.default_rng(123)
        for mode in ("whole_space", "domain"):
            mask = (np.abs(grid.x) < 4.0) if mode == "domain" else None
            for _ in range(10):
                u = rng.normal(size=256) + 2.0
                if mask is not None:
                    u = np.where(mask, u, 0.0)
                d = rng.normal(size=256)
                if mask is not None:
                    d = np.where(mask, d, 0.0)
                R, g = quotient_value_grad(grid, mask, 0.4, 3.0, mode, u)
                eps = 1e-6
                Rp, _ = quotient_value_grad(grid, mask, 0.4, 3.0, mode, u + eps * d)
                Rm, _ = quotient_value_grad(grid, mask, 0.4, 3.0, mode, u - eps * d)
                fd = (Rp - Rm) / (2.0 * eps)
                dd = float(g @ d)
                assert abs(dd - fd) / max(abs(fd), 1e-10) < 1e-5


class TestMinimizer:
    def test_whole_space_q2_is_one(self):
        grid = Grid(half_width=200.0, points=4096)
        res = minimize_quotient(grid, None, 0.5, 2.0, "whole_space",
                                SolverConfig(max_iters=4000))
        assert abs(res.estimate - 1.0) < 0.02

    def test_monotone_trace(self):
        grid = Grid(half_width=8.0, points=1024)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        res = minimize_quotient(grid, mask, 0.25, 3.0, "domain")
        assert np.all(np.diff(res.trace) <= 0.0)

    def test_determinism(self):
        grid = Grid(half_width=8.0, points=1024)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        cfg = SolverConfig(max_iters=500)
        r1 = minimize_quotient(grid, mask, 0.25, 3.0, "domain", cfg)
        r2 = minimize_quotient(grid, mask, 0.25, 3.0, "domain", cfg)
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.trace, r2.trace)

    def test_mask_support(self):
        grid = Grid(half_width=8.0, points=1024)
        dom = DomainSpec.interval(-1.0, 1.0)
        mask = domain_mask(grid, dom)
        res = minimize_quotient(grid, mask, 0.25, 3.0, "domain")
        assert np.all(res.minimizer.values[~mask] == 0.0)
        # mask idempotence
        masked_once = np.where(mask, res.minimizer.values, 0.0)
        assert np.array_equal(masked_once, res.minimizer.values)

    def test_positivity_projection_checked(self):
        grid = Grid(half_width=8.0, points=1024)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        res = minimize_quotient(grid, mask, 0.25, 3.0, "domain",
                                SolverConfig(max_iters=300, verify_projection=True))
        assert res.projection_violations == 0

    def test_positive_minimizer(self):
        grid = Grid(half_width=200.0, points=2048)
        res = minimize_quotient(grid, None, 0.25, 3.0, "whole_space")
        assert np.all(res.minimizer.values >= 0.0)

    def test_mode_validation(self):
        grid = Grid(half_width=1.0, points=64)
        with pytest.raises(DomainError):
            minimize_quotient(grid, None, 0.25, 3.0, "domain")
        with pytest.raises(DomainError):
            minimize_quotient(grid, None, 0.25, 3.0, "nonsense")
        with pytest.raises(DomainError):
            quotient_value_grad(grid, None, 0.25, 3.0, "bogus", np.ones(64))


# estimates of the unpreconditioned descent (tol 1e-9, one BLAS thread): the
# q = 32 limiting ladder on rn:10, M -> estimate, and the s = 0.75, q = 3
# solve on (-1, 1) with L = 8, M = 8192
LADDER_BEFORE = {2048: 0.7252687777586253, 4096: 0.676496480821527,
                 8192: 0.6382063650005916, 16384: 0.607717936332116}
DOMAIN_BEFORE = 1.8048948334060189


class TestPreconditionedDescent:
    @pytest.fixture(scope="class")
    def ladder(self):
        return {M: minimize_quotient(Grid(half_width=10.0, points=M), None, 0.5,
                                     32.0, "whole_space")
                for M in LADDER_BEFORE}

    def test_iterations_do_not_grow_with_the_grid(self, ladder):
        its = {M: res.iterations for M, res in ladder.items()}
        assert all(res.converged for res in ladder.values())
        assert its[16384] <= 100
        assert its[16384] <= 3 * its[2048]

    @pytest.mark.parametrize("M", sorted(LADDER_BEFORE))
    def test_ladder_estimates_unchanged(self, ladder, M):
        # the preconditioned descent may stop a little lower, never higher
        est = ladder[M].estimate
        assert rel(est, LADDER_BEFORE[M]) < 1e-4
        assert est <= LADDER_BEFORE[M] * (1.0 + 1e-9)

    def test_domain_estimate_unchanged(self):
        grid = Grid(half_width=8.0, points=8192)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        res = minimize_quotient(grid, mask, 0.75, 3.0, "domain")
        assert res.converged
        assert rel(res.estimate, DOMAIN_BEFORE) < 1e-4
        assert res.estimate <= DOMAIN_BEFORE * (1.0 + 1e-9)


class TestSandwich:
    def test_borderline_ball_all_coincide(self):
        p = Params(2, 0.5, 1.0, 1.2)
        rep = sandwich(p, DomainSpec.ball(1.0, 2))
        assert rep.passed
        assert rep.numeric is not None
        assert rep.numeric.value == rep.lower.value
        assert rel(rep.numeric.value, rep.upper.value) < 1e-12
        assert rep.numeric.provenance == "char-ball-exact"

    def test_borderline_wholespace_bound_only(self):
        p = Params(1, 0.5, 1.0, 1.5)
        rep = sandwich(p, DomainSpec.whole_space())
        assert rep.numeric is None
        assert rep.passed  # lower <= upper
        assert "bound-only" in rep.note

    def test_hilbert_interval(self):
        p = Params(1, 0.25, 2.0, 3.0)
        rep = sandwich(p, DomainSpec.interval(-1.0, 1.0),
                       grid=Grid(half_width=8.0, points=4096))
        assert rep.numeric is not None
        assert rep.numeric.kind is ConstantKind.NUMERIC_ESTIMATE
        assert rep.passed
        assert rep.lower.value * 0.98 <= rep.numeric.value <= rep.upper.value * 1.02

    def test_hilbert_wholespace(self):
        p = Params(1, 0.25, 2.0, 3.0)
        rep = sandwich(p, DomainSpec.whole_space(200.0),
                       grid=Grid(half_width=200.0, points=4096))
        assert rep.passed

    def test_limiting_wholespace_large_q(self):
        # q * numeric within the documented band of 2 pi e; the numeric sits
        # inside the (C2=1) bracket at q = 32
        p = Params(1, 0.5, 2.0, 32.0)
        rep = sandwich(p, DomainSpec.whole_space(10.0),
                       grid=Grid(half_width=10.0, points=16384),
                       cfg=SolverConfig(max_iters=30000))
        assert rep.passed
        assert abs(32.0 * rep.numeric.value - 2.0 * math.pi * math.e) \
            <= 0.25 * 2.0 * math.pi * math.e

    def test_hilbert_domain_q_below_2(self):
        # Thm 2(1) covers 1 <= q; the solver handles the q < 2 gradient
        p = Params(1, 0.25, 2.0, 1.5)
        rep = sandwich(p, DomainSpec.interval(-1.0, 1.0),
                       grid=Grid(half_width=8.0, points=2048))
        assert rep.numeric is not None and rep.passed


class TestSweep:
    def test_empty(self):
        assert sweep([], DomainSpec.whole_space()) == []

    def test_three_point(self):
        plist = [Params(1, 0.25, 2.0, q) for q in (2.5, 3.0, 3.5)]
        grid = Grid(half_width=200.0, points=2048)
        reports = sweep(plist, DomainSpec.whole_space(200.0), grid=grid)
        assert len(reports) == 3
        assert all(not isinstance(r, Exception) and r.passed for r in reports)

    def test_duplicates_identical(self):
        plist = [Params(1, 0.25, 2.0, 3.0)] * 2
        grid = Grid(half_width=200.0, points=1024)
        cfg = SolverConfig()
        reports = sweep(plist, DomainSpec.whole_space(200.0), cfg, grid)
        assert reports[0].numeric.value == reports[1].numeric.value

    def test_errors_recorded_not_raised(self):
        plist = [Params(1, 0.25, 2.0, 3.0), Params(1, 0.6, 2.0, 3.0)]
        grid = Grid(half_width=100.0, points=1024)
        reports = sweep(plist, DomainSpec.whole_space(100.0), grid=grid)
        assert not isinstance(reports[0], Exception)
        assert isinstance(reports[1], Exception)
