import math

import numpy as np
import pytest

from fracsob.errors import DomainError, QuadratureError
from fracsob.specfun import (
    QuadratureConfig,
    _gk15,
    beta_fn,
    gamma_fn,
    integrate,
    ln_gamma,
)

SQRT_PI = 1.7724538509055160273


def rel(a, b):
    return abs(a - b) / abs(b)


class TestGamma:
    def test_half_integer(self):
        assert rel(gamma_fn(0.5), SQRT_PI) < 1e-14
        assert rel(gamma_fn(1.5), SQRT_PI / 2) < 1e-14

    def test_factorial(self):
        assert rel(gamma_fn(5.0), 24.0) < 1e-14

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        xs = np.exp(rng.uniform(math.log(0.1), math.log(50.0), 1000))
        worst = max(rel(gamma_fn(x + 1.0), x * gamma_fn(x)) for x in xs)
        assert worst <= 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, 172.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    def test_vs_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for x in (0.1, 0.317, 1.0, 2.718, 17.3, 49.9):
            assert rel(gamma_fn(x), float(mp.gamma(x))) < 1e-13


class TestBeta:
    def test_examples(self):
        assert rel(beta_fn(1.0, 1.0), 1.0) < 1e-14
        assert rel(beta_fn(0.5, 0.5), math.pi) < 1e-14
        assert rel(beta_fn(1.5, 2.0), 4.0 / 15.0) < 1e-14

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.uniform(0.05, 30.0, 2)
            assert beta_fn(a, b) == beta_fn(b, a)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -2.0)


class TestIntegrate:
    def test_linear(self):
        v, e = integrate(lambda x: x, 0.0, 1.0)
        assert abs(v - 0.5) < 1e-13
        assert e >= 0.0

    def test_right_endpoint_singularity(self):
        cfg = QuadratureConfig(right_singularity_exponent=0.5)
        v, _ = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, cfg)
        assert abs(v - 2.0) < 1e-10

    def test_left_endpoint_singularity(self):
        cfg = QuadratureConfig(left_singularity_exponent=0.75)
        v, _ = integrate(lambda x: x ** -0.75, 0.0, 1.0, cfg)
        assert abs(v - 4.0) < 1e-9

    def test_subdivision_independence_once_converged(self):
        vals = []
        for msub in (100, 400, 1600):
            cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12,
                                   max_subdivisions=msub,
                                   right_singularity_exponent=0.5)
            v, _ = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, cfg)
            vals.append(v)
        assert max(vals) - min(vals) < 1e-12

    def test_nonconvergence_raises(self):
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=8)
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.abs(x - 0.3712) ** -0.5, 0.0, 1.0, cfg)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_nonfinite_node_raises(self):
        # the centre Kronrod node of [0, 1] is 0.5, where 1/(x - 0.5) is inf
        with np.errstate(divide="ignore"):
            with pytest.raises(QuadratureError, match="non-finite.*panel"):
                integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_scalar_returning_integrand_is_refused(self):
        with pytest.raises(DomainError, match=r"\(15,\).*shape \(\)"):
            integrate(lambda x: float(np.sum(x)), 0.0, 1.0)

    def test_scalar_call_returns_floats(self):
        v, e = integrate(np.exp, 0.0, 1.0)
        assert type(v) is float and type(e) is float

    @pytest.mark.parametrize("shape", [(15, 3), (3, 14)])
    def test_misshaped_stacked_integrand_is_refused(self, shape):
        with pytest.raises(DomainError, match=r"\(15,\).*shape \(\d+, \d+\)"):
            integrate(lambda x: np.ones(shape), 0.0, 1.0)

    def test_infinite_limit_is_refused(self):
        with pytest.raises(DomainError, match="finite interval"):
            integrate(lambda x: np.exp(-x), 0.0, math.inf)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(left_singularity_exponent=1.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf,
                      QuadratureConfig(right_singularity_exponent=0.5))


def _stacked_rows(x):
    # after the declared substitution x = t^2 the first rows are constant and
    # the x^(-1/4) and Runge rows still need subdivision
    return np.array([x ** -0.5, 3.0 * x ** -0.5, x ** -0.25, np.sqrt(x), np.exp(x),
                     1.0 / (1.0 + 100.0 * x * x)])


STACKED_EXACT = np.array([2.0, 6.0, 4.0 / 3.0, 2.0 / 3.0, math.e - 1.0,
                          math.atan(10.0) / 10.0])


class TestStackedIntegrate:
    cfg = QuadratureConfig(left_singularity_exponent=0.5)

    def test_rows_meet_their_own_tolerance(self):
        vals, errs = integrate(_stacked_rows, 0.0, 1.0, self.cfg)
        assert vals.shape == errs.shape == (6,)
        tol = np.maximum(self.cfg.abs_tol, self.cfg.rel_tol * np.abs(STACKED_EXACT))
        assert np.all(np.abs(vals - STACKED_EXACT) <= tol)
        assert np.all(errs <= tol)

    def test_rows_match_their_scalar_calls(self):
        vals, _ = integrate(_stacked_rows, 0.0, 1.0, self.cfg)
        for i, v in enumerate(vals):
            alone, _ = integrate(lambda x: _stacked_rows(x)[i], 0.0, 1.0, self.cfg)
            assert abs(v - alone) <= max(self.cfg.abs_tol, self.cfg.rel_tol * abs(alone))

    def test_non_finite_row_raises(self):
        # the centre Kronrod node of [0, 1] is 0.5, where 1/(x - 0.5) is inf
        with np.errstate(divide="ignore"):
            with pytest.raises(QuadratureError, match="non-finite.*panel"):
                integrate(lambda x: np.array([x, 1.0 / (x - 0.5)]), 0.0, 1.0)

    def test_one_unconverged_row_raises(self):
        # the smooth row converges on the first panel; the other cannot
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=8)
        integrate(lambda x: np.array([x * x]), 0.0, 1.0, cfg)
        with pytest.raises(QuadratureError, match="after 8 subdivisions"):
            integrate(lambda x: np.array([x * x, np.abs(x - 0.3712) ** -0.5]),
                      0.0, 1.0, cfg)


@pytest.mark.parametrize("x,message", [
    (0.0, "ln_gamma requires x > 0, got 0.0"),
    (1e308, "log Gamma(1e+308) overflows double precision"),
])
def test_ln_gamma_refusal_names_its_input(x, message):
    with pytest.raises(DomainError) as info:
        ln_gamma(x)
    assert type(info.value) is DomainError and str(info.value) == message


def _interior_singularity(x):
    # |x - 1/3|^(-1/2), finite at a node that rounds to 1/3
    return np.maximum(np.abs(x - 1.0 / 3.0), 1e-300) ** -0.5


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_running_sums_that_cancelled_are_formed_again(stacked):
    # a panel's value reached about 1e133: the running sums added it, took it
    # back, and lost everything else, so integrate returned 0.0 +- 0.0
    exact = 2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))
    f = ((lambda x: np.stack([_interior_singularity(x), np.cos(x)])) if stacked
         else _interior_singularity)
    val, err = integrate(f, 0.0, 1.0, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10))
    if stacked:
        assert abs(val[1] - math.sin(1.0)) <= 1e-10 and err[1] <= 1e-10
        val, err = val[0], err[0]
    assert abs(val - exact) < 1e-7
    assert 0.0 < err <= 1e-10 * exact


def test_panel_at_machine_resolution_is_parked():
    # [1, 1 + ulp] has no double inside: it is parked, never split, and the
    # loop ends at max_subdivisions with the single evaluation of the start.
    # On a constant GK15's rounding leaves an error estimate near 2e-16 hw,
    # above these tolerances
    calls = []

    def one(x):
        calls.append(x)
        return np.ones_like(x)

    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=5)
    with pytest.raises(QuadratureError, match="after 5 subdivisions"):
        integrate(one, 1.0, math.nextafter(1.0, 2.0), cfg)
    assert len(calls) == 1


def _recorded(f, nodes):
    def g(x):
        nodes.append(x)
        return f(x)

    return g


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-x) * np.sin(30.0 * x) + x ** -0.5,
    lambda x: np.stack([x ** -0.5, np.cos(7.0 * x), np.sqrt(x)]),
], ids=["scalar", "stacked"])
@pytest.mark.parametrize("x0,x1", [(0.0, 1.0), (0.1, 0.7), (1.0 / 3.0, 2.9)])
def test_split_children_are_two_panels_bit_for_bit(f, x0, x1):
    # the 30 nodes of a split are the two halves' own nodes, and its two
    # (value, error) pairs are those of the halves evaluated one at a time
    xm = 0.5 * (x0 + x1)
    pair, halves = [], []
    got = _gk15(_recorded(f, pair), (x0, xm, x1))
    want = _gk15(_recorded(f, halves), (x0, xm)) + _gk15(_recorded(f, halves), (xm, x1))
    assert len(pair) == 1 and np.array_equal(pair[0], np.concatenate(halves))
    assert len(got) == 2
    for (v, e), (wv, we) in zip(got, want):
        assert type(v) is type(wv) and type(e) is type(we)
        assert np.array_equal(v, wv) and np.array_equal(e, we)


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_non_finite_value_names_its_half_of_a_split(stacked):
    # 0.75 is the centre node of the right half [0.5, 1]
    def f(x):
        with np.errstate(divide="ignore"):
            y = 1.0 / (x - 0.75)
        return np.stack([x, y]) if stacked else y

    with pytest.raises(QuadratureError, match=r"panel \[0\.5, 1\.0\]$"):
        _gk15(f, (0.0, 0.5, 1.0))


@pytest.mark.parametrize("kink", [None, 0.5], ids=["plain", "declared-endpoint"])
def test_a_split_costs_one_integrand_call(kink):
    # max_subdivisions counts the start's pieces (one, or two with a declared
    # endpoint) and one per split, so 8 subdivisions are 8 - pieces splits:
    # one call on 15 nodes per piece, then one on 30 nodes per split
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.abs(x - 0.3712) ** -0.5

    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=8,
                           left_singularity_exponent=kink)
    with pytest.raises(QuadratureError, match="after 8 subdivisions"):
        integrate(f, 0.0, 1.0, cfg)
    pieces = 1 if kink is None else 2
    assert sizes == [15] * pieces + [30] * (8 - pieces)

