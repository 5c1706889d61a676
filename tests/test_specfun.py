import math

import numpy as np
import pytest

from fracsob.errors import DomainError, QuadratureError
from fracsob.specfun import (
    QuadratureConfig,
    bessel_j,
    beta_fn,
    gamma_fn,
    integrate,
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


def bessel_series_oracle(v, t, nterms=200):
    """Direct power-series summation, independent of the branch logic."""
    from math import lgamma
    half = t / 2.0
    total = 0.0
    for k in range(nterms):
        term = (-1.0) ** k * half ** (v + 2 * k) / (
            math.exp(lgamma(k + 1) + lgamma(v + k + 1)))
        total += term
        if abs(term) < 1e-18:
            break
    return total


class TestBesselJ:
    def test_closed_branch_neg_half(self):
        got = bessel_j(-0.5, math.pi)
        assert rel(got, -math.sqrt(2.0) / math.pi) < 1e-13

    def test_half_order_zero(self):
        assert abs(bessel_j(0.5, math.pi)) < 1e-15

    def test_series_point(self):
        got = bessel_j(1.75, 2.0)
        assert rel(got, bessel_series_oracle(1.75, 2.0)) < 1e-12
        assert rel(got, 0.42377945625651972) < 1e-12

    def test_half_integer_trig_forms(self):
        for t in np.linspace(0.05, 50.0, 333):
            sin_form = math.sqrt(2.0 / (math.pi * t)) * math.sin(t)
            cos_form = math.sqrt(2.0 / (math.pi * t)) * math.cos(t)
            assert abs(bessel_j(0.5, t) - sin_form) < 1e-10
            assert abs(bessel_j(-0.5, t) - cos_form) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(-0.75, 1.0)
        with pytest.raises(DomainError):
            bessel_j(1.0, -1.0)

    def test_across_switch_point(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for v in (0.0, 0.25, 1.75, 2.5):
            for t in (11.0, 11.9, 12.1, 13.0, 25.0, 49.0):
                assert rel(bessel_j(v, t), float(mp.besselj(v, t))) < 5e-10


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

    def test_infinite_upper_limit_log_kernel(self):
        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=3000)
        with np.errstate(divide="ignore", invalid="ignore"):
            v, _ = integrate(
                lambda t: np.log(np.abs((t + 1.0) / (t - 1.0))) / t, 0.0, math.inf, cfg)
        assert abs(v - math.pi ** 2 / 2.0) < 1e-7

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

    def test_scalar_callable_fallback(self):
        v, _ = integrate(lambda x: math.sin(float(x)), 0.0, math.pi)
        assert abs(v - 2.0) < 1e-12

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
