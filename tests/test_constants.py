import math

import numpy as np
import pytest

from fracsob.constants import (
    ConstantKind,
    ConstantValue,
    PROVENANCE_KEYS,
    Params,
    Regime,
    classical_sobolev,
    frac_isoperimetric,
    frac_sobolev_hilbert,
    hardy_sobolev_A,
    isoperimetric,
    lieb_constant,
    lieb_loss_lower,
    mazya_lower,
    norm_bridge,
    unit_ball_volume,
)
from fracsob.bounds import DomainSpec, bounds_for
from fracsob.errors import DomainError
from quadrature_oracles import frac_iso_kernel, hardy_A_quadrature


def rel(a, b):
    return abs(a - b) / abs(b)


# frozen high-precision oracle values (mpmath, 30 digits, rounded to 17)
CLASSICAL_3_2 = 5.4779040895313319      # = 3 (pi/2)^(4/3)
CLASSICAL_4_2 = 10.260398641294913      # = 8 pi / sqrt(6)
ISO_3 = 4.8359758620494089
KERNEL_1_05_05 = 3.3727581786980075
SS_1_025 = 0.84721308479397909
LIEB_3_05 = 53.346547936185049
LIEB_1_025 = 8.4945930919277573
LIEB_LOSS_4 = 2.0201605306328975
# independent 2-D s-perimeter oracle (direct triple quadrature of
# 2 int_{B1} int_{B1^c} |x-y|^(-2-s), scipy, epsabs 1e-8)
PERIM_2D_ORACLE_A = 29.66519480339394       # implied A(2, 1/2)
PERIM_2D_ORACLE_S = 52.65909722104787       # implied embedding constant


class TestUnitBall:
    def test_values(self):
        assert rel(unit_ball_volume(1), 2.0) < 1e-15
        assert rel(unit_ball_volume(2), math.pi) < 1e-15
        assert rel(unit_ball_volume(3), 4.0 * math.pi / 3.0) < 1e-14


class TestClassicalSobolev:
    def test_oracle_values(self):
        assert rel(classical_sobolev(3, 2.0).value, CLASSICAL_3_2) < 1e-13
        assert rel(classical_sobolev(4, 2.0).value, CLASSICAL_4_2) < 1e-13

    def test_p_to_one_isoperimetric_limit(self):
        got = classical_sobolev(3, 1.0001).value
        assert rel(got, isoperimetric(3).value) < 1e-3

    def test_continuity_in_p(self):
        # no NaN or sign flip across the sweep; the value grows steeply as
        # p -> N, so only smoothness of the log is checked
        vals = [classical_sobolev(3, p).value for p in np.linspace(1.1, 2.9, 100)]
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert np.abs(np.diff(np.log(vals))).max() < 0.5

    def test_domain(self):
        for N, p in ((3, 1.0), (3, 3.0), (2, 2.0), (1, 1.5)):
            with pytest.raises(DomainError):
                classical_sobolev(N, p)


class TestIsoperimetric:
    def test_values(self):
        assert rel(isoperimetric(1).value, 2.0) < 1e-15
        assert rel(isoperimetric(2).value, 2.0 * math.sqrt(math.pi)) < 1e-14
        assert rel(isoperimetric(3).value, ISO_3) < 1e-13

    @pytest.mark.parametrize("N", [452, 453])
    def test_large_dimension_vs_mpmath(self, N):
        # the root of omega_N is taken in log space, past omega_N's underflow
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ln_w = N * mpmath.log(mpmath.pi) / 2 - mpmath.loggamma(mpmath.mpf(N) / 2 + 1)
            want = float(N * mpmath.exp(ln_w / N))
        assert rel(isoperimetric(N).value, want) < 1e-12


class TestKernel:
    def test_1d_closed_values(self):
        assert rel(frac_iso_kernel(1, 0.5, 0.0), 2.0) < 1e-15
        assert rel(frac_iso_kernel(1, 0.5, 0.5), KERNEL_1_05_05) < 1e-14

    def test_2d_center(self):
        assert rel(frac_iso_kernel(2, 0.5, 0.0), 2.0 * math.pi) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_iso_kernel(1, 0.5, 1.0)
        with pytest.raises(DomainError):
            frac_iso_kernel(1, 0.5, -0.1)


class TestHardySobolevA:
    def test_1d_vs_elementary_integration(self):
        # the s-perimeter of an interval of length L is 4 L^(1-s)/(s(1-s)),
        # giving A(1,s) = 4 * 2^(-s)/s
        for s in (0.25, 0.5):
            got = hardy_sobolev_A(1, s)
            assert got.kind is ConstantKind.CLOSED_FORM
            assert rel(got.value, 4.0 * 2.0 ** (-s) / s) < 1e-10

    def test_2d_vs_independent_perimeter_oracle(self):
        got = hardy_sobolev_A(2, 0.5)
        assert rel(got.value, PERIM_2D_ORACLE_A) < 1e-4

    @pytest.mark.parametrize("N,s", [(1, 0.1), (2, 0.3), (2, 0.9), (3, 0.5), (3, 0.7),
                                     (4, 0.2), (5, 0.6), (10, 0.4), (10, 0.9)])
    def test_closed_form_vs_nested_quadrature(self, N, s):
        want, _ = hardy_A_quadrature(N, s)
        assert rel(hardy_sobolev_A(N, s).value, want) < 1e-10

    @pytest.mark.parametrize("N,s", [(3, 0.97), (20, 0.9), (300, 0.3)])
    def test_overflowing_kernel_is_refused(self, N, s):
        # the nested quadrature's angular integrand overflows a double here,
        # so the oracle refuses these points; the closed form is finite
        with pytest.raises(DomainError, match="overflows"):
            hardy_A_quadrature(N, s)
        got = hardy_sobolev_A(N, s)
        assert got.kind is ConstantKind.CLOSED_FORM and got.error_estimate == 0.0
        assert math.isfinite(got.value) and got.value > 0.0
        if (N, s) == (3, 0.97):
            assert rel(got.value, _hardy_A_3d_mpmath(s)) < 1e-12

    def test_underflow_is_refused(self):
        hardy_sobolev_A(439, 0.5)
        with pytest.raises(DomainError, match="underflows"):
            hardy_sobolev_A(440, 0.5)


def _hardy_A_3d_mpmath(s):
    """A(3,s) = 2 int_0^1 r^(s-1)(1 - r^(3-s)) K(r) dr with the elementary
    N = 3 kernel K(r) = 2 pi ((1-r)^(-1-s) - (1+r)^(-1-s)) / (r (1+s)), by
    tanh-sinh quadrature at 40 digits.  On [1/2, 1] the (1-r)^(-s) endpoint
    behaviour is removed by 1 - r = t^(1/(1-s)), with the gap kept exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        p = 1 / (1 - s)

        def f(gap):
            r = 1 - gap
            kern = 2 * mpmath.pi * (gap ** (-1 - s) - (2 - gap) ** (-1 - s)) / (r * (1 + s))
            return r ** (s - 1) * -mpmath.expm1((3 - s) * mpmath.log1p(-gap)) * kern

        left = mpmath.quad(lambda r: f(1 - r), [0, 0.5])
        right = mpmath.quad(lambda t: f(t ** p) * p * t ** (p - 1), [0, 0.5 ** (1 - s)])
        return float(2 * (left + right))


class TestFracIsoperimetric:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_1d_closed_form(self, s):
        assert rel(frac_isoperimetric(1, s).value, 4.0 / (s * (1.0 - s))) < 1e-6

    def test_2d_vs_perimeter_oracle(self):
        got = frac_isoperimetric(2, 0.5)
        assert rel(got.value, PERIM_2D_ORACLE_S) < 1e-4


class TestLiebAndBridge:
    def test_bridge_identity_grid(self):
        for N in (1, 2, 3, 4):
            for s in (0.1, 0.2, 0.3, 0.45):
                if N > 2 * s:
                    lhs = lieb_constant(N, s).value
                    rhs = 2.0 / norm_bridge(N, s).value * frac_sobolev_hilbert(N, s).value
                    assert rel(lhs, rhs) < 1e-10

    def test_oracle_values(self):
        assert rel(lieb_constant(3, 0.5).value, LIEB_3_05) < 1e-13
        assert rel(lieb_constant(1, 0.25).value, LIEB_1_025) < 1e-13

    def test_bridge_values(self):
        assert rel(norm_bridge(1, 0.5).value, 1.0 / math.pi) < 1e-14
        assert rel(norm_bridge(2, 0.5).value, 1.0 / (2.0 * math.pi)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            lieb_constant(1, 0.5)

    @pytest.mark.parametrize("fn,N", [(lieb_constant, 350), (lieb_constant, 356),
                                      (norm_bridge, 343)])
    def test_large_dimension_vs_mpmath(self, fn, N):
        # one log-space sum: the Lieb constant used to lose 5% at N = 356 (a
        # subnormal intermediate), the bridge overflowed from N = 343 on
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            s, n = mpmath.mpf(0.5), mpmath.mpf(N)
            if fn is lieb_constant:
                want = (2 * mpmath.pi ** (n / 2 + s) / (s * (1 - s)) * mpmath.gamma(2 - s)
                        / mpmath.gamma(n / 2 - s)
                        * (mpmath.gamma(n / 2) / mpmath.gamma(n)) ** (2 * s / n))
            else:
                want = (2 ** (2 * s) * s * mpmath.gamma(n / 2 + s)
                        / (mpmath.pi ** (n / 2) * mpmath.gamma(1 - s)))
            assert rel(fn(N, 0.5).value, float(want)) < 1e-12

    @pytest.mark.parametrize("fn,N,word", [(lieb_constant, 440, "underflows"),
                                           (norm_bridge, 438, "overflows")])
    def test_out_of_double_range_is_refused(self, fn, N, word):
        with pytest.raises(DomainError, match=word):
            fn(N, 0.5)


class TestHilbertConstant:
    def test_values(self):
        assert rel(frac_sobolev_hilbert(2, 0.5).value, math.sqrt(math.pi)) < 1e-14
        assert rel(frac_sobolev_hilbert(1, 0.25).value, SS_1_025) < 1e-13

    def test_classical_limit(self):
        got = frac_sobolev_hilbert(3, 1.0 - 1e-4).value
        assert rel(got, CLASSICAL_3_2) < 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_sobolev_hilbert(1, 0.6)


class TestLowerBoundsFromLiterature:
    def test_mazya_below_lieb(self):
        for N in (1, 2, 3):
            for s in (0.1, 0.25, 0.45):
                if N > 2 * s:
                    assert mazya_lower(N, s, 2.0).value <= lieb_constant(N, s).value

    def test_mazya_positive_finite(self):
        v = mazya_lower(1, 0.25, 2.0)
        assert v.value > 0 and math.isfinite(v.value)

    def test_mazya_grows_at_s_extremes(self):
        # the 1/(s(1-s)) factor makes the bound blow up toward s = 0 and
        # s = 1, consistent with the seminorm normalization it comes from
        mid = mazya_lower(3, 0.5, 2.0).value
        assert mazya_lower(3, 1e-5, 2.0).value > 1e3 * mid
        assert mazya_lower(3, 1.0 - 1e-5, 2.0).value > 1e3 * mid

    def test_lieb_loss(self):
        assert rel(lieb_loss_lower(4.0).value, LIEB_LOSS_4) < 1e-13
        assert lieb_loss_lower(2.1).value > 0
        with pytest.raises(DomainError):
            lieb_loss_lower(2.0)

    def test_lieb_loss_below_limiting_upper(self):
        for q in (2.5, 3.0, 4.0, 8.0, 16.0, 64.0, 1000.0):
            upper = bounds_for(Params(1, 0.5, 2.0, q), DomainSpec.whole_space()).upper
            assert lieb_loss_lower(q).value <= upper.value


class TestParams:
    def test_regimes(self):
        assert Params(1, 0.5, 1.0, 1.5).regime() is Regime.BORDERLINE
        assert Params(1, 0.25, 2.0, 3.0).regime() is Regime.HILBERT
        assert Params(1, 0.5, 2.0, 7.0).regime() is Regime.LIMITING
        assert Params(1, 0.5, 2.0, 1.0).regime() is Regime.LIMITING
        assert Params(1, 0.6, 2.0, 3.0).regime() is Regime.OUT_OF_SCOPE
        assert Params(1, 0.25, 2.0, 4.0).regime() is Regime.OUT_OF_SCOPE  # q = crit
        assert Params(2, 0.3, 1.0, 1.1).regime() is Regime.BORDERLINE
        assert Params(2, 0.3, 1.0, 1.3).regime() is Regime.OUT_OF_SCOPE

    def test_critical_exponent(self):
        assert Params(1, 0.25, 2.0, 3.0).critical_exponent == pytest.approx(4.0)
        assert Params(3, 0.5, 1.0, 1.0).critical_exponent == pytest.approx(1.2)
        with pytest.raises(DomainError):
            _ = Params(1, 0.5, 2.0, 3.0).critical_exponent

    def test_validation(self):
        with pytest.raises(DomainError):
            Params(0, 0.5, 2.0, 2.0)
        with pytest.raises(DomainError):
            Params(1, 1.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            Params(1, 0.5, 3.0, 2.0)
        with pytest.raises(DomainError):
            Params(1, 0.5, 2.0, 0.5)
        with pytest.raises(DomainError, match="q must be finite, got inf"):
            Params(1, 0.5, 2.0, math.inf)


class TestConstantValue:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ConstantValue(-1.0, ConstantKind.CLOSED_FORM, "lieb")
        with pytest.raises(DomainError):
            ConstantValue(1.0, ConstantKind.CLOSED_FORM, "not-a-key")
        with pytest.raises(DomainError):
            ConstantValue(1.0, ConstantKind.NUMERIC_ESTIMATE, "lieb", error_estimate=0.0)
        assert "lieb" in PROVENANCE_KEYS

    def test_every_emitted_provenance_registered(self):
        for c in (classical_sobolev(3, 2.0), isoperimetric(2),
                  hardy_sobolev_A(1, 0.5), frac_isoperimetric(1, 0.5),
                  lieb_constant(3, 0.5), norm_bridge(1, 0.5),
                  frac_sobolev_hilbert(2, 0.5), mazya_lower(3, 0.5, 2.0),
                  lieb_loss_lower(4.0)):
            assert c.provenance in PROVENANCE_KEYS
