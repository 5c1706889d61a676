import dataclasses
import math

import numpy as np
import pytest

from fracsob.bounds import (
    BoundPair,
    DomainSpec,
    _cap_norms,
    _dilation_argmin,
    _dilation_min,
    _dilation_weights,
    bounds_for,
    dilation_transfer,
    young_lower,
)
from fracsob.constants import (
    Params,
    frac_isoperimetric,
    frac_sobolev_hilbert,
    unit_ball_volume,
)
from fracsob.errors import DomainError, RegimeError
from fracsob.rayleigh import (
    Objective,
    RadialProfile,
    bump_lq_norm,
    bump_seminorm_sq,
    gagliardo_seminorm_1d,
    objective_minimizer,
)

TWO_PI_E = 17.079468445347134


def rel(a, b):
    return abs(a - b) / abs(b)


def rn(params, C2=1.0):
    """The whole-space bracket at params."""
    return bounds_for(params, DomainSpec.whole_space(N=params.N), C2=C2)


def limiting(q, R, C1=1.0):
    """The limiting-case bracket at q on the interval (-R, R): measure 2R,
    inradius R."""
    return bounds_for(Params(1, 0.5, 2.0, q), DomainSpec.interval(-R, R), C1=C1)


class TestDomainSpec:
    def test_ball(self):
        d = DomainSpec.ball(2.0, 3)
        assert rel(d.measure, 4.0 * math.pi / 3.0 * 8.0) < 1e-14
        assert d.inradius == 2.0

    def test_interval(self):
        d = DomainSpec.interval(-1.0, 1.0)
        assert d.measure == 2.0 and d.inradius == 1.0

    def test_measure_in_log_space(self):
        # R^40 overflows a double here, omega_40 R^40 does not; log space
        # costs about |ln measure| ulps
        R = 5.7e7
        direct = unit_ball_volume(40) * (R / 10.0) ** 40 * 1e40
        assert rel(DomainSpec.ball(R, 40).measure, direct) < 2e-13
        assert DomainSpec.ball(1.0, 3).measure == unit_ball_volume(3)

    def test_overflowing_measure(self):
        with pytest.raises(DomainError, match=r"ball \(radius=1e\+200\) in R\^2"):
            DomainSpec.ball(1e200, 2)
        with pytest.raises(DomainError, match="measure overflows a double"):
            DomainSpec.interval(-1e308, 1e308)

    def test_underflowing_measure(self):
        # omega_3 R^3 underflows to 0, and so does the inradius (b - a) / 2:
        # the bounds divided by 0 or took log(0)
        with pytest.raises(DomainError, match="underflows to 0"):
            DomainSpec.ball(1e-110, 3)
        with pytest.raises(DomainError, match="underflows to 0"):
            DomainSpec.interval(0.0, 5e-324)
        assert DomainSpec.interval(0.0, 1e-323).inradius == 5e-324

    @pytest.mark.parametrize("N,R,measure", [
        (1, 0.5, 1.0000000000000002), (1, 1.0, 2.0000000000000004),
        (1, 2.0, 4.000000000000001),
        (2, 0.5, 0.7853981633974484), (2, 1.0, 3.141592653589793),
        (2, 2.0, 12.566370614359172),
        (3, 0.5, 0.5235987755982988), (3, 1.0, 4.18879020478639),
        (3, 2.0, 33.51032163829111)])
    def test_ball_measure_and_inradius_from_shape(self, N, R, measure):
        # bit for bit the values the ball factory stored when a domain
        # carried its measure and inradius as fields
        d = DomainSpec.ball(R, N)
        assert d.measure == measure and d.inradius == R

    def test_interval_measure_and_inradius_from_shape(self):
        d = DomainSpec.interval(-1.0, 2.0)
        assert d.measure == 3.0 and d.inradius == 1.5

    def test_whole_space_has_no_measure(self):
        d = DomainSpec.whole_space(50.0, 3)
        assert d.measure is None and d.inradius is None
        assert d.dim == 3 and DomainSpec.whole_space().dim == 1

    def test_fields_are_the_shape(self):
        # measure and inradius cannot be set, so they cannot disagree
        assert [f.name for f in dataclasses.fields(DomainSpec)] == [
            "kind", "dim", "radius", "a", "b", "truncation"]
        with pytest.raises(TypeError):
            DomainSpec(kind="ball", dim=2, radius=1.0, measure=1.0)

    def test_errors(self):
        with pytest.raises(DomainError):
            DomainSpec.interval(1.0, -1.0)
        with pytest.raises(DomainError):
            DomainSpec.ball(0.0, 1)
        with pytest.raises(DomainError):
            DomainSpec.whole_space(-5.0)

    @pytest.mark.parametrize("kwargs,word", [
        # a 2-D "interval" was bracketed from its length b - a as a measure
        (dict(kind="interval", dim=2, a=0.0, b=1.0), "interval dim must be 1"),
        (dict(kind="whole_space", dim=0, truncation=10.0), "dim"),
        (dict(kind="whole_space", dim=-3, truncation=10.0), "dim"),
        (dict(kind="ball", dim=1.5, radius=1.0), "dim"),
        # a raw TypeError from None <= 0
        (dict(kind="ball", dim=1), "ball radius"),
        (dict(kind="interval", dim=1, b=1.0), "interval requires a < b"),
    ])
    def test_malformed_shape_is_refused(self, kwargs, word):
        with pytest.raises(DomainError, match=word):
            DomainSpec(**kwargs)


class TestDilation:
    def test_identity(self):
        p = Params(1, 0.25, 2.0, 3.0)
        assert dilation_transfer(1.7, 1.0, p) == 1.7

    def test_critical_invariance(self):
        p = Params(1, 0.25, 2.0, 4.0)  # q = critical exponent
        assert dilation_transfer(2.3, 5.0, p) == pytest.approx(2.3, abs=1e-15)

    def test_exponent_value(self):
        p = Params(1, 0.25, 2.0, 3.0)
        assert rel(dilation_transfer(1.0, 2.0, p), 0.8908987181403393) < 1e-14

    def test_composition(self):
        rng = np.random.default_rng(3)
        p = Params(2, 0.4, 1.0, 1.1)
        for _ in range(100):
            l1, l2 = rng.uniform(0.1, 5.0, 2)
            a = dilation_transfer(dilation_transfer(1.3, l1, p), l2, p)
            b = dilation_transfer(1.3, l1 * l2, p)
            assert rel(a, b) < 1e-12

    def test_limiting_branch(self):
        p = Params(1, 0.5, 2.0, 4.0)  # N = ps
        got = dilation_transfer(1.0, 2.0, p)
        assert rel(got, 2.0 ** (-0.5)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            dilation_transfer(1.0, 0.0, Params(1, 0.25, 2.0, 3.0))

    @pytest.mark.parametrize("lam", [1e-300, 1e300])
    @pytest.mark.parametrize("params", [Params(1, 0.25, 2.0, 1.01),
                                        Params(1, 0.5, 2.0, 1.01)])
    def test_power_out_of_double_range_is_refused(self, lam, params):
        # lam^expo overflowed with a raw OverflowError, or underflowed to a 0 constant
        with pytest.raises(DomainError, match="leaves the double range"):
            dilation_transfer(1.0, lam, params)


class TestBorderlineDomain:
    def test_ball_bounds_coincide(self):
        p = Params(2, 0.5, 1.0, 1.2)
        bp = bounds_for(p, DomainSpec.ball(1.0, 2))
        assert bp.lower.value == bp.upper.value

    def test_interval_lower_value(self):
        p = Params(1, 0.5, 1.0, 1.5)
        bp = bounds_for(p, DomainSpec.interval(-1.0, 1.0))
        assert rel(bp.lower.value, 14.254379490245429) < 1e-9
        assert bp.lower.value == bp.upper.value  # 1-D interval is a ball

    def test_critical_limit(self):
        p = Params(1, 0.5, 1.0, 2.0 - 1e-8)  # q -> crit = 2
        bp = bounds_for(p, DomainSpec.interval(-2.0, 3.0))
        S = frac_isoperimetric(1, 0.5).value
        assert rel(bp.lower.value, S) < 1e-6
        assert rel(bp.upper.value, S) < 1e-6


class TestBorderlineWholespace:
    def test_q1_exact(self):
        bp = rn(Params(2, 0.3, 1.0, 1.0))
        assert bp.lower.value == 1.0 and bp.upper.value == 1.0

    def test_value_is_the_char_ball_minimum(self):
        # characteristic functions of balls saturate the interpolation, so
        # the char-ball objective's closed-form minimum is the constant
        for (N, s, q) in [(1, 0.5, 1.5), (1, 0.25, 1.2), (2, 0.3, 1.1),
                          (3, 0.7, 1.25)]:
            p = Params(N, s, 1.0, q)
            _, m = objective_minimizer(Objective.CHAR_BALL, p)
            assert rel(rn(p).lower.value, m) < 1e-12

    def test_value_at_example_point(self):
        bp = rn(Params(1, 0.5, 1.0, 1.5))
        assert rel(bp.lower.value, 12.0) < 1e-10

    def test_critical_limit(self):
        p = Params(1, 0.5, 1.0, 2.0 - 1e-8)
        bp = rn(p)
        assert rel(bp.upper.value, frac_isoperimetric(1, 0.5).value) < 1e-6


class TestBorderlineExact:
    """The p = 1 constant is one closed form on every domain DomainSpec
    admits, so both ends of each bracket are that one value."""

    def test_lower_is_upper_at_seeded_points(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            N = int(rng.integers(1, 5))
            s = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(1.0, N / (N - s)))
            size, a = float(rng.uniform(0.01, 10.0)), float(rng.uniform(-5.0, 5.0))
            bounded = DomainSpec.interval(a, a + size) if N == 1 else DomainSpec.ball(size, N)
            for dom in (bounded, DomainSpec.whole_space(N=N)):
                bp = bounds_for(Params(N, s, 1.0, q), dom)
                assert bp.lower.value == bp.upper.value, (N, s, q, dom)

    @pytest.mark.parametrize("s,q", [(0.3, 1.2), (0.5, 1.5), (0.8, 3.0)])
    def test_whole_line_by_quadrature(self, s, q):
        # the attaining char-ball chi_(-k*, k*): Gagliardo seminorm plus the
        # L^1 mass 2k*, over its L^q norm (2k*)^(1/q)
        p = Params(1, s, 1.0, q)
        (k,), _ = objective_minimizer(Objective.CHAR_BALL, p)
        gag = gagliardo_seminorm_1d(RadialProfile.char_ball(k), s, 1)
        want = (gag + 2.0 * k) / (2.0 * k) ** (1.0 / q)
        assert rel(rn(p).lower.value, want) < 1e-11

    @pytest.mark.parametrize("s,q", [(0.3, 1.2), (0.5, 1.5), (0.8, 1.1)])
    def test_interval_by_quadrature(self, s, q):
        # chi_(-1, 1) attains the constant on (-1, 1): Gagliardo seminorm over
        # its L^q norm 2^(1/q)
        gag = gagliardo_seminorm_1d(RadialProfile.char_ball(1.0), s, 1)
        bp = bounds_for(Params(1, s, 1.0, q), DomainSpec.interval(-1.0, 1.0))
        assert rel(bp.lower.value, gag / 2.0 ** (1.0 / q)) < 1e-12


class TestHilbertDomain:
    def test_lower_value(self):
        p = Params(1, 0.25, 2.0, 3.0)
        bp = bounds_for(p, DomainSpec.interval(-1.0, 1.0))
        assert rel(bp.lower.value, 0.75478105123467856) < 1e-13

    def test_upper_equals_bump_quotient_at_k1(self):
        p = Params(1, 0.25, 2.0, 3.0)
        bp = bounds_for(p, DomainSpec.interval(-1.0, 1.0))
        quot = bump_seminorm_sq(1, 0.25, 1.0) / bump_lq_norm(1, 0.25, 3.0, 1.0) ** 2
        assert rel(bp.upper.value, quot) < 1e-10

    def test_critical_limit_lower(self):
        Ss = frac_sobolev_hilbert(1, 0.25).value
        p = Params(1, 0.25, 2.0, 4.0 - 1e-9)
        bp = bounds_for(p, DomainSpec.interval(-3.0, 1.0))
        assert rel(bp.lower.value, Ss) < 1e-6


class TestScalingLaws:
    """The cap's norms and the dilation minimum, which every Hilbert upper
    bound reads, against routes that do not read them."""

    @pytest.mark.parametrize("N,s,q", [
        (1, 0.25, 3.0), (1, 0.45, 1.5), (2, 0.5, 2.5), (2, 0.05, 1.01), (3, 0.75, 4.0),
        (3, 0.3, 10.0), (4, 0.1, 1.1), (5, 0.9, 2.2), (5, 0.5, 2.4)])
    def test_cap_norms_by_dyda_and_quadrature(self, N, s, q):
        # Dyda: (-Lap)^s (1 - |x|^2)_+^s = lambda_0 on the unit ball, so
        # E = lambda_0 int_B (1 - |x|^2)^s; B and ||u||_q^q are radial
        # quadratures omega_N N int_0^1 r^(N-1) (1 - r^2)^(qs) dr
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            Nm, sm, qm = mp.mpf(N), mp.mpf(s), mp.mpf(q)
            sphere = 2 * mp.pi ** (Nm / 2) / mp.gamma(Nm / 2)   # omega_N N

            def radial(a):
                return sphere * mp.quad(lambda r: r ** (Nm - 1) * (1 - r * r) ** a, [0, 1])

            lam0 = 2 ** (2 * sm) * mp.gamma(1 + sm) * mp.gamma(Nm / 2 + sm) / mp.gamma(Nm / 2)
            want = (lam0 * radial(sm), radial(2 * sm), radial(qm * sm) ** (2 / qm))
        for got, w in zip(_cap_norms(N, s, q), want):
            assert rel(got, float(w)) < 1e-13

    @pytest.mark.parametrize("N,s,q", [(1, 0.25, 3.0), (2, 0.5, 2.5), (3, 0.75, 3.5)])
    def test_dilation_min_is_the_least_dilated_quotient(self, N, s, q):
        # the cap of radius k, (k^2 - |x|^2)_+^s, has quotient
        # (||(-Lap)^(s/2) u||^2 + ||u||_2^2) / ||u||_q^2; its least value over
        # k, searched numerically, is the dilation minimum over G
        optimize = pytest.importorskip("scipy.optimize")

        def quotient(t):
            k = math.exp(t)
            return ((bump_seminorm_sq(N, s, k) + bump_lq_norm(N, s, 2.0, k) ** 2)
                    / bump_lq_norm(N, s, q, k) ** 2)

        res = optimize.minimize_scalar(quotient, bounds=(-10.0, 10.0), method="bounded",
                                       options={"xatol": 1e-10})
        theta, phi = _dilation_weights(Params(N, s, 2.0, q))
        E, B, G = _cap_norms(N, s, q)
        assert rel(res.fun, _dilation_min(theta, phi, E, B) / G) < 1e-12
        # at the argmin k^(2s) = phi E / (theta B)
        assert rel(math.exp(2.0 * s * res.x), phi * E / (theta * B)) < 1e-6
        # and the dilation argmin attains the minimum
        k = _dilation_argmin(theta, phi, E, B, 2.0 * s)
        assert rel(quotient(math.log(k)), _dilation_min(theta, phi, E, B) / G) < 1e-14

    @pytest.mark.parametrize("theta,p,s", [(0.3, 2.0, 0.5), (0.9, 1.0, 0.25), (0.01, 2.0, 0.1)])
    def test_dilation_argmin_is_stationary(self, theta, p, s):
        # d/dmu (mu^(-phi) E + mu^theta B) = 0 at mu = lambda^(ps)
        phi, E, B = 1.0 - theta, 1.7, 0.6
        mu = _dilation_argmin(theta, phi, E, B, p * s) ** (p * s)
        assert rel(phi * mu ** (-phi - 1.0) * E, theta * mu ** (theta - 1.0) * B) < 1e-13


class TestHilbertWholespace:
    def test_q2_exact(self):
        bp = rn(Params(1, 0.25, 2.0, 2.0))
        assert bp.lower.value == 1.0 and bp.upper.value == 1.0

    def test_values(self):
        bp = rn(Params(1, 0.25, 2.0, 3.0))
        assert rel(bp.lower.value, 1.6921142935014347) < 1e-13
        assert rel(bp.upper.value, 2.3089394933011245) < 1e-13

    def test_lower_to_critical_constant(self):
        Ss = frac_sobolev_hilbert(1, 0.25).value
        bp = rn(Params(1, 0.25, 2.0, 4.0 - 1e-8))
        assert rel(bp.lower.value, Ss) < 1e-6

    def test_young_reproduces_lower(self):
        N, s, q = 1, 0.25, 3.0
        p = Params(N, s, 2.0, q)
        lam = N / s * (1.0 / q - 1.0 / p.critical_exponent)
        _, rho = young_lower(lam, frac_sobolev_hilbert(N, s).value)
        bp = rn(p)
        assert rel(1.0 / rho, bp.lower.value) < 1e-14

    def test_q_below_2_rejected(self):
        with pytest.raises(RegimeError):
            rn(Params(1, 0.25, 2.0, 1.5))


# q exactly at the critical exponent is outside every regime, as in
# Params.regime(); these returned collapsed or finite brackets
@pytest.mark.parametrize("p,crit,domain", [
    (1.0, 2.0, DomainSpec.interval(-1.0, 1.0)),
    (1.0, 2.0, DomainSpec.whole_space()),
    (2.0, 4.0, DomainSpec.interval(-1.0, 1.0)),
    (2.0, 4.0, DomainSpec.whole_space()),
], ids=["borderline-domain", "borderline-rn", "hilbert-domain", "hilbert-rn"])
def test_exactly_critical_q_is_refused(p, crit, domain):
    s = 0.5 if p == 1.0 else 0.25
    params = Params(1, s, p, crit)
    assert params.critical_exponent == crit
    with pytest.raises(RegimeError):
        bounds_for(params, domain)


# C1 and C2 are read only by the limiting lower bounds; a bad one was
# accepted at every other point
@pytest.mark.parametrize("params", [Params(1, 0.25, 2.0, 3.0), Params(1, 0.5, 1.0, 1.5)],
                         ids=["hilbert", "borderline"])
@pytest.mark.parametrize("constant,value", [
    ("C1", 0.0), ("C1", math.nan), ("C1", math.inf),
    ("C2", -1.0), ("C2", math.nan), ("C2", math.inf)])
def test_bad_trudinger_moser_constant_is_refused_at_every_point(params, constant, value):
    for domain in (DomainSpec.interval(-1.0, 1.0), DomainSpec.whole_space()):
        with pytest.raises(DomainError, match=f"^{constant} must be finite"):
            bounds_for(params, domain, **{constant: value})


class TestLimiting:
    def test_domain_upper_value(self):
        v = limiting(4.0, 1.0).upper
        assert rel(v.value, 3.0192519891916547) < 1e-14

    def test_domain_upper_asymptotics(self):
        got = 1000.0 * limiting(1000.0, 1.0).upper.value
        assert rel(got, TWO_PI_E) < 5e-3

    def test_radius_scaling_matches_dilation(self):
        q = 5.0
        v1 = limiting(q, 1.0).upper.value
        v2 = limiting(q, 2.0).upper.value
        assert rel(v2 / v1, 2.0 ** (-2.0 / q)) < 1e-14
        p = Params(1, 0.5, 2.0, q)
        assert rel(dilation_transfer(v1, 2.0, p), v2) < 1e-14

    def test_domain_upper_out_of_range_is_refused(self):
        # |Omega|^(-2/q) and R^(-2/q) overflowed a double with a raw OverflowError
        with pytest.raises(DomainError, match=r"leaves the double range at "
                           r"Params\(N=1, s=0.5, p=2.0, q=1.01\) on interval"):
            limiting(1.01, 1e-300)

    def test_domain_lower(self):
        v = limiting(2.0, 1.0).lower   # |Omega| = 2
        assert rel(v.value, math.pi / 2.0) < 1e-14
        a = limiting(3.0, 1.0).lower.value
        b = limiting(3.0, 1.0, C1=5.0).lower.value
        assert b < a  # monotone decreasing in C1

    def test_domain_lower_stirling_limit(self):
        # q * lower -> 2 pi e |Omega|^0 ... the C1 factor washes out
        for C1 in (0.5, 1.0, 7.0):
            got = 1e6 * limiting(1e6, 0.5, C1=C1).lower.value   # |Omega| = 1
            assert rel(got, TWO_PI_E) < 1e-3

    def test_wholespace_upper(self):
        v = rn(Params(1, 0.5, 2.0, 4.0)).upper
        assert rel(v.value, 5.8445647306445557) < 1e-14

    def test_wholespace_upper_asymptotics(self):
        # convergence is logarithmic: q (4 ln q + 2 - ln 16 pi^2)/q corrections
        ratios = [abs(q * rn(Params(1, 0.5, 2.0, q)).upper.value / TWO_PI_E - 1.0)
                  for q in (1e3, 1e4, 1e5, 1e6)]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1e-4

    def test_wholespace_lower(self):
        v = rn(Params(1, 0.5, 2.0, 4.0)).lower
        assert rel(v.value, 0.950045503793104) < 1e-13
        for q in (3.0, 4.0, 8.0, 32.0):
            for C2 in (0.0, 0.5, 1.0, 10.0):
                bp = rn(Params(1, 0.5, 2.0, q), C2=C2)
                assert bp.lower.value <= bp.upper.value

    def test_wholespace_lower_asymptotics(self):
        for C2 in (0.5, 1.0, 4.0):
            got = 1e6 * rn(Params(1, 0.5, 2.0, 1e6), C2=C2).lower.value
            assert rel(got, TWO_PI_E) < 1e-3


class TestYoung:
    def test_half(self):
        eps, rho = young_lower(0.5, 1.0)
        assert rel(rho, 0.5) < 1e-14
        assert rel(eps, 1.0) < 1e-14

    def test_no_nan_sweep(self):
        for lam in np.linspace(1e-6, 1.0 - 1e-6, 200):
            eps, rho = young_lower(float(lam), 2.7)
            assert math.isfinite(eps) and math.isfinite(rho) and rho > 0

    def test_endpoints_raise(self):
        for lam in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                young_lower(lam, 1.0)


class TestBoundPairInvariant:
    def test_fuzzed_lower_le_upper(self):
        rng = np.random.default_rng(42)
        # p=1 and p=2 points: reuse a small (N, s) pool so the quadrature
        # constants stay cached, fuzz q and the domain
        pool = [(1, 0.25), (1, 0.5), (2, 0.3), (3, 0.45)]
        count = 0
        for _ in range(10000):
            N, s = pool[rng.integers(len(pool))]
            p = 1.0 if rng.random() < 0.5 else 2.0
            if not N > s * p:
                continue
            crit = N * p / (N - s * p)
            lo_q = 1.0 if p == 1.0 else (2.0 if rng.random() < 0.7 else 1.0)
            q = float(rng.uniform(lo_q, crit * (1.0 - 1e-6)))
            if q < 1.0:
                continue
            params = Params(N, s, p, q)
            if rng.random() < 0.5:
                dom = DomainSpec.ball(float(rng.uniform(0.1, 5.0)), N)
            elif p == 1.0 or q >= 2.0:
                dom = DomainSpec.whole_space()
            else:
                dom = DomainSpec.ball(float(rng.uniform(0.1, 5.0)), N)
            pair = bounds_for(params, dom)
            assert pair.lower.value <= pair.upper.value * (1.0 + 1e-12)
            count += 1
        assert count > 5000

    def test_domain_dimension_is_checked_in_every_regime(self):
        # the limiting branch bracketed an interval problem from a 3-ball
        for params in (Params(1, 0.5, 2.0, 3.0), Params(1, 0.5, 1.0, 1.5),
                       Params(1, 0.25, 2.0, 3.0)):
            with pytest.raises(DomainError, match="domain dimension 3 != N=1"):
                bounds_for(params, DomainSpec.ball(1.0, 3))
            bounds_for(params, DomainSpec.whole_space(N=3))

    def test_constructor_asserts(self):
        good = rn(Params(1, 0.25, 2.0, 3.0))
        with pytest.raises(DomainError):
            BoundPair(good.upper, good.lower)  # swapped


class TestBallDilationConsistency:
    def test_scaled_ball_equals_dilated_unit_ball(self):
        for (N, s, p, q) in [(1, 0.25, 2.0, 3.0), (2, 0.3, 1.0, 1.1),
                             (1, 0.5, 1.0, 1.7)]:
            params = Params(N, s, p, q)
            for R in (0.5, 2.0, 7.0):
                b1 = bounds_for(params, DomainSpec.ball(1.0, N))
                bR = bounds_for(params, DomainSpec.ball(R, N))
                # transferring the unit-ball bound by lambda = R gives B_R
                assert rel(dilation_transfer(b1.lower.value, R, params),
                           bR.lower.value) < 1e-12
                assert rel(dilation_transfer(b1.upper.value, R, params),
                           bR.upper.value) < 1e-12
