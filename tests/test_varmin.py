import math
import warnings
from functools import partial

import numpy as np
import pytest

from fracsob import varmin
from fracsob.bounds import DomainSpec, _dilation_argmin, _dilation_min
from fracsob.constants import ConstantKind, Params
from fracsob.errors import ConvergenceError, DomainError, GridError
from fracsob.grids import Field, Grid
from fracsob.varmin import (
    _apply,
    _dot,
    _embed,
    _gradient,
    _value,
    default_grid,
    domain_mask,
    minimize_quotient,
    sandwich,
    sweep,
)


def rel(a, b):
    return abs(a - b) / abs(b)


def energy(symbol, u, V=None):
    """A u + V u, with A applied by `_apply`; V = None stands for V = 0."""
    Au = _apply(symbol, u)
    return Au if V is None else Au + V * u


def whole_space_operators(grid, s):
    """The energy, preconditioner and step floor of a whole-space
    `minimize_quotient`: A = symbol + 1 and P = 1 / A."""
    A = grid.multiplier(s) + 1.0
    P = 1.0 / A
    return partial(_apply, A), partial(_apply, P), 1.0 / float(np.max(A * P))


def box_case(grid, s, q, tol, V, Q=None, start=None):
    """`_box_descent`'s arguments to `_descend`, from its start or another."""
    c = float(np.max(V))
    A = grid.multiplier(s) + c
    P = 1.0 / A
    shift = V - c
    if start is None:
        start = np.exp(-(grid.x / varmin._start_width(s, q, V, Q)) ** 2)
    return ((start, lambda v: _apply(A, v) + shift * v, partial(_apply, P),
             1.0 / float(np.max(A * P)), grid.spacing, q, tol),
            {"Q": Q, "shift": shift})


def unit_start_descent(grid, s, q, tol, V, Q=None):
    """`_descend` with `_box_descent`'s operators from exp(-x^2), the start
    that `_box_descent` keeps where no best dilation applies: the kernel
    path that the pins taken from exp(-x^2) hold."""
    with np.errstate(over="ignore"):   # x*x overflows on a huge box: exp(-inf) = 0
        start = np.exp(-grid.x * grid.x)
    args, kwargs = box_case(grid, s, q, tol, V, Q, start)
    return varmin._descend(*args, **kwargs)


def ground_state_operators(grid, s, V):
    """The energy, preconditioner and step floor of a ground state, with the
    energy A u + V u applied whole (A = symbol): P = 1 / (symbol + max V)."""
    mult, vmax = grid.multiplier(s), float(np.max(V))
    P = 1.0 / (mult + vmax)
    return (lambda v: _apply(mult, v) + V * v, partial(_apply, P),
            1.0 / float(np.max((mult + vmax) * P)))


class TestGridField:
    def test_power_of_two(self):
        with pytest.raises(GridError):
            Grid(half_width=1.0, points=1000)
        with pytest.raises(GridError):
            Grid(half_width=-1.0, points=1024)

    def test_overflowing_spacing_is_refused(self):
        # Grid(1e308, 4096).spacing was inf, and x, the masks and the
        # start fields took inf - inf = nan from it
        with pytest.raises(GridError, match=r"grid half_width 1e\+308 is too large: "
                           "the spacing 2 half_width / points overflows a double"):
            Grid(half_width=1e308, points=4096)
        assert Grid(half_width=8e307, points=4096).spacing < math.inf

    @pytest.mark.parametrize("half_width,points", [(1e-310, 4096), (2e-305, 4096),
                                                   (2.3e-308, 4)])
    def test_subnormal_spacing_is_refused(self, half_width, points):
        # a subnormal spacing gave nan symbols and start fields, with
        # RuntimeWarnings: "constant must be finite and positive, got nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=f"grid half_width {half_width:g} is too "
                               "small: the spacing 2 half_width / points lies below the "
                               "smallest normal double"):
                Grid(half_width=half_width, points=points)
        assert Grid(half_width=2.3e-308, points=2).spacing == 2.3e-308

    def test_overflowing_top_symbol_is_refused(self):
        # (pi / h)^(2s) overflowed with "overflow encountered in power"
        grid = Grid(half_width=1e-290, points=4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=r"grid half_width 1e-290 is too small for "
                               r"s=0.9: the top symbol \(pi / spacing\)\^\(2s\) overflows"):
                grid.multiplier(0.9)
            assert np.all(np.isfinite(grid.multiplier(0.5)))

    def test_half_spectrum_multiplier(self):
        # the M/2 + 1 nonnegative frequencies xi_j = j/(2L) of a real transform
        g = Grid(half_width=4.0, points=16)
        assert g.spacing == 0.5
        assert np.array_equal(g.multiplier(0.5), 2.0 * np.pi * np.arange(9) / 8.0)

    def test_field_shape_check(self):
        g = Grid(half_width=1.0, points=8)
        with pytest.raises(GridError):
            Field(g, np.zeros(7))
        with pytest.raises(GridError):
            Field(g, np.full(8, np.nan))


def assert_gradient_matches_fd(symbol, h, q, mask=None, V=None, Q=None):
    """<grad R(u), d>, by `_gradient`, against the central difference of
    `_value`'s quotient on 10 random (masked) fields u and directions d."""
    rng = np.random.default_rng(123)
    M = 2 * (symbol.size - 1)
    for _ in range(10):
        u = rng.normal(size=M) + 2.0
        d = rng.normal(size=M)
        if mask is not None:
            u, d = np.where(mask, u, 0.0), np.where(mask, d, 0.0)
        Au, w, scratch = energy(symbol, u, V), np.abs(u) ** q, np.empty(M)
        R, G = _value(u, Au, h, q, Q, w, scratch)
        g = _gradient(u, Au, h, q, Q, w, R, G, np.empty(M), scratch)
        eps = 1e-6
        up, um = u + eps * d, u - eps * d
        Rp = applied_quotient(symbol, up, h, q, V, Q)
        Rm = applied_quotient(symbol, um, h, q, V, Q)
        fd = (Rp - Rm) / (2.0 * eps)
        assert abs(float(g @ d) - fd) / max(abs(fd), 1e-10) < 1e-5


class TestGradient:
    def test_directional_derivative_matches_fd(self):
        grid = Grid(half_width=10.0, points=256)
        symbol = grid.multiplier(0.4)
        # whole space: the mass term is the symbol's + 1; domain: the mask
        assert_gradient_matches_fd(symbol + 1.0, grid.spacing, 3.0)
        assert_gradient_matches_fd(symbol, grid.spacing, 3.0, mask=np.abs(grid.x) < 4.0)

    @pytest.mark.parametrize("masked", [False, True], ids=["whole-space", "masked"])
    def test_ground_state_quotient_matches_fd(self, masked):
        # the quotient of pde.ground_state_solve: potential V, weight Q
        grid = Grid(half_width=10.0, points=256)
        x = grid.x
        V = 1.0 - 0.4 * np.exp(-x * x)
        Q = 1.0 + 2.0 * np.exp(-(x / 2.0) ** 2)
        assert_gradient_matches_fd(grid.multiplier(0.4), grid.spacing, 3.5,
                                   mask=(np.abs(x) < 4.0) if masked else None, V=V, Q=Q)


def full_symbol(grid, s):
    """|2 pi xi|^(2s) on all M `fftfreq` frequencies, for complex transforms."""
    return np.abs(2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)) ** (2.0 * s)


class TestRealApply:
    """`_apply` runs rfft/irfft on the M/2 + 1 half-spectrum symbol; it must
    agree with the full complex-FFT formula to rounding."""

    @pytest.mark.parametrize("M", [2, 64, 4096, 16384])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_matches_complex_fft(self, M, s):
        grid = Grid(half_width=8.0, points=M)
        half, full = grid.multiplier(s), full_symbol(grid, s)
        rng = np.random.default_rng(M)
        u = rng.normal(size=M)
        # the domain-mode symbol, the whole-space one, and the preconditioner
        for f in (lambda m: m, lambda m: m + 1.0, lambda m: 1.0 / (m + 1.0)):
            Au = _apply(f(half), u)
            ref = np.fft.ifft(f(full) * np.fft.fft(u)).real
            assert np.max(np.abs(Au - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_half_symbol_is_bitwise_the_first_half(self):
        # rfftfreq and fftfreq scale the same integers, and |.| of the
        # negative Nyquist bin is exact, so every solve keeps its bits
        for M in (2, 64, 4096):
            grid = Grid(half_width=8.0, points=M)
            for s in (0.1, 0.3, 0.5, 0.75):
                assert np.array_equal(grid.multiplier(s),
                                      full_symbol(grid, s)[:M // 2 + 1])


class TestEmbeddedApply:
    """A domain solve applies the masked box operator mask A mask on its m
    support nodes through a circulant of size n >= 2m - 1 (`_embed`); it
    must agree with the M-point masked apply to rounding."""

    @pytest.mark.parametrize("M", [64, 1024, 8192])
    @pytest.mark.parametrize("nodes", ["3", "M/8", "M/2+1"])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_matches_masked_box_apply(self, M, nodes, s):
        m = {"3": 3, "M/8": M // 8, "M/2+1": M // 2 + 1}[nodes]
        support = slice(M // 4, M // 4 + m)
        mask = np.zeros(M, dtype=bool)
        mask[support] = True
        symbol = Grid(half_width=8.0, points=M).multiplier(s)
        rng = np.random.default_rng(M + m)
        # the energy and the preconditioner P = 1 / (symbol + 1) of a domain solve
        for f in (symbol, 1.0 / (symbol + 1.0)):
            spectrum = _embed(f, m)
            n = 2 * (spectrum.size - 1)
            if 2 * m - 1 > M // 2:
                assert spectrum is f   # the box itself serves
            else:
                assert 2 * m - 1 <= n < 2 * (2 * m - 1)
            for u in rng.normal(size=(5, M)):
                ref = np.where(mask, _apply(f, np.where(mask, u, 0.0)), 0.0)[support]
                got = _apply(spectrum, u[support])
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_domain_sandwich_transforms_its_support_embedding(self, monkeypatch):
        # (-1, 1) holds m = 511 of the M = 4096 nodes on L = 8: the descent
        # transforms n = 1024 points, and only the set-up of the two kernels
        # (the energy's and the preconditioner's) reads the box
        lengths = []

        def recorded(f, kind):
            def wrapped(a, n=None, *args, **kwargs):
                size = n if n is not None else (
                    a.shape[-1] if kind == "rfft" else 2 * (a.shape[-1] - 1))
                lengths.append((kind, size))
                return f(a, n, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.fft, "rfft", recorded(np.fft.rfft, "rfft"))
        monkeypatch.setattr(np.fft, "irfft", recorded(np.fft.irfft, "irfft"))
        rep = sandwich(Params(1, 0.25, 2.0, 3.0), DomainSpec.interval(-1.0, 1.0),
                       grid=Grid(half_width=8.0, points=4096))
        assert rep.passed
        assert [t for t in lengths if t[1] != 1024] == [("irfft", 4096)] * 2
        # each apply of the descent is an rfft/irfft pair; the two set-up
        # spectra add one rfft each
        pairs = lengths.count(("irfft", 1024))
        assert pairs > 0 and lengths.count(("rfft", 1024)) == pairs + 2


# whole-space solves and ground states run on every box node, through the
# box circulant itself: these values are bit-exact, so any change to that
# path shows
WHOLE_SPACE_LADDER_2048 = (0.7252686913858304, 9)   # q = 32 on rn:10
GROUND_STATE_I0 = 0.5076669573250614   # TestPinnedEstimates.test_ground_state
# the same two solves by the descent without a shift, which applies the
# energy (the ground state's as symbol u + V u) at every trial point;
# carrying A u and splitting off max V move them by rounding only
WHOLE_SPACE_LADDER_2048_APPLIED = (0.7252686913858303, 9)
GROUND_STATE_I0_APPLIED = (0.5076669573250613, 14)
# the ladder solve from exp(-x^2) (`unit_start_descent`), carried and applied
WHOLE_SPACE_LADDER_2048_UNIT = (0.7252686913858326, 13)
WHOLE_SPACE_LADDER_2048_UNIT_APPLIED = (0.7252686913858322, 13)
# a domain solve iterates on its support's nodes: s = 0.75, q = 3 on (-1, 1)
# with L = 8, M = 8192 (the fine-grid benchmark's domain solve)
DOMAIN_SOLVE_8192 = (1.8048799390938277, 25)


class TestWholeSpaceBits:
    def test_ladder_estimate(self):
        res = minimize_quotient(Grid(half_width=10.0, points=2048), None, 0.5, 32.0,
                                "whole_space")
        assert (res.estimate, res.iterations) == WHOLE_SPACE_LADDER_2048
        assert rel(res.estimate, WHOLE_SPACE_LADDER_2048_APPLIED[0]) <= 1e-14
        grid = Grid(half_width=10.0, points=2048)
        A, P, floor = whole_space_operators(grid, 0.5)
        width = varmin._start_width(0.5, 32.0, 1.0, None)
        _, trace, _ = varmin._descend(np.exp(-(grid.x / width) ** 2), A, P, floor,
                                      grid.spacing, 32.0, varmin._QUOTIENT_TOL)
        assert (trace[-1], len(trace) - 1) == WHOLE_SPACE_LADDER_2048_APPLIED
        # from exp(-x^2) the kernel takes its older path, bit for bit
        _, trace, _ = unit_start_descent(grid, 0.5, 32.0, varmin._QUOTIENT_TOL, 1.0)
        assert (trace[-1], len(trace) - 1) == WHOLE_SPACE_LADDER_2048_UNIT
        _, trace, _ = varmin._descend(np.exp(-grid.x ** 2), A, P, floor, grid.spacing,
                                      32.0, varmin._QUOTIENT_TOL)
        assert (trace[-1], len(trace) - 1) == WHOLE_SPACE_LADDER_2048_UNIT_APPLIED

    def test_ground_state_energy(self):
        from fracsob.pde import _GROUND_STATE_TOL, ground_state_solve
        grid = Grid(half_width=20.0, points=1024)
        bump = np.exp(-grid.x ** 2)
        V, Q = 1.0 - 0.5 * bump, 1.0 + 2.0 * bump
        _, I0, rep = ground_state_solve(grid, 0.5, 4.0, Field(grid, V), Field(grid, Q))
        assert I0 == GROUND_STATE_I0
        assert rel(I0, GROUND_STATE_I0_APPLIED[0]) <= 1e-14
        A, P, floor = ground_state_operators(grid, 0.5, V)
        _, trace, _ = varmin._descend(np.exp(-grid.x ** 2), A, P, floor, grid.spacing,
                                      4.0, _GROUND_STATE_TOL, Q=Q)
        assert (0.5 * trace[-1], len(trace) - 1) == GROUND_STATE_I0_APPLIED

    def test_domain_solve_estimate(self):
        grid = Grid(half_width=8.0, points=8192)
        res = minimize_quotient(grid, domain_mask(grid, DomainSpec.interval(-1.0, 1.0)),
                                0.75, 3.0, "domain")
        assert (res.estimate, res.iterations) == DOMAIN_SOLVE_8192

    def test_descent_on_the_support_nodes_is_the_domain_solve(self):
        # _descend minimizes over the nodes it is handed: on the support's
        # m nodes it returns an m-node minimizer, which minimize_quotient
        # puts back on the box unchanged
        grid = Grid(half_width=8.0, points=1024)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        res = minimize_quotient(grid, mask, 0.25, 3.0, "domain")
        xs = grid.x[mask]
        c, k0 = 0.5 * (xs.max() + xs.min()), 0.25 * (xs.max() - xs.min())
        symbol = grid.multiplier(0.25)
        P = 1.0 / (symbol + 1.0)
        u, trace, converged = varmin._descend(
            np.maximum(k0 ** 2 - (xs - c) ** 2, 0.0) ** 0.25,
            partial(_apply, _embed(symbol, xs.size)), partial(_apply, _embed(P, xs.size)),
            1.0 / float(np.max(symbol * P)), grid.spacing, 3.0, varmin._QUOTIENT_TOL)
        assert u.shape == (int(mask.sum()),)
        assert np.array_equal(u, res.minimizer.values[mask])
        assert np.array_equal(trace, res.trace) and converged is res.converged

    def test_box_apply_is_the_plain_transform_pair(self):
        grid = Grid(half_width=8.0, points=4096)
        symbol = grid.multiplier(0.25)
        u = np.random.default_rng(4096).normal(size=4096)
        assert np.array_equal(_apply(symbol, u),
                              np.fft.irfft(symbol * np.fft.rfft(u), n=4096))


def applied_quotient(symbol, u, h, q, V=None, Q=None):
    """The quotient of u with its energy applied, not carried."""
    return _value(u, energy(symbol, u, V), h, q, Q, np.abs(u) ** q, np.empty(u.shape))[0]


def count_irfft(monkeypatch):
    calls = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    return calls


class TestCarriedEnergy:
    """Given the shift V - c, `_descend` carries A u + V u: P inverts
    A + c, so A d + V d = g + (V - c) d, and a trial point u - tau d
    that |.| leaves alone has the energy (A u + V u) - tau (A d + V d).  An
    iteration then costs the one transform pair of d = P g, and the carried
    energy stays the applied one to rounding."""

    def test_whole_space_solve_transforms_once_per_iteration(self, monkeypatch):
        calls = count_irfft(monkeypatch)
        res = minimize_quotient(Grid(half_width=10.0, points=2048), None, 0.5, 32.0,
                                "whole_space")
        assert res.converged and res.iterations == 9
        # the set-up apply of A u, then d = P g once per iteration
        assert len(calls) == 1 + res.iterations

    def test_ground_state_transforms_once_per_iteration(self, monkeypatch):
        from fracsob.pde import ground_state_solve
        calls = count_irfft(monkeypatch)
        grid = Grid(half_width=20.0, points=1024)
        bump = np.exp(-grid.x ** 2)
        _, _, rep = ground_state_solve(grid, 0.5, 4.0, Field(grid, 1.0 - 0.5 * bump),
                                       Field(grid, 1.0 + 2.0 * bump))
        assert rep.converged and rep.iterations == 14
        # set-up, one P g per iteration, and the residual check's A u0
        assert len(calls) == 1 + rep.iterations + 1

    def test_ladder_estimate_is_the_applied_quotient(self):
        # the fine-grid benchmark's finest ladder solve
        grid = Grid(half_width=10.0, points=16384)
        res = minimize_quotient(grid, None, 0.5, 32.0, "whole_space")
        u = res.minimizer.values
        exact = applied_quotient(grid.multiplier(0.5) + 1.0, u, grid.spacing, 32.0)
        assert rel(res.estimate, exact) <= 1e-12

    def test_long_descent_keeps_the_applied_quotient(self, monkeypatch):
        # tol 0 from exp(-x^2) runs the descent to its cap: 2000 carried
        # updates of A u
        monkeypatch.setattr(varmin, "_MAX_ITERS", 2000)
        grid = Grid(half_width=10.0, points=2048)
        u, trace, converged = unit_start_descent(grid, 0.5, 32.0, 0.0, 1.0)
        assert len(trace) - 1 == 2000 and not converged
        exact = applied_quotient(grid.multiplier(0.5) + 1.0, u, grid.spacing, 32.0)
        assert rel(trace[-1], exact) <= 1e-12

    def test_descent_from_the_best_dilation_stops_stationary(self, monkeypatch):
        # tol 0 from the Gaussian's best dilation: no step of the line
        # search decreases the quotient after 17 iterations
        monkeypatch.setattr(varmin, "_MAX_ITERS", 2000)
        monkeypatch.setattr(varmin, "_QUOTIENT_TOL", 0.0)
        grid = Grid(half_width=10.0, points=2048)
        res = minimize_quotient(grid, None, 0.5, 32.0, "whole_space")
        assert res.iterations == 17 and res.converged
        u = res.minimizer.values
        exact = applied_quotient(grid.multiplier(0.5) + 1.0, u, grid.spacing, 32.0)
        assert rel(res.estimate, exact) <= 1e-12

    def test_ground_state_quotient_is_the_applied_one(self):
        # V - c is nonzero here: the potential's carried term
        grid = Grid(half_width=20.0, points=1024)
        bump = np.exp(-grid.x ** 2)
        V, Q = 1.0 - 0.5 * bump, 1.0 + 2.0 * bump
        symbol = grid.multiplier(0.5)
        u, trace, converged = varmin._box_descent(grid, 0.5, 4.0, 1e-13, V, Q)
        assert converged
        assert rel(trace[-1], applied_quotient(symbol, u, grid.spacing, 4.0, V, Q)) <= 1e-12

    def test_trial_point_that_the_projection_changes_is_applied(self):
        # from two bumps at +-1.5, one trial point u - tau d has a negative
        # entry, which |.| flips: its energy is applied, not carried
        applied = []
        grid = Grid(half_width=200.0, points=4096)
        x, symbol = grid.x, grid.multiplier(0.1) + 1.0
        A, P, floor = whole_space_operators(grid, 0.1)

        def recorded(v):
            applied.append(v)
            return A(v)

        u, trace, converged = varmin._descend(
            np.exp(-(x - 1.5) ** 2) + np.exp(-(x + 1.5) ** 2), recorded, P, floor,
            grid.spacing, 3.0, varmin._QUOTIENT_TOL, shift=0.0)
        assert converged
        assert len(applied) == 2   # the set-up and that trial point
        assert rel(trace[-1], applied_quotient(symbol, u, grid.spacing, 3.0)) <= 1e-12


def reference_descend(u, A, P, tau_floor, h, q, tol, Q=None, shift=None):
    """The allocating form of the descent: every trial point allocates its
    arrays and forms the whole gradient.  `_descend`, which works in place,
    must return these bytes."""

    def dot(a, b):
        return float(np.einsum("i,i->", a, b))

    def quotient(u, Au, w):
        E = h * dot(u, Au)
        G = h * float(np.sum(w if Q is None else Q * w))
        nq2 = G ** (2.0 / q)
        R = E / nq2
        gE = 2.0 * h * Au
        uq = np.divide(w, u, out=np.zeros_like(u), where=u != 0.0)
        if Q is not None:
            uq = Q * uq
        gq2 = 2.0 * h * G ** (2.0 / q - 1.0) * uq
        return R, (gE - R * gq2) / nq2

    def normalize(v):
        with np.errstate(over="ignore"):
            w = v ** q
            nq = h * float(np.sum(w if Q is None else Q * w))
        n = nq ** (1.0 / q)
        if not 1e-300 < n < math.inf:
            raise ConvergenceError("degenerate field")
        return v / n, w / nq, n

    u, w, _ = normalize(np.abs(u))
    Au = A(u)
    R, g = quotient(u, Au, w)
    trace = [R]
    converged = False
    u_prev = g_prev = d_prev = None
    for _ in range(varmin._MAX_ITERS):
        d = P(g)
        Ad = None if shift is None else g + shift * d
        if u_prev is None:
            tau = tau_floor
        else:
            dg = g - g_prev
            sy = dot(u - u_prev, dg)
            yPy = dot(dg, d - d_prev)
            tau = sy / yPy if sy > 0 and yPy > 0 else 4.0 * tau
            tau = min(max(tau, tau_floor), 1e8)
        for _bt in range(80):
            x = u - tau * d
            try:
                v, wv, n = normalize(np.abs(x))
            except ConvergenceError:
                tau *= 0.5
                continue
            if Ad is not None and float(np.min(x)) >= 0.0:
                Av = (Au - tau * Ad) / n
            else:
                Av = A(v)
            Rv, gv = quotient(v, Av, wv)
            decrease = dot(g, v - u)
            if Rv <= R + varmin._ARMIJO * min(decrease, 0.0):
                break
            tau *= 0.5
        else:
            converged = True
            break
        rel_ = (R - Rv) / max(R, 1e-300)
        u_prev, g_prev, d_prev = u, g, d
        u, R, g, Au = v, Rv, gv, Av
        trace.append(R)
        if rel_ < tol:
            converged = True
            break
    return u, trace, converged


def domain_case(grid, s, q, start):
    """`minimize_quotient`'s domain descent on (-1, 1), from a given start
    on the support's nodes (the cap (k0^2 - x^2)_+^s when start is None)."""
    xs = grid.x[domain_mask(grid, DomainSpec.interval(-1.0, 1.0))]
    if start is None:
        k0 = 0.25 * (xs.max() - xs.min())
        start = np.maximum(k0 ** 2 - (xs - 0.5 * (xs.max() + xs.min())) ** 2, 0.0) ** s
    else:
        start = start(xs)
    symbol = grid.multiplier(s)
    P = 1.0 / (symbol + 1.0)
    return ((start, partial(_apply, _embed(symbol, xs.size)),
             partial(_apply, _embed(P, xs.size)), 1.0 / float(np.max(symbol * P)),
             grid.spacing, q, varmin._QUOTIENT_TOL), {})


def kernel_cases():
    tol = varmin._QUOTIENT_TOL
    rn = Grid(half_width=10.0, points=2048)
    gs = Grid(half_width=40.0, points=2048)
    well = 1.0 - 0.6 * np.exp(-(gs.x / 1.2) ** 2)   # well:1,0.6,1.2
    bump = 1.0 + 1.5 * np.exp(-(gs.x / 0.8) ** 2)   # bump:1,1.5,0.8
    wide = Grid(half_width=200.0, points=4096)
    two_bumps = np.exp(-(wide.x - 1.5) ** 2) + np.exp(-(wide.x + 1.5) ** 2)
    return {
        "whole-space": box_case(rn, 0.5, 32.0, tol, 1.0),
        "whole-space-stationary": box_case(rn, 0.5, 32.0, 0.0, 1.0),
        "ground-state-well-bump": box_case(gs, 0.45, 3.7, 1e-10, well, bump),
        "q1.5": box_case(Grid(half_width=10.0, points=1024), 0.25, 1.5, tol, 1.0),
        "two-bumps": box_case(wide, 0.1, 3.0, tol, 1.0, start=two_bumps),
        "domain": domain_case(Grid(half_width=8.0, points=4096), 0.3, 3.5,
                              lambda xs: np.exp(-xs * xs)),
        "domain-cap": domain_case(Grid(half_width=8.0, points=4096), 0.26, 4.09, None),
    }


class TestKernelBits:
    """`_descend` writes its trial points into reused arrays and forms the
    gradient only at the accepted point; its minimizer, trace and stop are
    those of the allocating loop (`reference_descend`) to the last bit."""

    @pytest.mark.parametrize("case", list(kernel_cases()))
    def test_descent_is_the_allocating_reference(self, case):
        args, kwargs = kernel_cases()[case]
        u, trace, converged = varmin._descend(*args, **kwargs)
        ref_u, ref_trace, ref_converged = reference_descend(*args, **kwargs)
        assert u.tobytes() == ref_u.tobytes()
        assert trace == ref_trace and converged is ref_converged

    def test_cases_take_the_branches_they_name(self, monkeypatch):
        cases = kernel_cases()
        # the cap start holds exact zeros: the u = 0 branch of |u|^(q-2) u
        assert (cases["domain-cap"][0][0] == 0.0).any()
        assert not (cases["domain"][0][0] == 0.0).any()
        assert np.ndim(cases["ground-state-well-bump"][1]["shift"]) == 1
        assert cases["whole-space"][1]["shift"] == 0.0
        # at tol 0 the relative decrease never stops the descent: converged
        # means that no step of the line search decreased R
        _, trace, converged = varmin._descend(*cases["whole-space-stationary"][0],
                                              **cases["whole-space-stationary"][1])
        assert converged and len(trace) < varmin._MAX_ITERS
        # from the two bumps |.| changes a trial point, which is applied
        (start, A, *rest), kwargs = cases["two-bumps"]
        applied = []
        varmin._descend(start, lambda v: applied.append(1) or A(v), *rest, **kwargs)
        assert len(applied) == 2


def sampling_bias(s, width, half_width, terms=6):
    """The grid energy h <u, symbol u> of u = exp(-(x/width)^2) on a box of
    this half-width, less the whole-line energy: the frequency step
    d = 1/(2L) samples f(xi) = |xi|^(2s) g(xi), g = (2 pi)^(2s) pi width^2
    exp(-2 pi^2 width^2 xi^2), and with f(0) = 0 the sum over j of d f(j d)
    exceeds the integral by Navot's 2 sum_k zeta(-2s-2k) g^(2k)(0)/(2k)!
    d^(2s+2k+1) (of order d^(1+2s): 8e-5 relative at s = 1/2 on L = 100)."""
    mp = pytest.importorskip("mpmath")
    d = 1.0 / (2.0 * half_width)
    g0, a = (2.0 * math.pi) ** (2.0 * s) * math.pi * width ** 2, -2.0 * (math.pi * width) ** 2
    return sum(2.0 * float(mp.zeta(-2.0 * s - 2.0 * k)) * g0 * a ** k / math.factorial(k)
               * d ** (2.0 * s + 2.0 * k + 1.0) for k in range(terms))


class TestGaussianStart:
    """A whole-box descent with constant V = c > 0 and Q starts from
    exp(-(x/lambda)^2) at the best dilation lambda of Weinstein's scaling,
    where 0 < theta = (1/s)(1/2 - 1/q) < 1; elsewhere from exp(-x^2)."""

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_gaussian_norms_are_the_grid_norms(self, s):
        grid = Grid(half_width=40.0, points=4096)
        u, h = np.exp(-grid.x ** 2), grid.spacing
        E, B = varmin._gaussian_norms(s)
        grid_E = h * _dot(u, _apply(grid.multiplier(s), u)) - sampling_bias(s, 1.0, 40.0)
        assert rel(grid_E, E) <= 1e-12
        assert rel(h * _dot(u, u), B) <= 1e-12

    @pytest.mark.parametrize("s,q,c", [(0.5, 4.0, 1.0), (0.25, 3.0, 1.0), (0.75, 6.0, 0.5),
                                       (0.5, 32.0, 1.0), (0.9, 8.0, 2.0)])
    def test_start_quotient_is_the_dilation_minimum(self, s, q, c):
        grid = Grid(half_width=40.0, points=16384)
        h, width = grid.spacing, varmin._start_width(s, q, c, None)
        theta = (0.5 - 1.0 / q) / s
        E, B = varmin._gaussian_norms(s)
        G = (math.pi / q) ** (1.0 / q)   # ||exp(-x^2)||_q^2
        best = _dilation_min(theta, 1.0 - theta, E, c * B) / G
        # the closed-form quotient of u(x/width): E, B and G dilate
        assert rel((width ** (1.0 - 2.0 * s) * E + c * width * B)
                   / (width ** (2.0 / q) * G), best) <= 1e-14
        # the grid quotient of the start, less the sampling bias
        u = np.exp(-(grid.x / width) ** 2)
        grid_E = h * _dot(u, _apply(grid.multiplier(s), u)) - sampling_bias(s, width, 40.0)
        grid_R = (grid_E + c * h * _dot(u, u)) / (h * float(np.sum(u ** q))) ** (2.0 / q)
        assert rel(grid_R, best) <= 1e-12
        # and the descent starts there
        _, trace, _ = varmin._box_descent(grid, s, q, varmin._QUOTIENT_TOL, c)
        assert rel(trace[0], applied_quotient(grid.multiplier(s) + c, u, h, q)) <= 1e-14

    @pytest.mark.parametrize("case", ["q=2", "q<2", "q above crit", "V varies", "Q varies",
                                      "overflow", "width underflows"])
    def test_start_falls_back_to_the_unit_gaussian(self, case):
        grid = Grid(half_width=20.0, points=1024)
        bump = np.exp(-grid.x ** 2)
        s, q, V, Q = 0.5, 4.0, 1.0, None
        if case == "q=2":
            q = 2.0
        elif case == "q<2":
            q = 1.5
        elif case == "q above crit":   # crit = 2/(1 - 2s) = 2.5
            s, q = 0.1, 6.0
        elif case == "V varies":
            V = 1.0 - 0.5 * bump
        elif case == "Q varies":
            Q = 1.0 + 2.0 * bump
        elif case == "overflow":   # the argmin's float power overflows
            s, q = 0.01, 2.0 + 1e-9
            theta = (0.5 - 1.0 / q) / s
            with pytest.raises(OverflowError):
                _dilation_argmin(theta, 1.0 - theta, *varmin._gaussian_norms(s), 2.0 * s)
        else:   # the argmin underflows to 0 just below crit = 2/(1 - 2s)
            s, q = 0.01, 2.0 / 0.98 - 1e-9
            theta = (0.5 - 1.0 / q) / s
            assert _dilation_argmin(theta, 1.0 - theta, *varmin._gaussian_norms(s),
                                    2.0 * s) == 0.0
        assert varmin._start_width(s, q, V, Q) == 1.0
        u, trace, converged = varmin._box_descent(grid, s, q, varmin._QUOTIENT_TOL, V, Q)
        u1, trace1, converged1 = unit_start_descent(grid, s, q, varmin._QUOTIENT_TOL, V, Q)
        assert np.array_equal(u, u1) and trace == trace1 and converged is converged1

    def test_constant_V_and_Q_arrays_take_the_best_dilation(self):
        grid = Grid(half_width=20.0, points=1024)
        ones = np.ones(grid.points)
        width = varmin._start_width(0.5, 4.0, 1.0, None)
        assert width != 1.0
        assert varmin._start_width(0.5, 4.0, ones, 3.0 * ones) == width

    @pytest.mark.parametrize("s,q,L", [(0.01, 2.0001, 200.0), (0.49, 2.0 + 1e-9, 200.0),
                                       (0.49, 99.0, 200.0), (0.99, 50.0, 200.0),
                                       (0.3, 2.5, 1e-300), (0.3, 2.5, 1e300)])
    def test_edge_points_solve_without_warnings(self, s, q, L):
        grid = Grid(half_width=L, points=4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = minimize_quotient(grid, None, s, q, "whole_space")
            _, trace, _ = unit_start_descent(grid, s, q, varmin._QUOTIENT_TOL, 1.0)
        assert res.converged and 0.0 < res.estimate < math.inf
        # the same discrete minimum: from exp(-x^2) the descent stops within
        # its stop test's reach of it
        assert rel(res.estimate, trace[-1]) <= 1e-8


# estimates of the complex-FFT descent with three powers per trial point:
# (mode, s, q, estimate, iterations), domain (-1, 1) on L = 8 and whole
# space on L = 10, both at M = 1024.  The last two whole-space points meet a
# pair without positive curvature, whose step grows from the last accepted
# one: 15 and 11 iterations, where a restart at the step floor took 24 and 13
PINNED_SOLVES = [
    ("domain", 0.25, 3.0, 1.081290527389284, 14),
    ("domain", 0.75, 1.0, 0.9316391834500621, 17),
    ("domain", 0.5, 1.5, 0.9632613992819389, 13),
    ("whole_space", 0.5, 4.0, 2.209985960475102, 13),
    ("whole_space", 0.1, 6.0, 0.23519340299477545, 15),
    ("whole_space", 0.25, 1.5, 0.3684031498640726, 11),
]


# minimize_quotient's whole-space solves from the Gaussian's best dilation,
# (s, q, estimate, iterations); at q <= 2 and at q >= crit = 2/(1 - 2s) the
# start stays exp(-x^2)
WHOLE_SPACE_SOLVES = [
    (0.5, 4.0, 2.2099859604042695, 12),
    (0.1, 6.0, 0.23519340299477598, 15),
    (0.25, 1.5, 0.3684031498640869, 11),
]


class TestPinnedEstimates:
    """The real-FFT apply and the shared |u|^q move every estimate by
    rounding only (stated tolerance 1e-12 relative) and no iteration count;
    the step rule without positive curvature moved two whole-space counts,
    and those estimates by rounding.  A whole-space pin holds the descent
    from exp(-x^2) (`unit_start_descent`), the start these pins were taken
    from."""

    @pytest.mark.parametrize("mode,s,q,estimate,iterations", PINNED_SOLVES)
    def test_solve(self, mode, s, q, estimate, iterations):
        if mode == "domain":
            grid = Grid(half_width=8.0, points=1024)
            mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
            res = minimize_quotient(grid, mask, s, q, mode)
            trace, converged = res.trace, res.converged
        else:
            _, trace, converged = unit_start_descent(
                Grid(half_width=10.0, points=1024), s, q, varmin._QUOTIENT_TOL, 1.0)
        assert converged
        assert len(trace) - 1 == iterations
        assert rel(trace[-1], estimate) < 1e-12

    @pytest.mark.parametrize("s,q,estimate,iterations", WHOLE_SPACE_SOLVES)
    def test_whole_space_solve(self, s, q, estimate, iterations):
        grid = Grid(half_width=10.0, points=1024)
        res = minimize_quotient(grid, None, s, q, "whole_space")
        assert res.converged
        assert (res.estimate, res.iterations) == (estimate, iterations)

    def test_ground_state(self):
        from fracsob.pde import ground_state_solve
        grid = Grid(half_width=20.0, points=1024)
        bump = np.exp(-grid.x ** 2)
        _, I0, rep = ground_state_solve(grid, 0.5, 4.0, Field(grid, 1.0 - 0.5 * bump),
                                        Field(grid, 1.0 + 2.0 * bump))
        assert rep.converged
        assert rep.iterations == 14
        assert rel(I0, 0.5076669573250614) < 1e-12


class TestMinimizer:
    def test_q1_whole_space_with_subnormal_tail(self):
        # exp(-x^2) is subnormal for |x| > 26.6: |u|^(q-2) u used to overflow
        # there at q = 1, and the descent stopped at its start.  The minimum
        # on the box is 1/(2L), attained by a constant (Cauchy-Schwarz)
        grid = Grid(half_width=40.0, points=1024)
        res = minimize_quotient(grid, None, 0.25, 1.0, "whole_space")
        assert res.converged and res.iterations > 0
        assert rel(res.estimate, 1.0 / 80.0) < 1e-9

    @pytest.mark.parametrize("s,q,warned", [(0.15, 2.2, True), (0.4, 3.0, False)])
    def test_tail_mass_warning(self, s, q, warned):
        # more than 1e-6 of the q-mass in the outer 5% of the box sets the flag
        res = minimize_quotient(Grid(half_width=200.0, points=256), None, s, q,
                                "whole_space")
        assert res.converged
        assert res.tail_mass_warning is warned

    def test_whole_space_q2_is_one(self):
        grid = Grid(half_width=200.0, points=4096)
        res = minimize_quotient(grid, None, 0.5, 2.0, "whole_space")
        assert abs(res.estimate - 1.0) < 0.02

    def test_monotone_trace(self):
        grid = Grid(half_width=8.0, points=1024)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        res = minimize_quotient(grid, mask, 0.25, 3.0, "domain")
        assert np.all(np.diff(res.trace) <= 0.0)

    def test_determinism(self):
        grid = Grid(half_width=8.0, points=1024)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        r1 = minimize_quotient(grid, mask, 0.25, 3.0, "domain")
        r2 = minimize_quotient(grid, mask, 0.25, 3.0, "domain")
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

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5])
    def test_positivity_projection_is_a_contraction(self, s):
        # E(v) = h sum_ij k_(i-j) v_i v_j with k the periodic kernel of the
        # multiplier; k_j <= 0 off the diagonal gives E(|v|) <= E(v) for
        # every field, so the descent's projection |.| never raises the
        # numerator.  The sign holds for s <= 1/2 only: for s > 1/2 the
        # entries k_2, k_4, ... are positive.
        rng = np.random.default_rng(7)
        for M, L in ((64, 1.0), (1024, 8.0), (16384, 10.0)):
            grid = Grid(half_width=L, points=M)
            symbol = grid.multiplier(s)
            k = np.fft.irfft(symbol, n=M)
            assert np.all(k[1:] <= 1e-12 * k[0])
            for v in rng.normal(size=(20, M)):
                E = grid.spacing * _dot(v, _apply(symbol, v))
                a = np.abs(v)
                assert grid.spacing * _dot(a, _apply(symbol, a)) <= E * (1.0 + 1e-12)

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
        # a whole-space solve dropped a mask, and returned the mask-free estimate
        with pytest.raises(DomainError, match="whole_space mode takes no support mask"):
            minimize_quotient(grid, np.abs(grid.x) < 0.5, 0.25, 3.0, "whole_space")

    @pytest.mark.parametrize("case,match", [
        pytest.param("ten-nodes", r"shape \(1024,\).*got \(10,\)", id="ten-nodes"),
        pytest.param("float", "must be boolean, got dtype float64", id="float"),
        pytest.param("empty", r"holds 0 of the 1024 nodes on \[-8, 8\); the solver needs "
                     "at least 3 and fewer than 1024", id="empty"),
        pytest.param("two-intervals", "one run of nodes, got 2 runs", id="two-intervals"),
        # a constant has zero energy on the whole periodic box: 2.6e-17, converged
        pytest.param("whole-box", "holds 1024 of the 1024 nodes", id="whole-box"),
    ])
    def test_malformed_mask_is_refused(self, case, match):
        grid = Grid(half_width=8.0, points=1024)
        unit = domain_mask(grid, DomainSpec.interval(-0.5, 0.5))
        # domain_mask centres every domain, so the second run is built here
        grid, mask = {"ten-nodes": (grid, np.ones(10, dtype=bool)),
                      "float": (grid, unit.astype(float)),
                      "empty": (grid, np.zeros(1024, dtype=bool)),
                      "two-intervals": (grid, unit | ((grid.x > 3.5) & (grid.x < 4.5))),
                      "whole-box": (grid, np.ones(1024, dtype=bool)),
                      }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=match):
                minimize_quotient(grid, mask, 0.25, 3.0, "domain")

    def test_domain_mask_refusals(self):
        grid = Grid(half_width=8.0, points=1024)
        with pytest.raises(DomainError, match="whole-space domains have no mask"):
            domain_mask(grid, DomainSpec.whole_space())
        with pytest.raises(GridError, match="one-dimensional"):
            domain_mask(grid, DomainSpec.ball(1.0, 2))
        with pytest.raises(GridError, match="its inradius 8 must lie below"):
            domain_mask(grid, DomainSpec.interval(-8.0, 8.0))

    def test_default_box_that_overflows_is_refused(self):
        # 8 x the inradius overflowed: "grid half_width must be finite and
        # positive, got inf", a value never given
        dom = DomainSpec.interval(-8e307, 8e307)
        with pytest.raises(GridError, match=r"the default box of interval \(a=-8e\+307, "
                           r"b=8e\+307\) in R\^1 overflows a double"):
            default_grid(dom)
        assert default_grid(dom, half_width=8.5e307).half_width == 8.5e307
        assert default_grid(DomainSpec.interval(-5e306, 5e306)).half_width == 4e307

    @pytest.mark.parametrize("L,M,r,hand_made", [
        # a hand-made mask, np.abs(x) < 5e299: 255 steps of 1.95e297
        pytest.param(4e300, 4096, 5e299, True, id="huge-coordinates"),
        # 63 steps of 3.125e152
        pytest.param(1.6e155, 1024, 2e154, False, id="inradius-2e154"),
    ])
    def test_wide_support_is_solved(self, L, M, r, hand_made):
        # the cap start squared the support's half-width, and both supports
        # were refused; solved at unit scale, each is (-1, 1) on the box
        # [-8, 8) dilated by r
        s, q = 0.25, 3.0
        grid = Grid(half_width=L, points=M)
        unit = Grid(half_width=8.0, points=M)
        mask = (np.abs(grid.x) < r if hand_made
                else domain_mask(grid, DomainSpec.interval(-r, r)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize_quotient(grid, mask, s, q, "domain")
        ref = minimize_quotient(unit, domain_mask(unit, DomainSpec.interval(-1.0, 1.0)),
                                s, q, "domain")
        assert res.converged
        assert rel(res.estimate * r ** (2.0 * s - 1.0 + 2.0 / q), ref.estimate) < 1e-8
        assert np.count_nonzero(res.minimizer.values) == np.count_nonzero(ref.minimizer.values)
        # the minimizer is on the caller's L^q sphere, not the unit-scale one
        assert rel(grid.spacing * np.sum(res.minimizer.values ** q), 1.0) < 1e-12

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (7.0, 9.0), (20.0, 22.0), (-2.5, -0.5)])
    def test_domain_mask_is_centred(self, a, b):
        # a translate of (-1, 1) holds the same nodes: |x| < 1
        grid = Grid(half_width=8.0, points=1024)
        assert np.array_equal(domain_mask(grid, DomainSpec.interval(a, b)),
                              np.abs(grid.x) < 1.0)

    @pytest.mark.parametrize("r", [1.0, 0.5, 3.0, 1e3, 0.3, 0.1, 0.01, 1e-12, 1e50, 1e-6])
    def test_domain_mask_counts_whole_steps(self, r):
        # |x| < r on the box coordinates held 513 nodes at r = 0.1 and an
        # asymmetric 512 at r = 1e-6: a node on the boundary rounded in or out
        dom = DomainSpec.interval(-r, r)
        mask = domain_mask(default_grid(dom), dom)
        assert np.count_nonzero(mask) == 511
        assert np.array_equal(mask[1:], mask[:0:-1])   # symmetric about x = 0

    @staticmethod
    def default_solve(r, s, q):
        dom = DomainSpec.interval(-r, r)
        grid = default_grid(dom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return minimize_quotient(grid, domain_mask(grid, dom), s, q, "domain")

    def scaled(self, r, s=0.3, q=2.5):
        return self.default_solve(r, s, q).estimate * r ** (2.0 * s - 1.0 + 2.0 / q)

    @pytest.mark.parametrize("r", [1e-300, 1e-12, 1e-3, 0.01, 0.1, 0.3, 3.0, 10.0, 1e6,
                                   1e50, 5e299])
    def test_domain_solve_is_dilation_invariant(self, r):
        # the estimate on (-r, r) at the default grid, times r^(2s - 1 + 2/q),
        # does not move under a dilation; it was 1.07017 at r = 0.1 against
        # 1.07200 at r = 1 (-0.17%), and before the solve took a unit scale
        # +11.2% at r = 1e-12, +39.5% at r = 1e50, and 1e-300 and 5e299
        # were refused
        assert rel(self.scaled(r), self.scaled(1.0)) < 1e-8

    @pytest.mark.parametrize("r", [1e-12, 0.01, 3.0, 1e6, 1e50])
    def test_domain_solve_is_dilation_invariant_above_s_half(self, r):
        assert rel(self.scaled(r, 0.75, 3.0), self.scaled(1.0, 0.75, 3.0)) < 1e-7

    def test_tiny_domain_converges(self):
        # r = 1e-12 ran into the 20000-iteration cap
        res = self.default_solve(1e-12, 0.3, 2.5)
        assert res.converged and res.iterations < 100

    @pytest.mark.parametrize("s,q,r", [
        (0.4, 1.0, 5e299),
        (0.4, 1.0, 1e-300),
        # the factor 2^(365 * 2.8) fits, yet the estimate times it is inf
        (0.9, 1.0, math.ldexp(0.6, -365)),
    ])
    def test_scale_beyond_the_double_range_is_refused(self, s, q, r):
        # the constant at this scale leaves the double range: the estimate
        # must not come out as 0.0, inf or an OverflowError
        with pytest.raises(DomainError, match=f"leaves the double range at s={s}, q={q}"):
            self.default_solve(r, s, q)


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

    def test_ladder_starts_at_its_scale(self, ladder):
        # from the Gaussian's best dilation the ladder takes 9/9/9/11
        # iterations; from exp(-x^2) it takes 13/16/16/20
        assert all(res.iterations <= 12 for res in ladder.values())

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

    @pytest.mark.parametrize("s,q,cap", [(0.26, 4.09, 40), (0.2606, 4.0217, 50)])
    def test_no_plateau_without_positive_curvature(self, monkeypatch, s, q, cap):
        # these interval solves meet pairs with <s, y> <= 0 after their
        # Barzilai-Borwein steps reach the hundreds; restarting at four times
        # the step floor took 202 and 290 iterations of tiny decrease, four
        # times the last accepted step takes 32 and 40
        grid = Grid(half_width=8.0, points=4096)
        mask = domain_mask(grid, DomainSpec.interval(-1.0, 1.0))
        res = minimize_quotient(grid, mask, s, q, "domain")
        assert res.converged and res.iterations <= cap
        monkeypatch.setattr(varmin, "_QUOTIENT_TOL", 1e-13)
        tight = minimize_quotient(grid, mask, s, q, "domain")
        assert tight.converged
        assert rel(res.estimate, tight.estimate) <= 2e-8


class TestSandwich:
    def test_borderline_ball_all_coincide(self):
        p = Params(2, 0.5, 1.0, 1.2)
        rep = sandwich(p, DomainSpec.ball(1.0, 2))
        assert rep.passed
        assert rep.numeric is not None
        assert rep.numeric.value == rep.lower.value
        assert rep.numeric.value == rep.upper.value
        assert rep.numeric.provenance == "char-ball-exact"

    def test_borderline_wholespace_bound_only(self):
        p = Params(1, 0.5, 1.0, 1.5)
        rep = sandwich(p, DomainSpec.whole_space())
        assert rep.numeric is None
        assert rep.passed  # lower <= upper
        assert "bound-only" in rep.note

    def test_borderline_wholespace_passes_whenever_its_bracket_exists(self):
        # the p = 1 whole-space bracket is the exact constant at both ends,
        # so the bound-only sandwich passes at every point in scope
        rng = np.random.default_rng(0)
        for _ in range(200):
            N, s = int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(1.0, N / (N - s)))
            rep = sandwich(Params(N, s, 1.0, q), DomainSpec.whole_space(N=N))
            assert rep.numeric is None and rep.passed, (N, s, q)
            assert rep.lower.value == rep.upper.value, (N, s, q)

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
                       grid=Grid(half_width=10.0, points=16384))
        assert rep.passed
        assert abs(32.0 * rep.numeric.value - 2.0 * math.pi * math.e) \
            <= 0.25 * 2.0 * math.pi * math.e

    def test_hilbert_domain_q_below_2(self):
        # Thm 2(1) covers 1 <= q; the solver handles the q < 2 gradient
        p = Params(1, 0.25, 2.0, 1.5)
        rep = sandwich(p, DomainSpec.interval(-1.0, 1.0),
                       grid=Grid(half_width=8.0, points=2048))
        assert rep.numeric is not None and rep.passed

    def test_every_box_quotient_lies_between_the_grid_floors(self):
        # the two notes below rest on this: for q >= 2 a constant field has
        # quotient (2L)^(1-2/q) (zero energy), and ||u||_lq <= ||u||_l2 puts
        # every quotient at or above h^(1-2/q)
        grid, q = Grid(half_width=50.0, points=512), 2.5
        symbol, e = grid.multiplier(0.3) + 1.0, 1.0 - 2.0 / q
        flat = applied_quotient(symbol, np.ones(grid.points), grid.spacing, q)
        assert rel(flat, 100.0 ** e) < 1e-13
        rng = np.random.default_rng(29)
        for u in (rng.standard_normal(grid.points), np.eye(grid.points)[256]):
            assert applied_quotient(symbol, u, grid.spacing, q) >= grid.spacing ** e

    def test_box_that_cannot_reach_the_bracket_says_so(self):
        # on rn:200 a constant field's quotient 400^(1-2/q) = 1.10854 lies
        # below the bracket [1.329, 1.345]; the descent converges to it
        rep = sandwich(Params(1, 0.103, 2.0, 2.035), DomainSpec.whole_space(200.0))
        assert rep.note == ("tail mass near truncation boundary; the box cannot reach "
                            "the bracket: a constant field has quotient 1.10854")
        assert not rep.passed

    def test_iteration_cap_note(self, monkeypatch):
        # a descent stopped by its iteration cap says so
        monkeypatch.setattr(varmin, "_MAX_ITERS", 2)
        rep = sandwich(Params(1, 0.25, 2.0, 3.0), DomainSpec.interval(-1.0, 1.0),
                       grid=Grid(half_width=8.0, points=1024))
        assert rep.note == "solver hit its iteration cap"

    def test_default_grid_when_none_given(self):
        p = Params(1, 0.25, 2.0, 3.0)
        dom = DomainSpec.interval(-1.0, 1.0)
        assert sandwich(p, dom) == sandwich(p, dom, grid=default_grid(dom))


class TestSweep:
    def test_empty(self):
        assert sweep([], DomainSpec.whole_space()) == []

    def test_three_point(self):
        plist = [Params(1, 0.25, 2.0, q) for q in (2.5, 3.0, 3.5)]
        reports = sweep(plist, DomainSpec.whole_space(200.0), points=2048)
        assert len(reports) == 3
        assert all(not isinstance(r, Exception) and r.passed for r in reports)

    def test_duplicates_identical(self):
        plist = [Params(1, 0.25, 2.0, 3.0)] * 2
        reports = sweep(plist, DomainSpec.whole_space(200.0), points=1024)
        assert reports[0].numeric.value == reports[1].numeric.value

    def test_errors_recorded_not_raised(self):
        plist = [Params(1, 0.25, 2.0, 3.0), Params(1, 0.6, 2.0, 3.0)]
        reports = sweep(plist, DomainSpec.whole_space(100.0), points=1024)
        assert not isinstance(reports[0], Exception)
        assert isinstance(reports[1], Exception)

    def test_grid_is_built_only_where_a_point_solves(self):
        # p = 1 points solve nothing, so a grid that cannot be built is not
        # read; a p = 2 point needs it, and its refusal ends the sweep
        exact = [Params(1, 0.5, 1.0, 1.5)]
        reports = sweep(exact, DomainSpec.interval(-1.0, 1.0), points=1000)
        assert reports[0].passed and reports[0].note == "exact char-function value"
        with pytest.raises(GridError, match="points must be a power of two"):
            sweep(exact + [Params(1, 0.25, 2.0, 3.0)], DomainSpec.interval(-1.0, 1.0),
                  points=1000)

    def test_points_and_half_width_make_the_default_grid(self):
        plist = [Params(1, 0.25, 2.0, 3.0), Params(1, 0.3, 2.0, 2.5)]
        dom = DomainSpec.interval(-1.0, 1.0)
        assert (sweep(plist, dom, points=1024, half_width=4.0)
                == [sandwich(p, dom, Grid(half_width=4.0, points=1024)) for p in plist])

    @pytest.mark.parametrize("C1,C2,match", [
        (math.nan, 1.0, "C1 must be finite and positive"),
        (1.0, math.inf, "C2 must be finite and nonnegative"),
    ])
    def test_bad_tm_constant_refuses_the_sweep(self, monkeypatch, C1, C2, match):
        # a constant every point would refuse is refused once, before any
        # point; it was recorded as one DomainError per point
        calls = []
        monkeypatch.setattr(varmin, "sandwich", lambda *a, **k: calls.append(a))
        with pytest.raises(DomainError, match=match):
            sweep([Params(1, 0.25, 2.0, 3.0)], DomainSpec.whole_space(), C1=C1, C2=C2)
        assert calls == []

    def test_a_defect_propagates(self, monkeypatch):
        # only a refusal (FracsobError) is recorded per point
        def broken(*args, **kwargs):
            raise ZeroDivisionError("a defect")

        monkeypatch.setattr(varmin, "sandwich", broken)
        with pytest.raises(ZeroDivisionError, match="a defect"):
            sweep([Params(1, 0.25, 2.0, 3.0)], DomainSpec.whole_space())
