"""Every scalar public function refuses a bad argument or returns a normal double.

A seeded sweep: each function is called at base points drawn in range, then
with each numeric argument in turn (the fields of a `Params` included)
replaced by 0, -1, nan, +-inf, the least subnormal, 1e-300 and 1e300, and
N also by 0 and 2.5.  Each call must raise a `FracsobError` or return
values that are all normal positive doubles, and neither may warn; every
such N is refused.
"""
import math
import random
import sys
import warnings

import fracsob.bounds as bounds
import fracsob.constants as constants
import fracsob.pde as pde
import fracsob.rayleigh as rayleigh
from fracsob.bounds import DomainSpec, bounds_for
from fracsob.constants import ConstantValue, Params
from fracsob.errors import FracsobError
from fracsob.rayleigh import Objective, RadialProfile

_BAD = (0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300)
_BAD_N = _BAD + (0, 2.5)

# not swept: classes and enums, the solvers, and the checks that take a Field
# or a profile
_LEFT_OUT = {"Regime", "Params", "ConstantKind", "ConstantValue", "PROVENANCE_KEYS",
             "DomainSpec", "BoundPair", "Objective", "gagliardo_seminorm_1d",
             "pohozaev_defect", "check_weight_hypotheses", "check_potential_hypotheses",
             "GroundStateReport", "ground_state_solve"}


def _s(rng):
    return rng.uniform(0.05, 0.45)


def _hilbert(rng):
    """(N, s, p, q) in the Hilbert regime with q > 2."""
    N, s = rng.choice((1, 2, 3)), _s(rng)
    return N, s, 2.0, 2.0 + (2.0 * N / (N - 2.0 * s) - 2.0) * rng.uniform(0.1, 0.9)


def _borderline(rng):
    N, s = rng.choice((1, 2, 3)), _s(rng)
    return N, s, 1.0, 1.0 + (N / (N - s) - 1.0) * rng.uniform(0.1, 0.9)


def _limiting(rng):
    return 1, 0.5, 2.0, rng.uniform(2.5, 8.0)


def _objective(rng, radii):
    """An objective, a point of its regime and, where `radii`, its k and K
    (the Moser ball needs K <= 1, both Moser objectives K > k)."""
    which = rng.choice(list(Objective))
    point = {Objective.CHAR_BALL: _borderline, Objective.BUMP: _hilbert,
             Objective.MOSER_BALL: _limiting, Objective.MOSER_LINE: _limiting}[which](rng)
    if not radii:
        return (which,) + point
    moser = which in (Objective.MOSER_BALL, Objective.MOSER_LINE)
    K = rng.uniform(0.5, 1.0) if moser else None
    return (which,) + point + (rng.uniform(0.05, 0.3), K)


# name -> (the call from its arguments, the positions of N, a draw of a base point)
_CALLS = {
    "unit_ball_volume": (constants.unit_ball_volume, (0,),
                         lambda r: (r.choice((1, 2, 3, 7)),)),
    "classical_sobolev": (constants.classical_sobolev, (0,),
                          lambda r: (r.choice((3, 4)), r.uniform(1.2, 2.8))),
    "isoperimetric": (constants.isoperimetric, (0,), lambda r: (r.choice((1, 2, 5)),)),
    "hardy_sobolev_A": (constants.hardy_sobolev_A, (0,), lambda r: _hilbert(r)[:2]),
    "frac_isoperimetric": (constants.frac_isoperimetric, (0,), lambda r: _hilbert(r)[:2]),
    "lieb_constant": (constants.lieb_constant, (0,), lambda r: _hilbert(r)[:2]),
    "norm_bridge": (constants.norm_bridge, (0,), lambda r: _hilbert(r)[:2]),
    "frac_sobolev_hilbert": (constants.frac_sobolev_hilbert, (0,),
                             lambda r: _hilbert(r)[:2]),
    "mazya_lower": (constants.mazya_lower, (0,), lambda r: _hilbert(r)[:3]),
    "lieb_loss_lower": (constants.lieb_loss_lower, (), lambda r: (_limiting(r)[3],)),
    "dilation_transfer": (
        lambda S, lam, N, s, p, q: bounds.dilation_transfer(S, lam, Params(N, s, p, q)),
        (2,), lambda r: (r.uniform(0.5, 3.0), r.uniform(0.2, 5.0)) + _hilbert(r)),
    "young_lower": (bounds.young_lower, (), lambda r: (r.uniform(0.1, 0.9),
                                                       r.uniform(0.5, 3.0))),
    "bounds_for": (
        lambda N, s, p, q, R, C1, C2: (
            bounds_for(Params(N, s, p, q), DomainSpec.ball(R, N), C1, C2),
            bounds_for(Params(N, s, p, q), DomainSpec.whole_space(R, N), C1, C2)),
        (0,), lambda r: r.choice((_hilbert, _borderline, _limiting))(r)
        + (r.uniform(0.5, 3.0), r.uniform(0.5, 3.0), r.uniform(0.5, 3.0))),
    "RadialProfile": (
        lambda k, s: (RadialProfile.char_ball(k), RadialProfile.bump(k, s)),
        (), lambda r: (r.uniform(0.2, 5.0), _s(r))),
    "bump_seminorm_sq": (rayleigh.bump_seminorm_sq, (0,),
                         lambda r: _hilbert(r)[:2] + (r.uniform(0.2, 5.0),)),
    "bump_lq_norm": (rayleigh.bump_lq_norm, (0,),
                     lambda r: _hilbert(r)[:2] + (r.uniform(1.0, 6.0), r.uniform(0.2, 5.0))),
    "objective_value": (
        lambda which, N, s, p, q, k, K: rayleigh.objective_value(
            which, Params(N, s, p, q), k, K), (1,), lambda r: _objective(r, True)),
    "objective_minimizer": (
        lambda which, N, s, p, q: rayleigh.objective_minimizer(which, Params(N, s, p, q)),
        (1,), lambda r: _objective(r, False)),
    "moser_bound_check": (rayleigh.moser_bound_check, (),
                          lambda r: (r.uniform(0.01, 0.3), r.uniform(0.5, 1.0))),
    "ps_level": (pde.ps_level, (), lambda r: (_limiting(r)[3], r.uniform(0.5, 3.0))),
    "existence_thresholds": (pde.existence_thresholds, (),
                             lambda r: (_limiting(r)[3], r.uniform(0.5, 3.0))),
    "growth_coefficient": (pde.growth_coefficient, (),
                           lambda r: (_limiting(r)[3], r.uniform(0.5, 3.0))),
    "nonlinearity_threshold": (
        pde.nonlinearity_threshold, (0,),
        lambda r: r.choice(((2, _s(r)), (1, 0.5))) + (r.uniform(2.5, 6.0),
                                                       r.uniform(0.5, 3.0))),
    "coupling_alpha": (pde.coupling_alpha, (0,),
                       lambda r: _hilbert(r)[:2] + (_hilbert(r)[3], r.uniform(0.5, 3.0))),
    "coupling_lambda_interval": (pde.coupling_lambda_interval, (),
                                 lambda r: (r.uniform(0.1, 0.9),)),
}


def test_every_scalar_public_function_is_swept():
    public = set()
    for module in (constants, bounds, rayleigh, pde):
        public |= set(module.__all__)
    assert public - _LEFT_OUT == set(_CALLS)


def _numbers(result):
    """The float values in a result: a constant's value, both ends of a
    bracket, and the entries of tuples; a profile carries none."""
    if isinstance(result, ConstantValue):
        return [result.value]
    if isinstance(result, bounds.BoundPair):
        return [result.lower.value, result.upper.value]
    if isinstance(result, tuple):
        return [v for item in result for v in _numbers(item)]
    if isinstance(result, RadialProfile):
        return []
    return [result]


def _cases():
    rng = random.Random(0)
    for name, (call, n_args, draw) in _CALLS.items():
        for _ in range(2):
            yield name, call, draw(rng), n_args


def _run(call, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(*args)
        except FracsobError:
            return None
    return _numbers(result)


def test_every_bad_argument_is_refused_or_gives_normal_doubles():
    bad = []
    for name, call, base, n_args in _cases():
        values = _run(call, base)   # the base point is in range
        assert values is not None and all(
            sys.float_info.min <= v < math.inf for v in values), (name, base)
        for i, value in enumerate(base):
            if not isinstance(value, (int, float)):   # an objective, or no K
                continue
            for x in _BAD_N if i in n_args else _BAD:
                args = base[:i] + (x,) + base[i + 1:]
                try:
                    values = _run(call, args)
                except Exception as exc:   # a raw exception or a warning
                    bad.append(f"{name}{args}: {type(exc).__name__}: {exc}")
                    continue
                if i in n_args and values is not None:   # N is an int >= 1
                    bad.append(f"{name}{args} returned {values}")
                elif values is not None and not all(
                        sys.float_info.min <= v < math.inf for v in values):
                    bad.append(f"{name}{args} returned {values}")
    assert bad == []
