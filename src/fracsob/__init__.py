"""Fractional Sobolev embedding constants: exact values, bounds, numerical
estimates, and the PDE thresholds built from them."""

from .bounds import (
    BoundPair,
    DomainSpec,
    bounds_for,
    dilation_transfer,
    young_lower,
)
from .constants import (
    ConstantKind,
    ConstantValue,
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
from .grids import Field, Grid
from .rayleigh import (
    Objective,
    RadialProfile,
    bump_lq_norm,
    bump_seminorm_sq,
    gagliardo_seminorm_1d,
    moser_bound_check,
    objective_minimizer,
    objective_value,
)
from .varmin import SandwichReport, minimize_quotient, sandwich, sweep
from .pde import (
    coupling_alpha,
    coupling_lambda_interval,
    existence_thresholds,
    ground_state_solve,
    growth_coefficient,
    nonlinearity_threshold,
    pohozaev_defect,
    ps_level,
)

__version__ = "0.1.0"
