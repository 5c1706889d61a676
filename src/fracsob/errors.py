"""Exception types shared across the package.

Every refusal is a `FracsobError`; each class below is one and keeps its
`ValueError` or `RuntimeError` base.  The CLI reports a refusal as a usage
error (exit 2) and `sweep` records one per point; any other exception is a
defect and propagates.
"""


class FracsobError(Exception):
    """A refusal: the input or the computation is outside what fracsob does."""


class DomainError(FracsobError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(FracsobError, ValueError):
    """Parameters do not fall in the regime required by a bound or solver."""


class QuadratureError(FracsobError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance."""


class ConvergenceError(FracsobError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class GridError(FracsobError, ValueError):
    """Fields live on incompatible grids, or a grid is malformed."""
