"""Uniform periodic 1-D grids and real-valued fields for the spectral solver."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
# numpy >= 2 imports numpy.fft on its first use, through numpy's module
# __getattr__; a signal handler that calls np.fft while that first import
# runs recurses there without bound (RecursionError).  So load it with
# the grids, before any solve.
import numpy.fft  # noqa: F401

from .errors import GridError

__all__ = ["Grid", "Field"]


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L, L) sampled at M equispaced points (M a power of two).

    The frequencies of its real transform are xi_j = j/(2L), j = 0 .. M/2.
    """

    half_width: float
    points: int

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise GridError(
                f"grid half_width must be finite and positive, got {self.half_width}")
        M = self.points
        if M < 2 or (M & (M - 1)) != 0:
            raise GridError(f"points must be a power of two >= 2, got {M}")
        if not math.isfinite(self.spacing):
            raise GridError(f"grid half_width {self.half_width:g} is too large: the "
                            "spacing 2 half_width / points overflows a double")
        if self.spacing < sys.float_info.min:
            raise GridError(f"grid half_width {self.half_width:g} is too small: the "
                            "spacing 2 half_width / points lies below the smallest "
                            "normal double")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def multiplier(self, s: float) -> np.ndarray:
        """|2 pi xi|^(2s) on the M/2 + 1 nonnegative frequencies of a real
        transform (`rfft` order): the half spectrum of a real field.  An s
        whose top entry (pi / spacing)^(2s) overflows a double is refused."""
        with np.errstate(over="ignore"):
            symbol = (2.0 * np.pi * np.fft.rfftfreq(self.points, d=self.spacing)) ** (2.0 * s)
        if not math.isfinite(symbol[-1]):
            raise GridError(f"grid half_width {self.half_width:g} is too small for s={s}: "
                            "the top symbol (pi / spacing)^(2s) overflows a double")
        return symbol


@dataclass
class Field:
    """Real samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.points,):
            raise GridError(
                f"field shape {v.shape} does not match grid with {self.grid.points} points")
        if not np.all(np.isfinite(v)):
            raise GridError("field contains non-finite entries")
        self.values = v

    def same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise GridError("fields live on different grids")
