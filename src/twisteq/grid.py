"""Log-coordinate grids and weighted norms for functions on the half-line.

Functions on (0, inf) carrying the measure dr/r are stored as samples on a
uniform grid in x = -log r.  Under this substitution the measure becomes dx,
weights r^(-a) become exponentials e^(a x), vertical-line Mellin transforms
become Fourier transforms, and the scaling flow becomes a shift.  All norms
and integrals use trapezoidal quadrature in x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridMismatch, InvalidGrid, NonFiniteSample

# Endpoint-dominance threshold for the decay-admissibility predicate: a
# weighted sample profile whose boundary values reach this fraction of its
# maximum is treated as non-decaying (divergent weighted integral).
DECAY_TOL = 0.5

# Relative mass below which a truncated boundary tail counts as machine noise.
MACHINE_TAIL_TOL = 1e-10

MIN_POINTS = 16


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in x = -log r; r_j = exp(-x_j) is strictly decreasing."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < MIN_POINTS:
            raise InvalidGrid(f"n_points must be >= {MIN_POINTS}, got {self.n_points}")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InvalidGrid("x_min and x_max must be finite")
        if not self.x_min < self.x_max:
            raise InvalidGrid(f"x_min < x_max required, got [{self.x_min}, {self.x_max}]")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        x = self.x_min + self.h * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def r(self) -> np.ndarray:
        r = np.exp(-self.x)
        r.flags.writeable = False
        return r


def make_log_grid(n_points: int, x_min: float, x_max: float) -> LogGrid:
    return LogGrid(int(n_points), float(x_min), float(x_max))


def default_grid() -> LogGrid:
    """Default experiment grid: 4096 points on x in [-12, 12]."""
    return LogGrid(4096, -12.0, 12.0)


@dataclass(frozen=True, eq=False)
class HalfLineFunction:
    """Complex samples f(r_j) of a function on the half-line."""

    grid: LogGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise InvalidGrid(
                f"values shape {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteSample("values contain NaN or Inf")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "HalfLineFunction":
        return HalfLineFunction(self.grid, values)


def sample(expr: Callable[[np.ndarray], np.ndarray], grid: LogGrid) -> HalfLineFunction:
    """Evaluate a pointwise expression of r on the grid nodes."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        values = np.asarray(expr(grid.r), dtype=np.complex128)
    values = np.broadcast_to(values, (grid.n_points,))
    if not np.all(np.isfinite(values)):
        raise NonFiniteSample("expression produced NaN or Inf on the grid")
    return HalfLineFunction(grid, values)


def trapezoid(samples: np.ndarray, h: float) -> float | complex:
    """Trapezoidal quadrature on the uniform x grid."""
    return (samples.sum() - 0.5 * (samples[0] + samples[-1])) * h


def weighted_samples(f: HalfLineFunction, a: float) -> np.ndarray:
    """|f(r_j) r_j^{-a}| = |f| e^{a x} on the grid."""
    with np.errstate(over="ignore", under="ignore"):
        return np.abs(f.values) * np.exp(a * f.grid.x)


def weighted_norm(f: HalfLineFunction, a: float) -> float:
    """L2(dr/r) norm of f * r^{-a}, i.e. the trapezoid of |f|^2 e^{2ax} in x.

    May overflow to +Inf for weights far outside the decay range of f; callers
    report rather than reject such values.
    """
    w = weighted_samples(f, a)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = w * w
        if np.isinf(sq).any():
            return float("inf")
        val = trapezoid(sq, f.grid.h)
    return float(np.sqrt(val))


def base_norm(f: HalfLineFunction) -> float:
    return weighted_norm(f, 0.0)


def inner(f: HalfLineFunction, g: HalfLineFunction) -> complex:
    """L2(dr/r) inner product <f, g> by trapezoidal quadrature."""
    require_same_grid(f, g)
    return complex(trapezoid(f.values * np.conj(g.values), f.grid.h))


def require_same_grid(f: HalfLineFunction, g: HalfLineFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatch("operands live on different grids")


def lin_comb(
    alpha: complex, f: HalfLineFunction, beta: complex, g: HalfLineFunction
) -> HalfLineFunction:
    """Pointwise alpha*f + beta*g on a shared grid."""
    require_same_grid(f, g)
    return HalfLineFunction(f.grid, alpha * f.values + beta * g.values)


def relative_difference(f: HalfLineFunction, ref: HalfLineFunction) -> float:
    """||f - ref|| / ||ref||, or the plain ||f - ref|| when ||ref|| = 0."""
    diff = base_norm(lin_comb(1.0, f, -1.0, ref))
    ref_n = base_norm(ref)
    return diff / ref_n if ref_n > 0 else diff


def decay_admissible(f: HalfLineFunction, a: float, tol: float = DECAY_TOL) -> bool:
    """Endpoint test for f * r^{-a} in L2(dr/r).

    True when the weighted samples at both grid boundaries stay below
    tol * max; a profile whose boundary value rivals its maximum signals a
    divergent (or unresolved) weighted integral.
    """
    w = weighted_samples(f, a)
    if not np.all(np.isfinite(w)):
        return False
    mx = w.max()
    if mx == 0.0:
        return True
    return bool(w[0] <= tol * mx and w[-1] <= tol * mx)
