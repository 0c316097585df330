"""Generator algebra of the model representations, kept as a test reference.

In a model component on L²(R⁺, dr/r) the flow vector field X acts as
-r d/dr (twisteq.reps.apply_X), u1 as multiplication by sigma*i*r^(-lambda1)
and, for the rank-two group R⋉R², u2 as multiplication by s0*i*r^(-lambda2).
The flow itself acts by dilation f(r) -> f(r/s), an exact bin shift when
log s is a grid multiple.

The package solves with X and weighs with the u1 weight alone, and
rank-two components are out of scope.  The multipliers, the flow, the u2
weight and the Sobolev norm over generator words are therefore kept here,
for the tests of the commutator, skewness and weight identities; the u2
parameters ride on RankTwoParams.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from twisteq.errors import MissingParams
from twisteq.grid import HalfLineFunction, LogGrid, require_same_grid, sample, trapezoid
from twisteq.reps import ModelRepParams, apply_X

# Relative mass below which a truncated boundary tail counts as machine noise.
MACHINE_TAIL_TOL = 1e-10

MAX_SOBOLEV_ORDER = 6


class BinRoundingWarning(UserWarning):
    """A flow time was rounded to the nearest grid bin."""


class TruncationWarning(UserWarning):
    """An operation dropped non-negligible mass at a grid boundary."""


@dataclass(frozen=True)
class RankTwoParams(ModelRepParams):
    """ModelRepParams plus the u2 parameters of a rank-two component.

    s0 and lambda2 are present together exactly for the rank-two group.
    """

    lambda2: float | None = None
    s0: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if (self.s0 is None) != (self.lambda2 is None):
            raise MissingParams("s0 and lambda2 must be given together")
        if self.s0 is not None and self.s0 == 0:
            raise MissingParams("s0 must be nonzero when present")

    @property
    def has_u2(self) -> bool:
        return self.s0 is not None


def _has_u2(p: ModelRepParams) -> bool:
    return isinstance(p, RankTwoParams) and p.has_u2


def inner(f: HalfLineFunction, g: HalfLineFunction) -> complex:
    """L2(dr/r) inner product <f, g> by trapezoidal quadrature."""
    require_same_grid(f, g)
    return complex(trapezoid(f.values * np.conj(g.values), f.grid.h))


def gaussian_log(grid: LogGrid) -> HalfLineFunction:
    """f(r) = exp(-(log r)^2 / 2): a Gaussian in the x coordinate."""
    return sample(lambda r: np.exp(-0.5 * np.log(r) ** 2), grid)


def _imaginary_power_multiply(
    f: HalfLineFunction, scale: complex, exponent: float
) -> HalfLineFunction:
    with np.errstate(over="ignore", under="ignore"):
        values = scale * np.exp(exponent * f.grid.x) * f.values
    values = np.where(f.values == 0, 0.0, values)
    return HalfLineFunction(f.grid, values)


def apply_u1(f: HalfLineFunction, p: ModelRepParams) -> HalfLineFunction:
    """u1 f = sigma * i * r^(-lambda1) * f."""
    return _imaginary_power_multiply(f, 1j * p.sigma, p.lambda1)


def apply_u2(f: HalfLineFunction, p: ModelRepParams) -> HalfLineFunction:
    """u2 f = s0 * i * r^(-lambda2) * f; requires the rank-two parameters."""
    if not _has_u2(p):
        raise MissingParams("apply_u2 needs s0 and lambda2")
    return _imaginary_power_multiply(f, 1j * p.s0, p.lambda2)


def nearest_bin_shift(grid: LogGrid, s: float) -> tuple[int, float]:
    """Bin count closest to log(s)/h and the rounding residual in x units."""
    if not s > 0:
        raise ValueError(f"flow time must be positive, got s={s}")
    exact = np.log(s) / grid.h
    k = int(np.rint(exact))
    return k, float(np.log(s) - k * grid.h)


def flow_action(f: HalfLineFunction, s: float) -> HalfLineFunction:
    """Dilation f(r) -> f(r/s), a shift by log(s) in x.

    log(s) is rounded to the nearest whole number of bins (warning when the
    rounding is non-negligible); bins shifted past the boundary are dropped
    and vacated bins are zero-filled, with a warning when the dropped mass
    is above machine-tail level.
    """
    k, rounding = nearest_bin_shift(f.grid, s)
    if abs(rounding) > 1e-12 * max(1.0, abs(np.log(s))):
        warnings.warn(
            f"flow time log(s)={np.log(s):.6g} rounded to {k} bins "
            f"(residual {rounding:.3e})",
            BinRoundingWarning,
            stacklevel=2,
        )
    n = f.grid.n_points
    values = np.zeros(n, dtype=np.complex128)
    if k >= 0:
        values[: n - k] = f.values[k:]
        dropped = f.values[:k]
    else:
        values[-k:] = f.values[: n + k]
        dropped = f.values[n + k :]
    total = f.norm
    if total > 0 and dropped.size:
        lost = np.sqrt(float(np.sum(np.abs(dropped) ** 2)) * f.grid.h)
        if lost > MACHINE_TAIL_TOL * total:
            warnings.warn(
                f"flow shift dropped boundary mass {lost:.3e} (relative {lost/total:.3e})",
                TruncationWarning,
                stacklevel=2,
            )
    return HalfLineFunction(f.grid, values)


def fractional_weight_u2(f: HalfLineFunction, t: float, p: ModelRepParams) -> HalfLineFunction:
    """(I - u2^2)^(t/2) f = (1 + s0^2 r^(-2*lambda2))^(t/2) * f, zeroing only
    where f itself is zero."""
    if not _has_u2(p):
        raise MissingParams("fractional_weight_u2 needs s0 and lambda2")
    if t == 0:
        return f
    log_sq = np.logaddexp(0.0, 2.0 * np.log(abs(p.s0)) + 2.0 * p.lambda2 * f.grid.x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        weight = np.exp((t / 2.0) * log_sq)
        values = f.values * weight
    if not np.isfinite(weight.max()):  # 0 * inf is NaN where f vanishes
        values = np.where(f.values == 0, 0.0, values)
    return HalfLineFunction(f.grid, values)


_GENERATORS = {
    "X": lambda f, p: apply_X(f),
    "u1": apply_u1,
    "u2": apply_u2,
}


def sobolev_norm(
    f: HalfLineFunction,
    k: int,
    p: ModelRepParams,
    generators: tuple[str, ...] = ("X", "u1"),
    max_order: int = MAX_SOBOLEV_ORDER,
) -> float:
    """Order-k Sobolev norm: ||f||^2 plus ||Y_{j1}...Y_{jm} f||^2 over all
    ordered generator words of length 1..k, square-rooted.

    Words are enumerated breadth-first over the requested generators.  k is
    capped (word count grows geometrically); raise max_order to override.
    """
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if k > max_order:
        raise ValueError(f"order {k} exceeds cap {max_order}")
    for name in generators:
        if name not in _GENERATORS:
            raise MissingParams(f"unknown generator {name!r}")
        if name == "u2" and not _has_u2(p):
            raise MissingParams("generator u2 needs s0 and lambda2")
    total = f.norm**2
    layer = {(): f}
    for _ in range(k):
        next_layer = {}
        for word, vec in layer.items():
            for name in generators:
                image = _GENERATORS[name](vec, p)
                next_layer[word + (name,)] = image
                total += image.norm**2
        layer = next_layer
    return float(np.sqrt(total))
