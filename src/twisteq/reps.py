"""Model irreducible representations of R⋉R and R⋉R² on L²(R⁺, dr/r).

Derived generators: the flow vector field X acts as -r d/dr (equivalently
+d/dx on the log grid), u1 as multiplication by sigma*i*r^(-lambda1) and,
when present, u2 as multiplication by s0*i*r^(-lambda2).  The flow itself
acts by dilation f(r) -> f(r/s), an exact bin shift when log s is a grid
multiple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BinRoundingWarning, MissingParams, TruncationWarning
from .grid import (
    DECAY_TOL,
    MACHINE_TAIL_TOL,
    HalfLineFunction,
    LogGrid,
    _decays,
    _l2_norm,
    base_norm,
    decay_admissible,
)
from .mellin import _dx

MAX_SOBOLEV_ORDER = 6


@dataclass(frozen=True)
class ModelRepParams:
    """Parameters of one model irreducible component plus the twist m.

    sigma in {+1, -1} is the literal sign multiplying i*r^(-lambda1); the two
    choices are unitarily equivalent.  s0 and lambda2 are present together
    exactly for the rank-two group.
    """

    sigma: int
    lambda1: float
    m: float
    lambda2: float | None = None
    s0: float | None = None

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise MissingParams(f"sigma must be +1 or -1, got {self.sigma}")
        if self.lambda1 == 0:
            raise MissingParams("lambda1 must be nonzero")
        if not self.m > 0:
            raise MissingParams(f"twist m must be positive, got {self.m}")
        if (self.s0 is None) != (self.lambda2 is None):
            raise MissingParams("s0 and lambda2 must be given together")
        if self.s0 is not None and self.s0 == 0:
            raise MissingParams("s0 must be nonzero when present")

    @property
    def has_u2(self) -> bool:
        return self.s0 is not None


def apply_X(f: HalfLineFunction) -> HalfLineFunction:
    """X f = -r d/dr f, computed as +d/dx by spectral differentiation."""
    return HalfLineFunction(f.grid, _dx(f.spectrum, f.grid))


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
    if not p.has_u2:
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
    total = base_norm(f)
    if total > 0 and dropped.size:
        lost = np.sqrt(float(np.sum(np.abs(dropped) ** 2)) * f.grid.h)
        if lost > MACHINE_TAIL_TOL * total:
            warnings.warn(
                f"flow shift dropped boundary mass {lost:.3e} (relative {lost/total:.3e})",
                TruncationWarning,
                stacklevel=2,
            )
    return HalfLineFunction(f.grid, values)


def _stable_power_multiply(
    f: HalfLineFunction, log_sq_mult: np.ndarray, t: float
) -> HalfLineFunction:
    """f times exp((t/2) * log_sq_mult), zeroing only where f itself is zero."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        weight = np.exp((t / 2.0) * log_sq_mult)
        values = f.values * weight
    if not np.isfinite(weight.max()):  # 0 * inf is NaN where f vanishes
        values = np.where(f.values == 0, 0.0, values)
    return HalfLineFunction(f.grid, values)


def _log_weight(grid: LogGrid, lambda1: float) -> np.ndarray:
    """log(1 + r^(-2*lambda1)) on the grid, held on it per lambda1 (read-only)."""
    key = ("log_weight", lambda1)
    log_sq = grid._held.get(key)
    if log_sq is None:
        log_sq = np.logaddexp(0.0, 2.0 * lambda1 * grid.x)
        log_sq.flags.writeable = False
        grid._held[key] = log_sq
    return log_sq


def fractional_weight(f: HalfLineFunction, t: float, p: ModelRepParams) -> HalfLineFunction:
    """(I - u1^2)^(t/2) f = (1 + r^(-2*lambda1))^(t/2) * f."""
    if t == 0:
        return f
    return _stable_power_multiply(f, _log_weight(f.grid, p.lambda1), t)


def fractional_norm(
    f: HalfLineFunction, t: float, p: ModelRepParams, decay_tol: float = DECAY_TOL
) -> tuple[float, bool]:
    """||(I - u1^2)^(t/2) f|| and whether it is admissible: finite, with
    weighted samples that pass the line-0 decay test.

    The norm and the decay test read one |.| pass over the weighted samples;
    at t = 0 they are f's held norm and decay test.
    """
    if t == 0:
        value = f.norm
        decays = decay_admissible(f, 0.0, decay_tol)
    else:
        w = np.abs(fractional_weight(f, t, p).values)
        value = _l2_norm(w, f.grid.h)
        decays = _decays(w, decay_tol)
    return value, bool(decays and np.isfinite(value))


def fractional_weight_u2(f: HalfLineFunction, t: float, p: ModelRepParams) -> HalfLineFunction:
    """(I - u2^2)^(t/2) f = (1 + s0^2 r^(-2*lambda2))^(t/2) * f."""
    if not p.has_u2:
        raise MissingParams("fractional_weight_u2 needs s0 and lambda2")
    if t == 0:
        return f
    log_sq = np.logaddexp(0.0, 2.0 * np.log(abs(p.s0)) + 2.0 * p.lambda2 * f.grid.x)
    return _stable_power_multiply(f, log_sq, t)


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
        if name == "u2" and not p.has_u2:
            raise MissingParams("generator u2 needs s0 and lambda2")
    total = base_norm(f) ** 2
    layer = {(): f}
    for _ in range(k):
        next_layer = {}
        for word, vec in layer.items():
            for name in generators:
                image = _GENERATORS[name](vec, p)
                next_layer[word + (name,)] = image
                total += base_norm(image) ** 2
        layer = next_layer
    return float(np.sqrt(total))


def regularity_norm(f: HalfLineFunction, t: float, p: ModelRepParams) -> float:
    """Fractional-order surrogate ||(I - u1^2)^(t/2) f|| + ||f||.

    Stands in for the order-t Sobolev norm on the right-hand side of bounds;
    equivalent to it up to fixed factors for the model generators.
    """
    return fractional_norm(f, t, p)[0] + base_norm(f)
