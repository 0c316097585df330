"""Model irreducible representations of R⋉R on L²(R⁺, dr/r).

The flow vector field X acts as -r d/dr (equivalently +d/dx on the log
grid; mellin.apply_X, re-exported here) and u1 as multiplication by
sigma*i*r^(-lambda1); the package weighs with (I - u1^2)^(t/2) =
(1 + r^(-2*lambda1))^(t/2).  Rank-two components
(R⋉R², with u2 acting as s0*i*r^(-lambda2)) are out of scope; the u1/u2
multipliers, the flow and the Sobolev norm over generator words live in
tests/rep_algebra.py as a test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingParams, NonFiniteSample
from .grid import HalfLineFunction, LogGrid, _hold, decay_admissible, measured
from .mellin import apply_X  # noqa: F401  X acts alike in every component


@dataclass(frozen=True)
class ModelRepParams:
    """Parameters of one model irreducible component plus the twist m.

    sigma in {+1, -1} is the literal sign multiplying i*r^(-lambda1); the two
    choices are unitarily equivalent.
    """

    sigma: int
    lambda1: float
    m: float

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise MissingParams(f"sigma must be +1 or -1, got {self.sigma}")
        if self.lambda1 == 0:
            raise MissingParams("lambda1 must be nonzero")
        if not self.m > 0:
            raise MissingParams(f"twist m must be positive, got {self.m}")


def _log_weight(grid: LogGrid, lambda1: float) -> np.ndarray:
    """log(1 + r^(-2*lambda1)) on the grid, held on it per lambda1 (read-only).

    With y = 2 lambda1 x it is the softplus max(y, 0) + log1p(e^{-|y|}),
    the form of np.logaddexp(0, y), in whole-array exp and log1p passes;
    e^{-|y|} cannot overflow, and where it underflows the sum is max(y, 0).
    """
    def compute():
        y = 2.0 * lambda1 * grid.x
        log_sq = np.negative(y)
        np.minimum(y, log_sq, out=log_sq)  # -|y|
        with np.errstate(under="ignore"):
            np.exp(log_sq, out=log_sq)
        np.log1p(log_sq, out=log_sq)
        log_sq += np.maximum(y, 0.0, out=y)
        log_sq.flags.writeable = False
        return log_sq

    return _hold(grid, ("log_weight", lambda1), compute)


def _weight(grid: LogGrid, lambda1: float, t: float) -> tuple[np.ndarray, bool]:
    """(1 + r^(-2*lambda1))^(t/2) on the grid and whether it is finite
    everywhere, held on it per (lambda1, t) (read-only)."""
    def compute():
        with np.errstate(over="ignore", under="ignore"):
            weight = np.exp((t / 2.0) * _log_weight(grid, lambda1))
        weight.flags.writeable = False
        return weight, math.isfinite(weight.max())

    return _hold(grid, ("fractional_weight", lambda1, t), compute)


def fractional_weight(f: HalfLineFunction, t: float, p: ModelRepParams) -> HalfLineFunction:
    """(I - u1^2)^(t/2) f = (1 + r^(-2*lambda1))^(t/2) * f, zeroing only
    where f itself is zero."""
    if t == 0:
        return f
    weight, finite = _weight(f.grid, p.lambda1, t)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        values = f.values * weight
    if not finite:  # 0 * inf is NaN where f vanishes
        values = np.where(f.values == 0, 0.0, values)
    return HalfLineFunction(f.grid, values)


def fractional_norm(f: HalfLineFunction, t: float, p: ModelRepParams) -> tuple[float, bool]:
    """||(I - u1^2)^(t/2) f|| and whether it is admissible: finite, with
    weighted samples that pass the line-0 decay test.

    The norm and the decay gate read the profile held on the weighted
    function, which at t = 0 is f itself.  A weight that overflows where f
    is nonzero gives (inf, False); a norm that underflows to 0 on nonzero
    weighted samples is not measured, and gives (nan, False).
    """
    try:
        weighted = fractional_weight(f, t, p)
    except NonFiniteSample:
        return float("inf"), False
    # read before the gate, so that the calls made do not depend on its verdict
    norm = measured(weighted.norm, weighted)
    return norm, bool(decay_admissible(weighted, 0.0) and math.isfinite(norm))


def regularity_norm(f: HalfLineFunction, t: float, p: ModelRepParams) -> float:
    """Fractional-order surrogate ||(I - u1^2)^(t/2) f|| + ||f||.

    Stands in for the order-t Sobolev norm on the right-hand side of bounds;
    equivalent to it up to fixed factors for the model generators.
    """
    return fractional_norm(f, t, p)[0] + measured(f.norm, f)
