"""Log-coordinate grids and weighted norms for functions on the half-line.

Functions on (0, inf) carrying the measure dr/r are stored as samples on a
uniform grid in x = -log r.  Under this substitution the measure becomes dx,
weights r^(-a) become exponentials e^(a x), vertical-line Mellin transforms
become Fourier transforms, and the scaling flow becomes a shift.  All norms
and integrals use trapezoidal quadrature in x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .errors import GridMismatch, InvalidGrid, NonFiniteSample

# Endpoint-dominance threshold for the decay-admissibility predicate: a
# weighted sample profile whose boundary values reach this fraction of its
# maximum is treated as non-decaying (divergent weighted integral).
DECAY_TOL = 0.5

MIN_POINTS = 16


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in x = -log r; r_j = exp(-x_j) decreases, to +Inf left of -709.78.

    `_held` keeps arrays derived from the grid and a parameter, by tagged
    key: each weight ("weight", a), and reps.fractional_weight's log-weight
    ("log_weight", lambda1) and weight ("fractional_weight", lambda1, t).
    It enters neither equality nor the hash.
    """

    n_points: int
    x_min: float
    x_max: float
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @cached_property
    def frequencies(self) -> np.ndarray:
        """DFT bin frequencies t_k = 2 pi k/(n h), in FFT bin order."""
        omega = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.h)
        omega.flags.writeable = False
        return omega

    @cached_property
    def i_frequencies(self) -> np.ndarray:
        """The multiplier i t_k of d/dx, in FFT bin order (read-only)."""
        i_omega = 1j * self.frequencies
        i_omega.flags.writeable = False
        return i_omega

    def weight(self, a: float) -> np.ndarray:
        """e^(a x) on the grid, held per a (read-only); +Inf where it overflows."""
        def compute():
            with np.errstate(over="ignore", under="ignore"):
                w = np.exp(a * self.x)
            w.flags.writeable = False
            return w

        return _hold(self, ("weight", a), compute)


def _hold(owner, key: tuple, compute: Callable[[], Any]) -> Any:
    """owner._held[key], computed by compute() on first use; a compute that
    raises holds nothing, so the next use raises again."""
    held = owner._held
    if key not in held:
        held[key] = compute()
    return held[key]


def make_log_grid(n_points: int, x_min: float, x_max: float) -> LogGrid:
    return LogGrid(int(n_points), float(x_min), float(x_max))


def default_grid() -> LogGrid:
    """Default experiment grid: 4096 points on x in [-12, 12]."""
    return LogGrid(4096, -12.0, 12.0)


@dataclass(frozen=True, eq=False)
class HalfLineFunction:
    """Complex samples f(r_j) of a function on the half-line.

    The samples are a private read-only copy, so what depends on them alone
    is computed at most once: the FFT spectrum, and, held in `_held` by a
    tagged key, the profile ("profile", a) of |f| e^{a x} at each weight a,
    which the norm, the sup norm, every weighted norm and every decay test
    read; |f| itself ("abs",) once f is weighed at some a != 0; X f ("X",)
    of mellin.apply_X; and each Mellin solve ("solve", m, lines,
    tolerances) of solver.solve_mellin.
    """

    grid: LogGrid
    values: np.ndarray
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise InvalidGrid(
                f"values shape {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not all_finite(values):
            raise NonFiniteSample("values contain NaN or Inf")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def norm(self) -> float:
        """L2(dr/r) norm: the square root of the trapezoid of |f|^2 in x."""
        return profile(self, 0.0).norm

    @property
    def sup(self) -> float:
        """max |f(r_j)|."""
        return profile(self, 0.0).peak

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only FFT of the samples: the line-0 spectrum of every solve of f.

        Checked for NaN/Inf here, once, so the line-0 lines that share it
        need no scan of their own.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            spectrum = np.fft.fft(self.values)
        if not all_finite(spectrum):
            raise InvalidGrid("Mellin line values contain NaN or Inf")
        spectrum.flags.writeable = False
        return spectrum


def all_finite(values: np.ndarray) -> bool:
    """True when a contiguous complex array holds no NaN and no infinity.

    max and min reduce the float view without a scratch array: a NaN
    propagates through max, and an infinity shows up at one end.
    """
    parts = values.view(np.float64)
    return bool(np.isfinite(parts.max()) and np.isfinite(parts.min()))


def vanishes(f: HalfLineFunction) -> bool:
    """True when every sample is exactly zero."""
    parts = f.values.view(np.float64)
    return parts.max() == parts.min() == 0.0


def sample(expr: Callable[[np.ndarray], np.ndarray], grid: LogGrid) -> HalfLineFunction:
    """Evaluate a pointwise expression of r on the grid nodes."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        values = np.asarray(expr(grid.r), dtype=np.complex128)
    try:
        return HalfLineFunction(grid, np.broadcast_to(values, (grid.n_points,)))
    except NonFiniteSample:
        raise NonFiniteSample("expression produced NaN or Inf on the grid") from None


def trapezoid(samples: np.ndarray, h: float) -> float | complex:
    """Trapezoidal quadrature on the uniform x grid."""
    return (samples.sum() - 0.5 * (samples[0] + samples[-1])) * h


@dataclass(frozen=True)
class Profile:
    """What the gates ask of weighted magnitudes w >= 0 on a grid of spacing h:
    the L2 norm, the peak max w and the larger end value max(w[0], w[-1])."""

    norm: float
    peak: float
    end: float

    @classmethod
    def of(cls, w: np.ndarray, h: float) -> Profile:
        return cls(float(np.sqrt(_energy(w, h))), float(w.max()), float(max(w[0], w[-1])))

    def decays(self, tol: float) -> bool:
        """True when both ends stay below tol * peak; a profile whose end
        rivals its peak signals a divergent (or unresolved) weighted integral.
        A NaN or +Inf anywhere shows in the peak, and fails."""
        if not np.isfinite(self.peak):
            return False
        return self.peak == 0.0 or self.end <= tol * self.peak


def profile(f: HalfLineFunction, a: float) -> Profile:
    """The profile of |f(r_j) r_j^{-a}| = |f| e^{a x}, held on f per a.

    The first weighted profile (a != 0) holds |f| on f, so each further
    weight costs one product; the unweighted profile reads |f| when it is
    held and does not hold it otherwise.
    """
    def compute():
        if a == 0:
            held = f._held.get(("abs",))
            return Profile.of(np.abs(f.values) if held is None else held, f.grid.h)
        # 0 * inf is NaN, which shows in the peak and fails every decay test
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            w = _magnitudes(f) * f.grid.weight(a)
        return Profile.of(w, f.grid.h)

    return _hold(f, ("profile", a), compute)


def _magnitudes(f: HalfLineFunction) -> np.ndarray:
    """|f|, held on f (read-only)."""
    def compute():
        w = np.abs(f.values)
        w.flags.writeable = False
        return w

    return _hold(f, ("abs",), compute)


def _energy(w: np.ndarray, h: float) -> float:
    """Trapezoid of w^2, or +Inf when w^2 overflows; its root is the L2 norm.

    A NaN or overflowing square shows in the sum, so only a sum that is
    not finite is rescanned for an infinite square.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = w * w
        val = trapezoid(sq, h)
        if not np.isfinite(val) and np.isinf(sq).any():
            return float("inf")
    return float(val)


def weighted_norm(f: HalfLineFunction, a: float) -> float:
    """L2(dr/r) norm of f * r^{-a}, i.e. the trapezoid of |f|^2 e^{2ax} in x.

    May overflow to +Inf for weights far outside the decay range of f; callers
    report rather than reject such values.
    """
    return profile(f, a).norm


def base_norm(f: HalfLineFunction) -> float:
    return f.norm


def require_same_grid(f: HalfLineFunction, g: HalfLineFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatch("operands live on different grids")


def lin_comb(
    alpha: complex, f: HalfLineFunction, beta: complex, g: HalfLineFunction
) -> HalfLineFunction:
    """Pointwise alpha*f + beta*g on a shared grid."""
    require_same_grid(f, g)
    return HalfLineFunction(f.grid, alpha * f.values + beta * g.values)


def _difference_norm(diff: np.ndarray, h: float) -> float:
    """L2 norm of a difference taken in one buffer, scanned once for NaN/Inf."""
    if not all_finite(diff):
        raise NonFiniteSample("values contain NaN or Inf")
    return float(np.sqrt(_energy(np.abs(diff), h)))


def relative_difference(f: HalfLineFunction, ref: HalfLineFunction) -> float:
    """||f - ref|| / ||ref||, or the plain ||f - ref|| when ref = 0."""
    require_same_grid(f, ref)
    return relative_to(_difference_norm(f.values - ref.values, f.grid.h), ref)


def _ratio(value: float, scale: float, *refs: HalfLineFunction) -> float:
    """value / scale, or value itself when every ref is zero.

    NaN when scale underflows to 0 on nonzero samples: the quotient is then
    not measured, and must not read as 0.  inf / inf is NaN too.
    """
    if scale > 0:
        with np.errstate(invalid="ignore"):
            return value / scale
    return value if all(map(vanishes, refs)) else float("nan")


def relative_to(value: float, ref: HalfLineFunction) -> float:
    """value / ||ref|| by the ratio rule of _ratio."""
    return _ratio(value, ref.norm, ref)


def decay_admissible(f: HalfLineFunction, a: float, tol: float = DECAY_TOL) -> bool:
    """Endpoint test for f * r^{-a} in L2(dr/r): the held profile at a decays."""
    return profile(f, a).decays(tol)
