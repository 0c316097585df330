"""Log-coordinate grids and weighted norms for functions on the half-line.

Functions on (0, inf) carrying the measure dr/r are stored as samples on a
uniform grid in x = -log r.  Under this substitution the measure becomes dx,
weights r^(-a) become exponentials e^(a x), vertical-line Mellin transforms
become Fourier transforms, and the scaling flow becomes a shift.  All norms
and integrals use trapezoidal quadrature in x.
"""

from __future__ import annotations

import math
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

# Entries held per grid or function: past this many, the oldest is dropped,
# so a long-lived grid solved at many twists stays bounded.
MAX_HELD = 64


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
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
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
        """The half-spectrum's bin frequencies t_k = 2 pi k/(n h), k = 0 ..
        n//2, in np.fft.rfft bin order (read-only).  For even n the last bin
        is the unpaired Nyquist bin, at t = +pi/h."""
        omega = 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.h)
        omega.flags.writeable = False
        return omega

    @cached_property
    def bin_weights(self) -> np.ndarray:
        """How many of the n bins of the full spectrum each half-spectrum bin
        stands for, in rfft bin order (read-only): 1 for the DC bin and for
        an even grid's unpaired Nyquist bin, 2 for every other bin, which
        also stands for its conjugate at -t_k.  They are the weights of
        discrete Parseval over a real row's half-spectrum."""
        weights = np.full(self.n_points // 2 + 1, 2.0)
        weights[0] = 1.0
        if self.n_points % 2 == 0:
            weights[-1] = 1.0
        weights.flags.writeable = False
        return weights

    @cached_property
    def end_phase(self) -> np.ndarray:
        """e^{-2 pi i k/n} for the half-spectrum's bins k (read-only): the
        phase of bin k at the last node x_{n-1}, where the inverse DFT's
        e^{2 pi i k j/n} is e^{-2 pi i k/n}.

        numpy's complex exp is a scalar loop (460 us for the 9601 bins of
        n = 19200), so for k = 128 a + b it is the product of a coarse
        table e^{-2 pi i 128 a/n} and a fine one e^{-2 pi i b/n}: about 200
        exps and one outer product, within a few ulp of the direct exp."""
        n, bins, step = self.n_points, self.n_points // 2 + 1, 128
        coarse = np.exp(-2j * np.pi / n * np.arange(0, bins, step))
        fine = np.exp(-2j * np.pi / n * np.arange(step))
        phase = np.multiply.outer(coarse, fine).ravel()[:bins]
        phase.flags.writeable = False
        return phase

    @cached_property
    def i_frequencies(self) -> np.ndarray:
        """The multiplier i t_k of d/dx, in rfft bin order (read-only), that
        every X of the package reads.  It is 0 in the bins of bin weight 1:
        the DC bin, and an even grid's Nyquist bin, as the mode (-1)^j has
        no derivative at the nodes."""
        i_omega = 1j * self.frequencies
        i_omega[self.bin_weights == 1] = 0
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
    raises holds nothing, so the next use raises again.  At MAX_HELD entries
    the first one held is dropped to make room."""
    held = owner._held
    if key not in held:
        value = compute()  # which may hold on owner itself
        if len(held) >= MAX_HELD:
            del held[next(iter(held))]
        held[key] = value
    return held[key]


def make_log_grid(n_points: int, x_min: float, x_max: float) -> LogGrid:
    return LogGrid(int(n_points), float(x_min), float(x_max))


def default_grid() -> LogGrid:
    """Default experiment grid: 4096 points on x in [-12, 12]."""
    return LogGrid(4096, -12.0, 12.0)


@dataclass(frozen=True, eq=False)
class HalfLineFunction:
    """Samples f(r_j) of a function on the half-line.

    The samples are a private read-only copy: float64 when they are real,
    a complex array whose imaginary part is exactly zero everywhere
    included, and complex128 otherwise.  The package runs the same code on
    either dtype; X, the weights r^{-a} and the division by m + z are real
    operators, so real data stays float64 through every solve.

    As the copy is private, what depends on the samples alone is held in
    `_held` through _hold, by a tagged key: the profile ("profile", a) of
    |f| e^{a x} per weight a, which only this module's norms and decay gate
    read; the line Re z = 0 ("line0",) of mellin.mellin_line; X f ("X",) of
    mellin.apply_X; and each solve ("solve", m, lines) of solver.solve_mellin.
    """

    grid: LogGrid
    values: np.ndarray
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if np.iscomplexobj(values) and values.imag.any():
            values = np.array(values, np.complex128)
        else:
            values = np.array(values.real, np.float64)
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


def all_finite(values: np.ndarray) -> bool:
    """True when a contiguous float or complex array holds no NaN and no infinity.

    max and min reduce the float view without a scratch array: a NaN
    propagates through max, and an infinity shows up at one end.
    """
    parts = values.view(np.float64)
    return math.isfinite(parts.max()) and math.isfinite(parts.min())


def vanishes(f: HalfLineFunction) -> bool:
    """True when every sample is exactly zero."""
    parts = f.values.view(np.float64)
    return parts.max() == parts.min() == 0.0


def sample(expr: Callable[[np.ndarray], np.ndarray], grid: LogGrid) -> HalfLineFunction:
    """Evaluate a pointwise expression of r on the grid nodes."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        values = np.asarray(expr(grid.r))
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
        return cls(math.sqrt(_energy(w, h)), float(w.max()), float(max(w[0], w[-1])))

    def decays(self) -> bool:
        """True when both ends stay below DECAY_TOL * peak; a profile whose
        end rivals its peak signals a divergent (or unresolved) weighted
        integral.  A NaN or +Inf anywhere shows in the peak, and fails."""
        if not math.isfinite(self.peak):
            return False
        return self.peak == 0.0 or self.end <= DECAY_TOL * self.peak


def profile(f: HalfLineFunction, a: float) -> Profile:
    """The profile of |f(r_j) r_j^{-a}| = |f| e^{a x}, held on f per a."""
    def compute():
        w = np.abs(f.values)
        if a != 0:
            # 0 * inf is NaN, which shows in the peak and fails every decay test
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                w *= f.grid.weight(a)
        return Profile.of(w, f.grid.h)

    return _hold(f, ("profile", a), compute)


def _energy(w: np.ndarray, h: float) -> float:
    """Trapezoid of w^2, or +Inf when w^2 overflows; its root is the L2 norm.

    A NaN or overflowing square shows in the sum, so only a sum that is
    not finite is rescanned for an infinite square.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = w * w
        val = trapezoid(sq, h)
        if not math.isfinite(val) and np.isinf(sq).any():
            return float("inf")
    return float(val)


def weighted_norm(f: HalfLineFunction, a: float) -> float:
    """L2(dr/r) norm of f * r^{-a}, i.e. the trapezoid of |f|^2 e^{2ax} in x.

    May overflow to +Inf for weights far outside the decay range of f; callers
    report rather than reject such values.
    """
    return profile(f, a).norm


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
    """L2 norm of a difference taken in one buffer; +Inf when its squares
    overflow.  A NaN or Inf sample makes the energy non-finite, so only
    then is diff scanned, and NonFiniteSample raised."""
    energy = _energy(np.abs(diff), h)
    if not math.isfinite(energy) and not all_finite(diff):
        raise NonFiniteSample("values contain NaN or Inf")
    return math.sqrt(energy)


def relative_difference(f: HalfLineFunction, ref: HalfLineFunction) -> float:
    """||f - ref|| / ||ref||, or the plain ||f - ref|| when ref = 0."""
    require_same_grid(f, ref)
    return relative_to(_difference_norm(f.values - ref.values, f.grid.h), ref)


def measured(norm: float, *refs: HalfLineFunction) -> float:
    """norm as reported: NaN when it is 0 but some ref has nonzero samples.

    A norm that underflows to 0 on nonzero samples is not measured, and
    must not read as 0, whether it is reported or divides another value.
    Only a norm of 0 is checked against the samples.
    """
    if norm == 0 and not all(map(vanishes, refs)):
        return float("nan")
    return norm


def _ratio(value: float, scale: float, *refs: HalfLineFunction) -> float:
    """value / scale, or value itself when every ref is zero.

    NaN when scale is not measured, by the rule of measured: the quotient
    is then not measured either.  inf / inf is NaN too.
    """
    scale = measured(scale, *refs)
    if scale > 0:  # float division: inf on overflow, inf / inf NaN, no warning
        return float(value) / float(scale)
    return value if scale == 0 else float("nan")


def relative_to(value: float, ref: HalfLineFunction) -> float:
    """value / ||ref|| by the ratio rule of _ratio."""
    return _ratio(value, ref.norm, ref)


def decay_admissible(f: HalfLineFunction, a: float) -> bool:
    """Endpoint test for f * r^{-a} in L2(dr/r), the one decay gate: the
    held profile at a decays."""
    return profile(f, a).decays()
