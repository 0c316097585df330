"""Solvers for the twisted equation (X + m) f = g and its diagnostics.

Two independent routes are provided:

* the Mellin construction: divide the line transform by (m + z) and invert
  (primary contour Re z = 0, where |m + it| >= m keeps the division
  pole-free), plus inversions along further lines for the coincidence test,
  all of a solve's lines inverted in one batch;
* the semigroup/resolvent quadrature f(r) = r^m * integral_r^inf
  g(rho) rho^(-m-1) d rho, an oracle that never touches Fourier space.

The obstruction functional D(g) = M(g, -m) is evaluated by direct
quadrature, and only where it is read: by the dichotomy gate of a solve
whose lines may come near the pole -m, and by the reports that carry it
(reported_obstruction).  Estimates of the weighted norms
||(I-u1^2)^(t/2) f|| against their bound classes are collected by
estimate_sweep.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBump, NotAdmissible, PoleOnLine, ZeroTwist
from .grid import (
    HalfLineFunction,
    _difference_norm,
    _hold,
    _ratio,
    decay_admissible,
    lin_comb,
    measured,
    relative_to,
    require_same_grid,
    trapezoid,
    weighted_norm,
)
from .mellin import (
    MellinLine,
    _flow_defect_norm,
    checked_line,
    line_admissible,
    mellin_inverse_lines,
    mellin_line,
    mellin_lines,
)
from .reps import ModelRepParams, fractional_norm, regularity_norm

_SQRT2PI = math.sqrt(2.0 * math.pi)
# the smallest normal float, np.finfo(float).tiny
_TINY = sys.float_info.min

# The gates of the dichotomy: a line may pass within EPS_POLE of the pole -m
# only when |D(g)| is at most OBSTRUCTION_TOL relative to the sup norm of g.
EPS_POLE = 0.05
OBSTRUCTION_TOL = 1e-9
DEFAULT_ADMISSIBILITY_MARGIN = 0.05


@dataclass(frozen=True)
class WeightedNormEntry:
    """One weighted-norm diagnostic row of a solve report."""

    t: float
    value: float
    bound_class: str
    admissible: bool


@dataclass(frozen=True, eq=False)
class SolveReport:
    """What solve_mellin measures of a solve: the line-0 solution, its
    residual, m ||f|| / ||g||, the weighted norms of t_list, the coincidence
    defect of the further lines and the weighted-norm flags.  D(g) is not
    part of it; reported_obstruction gives it and its flag."""

    solution: HalfLineFunction
    residual: float
    base_norm_ratio: float
    weighted_norms: tuple[WeightedNormEntry, ...]
    coincidence_defect: float
    flags: tuple[str, ...]


def magnitude(d: complex) -> float:
    """|d| by libm's hypot, which abs(d) calls too, so NaN for a NaN part and
    +Inf on overflow: CPython's complex abs() raises OverflowError there,
    and on a NaN part whenever a stale ERANGE is left in errno."""
    with np.errstate(over="ignore"):
        return float(np.hypot(d.real, d.imag))


def obstructed(g: HalfLineFunction, d: complex) -> bool:
    """Whether |D(g)| = |d| exceeds OBSTRUCTION_TOL relative to the sup norm of g.

    An undefined (NaN) obstruction is not obstructed."""
    return magnitude(d) > OBSTRUCTION_TOL * max(g.sup, _TINY)


def obstruction(g: HalfLineFunction, p: ModelRepParams) -> float | complex:
    """D(g) = M(g, -m) by direct quadrature of (2 pi)^(-1/2) g(r) r^(-m-1) dr:
    real for real samples, complex for complex ones.

    Defined only for data with regularity beyond m/lambda1: on both edges of
    the strip -m - DEFAULT_ADMISSIBILITY_MARGIN <= Re z <= 0, g must pass the
    decay test and have a finite weighted norm at the edge.  NotAdmissible
    names the first failing edge.
    """
    m = p.m
    for edge in (-m - DEFAULT_ADMISSIBILITY_MARGIN, 0.0):
        if not decay_admissible(g, -edge):
            raise NotAdmissible(
                f"obstruction undefined: non-decaying weighted samples at edge {edge}"
            )
        if not math.isfinite(weighted_norm(g, -edge)):
            raise NotAdmissible(f"obstruction undefined: weighted norm overflows at edge {edge}")
    integrand = g.values * g.grid.weight(m)
    return trapezoid(integrand, g.grid.h) / _SQRT2PI


def reported_obstruction(
    g: HalfLineFunction, p: ModelRepParams
) -> tuple[complex, tuple[str, ...]]:
    """D(g) and the flags a report carries with it: (NaN,
    ("obstruction-undefined",)) where obstruction raises NotAdmissible."""
    try:
        return obstruction(g, p), ()
    except NotAdmissible:
        return complex("nan"), ("obstruction-undefined",)


def project_obstruction(
    g: HalfLineFunction, p: ModelRepParams, bump: HalfLineFunction
) -> HalfLineFunction:
    """g minus the bump scaled to cancel the obstruction exactly."""
    d_bump = obstruction(bump, p)
    if not obstructed(bump, d_bump):
        raise DegenerateBump("bump has (near-)zero obstruction")
    d_g = obstruction(g, p)
    return lin_comb(1.0, g, -d_g / d_bump, bump)


def solve_semigroup(g: HalfLineFunction, m: float) -> HalfLineFunction:
    """Resolvent quadrature f(r) = r^m * integral_r^inf g(rho) rho^(-m-1) drho.

    In log coordinates this is the exponentially weighted cumulative integral
    F(x) = e^(-m x) * integral_{-inf}^x G(y) e^(m y) dy, accumulated by
    trapezoid from the large-r end with an Euler-Maclaurin endpoint
    correction (finite-difference derivative, keeping the route free of
    Fourier machinery).  F has the dtype of g's samples: float64 for real
    data, complex128 otherwise.
    """
    if not m > 0:
        raise ZeroTwist(f"semigroup solve needs m > 0, got {m}")
    grid = g.grid
    h = grid.h
    x = grid.x
    G = g.values
    n = grid.n_points
    # One scaled cumulative sum per block k = rint(m x / 600): block k is
    # weighed by e^{m(x - 600 k/m)}, which stays within e^{+-300}, and takes
    # the previous block's integral over into its own scale.  The block
    # holding x = 0 is weighed by e^{m x} itself.  The arrays are updated in
    # place to keep the working set small; each complex product keeps its
    # operand order (G * scale, psi[0] * damp), because swapping the
    # operands of a complex product can change its last bit.
    w = 600.0 / m  # the width of a block in x
    F = np.empty(n, dtype=G.dtype)
    F[0] = 0.0
    start = 0
    # a twist too large for the grid overflows a block's weight: the NaN or
    # Inf it leaves is refused by HalfLineFunction below
    with np.errstate(all="ignore"):
        while start < n:
            k = np.rint(x[start] / w)
            edge = ((k + 0.5) * w - grid.x_min) / h  # first index past block k
            stop = n if not edge < n else max(start + 1, math.ceil(edge))
            lo = max(start - 1, 0)
            scale = x[lo:stop] - k * w
            scale *= m
            np.exp(scale, out=scale)
            Ge = G[lo:stop] * scale
            step = 0.5 * h * (Ge[1:] + Ge[:-1])
            if start:
                step[0] += F[start - 1] * scale[0]
            np.cumsum(step, out=F[lo + 1 : stop])
            # numpy divides by s + 0j as a product with 1/s, so this keeps
            # every value (only a zero's sign may differ)
            F[lo + 1 : stop] *= np.divide(1.0, scale[1:], out=scale[1:])
            start = stop
    # Euler-Maclaurin h^2 endpoint correction, evaluated in scaled form:
    # the boundary term at x_j is (G' + m G)(x_j); the one at x_0 arrives
    # damped by e^{m(x_0 - x_j)}.
    psi = _fd_derivative(G, h)
    psi += m * G
    with np.errstate(all="ignore"):  # e^{-inf} = 0 damps exactly
        damp = np.exp(m * (grid.x_min - x))
    psi -= psi[0] * damp
    psi *= h * h / 12.0
    F -= psi
    return HalfLineFunction(grid, F)


def _fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central differences with zero-padded ends."""
    padded = np.concatenate((np.zeros(2, values.dtype), values, np.zeros(2, values.dtype)))
    out = np.negative(padded[4:])
    eight = np.multiply(8.0, padded[3:-1])
    out += eight
    np.multiply(8.0, padded[1:-3], out=eight)
    out -= eight
    out += padded[:-4]
    out /= 12.0 * h
    return out


def residual(f: HalfLineFunction, g: HalfLineFunction, m: float) -> float:
    """Relative defect ||(X+m)f - g|| / ||g|| of the samples of f, the
    trapezoid norm in x of the defect at the nodes, where X is d/dx by the
    multiplier grid.i_frequencies (as in mellin.spectral_dx).

    The norm is taken from the defect's half-spectrum by discrete Parseval
    (mellin._flow_defect_norm): one forward transform of f, which is not
    held, and g's held spectrum, and no inverse.  It agrees with the norm
    of spectral_dx(f) + m f - g at the nodes up to rounding.  A defect with
    NaN or Inf raises NonFiniteSample.
    """
    require_same_grid(f, g)
    return relative_to(_flow_defect_norm(f, g, m), g)


def _defect(xf: np.ndarray, f: HalfLineFunction, g: HalfLineFunction, m: float) -> float:
    """||(X+m)f - g|| / ||g||, given the scratch array xf = X f at the nodes.

    X f + m f - g is accumulated in xf, which is first promoted to complex
    when f or g is complex.
    """
    defect = xf.astype(np.result_type(xf, f.values, g.values), copy=False)
    # a twist too large for f overflows here: the NaN or Inf it leaves is
    # refused by _difference_norm below
    with np.errstate(over="ignore", invalid="ignore"):
        defect += m * f.values
        defect -= g.values
    return relative_to(_difference_norm(defect, f.grid.h), g)


def divide_line(g_line: MellinLine, m: float, out: np.ndarray | None = None) -> MellinLine:
    """The line of M(g, z)/(m + z): the transform of the solution along Re z = a,
    each row divided bin by bin, written into `out` when it is given.

    Raises PoleOnLine on the line a = -m, where m + z vanishes at t = 0.
    """
    if m + g_line.a == 0:
        raise PoleOnLine(f"line Re z = {g_line.a} passes through the pole -m = {-m}")
    if out is None:
        out = np.empty_like(g_line.spectrum)
    out.real = m + g_line.a  # m + z in every row
    out.imag = g_line.grid.frequencies
    ratio = np.divide(g_line.spectrum, out, out=out)  # m + z is not needed after this
    return checked_line(g_line.a, g_line.grid, ratio)


def solve_mellin(
    g: HalfLineFunction,
    p: ModelRepParams,
    s: float | None = None,
    lines: tuple[float, ...] = (0.0,),
    t_list: tuple[float, ...] = (),
) -> SolveReport:
    """Solve (X + m) f = g by spectral division along vertical lines.

    The solution is the inversion of M(g, z)/(m + z) along Re z = 0, where
    the divisor never vanishes.  Every further requested line is inverted
    and compared against it (coincidence test); lines within EPS_POLE of the
    pole -m are rejected unless the measured obstruction is below tolerance,
    mirroring the dichotomy the obstruction encodes.  Lines beyond the pole
    are meaningful only when the grid window is wide enough for the weighted
    data; the admissibility gate rejects unresolved requests.

    D(g) is evaluated only for that gate, in a solve whose lines include one
    other than 0 or whose twist puts line 0 itself within EPS_POLE of -m;
    the report does not carry it (see reported_obstruction).

    t_list adds weighted-norm diagnostics ||(I-u1^2)^(t/2) f||, each tagged
    with its bound class and an admissibility flag.

    X acts as -r d/dr whatever lambda1 is, so the solve depends on g, m and
    the lines alone, and lambda1 and s reach only the weighted norms.  The
    report without them is held on g per (m, lines), and reports that share
    it share one read-only solution; with an empty t_list the held report
    itself is returned.  A solve that raises is not held.
    """
    lines = tuple(lines)
    held = _hold(g, ("solve", p.m, lines), lambda: _solve(g, p, lines))
    if not t_list:
        return held
    flags = []
    entries = []
    for t in t_list:
        value, admissible = fractional_norm(held.solution, t, p)
        if not admissible:
            flags.append(f"weighted-norm-t={t:g}-not-admissible")
        entries.append(WeightedNormEntry(float(t), value, bound_class(t, p, s), admissible))
    return dataclasses.replace(held, weighted_norms=tuple(entries), flags=tuple(flags))


def _solve(g: HalfLineFunction, p: ModelRepParams, lines: tuple[float, ...]) -> SolveReport:
    """The report of solve_mellin with an empty t_list: the gates, the
    line-0 solve and the coincidence lines.  Of p only the twist m is read.

    D(g) is evaluated for the pole gate exactly when some line other than 0
    is inverted or m < EPS_POLE puts line 0 itself near -m.  The choice
    rests on the line set and m, not on which line lies near -m, so a
    solve's work does not depend on where its lines fall.  One
    mellin_inverse_lines call inverts every entry, each as many real rows
    as g has: the divided line-0 spectrum Q, i t Q (the residual's X base),
    then the divided coincidence lines of one mellin_lines call, in line
    order.  The X base reads the one multiplier of d/dx,
    LogGrid.i_frequencies, so the report's residual is the residual of its
    solution.
    """
    m = p.m
    for a in lines:
        if not line_admissible(g, a):
            raise NotAdmissible(f"g lacks decay for the requested line Re z = {a}")
    others = tuple(a for a in lines if a != 0.0)
    if others or m < EPS_POLE:
        d_val, undefined = reported_obstruction(g, p)
        pole_excluded = obstructed(g, d_val) or bool(undefined)
        for a in lines:
            if abs(a + m) < EPS_POLE and pole_excluded:
                raise PoleOnLine(
                    f"line Re z = {a} passes within {EPS_POLE} of the pole -m = {-m} "
                    f"while the obstruction is not negligible"
                )

    grid = g.grid
    found = mellin_lines([(g, a) for a in others])
    line0 = mellin_line(g, 0.0)
    quotients = np.empty((len(others) + 2, *line0.spectrum.shape), np.complex128)
    divide_line(line0, m, out=quotients[0])
    np.multiply(quotients[0], grid.i_frequencies, out=quotients[1])
    for entry in quotients[2:]:
        # popped, so the forward spectra are freed before the inverse call
        divide_line(found.pop(0), m, out=entry)
    values = mellin_inverse_lines(quotients, (0.0, 0.0, *others), grid)
    del quotients
    # its own copy: values[0] is a view into the inverse batch, which a
    # held solution must not pin
    base = HalfLineFunction(grid, values[0])
    base_residual = _defect(values[1], base, g, m)
    defects = [relative_to(_difference_norm(row - base.values, grid.h), base) for row in values[2:]]
    # np.max, unlike max(), keeps a NaN defect
    coincidence = float(np.max(defects)) if defects else 0.0

    return SolveReport(
        solution=base,
        residual=base_residual,
        base_norm_ratio=relative_to(m * measured(base.norm, base), g),
        weighted_norms=(),
        coincidence_defect=coincidence,
        flags=(),
    )


def bound_class(t: float, p: ModelRepParams, s: float | None) -> str:
    """Classify which estimate regime governs ||(I-u1^2)^(t/2) f||.

    Contracting (lambda1 < 0) and subcritical (t*lambda1 < m) weights obey
    the explicit resolvent bound with factor (m - t*lambda1)^(-1); above the
    critical weight the two-regime split compares |t*lambda1 - m| with the
    strip margin.
    """
    if t == 0:
        return "base"
    lam = p.lambda1
    m = p.m
    if lam < 0 or t * lam < m:
        return "resolvent"
    eps = min(0.5, m / 2.0)
    if s is not None and s * lam > m:
        eps = min(eps, (s * lam - m) / 2.0)
    return "regular" if abs(t * lam - m) >= eps else "near-critical"


@dataclass(frozen=True)
class EstimateRow:
    """One (t, weighted norm) row of an estimate sweep."""

    t: float
    lhs: float
    rhs: float
    bound_class: str
    ratio: float
    admissible: bool


def estimate_sweep(
    g: HalfLineFunction, p: ModelRepParams, s: float, t_grid: tuple[float, ...]
) -> list[EstimateRow]:
    """Tabulate ||(I-u1^2)^(t/2) f|| against its bound class for each t.

    rhs is the fractional-order surrogate ||(I-u1^2)^(t/2) g|| + ||g||.  For
    resolvent-class rows the ratio carries the explicit factor, i.e.
    lhs * (m - t*lambda1) / rhs, whose sup over a test family estimates the
    constant C; for the other classes the plain quotient lhs/rhs is
    reported.
    """
    if not line_admissible(g, -s * p.lambda1):
        raise NotAdmissible(f"g lacks decay for regularity {s} at lambda1={p.lambda1}")
    report = solve_mellin(g, p, s=s, lines=(0.0,), t_list=t_grid)
    rows = []
    for entry in report.weighted_norms:
        t, lhs, cls = entry.t, entry.value, entry.bound_class
        rhs = regularity_norm(g, t, p)
        factor = p.m - t * p.lambda1 if cls in ("resolvent", "base") else 1.0
        ratio = _ratio(lhs * factor, rhs, g)
        rows.append(EstimateRow(t, lhs, rhs, cls, float(ratio), entry.admissible))
    return rows
