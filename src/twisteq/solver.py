"""Solvers for the twisted equation (X + m) f = g and its diagnostics.

Two independent routes are provided:

* the Mellin construction: divide the line transform by (m + z) and invert
  (primary contour Re z = 0, where |m + it| >= m keeps the division
  pole-free), plus inversions along further lines for the coincidence test;
* the semigroup/resolvent quadrature f(r) = r^m * integral_r^inf
  g(rho) rho^(-m-1) d rho, an oracle that never touches Fourier space.

The obstruction functional D(g) = M(g, -m) is evaluated by direct
quadrature.  Estimates of the weighted norms ||(I-u1^2)^(t/2) f|| against
their bound classes are collected by estimate_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBump, NotAdmissible, PoleOnLine, ZeroTwist
from .grid import (
    DECAY_TOL,
    HalfLineFunction,
    base_norm,
    lin_comb,
    relative_difference,
    trapezoid,
)
from .mellin import (
    MellinLine,
    Strip,
    fft_frequencies,
    line_admissible,
    mellin_inverse_line,
    mellin_line,
    strip_admissible,
)
from .reps import ModelRepParams, apply_X, fractional_weight, regularity_norm

_SQRT2PI = np.sqrt(2.0 * np.pi)

DEFAULT_EPS_POLE = 0.05
DEFAULT_OBSTRUCTION_TOL = 1e-9
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
    solution: HalfLineFunction
    obstruction: complex
    residual: float
    base_norm_ratio: float
    weighted_norms: tuple[WeightedNormEntry, ...]
    coincidence_defect: float
    flags: tuple[str, ...]


def obstruction_scale(g: HalfLineFunction) -> float:
    """Sup-norm scale used to interpret the relative obstruction tolerance."""
    return float(np.abs(g.values).max())


def obstruction(
    g: HalfLineFunction,
    p: ModelRepParams,
    eps: float = DEFAULT_ADMISSIBILITY_MARGIN,
    decay_tol: float = DECAY_TOL,
) -> complex:
    """D(g) = M(g, -m) by direct quadrature of (2 pi)^(-1/2) g(r) r^(-m-1) dr.

    Requires strip admissibility on [-m-eps, 0]: the functional is defined
    only for data with regularity beyond m/lambda1.
    """
    m = p.m
    check = strip_admissible(g, Strip(-m - eps, 0.0), decay_tol)
    if not check.ok:
        raise NotAdmissible(f"obstruction undefined: {check.diagnostic}")
    integrand = g.values * np.exp(m * g.grid.x)
    return complex(trapezoid(integrand, g.grid.h)) / _SQRT2PI


def project_obstruction(
    g: HalfLineFunction,
    p: ModelRepParams,
    bump: HalfLineFunction,
    tol: float = DEFAULT_OBSTRUCTION_TOL,
    decay_tol: float = DECAY_TOL,
) -> HalfLineFunction:
    """g minus the bump scaled to cancel the obstruction exactly."""
    d_bump = obstruction(bump, p, decay_tol=decay_tol)
    if abs(d_bump) <= tol * max(obstruction_scale(bump), np.finfo(float).tiny):
        raise DegenerateBump("bump has (near-)zero obstruction")
    d_g = obstruction(g, p, decay_tol=decay_tol)
    return lin_comb(1.0, g, -d_g / d_bump, bump)


def solve_semigroup(g: HalfLineFunction, m: float) -> HalfLineFunction:
    """Resolvent quadrature f(r) = r^m * integral_r^inf g(rho) rho^(-m-1) drho.

    In log coordinates this is the exponentially weighted cumulative integral
    F(x) = e^(-m x) * integral_{-inf}^x G(y) e^(m y) dy, accumulated by
    trapezoid from the large-r end with an Euler-Maclaurin endpoint
    correction (finite-difference derivative, keeping the route free of
    Fourier machinery).
    """
    if not m > 0:
        raise ZeroTwist(f"semigroup solve needs m > 0, got {m}")
    grid = g.grid
    h = grid.h
    G = g.values
    n = grid.n_points
    decay = np.exp(-m * h)
    # The arrays below are updated in place to keep the working set small;
    # each complex product keeps its operand order (G * emx, psi[0] * damp),
    # because swapping the operands of a complex product can change its
    # last bit.
    if m * max(abs(grid.x_min), abs(grid.x_max)) < 600.0:
        # Scaled cumulative sum: W_j = trapezoid of G e^{m y} up to x_j.
        with np.errstate(under="ignore"):
            emx = np.exp(m * grid.x)
            Ge = G * emx
            F = np.empty(n, dtype=np.complex128)
            F[0] = 0.0
            np.cumsum(0.5 * h * (Ge[1:] + Ge[:-1]), out=F[1:])
            F /= emx
    else:
        # Fall back to the stable recurrence when e^{m x} would overflow.
        F = np.zeros(n, dtype=np.complex128)
        for j in range(1, n):
            F[j] = decay * F[j - 1] + 0.5 * h * (G[j] + decay * G[j - 1])
    # Euler-Maclaurin h^2 endpoint correction, evaluated in scaled form:
    # the boundary term at x_j is (G' + m G)(x_j); the one at x_0 arrives
    # damped by e^{m(x_0 - x_j)}.
    psi = _fd_derivative(G, h)
    psi += m * G
    with np.errstate(under="ignore"):
        damp = np.exp(m * (grid.x_min - grid.x))
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
    """Relative defect ||(X+m)f - g|| / ||g|| with X applied spectrally."""
    return relative_difference(lin_comb(1.0, apply_X(f), m, f), g)


def divide_line(g_line: MellinLine, m: float) -> MellinLine:
    """The line of M(g, z)/(m + z): the transform of the solution along Re z = a.

    Raises PoleOnLine on the line a = -m, where m + z vanishes at t = 0.
    """
    if m + g_line.a == 0:
        raise PoleOnLine(f"line Re z = {g_line.a} passes through the pole -m = {-m}")
    z = 1j * fft_frequencies(g_line.grid)
    z += m + g_line.a
    ratio = np.divide(g_line.spectrum, z, out=z)  # m + z is not needed after this
    return MellinLine(g_line.a, g_line.grid, ratio, g_line.admissible)


def _invert_line(g_line: MellinLine, m: float, grid) -> HalfLineFunction:
    return mellin_inverse_line(divide_line(g_line, m), grid)


def solve_mellin(
    g: HalfLineFunction,
    p: ModelRepParams,
    s: float | None = None,
    lines: tuple[float, ...] = (0.0,),
    t_list: tuple[float, ...] = (),
    eps_pole: float = DEFAULT_EPS_POLE,
    obstruction_tol: float = DEFAULT_OBSTRUCTION_TOL,
    decay_tol: float = DECAY_TOL,
) -> SolveReport:
    """Solve (X + m) f = g by spectral division along vertical lines.

    The solution is the inversion of M(g, z)/(m + z) along Re z = 0, where
    the divisor never vanishes.  Every further requested line is inverted
    and compared against it (coincidence test); lines within eps_pole of the
    pole -m are rejected unless the measured obstruction is below tolerance,
    mirroring the dichotomy the obstruction encodes.  Lines beyond the pole
    are meaningful only when the grid window is wide enough for the weighted
    data; the admissibility gate rejects unresolved requests.

    t_list adds weighted-norm diagnostics ||(I-u1^2)^(t/2) f||, each tagged
    with its bound class and an admissibility flag.
    """
    m = p.m
    flags: list[str] = []
    for a in lines:
        if not line_admissible(g, a, decay_tol):
            raise NotAdmissible(f"g lacks decay for the requested line Re z = {a}")
    try:
        d_val = obstruction(g, p, decay_tol=decay_tol)
        d_known = True
    except NotAdmissible:
        d_val = complex("nan")
        d_known = False
        flags.append("obstruction-undefined")
    scale = max(obstruction_scale(g), np.finfo(float).tiny)
    obstructed = d_known and abs(d_val) > obstruction_tol * scale
    for a in lines:
        if abs(a + m) < eps_pole and (obstructed or not d_known):
            raise PoleOnLine(
                f"line Re z = {a} passes within {eps_pole} of the pole -m = {-m} "
                f"while the obstruction is not negligible"
            )

    grid = g.grid
    base = _invert_line(mellin_line(g, 0.0), m, grid)
    base_n = base_norm(base)
    g_n = base_norm(g)

    coincidence = 0.0
    for a in lines:
        if a == 0.0:
            continue
        candidate = _invert_line(mellin_line(g, a), m, grid)
        coincidence = max(coincidence, relative_difference(candidate, base))

    entries = []
    for t in t_list:
        wf = fractional_weight(base, t, p)
        value = base_norm(wf)
        admissible = line_admissible(wf, 0.0, decay_tol) and np.isfinite(value)
        if not admissible:
            flags.append(f"weighted-norm-t={t:g}-not-admissible")
        entries.append(
            WeightedNormEntry(
                t=float(t),
                value=value,
                bound_class=bound_class(t, p, s),
                admissible=admissible,
            )
        )

    return SolveReport(
        solution=base,
        obstruction=d_val,
        residual=residual(base, g, m),
        base_norm_ratio=(m * base_n / g_n) if g_n > 0 else 0.0,
        weighted_norms=tuple(entries),
        coincidence_defect=coincidence,
        flags=tuple(flags),
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


def solve_spectral_line(values: np.ndarray, dx: float, s: float) -> np.ndarray:
    """Translation-flow twisted solve on the real line by Fourier division.

    f_hat(w) = g_hat(w) / (s + i w); since |s + i w| >= |s| the solution
    obeys ||f|| <= ||g|| / |s|.
    """
    if s == 0:
        raise ZeroTwist("spectral division needs s != 0")
    values = np.asarray(values, dtype=np.complex128)
    omega = 2.0 * np.pi * np.fft.fftfreq(len(values), d=dx)
    return np.fft.ifft(np.fft.fft(values) / (s + 1j * omega))


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
    g: HalfLineFunction,
    p: ModelRepParams,
    s: float,
    t_grid: tuple[float, ...],
    decay_tol: float = DECAY_TOL,
) -> list[EstimateRow]:
    """Tabulate ||(I-u1^2)^(t/2) f|| against its bound class for each t.

    rhs is the fractional-order surrogate ||(I-u1^2)^(t/2) g|| + ||g||.  For
    resolvent-class rows the ratio carries the explicit factor, i.e.
    lhs * (m - t*lambda1) / rhs, whose sup over a test family estimates the
    constant C; for the other classes the plain quotient lhs/rhs is
    reported.
    """
    if not line_admissible(g, -s * p.lambda1, decay_tol):
        raise NotAdmissible(f"g lacks decay for regularity {s} at lambda1={p.lambda1}")
    report = solve_mellin(g, p, s=s, lines=(0.0,), decay_tol=decay_tol)
    f = report.solution
    rows = []
    for t in t_grid:
        wf = fractional_weight(f, t, p)
        lhs = base_norm(wf)
        rhs = regularity_norm(g, t, p)
        cls = bound_class(t, p, s)
        if cls in ("resolvent", "base"):
            ratio = lhs * (p.m - t * p.lambda1) / rhs if rhs > 0 else 0.0
        else:
            ratio = lhs / rhs if rhs > 0 else 0.0
        admissible = line_admissible(wf, 0.0, decay_tol) and np.isfinite(lhs)
        rows.append(EstimateRow(float(t), lhs, rhs, cls, float(ratio), admissible))
    return rows
