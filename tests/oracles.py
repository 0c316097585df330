"""Analytic oracles for the Gamma test family, independent of the package's
transform machinery: everything here reduces to Gamma-function identities
evaluated with scipy.  Also the unitary view of a Mellin line (line_values
at t_samples), which the package never forms: it keeps the FFT spectrum."""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as gamma_fn

from twisteq.families import Terms
from twisteq.grid import HalfLineFunction, lin_comb
from twisteq.mellin import MellinLine

SQRT2PI = np.sqrt(2.0 * np.pi)


def mellin_exact(terms: Terms, z: complex | np.ndarray) -> complex | np.ndarray:
    """M(sum coef r^k e^{-cr}, z) = sum coef Gamma(k+z) c^{-(k+z)} / sqrt(2 pi)."""
    z = np.asarray(z, dtype=np.complex128)
    acc = np.zeros_like(z)
    for coef, k, c in terms:
        acc = acc + coef * gamma_fn(k + z) * c ** (-(k + z))
    return acc / SQRT2PI


def t_samples(line: MellinLine) -> np.ndarray:
    """The frequencies of a line's bins in increasing order, symmetric about 0."""
    return np.fft.fftshift(line.grid.frequencies)


def line_values(line: MellinLine) -> np.ndarray:
    """M(f, a + i t) at t_samples(line): the line's FFT-order spectrum times
    (h/sqrt(2 pi)) e^{-i t x_min}, with the bins sorted by t."""
    grid = line.grid
    phase = np.exp(-1j * grid.frequencies * grid.x_min)
    return np.fft.fftshift((grid.h / SQRT2PI) * phase * line.spectrum)


def weighted_norm_exact(terms: Terms, a: float) -> float:
    """||f r^{-a}|| from pairwise Gamma integrals; needs k_i + k_j > 2a."""
    acc = 0.0 + 0.0j
    for ci, ki, rate_i in terms:
        for cj, kj, rate_j in terms:
            power = ki + kj - 2.0 * a
            if power <= 0:
                raise ValueError("divergent weighted integral")
            acc += ci * np.conj(cj) * gamma_fn(power) * (rate_i + rate_j) ** (-power)
    return float(np.sqrt(acc.real))


def decays_reference(w: np.ndarray, tol: float) -> bool:
    """The endpoint decay test on weighted magnitudes w >= 0: both boundary
    values stay below tol * max w, and a NaN or +Inf anywhere fails."""
    mx = w.max()  # the samples are >= 0, so NaN or +Inf anywhere shows here
    if not np.isfinite(mx):
        return False
    if mx == 0.0:
        return True
    return bool(w[0] <= tol * mx and w[-1] <= tol * mx)


def rel_err(got: HalfLineFunction, expected: HalfLineFunction) -> float:
    scale = expected.norm
    diff = lin_comb(1.0, got, -1.0, expected).norm
    return diff / scale if scale > 0 else diff


def semigroup_recurrence(g: HalfLineFunction, m: float) -> HalfLineFunction:
    """The semigroup solve f(r) = r^m * integral_r^inf g(rho) rho^(-m-1) drho,
    point by point: F_j = e^{-mh} F_{j-1} + h/2 (G_j + e^{-mh} G_{j-1}) in
    x = -log r, with the h^2 Euler-Maclaurin endpoint correction from
    fourth-order central differences.  It never forms e^{m x}, so it holds on
    any window; a reference for solver.solve_semigroup."""
    grid = g.grid
    h, G = grid.h, g.values
    decay = np.exp(-m * h)
    F = np.zeros(grid.n_points, dtype=np.complex128)
    for j in range(1, grid.n_points):
        F[j] = decay * F[j - 1] + 0.5 * h * (G[j] + decay * G[j - 1])
    padded = np.pad(G, 2)
    dG = (padded[:-4] - 8.0 * padded[1:-3] + 8.0 * padded[3:-1] - padded[4:]) / (12.0 * h)
    psi = dG + m * G
    with np.errstate(under="ignore"):
        damp = np.exp(m * (grid.x_min - grid.x))
    return HalfLineFunction(grid, F - h * h / 12.0 * (psi - psi[0] * damp))
