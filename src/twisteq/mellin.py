"""Vertical-line Mellin transforms on the log grid.

Convention: M(f, c) = (2*pi)^(-1/2) * integral_0^inf f(r) r^(c-1) dr, so that
with c = a + i*t and x = -log r,

    M(f, a + i t) = (unitary Fourier transform of f(e^-x) e^(-a x))(t).

On the grid this Fourier transform is realized by the DFT with frequencies
t_k = 2*pi*k/(n*h); forward and inverse lines are then exactly mutually
inverse and the discrete Parseval identity holds to rounding error.

A line is held as the plain FFT of the weighted samples f e^(-a x), in FFT
bin order.  The unitary transform multiplies that spectrum by
(h/sqrt(2 pi)) e^(-i t x_min) and sorts the bins by t; the inverse undoes
exactly those factors.  Divide-then-invert never needs them, so they are
applied only when a caller reads `MellinLine.values` or `t_samples`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGrid, NotAdmissible
from .grid import (
    DECAY_TOL,
    HalfLineFunction,
    LogGrid,
    _energy,
    _hold,
    _ratio,
    all_finite,
    decay_admissible,
)

_SQRT2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class MellinLine:
    """Samples of M(f, a + i t_k) along the vertical line Re z = a.

    `spectrum` is the FFT of f e^{-a x} on `grid`, in FFT bin order (bin k
    at frequency grid.frequencies[k]).  `values` and `t_samples` give the
    transform itself with the frequencies in increasing order, symmetric
    about 0.  Lines are made by mellin_lines and checked_line, which see
    that the spectrum holds no NaN/Inf.
    """

    a: float
    grid: LogGrid
    spectrum: np.ndarray

    @cached_property
    def t_samples(self) -> np.ndarray:
        return np.fft.fftshift(self.grid.frequencies)

    @cached_property
    def values(self) -> np.ndarray:
        grid = self.grid
        phase = np.exp(-1j * grid.frequencies * grid.x_min)
        return np.fft.fftshift((grid.h / _SQRT2PI) * phase * self.spectrum)


def checked_line(a: float, grid: LogGrid, spectrum: np.ndarray) -> MellinLine:
    """The line Re z = a with `spectrum`, which is scanned for NaN/Inf."""
    if not all_finite(spectrum):
        raise InvalidGrid("Mellin line values contain NaN or Inf")
    return MellinLine(a, grid, spectrum)


def line_admissible(f: HalfLineFunction, a: float, tol: float = DECAY_TOL) -> bool:
    """Decay test for the line Re z = a, which weights f by r^{+a}."""
    return decay_admissible(f, -a, tol)


def mellin_lines(pairs: Sequence[tuple[HalfLineFunction, float]]) -> list[MellinLine]:
    """Forward transforms along Re z = a of each (f, a), off line 0 in one FFT call.

    values[k] = (h/sqrt(2 pi)) * sum_j f_j e^{-a x_j} e^{-i t_k x_j}, the
    rectangle-rule Fourier transform of the weighted samples.  Admissibility
    is not tested: the discrete transform is always defined and exactly
    invertible.  The line a = 0 is f's held, read-only spectrum, which was
    checked for NaN/Inf when it was computed.  The other lines' weighted
    samples are written into the rows of one (k, n) array, whose one
    np.fft.fft call gives each row the bits of its own (n,) transform; their
    lines are the rows of its result.  The lines are checked in pair order,
    each for an overflowing weight (NotAdmissible) and then for a NaN/Inf
    spectrum (InvalidGrid), so the error raised is the first that
    one-line-at-a-time transforms would raise.
    """
    off = [(f, a) for f, a in pairs if a != 0]
    rows = iter(())
    if off:
        weighted = np.empty((len(off), off[0][0].grid.n_points), np.complex128)
        # 0 * inf is NaN, and a row with NaN or Inf, or whose sum overflows,
        # is refused by the scans below, not by a warning
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for row, (f, a) in zip(weighted, off):
                np.multiply(f.values, f.grid.weight(-a), out=row)
            spectra = np.fft.fft(weighted)
        rows = zip([all_finite(row) for row in weighted], spectra)
    lines = []
    for f, a in pairs:
        if a == 0:
            lines.append(MellinLine(0.0, f.grid, f.spectrum))
            continue
        weight_finite, spectrum = next(rows)
        if not weight_finite:
            raise NotAdmissible(f"weight r^{a!r} overflows on this grid")
        lines.append(checked_line(float(a), f.grid, spectrum))
    return lines


def mellin_line(f: HalfLineFunction, a: float) -> MellinLine:
    """Forward transform along Re z = a: the one-line call of mellin_lines."""
    return mellin_lines([(f, a)])[0]


def mellin_inverse_lines(spectra: np.ndarray, a: Sequence[float], grid: LogGrid) -> np.ndarray:
    """Inverse transforms of the rows of a (k, n) array of spectra on `grid`,
    in one np.fft.ifft call: row j becomes r^{-a_j} * ifft(spectra[j]) at the
    nodes x, each with the bits of its own (n,) inverse.

    A row holding the spectrum of a line on Re z = a_j that mellin_lines
    made on the same grid inverts it exactly.
    """
    values = np.fft.ifft(spectra)
    with np.errstate(over="ignore", under="ignore"):
        for row, aj in zip(values, a):
            if aj != 0:
                row *= grid.weight(aj)
    return values


def mellin_inverse_line(line: MellinLine, grid: LogGrid) -> HalfLineFunction:
    """Inverse transform of one line: the one-line call of mellin_inverse_lines."""
    if line.grid != grid:
        raise InvalidGrid("line was sampled on another grid")
    (values,) = mellin_inverse_lines(line.spectrum[np.newaxis], (line.a,), grid)
    return HalfLineFunction(grid, values)


def line_energy(line: MellinLine) -> float:
    """Trapezoid of |M(f, a+it)|^2 dt along the line.

    |M| is (h/sqrt(2 pi)) |spectrum| (the phase has modulus one), and
    dt (h/sqrt(2 pi))^2 = h/n.  +Inf when |M|^2 overflows, by grid._energy.
    """
    grid = line.grid
    return _energy(np.abs(np.fft.fftshift(line.spectrum)), grid.h / grid.n_points)


def parseval_defect(f: HalfLineFunction) -> float:
    """Relative gap |E - ||f||^2| / ||f||^2 between ||f||^2 and the line-0
    energy integral E, by the ratio rule of grid._ratio: relative at every
    amplitude, and NaN when ||f||^2 underflows to 0 on nonzero samples."""
    norm_sq = f.norm**2
    energy = line_energy(mellin_line(f, 0.0))
    return _ratio(abs(norm_sq - energy), norm_sq, f)


def spectral_dx(values: np.ndarray, grid: LogGrid) -> np.ndarray:
    """d/dx of samples on `grid` by DFT multiplier, including the (unpaired)
    Nyquist mode.

    Keeping the Nyquist mode makes the multiplier the exact inverse image of
    the line frequencies, so derivative identities hold bin-by-bin.
    """
    return _dx(np.fft.fft(values), grid)


def _dx(spectrum: np.ndarray, grid: LogGrid) -> np.ndarray:
    """d/dx of the samples whose FFT is `spectrum`, as in spectral_dx."""
    return np.fft.ifft(spectrum * grid.i_frequencies)


def apply_X(f: HalfLineFunction) -> HalfLineFunction:
    """X f = -r d/dr f, computed as +d/dx of f's spectrum and held on f."""
    return _hold(f, ("X",), lambda: HalfLineFunction(f.grid, _dx(f.spectrum, f.grid)))


def derivative_rule_defect(f: HalfLineFunction, a: float, tol: float = DECAY_TOL) -> float:
    """Sup-norm defect of M(Xf, a+it) = (a+it) M(f, a+it), where X = -r d/dr.

    Xf is f's held apply_X; both f and Xf must pass the decay test for the
    line, otherwise NotAdmissible.
    """
    grid = f.grid
    xf = apply_X(f)
    if not line_admissible(f, a, tol):
        raise NotAdmissible(f"f lacks decay for the line Re z = {a}")
    if not line_admissible(xf, a, tol):
        raise NotAdmissible(f"r d/dr f lacks decay for the line Re z = {a}")
    lhs, rhs = (line.spectrum for line in mellin_lines([(xf, a), (f, a)]))
    z = a + grid.i_frequencies
    return _sup_relative(lhs - z * rhs, rhs, f)


def shift_law_defect(f: HalfLineFunction, a: float, b: float) -> float:
    """Sup-norm defect of M(f r^{-b}, a+it) = M(f, a-b+it).

    Where r^{-b} overflows, f r^{-b} holds Inf (or NaN, at a zero sample)
    and is refused with NonFiniteSample.
    """
    grid = f.grid
    with np.errstate(over="ignore", invalid="ignore"):
        fb = HalfLineFunction(grid, f.values * grid.weight(b))
    lhs, rhs = (line.spectrum for line in mellin_lines([(fb, a), (f, a - b)]))
    return _sup_relative(lhs - rhs, rhs, f)


def _sup_relative(diff: np.ndarray, ref: np.ndarray, f: HalfLineFunction) -> float:
    """max|diff| / max|ref| by the ratio rule of grid._ratio, where f is the
    function whose line is ref.  Lines on one grid share the transform's
    scale and phase, so their spectra compare directly."""
    return _ratio(float(np.abs(diff).max()), float(np.abs(ref).max()), f)
