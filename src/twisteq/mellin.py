"""Vertical-line Mellin transforms on the log grid.

Convention: M(f, c) = (2*pi)^(-1/2) * integral_0^inf f(r) r^(c-1) dr, so that
with c = a + i*t and x = -log r,

    M(f, a + i t) = (unitary Fourier transform of f(e^-x) e^(-a x))(t).

On the grid this Fourier transform is realized by the DFT with frequencies
t_k = 2*pi*k/(n*h); forward and inverse lines are then exactly mutually
inverse and the discrete Parseval identity holds to rounding error.

Every transform is a real-input FFT, run in this module.  The samples are
split into real rows (_real_rows): float64 samples are their own one row,
complex128 ones give their real and imaginary parts.  The flow X = -r
d/dr, the weights r^{-a} and the division by m + z are real operators, so
each row is transformed, divided and inverted on its own.  Real data stay
real: the inverse of one row is the float64 row itself, and two inverse
rows are recombined as row 0 + i row 1.

A line is held as the (rows, n//2+1) np.fft.rfft half-spectrum of the
weighted rows f e^(-a x), in rfft bin order; the bins t < 0 of a real row
are the conjugates of the bins t > 0.  The unitary transform multiplies the
recombined spectrum by (h/sqrt(2 pi)) e^(-i t x_min); the inverse undoes
exactly that factor.  Divide-then-invert never needs it, so no line applies
it.  Every forward transform of a line runs through mellin_lines, whose
line 0 is held on the function (_line_zero), and every inverse one, d/dx
included, through mellin_inverse_lines; checked_line makes every line.
The residual's defect norm needs no inverse: discrete Parseval reads it
off the defect's half-spectrum (_flow_defect_norm).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonFiniteSample, NotAdmissible
from .grid import HalfLineFunction, LogGrid, _energy, _hold, _ratio, all_finite, decay_admissible


@dataclass(frozen=True, eq=False)
class MellinLine:
    """Samples of M(f, a + i t_k) along the vertical line Re z = a.

    `spectrum` holds the rfft half-spectra of the real rows of f e^{-a x} on
    `grid`, one row each, in rfft bin order (bin k at frequency
    grid.frequencies[k]).  Lines are made by checked_line alone, which sees
    that the spectrum holds no NaN/Inf.
    """

    a: float
    grid: LogGrid
    spectrum: np.ndarray


def checked_line(a: float, grid: LogGrid, spectrum: np.ndarray) -> MellinLine:
    """The line Re z = a with `spectrum`, the one scan of a line for NaN/Inf:
    finite samples whose transform overflows raise NonFiniteSample."""
    if not all_finite(spectrum):
        raise NonFiniteSample("Mellin line values contain NaN or Inf")
    return MellinLine(a, grid, spectrum)


def _real_rows(values: np.ndarray) -> np.ndarray:
    """The real rows that the transforms of samples act on, as a (rows, n)
    float array: real samples are their own one row, a view of them, and
    complex ones a C-ordered copy of the real part above the imaginary part.
    The transform of the samples is that of the rows as row 0 + i row 1."""
    if not np.iscomplexobj(values):
        return values[np.newaxis]
    return np.stack((values.real, values.imag))


def _line_zero(f: HalfLineFunction) -> MellinLine:
    """f's line Re z = 0, held on f: the read-only rfft of its real rows,
    scanned once, when it is computed."""
    def compute():
        with np.errstate(over="ignore", invalid="ignore"):  # refused by checked_line
            spectrum = np.fft.rfft(_real_rows(f.values))
        spectrum.flags.writeable = False
        return checked_line(0.0, f.grid, spectrum)

    return _hold(f, ("line0",), compute)


def line_admissible(f: HalfLineFunction, a: float) -> bool:
    """Decay test for the line Re z = a, which weights f by r^{+a}."""
    return decay_admissible(f, -a)


def mellin_lines(pairs: Sequence[tuple[HalfLineFunction, float]]) -> list[MellinLine]:
    """Forward transforms along Re z = a of each (f, a), off line 0 in one rfft call.

    The recombined rows give values[k] = (h/sqrt(2 pi)) * sum_j f_j
    e^{-a x_j} e^{-i t_k x_j}, the rectangle-rule Fourier transform of the
    weighted samples.  Admissibility is not tested: the discrete transform
    is always defined and exactly invertible.  The line a = 0 is f's held
    line (_line_zero), the same object on every call while it is held.  The
    other lines' weighted real rows are written into one (k, n) array, whose
    one np.fft.rfft call gives each row the bits of its own (n,) transform;
    each line's spectrum is its block of rows of the result.
    The lines are checked in pair order, each for an overflowing weight
    (NotAdmissible) and then for a NaN/Inf spectrum (NonFiniteSample), so the
    error raised is the first that one-line-at-a-time transforms would raise.
    """
    off = [(f, a) for f, a in pairs if a != 0]
    blocks = iter(())
    if off:
        rows = [_real_rows(f.values) for f, _ in off]
        cuts = np.cumsum([len(part) for part in rows])[:-1]
        weighted = np.empty((sum(map(len, rows)), off[0][0].grid.n_points))
        samples = np.split(weighted, cuts)
        # 0 * inf is NaN, and a row with NaN or Inf, or whose sum overflows,
        # is refused by the scans below, not by a warning
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for (f, a), part, block in zip(off, rows, samples):
                np.multiply(part, f.grid.weight(-a), out=block)
            spectra = np.fft.rfft(weighted)
        blocks = zip([all_finite(block) for block in samples], np.split(spectra, cuts))
    lines = []
    for f, a in pairs:
        if a == 0:
            lines.append(_line_zero(f))
            continue
        weight_finite, spectrum = next(blocks)
        if not weight_finite:
            raise NotAdmissible(f"weight r^{a!r} overflows on this grid")
        lines.append(checked_line(float(a), f.grid, spectrum))
    return lines


def mellin_line(f: HalfLineFunction, a: float) -> MellinLine:
    """Forward transform along Re z = a: the one-line call of mellin_lines."""
    return mellin_lines([(f, a)])[0]


def mellin_inverse_lines(spectra: np.ndarray, a: Sequence[float], grid: LogGrid) -> np.ndarray:
    """Inverse transforms of a (k, rows, n//2+1) array of half-spectra on
    `grid`, in one np.fft.irfft call: entry j becomes the (n,) row
    r^{-a_j} * irfft(spectra[j, 0]) at the nodes x, a float64 row, when
    there is one row per entry, and the complex128 row r^{-a_j} *
    (irfft(spectra[j, 0]) + i irfft(spectra[j, 1])) when there are two.
    Each real row has the bits of its own (n,) inverse.  The one-row result
    is a view of the irfft output, so no complex array is assembled.

    An entry holding the spectrum of a line on Re z = a_j that mellin_lines
    made on the same grid inverts it exactly.
    """
    k, rows, _ = spectra.shape
    n = grid.n_points
    parts = np.fft.irfft(spectra, n)
    with np.errstate(over="ignore", under="ignore"):
        for entry, aj in zip(parts, a):
            if aj != 0:
                entry *= grid.weight(aj)
    if rows == 1:
        return parts[:, 0]
    values = np.empty((k, n), np.complex128)
    values.real = parts[:, 0]
    values.imag = parts[:, 1]
    return values


def mellin_inverse_line(line: MellinLine, grid: LogGrid) -> HalfLineFunction:
    """Inverse transform of one line: the one-line call of mellin_inverse_lines."""
    if line.grid != grid:
        raise GridMismatch("line was sampled on another grid")
    (values,) = mellin_inverse_lines(line.spectrum[np.newaxis], (line.a,), grid)
    return HalfLineFunction(grid, values)


def line_energy(line: MellinLine) -> float:
    """Trapezoid of |M(f, a+it)|^2 dt along the full line: the n bins of the
    recombined spectrum sorted by t, as np.fft.fftshift sorts them, so that
    an even grid's Nyquist bin is the end t = -pi/h.

    |M| is (h/sqrt(2 pi)) |spectrum| (the phase has modulus one), and
    dt (h/sqrt(2 pi))^2 = h/n.  +Inf when |M|^2 overflows, by grid._energy.
    """
    grid = line.grid
    return _energy(np.abs(_full_line(line.spectrum, grid.n_points)), grid.h / grid.n_points)


def _full_line(spectrum: np.ndarray, n: int) -> np.ndarray:
    """The n-bin spectrum, in np.fft.fftshift order, of the samples whose
    real rows have the half-spectra `spectrum`: bin k >= 0 is row 0 + i
    row 1 at k, and bin -k the same sum of their conjugates, since a real
    row's bins -k and k are conjugate."""
    nonnegative, negative = (
        rows[0] if len(rows) == 1 else rows[0] + 1j * rows[1]
        for rows in (spectrum, spectrum.conj())
    )
    return np.concatenate((negative[n // 2 : 0 : -1], nonnegative[: (n + 1) // 2]))


def parseval_defect(f: HalfLineFunction) -> float:
    """Relative gap |E - ||f||^2| / ||f||^2 between ||f||^2 and the line-0
    energy integral E, by the ratio rule of grid._ratio: relative at every
    amplitude, and NaN when ||f||^2 underflows to 0 on nonzero samples."""
    norm_sq = f.norm**2
    energy = line_energy(mellin_line(f, 0.0))
    return _ratio(abs(norm_sq - energy), norm_sq, f)


def spectral_dx(values: np.ndarray, grid: LogGrid) -> np.ndarray:
    """d/dx of samples on `grid` by the multiplier grid.i_frequencies on the
    half-spectra of their real rows: d/dx has no Nyquist mode, and d/dx of
    a real row is real."""
    return _dx(np.fft.rfft(_real_rows(values)), grid)


def _dx(spectrum: np.ndarray, grid: LogGrid) -> np.ndarray:
    """d/dx of the samples whose real rows have the half-spectra `spectrum`,
    as in spectral_dx: the line-0 inverse of i t * spectrum."""
    (values,) = mellin_inverse_lines((spectrum * grid.i_frequencies)[np.newaxis], (0.0,), grid)
    return values


def _flow_defect_norm(f: HalfLineFunction, g: HalfLineFunction, m: float) -> float:
    """||(X + m) f - g||, the trapezoid L2 norm in x of the defect at the
    nodes, from the defect's half-spectra R = (m + i t) F - G alone.

    F is one rfft of f's real rows, which is not held, and G the spectrum
    of g's held line 0; i t is grid.i_frequencies, so R is the
    half-spectrum of spectral_dx(f) + m f - g, whose DC and Nyquist bins
    are real.  By discrete Parseval the nodes' sum of squares is (1/n)
    sum_k w_k |R_k|^2 over the rows, with w = grid.bin_weights; the
    trapezoid then takes off half of each end node's square, where row by
    row the first node holds (1/n) sum_k w_k Re R_k and the last (1/n)
    sum_k w_k Re(R_k e^{-2 pi i k/n}), with the phase grid.end_phase.  So
    no inverse transform runs.

    An R with NaN or Inf, which a transform or a twist too large for the
    samples leaves, raises NonFiniteSample; an R whose squares overflow
    gives +Inf.
    """
    grid = f.grid
    # NaN or Inf left here shows in the energy, and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.fft.rfft(_real_rows(f.values))
        defect *= m + grid.i_frequencies
        defect, data = _same_rows(defect, _line_zero(g).spectrum)
        defect -= data
        # numpy's own sums, not BLAS dot products, whose rounding may
        # change with the BLAS thread count; w_k |R_k|^2 is w_k Re R_k Re R_k
        # + w_k Im R_k Im R_k
        weighted = defect * grid.bin_weights
        power = (defect.view(np.float64) * weighted.view(np.float64)).sum()
        first = weighted.sum(axis=-1).real
        weighted *= grid.end_phase
        last = weighted.sum(axis=-1).real
        n = grid.n_points
        ends = (first * first).sum() + (last * last).sum()
        energy = (power - 0.5 * ends / n) * (grid.h / n)
    if math.isfinite(energy):
        return math.sqrt(energy)
    if not all_finite(defect):
        raise NonFiniteSample("values contain NaN or Inf")
    return math.inf


def apply_X(f: HalfLineFunction) -> HalfLineFunction:
    """X f = -r d/dr f, computed as +d/dx of f's held line 0 and held on f."""
    return _hold(f, ("X",), lambda: HalfLineFunction(f.grid, _dx(_line_zero(f).spectrum, f.grid)))


def derivative_rule_defect(f: HalfLineFunction, a: float) -> float:
    """Sup-norm defect of M(Xf, a+it) = (a+it) M(f, a+it), where X = -r d/dr.

    Xf is f's held apply_X; both f and Xf must pass the decay test for the
    line, otherwise NotAdmissible.
    """
    xf = apply_X(f)
    if not line_admissible(f, a):
        raise NotAdmissible(f"f lacks decay for the line Re z = {a}")
    if not line_admissible(xf, a):
        raise NotAdmissible(f"r d/dr f lacks decay for the line Re z = {a}")
    lhs, rhs = _same_rows(*(line.spectrum for line in mellin_lines([(xf, a), (f, a)])))
    return _sup_relative(lhs - (a + f.grid.i_frequencies) * rhs, rhs, f)


def shift_law_defect(f: HalfLineFunction, a: float, b: float) -> float:
    """Sup-norm defect of M(f r^{-b}, a+it) = M(f, a-b+it).

    Where r^{-b} overflows, f r^{-b} holds Inf (or NaN, at a zero sample)
    and is refused with NonFiniteSample.
    """
    grid = f.grid
    with np.errstate(over="ignore", invalid="ignore"):
        fb = HalfLineFunction(grid, f.values * grid.weight(b))
    lhs, rhs = _same_rows(*(line.spectrum for line in mellin_lines([(fb, a), (f, a - b)])))
    return _sup_relative(lhs - rhs, rhs, f)


def _same_rows(*spectra: np.ndarray) -> list[np.ndarray]:
    """The spectra with as many rows each: a function whose imaginary part is
    exactly 0 has no imaginary row, which is a zero one (real f against
    complex g in a residual, or f r^{-b}, which loses it where r^{-b}
    underflows a tiny imaginary part)."""
    rows = max(map(len, spectra))
    return [s if len(s) == rows else np.concatenate((s, np.zeros_like(s))) for s in spectra]


def _sup_relative(diff: np.ndarray, ref: np.ndarray, f: HalfLineFunction) -> float:
    """max|diff| / max|ref| over every row and bin, by the ratio rule of
    grid._ratio, where f is the function whose line is ref.  Lines on one
    grid share the transform's scale and phase, so their spectra compare
    directly, row by row."""
    return _ratio(float(np.abs(diff).max()), float(np.abs(ref).max()), f)
