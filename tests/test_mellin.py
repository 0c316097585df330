import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twisteq import grid as grid_module
from twisteq import mellin as mellin_module
from twisteq.errors import GridMismatch, NonFiniteSample, NotAdmissible, PoleOnLine
from twisteq.families import FAMILY, family_member, make_terms, sample_terms
from twisteq.grid import HalfLineFunction, lin_comb, make_log_grid, sample, trapezoid
from twisteq.mellin import (
    checked_line,
    derivative_rule_defect,
    line_energy,
    mellin_inverse_line,
    mellin_inverse_lines,
    mellin_line,
    mellin_lines,
    parseval_defect,
    shift_law_defect,
    spectral_dx,
)
from twisteq.reps import ModelRepParams, apply_X
from twisteq.solver import (
    DEFAULT_ADMISSIBILITY_MARGIN,
    divide_line,
    obstruction,
    residual,
    solve_mellin,
)

from oracles import line_values, mellin_exact, rel_err, t_samples
from rep_algebra import gaussian_log

INV_SQRT2PI = 0.3989422804014327  # 1/sqrt(2 pi)


class TestMellinLine:
    def test_log_gaussian_line(self, grid):
        # f(e^-x) = e^{-x^2/2} transforms to e^{-t^2/2} on the line a=0
        f = gaussian_log(grid)
        line = mellin_line(f, 0.0)
        assert np.abs(line_values(line) - np.exp(-0.5 * t_samples(line) ** 2)).max() <= 1e-8

    def test_gamma_value_at_origin(self, wide_grid):
        f = sample_terms(family_member("r_exp"), wide_grid)
        line = mellin_line(f, 0.0)
        t = t_samples(line)
        k0 = np.argmin(np.abs(t))
        assert t[k0] == 0.0
        assert line_values(line)[k0] == pytest.approx(INV_SQRT2PI, rel=1e-7)

    def test_gamma_profile_along_line(self, wide_grid):
        terms = family_member("r2_exp2")
        f = sample_terms(terms, wide_grid)
        line = mellin_line(f, -0.5)
        # compare on the central bins where Gamma has not decayed below noise
        t = t_samples(line)
        sel = np.abs(t) <= 20.0
        exact = mellin_exact(terms, -0.5 + 1j * t[sel])
        assert np.abs(line_values(line)[sel] - exact).max() <= 1e-10

    def test_zero_function(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        line = mellin_line(f, 0.0)
        assert np.all(line_values(line) == 0)

    def test_frequencies_symmetric(self, grid):
        line = mellin_line(gaussian_log(grid), 0.0)
        t = t_samples(line)
        assert np.all(np.diff(t) > 0)
        assert abs(t[np.argmin(np.abs(t))]) == 0.0
        spacing = 2.0 * np.pi / (grid.n_points * grid.h)
        assert np.allclose(np.diff(t), spacing, rtol=1e-12)

    def test_frequencies_held_on_the_grid(self):
        # the half-spectrum's bins 0 .. n//2: an even grid ends at the
        # Nyquist bin t = +pi/h, an odd one half a bin short of it
        for n in (19200, 4779):
            grid = make_log_grid(n, -12.0, 40.0)
            omega = grid.frequencies
            assert omega is grid.frequencies and not omega.flags.writeable
            assert np.array_equal(omega, 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.h))
            assert len(omega) == n // 2 + 1 and omega[0] == 0.0
            last = np.pi / grid.h * (1.0 if n % 2 == 0 else (n - 1) / n)
            assert omega[-1] == pytest.approx(last, rel=1e-14)
            # spectral_dx keeps every bit of the plain multiplier i t: irfft
            # drops the imaginary i t_N R_N that i_frequencies' 0 replaces
            f = sample_terms(family_member("r2_exp"), grid)
            direct = np.fft.irfft(np.fft.rfft(f.values.real) * (1j * omega), n)
            assert np.array_equal(spectral_dx(f.values, grid), direct)


# A complex input, whose samples are two real rows.
COMPLEX_TERMS = make_terms([(1 + 2j, 2, 1.0), (0.5j, 3, 2.0)])


def _full_fft_energy(f: HalfLineFunction, a: float) -> float:
    """line_energy by its full-FFT formula: the trapezoid of |M|^2 over the
    np.fft.fftshift-ed bins of the complex FFT of f e^{-a x}."""
    grid = f.grid
    spectrum = np.fft.fft(f.values * np.exp(-a * grid.x))
    return trapezoid(np.abs(np.fft.fftshift(spectrum)) ** 2, grid.h / grid.n_points)


class TestLineRepresentation:
    """A line holds the rfft half-spectra of the real rows of the weighted
    samples; the unitary transform on the full line and its frequencies
    (oracles.line_values and t_samples) are views of it."""

    @pytest.mark.parametrize("a", [0.0, -0.5, 0.4])
    def test_values_match_direct_sum(self, a):
        # (h/sqrt(2 pi)) sum_j f_j e^{-a x_j} e^{-i t_k x_j}, summed without
        # the FFT, relative to the line's sup norm, as the sum cancels where
        # the line decays: at DC, at interior bins on both sides, and at the
        # two ends, which are the Nyquist bin for even n and the last bin
        # (and its mirror) for odd n
        for n in (4096, 4095):
            grid = make_log_grid(n, -12.0, 12.0)
            for terms in (family_member("r2_exp"), COMPLEX_TERMS):
                f = sample_terms(terms, grid)
                line = mellin_line(f, a)
                values = line_values(line)
                scale = np.abs(values).max()
                for k in (n // 2, n // 2 + 1, n // 2 - 3, n // 2 + 17, n // 2 - 40, 0, n - 1):
                    t = t_samples(line)[k]
                    terms_k = f.values * np.exp(-a * grid.x) * np.exp(-1j * t * grid.x)
                    direct = grid.h / np.sqrt(2.0 * np.pi) * terms_k.sum()
                    assert abs(values[k] - direct) <= 1e-12 * scale, (n, k)

    def test_line_energy_is_trapezoid_of_values(self, grid):
        line = mellin_line(sample_terms(family_member("r_exp"), grid), -0.3)
        t = t_samples(line)
        dt = t[1] - t[0]
        expected = trapezoid(np.abs(line_values(line)) ** 2, dt)
        assert line_energy(line) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [4096, 4095])
    @pytest.mark.parametrize(
        "name, terms", [*FAMILY, ("complex", COMPLEX_TERMS)], ids=[*dict(FAMILY), "complex"]
    )
    def test_line_energy_keeps_the_full_fft_formula(self, name, terms, n):
        f = sample_terms(terms, make_log_grid(n, -12.0, 12.0))
        for a in (0.0, -0.3):
            expected = _full_fft_energy(f, a)
            assert line_energy(mellin_line(f, a)) == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("index", [0, 1024, 2048], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_spectrum_rejected(self, grid, bad, part, index):
        # the one scan that every line goes through, where it is made
        spectrum = mellin_line(gaussian_log(grid), 0.0).spectrum.copy()
        getattr(spectrum, part)[0, index] = bad
        with pytest.raises(NonFiniteSample, match="NaN or Inf"):
            checked_line(0.0, grid, spectrum)

    def test_line_zero_is_the_plain_transform(self, grid):
        # the weight e^{0 x} is exactly 1, so line 0 is the rfft of the
        # samples' real rows, and its inverse their irfft, recombined
        n = grid.n_points
        f = sample_terms(family_member("mix_23"), grid)
        line = mellin_line(f, 0.0)
        assert line.spectrum.shape == (1, n // 2 + 1)
        assert np.array_equal(line.spectrum[0], np.fft.rfft(f.values.real))
        back = mellin_inverse_line(line, grid)
        assert np.array_equal(back.values, np.fft.irfft(line.spectrum[0], n))
        assert not back.values.imag.any()
        g = sample_terms(COMPLEX_TERMS, grid)
        line = mellin_line(g, 0.0)
        rows = [np.fft.rfft(part) for part in (g.values.real, g.values.imag)]
        assert np.array_equal(line.spectrum, rows)
        back = mellin_inverse_line(line, grid)
        assert np.array_equal(back.values.real, np.fft.irfft(rows[0], n))
        assert np.array_equal(back.values.imag, np.fft.irfft(rows[1], n))

    def test_line_zero_is_not_rescanned(self, monkeypatch, grid):
        # the held line is checked once, when it is computed
        scans = []
        original = mellin_module.all_finite

        def counted(values):
            scans.append(values)
            return original(values)

        monkeypatch.setattr(mellin_module, "all_finite", counted)
        f = sample_terms(family_member("r2_exp"), grid)
        line = mellin_line(f, 0.0)
        mellin_line(f, 0.0)
        mellin_lines([(f, 0.0), (f, 0.0)])
        assert len(scans) == 1 and scans[0] is line.spectrum

    def test_non_finite_held_spectrum_rejected(self):
        # a line that raises is not held: the next call raises again
        grid = make_log_grid(64, -3.0, 3.0)
        f = HalfLineFunction(grid, np.full(64, 1e308))  # the sum overflows
        for _ in range(2):
            with pytest.raises(NonFiniteSample, match="NaN or Inf"):
                mellin_line(f, 0.0)
        assert ("line0",) not in f._held

    def test_line_zero_is_the_held_spectrum(self, grid):
        # every line-0 transform of f is f's one held line, whose read-only
        # spectrum has the bits of the rfft of f's real rows
        for terms, rows in ((family_member("r2_exp"), 1), (COMPLEX_TERMS, 2)):
            f = sample_terms(terms, grid)
            line = mellin_line(f, 0.0)
            assert mellin_line(f, 0.0) is line and mellin_lines([(f, 0.0)])[0] is line
            assert line.a == 0.0 and line.grid == grid
            parts = (f.values.real, f.values.imag)[:rows]
            assert np.array_equal(line.spectrum, np.fft.rfft(np.array(parts)))
            with pytest.raises(ValueError):
                line.spectrum[0] = 0.0

    @pytest.mark.filterwarnings("error")
    def test_divide_on_pole_line_rejected(self, grid):
        # the pole is named before any division, so numpy warns of nothing
        m = 0.75
        line = mellin_line(sample_terms(family_member("r2_exp"), grid), -m)
        with pytest.raises(PoleOnLine):
            divide_line(line, m)

    @pytest.mark.parametrize("other", [(2048, -12.0, 12.0), (4096, -12.0, 13.0)])
    def test_inverse_on_other_grid_rejected(self, grid, other):
        line = mellin_line(gaussian_log(grid), 0.0)
        with pytest.raises(GridMismatch, match="another grid"):
            mellin_inverse_line(line, make_log_grid(*other))


class TestPairedLines:
    """mellin_lines transforms the real rows of the lines off 0 in one
    (k, n) rfft call, and mellin_inverse_lines inverts k entries of real
    rows in one irfft call; every row has the bits of its own one-row
    transform."""

    # the shipped grids (estimate-sweep doubles 4096), the benchmark's
    # 19200, obstruction-scan's Bluestein sizes and two odd lengths
    @pytest.mark.parametrize(
        "n", [4096, 5472, 6144, 6912, 8192, 9600, 19200, 3413, 4779, 1001, 17]
    )
    def test_rows_are_the_one_row_transforms(self, ffts, n):
        grid = make_log_grid(n, -12.0, 24.0)
        f = sample_terms(family_member("r2_exp"), grid)
        h = sample_terms(COMPLEX_TERMS, grid)
        mellin_line(h, 0.0)
        pairs = [(f, -0.4), (h, 0.0), (h, 0.3), (f, -0.8)]
        # f has one real row, h two
        assert ffts(lambda: mellin_lines(pairs)) == (4, 0) and ffts.calls == (1, 0)
        lines = mellin_lines(pairs)
        for (g, a), line in zip(pairs, lines):
            assert line.a == a and line.grid == grid
            parts = (g.values.real, g.values.imag)[: len(line.spectrum)]
            rows = [np.fft.rfft(part * grid.weight(-a)) for part in parts]
            assert np.array_equal(line.spectrum, rows)
        assert lines[1] is mellin_line(h, 0.0)
        # f's entries take a zero imaginary row, so that all stack
        spectra = np.zeros((len(lines), 2, n // 2 + 1), np.complex128)
        for entry, line in zip(spectra, lines):
            entry[: len(line.spectrum)] = line.spectrum
        a_values = [a for _, a in pairs]
        assert ffts(lambda: mellin_inverse_lines(spectra, a_values, grid)) == (0, 8)
        assert ffts.calls == (0, 1)
        back = mellin_inverse_lines(spectra, a_values, grid)
        for values, entry, line in zip(back, spectra, lines):
            real, imag = (np.fft.irfft(row, n) * grid.weight(line.a) for row in entry)
            assert np.array_equal(values.real, real) and np.array_equal(values.imag, imag)
            assert np.array_equal(values, mellin_inverse_line(line, grid).values)

    def test_lines_at_zero_alone_run_no_fft(self, ffts, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        mellin_line(f, 0.0)
        assert ffts(lambda: mellin_lines([(f, 0.0), (f, 0.0)])) == (0, 0)
        assert mellin_lines([]) == []

    @pytest.mark.parametrize(
        "order, error",
        [
            (("ok", "overflow", "sum"), NotAdmissible),
            (("ok", "sum", "overflow"), NonFiniteSample),
            (("held-sum", "overflow"), NonFiniteSample),
            (("overflow", "held-sum"), NotAdmissible),
        ],
        ids=["weight-first", "spectrum-first", "line-0-first", "line-0-second"],
    )
    def test_first_failing_pair_raises(self, order, error):
        # the error of the first pair that a one-line call would refuse
        grid = make_log_grid(64, -3.0, 3.0)
        tame = sample(lambda r: r * np.exp(-r), grid)
        huge = HalfLineFunction(grid, np.full(64, 1e308))  # the FFT's sum overflows
        pairs = {
            "ok": (tame, 0.5),
            "overflow": (tame, -400.0),  # r^{-400} = e^{400 x} overflows
            "sum": (huge, 1e-6),
            "held-sum": (huge, 0.0),
        }
        with pytest.raises(error):
            mellin_lines([pairs[name] for name in order])

    def test_weight_overflowing_on_zero_samples_is_refused(self):
        # 0 * inf is NaN: refused as an overflowing weight, with no warning
        grid = make_log_grid(64, -3.0, 3.0)
        values = np.zeros(64)
        values[10] = 1.0
        with pytest.raises(NotAdmissible, match="overflows"):
            mellin_line(HalfLineFunction(grid, values), -400.0)


class TestInverse:
    def test_round_trip_gaussian(self, grid):
        f = gaussian_log(grid)
        back = mellin_inverse_line(mellin_line(f, 0.0), grid)
        assert rel_err(back, f) <= 1e-8

    def test_round_trip_shifted_line(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        back = mellin_inverse_line(mellin_line(f, 0.3), grid)
        assert rel_err(back, f) <= 1e-7

    def test_zero_line(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        back = mellin_inverse_line(mellin_line(f, 0.0), grid)
        assert np.all(back.values == 0)


class TestParseval:
    def test_log_gaussian(self, grid):
        assert parseval_defect(gaussian_log(grid)) <= 1e-8

    def test_zero(self, grid):
        assert parseval_defect(sample(lambda r: 0.0 * r, grid)) == 0.0

    def test_underflowing_norm_is_not_measured(self, grid):
        # ||f||^2 underflows to 0 on nonzero samples: NaN, not a passing 0
        f = sample_terms(make_terms([(1e-300, 2, 1.0)]), grid)
        assert np.isnan(parseval_defect(f))

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12, 1e-150])
    def test_relative_at_every_amplitude(self, monkeypatch, grid, scale):
        f = sample_terms(make_terms([(scale, 2, 1.0)]), grid)
        assert parseval_defect(f) <= 1e-14
        # an energy 1e-6 off reads 1e-6 off, however small f is
        exact = line_energy
        monkeypatch.setattr(mellin_module, "line_energy", lambda line: exact(line) * (1 + 1e-6))
        assert parseval_defect(f) == pytest.approx(1e-6, rel=1e-6)
        monkeypatch.setattr(mellin_module, "line_energy", lambda line: 0.0)
        assert parseval_defect(f) == 1.0

    def test_overflowing_energy_is_infinite(self, grid):
        # |M|^2 overflows: the energy reads +Inf, by the norms' rule, with no
        # warning (pytest turns warnings into errors); so does ||f||^2
        f = sample_terms(make_terms([(1e200, 3, 1.0)]), grid)
        assert line_energy(mellin_line(f, 0.0)) == np.inf
        assert np.isnan(parseval_defect(f))

    def test_gamma_member_both_sides(self, grid):
        # both sides equal ||r e^-r||^2 = 1/4
        f = sample_terms(family_member("r_exp"), grid)
        assert parseval_defect(f) <= 1e-7
        assert f.norm**2 == pytest.approx(0.25, rel=1e-7)
        assert line_energy(mellin_line(f, 0.0)) == pytest.approx(0.25, rel=1e-7)

    def test_family_on_default_grid(self, grid):
        for name, terms in FAMILY:
            assert parseval_defect(sample_terms(terms, grid)) <= 1e-8, name


class TestDerivativeRule:
    def test_log_gaussian(self, grid):
        assert derivative_rule_defect(gaussian_log(grid), 0.0) <= 1e-6

    def test_gamma_member_shifted(self, wide_grid):
        f = sample_terms(family_member("r_exp"), wide_grid)
        assert derivative_rule_defect(f, 0.5) <= 1e-6

    def test_zero(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        assert derivative_rule_defect(f, 0.0) == 0.0

    def test_log_derivative_closed_form(self, wide_grid):
        # X = -r d/dr and r d/dr (r e^-r) = (1 - r) r e^-r; window wide enough
        # that the e^-x tail sits below the spectral noise floor
        f = sample_terms(family_member("r_exp"), wide_grid)
        exact = sample(lambda r: (r - 1.0) * r * np.exp(-r), wide_grid)
        assert np.abs(apply_X(f).values - exact.values).max() <= 1e-8

    @pytest.mark.parametrize("n", [6912, 6911])
    def test_line_zero_holds_to_rounding(self, n):
        # mellin.cfg's window.  X f has no Nyquist mode on an even grid, and
        # the rule's multiplier there is LogGrid.i_frequencies' 0: i t_N
        # would make the bin read pi/h |R_N| / sup|R|, 1.1e-12 for r_exp
        grid = make_log_grid(n, -12.0, 28.0)
        for name, terms in FAMILY:
            assert derivative_rule_defect(sample_terms(terms, grid), 0.0) <= 1e-14, name

    def test_not_admissible_line(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        with pytest.raises(NotAdmissible):
            derivative_rule_defect(f, -1.5)

    def test_derivatives_read_the_held_spectrum(self, ffts, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        assert ffts(lambda: mellin_line(f, 0.0)) == (1, 0)
        # d/dx is one inverse transform; the line-0 rule adds the derivative's
        # forward one
        assert ffts(lambda: derivative_rule_defect(f, 0.0)) == (1, 1)
        # the rule's X f is held on f, and so is its spectrum
        assert ffts(lambda: apply_X(f)) == (0, 0)
        assert np.array_equal(apply_X(f).values, spectral_dx(f.values, grid))


class TestShiftLaw:
    @pytest.mark.parametrize("a, b", [(0.0, 0.3), (-0.25, 0.3), (-0.5, 0.2)])
    def test_family_on_default_grid(self, grid, a, b):
        for name, terms in FAMILY:
            assert shift_law_defect(sample_terms(terms, grid), a, b) <= 1e-10, name

    def test_zero(self, grid):
        assert shift_law_defect(sample(lambda r: 0.0 * r, grid), 0.0, 0.3) == 0.0

    def test_line_that_underflows_is_not_measured(self, grid):
        # one subnormal sample at x > 0: weighed by e^{-x}, both lines are 0
        values = np.zeros(grid.n_points)
        values[3 * grid.n_points // 4] = 5e-324
        f = HalfLineFunction(grid, values)
        assert np.isnan(shift_law_defect(f, 1.0, 0.0))

    def test_overflowing_shift_is_refused(self):
        # r^{-b} overflows where f is 0: f r^{-b} is NaN there, with no warning
        grid = make_log_grid(64, -3.0, 3.0)
        values = np.zeros(64)
        values[10] = 1.0
        with pytest.raises(NonFiniteSample):
            shift_law_defect(HalfLineFunction(grid, values), 0.0, 400.0)

    def test_equals_the_sup_of_the_spectra(self, grid):
        f = sample_terms(family_member("mix_23"), grid)
        shifted = HalfLineFunction(grid, f.values * np.exp(0.3 * grid.x))
        lhs = np.fft.rfft(shifted.values.real * np.exp(0.25 * grid.x))
        rhs = np.fft.rfft(f.values.real * np.exp(0.55 * grid.x))
        expected = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        assert shift_law_defect(f, -0.25, 0.3) == pytest.approx(expected, rel=1e-6, abs=1e-18)

    def test_shift_that_underflows_the_imaginary_part(self, grid):
        # f's imaginary part is one subnormal sample at x > 0, which e^{-x}
        # weighs to 0: f r^{-b} has no imaginary row, f has one, and the
        # missing row compares as zero
        values = sample_terms(family_member("r2_exp"), grid).values.astype(complex)
        values[3 * grid.n_points // 4] += 5e-324j
        f = HalfLineFunction(grid, values)
        assert len(mellin_line(f, 0.0).spectrum) == 2
        assert shift_law_defect(f, 0.0, -1.0) <= 1e-10


def _overflowing_transform() -> HalfLineFunction:
    """Finite samples that decay at both ends and whose sum overflows: so
    does their transform on every line near 0."""
    values = np.zeros(64)
    values[30:32] = 1e308
    return HalfLineFunction(make_log_grid(64, -3.0, 3.0), values)


class TestOverflowingTransform:
    """Finite samples whose transform overflows are one input fault,
    NonFiniteSample, at every entry point that transforms them."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: mellin_line(f, 0.0),
            lambda f: mellin_line(f, 1e-6),
            lambda f: solve_mellin(f, ModelRepParams(1, 1.0, 1.0)),
            lambda f: solve_mellin(f, ModelRepParams(1, 1.0, 1.0), lines=(0.0, -0.4)),
            lambda f: residual(f, f, 1.0),
            parseval_defect,
            lambda f: derivative_rule_defect(f, 0.0),
            lambda f: shift_law_defect(f, 0.0, 0.3),
            apply_X,
        ],
        ids=[
            "line-0", "line-1e-6", "solve", "solve-two-lines", "residual", "parseval",
            "derivative-rule", "shift-law", "apply-X",
        ],
    )
    def test_non_finite_sample(self, call):
        f = _overflowing_transform()
        with pytest.raises(NonFiniteSample, match="NaN or Inf"):
            call(f)


class TestStripAdmissible:
    """obstruction is defined only where g is admissible on the strip
    -m - DEFAULT_ADMISSIBILITY_MARGIN <= Re z <= 0."""

    def test_inside_strip(self, grid):
        # r^2 e^-r decays like r^2 at 0, past the edge -0.9: D = Gamma(2 - m)/sqrt(2 pi)
        f = sample_terms(family_member("r2_exp"), grid)
        d = obstruction(f, ModelRepParams(1, 1.0, 0.85))
        assert d == pytest.approx(INV_SQRT2PI * math.gamma(1.15), rel=1e-5)

    def test_divergent_edge_detected(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        with pytest.raises(NotAdmissible, match="at edge -1.5$"):
            obstruction(f, ModelRepParams(1, 1.0, 1.5 - DEFAULT_ADMISSIBILITY_MARGIN))

    def test_zero_everywhere(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        assert obstruction(f, ModelRepParams(1, 1.0, 5.0)) == 0.0

    def test_near_edge_named_as_zero(self, grid):
        # r^2 (1 + r)^-1.5 grows like r^0.5 as r -> inf: it decays at the far
        # edge -1.05 but not at 0, which the message names as 0.0, not -0.0
        f = sample(lambda r: r**2 * (1.0 + r) ** -1.5, grid)
        with pytest.raises(NotAdmissible, match=r"non-decaying weighted samples at edge 0\.0$"):
            obstruction(f, ModelRepParams(1, 1.0, 1.0))

    def test_one_weighted_pass_per_nonzero_edge(self, monkeypatch, grid):
        f = sample_terms(family_member("r_exp"), grid)
        weights = []  # the weights a at which f's profile is computed
        original = grid_module._hold

        def counted(owner, key, compute):
            if owner is f and key[0] == "profile":
                return original(owner, key, lambda: weights.append(key[1]) or compute())
            return original(owner, key, compute)

        monkeypatch.setattr(grid_module, "_hold", counted)
        p = ModelRepParams(1, 1.0, 0.85)
        obstruction(f, p)
        assert [a for a in weights if a != 0] == [p.m + DEFAULT_ADMISSIBILITY_MARGIN]
        assert f._held[("profile", p.m + DEFAULT_ADMISSIBILITY_MARGIN)].decays()


coef = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


class TestProperties:
    @given(c1=coef, c2=coef, alpha=coef, beta=coef)
    def test_linearity(self, grid, c1, c2, alpha, beta):
        f = sample_terms(make_terms([(c1, 1, 1.0)]), grid)
        g = sample_terms(make_terms([(c2, 2, 2.0)]), grid)
        combined = mellin_line(lin_comb(alpha, f, beta, g), 0.0)
        direct = alpha * line_values(mellin_line(f, 0.0)) + beta * line_values(mellin_line(g, 0.0))
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(line_values(combined) - direct).max() / scale <= 1e-13

    @given(c1=coef, c2=coef, a=st.floats(-0.3, 0.3), b=st.floats(-0.5, 0.5))
    def test_shift_law(self, grid, c1, c2, a, b):
        # weighting by r^-b shifts the line: M(f r^-b, a) = M(f, a - b)
        f = sample_terms(make_terms([(c1, 2, 1.0), (c2, 2, 2.0)]), grid)
        fb = HalfLineFunction(grid, f.values * np.exp(b * grid.x))
        lhs = line_values(mellin_line(fb, a))
        rhs = line_values(mellin_line(f, a - b))
        assert np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1e-300) <= 1e-10

    @given(c1=coef, c2=coef)
    def test_round_trip_and_parseval(self, grid, c1, c2):
        f = sample_terms(make_terms([(c1, 2, 1.0), (c2, 3, 2.0)]), grid)
        back = mellin_inverse_line(mellin_line(f, 0.0), grid)
        assert rel_err(back, f) <= 1e-8
        assert parseval_defect(f) <= 1e-8

    def test_derivative_rule_interior_lines(self, wide_grid):
        # defect small across lines interior to the admissible strip
        for name, terms in FAMILY:
            f = sample_terms(terms, wide_grid)
            from twisteq.families import min_power

            k = min_power(terms)
            for a in (0.0, -min(k, 2) / 4.0, 0.25):
                assert derivative_rule_defect(f, a) <= 1e-6, (name, a)
