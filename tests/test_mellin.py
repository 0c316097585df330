import numpy as np
import pytest
from hypothesis import given, strategies as st

from twisteq.errors import InvalidGrid, NotAdmissible, PoleOnLine
from twisteq.families import FAMILY, family_member, gaussian_log, make_terms, sample_terms
from twisteq.grid import HalfLineFunction, base_norm, lin_comb, make_log_grid, sample, trapezoid
from twisteq.mellin import (
    Strip,
    derivative_rule_defect,
    line_energy,
    log_derivative,
    mellin_inverse_line,
    mellin_line,
    parseval_defect,
    strip_admissible,
)
from twisteq.solver import divide_line

from oracles import mellin_exact, rel_err

INV_SQRT2PI = 0.3989422804014327  # 1/sqrt(2 pi)


class TestMellinLine:
    def test_log_gaussian_line(self, grid):
        # f(e^-x) = e^{-x^2/2} transforms to e^{-t^2/2} on the line a=0
        f = gaussian_log(grid)
        line = mellin_line(f, 0.0)
        assert np.abs(line.values - np.exp(-0.5 * line.t_samples**2)).max() <= 1e-8

    def test_gamma_value_at_origin(self, wide_grid):
        f = sample_terms(family_member("r_exp"), wide_grid)
        line = mellin_line(f, 0.0)
        k0 = np.argmin(np.abs(line.t_samples))
        assert line.t_samples[k0] == 0.0
        assert line.values[k0] == pytest.approx(INV_SQRT2PI, rel=1e-7)

    def test_gamma_profile_along_line(self, wide_grid):
        terms = family_member("r2_exp2")
        f = sample_terms(terms, wide_grid)
        line = mellin_line(f, -0.5)
        # compare on the central bins where Gamma has not decayed below noise
        sel = np.abs(line.t_samples) <= 20.0
        exact = mellin_exact(terms, -0.5 + 1j * line.t_samples[sel])
        assert np.abs(line.values[sel] - exact).max() <= 1e-10

    def test_zero_function(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        line = mellin_line(f, 0.0)
        assert np.all(line.values == 0)
        assert line.admissible

    def test_frequencies_symmetric(self, grid):
        line = mellin_line(gaussian_log(grid), 0.0)
        t = line.t_samples
        assert np.all(np.diff(t) > 0)
        assert abs(t[np.argmin(np.abs(t))]) == 0.0
        spacing = 2.0 * np.pi / (grid.n_points * grid.h)
        assert np.allclose(np.diff(t), spacing, rtol=1e-12)


class TestLineRepresentation:
    """A line holds the FFT-order spectrum; values and t_samples are views of it."""

    @pytest.mark.parametrize("a", [0.0, -0.5, 0.4])
    def test_values_match_direct_sum(self, grid, a):
        # (h/sqrt(2 pi)) sum_j f_j e^{-a x_j} e^{-i t_k x_j}, summed without the FFT
        # relative to the line's sup norm: the sum cancels where the line decays
        f = sample_terms(family_member("r2_exp"), grid)
        line = mellin_line(f, a)
        scale = np.abs(line.values).max()
        n = grid.n_points
        for k in (n // 2, n // 2 + 1, n // 2 - 3, n // 2 + 17, n // 2 - 40):
            t = line.t_samples[k]
            terms = f.values * np.exp(-a * grid.x) * np.exp(-1j * t * grid.x)
            direct = grid.h / np.sqrt(2.0 * np.pi) * terms.sum()
            assert abs(line.values[k] - direct) <= 1e-12 * scale, k

    def test_line_energy_is_trapezoid_of_values(self, grid):
        line = mellin_line(sample_terms(family_member("r_exp"), grid), -0.3)
        dt = line.t_samples[1] - line.t_samples[0]
        expected = trapezoid(np.abs(line.values) ** 2, dt)
        assert line_energy(line) == pytest.approx(expected, rel=1e-12)

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
        with pytest.raises(InvalidGrid):
            mellin_inverse_line(line, make_log_grid(*other))


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

    def test_gamma_member_both_sides(self, grid):
        # both sides equal ||r e^-r||^2 = 1/4
        f = sample_terms(family_member("r_exp"), grid)
        assert parseval_defect(f) <= 1e-7
        assert base_norm(f) ** 2 == pytest.approx(0.25, rel=1e-7)
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
        # r d/dr (r e^-r) = (1 - r) r e^-r; window wide enough that the
        # e^-x tail sits below the spectral noise floor
        f = sample_terms(family_member("r_exp"), wide_grid)
        df = log_derivative(f)
        exact = sample(lambda r: (1.0 - r) * r * np.exp(-r), wide_grid)
        assert np.abs(df.values - exact.values).max() <= 1e-8

    def test_not_admissible_line(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        with pytest.raises(NotAdmissible):
            derivative_rule_defect(f, -1.5)


class TestStripAdmissible:
    def test_inside_strip(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        assert strip_admissible(f, Strip(-0.9, 0.0)).ok

    def test_divergent_edge_detected(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        check = strip_admissible(f, Strip(-1.5, 0.0))
        assert not check.ok
        assert "-1.5" in check.diagnostic

    def test_zero_everywhere(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        assert strip_admissible(f, Strip(-5.0, 5.0)).ok


coef = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


class TestProperties:
    @given(c1=coef, c2=coef, alpha=coef, beta=coef)
    def test_linearity(self, grid, c1, c2, alpha, beta):
        f = sample_terms(make_terms([(c1, 1, 1.0)]), grid)
        g = sample_terms(make_terms([(c2, 2, 2.0)]), grid)
        combined = mellin_line(lin_comb(alpha, f, beta, g), 0.0)
        direct = alpha * mellin_line(f, 0.0).values + beta * mellin_line(g, 0.0).values
        scale = max(np.abs(direct).max(), 1e-300)
        assert np.abs(combined.values - direct).max() / scale <= 1e-13

    @given(c1=coef, c2=coef, a=st.floats(-0.3, 0.3), b=st.floats(-0.5, 0.5))
    def test_shift_law(self, grid, c1, c2, a, b):
        # weighting by r^-b shifts the line: M(f r^-b, a) = M(f, a - b)
        f = sample_terms(make_terms([(c1, 2, 1.0), (c2, 2, 2.0)]), grid)
        fb = HalfLineFunction(grid, f.values * np.exp(b * grid.x))
        lhs = mellin_line(fb, a).values
        rhs = mellin_line(f, a - b).values
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
