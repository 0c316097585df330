import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twisteq import grid as grid_module
from twisteq.errors import GridMismatch, InvalidGrid, NonFiniteSample
from twisteq.families import FAMILY, flow_rhs, make_terms, sample_terms
from twisteq.grid import (
    HalfLineFunction,
    Profile,
    decay_admissible,
    lin_comb,
    make_log_grid,
    measured,
    relative_difference,
    relative_to,
    sample,
    trapezoid,
    weighted_norm,
)

from oracles import decays_reference, weighted_norm_exact
from rep_algebra import gaussian_log

PI_QUARTER = 1.3313353638003897  # pi**(1/4)
SQRT_E_PI_QUARTER = 2.195000932732996  # e**(1/2) * pi**(1/4)


class TestMakeLogGrid:
    def test_small_grid_spacing(self):
        g = make_log_grid(16, -1.0, 1.0)
        assert g.h == pytest.approx(2.0 / 15.0, rel=1e-15)

    def test_default_experiment_grid(self):
        g = make_log_grid(4096, -12.0, 12.0)
        assert g.h == pytest.approx(0.005860805860805861, rel=1e-15)

    def test_r_strictly_decreasing(self):
        g = make_log_grid(64, -3.0, 3.0)
        assert np.all(np.diff(g.r) < 0)
        assert g.x[0] == -3.0 and g.x[-1] == 3.0

    def test_too_few_points(self):
        with pytest.raises(InvalidGrid):
            make_log_grid(8, 0.0, 1.0)

    def test_reversed_bounds(self):
        with pytest.raises(InvalidGrid):
            make_log_grid(32, 1.0, -1.0)

    def test_r_overflowing_at_the_left_end_accepted(self):
        # r = e^{-x} is +Inf left of -log(float max); there e^{-c r} is 0,
        # and so is every sampled term
        g = make_log_grid(8192, -800.0, 12.0)
        f = sample_terms(make_terms([(1.0, 2, 1.0)]), g)
        beyond = g.x < -math.log(sys.float_info.max)
        assert beyond.any() and np.isinf(g.r[beyond]).all()
        assert np.all(f.values[beyond] == 0)
        assert f.sup == pytest.approx(4 * np.exp(-2.0), rel=5e-3)


class TestHeldWeights:
    @pytest.mark.parametrize("a", [-0.8, -0.05, 0.4, 1.05, 40.0])
    def test_weight_is_the_exponential(self, a):
        grid = make_log_grid(4096, -12.0, 24.0)
        with np.errstate(over="ignore"):
            expected = np.exp(a * grid.x)
        w = grid.weight(a)
        assert np.array_equal(w, expected)  # bit for bit, +Inf included at a = 40
        assert not w.flags.writeable
        assert grid.weight(a) is w
        # held on the grid object: an equal grid holds its own copy
        twin = make_log_grid(4096, -12.0, 24.0)
        assert twin == grid and hash(twin) == hash(grid)
        assert twin.weight(a) is not w and np.array_equal(twin.weight(a), w)

    def test_i_frequencies(self):
        # i t_k in every bin but an even grid's Nyquist bin, whose mode
        # (-1)^j has no derivative at the nodes
        for n in (64, 65):
            grid = make_log_grid(n, -3.0, 3.0)
            i_omega = grid.i_frequencies
            expected = 1j * grid.frequencies
            if n == 64:
                expected[-1] = 0
            assert np.array_equal(i_omega, expected) and i_omega.shape == (n // 2 + 1,)
            assert not i_omega.flags.writeable and grid.i_frequencies is i_omega

    def test_sampling_rates_computed_once_per_call(self, exps):
        grid = make_log_grid(4096, -12.0, 12.0)
        grid.r
        # (X + m) of one term has three terms, all at the rate c = 1.5
        terms = flow_rhs(make_terms([(1.0, 2, 1.5)]), 0.7)
        assert exps(lambda: sample_terms(terms, grid)) == 1
        f = sample_terms(terms, grid)
        with np.errstate(under="ignore"):
            acc = np.zeros(grid.n_points, dtype=np.complex128)
            for coef, k, c in terms:
                acc += coef * (grid.r**k * np.exp(-c * grid.r))
        assert np.array_equal(f.values, acc)
        # nothing is held across calls
        assert exps(lambda: sample_terms(terms, grid)) == 1
        assert not grid._held


class TestSample:
    def test_zero(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        assert np.all(f.values == 0)

    def test_decaying_product(self, grid):
        f = sample(lambda r: r * np.exp(-r), grid)
        assert np.all(np.isfinite(f.values))
        assert decay_admissible(f, 0.0)

    def test_overflowing_expression(self):
        g = make_log_grid(32, -1.0, 800.0)  # r down to e^-800, 1/r overflows
        with pytest.raises(NonFiniteSample, match="expression produced NaN or Inf on the grid"):
            sample(lambda r: 1.0 / r, g)

    def test_values_immutable(self, grid):
        f = sample(lambda r: r * np.exp(-r), grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestWeightedNorm:
    def test_log_gaussian_base_norm(self, grid):
        f = gaussian_log(grid)
        assert weighted_norm(f, 0.0) == pytest.approx(PI_QUARTER, rel=1e-8)

    def test_log_gaussian_weighted(self, grid):
        f = gaussian_log(grid)
        assert weighted_norm(f, 1.0) == pytest.approx(SQRT_E_PI_QUARTER, rel=1e-8)

    def test_zero_function(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        assert weighted_norm(f, 0.7) == 0.0

    def test_family_closed_forms(self, wide_grid):
        for name, terms in FAMILY:
            f = sample_terms(terms, wide_grid)
            for a in (0.0, 0.3):
                assert weighted_norm(f, a) == pytest.approx(
                    weighted_norm_exact(terms, a), rel=1e-8
                ), name

    def test_overflow_reports_inf(self, grid):
        f = sample(lambda r: r * np.exp(-r), grid)
        assert weighted_norm(f, 40.0) == np.inf


def _ends(first: float, last: float) -> np.ndarray:
    """16 weighted magnitudes with peak 1 and the given end values."""
    w = np.full(16, 0.5)
    w[8] = 1.0
    w[0], w[-1] = first, last
    return w


ABOVE = np.nextafter(0.25, 1.0)  # one ulp above tol * peak at tol = 0.25


class TestDecayTest:
    """A profile's decay test agrees with the sample-by-sample reference."""

    @pytest.mark.parametrize(
        "w, expected",
        [
            (np.where(np.arange(16) == 5, np.nan, 0.1), False),
            (_ends(np.nan, 0.0), False),
            (np.where(np.arange(16) == 5, np.inf, 0.1), False),
            (np.zeros(16), True),
            (_ends(0.25, 0.1), True),
            (_ends(0.1, 0.25), True),
            (_ends(ABOVE, 0.1), False),
            (_ends(0.1, ABOVE), False),
        ],
        ids=["nan", "nan-end", "inf", "zero", "first-end-at-bound", "last-end-at-bound",
             "first-end-ulp-above", "last-end-ulp-above"],
    )
    def test_hand_built_profiles(self, monkeypatch, w, expected):
        monkeypatch.setattr(grid_module, "DECAY_TOL", 0.25)
        assert decays_reference(w, 0.25) is expected
        assert Profile.of(w, 0.1).decays() is expected
        if np.isfinite(w).all():
            f = HalfLineFunction(make_log_grid(16, -1.0, 1.0), w)
            assert decay_admissible(f, 0.0) is expected

    def test_family(self, monkeypatch, grid):
        verdicts = set()
        for name, terms in FAMILY:
            f = sample_terms(terms, grid)
            for a in (0.0, 0.5, -1.0):
                w = np.abs(f.values) * grid.weight(a)
                for tol in (0.5, 1e-3):
                    # the held profile answers the tolerance read at call time
                    monkeypatch.setattr(grid_module, "DECAY_TOL", tol)
                    expected = decays_reference(w, tol)
                    assert decay_admissible(f, a) is expected, (name, a, tol)
                    verdicts.add(expected)
        assert verdicts == {True, False}


class TestHalfLineFunction:
    @pytest.mark.parametrize("index", [0, 31, 63], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("part", [1.0, 1j], ids=["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_sample_rejected(self, bad, part, index):
        grid = make_log_grid(64, -3.0, 3.0)
        values = np.exp(-grid.x**2) * (1.0 + 0.5j)
        if part == 1.0:
            values.real[index] = bad
        else:
            values.imag[index] = bad
        with pytest.raises(NonFiniteSample):
            HalfLineFunction(grid, values)

    def test_caller_array_is_copied(self):
        grid = make_log_grid(64, -3.0, 3.0)
        values = np.exp(-grid.x**2) + 0j
        f = HalfLineFunction(grid, values)
        values[0] = 5.0
        assert f.values[0] != 5.0

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_norm_is_the_trapezoid_norm(self, grid, name, terms):
        f = sample_terms(terms, grid)
        uncached = float(np.sqrt(trapezoid(np.abs(f.values) ** 2, grid.h)))
        assert f.norm == uncached
        assert f._held[("profile", 0.0)].norm == uncached  # computed once, then held
        assert weighted_norm(f, 0.0) == uncached


class TestUnderflow:
    """Norms of tiny nonzero samples underflow to 0; a quotient by one is NaN."""

    def test_relative_difference_to_underflowing_reference(self, grid):
        tiny = sample_terms(make_terms([(1e-300, 2, 1.0)]), grid)
        assert tiny.norm == 0.0
        assert np.isnan(relative_difference(lin_comb(2.0, tiny, 0.0, tiny), tiny))

    def test_measured_norm(self, grid):
        # a 0 on nonzero samples is not measured; a 0 on zero samples is
        tiny = sample_terms(make_terms([(1e-300, 2, 1.0)]), grid)
        zero = sample(lambda r: 0.0 * r, grid)
        assert np.isnan(measured(tiny.norm, tiny))
        assert measured(zero.norm, zero) == 0.0
        assert np.isnan(measured(0.0, zero, tiny))
        assert measured(1e-160, tiny) == 1e-160 and measured(np.inf, tiny) == np.inf

    def test_infinite_over_infinite_is_nan(self, grid):
        # both norms overflow: inf / inf is not measured, and a numpy scalar
        # (a swept twist m times the norm) divides with no warning
        huge = sample_terms(make_terms([(1e200, 3, 1.0)]), grid)
        assert huge.norm == np.inf
        assert np.isnan(relative_to(np.float64(1.1) * huge.norm, huge))

    def test_relative_difference_to_zero_reference(self, grid):
        f = sample_terms(make_terms([(1.0, 2, 1.0)]), grid)
        zero = sample(lambda r: 0.0 * r, grid)
        assert relative_difference(f, zero) == f.norm


class TestLinComb:
    def test_identity(self, grid):
        f = sample_terms(make_terms([(1.0, 1, 1.0)]), grid)
        g = sample_terms(make_terms([(1.0, 2, 2.0)]), grid)
        out = lin_comb(1.0, f, 0.0, g)
        assert np.array_equal(out.values, f.values)

    def test_cancellation(self, grid):
        f = sample_terms(make_terms([(1.0, 1, 1.0)]), grid)
        out = lin_comb(1.0, f, -1.0, f)
        assert np.all(out.values == 0)

    def test_scaled_cancellation(self, grid):
        f = sample(lambda r: r * np.exp(-r), grid)
        g = HalfLineFunction(grid, -2.0 * f.values)
        out = lin_comb(2.0, f, 1.0, g)
        assert np.abs(out.values).max() == 0.0

    def test_grid_mismatch(self, grid):
        f = sample(lambda r: r * np.exp(-r), grid)
        g = sample(lambda r: r * np.exp(-r), make_log_grid(64, -3.0, 3.0))
        with pytest.raises(GridMismatch):
            lin_comb(1.0, f, 1.0, g)


coef = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def _member(c1, c2):
    return make_terms([(c1, 1, 1.0), (c2, 2, 2.0)])


class TestNormProperties:
    @given(c1=coef, c2=coef, alpha=coef, a=st.floats(0.0, 0.4))
    def test_absolute_homogeneity(self, grid, c1, c2, alpha, a):
        f = sample_terms(_member(c1, c2), grid)
        scaled = HalfLineFunction(grid, alpha * f.values)
        assert weighted_norm(scaled, a) == pytest.approx(
            abs(alpha) * weighted_norm(f, a), rel=1e-12, abs=1e-300
        )

    @given(c1=coef, c2=coef, d1=coef, d2=coef, a=st.floats(0.0, 0.4))
    def test_triangle_inequality(self, grid, c1, c2, d1, d2, a):
        f = sample_terms(_member(c1, c2), grid)
        g = sample_terms(_member(d1, d2), grid)
        lhs = weighted_norm(lin_comb(1.0, f, 1.0, g), a)
        assert lhs <= weighted_norm(f, a) + weighted_norm(g, a) + 1e-12

    @given(
        c1=coef,
        c2=coef,
        a=st.floats(0.05, 0.45),
        frac=st.floats(0.0, 1.0),
    )
    def test_weight_interchange(self, grid, c1, c2, a, frac):
        # ||f r^-b|| <= ||f r^-a|| + ||f|| for 0 <= b <= a
        f = sample_terms(_member(c1, c2), grid)
        b = frac * a
        lhs = weighted_norm(f, b)
        rhs = weighted_norm(f, a) + f.norm
        assert lhs <= rhs * (1.0 + 1e-10)
