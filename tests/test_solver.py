import csv
import ctypes
import errno
import math
from pathlib import Path

import numpy as np
import pytest

import twisteq
from twisteq import grid as grid_module
from twisteq import solver
from twisteq.cli import main, parse_config
from twisteq.errors import DegenerateBump, GridMismatch, NonFiniteSample, NotAdmissible, PoleOnLine
from twisteq.families import FAMILY, family_member, flow_rhs, make_terms, min_power, sample_terms
from twisteq.grid import (
    MAX_HELD,
    HalfLineFunction,
    decay_admissible,
    lin_comb,
    make_log_grid,
    relative_difference,
    sample,
    vanishes,
    weighted_norm,
)
from twisteq.reps import ModelRepParams, apply_X, fractional_weight
from twisteq.solver import (
    DEFAULT_ADMISSIBILITY_MARGIN,
    _fd_derivative,
    estimate_sweep,
    magnitude,
    obstruction,
    project_obstruction,
    reported_obstruction,
    residual,
    solve_mellin,
    solve_semigroup,
)

from oracles import rel_err, semigroup_recurrence
from rep_algebra import RankTwoParams, fractional_weight_u2

INV_SQRT2PI = 0.3989422804014327

SOLVE_CFG = parse_config(Path(__file__).resolve().parent.parent / "configs" / "solve.cfg")


@pytest.fixture(scope="module")
def p():
    return ModelRepParams(sigma=1, lambda1=1.0, m=1.0)


@pytest.fixture(scope="module")
def obstructed(wide_grid):
    return sample_terms(family_member("r2_exp"), wide_grid)


@pytest.fixture(scope="module")
def projected(wide_grid, p, obstructed):
    bump = sample_terms(family_member("r2_exp2"), wide_grid)
    return project_obstruction(obstructed, p, bump)


class TestObstruction:
    def test_closed_form_value(self, obstructed, p):
        # D(r^2 e^-r) at m=1 is integral of e^-r dr / sqrt(2 pi)
        assert obstruction(obstructed, p) == pytest.approx(INV_SQRT2PI, rel=1e-7)

    def test_cancelling_combination(self, wide_grid, p):
        g = sample_terms(make_terms([(1.0, 2, 1.0), (-2.0, 2, 2.0)]), wide_grid)
        assert abs(obstruction(g, p)) <= 1e-8

    def test_zero(self, wide_grid, p):
        g = sample(lambda r: 0.0 * r, wide_grid)
        assert obstruction(g, p) == 0.0

    def test_insufficient_regularity(self, wide_grid, p):
        g = sample_terms(family_member("r_exp"), wide_grid)  # k = 1 = m
        with pytest.raises(NotAdmissible):
            obstruction(g, p)

    def test_invariance_on_twisted_coboundaries(self, p):
        # D((X+m) f) = 0 whenever f has depth beyond m.  The window trades
        # the e^{-(k-m) x_max} truncation tail against the e^{m x_max}
        # amplification of the derivative noise floor; x_max = 18 sits near
        # the optimum for k = 2.
        grid = make_log_grid(5120, -12.0, 18.0)
        for name in ("r2_exp", "r3_exp", "mix_23"):
            f = sample_terms(family_member(name), grid)
            g = lin_comb(1.0, apply_X(f), p.m, f)
            assert abs(obstruction(g, p)) <= 1e-7 * f.norm, name


class TestProjectObstruction:
    def test_closed_form_coefficient(self, wide_grid, p, obstructed, projected):
        # D(g)/D(bump) = 2, so the projection is r^2 e^-r - 2 r^2 e^-2r
        exact = sample_terms(make_terms([(1.0, 2, 1.0), (-2.0, 2, 2.0)]), wide_grid)
        assert rel_err(projected, exact) <= 1e-7

    def test_projection_kills_obstruction(self, projected, p):
        assert abs(obstruction(projected, p)) <= 1e-12

    def test_already_projected_unchanged(self, wide_grid, p, projected):
        bump = sample_terms(family_member("r2_exp2"), wide_grid)
        again = project_obstruction(projected, p, bump)
        assert rel_err(again, projected) <= 1e-12

    def test_real_projection_stays_real(self, wide_grid, p, obstructed, projected):
        # D of real data is real, so the projection is g + c bump with a
        # real c, formed in float64
        bump = sample_terms(family_member("r2_exp2"), wide_grid)
        d_g, d_bump = obstruction(obstructed, p), obstruction(bump, p)
        assert isinstance(d_g, float) and isinstance(d_bump, float)
        c = -d_g / d_bump
        assert projected.values.dtype == np.float64
        assert np.array_equal(projected.values, obstructed.values + c * bump.values)
        # complex data keep a complex D
        rotated = HalfLineFunction(wide_grid, 1j * obstructed.values)
        assert obstruction(rotated, p) == pytest.approx(1j * d_g, rel=1e-15)

    def test_degenerate_bump(self, wide_grid, p, obstructed):
        zero = sample(lambda r: 0.0 * r, wide_grid)
        with pytest.raises((DegenerateBump, NotAdmissible)):
            project_obstruction(obstructed, p, zero)


class TestSolveSemigroup:
    def test_exact_solution_m1(self, wide_grid, obstructed):
        f = solve_semigroup(obstructed, 1.0)
        exact = sample_terms(make_terms([(1.0, 1, 1.0)]), wide_grid)
        assert rel_err(f, exact) <= 1e-7

    def test_exact_solution_m2(self, wide_grid):
        g = sample_terms(make_terms([(1.0, 3, 1.0)]), wide_grid)
        f = solve_semigroup(g, 2.0)
        exact = sample_terms(make_terms([(1.0, 2, 1.0)]), wide_grid)
        assert rel_err(f, exact) <= 1e-7

    def test_zero(self, wide_grid):
        g = sample(lambda r: 0.0 * r, wide_grid)
        assert np.all(solve_semigroup(g, 1.0).values == 0)

    def test_residual(self, wide_grid, obstructed):
        f = solve_semigroup(obstructed, 1.0)
        assert residual(f, obstructed, 1.0) <= 1e-6

    def test_base_bound(self, wide_grid):
        for name, terms in FAMILY:
            g = sample_terms(terms, wide_grid)
            for m in (0.5, 1.0, 2.0):
                f = solve_semigroup(g, m)
                assert m * f.norm <= (1.0 + 1e-8) * g.norm, (name, m)

    def test_overflow_regime_recurrence(self):
        # m * max|x| = 13 * 48 >= 600: e^{m x} would overflow, so the
        # cumulative sum runs in two blocks, each in its own scale.
        grid = make_log_grid(8192, -12.0, 48.0)
        exact_terms = make_terms([(1.0, 2, 1.0)])
        g = sample_terms(flow_rhs(exact_terms, 13.0), grid)
        f = solve_semigroup(g, 13.0)
        assert rel_err(f, sample_terms(exact_terms, grid)) <= 1e-6
        assert residual(f, g, 13.0) <= 1e-6

    @pytest.mark.parametrize("input_kind", ["bump", "family"])
    @pytest.mark.parametrize(
        "m, n, x_min, x_max",
        [
            (SOLVE_CFG.m, SOLVE_CFG.n_points, SOLVE_CFG.x_min, SOLVE_CFG.x_max),
            (13.0, 8192, -12.0, 48.0),  # two blocks
            (40.0, 8192, -40.0, 76.0),  # nine blocks, k = -3 .. 5
        ],
        ids=["solve-cfg", "two-blocks", "nine-blocks"],
    )
    def test_blocked_sum_matches_recurrence(self, m, n, x_min, x_max, input_kind):
        grid = make_log_grid(n, x_min, x_max)
        if input_kind == "bump":
            # a broad oscillating bump in x puts weight in every block
            centre, width = (x_min + x_max) / 2.0, (x_max - x_min) / 6.0
            x = grid.x
            g = HalfLineFunction(grid, np.exp(-0.5 * ((x - centre) / width) ** 2 + 1j * x))
        else:
            g = sample_terms(flow_rhs(make_terms([(1.0, 2, 1.0)]), m), grid)
        assert rel_err(solve_semigroup(g, m), semigroup_recurrence(g, m)) <= 1e-12

    @pytest.mark.parametrize("input_kind", ["bump", "family"])
    def test_blocked_sum_keeps_the_bits_of_complex_division(self, input_kind):
        # m = 140 on [-30, 30]: blocks of width 600/140 in x, k = -7 .. 7
        grid = make_log_grid(4096, -30.0, 30.0)
        if input_kind == "bump":
            x = grid.x
            g = HalfLineFunction(grid, np.exp(-0.5 * (x / 10.0) ** 2 + 1j * x))
        else:
            g = sample_terms(make_terms([(0.5 - 2.0j, 1, 1.0), (1.5j, 3, 0.5)]), grid)
        for m in (0.7, 13.0, 140.0):
            assert np.array_equal(solve_semigroup(g, m).values, _semigroup_by_division(g, m)), m


def _semigroup_by_division(g: HalfLineFunction, m: float) -> np.ndarray:
    """solve_semigroup with each block divided by its complex-cast scale."""
    grid, h, x, G, n = g.grid, g.grid.h, g.grid.x, g.values, g.grid.n_points
    w = 600.0 / m
    F = np.empty(n, dtype=np.complex128)
    F[0] = 0.0
    start = 0
    with np.errstate(under="ignore"):
        while start < n:
            k = np.rint(x[start] / w)
            edge = ((k + 0.5) * w - grid.x_min) / h
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
            F[lo + 1 : stop] /= scale[1:]
            start = stop
    psi = _fd_derivative(G, h)
    psi += m * G
    with np.errstate(under="ignore"):
        damp = np.exp(m * (grid.x_min - x))
    psi -= psi[0] * damp
    psi *= h * h / 12.0
    F -= psi
    return F


class TestSolveMellin:
    def test_matches_semigroup_oracle(self, wide_grid, p, projected):
        report = solve_mellin(projected, p, s=2.0, lines=(0.0, -0.5, -0.8))
        oracle = solve_semigroup(projected, p.m)
        assert rel_err(report.solution, oracle) <= 1e-6
        assert report.coincidence_defect <= 1e-6
        assert report.residual <= 1e-6

    def test_obstructed_weighted_norm_flagged(self, wide_grid, p, obstructed):
        report = solve_mellin(obstructed, p, lines=(0.0,), t_list=(1.0,))
        entry = report.weighted_norms[0]
        assert not entry.admissible
        assert any("not-admissible" in flag for flag in report.flags)

    def test_pole_on_line(self, wide_grid, p, obstructed):
        with pytest.raises(PoleOnLine):
            solve_mellin(obstructed, p, lines=(0.0, -1.0))

    def test_projected_line_near_pole_allowed(self, wide_grid, p, projected):
        report = solve_mellin(projected, p, lines=(0.0, -0.99))
        assert report.coincidence_defect <= 1e-5

    def test_not_admissible_line(self, wide_grid, p, obstructed):
        with pytest.raises(NotAdmissible):
            solve_mellin(obstructed, p, lines=(0.0, -2.5))

    def test_line_zero_near_the_pole_is_gated(self, wide_grid, obstructed):
        # at m < EPS_POLE line 0 itself passes near -m, so even a line-0
        # solve evaluates D(g) and refuses the obstructed input
        with pytest.raises(PoleOnLine):
            solve_mellin(obstructed, ModelRepParams(sigma=1, lambda1=1.0, m=0.03))

    def test_oracle_agreement_family(self, wide_grid, p):
        # every obstruction-free input: the two routes agree
        bump = sample_terms(family_member("r2_exp2"), wide_grid)
        for name, terms in FAMILY:
            if min_power(terms) <= p.m:
                continue
            g = sample_terms(terms, wide_grid)
            if name != "r2_exp2":
                g = project_obstruction(g, p, bump)
            report = solve_mellin(g, p, lines=(0.0,))
            oracle = solve_semigroup(g, p.m)
            assert rel_err(report.solution, oracle) <= 1e-6, name

    def test_base_bound_sweep(self, wide_grid):
        for m in (0.5, 0.75, 1.0, 1.5, 2.0):
            for lam in (-2.0, -1.0, 0.5, 1.0, 2.0):
                p = ModelRepParams(sigma=1, lambda1=lam, m=m)
                for name, terms in FAMILY:
                    g = sample_terms(terms, wide_grid)
                    report = solve_mellin(g, p, lines=(0.0,))
                    assert report.base_norm_ratio <= 1.0 + 1e-8, (name, m, lam)


class TestObstructionWork:
    """D(g) is evaluated only where it is gated or reported, and each
    evaluation runs its strip gates and its quadrature: D is not held."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """{"calls": solver.obstruction calls, "quadratures": D's quadratures}"""
        counts = {"calls": 0, "quadratures": 0}
        call, quadrature = solver.obstruction, solver.trapezoid

        def counted_call(*args):
            counts["calls"] += 1
            return call(*args)

        def counted_quadrature(*args):
            counts["quadratures"] += 1
            return quadrature(*args)

        monkeypatch.setattr(solver, "obstruction", counted_call)
        monkeypatch.setattr(solver, "trapezoid", counted_quadrature)
        return counts

    def test_line_zero_solve_evaluates_no_obstruction(self, counts, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        solve_mellin(g, p, lines=(0.0,), t_list=(0.0, 0.5))
        estimate_sweep(g, ModelRepParams(sigma=1, lambda1=-1.0, m=1.5), 1.0, (0.0, 0.5))
        assert counts == {"calls": 0, "quadratures": 0}

    def test_gate_and_report_each_compute_d(self, counts, wide_grid):
        g = sample_terms(family_member("r2_exp"), wide_grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        solve_mellin(g, p, lines=(0.0, -0.4))
        assert counts == {"calls": 1, "quadratures": 1}
        d, flags = reported_obstruction(g, p)
        assert counts == {"calls": 2, "quadratures": 2}
        assert flags == () and d == pytest.approx(INV_SQRT2PI, rel=1e-7)
        # every evaluation gives the same bits
        assert obstruction(g, p) == d

    def test_undefined_obstruction_reported_with_its_flag(self, grid):
        g = sample_terms(family_member("r_exp"), grid)  # k = m = 1
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        with pytest.raises(NotAdmissible):
            obstruction(g, p)
        d, flags = reported_obstruction(g, p)
        assert np.isnan(d) and math.isnan(magnitude(d))
        assert flags == ("obstruction-undefined",)
        # a solve that gates with the undefined D carries no flag of its own
        assert solve_mellin(g, p, lines=(0.0, -0.4), t_list=(0.0,)).flags == ()


def _composed(f: HalfLineFunction, g: HalfLineFunction, m: float) -> float:
    """The residual composed at the nodes: the trapezoid norm of X f + m f - g,
    X f being apply_X(f) (the inverse of i t times f's spectrum), over ||g||."""
    return relative_difference(lin_comb(1.0, apply_X(f), m, f), g)


def _rounding(f: HalfLineFunction, g: HalfLineFunction, m: float) -> float:
    """eps log2(n) (|m + i t_max| ||f|| + ||g||) / ||g||: a real FFT's
    rounding error in the l2 norm is about eps log2(n) times the norm of
    what it transforms, spread over every bin, and the multiplier m + i t of
    X + m amplifies f's by at most |m + i t_max| at the top bin.  Both
    residuals, by Parseval and composed at the nodes, transform f."""
    n = f.grid.n_points
    top = abs(m + 1j * f.grid.frequencies[-1])
    return np.finfo(float).eps * math.log2(n) * (top * f.norm + g.norm) / g.norm


class TestResidual:
    """residual takes the defect's norm from its half-spectrum by discrete
    Parseval; the norm of the defect composed at the nodes agrees with it up
    to rounding."""

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_one_buffer_equals_composed_operators(self, grid, name, terms):
        # (m + i t) F - G in one buffer, its norm by Parseval, against X f +
        # m f - g at the nodes
        m = 0.75
        f = sample_terms(terms, grid)
        for g in (sample_terms(flow_rhs(terms, m), grid), sample_terms(terms, grid)):
            assert abs(residual(f, g, m) - _composed(f, g, m)) <= _rounding(f, g, m), name

    @pytest.mark.parametrize("n", [4096, 4095, 64, 17], ids=["even", "odd", "even-64", "odd-17"])
    def test_parseval_norm_is_the_trapezoid_norm(self, n, p):
        # an even grid's Nyquist bin has bin weight 1 and an odd one has none;
        # real and complex f and g, and the first and last nodes' halves
        grid = make_log_grid(n, -6.0, 6.0)
        real = sample_terms(make_terms([(1.0, 2, 1.0), (-0.5, 3, 2.0)]), grid)
        cplx = sample_terms(make_terms([(1 + 2j, 2, 1.0), (0.5j, 3, 2.0)]), grid)
        ends = HalfLineFunction(grid, np.exp(-(grid.x / 3.0) ** 2) + 1j * np.cos(grid.x))
        pairs = {"real": (real, real), "real-complex": (real, cplx), "complex-real": (cplx, real),
                 "complex": (cplx, cplx), "ends": (ends, cplx)}
        for label, (f, g) in pairs.items():
            for m in (p.m, 1e-3, 40.0):
                gap = abs(residual(f, g, m) - _composed(f, g, m))
                assert gap <= _rounding(f, g, m), (label, m)

    def test_zero_defect_and_zero_f(self, grid):
        zero = HalfLineFunction(grid, np.zeros(grid.n_points))
        g = sample_terms(family_member("r2_exp"), grid)
        assert residual(zero, zero, 1.0) == 0.0
        # the defect is -g: ||g|| by Parseval over ||g|| at the nodes
        assert residual(zero, g, 1.0) == pytest.approx(1.0, abs=_rounding(zero, g, 1.0))

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_solve_residual_at_rounding_level(self, wide_grid, p, name, terms):
        # read off the divided spectrum, and recomputed from the samples by
        # Parseval: they agree up to rounding
        g = sample_terms(terms, wide_grid)
        report = solve_mellin(g, p, lines=(0.0,))
        assert report.residual <= 1e-12, name
        assert residual(report.solution, g, p.m) <= 1e-12, name
        agreement = abs(report.residual - residual(report.solution, g, p.m))
        assert agreement <= _rounding(report.solution, g, p.m), name

    def test_nyquist_bin_of_the_two_residuals(self, p):
        # data with most of their weight near the Nyquist bin of an even,
        # under-resolved grid.  The solve's X base and X of the solution's
        # samples both read LogGrid.i_frequencies, which drops the bin, so
        # both residuals hold t_N^2/(m^2 + t_N^2) of g's Nyquist bin
        grid = make_log_grid(64, -3.0, 3.0)
        g = HalfLineFunction(grid, np.exp(-grid.x**2) * (-1.0) ** np.arange(64))
        m, t_n = p.m, np.pi / grid.h
        report = solve_mellin(g, p)
        nyquist = np.zeros(33, np.complex128)
        nyquist[-1] = -np.fft.rfft(g.values.real)[-1] * t_n**2 / (m**2 + t_n**2)
        shifted = HalfLineFunction(grid, g.values + np.fft.irfft(nyquist, 64))
        dropped = relative_difference(shifted, g)
        assert dropped > 0.5
        agreement = abs(report.residual - residual(report.solution, g, m))
        assert agreement <= _rounding(report.solution, g, m)
        assert report.residual == pytest.approx(dropped, rel=1e-13)

    def test_report_residual_is_its_solution_residual(self, p):
        # h = r^{1+530i} e^{-r} oscillates near the Nyquist rate of the
        # window, and g = (X + 1) h = (r - 530i) h.  Its Nyquist-bin content
        # fails the residual bound, in the report as in the solution it holds
        grid = make_log_grid(6144, -12.0, 24.0)
        g = sample(lambda r: (r - 530j) * r ** (1 + 530j) * np.exp(-r), grid)
        report = solve_mellin(g, p)
        assert report.residual > 1e-6
        assert report.residual == pytest.approx(residual(report.solution, g, p.m), rel=1e-12)

    def test_operands_on_different_grids_rejected(self):
        # same length, different windows: the samples must not be compared
        terms = family_member("r2_exp")
        f = sample_terms(terms, make_log_grid(4096, -12.0, 12.0))
        g = sample_terms(terms, make_log_grid(4096, -12.0, 24.0))
        with pytest.raises(GridMismatch):
            residual(f, g, 1.0)

    def test_spectrum_not_held_is_not_held_afterwards(self, ffts, grid):
        # the oracle's solution is measured once: holding its spectrum would
        # only cost 8 bytes a point (n//2 + 1 complex bins of its one real row).
        # One forward transform of f, g's held spectrum, and no inverse
        f = sample_terms(family_member("r2_exp"), grid)
        g = sample_terms(flow_rhs(family_member("r2_exp"), 1.0), grid)
        fresh = residual(f, g, 1.0)
        assert ffts(lambda: residual(f, g, 1.0)) == (1, 0)
        assert "spectrum" not in f.__dict__
        f.spectrum
        assert residual(f, g, 1.0) == fresh

    def test_overflowing_transform_is_a_non_finite_sample(self):
        grid = make_log_grid(64, -3.0, 3.0)
        f = HalfLineFunction(grid, np.full(64, 1e308))  # the FFT's sum overflows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteSample, match="values contain NaN or Inf"
        ):
            residual(f, f, 1e-300)

    def test_overflowing_transform_of_g_is_a_non_finite_sample(self):
        # f's transform is finite, g's held spectrum overflows
        grid = make_log_grid(64, -3.0, 3.0)
        f = HalfLineFunction(grid, np.zeros(64))
        g = HalfLineFunction(grid, np.full(64, 1e308))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteSample, match="values contain NaN or Inf"
        ):
            residual(f, g, 1.0)

    def test_non_finite_defect_rejected(self):
        grid = make_log_grid(64, -3.0, 3.0)
        values = np.zeros(64)
        values[0] = 1e308  # m f and X f overflow
        f = HalfLineFunction(grid, values)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteSample):
            residual(f, f, 10.0)


class TestRealData:
    """X, the weights and the division by m + z are real operators, so real
    data stays real (float64 samples) and complex data solves as its two
    real parts."""

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_real_member_solves_to_real_values(self, monkeypatch, wide_grid, p, name, terms):
        g = sample_terms(terms, wide_grid)
        assert g.values.dtype == np.float64
        batches = []
        solver_inverse = solver.mellin_inverse_lines

        def inverse(*args):
            batches.append(solver_inverse(*args))
            return batches[-1]

        monkeypatch.setattr(solver, "mellin_inverse_lines", inverse)
        report = solve_mellin(g, p, lines=(0.0, -0.4, -0.8))
        (rows,) = batches
        assert rows.shape == (4, wide_grid.n_points) and rows.dtype == np.float64
        assert report.solution.values.dtype == np.float64
        assert apply_X(g).values.dtype == np.float64
        assert solve_semigroup(g, p.m).values.dtype == np.float64
        for t in (0.5, 1.0, 2.0):
            assert fractional_weight(g, t, p).values.dtype == np.float64

    def test_complex_data_stays_complex(self, wide_grid, p):
        g = sample_terms(make_terms([(1 + 2j, 2, 1.0), (0.5j, 3, 2.0)]), wide_grid)
        assert g.values.dtype == np.complex128
        report = solve_mellin(g, p, lines=(0.0, -0.4, -0.8))
        assert report.solution.values.dtype == np.complex128
        assert apply_X(g).values.dtype == np.complex128
        assert solve_semigroup(g, p.m).values.dtype == np.complex128
        assert fractional_weight(g, 1.0, p).values.dtype == np.complex128

    def test_exactly_real_expression_samples_as_float(self, grid):
        # the imaginary part is exactly zero (-0.0 included) at every node
        def expr(r):
            values = (r * np.exp(-r)).astype(complex)
            values.imag[::2] = -0.0
            return values

        f = sample(expr, grid)
        assert f.values.dtype == np.float64
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        assert np.array_equal(f.values, grid.r * np.exp(-grid.r))
        # one nonzero imaginary sample keeps the samples complex
        values = f.values.astype(complex)
        values[7] += 1e-300j
        assert HalfLineFunction(grid, values).values.dtype == np.complex128

    def test_residual_of_real_f_against_complex_g(self, wide_grid, p):
        # (m + i t) F has f's one real row, and g's spectrum two
        f = sample_terms(family_member("r2_exp"), wide_grid)
        g = sample_terms(make_terms([(1 + 0.5j, 2, 1.0)]), wide_grid)
        lhs = lin_comb(1.0, apply_X(f), p.m, f)
        composed = lin_comb(1.0, lhs, -1.0, g).norm / g.norm
        assert abs(residual(f, g, p.m) - composed) <= _rounding(f, g, p.m)

    def test_complex_input_solves_as_its_parts(self, wide_grid, p):
        g = sample_terms(make_terms([(1 + 2j, 2, 1.0), (0.5j, 3, 2.0)]), wide_grid)
        real, imag = (
            solve_mellin(HalfLineFunction(wide_grid, part), p).solution.values
            for part in (g.values.real, g.values.imag)
        )
        assert real.dtype == imag.dtype == np.float64
        solution = solve_mellin(g, p).solution.values
        assert np.array_equal(solution.real, real)
        assert np.array_equal(solution.imag, imag)


class TestWorkPerSolve:
    """g's line-0 spectrum is computed once, on its first solve; every other
    line adds one forward and one inverse transform of g's one real row, and
    the residual one inverse.
    The other lines are transformed in one forward call, and base, the
    residual's X base and the other lines are inverted in one call.  The
    solve itself is held on g per (m, lines): a repeat runs no FFT at all."""

    @pytest.mark.parametrize(
        "lines, first, calls",
        [((0.0,), (1, 2), (1, 1)), ((0.0, -0.4, -0.8), (3, 4), (2, 1))],
        ids=["line0", "three-lines"],
    )
    def test_fft_count(self, ffts, grid, lines, first, calls):
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        assert ffts(lambda: solve_mellin(g, p, lines=lines)) == first
        assert ffts.calls == calls
        assert ffts(lambda: solve_mellin(g, p, lines=lines)) == (0, 0)
        # lambda1, s and t_list reach only the weighted norms
        other = ModelRepParams(sigma=1, lambda1=-0.7, m=1.0)
        assert ffts(lambda: solve_mellin(g, other, s=2.0, lines=lines)) == (0, 0)

    def test_new_twist_divides_and_inverts_again(self, ffts, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.0, m=1.0))
        assert ffts(lambda: solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.0, m=1.5))) == (0, 2)
        assert ffts.calls == (0, 1)

    @pytest.mark.parametrize(
        "change, expected, calls", [({"lines": (0.0, -0.4)}, (1, 3), (1, 1))], ids=["lines"]
    )
    def test_changed_key_misses_the_held_solve(self, ffts, grid, change, expected, calls):
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        solve_mellin(g, p)
        assert ffts(lambda: solve_mellin(g, p, **change)) == expected
        assert ffts.calls == calls

    def test_cold_solve_on_a_weighed_grid_runs_no_exponential(self, exps):
        # every weight of a solve is held on its grid: only sampling and r
        # compute exponentials
        grid = make_log_grid(4096, -12.0, 12.0)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        lines = (0.0, -0.4, -0.8)
        solve_mellin(sample_terms(family_member("r2_exp"), grid), p, lines=lines)
        g2 = sample_terms(family_member("mix_23"), grid)
        assert exps(lambda: solve_mellin(g2, p, lines=lines)) == 0

    def test_many_twists_stay_within_the_cap(self, ffts):
        # with a coincidence line, each twist holds a solve, D and a strip
        # edge's profile on g and D's two strip weights on the grid; past
        # MAX_HELD the first one held goes
        grid = make_log_grid(1024, -12.0, 12.0)
        g = sample_terms(family_member("r2_exp"), grid)
        lines = (0.0, -0.4)
        twists = [float(m) for m in np.linspace(0.6, 1.4, 200)]
        for m in twists:
            solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.0, m=m), lines=lines)
            assert len(g._held) <= MAX_HELD and len(grid._held) <= MAX_HELD
        assert len(g._held) == len(grid._held) == MAX_HELD
        assert ("solve", twists[0], lines) not in g._held
        last = ModelRepParams(sigma=1, lambda1=1.0, m=twists[-1])
        assert ffts(lambda: solve_mellin(g, last, lines=lines)) == (0, 0)

    def test_held_report_returned_without_t_list(self, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        report = solve_mellin(g, p)
        assert solve_mellin(g, ModelRepParams(sigma=1, lambda1=0.5, m=1.0)) is report
        assert solve_mellin(g, p, t_list=(0.5,)) is not report

    def test_sup_held(self, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.0, m=1.0))
        assert g._held[("profile", 0.0)].peak == float(np.abs(g.values).max())

    def test_decay_test_once_per_weight(self, monkeypatch, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        runs = []  # the weights a at which g's profile is computed
        original = grid_module._hold

        def counted(owner, key, compute):
            if owner is g and key[0] == "profile":
                return original(owner, key, lambda: runs.append(key[1]) or compute())
            return original(owner, key, compute)

        monkeypatch.setattr(grid_module, "_hold", counted)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        # lines 0, -0.4, -0.8 and the obstruction strip's far edge -m - 0.05
        solve_mellin(g, p, lines=(0.0, -0.4, -0.8))
        assert len(runs) == 4
        solve_mellin(g, p, lines=(0.0, -0.4))
        assert len(runs) == 4

    def test_held_profile_answers_every_tolerance(self, abses, monkeypatch, grid):
        # the solve's gates hold g's profiles at the lines' and the
        # obstruction strip's weights; a new tolerance or a norm reads them
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        solve_mellin(g, p, lines=(0.0, -0.4))
        monkeypatch.setattr(grid_module, "DECAY_TOL", 1e-3)
        assert abses(lambda: decay_admissible(g, 0.4)) == 0
        assert abses(lambda: weighted_norm(g, p.m + DEFAULT_ADMISSIBILITY_MARGIN)) == 0

    def test_one_magnitude_pass_per_profile(self, abses, grid):
        # each weight's profile is one |g| pass and one product, held;
        # a weight already profiled runs none
        g = sample_terms(family_member("r2_exp"), grid)
        assert abses(lambda: [weighted_norm(g, a) for a in (0.5, -0.4, 1.05)]) == 3
        assert abses(lambda: (weighted_norm(g, 0.5), g.norm)) == 1

    def test_unweighted_profile_holds_no_magnitudes(self, abses, grid):
        # a function only ever normed, as a held solution, holds its one
        # profile and no array
        g = sample_terms(family_member("r2_exp"), grid)
        assert abses(lambda: (g.norm, g.sup)) == 1
        assert list(g._held) == [("profile", 0.0)]


class TestFixedCost:
    """A solve call pays for its array work: its scalar math runs in math,
    and a difference is scanned for NaN/Inf only when its energy is not
    finite."""

    def test_solve_runs_no_numpy_scalar_math(self, scalar_math):
        grid = make_log_grid(64, -6.0, 6.0)
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        assert scalar_math(lambda: solve_mellin(g, p, lines=(0.0,))) == 0
        # a new twist on the held profiles, then the held solve itself
        other = ModelRepParams(sigma=1, lambda1=1.0, m=1.5)
        assert scalar_math(lambda: solve_mellin(g, other, lines=(0.0,))) == 0
        assert scalar_math(lambda: solve_mellin(g, p, lines=(0.0,))) == 0
        # the weighted norms of the held solution
        assert scalar_math(lambda: solve_mellin(g, p, lines=(0.0,), t_list=(0.0, 0.5))) == 0

    def test_held_profile_hit_runs_no_numpy_scalar_math(self, scalar_math, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        assert decay_admissible(g, 0.4)
        assert scalar_math(lambda: (decay_admissible(g, 0.4), weighted_norm(g, 0.4))) == 0

    def test_difference_scanned_only_when_its_energy_is_not_finite(self, monkeypatch):
        scans = []
        original = grid_module.all_finite
        monkeypatch.setattr(grid_module, "all_finite", lambda v: scans.append(1) or original(v))
        h = 0.1
        finite = np.linspace(-1.0, 1.0, 64) + 0.5j
        expected = float(np.sqrt(grid_module._energy(np.abs(finite), h)))
        assert grid_module._difference_norm(finite, h) == expected
        assert scans == []
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            diff = finite.copy()
            diff[7] = bad
            with pytest.raises(NonFiniteSample, match="values contain NaN or Inf"):
                grid_module._difference_norm(diff, h)
        assert len(scans) == 3
        # finite samples whose squares overflow: scanned, and +Inf
        assert grid_module._difference_norm(np.full(64, 1e200 + 0j), h) == np.inf
        assert len(scans) == 4


def test_contracting_config_computes_two_log_weights(monkeypatch, tmp_path):
    # 8 inputs, 4 weights and 2 grids: every weighted norm reads the log-weight
    # held on its grid for lambda1 = -1, one per grid, each with one log1p
    calls = []
    original = np.log1p

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "log1p", counted)
    config = Path(__file__).resolve().parent.parent / "configs" / "contracting.cfg"
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2


def test_contracting_config_exponential_count(exps, tmp_path):
    # per grid (2): r, 10 sampling rates over the 8 inputs, the grid weight
    # e^{a x} at a = -2 (the regularity gate's line Re z = 2), the
    # log-weight's e^{-|y|} at lambda1 = -1 and the fractional weights at
    # t = 0.5, 1, 2; the line-0 solves evaluate no obstruction, so no
    # weight at m or m + 0.05 (its strip)
    config = Path(__file__).resolve().parent.parent / "configs" / "contracting.cfg"
    assert exps(lambda: main(["run", str(config), "--out", str(tmp_path)])) == 32


def test_contracting_config_abs_count(abses, tmp_path):
    # per grid (2) and input (8), 10 |.| passes: one per profile, g's at
    # a = -2 (the regularity gate's line Re z = 2) and at 0, the solution's
    # at 0 and the fractional weights of the solution and of g at t = 0.5,
    # 1, 2, and one in the residual
    config = Path(__file__).resolve().parent.parent / "configs" / "contracting.cfg"
    assert abses(lambda: main(["run", str(config), "--out", str(tmp_path)])) == 160


def _equal(a, b) -> bool:
    """a == b, with NaN taken to equal NaN."""
    return a == b or (a != a and b != b)


class TestHeldSolve:
    """What a held solve gives back equals a cold solve, bit for bit."""

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_hit_equals_cold_solve(self, grid, name, terms):
        g = sample_terms(terms, grid)
        kwargs = dict(s=2.0, lines=(0.0, -0.4), t_list=(0.0, 0.5, 1.0))
        solve_mellin(g, ModelRepParams(sigma=1, lambda1=-1.0, m=1.0), **kwargs)
        for lam in (-1.0, 0.8, 1.2):
            p = ModelRepParams(sigma=1, lambda1=lam, m=1.0)
            hit = solve_mellin(g, p, **kwargs)
            cold_g = HalfLineFunction(g.grid, g.values)
            cold = solve_mellin(cold_g, p, **kwargs)
            assert hit.solution is not cold.solution
            assert np.array_equal(hit.solution.values, cold.solution.values), (name, lam)
            for field in ("residual", "base_norm_ratio", "coincidence_defect"):
                assert _equal(getattr(hit, field), getattr(cold, field)), (name, lam, field)
            (d_hit, hit_flags), (d_cold, cold_flags) = (
                reported_obstruction(f, p) for f in (g, cold_g)
            )
            assert _equal(d_hit, d_cold) and hit_flags == cold_flags, (name, lam)
            assert hit.flags == cold.flags, (name, lam)
            assert len(hit.weighted_norms) == len(cold.weighted_norms) == 3
            for a, b in zip(hit.weighted_norms, cold.weighted_norms):
                assert all(_equal(vars(a)[k], vars(b)[k]) for k in vars(a)), (name, lam, a, b)

    def test_reports_at_two_lambda1_share_the_solution(self, grid):
        g = sample_terms(family_member("r2_exp"), grid)
        first = solve_mellin(g, ModelRepParams(sigma=1, lambda1=0.8, m=1.0))
        second = solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.2, m=1.0), t_list=(0.5,))
        assert first.solution is second.solution
        assert not first.solution.values.flags.writeable

    def test_failed_solve_is_not_held(self, wide_grid, p):
        g = sample_terms(family_member("r2_exp"), wide_grid)
        for _ in range(2):
            with pytest.raises(PoleOnLine):
                solve_mellin(g, p, lines=(0.0, -1.0))
        assert not [key for key in g._held if key[0] == "solve"]


@pytest.mark.skipif(
    not twisteq._heap_thresholds_fixed, reason="glibc's heap thresholds were not set"
)
class TestHeapThresholds:
    def test_warm_solve_faults_no_pages(self, p):
        # with glibc's adaptive thresholds, one such solve faulted ~1300 pages
        import resource  # POSIX only, like mallopt

        grid = make_log_grid(19200, -12.0, 40.0)

        def solve():
            g = sample_terms(flow_rhs(family_member("r2_exp"), p.m), grid)
            solve_mellin(g, p, lines=(0.0, -0.4), t_list=(0.0, 0.5))
            solve_semigroup(g, p.m)

        for _ in range(3):
            solve()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solve()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50


class TestUnderflowingNorms:
    """||g|| underflows to 0 on nonzero samples: the quotients are NaN, not 0."""

    @pytest.fixture(scope="class")
    def tiny(self, wide_grid):
        return sample_terms(make_terms([(1e-300, 2, 1.0)]), wide_grid)

    def test_residual(self, tiny, p):
        assert np.isnan(residual(solve_semigroup(tiny, p.m), tiny, p.m))

    def test_base_norm_ratio(self, tiny, p):
        report = solve_mellin(tiny, p, lines=(0.0,))
        assert np.isnan(report.base_norm_ratio) and np.isnan(report.residual)

    def test_zero_input_still_reads_zero(self, wide_grid, p):
        zero = sample(lambda r: 0.0 * r, wide_grid)
        report = solve_mellin(zero, p, lines=(0.0,))
        assert report.base_norm_ratio == 0.0 and report.residual == 0.0

    def test_estimate_ratio(self, wide_grid, tiny, p):
        zero = sample(lambda r: 0.0 * r, wide_grid)
        t_grid = (0.0, 0.5, 2.0)
        assert all(np.isnan(row.ratio) for row in estimate_sweep(tiny, p, 1.0, t_grid))
        assert all(row.ratio == 0.0 for row in estimate_sweep(zero, p, 1.0, t_grid))

    def test_solution_norm_underflowing(self, grid):
        # at m = 1e308 the solution f ~ g/m has nonzero samples whose squares
        # underflow: ||f|| = 0 is not measured, and m ||f|| / ||g|| is NaN
        g = sample_terms(family_member("r2_exp"), grid)
        report = solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.0, m=1e308))
        assert report.solution.norm == 0.0 and not vanishes(report.solution)
        assert np.isnan(report.base_norm_ratio)

    def test_every_reader_of_an_underflowing_solution_norm_reads_nan(self, grid):
        # the t = 0 weighted norm is ||f|| itself, and the estimate's lhs
        g = sample_terms(family_member("r2_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1e308)
        (entry,) = solve_mellin(g, p, lines=(0.0,), t_list=(0.0,)).weighted_norms
        assert np.isnan(entry.value) and not entry.admissible
        (row,) = estimate_sweep(g, p, 1.0, (0.0,))
        assert np.isnan(row.lhs) and np.isnan(row.ratio) and not row.admissible


class TestRegularityDichotomy:
    def test_weighted_energy_growth(self, p):
        h_target = 24.0 / 4095.0
        energies = {"obstructed": [], "projected": []}
        for x_max in (8.0, 12.0, 16.0):
            n = int(round((x_max + 12.0) / h_target)) + 1
            grid = make_log_grid(n, -12.0, x_max)
            g = sample_terms(family_member("r2_exp"), grid)
            bump = sample_terms(family_member("r2_exp2"), grid)
            for label, gg in (("obstructed", g), ("projected", project_obstruction(g, p, bump))):
                f = solve_mellin(gg, p, lines=(0.0,)).solution
                energies[label].append(weighted_norm(f, p.m) ** 2)
        obs = energies["obstructed"]
        assert obs[0] < obs[1] < obs[2]
        assert obs[1] / obs[0] >= 1.2 and obs[2] / obs[1] >= 1.2
        proj = energies["projected"]
        assert abs(proj[1] / proj[0] - 1.0) <= 0.01
        assert abs(proj[2] / proj[1] - 1.0) <= 0.01


class TestEstimateSweep:
    def test_contracting_case(self, grid):
        p = ModelRepParams(sigma=1, lambda1=-1.0, m=1.0)
        g = sample_terms(family_member("r2_exp"), grid)
        rows = estimate_sweep(g, p, s=1.0, t_grid=(0.0, 0.5, 1.0))
        assert all(row.bound_class in ("base", "resolvent") for row in rows)
        assert all(np.isfinite(row.lhs) for row in rows)
        ratios = [row.ratio for row in rows]
        assert max(ratios) <= 2.0  # single modest constant across t

    def test_t0_row_reproduces_base_ratio(self, grid):
        p = ModelRepParams(sigma=1, lambda1=-1.0, m=1.0)
        g = sample_terms(family_member("r2_exp"), grid)
        rows = estimate_sweep(g, p, s=1.0, t_grid=(0.0,))
        report = solve_mellin(g, p, lines=(0.0,))
        # at t=0 the ratio is m ||f|| / (2 ||g||), i.e. base ratio halved
        assert rows[0].ratio == pytest.approx(report.base_norm_ratio / 2.0, rel=1e-12)
        assert rows[0].ratio <= (1.0 + 1e-8) / 2.0

    def test_supercritical_no_blowup_at_crossing(self, grid):
        # lambda1 < 1 lifts r^3 data above regularity s; weighted norms stay
        # finite and modest as t crosses m/lambda1 = 1.25.  Deep weights
        # amplify the transform noise floor by e^{t lambda1 x_max}, so the
        # tight cross-check runs on the default window and stops at t = 2.
        p = ModelRepParams(sigma=1, lambda1=0.8, m=1.0)
        g = sample_terms(family_member("r3_exp"), grid)
        bump = sample_terms(make_terms([(1.0, 4, 2.0)]), grid)
        g = project_obstruction(g, p, bump)
        rows = estimate_sweep(g, p, s=3.0, t_grid=(0.5, 1.0, 1.25, 1.5, 2.0))
        assert all(np.isfinite(row.lhs) for row in rows)
        assert all(row.admissible for row in rows)
        # cross-check the weighted norms against the independent route
        oracle = solve_semigroup(g, p.m)
        for row in rows:
            direct = fractional_weight(oracle, row.t, p).norm
            assert row.lhs == pytest.approx(direct, rel=1e-6)
        # the near-s row is reported (finite), not asserted against an oracle
        edge = estimate_sweep(g, p, s=3.0, t_grid=(2.9,))
        assert np.isfinite(edge[0].lhs)

    def test_not_admissible_for_low_regularity(self, grid):
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        g = sample_terms(family_member("r_exp"), grid)
        with pytest.raises(NotAdmissible):
            estimate_sweep(g, p, s=3.0, t_grid=(0.0,))


class TestRankTwoInterchange:
    def test_u2_weight_controlled_by_u1(self, wide_grid):
        # lambda1 >= lambda2 > 0: the u2-weighted norm of the solution obeys
        # the interchange sandwich via the u1 weight
        p = RankTwoParams(sigma=1, lambda1=1.0, m=1.0, lambda2=0.5, s0=1.5)
        g = sample_terms(family_member("r3_exp"), wide_grid)
        bump = sample_terms(make_terms([(1.0, 4, 2.0)]), wide_grid)
        g = project_obstruction(g, p, bump)
        f = solve_mellin(g, p, lines=(0.0,)).solution
        s = 2.0
        lhs = fractional_weight_u2(f, s, p).norm
        rhs = fractional_weight(f, s, p).norm + f.norm
        assert np.isfinite(lhs)
        scale = max(1.0, abs(p.s0)) ** s
        assert lhs <= scale * 2 ** (s / 2.0) * rhs


class TestMagnitude:
    """|D| reads NaN or +Inf where CPython's complex abs() would raise."""

    @staticmethod
    def _stale_erange():
        # a libm call that overflowed earlier leaves ERANGE in errno
        location = getattr(ctypes.CDLL(None), "__errno_location", None)
        if location is None:
            pytest.skip("libc has no __errno_location")
        location.argtypes, location.restype = [], ctypes.POINTER(ctypes.c_int)
        location()[0] = errno.ERANGE

    def test_nan_obstruction_under_a_stale_errno(self, grid):
        g = sample_terms(family_member("r_exp"), grid)
        d = complex(math.nan, 1.0)
        self._stale_erange()
        assert math.isnan(magnitude(d))
        self._stale_erange()
        assert not twisteq.solver.obstructed(g, d)

    def test_overflowing_and_finite_magnitudes(self):
        assert magnitude(complex(1.5e308, 1.5e308)) == math.inf
        assert magnitude(complex(math.inf, math.nan)) == math.inf
        for d in (3 + 4j, 1e-320j, complex(0.1, -2.7)):
            assert magnitude(d) == abs(d)

    def test_nan_obstruction_row(self, tmp_path):
        # r_exp's obstruction is undefined (NaN); on a window reaching r = e^709
        # an earlier libm call leaves ERANGE in errno, where abs() of the NaN
        # raised OverflowError and ended the run
        path = tmp_path / "exp.cfg"
        path.write_text(
            "suite = solve\nfunction = 1,2,1\ngrid.n_points = 8192\ngrid.x_min = -709\n"
            f"grid.x_max = 12\nout.dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(path)]) == 1
        with (tmp_path / "out" / "solve.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 141 and sum(r["passed"] == "pass" for r in rows) == 105
