import numpy as np
import pytest

from twisteq.cocycle import (
    CocycleData,
    cartan_reduce,
    common_solution,
    reconstruct_g1,
    verify_cocycle,
)
from twisteq.errors import IncompatibleCocycle, ObstructionNonzero, PoleOnLine, ZeroEigenvalue
from twisteq.families import family_member, flow_rhs, make_terms, sample_terms, scale_terms
from twisteq.grid import base_norm, lin_comb, make_log_grid, sample
from twisteq.reps import ModelRepParams

from oracles import rel_err


@pytest.fixture(scope="module")
def p():
    return ModelRepParams(sigma=1, lambda1=1.0, m=1.0)


def _dataset(h_terms, v, m1, m, grid):
    """Exactly compatible data built in the term algebra: g1 = (iv+m1) h,
    g2 = (X+m) h."""
    g1 = sample_terms(scale_terms(complex(m1, v), h_terms), grid)
    g2 = sample_terms(flow_rhs(h_terms, m), grid)
    return CocycleData(g1, g2, v=v, m1=m1, p=ModelRepParams(sigma=1, lambda1=1.0, m=m))


class TestVerifyCocycle:
    def test_closed_form_compatible(self, wide_grid, p):
        # h = r e^-r, v = 1, m1 = 0: both sides equal i r^2 e^-r
        d = _dataset(make_terms([(1.0, 1, 1.0)]), v=1.0, m1=0.0, m=1.0, grid=wide_grid)
        assert verify_cocycle(d) <= 1e-7

    def test_zero_data(self, wide_grid, p):
        z = sample(lambda r: 0.0 * r, wide_grid)
        d = CocycleData(z, z, v=1.0, m1=0.0, p=p)
        assert verify_cocycle(d) == 0.0

    def test_perturbation_detected(self, wide_grid, p):
        d = _dataset(make_terms([(1.0, 1, 1.0)]), v=1.0, m1=0.0, m=1.0, grid=wide_grid)
        bump = sample_terms(make_terms([(0.1, 2, 2.0)]), wide_grid)
        d_bad = CocycleData(lin_comb(1.0, d.g1, 1.0, bump), d.g2, v=1.0, m1=0.0, p=p)
        scale = max(base_norm(d_bad.g1), base_norm(d_bad.g2))
        assert verify_cocycle(d_bad) >= 0.05 * base_norm(bump) / scale

    def test_zero_frequency_rejected(self, wide_grid, p):
        z = sample(lambda r: 0.0 * r, wide_grid)
        with pytest.raises(IncompatibleCocycle):
            CocycleData(z, z, v=0.0, m1=0.0, p=p)


class TestCommonSolution:
    def test_closed_form_case(self, wide_grid):
        h_terms = make_terms([(1.0, 1, 1.0)])
        d = _dataset(h_terms, v=1.0, m1=0.0, m=1.0, grid=wide_grid)
        report = common_solution(d)
        assert report.residual_flow <= 1e-6
        assert report.residual_character <= 1e-6
        assert rel_err(report.solution, sample_terms(h_terms, wide_grid)) <= 1e-6
        # g1 = i r e^-r has regularity below the twist depth, so the nonzero
        # obstruction of g2 is recorded, not fatal
        assert "obstruction-nonzero-low-regularity" in report.flags

    def test_regular_case_no_flags(self, wide_grid):
        h_terms = make_terms([(1.0, 2, 2.0)])
        d = _dataset(h_terms, v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        report = common_solution(d)
        assert report.residual_flow <= 1e-6
        assert report.residual_character <= 1e-6
        assert abs(report.obstruction) <= 1e-8
        assert "obstruction-nonzero-low-regularity" not in report.flags

    def test_each_flag_once(self):
        # g2 = (X + 2.5)(r e^-r) ~ r has no obstruction at m = 2.5; the solve
        # flags that once and the common solution adds no second copy
        grid = make_log_grid(6144, -12.0, 24.0)
        d = _dataset(make_terms([(1.0, 1, 1.0)]), v=1.0, m1=0.0, m=2.5, grid=grid)
        report = common_solution(d)
        assert report.flags == ("obstruction-undefined",)
        assert np.isnan(report.obstruction)

    def test_zero_data_zero_solution(self, wide_grid, p):
        z = sample(lambda r: 0.0 * r, wide_grid)
        d = CocycleData(z, z, v=1.0, m1=0.0, p=p)
        report = common_solution(d)
        assert np.all(report.solution.values == 0)

    def test_base_bound(self, wide_grid):
        d = _dataset(make_terms([(1.0, 2, 2.0)]), v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        report = common_solution(d)
        assert report.base_norm_ratio <= 1.0 + 1e-8

    def test_incompatible_rejected(self, wide_grid, p):
        d = _dataset(make_terms([(1.0, 1, 1.0)]), v=1.0, m1=0.0, m=1.0, grid=wide_grid)
        bump = sample_terms(make_terms([(0.5, 2, 2.0)]), wide_grid)
        d_bad = CocycleData(lin_comb(1.0, d.g1, 1.0, bump), d.g2, v=1.0, m1=0.0, p=p)
        with pytest.raises(IncompatibleCocycle):
            common_solution(d_bad)

    def test_discretization_contradiction_rejected(self, wide_grid, p):
        # regular g1 with a deliberately obstructed g2 that still matches the
        # compatibility equation cannot occur; emulate it by lowering the
        # compatibility gate and feeding an obstructed g2
        h_terms = make_terms([(1.0, 2, 2.0)])
        d = _dataset(h_terms, v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        g2_bad = lin_comb(1.0, d.g2, 0.05, sample_terms(make_terms([(1.0, 2, 1.0)]), wide_grid))
        d_bad = CocycleData(d.g1, g2_bad, v=2.0, m1=1.0, p=p)
        with pytest.raises(ObstructionNonzero):
            common_solution(d_bad, compat_tol=1.0)

    def test_pole_on_line_raised_by_the_solve(self, wide_grid):
        # at m = 0.04 line 0 lies within the default eps_pole of the pole -m;
        # the solve rejects the obstructed g2 before its obstruction is judged
        h_terms = make_terms([(1.0, 2, 2.0)])
        d = _dataset(h_terms, v=2.0, m1=1.0, m=0.04, grid=wide_grid)
        g2_bad = lin_comb(1.0, d.g2, 0.05, sample_terms(make_terms([(1.0, 2, 1.0)]), wide_grid))
        with pytest.raises(PoleOnLine):
            common_solution(CocycleData(d.g1, g2_bad, v=2.0, m1=1.0, p=d.p), compat_tol=1.0)

    def test_linearity(self, wide_grid):
        a = _dataset(make_terms([(1.0, 2, 2.0)]), v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        b = _dataset(make_terms([(0.5, 3, 1.0)]), v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        combined = CocycleData(
            lin_comb(1.0, a.g1, 1.0, b.g1), lin_comb(1.0, a.g2, 1.0, b.g2),
            v=2.0, m1=1.0, p=a.p,
        )
        h_sum = lin_comb(
            1.0, common_solution(a).solution, 1.0, common_solution(b).solution
        )
        h_combined = common_solution(combined).solution
        assert rel_err(h_combined, h_sum) <= 1e-8


class TestCartanReduce:
    def test_zero_g1_leaves_rhs(self, wide_grid):
        z = sample(lambda r: 0.0 * r, wide_grid)
        g2 = sample_terms(family_member("r2_exp"), wide_grid)
        red = cartan_reduce(z, g2, lam=1.0, phi_x=1.0, m=1.0, m1=0.0)
        assert np.array_equal(red.rhs_mixed.values, g2.values)

    def test_linear_algebra(self, wide_grid):
        w = sample_terms(family_member("r2_exp"), wide_grid)
        g1 = lin_comb(2.0, w, 0.0, w)
        g2 = sample_terms(family_member("r3_exp2"), wide_grid)
        red = cartan_reduce(g1, g2, lam=2.0, phi_x=1.0, m=1.0, m1=0.0)
        assert np.abs(red.rhs_mixed.values - (g2.values - w.values)).max() <= 1e-15

    def test_round_trip_identity(self, wide_grid):
        d = _dataset(make_terms([(1.0, 2, 2.0)]), v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        red = cartan_reduce(d.g1, d.g2, lam=2.0, phi_x=1.5, m=1.0, m1=1.0)
        recon = reconstruct_g1(red)
        scale = np.abs(d.g1.values).max()
        assert np.abs(recon.values - d.g1.values).max() <= 4 * np.finfo(float).eps * scale

    def test_round_trip_through_solver(self, wide_grid):
        # solving the flow equation of the reduced pair recovers the same h
        h_terms = make_terms([(1.0, 2, 2.0)])
        d = _dataset(h_terms, v=2.0, m1=1.0, m=1.0, grid=wide_grid)
        red = cartan_reduce(d.g1, d.g2, lam=2.0, phi_x=1.0, m=1.0, m1=1.0)
        d_back = CocycleData(reconstruct_g1(red), red.rhs_flow, v=2.0, m1=1.0, p=d.p)
        h1 = common_solution(d).solution
        h2 = common_solution(d_back).solution
        assert rel_err(h2, h1) <= 1e-12

    def test_zero_eigenvalue(self, wide_grid):
        g = sample_terms(family_member("r2_exp"), wide_grid)
        with pytest.raises(ZeroEigenvalue):
            cartan_reduce(g, g, lam=0.0, phi_x=1.0, m=1.0, m1=0.0)
