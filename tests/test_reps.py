import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from twisteq.errors import MissingParams, NonFiniteSample
from twisteq.families import FAMILY, family_member, make_terms, sample_terms
from twisteq.grid import (
    HalfLineFunction,
    decay_admissible,
    lin_comb,
    make_log_grid,
    measured,
    sample,
    weighted_norm,
)
from twisteq.mellin import line_admissible
from twisteq import reps
from twisteq.reps import (
    ModelRepParams,
    apply_X,
    fractional_norm,
    fractional_weight,
    regularity_norm,
)
from twisteq.solver import solve_mellin

from rep_algebra import (
    BinRoundingWarning,
    RankTwoParams,
    TruncationWarning,
    apply_u1,
    apply_u2,
    flow_action,
    fractional_weight_u2,
    gaussian_log,
    inner,
    nearest_bin_shift,
    sobolev_norm,
)

def _mollified_plateau(x: np.ndarray) -> np.ndarray:
    """1 on |x| <= 6, C-infinity transition to 0 across 6 <= |x| <= 11."""
    t = np.clip((np.abs(x) - 6.0) / 5.0, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        sig = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        sig1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return sig1 / (sig + sig1)


@pytest.fixture(scope="module")
def p():
    return ModelRepParams(sigma=1, lambda1=1.0, m=1.0)


@pytest.fixture(scope="module")
def p_rank2():
    return RankTwoParams(sigma=1, lambda1=1.0, m=1.0, lambda2=0.5, s0=2.0)


class TestParams:
    def test_sign_validation(self):
        with pytest.raises(MissingParams):
            ModelRepParams(sigma=2, lambda1=1.0, m=1.0)

    def test_zero_lambda1(self):
        with pytest.raises(MissingParams):
            ModelRepParams(sigma=1, lambda1=0.0, m=1.0)

    def test_nonpositive_twist(self):
        with pytest.raises(MissingParams):
            ModelRepParams(sigma=1, lambda1=1.0, m=0.0)

    def test_s0_needs_lambda2(self):
        with pytest.raises(MissingParams):
            RankTwoParams(sigma=1, lambda1=1.0, m=1.0, s0=2.0)


class TestApplyX:
    def test_closed_form(self, wide_grid):
        # X(r e^-r) = -r d/dr (r e^-r) = (r^2 - r) e^-r
        f = sample_terms(family_member("r_exp"), wide_grid)
        exact = sample(lambda r: (r * r - r) * np.exp(-r), wide_grid)
        assert np.abs(apply_X(f).values - exact.values).max() <= 1e-8

    def test_constant_in_x_tapered(self, grid):
        # exactly 1 on |x| <= 6 with a smooth compact transition: X f ~ 0
        # in the flat interior
        f = HalfLineFunction(grid, _mollified_plateau(grid.x))
        out = apply_X(f)
        interior = np.abs(grid.x) <= 3.0
        assert np.abs(out.values[interior]).max() <= 1e-9

    def test_zero(self, grid):
        f = sample(lambda r: 0.0 * r, grid)
        assert np.all(apply_X(f).values == 0)


class TestMultipliers:
    def test_u1_closed_form(self, grid, p):
        f = sample_terms(family_member("r_exp"), grid)
        out = apply_u1(f, p)
        exact = 1j * np.exp(-grid.r)  # i r^-1 * r e^-r
        assert np.abs(out.values - exact).max() <= 1e-12

    def test_u1_sign_flip(self, grid):
        f = sample_terms(family_member("r_exp"), grid)
        plus = apply_u1(f, ModelRepParams(sigma=1, lambda1=1.0, m=1.0))
        minus = apply_u1(f, ModelRepParams(sigma=-1, lambda1=1.0, m=1.0))
        assert np.array_equal(plus.values, -minus.values)

    def test_u2_closed_form(self, grid, p_rank2):
        p = RankTwoParams(sigma=1, lambda1=1.0, m=1.0, lambda2=1.0, s0=2.0)
        f = sample_terms(family_member("r2_exp"), grid)
        out = apply_u2(f, p)
        exact = 2j * grid.r * np.exp(-grid.r)
        assert np.abs(out.values - exact).max() <= 1e-12

    def test_u2_missing_params(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        with pytest.raises(MissingParams):
            apply_u2(f, p)

    def test_zero_inputs(self, grid, p, p_rank2):
        z = sample(lambda r: 0.0 * r, grid)
        assert np.all(apply_u1(z, p).values == 0)
        assert np.all(apply_u2(z, p_rank2).values == 0)
        assert np.all(fractional_weight(z, 1.5, p).values == 0)

    def test_u1_skew(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        g = sample_terms(family_member("r3_exp2"), grid)
        lhs = inner(apply_u1(f, p), g)
        rhs = -inner(f, apply_u1(g, p))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_X_essentially_skew(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        assert abs(inner(apply_X(f), f).real) <= 1e-8 * f.norm**2


class TestFlowAction:
    def test_identity(self, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        out = flow_action(f, 1.0)
        assert np.array_equal(out.values, f.values)

    def test_one_bin_norm_preservation(self, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        out = flow_action(f, np.exp(grid.h))
        assert abs(out.norm - f.norm) <= 1e-10 * f.norm

    def test_composition(self, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        one = np.exp(grid.h)
        two = np.exp(2 * grid.h)
        assert np.array_equal(
            flow_action(flow_action(f, one), one).values, flow_action(f, two).values
        )

    def test_off_bin_rounding_warns(self, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        with pytest.warns(BinRoundingWarning):
            flow_action(f, np.exp(1.5 * grid.h))

    def test_dropped_mass_warns(self, grid):
        # support concentrated at the large-r boundary; a positive shift
        # drops that end off the grid
        f = HalfLineFunction(grid, np.exp(-0.5 * (grid.x + 11.0) ** 2))
        with pytest.warns(TruncationWarning):
            flow_action(f, np.exp(400 * grid.h))

    def test_nearest_bin_shift(self, grid):
        k, rounding = nearest_bin_shift(grid, np.exp(3 * grid.h))
        assert k == 3
        assert abs(rounding) <= 1e-15

    def test_inverse_shift_round_trip(self, grid):
        f = sample_terms(family_member("r2_exp"), grid)
        s = np.exp(5 * grid.h)
        back = flow_action(flow_action(f, s), 1.0 / s)
        # interior bins restored exactly; boundary bins zero-filled
        assert np.array_equal(back.values[5:-5], f.values[5:-5])


class TestFractionalWeight:
    def test_zeroth_power_identity(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        assert fractional_weight(f, 0.0, p) is f

    def test_closed_form(self, grid, p):
        # (1 + r^-2) r^2 e^-r = (r^2 + 1) e^-r
        f = sample_terms(family_member("r2_exp"), grid)
        out = fractional_weight(f, 2.0, p)
        exact = (grid.r**2 + 1.0) * np.exp(-grid.r)
        sel = exact > 0
        assert np.abs(out.values[sel] - exact[sel]).max() / exact.max() <= 1e-12

    def test_monotone_multiplier(self, grid, p):
        f = sample_terms(family_member("r3_exp"), grid)
        for t in (0.5, 1.0, 2.0):
            assert fractional_weight(f, t, p).norm >= f.norm

    @given(t=st.floats(0.1, 2.0))
    def test_multiplier_sandwich(self, grid, p, t):
        # r^{-t l1} <= (1+r^{-2 l1})^{t/2} <= 2^{t/2} max(1, r^{-t l1})
        f = sample_terms(family_member("r3_exp"), grid)
        wn = fractional_weight(f, t, p).norm
        lower = weighted_norm(f, t * p.lambda1)
        upper = 2 ** (t / 2.0) * (weighted_norm(f, t * p.lambda1) + f.norm)
        assert lower <= wn * (1 + 1e-12)
        assert wn <= upper * (1 + 1e-12)

    def test_u2_variant(self, grid, p_rank2):
        f = sample_terms(family_member("r3_exp"), grid)
        out = fractional_weight_u2(f, 1.0, p_rank2)
        exact = np.sqrt(1.0 + 4.0 * grid.r ** (-1.0)) * f.values
        sel = np.isfinite(exact)
        assert np.abs(out.values[sel] - exact[sel]).max() <= 1e-9


class TestFractionalNorm:
    """fractional_norm weighs with the log-weight held on the grid and reads
    one |.| pass; it equals the norm and decay test of the weighted function."""

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_equals_norm_and_decay_of_the_weighted_function(self, grid, name, terms):
        g = sample_terms(terms, grid)
        solution = solve_mellin(g, ModelRepParams(sigma=1, lambda1=1.0, m=1.0)).solution
        for f in (g, solution):
            for lam in (-1.0, 0.8, 1.2):
                p = ModelRepParams(sigma=1, lambda1=lam, m=1.0)
                log_sq = reps._log_weight(grid, lam)
                for t in (0.0, 0.5, 1.25, 2.9):
                    values = f.values * np.exp((t / 2.0) * log_sq)
                    wf = HalfLineFunction(grid, np.where(f.values == 0, 0.0, values))
                    value = wf.norm
                    admissible = line_admissible(wf, 0.0) and np.isfinite(value)
                    assert fractional_norm(f, t, p) == (value, admissible), (name, lam, t)
                    assert regularity_norm(f, t, p) == value + f.norm, (name, lam, t)

    def test_log_weight_held_per_grid_and_lambda1(self, monkeypatch):
        # each log-weight computed runs one np.log1p pass
        calls = []
        original = np.log1p

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "log1p", counted)
        grid = make_log_grid(4096, -12.0, 12.0)
        f = sample_terms(family_member("r2_exp"), grid)
        g = sample_terms(family_member("r3_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=0.8, m=1.0)
        fractional_weight(f, 0.5, p)
        assert len(calls) == 1
        fractional_weight(f, 1.25, p)
        fractional_weight(g, 2.0, p)
        fractional_norm(g, 2.9, p)
        assert len(calls) == 1
        fractional_weight(f, 0.5, ModelRepParams(sigma=1, lambda1=1.2, m=1.0))
        assert len(calls) == 2
        held = [w for key, w in grid._held.items() if key[0] == "log_weight"]
        assert len(held) == 2 and not any(w.flags.writeable for w in held)
        # held on the grid object: an equal grid has equal hash and holds nothing
        twin = make_log_grid(4096, -12.0, 12.0)
        assert twin == grid and hash(twin) == hash(grid)
        fractional_weight(sample_terms(family_member("r2_exp"), twin), 0.5, p)
        assert len(calls) == 3

    def test_weight_held_per_lambda1_and_t(self, exps):
        grid = make_log_grid(4096, -12.0, 12.0)
        f = sample_terms(family_member("r2_exp"), grid)
        g = sample_terms(family_member("r3_exp"), grid)
        p = ModelRepParams(sigma=1, lambda1=0.8, m=1.0)
        # the first weight at lambda1 computes the log-weight's e^{-|y|} too
        assert exps(lambda: fractional_weight(f, 0.5, p)) == 2
        assert exps(lambda: fractional_weight(g, 0.5, p)) == 0
        assert exps(lambda: fractional_norm(g, 0.5, p)) == 0
        assert exps(lambda: fractional_weight(f, 1.0, p)) == 1
        weight, finite = grid._held[("fractional_weight", 0.8, 0.5)]
        assert finite and not weight.flags.writeable
        with np.errstate(over="ignore"):
            expected = np.exp(0.25 * reps._log_weight(grid, 0.8))
        assert np.array_equal(weight, expected)

    @pytest.mark.parametrize("lam", [1.0, -1.0, 0.37, -2.3])
    def test_log_weight_within_two_ulp_of_mpmath(self, lam):
        # log(1 + e^y) at y = 2 lambda1 x over |y| <= 800, where e^y
        # overflows and e^{-|y|} underflows, against 30 digits
        grid = make_log_grid(4001, -400.0 / abs(lam), 400.0 / abs(lam))
        y = 2.0 * lam * grid.x
        assert np.abs(y).max() == pytest.approx(800.0)
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.log1p(mpmath.exp(mpmath.mpf(v)))) for v in y])
        ulps = np.abs(reps._log_weight(grid, lam) - exact) / np.spacing(np.abs(exact))
        assert ulps.max() <= 2.0

    def test_log_weight_where_the_correction_underflows(self):
        # e^{-|y|} underflows to 0 past |y| = 745.2: the log-weight is
        # max(y, 0) exactly, 0 on one side and y itself on the other
        grid = make_log_grid(1001, -500.0, 500.0)
        y = 2.0 * grid.x
        log_sq = reps._log_weight(grid, 1.0)
        far = np.abs(y) > 746.0
        assert far.sum() > 200
        assert np.array_equal(log_sq[far], np.maximum(y[far], 0.0))
        assert np.isfinite(log_sq).all() and log_sq.min() == 0.0

    def test_overflowing_weight(self, grid, p):
        # (1 + r^-2)^40 overflows as r -> 0 (x -> 12), where f vanishes
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(40.0 * np.logaddexp(0.0, 2.0 * grid.x))).any()
        values = np.where(grid.x < 0.0, 1.0, 0.0)
        out = fractional_weight(HalfLineFunction(grid, values), 80.0, p)
        assert np.all(out.values[grid.x >= 0.0] == 0.0)
        assert np.all(np.isfinite(out.values)) and np.all(out.values[grid.x < 0.0] >= 1.0)
        values[-1] = 1e-300
        with pytest.raises(NonFiniteSample):
            fractional_weight(HalfLineFunction(grid, values), 80.0, p)

    def test_overflowing_weight_norm_is_infinite_and_not_admissible(self, grid, p):
        # the weight overflows where f is nonzero: the weighted f has no samples
        values = np.where(grid.x < 0.0, 1.0, 0.0)
        values[-1] = 1e-300
        f = HalfLineFunction(grid, values)
        assert fractional_norm(f, 80.0, p) == (float("inf"), False)
        assert regularity_norm(f, 80.0, p) == float("inf")

    def test_underflowing_weighted_norm_is_not_measured(self, grid, p):
        # weighted samples of at most 1e-170 * e^6: every square underflows,
        # so the norm reads 0 on nonzero samples and is not measured
        f = HalfLineFunction(grid, np.full(grid.n_points, 1e-170))
        value, admissible = fractional_norm(f, 0.5, p)
        assert np.isnan(value) and not admissible


def _through_the_weighted_function(f, t, p):
    """fractional_norm's value and verdict read off the function
    fractional_weight(f, t, p) itself: its weighted norm at 0, by the rule
    of measured, and the decay gate at 0; (inf, False) where it refuses."""
    try:
        weighted = fractional_weight(f, t, p)
    except NonFiniteSample:
        return math.inf, False
    norm = measured(weighted_norm(weighted, 0.0), weighted)
    return norm, bool(decay_admissible(weighted, 0.0) and math.isfinite(norm))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_same_bits(f, t, p):
    """fractional_norm equals the weighted function's norm and verdict bit
    for bit; returns them."""
    value, admissible = fractional_norm(f, t, p)
    expected, expected_admissible = _through_the_weighted_function(f, t, p)
    assert (_bits(value), admissible) == (_bits(expected), expected_admissible), (t, p)
    assert type(admissible) is bool
    return value, admissible


class TestFractionalNormWithoutAWeightedFunction:
    """fractional_norm takes ||f w|| and its decay verdict off one product
    f w, with no weighted function: bit for bit what the function
    fractional_weight(f, t, p) gives."""

    LAMBDAS = (0.5, -0.5, 1.1, -1.1)
    TS = (0.5, 1.0, 2.9)

    @pytest.mark.parametrize("name, terms", FAMILY)
    def test_family(self, grid, name, terms):
        f = sample_terms(terms, grid)
        for lam in self.LAMBDAS:
            for t in self.TS:
                _assert_same_bits(f, t, ModelRepParams(sigma=1, lambda1=lam, m=1.0))

    def test_complex_input(self, grid):
        f = sample_terms(make_terms([(0.3 - 1.7j, 2, 0.5), (-1.1 + 0.2j, 4, 1.5)]), grid)
        assert np.iscomplexobj(f.values)
        for lam in self.LAMBDAS:
            for t in self.TS:
                _assert_same_bits(f, t, ModelRepParams(sigma=1, lambda1=lam, m=1.0))

    def test_zeroing_window(self):
        # r^2 e^{-r} on [-400, 12] is exactly 0 where r > e^354, and there
        # the weight (1 + r^{-2 lambda1})^{t/2} overflows for lambda1 < 0:
        # the product is zeroed where f is 0, and the norm is finite
        grid = make_log_grid(512, -400.0, 12.0)
        f = sample_terms(family_member("r2_exp"), grid)
        zeroed = 0
        for lam in (*self.LAMBDAS, -1.0):
            for t in (*self.TS, 2.0):
                p = ModelRepParams(sigma=1, lambda1=lam, m=1.0)
                value, _ = _assert_same_bits(f, t, p)
                zeroed += not reps._weight(grid, lam, t)[1] and math.isfinite(value)
        assert zeroed >= 4

    def test_weight_that_underflows_every_sample(self):
        # at t = -2 the weight 1/(1 + e^{2x}) underflows to 0 for x > 373:
        # every weighted sample is 0, and so is the norm, which decays
        grid = make_log_grid(256, 400.0, 420.0)
        f = HalfLineFunction(grid, np.ones(grid.n_points))
        assert _assert_same_bits(f, -2.0, ModelRepParams(sigma=1, lambda1=1.0, m=1.0)) == (0.0, True)

    @pytest.mark.parametrize(
        "samples, t",
        [(1e-170, 0.5), (1.0, -2.0)],
        ids=["tiny-samples", "tiny-weight"],
    )
    def test_energy_that_underflows_on_nonzero_samples(self, samples, t):
        # weighted samples of at most 1e-170 * e^{2.5}, or of at most
        # e^{-2 * 190}: nonzero, but every square underflows, so the norm
        # is not measured
        grid = make_log_grid(256, *((-1.0, 5.0) if t > 0 else (190.0, 200.0)))
        f = HalfLineFunction(grid, np.full(grid.n_points, samples))
        value, admissible = _assert_same_bits(f, t, ModelRepParams(sigma=1, lambda1=1.0, m=1.0))
        assert math.isnan(value) and not admissible

    def test_weight_that_overflows_where_f_is_nonzero(self, grid):
        values = np.where(grid.x < 0.0, 1.0, 0.0)
        values[-1] = 1e-300
        f = HalfLineFunction(grid, values)
        p = ModelRepParams(sigma=1, lambda1=1.0, m=1.0)
        assert _assert_same_bits(f, 80.0, p) == (math.inf, False)


class TestSobolevNorm:
    def test_order_zero(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        assert sobolev_norm(f, 0, p) == pytest.approx(f.norm, rel=1e-14)

    def test_order_one_closed_form(self, wide_grid, p):
        # ||f||^2 + ||X f||^2 + ||u1 f||^2 = 3/8 + 3/8 + 1/4 = 1 for r^2 e^-r
        f = sample_terms(family_member("r2_exp"), wide_grid)
        assert sobolev_norm(f, 1, p, ("X", "u1")) == pytest.approx(1.0, rel=1e-7)

    def test_monotone_in_order(self, grid, p):
        f = sample_terms(family_member("r3_exp"), grid)
        norms = [sobolev_norm(f, k, p) for k in (0, 1, 2)]
        assert norms[0] <= norms[1] <= norms[2]

    def test_missing_u2(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        with pytest.raises(MissingParams):
            sobolev_norm(f, 1, p, ("X", "u2"))

    def test_order_cap(self, grid, p):
        f = sample_terms(family_member("r2_exp"), grid)
        with pytest.raises(ValueError):
            sobolev_norm(f, 7, p)


class TestCommutators:
    # Commutator identities multiply spectral-derivative output by the
    # unbounded weight r^-lambda, so the probe vectors must decay faster
    # than any exponential in x: Gaussian-in-x vectors are the natural
    # smooth test class.

    def test_x_u1_commutator(self, grid, p):
        # [X, u1] = lambda1 u1
        f = gaussian_log(grid)
        lhs = lin_comb(1.0, apply_X(apply_u1(f, p)), -1.0, apply_u1(apply_X(f), p))
        defect = lin_comb(1.0, lhs, -p.lambda1, apply_u1(f, p)).norm
        assert defect / apply_u1(f, p).norm <= 1e-6

    def test_x_u1_commutator_noninteger_rate(self, grid):
        p = ModelRepParams(sigma=-1, lambda1=0.6, m=1.0)
        f = gaussian_log(grid)
        lhs = lin_comb(1.0, apply_X(apply_u1(f, p)), -1.0, apply_u1(apply_X(f), p))
        defect = lin_comb(1.0, lhs, -p.lambda1, apply_u1(f, p)).norm
        assert defect / apply_u1(f, p).norm <= 1e-6

    def test_x_u2_commutator(self, grid, p_rank2):
        p = p_rank2
        f = gaussian_log(grid)
        lhs = lin_comb(1.0, apply_X(apply_u2(f, p)), -1.0, apply_u2(apply_X(f), p))
        defect = lin_comb(1.0, lhs, -p.lambda2, apply_u2(f, p)).norm
        assert defect / apply_u2(f, p).norm <= 1e-6
