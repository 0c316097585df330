"""families.sample_terms sums in real arithmetic and keeps the bits of the
complex sum of coef * (r^k e^{-c r})."""

import numpy as np
import pytest

from twisteq.errors import NonFiniteSample
from twisteq.families import FAMILY, flow_rhs, make_terms, sample_terms
from twisteq.grid import make_log_grid, sample


def complex_sum(terms, r):
    """The complex formula: acc += coef * (r^k e^{-c r}) from complex zeros."""
    powers = {k: r**k for k in {t.k for t in terms}}
    decays = {c: np.exp(-c * r) for c in {t.c for t in terms}}
    acc = np.zeros_like(r, dtype=np.complex128)
    for coef, k, c in terms:
        acc += coef * (powers[k] * decays[c])
    return acc


def complex_sum_reference(terms, grid):
    """complex_sum sampled on the grid."""
    return sample(lambda r: complex_sum(terms, r), grid)


TERMS = {
    "real": [(1.0, 1, 1.0), (-0.5, 3, 2.0)],
    "complex": [(0.3 - 1.7j, 2, 0.5), (-1.1 + 0.2j, 4, 1.5)],
    "pure-imaginary": [(2.5j, 1, 1.0), (-0.75j, 2, 3.0)],
    "with-zero": [(0.0, 5, 1.0), (1.0 - 1.0j, 1, 2.0), (0j, 2, 0.7), (-3.0, 2, 0.7)],
}
WINDOWS = {
    "default": (4096, -12.0, 12.0),
    # r^k underflows to 0 on the right of the window, and e^{-c r} on its left
    "underflow": (2048, -6.0, 200.0),
}


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("kind", TERMS)
def test_samples_equal_the_complex_sum(kind, window):
    grid = make_log_grid(*WINDOWS[window])
    terms = make_terms(TERMS[kind])
    expected = complex_sum_reference(terms, grid).values
    assert np.array_equal(sample_terms(terms, grid).values, expected)


@pytest.mark.parametrize("name, terms", FAMILY)
def test_family_samples_equal_the_complex_sum(name, terms):
    grid = make_log_grid(*WINDOWS["underflow"])
    expected = complex_sum_reference(terms, grid).values
    assert np.array_equal(sample_terms(terms, grid).values, expected)


def test_zero_term_whose_power_overflows_samples_the_true_values():
    # r reaches e^300 and r^3 overflows: 0 * inf is NaN in the complex sum,
    # but the zero term adds nothing, and r e^{-r} is finite everywhere
    grid = make_log_grid(64, -300.0, 10.0)
    terms = make_terms([(0.0, 3, 1.0), (1.0, 1, 1.0)])
    with pytest.raises(NonFiniteSample):
        complex_sum_reference(terms, grid)
    assert np.array_equal(sample_terms(terms, grid).values, grid.r * np.exp(-grid.r))


def test_term_whose_power_overflows_samples_the_true_values():
    # where r^3 overflows, e^{-r} underflows to 0: the shape r^3 e^{-r} is 0
    # there, not inf * 0, and a coefficient scales that 0
    grid = make_log_grid(64, -300.0, 10.0)
    terms = make_terms([(2.0 - 1.0j, 3, 1.0), (1.0, 1, 1.0)])
    r = grid.r
    with np.errstate(over="ignore", under="ignore"):
        powers = r**3
        decay = np.exp(-r)
    overflows = np.isinf(powers)
    assert 0 < overflows.sum() < len(r)
    values = sample_terms(terms, grid).values
    assert np.all(values[overflows] == 0)
    # elsewhere the bits of the complex sum
    r, powers, decay = r[~overflows], powers[~overflows], decay[~overflows]
    assert np.array_equal(values[~overflows], (2.0 - 1.0j) * (powers * decay) + r * decay)


@pytest.mark.parametrize(
    "triples, window",
    [
        # a coefficient times r^2 overflows where the term is about 0
        ([(1e300, 2, 1.0)], (4096, -12.0, 12.0)),
        # 2 r^4 and 1.5 r^3 overflow although r^4 and r^3 are finite
        ([(2.0, 4, 1.5)], (8192, -300.0, 12.0)),
        ([(-1.5, 3, 2.0)], (8192, -300.0, 12.0)),
        (dict(FAMILY)["mix_23"], (8192, -400.0, 12.0)),
    ],
    ids=["1e300-coefficient", "2r4", "1.5r3", "mix_23"],
)
def test_large_products_with_the_coefficient_sample(triples, window):
    grid = make_log_grid(*window)
    terms = make_terms(triples)
    values = sample_terms(terms, grid).values
    r = grid.r
    with np.errstate(under="ignore"):
        truth = sum(coef * np.exp(k * np.log(r) - c * r) for coef, k, c in terms)
    assert np.abs(values - truth).max() <= 1e-12 * np.abs(truth).max()


@pytest.mark.parametrize("window", [(4096, -12.0, 24.0), (4096, -6.0, 76.0), (8192, -300.0, 12.0)])
@pytest.mark.parametrize(
    "coef, k, c",
    [(1.0, 1, 1.0), (1.0, 2, 2.0), (1.0, 3, 1.0), (0.3 - 1.7j, 2, 0.5), (2.0, 4, 1.5), (-1.5, 3, 2.0)],
)
def test_single_terms_match_mpmath(coef, k, c, window):
    # one rounding per elementary operation: r^k, c r, exp (which amplifies
    # the error of its argument c r by c r), the product and the coefficient
    mpmath = pytest.importorskip("mpmath")
    grid = make_log_grid(*window)
    values = sample_terms(make_terms([(coef, k, c)]), grid).values
    checked = 0
    with mpmath.workdps(30):
        for r, value in zip(grid.r[::5], values[::5]):
            if not abs(value) > 1e-290:
                continue
            exact = mpmath.mpc(coef) * mpmath.mpf(r) ** k * mpmath.exp(-c * mpmath.mpf(r))
            rel = float(abs(mpmath.mpc(value) - exact) / abs(exact))
            assert rel <= 2 * (k + c * r + 4) * 2.0**-53, (r, value, rel)
            checked += 1
    assert checked > 50


# Term sets in which several terms share a shape (k, c): (X + m) of
# a mixed real and complex set (9 terms, 5 shapes), and repeats around zero
# coefficients, one of them on a shape that no nonzero term has.
REPEATED = {
    "flow-rhs-mixed": flow_rhs(make_terms([(1.0, 2, 1.0), (0.3 - 1.7j, 3, 0.5), (-2.0, 2, 0.5)]), 0.7),
    "flow-rhs-real": flow_rhs(make_terms([(1.0, 1, 1.0), (-0.5, 3, 2.0)]), 1.3),
    "with-zero": make_terms(
        [(1.0, 2, 1.0), (0.0, 2, 1.0), (-0.5j, 2, 1.0), (2.0, 3, 1.0), (0j, 4, 2.0), (1.5, 3, 2.0)]
    ),
}


@pytest.mark.parametrize("window", [*WINDOWS, "power-overflow"])
@pytest.mark.parametrize("kind", REPEATED)
def test_repeated_shapes_sample_the_complex_sum(kind, window):
    terms = REPEATED[kind]
    grid = make_log_grid(*WINDOWS.get(window, (8192, -300.0, 12.0)))
    values = sample_terms(terms, grid).values
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = complex_sum(terms, grid.r)
    # on [-300, 12] r^k overflows where e^{-c r} is 0: the complex sum has
    # inf * 0 = NaN there, and the samples the true 0
    formed = np.isfinite(expected)
    assert formed.all() == (window != "power-overflow")
    assert np.array_equal(values[formed], expected[formed])
    assert np.all(values[~formed] == 0)
