"""families.sample_terms sums in real arithmetic and keeps the bits of the
complex sum it replaced."""

import numpy as np
import pytest

from twisteq.errors import NonFiniteSample
from twisteq.families import FAMILY, make_terms, sample_terms
from twisteq.grid import make_log_grid, sample


def complex_sum_reference(terms, grid):
    """The complex formula: acc += coef * r^k * e^{-c r} from complex zeros."""
    def expr(r):
        powers = {k: r**k for k in {t.k for t in terms}}
        decays = {c: np.exp(-c * r) for c in {t.c for t in terms}}
        acc = np.zeros_like(r, dtype=np.complex128)
        for coef, k, c in terms:
            acc += coef * powers[k] * decays[c]
        return acc

    return sample(expr, grid)


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
    # where r^3 overflows, r^3 e^{-r} (about 0 there) is exp(3 log r - r)
    grid = make_log_grid(64, -300.0, 10.0)
    terms = make_terms([(2.0 - 1.0j, 3, 1.0), (1.0, 1, 1.0)])
    r = grid.r
    truth = (2.0 - 1.0j) * np.exp(3 * np.log(r) - r) + r * np.exp(-r)
    values = sample_terms(terms, grid).values
    assert np.allclose(values, truth, rtol=1e-12, atol=0.0)
    # elsewhere the bits of the complex sum stay
    with np.errstate(over="ignore", invalid="ignore"):
        powers = r**3
        complex_sum = np.zeros_like(r, dtype=np.complex128)
        complex_sum += (2.0 - 1.0j) * powers * np.exp(-r)
        complex_sum += 1.0 * r * np.exp(-r)
    finite = np.isfinite(powers)
    assert 0 < finite.sum() < len(r)
    assert np.array_equal(values[finite], complex_sum[finite])
