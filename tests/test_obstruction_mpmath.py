"""A second obstruction oracle, independent of scipy: 30-digit mpmath.

For g = sum coef r^k e^{-cr} the obstruction is

    D(g) = M(g, -m) = sum coef Gamma(k-m) c^{-(k-m)} / sqrt(2 pi),   k > m.

The grid window x <= x_max leaves out r < e^{-x_max}, where the integrand
g(r) r^{-m-1} behaves like r^{k-m-1}.  That tail is

    sum coef c^{-(k-m)} gamma(k-m, c e^{-x_max}) / sqrt(2 pi)

(gamma the lower incomplete Gamma function), about e^{-(k-m) x_max}/(k-m)
per unit coefficient.  The members checked run at non-integer m with a
negative lambda1, on the grid of configs/solve.cfg (6144 points, x in
[-12, 24]).
"""

import numpy as np
import pytest

from twisteq.families import FAMILY, Terms, sample_terms
from twisteq.reps import ModelRepParams
from twisteq.solver import obstruction

mp = pytest.importorskip("mpmath")

DIGITS = 30

# (m, lambda1): non-integer twists, contracting direction
PARAMS = ((0.45, -0.6), (1.3, -1.4))

# Members with k - m >= 0.7: the window tail is below 1e-7 relative
# (at most 9.1e-8, r2_exp2 at m = 1.3), so the full oracle applies as is.
ORACLE_TOL = 1e-7

# Members with k = 1 at m = 0.45: k - m = 0.55 and the tail is
# e^{-0.55 * 24} / 0.55 = 3.4e-6 per unit coefficient of the k = 1 term,
# 1.9e-6 (mix_12) to 3.1e-6 (r_exp2) relative to D.  The bound admits that
# tail and no more; the windowed check below accounts for it exactly.
TRUNCATED_TOL = 4e-6

# Exact value minus the window tail: what remains is quadrature error.
WINDOWED_TOL = 1e-11


def _depth(terms: Terms, m: float) -> float:
    return min(t.k for t in terms) - m


def _cases(keep):
    return [
        pytest.param(m, lam, name, terms, id=f"m={m}-{name}")
        for m, lam in PARAMS
        for name, terms in FAMILY
        if keep(_depth(terms, m))
    ]


def _obstruction_exact(terms: Terms, m: float):
    total = mp.fsum(
        mp.mpc(t.coef) * mp.gamma(t.k - m) * mp.mpf(t.c) ** (m - t.k) for t in terms
    )
    return total / mp.sqrt(2 * mp.pi)


def _window_tail(terms: Terms, m: float, x_max: float):
    r_min = mp.exp(-x_max)
    total = mp.fsum(
        mp.mpc(t.coef) * mp.gammainc(t.k - m, 0, t.c * r_min) * mp.mpf(t.c) ** (m - t.k)
        for t in terms
    )
    return total / mp.sqrt(2 * mp.pi)


def _relative_gap(wide_grid, m, lam, terms, windowed=False):
    """|D_grid - reference| / |D|, the reference being D or D minus the window tail."""
    g = sample_terms(terms, wide_grid)
    d = obstruction(g, ModelRepParams(sigma=1, lambda1=lam, m=m))
    assert np.isfinite(d)
    with mp.workdps(DIGITS):
        exact = _obstruction_exact(terms, m)
        reference = exact - _window_tail(terms, m, wide_grid.x_max) if windowed else exact
        return float(abs(mp.mpc(d) - reference) / abs(exact))


@pytest.mark.parametrize("m, lam, name, terms", _cases(lambda depth: depth >= 0.7))
def test_matches_gamma_oracle(wide_grid, m, lam, name, terms):
    assert _relative_gap(wide_grid, m, lam, terms) <= ORACLE_TOL


@pytest.mark.parametrize("m, lam, name, terms", _cases(lambda depth: 0 < depth < 0.7))
def test_truncated_members_within_window_tail(wide_grid, m, lam, name, terms):
    assert _relative_gap(wide_grid, m, lam, terms) <= TRUNCATED_TOL


@pytest.mark.parametrize("m, lam, name, terms", _cases(lambda depth: depth > 0))
def test_window_tail_is_the_whole_error(wide_grid, m, lam, name, terms):
    assert _relative_gap(wide_grid, m, lam, terms, windowed=True) <= WINDOWED_TOL
