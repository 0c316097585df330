"""Closed-form test inputs: sums of r^k e^{-c r} terms.

Every member has Gamma-function Mellin transforms and weighted norms, so all
suites can be checked against analytic values.  The term algebra below keeps
images under r d/dr (and hence X = -r d/dr) inside the family, which lets
the experiment runner construct exactly compatible cocycle data.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidGrid
from .grid import HalfLineFunction, LogGrid, sample, vanishes


class GammaTerm(NamedTuple):
    coef: complex
    k: int
    c: float


Terms = tuple[GammaTerm, ...]


def make_terms(triples: Sequence[tuple[complex, int, float]]) -> Terms:
    out = []
    for coef, k, c in triples:
        if c <= 0:
            raise ValueError(f"exponential rate must be positive, got c={c}")
        if k < 1:
            raise ValueError(f"power must be a positive integer, got k={k}")
        out.append(GammaTerm(complex(coef), int(k), float(c)))
    return tuple(out)


def sample_terms(terms: Terms, grid: LogGrid) -> HalfLineFunction:
    """Samples of the terms on the grid.

    Raises InvalidGrid when terms with a nonzero coefficient sample to zero
    at every node: the window misses the function, and every measurement on
    it would be one of the zero function.

    Each term is coef * (r^k e^(-c r)).  The shapes r^k e^(-c r) are formed
    once per call for each distinct (k, c) of a nonzero term (_shapes), and
    each term is one product of its shape with a part of its coefficient,
    in one scratch array that every term reuses.  Real and imaginary parts
    are summed in real arithmetic from +0, in term order, which gives the
    bits of the complex sum; a zero part adds nothing and is skipped.  When
    every coefficient is real only the real part is formed, and the samples
    are float64.  A call holds the rates, the shapes, the scratch array and
    the accumulators, and keeps none of them.
    """
    sides = ("real", "imag") if any(t.coef.imag for t in terms) else ("real",)

    def expr(r):
        shapes = _shapes([(k, c) for coef, k, c in terms if coef], r)
        term = np.empty_like(r)
        parts = []
        for side in sides:
            acc = np.zeros_like(r)
            for coef, k, c in terms:
                part = getattr(coef, side)
                if part:
                    acc += np.multiply(shapes[k, c], part, out=term)
            parts.append(acc)
        if len(parts) == 1:
            return parts[0]
        values = np.empty(r.shape, dtype=np.complex128)
        values.real, values.imag = parts
        return values

    f = sample(expr, grid)
    if vanishes(f) and any(t.coef != 0 for t in terms):
        raise InvalidGrid(
            f"the terms vanish at every node of [{grid.x_min:g}, {grid.x_max:g}]"
        )
    return f


def _shapes(pairs: list[tuple[int, float]], r: np.ndarray) -> dict[tuple[int, float], np.ndarray]:
    """r^k e^(-c r) on the nodes r for each distinct (k, c) of pairs.

    Each rate e^(-c r) and each power r^k is computed once.  As r falls
    along the grid, e^(-c r) rises, so the nodes where it underflows to 0
    are a prefix, found by one search per rate; a shape is the plain
    product r^k e^(-c r), set to 0 on that prefix, so inf * 0 (where r^k
    overflows) never reaches it.  A power's last shape is formed in the
    power's own array.
    """
    rates = {}
    for c in dict.fromkeys(c for _, c in pairs):
        decay = np.exp(-c * r)
        rates[c] = decay, np.searchsorted(decay, 0.0, side="right")
    by_power = {}
    for k, c in dict.fromkeys(pairs):
        by_power.setdefault(k, []).append(c)
    shapes = {}
    for k, cs in by_power.items():
        power = r**k
        for c in cs:
            decay, underflow = rates[c]
            shape = np.multiply(power, decay, out=power if c == cs[-1] else None)
            shape[:underflow] = 0.0
            shapes[k, c] = shape
    return shapes


def scale_terms(alpha: complex, terms: Terms) -> Terms:
    return tuple(GammaTerm(alpha * t.coef, t.k, t.c) for t in terms)


def x_image(terms: Terms) -> Terms:
    """Terms of X f = -r d/dr f: r d/dr (r^k e^{-cr}) = k r^k e^{-cr} - c r^{k+1} e^{-cr}."""
    out = []
    for coef, k, c in terms:
        out.append(GammaTerm(-coef * k, k, c))
        out.append(GammaTerm(coef * c, k + 1, c))
    return tuple(out)


def flow_rhs(terms: Terms, m: float) -> Terms:
    """Terms of (X + m) f."""
    return x_image(terms) + scale_terms(m, terms)


def min_power(terms: Terms) -> int:
    """Smallest power with a nonzero coefficient; governs decay as r -> 0."""
    powers = [t.k for t in terms if t.coef != 0]
    if not powers:
        raise ValueError("all coefficients vanish")
    return min(powers)


# The published verification family: six pure Gamma terms spanning
# k in {1,2,3}, c in {1,2}, plus two fixed combinations.
FAMILY: tuple[tuple[str, Terms], ...] = (
    ("r_exp", make_terms([(1.0, 1, 1.0)])),
    ("r_exp2", make_terms([(1.0, 1, 2.0)])),
    ("r2_exp", make_terms([(1.0, 2, 1.0)])),
    ("r2_exp2", make_terms([(1.0, 2, 2.0)])),
    ("r3_exp", make_terms([(1.0, 3, 1.0)])),
    ("r3_exp2", make_terms([(1.0, 3, 2.0)])),
    ("mix_12", make_terms([(1.0, 1, 1.0), (0.5, 2, 2.0)])),
    ("mix_23", make_terms([(2.0, 2, 1.0), (-1.0, 3, 2.0)])),
)


def family_member(name: str) -> Terms:
    for key, terms in FAMILY:
        if key == name:
            return terms
    raise KeyError(f"unknown family member {name!r}")
