"""Common solutions of the twisted cocycle system in (R⋉R) x R components.

One frequency component carries the pair of equations

    (chi + m1) h = g1,      (X + m) h = g2,

where the R-factor character chi acts as the scalar i*v, v != 0.  When the
data satisfy the compatibility equation (X+m) g1 = (i v + m1) g2, solving the
flow equation alone produces the common solution; both residuals are
reported.  This is the nilpotent case; the Cartan case, where the second
generator lies in a Cartan subalgebra, is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleCocycle, ObstructionNonzero
from .grid import HalfLineFunction, _difference_norm, _ratio, relative_to, require_same_grid
from .mellin import _dx, _line_zero
from .reps import ModelRepParams
from .solver import magnitude, obstructed, reported_obstruction, residual, solve_mellin

# The largest compatibility defect (verify_cocycle) that common_solution accepts.
COMPAT_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class CocycleData:
    """Cocycle data of one frequency component.

    v is the frequency of the R-factor character (the twist i*v + m1 is
    never real, so no invariant vectors occur); the flow twist is p.m.
    """

    g1: HalfLineFunction
    g2: HalfLineFunction
    v: float
    m1: float
    p: ModelRepParams

    def __post_init__(self):
        require_same_grid(self.g1, self.g2)
        if self.v == 0:
            raise IncompatibleCocycle("frequency v must be nonzero")

    @property
    def m(self) -> float:
        return self.p.m

    @property
    def character(self) -> complex:
        return self.m1 + 1j * self.v


def verify_cocycle(d: CocycleData) -> float:
    """Compatibility defect ||(X+m) g1 - (iv+m1) g2|| / max(||g1||, ||g2||) by
    grid._ratio's rule, from g1's held line 0.  (X+m) g1 is real for real
    g1 and (iv+m1) g2 never is, so the difference is taken in the buffer of
    (iv+m1) g2."""
    g1, g2 = d.g1, d.g2
    flow = _dx(_line_zero(g1).spectrum, g1.grid)
    flow += d.m * g1.values
    diff = d.character * g2.values
    np.subtract(flow, diff, out=diff)
    return _ratio(_difference_norm(diff, g1.grid.h), max(g1.norm, g2.norm), g1, g2)


@dataclass(frozen=True, eq=False)
class CommonSolutionReport:
    solution: HalfLineFunction
    residual_flow: float
    residual_character: float
    compatibility_defect: float
    obstruction: complex
    base_norm_ratio: float
    flags: tuple[str, ...]


def common_solution(d: CocycleData) -> CommonSolutionReport:
    """Solve both equations of a compatible component with a single h.

    Solves (X+m) h = g2 on line 0 and reports the residuals of both
    equations.  The obstruction D(g2) is evaluated here, by
    solver.reported_obstruction, as the line-0 solve does not need it.  With
    exact compatibility it vanishes whenever g1 has regularity past the
    twist depth; a nonzero obstruction in that regime can only come from
    discretization and rejects the run.  When g1 lacks that regularity the
    obstruction value is recorded as a flag instead.  A compatibility defect
    above COMPAT_TOL rejects the data.
    """
    defect = verify_cocycle(d)
    if defect > COMPAT_TOL:
        raise IncompatibleCocycle(
            f"compatibility defect {defect:.3e} exceeds tolerance {COMPAT_TOL:.1e}"
        )
    report = solve_mellin(d.g2, d.p, lines=(0.0,))
    d_g2, undefined = reported_obstruction(d.g2, d.p)
    flags: tuple[str, ...] = ()
    if obstructed(d.g2, d_g2):
        _, g1_undefined = reported_obstruction(d.g1, d.p)
        if g1_undefined:  # g1 lacks the regularity that forces D(g2) = 0
            flags = ("obstruction-nonzero-low-regularity",)
        else:
            raise ObstructionNonzero(
                f"obstruction {magnitude(d_g2):.3e} contradicts compatibility at "
                f"this regularity; discretization failure"
            )
    h = report.solution
    character_defect = d.character * h.values
    character_defect -= d.g1.values
    return CommonSolutionReport(
        solution=h,
        residual_flow=residual(h, d.g2, d.m),
        residual_character=relative_to(_difference_norm(character_defect, h.grid.h), d.g1),
        compatibility_defect=defect,
        obstruction=d_g2,
        base_norm_ratio=report.base_norm_ratio,
        flags=flags + undefined,
    )
