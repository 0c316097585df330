"""Common solutions of the twisted cocycle system in (R⋉R) x R components.

One frequency component carries the pair of equations

    (chi + m1) h = g1,      (X + m) h = g2,

where the R-factor character chi acts as the scalar i*v, v != 0.  When the
data satisfy the compatibility equation (X+m) g1 = (i v + m1) g2, solving the
flow equation alone produces the common solution; both residuals are
reported.  The Cartan-case reduction rewrites a twisted cocycle pair over a
bracket eigenvalue lambda into this nilpotent form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompatibleCocycle, ObstructionNonzero, ZeroEigenvalue
from .grid import (
    DECAY_TOL,
    HalfLineFunction,
    base_norm,
    lin_comb,
    relative_difference,
    require_same_grid,
)
from .mellin import Strip, strip_admissible
from .reps import ModelRepParams, apply_X
from .solver import (
    DEFAULT_ADMISSIBILITY_MARGIN,
    DEFAULT_OBSTRUCTION_TOL,
    obstructed,
    residual,
    solve_mellin,
)


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
    """Compatibility defect ||(X+m) g1 - (iv+m1) g2|| / max(||g1||, ||g2||)."""
    lhs = lin_comb(1.0, apply_X(d.g1), d.m, d.g1)
    diff = base_norm(lin_comb(1.0, lhs, -d.character, d.g2))
    scale = max(base_norm(d.g1), base_norm(d.g2))
    if scale == 0.0:
        return diff
    return diff / scale


@dataclass(frozen=True, eq=False)
class CommonSolutionReport:
    solution: HalfLineFunction
    residual_flow: float
    residual_character: float
    compatibility_defect: float
    obstruction: complex
    base_norm_ratio: float
    flags: tuple[str, ...]


def common_solution(
    d: CocycleData,
    compat_tol: float = 1e-7,
    obstruction_tol: float = DEFAULT_OBSTRUCTION_TOL,
    decay_tol: float = DECAY_TOL,
) -> CommonSolutionReport:
    """Solve both equations of a compatible component with a single h.

    Solves (X+m) h = g2 and reports the residuals of both equations.  With
    exact compatibility the obstruction of g2 vanishes whenever g1 has
    regularity past the twist depth; a nonzero obstruction in that regime
    can only come from discretization and rejects the run.  When g1 lacks
    that regularity the obstruction value is recorded as a flag instead.
    """
    defect = verify_cocycle(d)
    if defect > compat_tol:
        raise IncompatibleCocycle(
            f"compatibility defect {defect:.3e} exceeds tolerance {compat_tol:.1e}"
        )
    report = solve_mellin(
        d.g2, d.p, lines=(0.0,), obstruction_tol=obstruction_tol, decay_tol=decay_tol
    )
    flags: tuple[str, ...] = ()
    if obstructed(d.g2, report.obstruction, obstruction_tol):
        margin = Strip(-d.m - DEFAULT_ADMISSIBILITY_MARGIN, 0.0)
        if strip_admissible(d.g1, margin, decay_tol).ok:
            raise ObstructionNonzero(
                f"obstruction {abs(report.obstruction):.3e} contradicts compatibility at "
                f"this regularity; discretization failure"
            )
        flags = ("obstruction-nonzero-low-regularity",)
    h = report.solution
    return CommonSolutionReport(
        solution=h,
        residual_flow=residual(h, d.g2, d.m),
        residual_character=relative_difference(
            HalfLineFunction(h.grid, d.character * h.values), d.g1
        ),
        compatibility_defect=defect,
        obstruction=report.obstruction,
        base_norm_ratio=report.base_norm_ratio,
        flags=flags + report.flags,
    )


@dataclass(frozen=True, eq=False)
class CartanReduction:
    """Twisted cocycle pair rewritten over a bracket eigenvalue lambda.

    The pair ((X+m), g2) together with the mixed operator
    (X + m - phi_x/lambda * (u + m1)) applied to the same unknown equals the
    original system; the second right-hand side is g2 - phi_x/lambda * g1.
    """

    lam: float
    phi_x: float
    m: float
    m1: float
    rhs_flow: HalfLineFunction
    rhs_mixed: HalfLineFunction


def cartan_reduce(
    g1: HalfLineFunction,
    g2: HalfLineFunction,
    lam: float,
    phi_x: float,
    m: float,
    m1: float,
) -> CartanReduction:
    """Map cocycle data to the nilpotent-case pair of right-hand sides."""
    if lam == 0:
        raise ZeroEigenvalue("bracket eigenvalue lambda must be nonzero")
    require_same_grid(g1, g2)
    rhs_mixed = lin_comb(1.0, g2, -phi_x / lam, g1)
    return CartanReduction(
        lam=float(lam), phi_x=float(phi_x), m=float(m), m1=float(m1),
        rhs_flow=g2, rhs_mixed=rhs_mixed,
    )


def reconstruct_g1(red: CartanReduction) -> HalfLineFunction:
    """Undo the reduction: g1 = (rhs_flow - rhs_mixed) * lambda / phi_x.

    Subtracting the two transformed equations leaves
    phi_x/lambda * (u + m1) h = rhs_flow - rhs_mixed, so recovering g1 this
    way is the recombination identity; it is linear and exact on samples.
    """
    if red.phi_x == 0:
        raise ZeroEigenvalue("recombination needs phi(X) != 0")
    return lin_comb(red.lam / red.phi_x, red.rhs_flow, -red.lam / red.phi_x, red.rhs_mixed)
