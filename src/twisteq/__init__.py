"""Mellin-transform machinery for the twisted equation (X+m)f = g on L²(R⁺, dr/r).

The package represents half-line functions on a uniform grid in x = -log r,
computes vertical-line Mellin transforms by FFT, evaluates the obstruction
functional D(g) = M(g, -m), solves the twisted equation by spectral division
and by the semigroup resolvent, and verifies the norm estimates the two
constructions must satisfy.

Importing the package fixes glibc's heap thresholds for the process; see
_fix_heap_thresholds.
"""

import ctypes
import sys

from .cocycle import (
    CartanReduction,
    CocycleData,
    CommonSolutionReport,
    cartan_reduce,
    common_solution,
    reconstruct_g1,
    verify_cocycle,
)
from .errors import (
    BinRoundingWarning,
    ConfigError,
    DegenerateBump,
    GridMismatch,
    IncompatibleCocycle,
    InvalidGrid,
    MissingParams,
    NonFiniteSample,
    NotAdmissible,
    ObstructionNonzero,
    PoleOnLine,
    TruncationWarning,
    TwisteqError,
    ZeroEigenvalue,
    ZeroTwist,
)
from .families import (
    FAMILY,
    GammaTerm,
    family_member,
    flow_rhs,
    gaussian_log,
    make_terms,
    min_power,
    sample_terms,
    scale_terms,
    x_image,
)
from .grid import (
    DECAY_TOL,
    HalfLineFunction,
    LogGrid,
    base_norm,
    decay_admissible,
    default_grid,
    inner,
    lin_comb,
    make_log_grid,
    sample,
    weighted_norm,
)
from .mellin import (
    MellinLine,
    Strip,
    StripCheck,
    derivative_rule_defect,
    line_admissible,
    line_energy,
    log_derivative,
    mellin_inverse_line,
    mellin_line,
    parseval_defect,
    strip_admissible,
)
from .reps import (
    ModelRepParams,
    apply_X,
    apply_u1,
    apply_u2,
    flow_action,
    fractional_norm,
    fractional_weight,
    fractional_weight_u2,
    nearest_bin_shift,
    regularity_norm,
    sobolev_norm,
)
from .solver import (
    EstimateRow,
    SolveReport,
    WeightedNormEntry,
    estimate_sweep,
    obstruction,
    project_obstruction,
    residual,
    solve_mellin,
    solve_semigroup,
)

__version__ = "0.1.0"

# mallopt parameters, from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Above the largest heap swing of one solve on the benchmark's grids (about
# 10 MB); some glibc releases refuse mmap thresholds above 32 MiB (half
# their HEAP_MAX_SIZE) on 64-bit hosts.
_HEAP_THRESHOLD = 32 << 20


def _fix_heap_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where they are not set.

    glibc serves blocks above its mmap threshold from fresh mappings and
    gives the free top of its heap back to the OS beyond twice that
    threshold, which it raises to the largest block freed so far.  At
    n = 19200 that is about two solve arrays, so each solve's memory went
    back to the OS and was faulted back in, zeroed, by the next solve.
    Fixed thresholds keep it in the heap.  Setting either one turns the
    adjustment off, so the trim threshold is set only once the mmap
    threshold is.
    """
    if sys.platform != "linux":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(
        mallopt(param, _HEAP_THRESHOLD) == 1 for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD)
    )


_heap_thresholds_fixed = _fix_heap_thresholds()
