"""Property test of the command line on generated configs.

Whatever the config, `main` must end in exit 0, 1 or 2 without letting an
exception escape, and a second run must write byte-identical files.  A run
that exits 2 is refused before it makes its output directory.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from twisteq.cli import SUITES, main


def _finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _number(special, lo: float, hi: float):
    """A float drawn from hand-picked values or a range, written as config text."""
    return st.one_of(st.sampled_from(special), _finite(lo, hi)).map(repr)


def _number_list(special, lo: float, hi: float, max_size: int):
    return st.lists(_number(special, lo, hi), max_size=max_size).map(", ".join)


_COEFFICIENTS = st.one_of(
    st.sampled_from([1.0, -2.0, 0.5, 0.0, 1e-300, -1e-300, 1e-200, 1e150, 1e200, 1e250, 1e300]),
    _finite(-1e3, 1e3),
    st.builds(complex, _finite(-10, 10), _finite(-10, 10)),
)
_TERM = st.tuples(_COEFFICIENTS, st.integers(1, 6), _number([1.0, 2.0, 1e-3, 50.0], 1e-3, 20))
_FUNCTION = st.lists(_TERM, min_size=1, max_size=3).map(
    lambda terms: " ; ".join(f"{coef!r},{k},{c}" for coef, k, c in terms)
)


@st.composite
def configs(draw) -> dict[str, str]:
    """Config entries as text: suite and grid always, every other key at random."""
    # windows reaching r = e^300..e^800 as well, where r^k or r overflows
    x_min = draw(st.one_of(_finite(-45.0, 10.0), _finite(-800.0, -300.0)))
    entries = {
        "suite": draw(st.sampled_from(SUITES)),
        "grid.n_points": str(draw(st.integers(16, 512))),
        "grid.x_min": repr(x_min),
        "grid.x_max": repr(x_min + draw(_finite(0.5, 60.0))),
    }
    optional = {
        "twist.m": _number([1.0, 0.5, 1.5, 2.0, 3.0, 0.0, -1.0, 1e20, 1e100], 1e-3, 6.0),
        "rep.lambda1": _number([1.0, -1.0, 0.8, 0.0, 2.5], -3.0, 3.0),
        "regularity.s": _number([2.0, 3.0, 0.0], -1.0, 6.0),
        "family": st.sampled_from(["default", "none", "bogus"]),
        "function": _FUNCTION,
        "lines": _number_list([0.0, -0.4, -0.5, -1.0, -1.5], -4.0, 1.0, 4),
        "t_grid": _number_list([0.0, 0.5, 1.0, 2.0], -1.0, 5.0, 4),
        "sweep.delta": _number([0.0, 0.2], 0.0, 1.0),
        "sweep.steps": st.integers(0, 4).map(str),
        "scan.x_max": _number_list([8.0, 12.0, 16.0], -50.0, 80.0, 4),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            entries[key] = draw(values)
    return entries


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Inputs that sample to zero everywhere on the window (r = e^35..e^40).
@example(entries={"suite": "cocycle", "grid.x_min": "-40", "grid.x_max": "-35"}, strict=False)
@example(entries={"suite": "perturbation-sweep", "grid.x_min": "-40", "grid.x_max": "-35"}, strict=False)
# (at lambda1 = 1 estimate-sweep skips every input, a config error)
@example(
    entries={"suite": "estimate-sweep", "grid.x_min": "-40", "grid.x_max": "-35", "rep.lambda1": "0.8"},
    strict=False,
)
# Nonzero inputs whose norms underflow to 0.
@example(
    entries={"suite": "mellin-identities", "family": "none", "function": "1e-300,2,1"}, strict=False
)
@example(entries={"suite": "obstruction-scan", "function": "1e-300,2,1"}, strict=True)
# A NaN obstruction, whose abs() raised OverflowError on a stale errno.
@example(
    entries={"suite": "solve", "function": "1,2,1", "grid.n_points": "8192",
             "grid.x_min": "-709", "grid.x_max": "12"},
    strict=False,
)
# An overflowing line energy, and an inf / inf ratio.
@example(
    entries={"suite": "solve", "family": "none", "function": "1e150,3,1",
             "grid.n_points": "6144", "grid.x_min": "-12", "grid.x_max": "24"},
    strict=False,
)
@example(entries={"suite": "perturbation-sweep", "function": "1e200,3,1"}, strict=False)
@example(entries={"suite": "mellin-identities", "family": "none", "function": "1e+200,1,1.0"}, strict=False)
# Twists so large that the semigroup's block weight overflows, and that
# the solution's norms underflow.
@example(
    entries={"suite": "solve", "family": "none", "function": "1,2,1", "twist.m": "1e20"}, strict=False
)
@example(
    entries={"suite": "perturbation-sweep", "twist.m": "1e308", "sweep.delta": "1e307"}, strict=False
)
# A twist so large that (X + m) f overflows in the residual's defect.
@example(
    entries={"suite": "solve", "family": "none", "function": "1,2,1", "twist.m": "1e308",
             "grid.n_points": "16"},
    strict=False,
)
# Complex data, two real rows a transform, on an odd grid.
@example(
    entries={"suite": "solve", "family": "none", "function": "1+2j,2,1; 0.5j,3,2",
             "grid.n_points": "4095", "lines": "0, -0.4", "t_grid": "0, 0.5"},
    strict=False,
)
# A real input whose u1 weight (1 + r^2)^(t/2) overflows where its samples
# are exactly zero (r > e^354): the zeroing branch of reps.fractional_weight.
@example(
    entries={"suite": "estimate-sweep", "family": "none", "function": "1,2,1",
             "grid.n_points": "512", "grid.x_min": "-400", "grid.x_max": "12",
             "rep.lambda1": "-1", "regularity.s": "0", "t_grid": "0, 2"},
    strict=False,
)
# Grids and sweeps that numpy refuses to build, without allocating them:
# 10^30 points exceed its size limit, 2^59 float64 points any address space.
@example(entries={"suite": "solve", "grid.n_points": str(10**30)}, strict=False)
@example(entries={"suite": "cocycle", "grid.n_points": str(2**59)}, strict=False)
@example(
    entries={"suite": "estimate-sweep", "grid.n_points": str(2**58), "rep.lambda1": "0.8"},
    strict=False,
)
@example(entries={"suite": "obstruction-scan", "scan.x_max": "8, 12, 1e300"}, strict=False)
@example(entries={"suite": "perturbation-sweep", "sweep.steps": str(10**30)}, strict=False)
# No inputs, refused while parsing in the suites that read them.
@example(entries={"suite": "solve", "family": "none"}, strict=False)
@settings(max_examples=100)
@given(entries=configs(), strict=st.booleans())
def test_main_exits_cleanly_and_reproducibly(entries, strict):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "fuzz.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
        outs, codes = (tmp / "a", tmp / "b"), []
        for out in outs:
            argv = ["run", str(path), "--out", str(out)] + (["--strict"] if strict else [])
            codes.append(main(argv))
        assert codes[0] in (0, 1, 2)
        assert codes[1] == codes[0]
        if codes[0] == 2:
            assert not any(out.exists() for out in outs)
        assert _files(outs[1]) == _files(outs[0])
