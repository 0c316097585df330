"""Property test of the command line on generated configs.

Whatever the config, `main` must end in exit 0, 1 or 2 without letting an
exception escape, and a second run must write byte-identical files.
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
        "twist.m": _number([1.0, 0.5, 1.5, 2.0, 3.0, 0.0, -1.0], 1e-3, 6.0),
        "rep.lambda1": _number([1.0, -1.0, 0.8, 0.0, 2.5], -3.0, 3.0),
        "regularity.s": _number([2.0, 3.0, 0.0], -1.0, 6.0),
        "family": st.sampled_from(["default", "none"]),
        "function": _FUNCTION,
        "lines": _number_list([0.0, -0.4, -0.5, -1.0, -1.5], -4.0, 1.0, 4),
        "t_grid": _number_list([0.0, 0.5, 1.0, 2.0], -1.0, 5.0, 4),
        "sweep.delta": _number([0.0, 0.2], 0.0, 1.0),
        "sweep.steps": st.integers(0, 4).map(str),
        "scan.x_max": _number_list([8.0, 12.0, 16.0], -50.0, 80.0, 4),
        "tol.decay": _number([0.5, 1e-30], 1e-6, 2.0),
        "tol.obstruction": _number([1e-9, 0.0], 1e-14, 1.0),
        "tol.eps_pole": _number([0.05, 1e-12], 1e-6, 2.0),
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
@example(entries={"suite": "estimate-sweep", "grid.x_min": "-40", "grid.x_max": "-35"}, strict=False)
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
        assert _files(outs[1]) == _files(outs[0])
