import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from twisteq import grid as grid_module
from twisteq.grid import default_grid, make_log_grid

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def wide_grid():
    """Window sized so k=1 tails sit below the 1e-7 oracle tolerances."""
    return make_log_grid(6144, -12.0, 24.0)


@pytest.fixture
def ffts(monkeypatch):
    """count(call) runs call and returns its (rfft, irfft) transform counts,
    each a count of real rows: a (k, n) call counts k transforms, and a
    (k, rows, n//2+1) irfft call k * rows.  count.calls is then its (rfft,
    irfft) call counts."""
    rows = {"rfft": 0, "irfft": 0}
    calls = dict(rows)
    for name in calls:
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            rows[_name] += int(np.prod(np.shape(a)[:-1]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    def count(call):
        for counts in (rows, calls):
            counts.update(rfft=0, irfft=0)
        call()
        count.calls = calls["rfft"], calls["irfft"]
        return rows["rfft"], rows["irfft"]

    return count


@pytest.fixture
def exps(monkeypatch):
    """count(call) runs call and returns its np.exp call count."""
    calls = []
    original = np.exp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    return count


@pytest.fixture
def abses(monkeypatch):
    """count(call) runs call and returns its np.abs call count: the |.|
    passes that norms, sup norms and decay tests read."""
    calls = []
    original = np.abs

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "abs", counted)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    return count


@pytest.fixture
def gates(monkeypatch):
    """count(call) runs call and returns its decay_admissible call count and
    its Profile.decays call count: the decay gate under every name the
    package binds it to, and the decay tests it makes."""
    calls = {"gate": 0, "decays": 0}
    gate, decays = grid_module.decay_admissible, grid_module.Profile.decays

    def counted_gate(*args, **kwargs):
        calls["gate"] += 1
        return gate(*args, **kwargs)

    def counted_decays(*args, **kwargs):
        calls["decays"] += 1
        return decays(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "twisteq" and getattr(module, "decay_admissible", None) is gate:
            monkeypatch.setattr(module, "decay_admissible", counted_gate)
    monkeypatch.setattr(grid_module.Profile, "decays", counted_decays)

    def count(call):
        calls.update(gate=0, decays=0)
        call()
        return calls["gate"], calls["decays"]

    return count


@pytest.fixture
def holds(monkeypatch):
    """count(call) runs call and returns {kind: (hits, misses)} of the values
    it asks grid._hold for, under every name the package binds _hold to; a
    kind is the first entry of a held key."""
    counts = {}
    hold = grid_module._hold

    def counted(owner, key, compute):
        hits, misses = counts.get(key[0], (0, 0))
        counts[key[0]] = (hits + 1, misses) if key in owner._held else (hits, misses + 1)
        return hold(owner, key, compute)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "twisteq" and getattr(module, "_hold", None) is hold:
            monkeypatch.setattr(module, "_hold", counted)

    def count(call):
        counts.clear()
        call()
        return dict(sorted(counts.items()))

    return count


@pytest.fixture
def scalar_math(monkeypatch):
    """count(call) runs call and returns its np.isfinite, np.sqrt and
    np.finfo call count: numpy scalar math, which the package does in math."""
    calls = []
    for name in ("isfinite", "sqrt", "finfo"):
        original = getattr(np, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    return count
