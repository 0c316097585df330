import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

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
    """count(call) runs call and returns its (fft, ifft) transform counts, a
    (k, n) call counting k transforms; count.calls is then its (fft, ifft)
    call counts."""
    rows = {"fft": 0, "ifft": 0}
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
            counts.update(fft=0, ifft=0)
        call()
        count.calls = calls["fft"], calls["ifft"]
        return rows["fft"], rows["ifft"]

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
