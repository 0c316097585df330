"""A mutation census: which reported rows catch a deliberately wrong solver.

Every shipped config runs in-process through cli.run_suite, once as shipped
and once under each mutation below.  For each mutation the test pins the
(suite, quantity) pairs whose rows newly fail, and checks that some reported
value moved, so that no held value from an earlier run can hide a mutation.
A mutation that no row catches is pinned with an empty set: it marks a part
of the solver that no bounded row tests yet.
"""

import sys
from pathlib import Path

import pytest

from twisteq import cli, reps, solver
from twisteq.cli import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(path.stem for path in CONFIG_DIR.glob("*.cfg"))

EPS = 1e-3

# name -> (the function mutated, a wrapper that makes it wrong, the
# (suite, quantity) pairs whose rows then fail)
MUTATIONS = {
    "spectral-divisor": (
        solver.divide_line,
        lambda divide: lambda g_line, m, out=None: divide(g_line, m * (1 + EPS), out=out),
        {
            ("solve", "residual_mellin"),
            ("solve", "oracle_agreement"),
            ("solve", "coincidence_defect"),
            ("perturbation-sweep", "residual_mellin"),
            ("cocycle", "residual_flow"),
            ("cocycle", "residual_character"),
            ("cocycle", "solution_match"),
        },
    ),
    "semigroup-twist": (
        solver.solve_semigroup,
        lambda solve: lambda g, m: solve(g, m * (1 + EPS)),
        {("solve", "residual_semigroup"), ("solve", "oracle_agreement")},
    ),
    "obstruction": (
        solver.obstruction,
        lambda obstruction: lambda g, p: obstruction(g, p) + EPS,
        {("solve", "coincidence_defect"), ("cocycle", "error")},
    ),
    # the u1 weight (1 + r^(-2 lambda1))^(t/2) at 1.1 lambda1: the weighted
    # norms and estimate ratios move, and no row has a bound that sees it
    "u1-weight": (
        reps._weight,
        lambda weight: lambda grid, lambda1, t: weight(grid, 1.1 * lambda1, t),
        set(),
    ),
}


def _run_shipped() -> dict[str, list[cli.ReportRow]]:
    return {stem: cli.run_suite(parse_config(CONFIG_DIR / f"{stem}.cfg"))[0] for stem in SHIPPED}


def _values(runs) -> list[tuple]:
    # repr, so that a NaN value equals itself
    return [(r.suite, r.function, r.quantity, r.params, repr(r.value)) for rows in runs.values() for r in rows]


@pytest.fixture(scope="module")
def shipped_runs():
    return _run_shipped()


def test_shipped_configs_pass(shipped_runs):
    assert all(r.passed for rows in shipped_runs.values() for r in rows)


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_census(shipped_runs, monkeypatch, name):
    original, mutate, caught = MUTATIONS[name]
    mutant = mutate(original)
    # every module that bound the function by name calls the mutant
    for module in [m for key, m in sys.modules.items() if key.startswith("twisteq")]:
        for attr, value in vars(module).items():
            if value is original:
                monkeypatch.setattr(module, attr, mutant)
    runs = _run_shipped()
    assert _values(runs) != _values(shipped_runs)
    failing = {(r.suite, r.quantity) for rows in runs.values() for r in rows if not r.passed}
    assert failing == caught
