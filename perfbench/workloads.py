"""Seeded workloads of the twisteq benchmark.

A workload generates the inputs of operation ``i`` from ``(seed, i)`` alone
(``prepare``), splits one operation into labelled steps that call the
package's public functions (``steps``; the steps are the only timed code)
and checks the steps' outputs against references that never come from the
code path being timed (``check``).

* ``suites``: one pass over the shipped ``configs/*.cfg`` through the
  in-process command line, in a seeded order; reports must match the
  set-up pass byte for byte.
* ``shared-sweep``: one seeded Gamma-term input sampled once on the default
  grid, solved at every point of a 5x5 (lambda1, m) tensor grid; every solve
  shares the grid and the line-0 transform.
* ``fresh-grid``: a new 19200-point grid per operation; both solve routes
  are compared with the sampled closed-form solution.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

# Calls go through the module attributes, never through names imported
# here, so that the traced run sees every call the benchmark makes.
from twisteq import cli, families, solver
from twisteq import grid as loggrid
from twisteq.reps import ModelRepParams

RESIDUAL_TOL = 1e-6
ORACLE_TOL = 1e-6
COINCIDENCE_TOL = 1e-6
BASE_BOUND = 1.0 + 1e-8


def _rng(seed: int, tag: int, stream: int, i: int) -> np.random.Generator:
    """Generator for operation i of a stream; the workload tag keeps the
    draws of two workloads apart for the same seed."""
    return np.random.default_rng([seed, tag, stream, i])


def draw_terms(rng: np.random.Generator):
    """1-3 terms coef * r^k e^{-c r}: k in {2, 3}, c in [0.5, 2.5], |coef| in [0.5, 2]."""
    count = int(rng.integers(1, 4))
    triples = []
    for _ in range(count):
        coef = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        triples.append((coef, int(rng.integers(2, 4)), float(rng.uniform(0.5, 2.5))))
    return families.make_terms(triples)


def _l2(values: np.ndarray) -> float:
    """Plain discrete l2 norm; the grid spacing cancels in every ratio used here."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2)))


def _rel_err(values: np.ndarray, reference: np.ndarray) -> float:
    return _l2(values - reference) / _l2(reference)


def _bound_problems(label: str, f, g, m: float) -> list[str]:
    ratio = m * _l2(f.values) / _l2(g.values)
    return [] if ratio <= BASE_BOUND else [f"{label}: m|f|/|g| = {ratio:.6g} > {BASE_BOUND}"]


class Suites:
    """One operation is one pass over every shipped config via ``cli.main``."""

    name = "suites"
    tag = 1
    warmup_ops = 1

    def __init__(self, seed: int, root: Path, work_dir: Path):
        self.seed = seed
        self.configs = tuple(sorted((root / "configs").glob("*.cfg")))
        if not self.configs:
            raise FileNotFoundError(f"no configs under {root / 'configs'}")
        self.work_dir = work_dir
        self.reference: dict[str, dict[str, bytes]] | None = None

    def _out(self, path: Path) -> Path:
        return self.work_dir / path.stem

    def _clear(self) -> None:
        for path in self.configs:
            shutil.rmtree(self._out(path), ignore_errors=True)

    def _reports(self, path: Path) -> dict[str, bytes]:
        out = self._out(path)
        return {
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }

    def set_up(self) -> list[str]:
        """Set-up pass in file order; its reports are what later passes must match."""
        self._clear()
        codes = {name: step() for name, step in self.steps(self.configs)}
        problems = [f"{name}: exit code {rc}" for name, rc in codes.items() if rc != 0]
        reference = {path.stem: self._reports(path) for path in self.configs}
        if self.reference is not None and reference != self.reference:
            problems.append("reference pass reports differ between set-up rounds")
        self.reference = reference
        return problems

    def prepare(self, stream: int, i: int) -> tuple[Path, ...]:
        order = _rng(self.seed, self.tag, stream, i).permutation(len(self.configs))
        self._clear()
        return tuple(self.configs[j] for j in order)

    def _run_config(self, path: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(path), "--out", str(self._out(path))])

    def steps(self, order: tuple[Path, ...]):
        """One step per config, labelled by its name; each returns the exit code."""
        return [(path.stem, lambda path=path: self._run_config(path)) for path in order]

    def check(self, order, outputs) -> list[str]:
        problems = []
        for path, rc in zip(order, outputs):
            if rc != 0:
                problems.append(f"{path.stem}: exit code {rc}")
            elif self._reports(path) != self.reference[path.stem]:
                problems.append(f"{path.stem}: reports differ from the set-up pass")
        return problems


class SharedSweep:
    """Sample once on the default grid, solve on line 0 at 25 (lambda1, m) points."""

    name = "shared-sweep"
    tag = 2
    warmup_ops = 3
    # Tensor grid over [-delta/2, delta/2] per axis with delta = 0.2, as in
    # the perturbation sweep: every point lies in the L1 ball of radius 0.2.
    OFFSETS = np.linspace(-0.1, 0.1, 5)

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = loggrid.default_grid()
        self.points = tuple(
            (1.0 + float(dl), 1.0 + float(dm)) for dl in self.OFFSETS for dm in self.OFFSETS
        )

    def set_up(self) -> list[str]:
        return []

    def prepare(self, stream: int, i: int):
        return draw_terms(_rng(self.seed, self.tag, stream, i))

    def _run(self, terms):
        g = families.sample_terms(terms, self.grid)
        reports = [
            solver.solve_mellin(g, ModelRepParams(1, lam, m), lines=(0.0,)) for lam, m in self.points
        ]
        return g, reports

    def steps(self, terms):
        return [(self.name, lambda: self._run(terms))]

    def check(self, terms, outputs) -> list[str]:
        (g, reports), = outputs
        problems = []
        for (lam, m), report in zip(self.points, reports):
            label = f"lambda1={lam:.6g},m={m:.6g}"
            if not report.residual <= RESIDUAL_TOL:
                problems.append(f"{label}: residual {report.residual:.3e}")
            problems += _bound_problems(label, report.solution, g, m)
        return problems


class FreshGrid:
    """A new grid per operation; both solve routes against the closed form."""

    name = "fresh-grid"
    tag = 3
    warmup_ops = 5
    N_POINTS = 19200
    X_MIN = -12.0
    LINES = (0.0, -0.4, -0.8)
    T_LIST = (0.0, 0.5, 1.0)

    def __init__(self, seed: int):
        self.seed = seed

    def set_up(self) -> list[str]:
        return []

    def prepare(self, stream: int, i: int):
        rng = _rng(self.seed, self.tag, stream, i)
        terms = draw_terms(rng)
        m = float(rng.uniform(0.6, 1.4))
        lambda1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))
        x_max = float(rng.uniform(36.0, 48.0))
        return terms, m, lambda1, x_max

    def _run(self, inputs):
        terms, m, lambda1, x_max = inputs
        grid = loggrid.make_log_grid(self.N_POINTS, self.X_MIN, x_max)
        g = families.sample_terms(families.flow_rhs(terms, m), grid)
        report = solver.solve_mellin(
            g, ModelRepParams(1, lambda1, m), lines=self.LINES, t_list=self.T_LIST
        )
        oracle = solver.solve_semigroup(g, m)
        return g, report, oracle, solver.residual(oracle, g, m)

    def steps(self, inputs):
        return [(self.name, lambda: self._run(inputs))]

    def check(self, inputs, outputs) -> list[str]:
        terms, m, _, _ = inputs
        (g, report, oracle, oracle_residual), = outputs
        h = families.sample_terms(terms, g.grid).values
        problems = []
        for label, value, tol in (
            ("mellin vs closed form", _rel_err(report.solution.values, h), ORACLE_TOL),
            ("semigroup vs closed form", _rel_err(oracle.values, h), ORACLE_TOL),
            ("mellin residual", report.residual, RESIDUAL_TOL),
            ("semigroup residual", oracle_residual, RESIDUAL_TOL),
            ("coincidence", report.coincidence_defect, COINCIDENCE_TOL),
        ):
            if not value <= tol:
                problems.append(f"{label}: {value:.3e} > {tol:g}")
        return problems + _bound_problems("mellin", report.solution, g, m)


WORKLOADS = {cls.name: cls for cls in (Suites, SharedSweep, FreshGrid)}


def make_workload(name: str, seed: int, root: Path, work_dir: Path):
    if name == Suites.name:
        return Suites(seed, root, work_dir)
    return WORKLOADS[name](seed)
