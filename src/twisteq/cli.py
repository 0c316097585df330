"""Configuration-driven experiment runner.

Reads a flat key-value config, executes one verification suite, and writes a
CSV report (fixed column order), a JSON mirror, and columnar plot data.
Everything is deterministic: identical configs produce byte-identical
reports.

Exit codes: 0 all rows pass, 1 row failures, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import families
from .cocycle import CocycleData, common_solution
from .errors import ConfigError, InvalidGrid, MissingParams, TwisteqError
from .families import Terms, family_member, flow_rhs, make_terms, min_power, sample_terms, scale_terms
from .grid import (
    DECAY_TOL, HalfLineFunction, LogGrid, make_log_grid, relative_difference, weighted_norm,
)
from .mellin import (
    derivative_rule_defect,
    line_energy,
    mellin_inverse_line,
    mellin_line,
    parseval_defect,
    shift_law_defect,
)
from .reps import ModelRepParams
from .solver import (
    DEFAULT_EPS_POLE,
    DEFAULT_OBSTRUCTION_TOL,
    divide_line,
    estimate_sweep,
    magnitude,
    project_obstruction,
    residual,
    solve_mellin,
    solve_semigroup,
)


def _parse_floats(text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    return tuple(float(part) for part in text.replace(";", ",").split(","))


def _parse_suite(text: str) -> str:
    if text not in SUITES:
        raise ValueError(f"must be one of {', '.join(SUITES)}")
    return text


def _parse_terms(text: str) -> Terms | None:
    if not text.strip():
        return None
    triples = []
    for chunk in text.split(";"):
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError("each term needs coefficient,power,rate")
        coef, rate = complex(parts[0]), float(parts[2])
        if not (cmath.isfinite(coef) and math.isfinite(rate)):
            raise ValueError("coefficient and rate must be finite")
        triples.append((coef, int(parts[1]), rate))
    terms = make_terms(triples)
    min_power(terms)  # rejects all-zero coefficients
    return terms


def _key(key: str, parse: Callable[[str], Any], default: Any) -> Any:
    """A field set by the config key `key`, whose text `parse` reads."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class ExperimentConfig:
    suite: str = _key("suite", _parse_suite, "solve")
    n_points: int = _key("grid.n_points", int, 4096)
    x_min: float = _key("grid.x_min", float, -12.0)
    x_max: float = _key("grid.x_max", float, 12.0)
    lambda1: float = _key("rep.lambda1", float, 1.0)
    m: float = _key("twist.m", float, 1.0)
    s: float = _key("regularity.s", float, 3.0)
    t_grid: tuple[float, ...] = _key("t_grid", _parse_floats, (0.0, 0.5, 1.0, 2.0))
    lines: tuple[float, ...] = _key("lines", _parse_floats, (0.0, -0.4, -0.8))
    family: str = _key("family", str, "default")
    function: Terms | None = _key("function", _parse_terms, None)
    decay_tol: float = _key("tol.decay", float, DECAY_TOL)
    obstruction_tol: float = _key("tol.obstruction", float, DEFAULT_OBSTRUCTION_TOL)
    eps_pole: float = _key("tol.eps_pole", float, DEFAULT_EPS_POLE)
    out_dir: str = _key("out.dir", str, "reports")
    sweep_delta: float = _key("sweep.delta", float, 0.2)
    sweep_steps: int = _key("sweep.steps", int, 5)
    scan_x_max: tuple[float, ...] = _key("scan.x_max", _parse_floats, (8.0, 12.0, 16.0))
    strict: bool = False  # set by --strict

    def grid(self) -> LogGrid:
        return make_log_grid(self.n_points, self.x_min, self.x_max)

    def rep(self, m: float | None = None, lambda1: float | None = None) -> ModelRepParams:
        return ModelRepParams(
            sigma=1,
            lambda1=self.lambda1 if lambda1 is None else lambda1,
            m=self.m if m is None else m,
        )

    def tolerances(self) -> dict[str, float]:
        """The tol.* keys, as keyword arguments of every solve and common solution."""
        return {
            "eps_pole": self.eps_pole,
            "obstruction_tol": self.obstruction_tol,
            "decay_tol": self.decay_tol,
        }

    def cases(self) -> tuple[tuple[str, Terms], ...]:
        """Input functions: the published family, an inline function, or both."""
        cases: list[tuple[str, Terms]] = []
        if self.family == "default":
            cases.extend(families.FAMILY)
        elif self.family != "none":
            raise ConfigError(f"family: expected 'default' or 'none', got {self.family!r}")
        if self.function is not None:
            cases.append(("inline", self.function))
        if not cases:
            raise ConfigError("no inputs: family = none and no function given")
        return tuple(cases)


# config key -> (field, parser), in the order the fields are declared
_KEYS = {
    f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(ExperimentConfig) if f.metadata
}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read a flat `key = value` file with # comments into a config."""
    cfg = ExperimentConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        try:
            setattr(cfg, attr, parser(value))
        except (ValueError, TwisteqError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    for key, (attr, _) in _KEYS.items():
        value = getattr(cfg, attr)
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ConfigError(f"{key}: must be finite, got {value}")
        if key.startswith("tol.") and not value > 0:
            raise ConfigError(f"{key}: must be positive, got {value}")
    try:
        cfg.grid()
        cfg.rep()  # twist and representation parameters
    except InvalidGrid as exc:
        raise ConfigError(f"grid: {exc}") from exc
    except MissingParams as exc:
        raise ConfigError(f"rep: {exc}") from exc
    if cfg.suite == "perturbation-sweep":
        if cfg.sweep_delta < 0 or cfg.sweep_delta >= cfg.m / 2.0:
            raise ConfigError(
                f"sweep.delta: must satisfy 0 <= delta < m/2 = {cfg.m / 2.0}, "
                f"got {cfg.sweep_delta}"
            )
        # the sweep's lambda1 axis spans lambda1 +- delta/2 and must miss 0
        if cfg.sweep_delta >= 2.0 * abs(cfg.lambda1):
            raise ConfigError(
                f"sweep.delta: must satisfy delta < 2|lambda1| = {2.0 * abs(cfg.lambda1)}, "
                f"got {cfg.sweep_delta}"
            )
        if cfg.sweep_steps < 1:
            raise ConfigError("sweep.steps: must be >= 1")
    # A suite whose rows carry no bound would pass while measuring nothing.
    if cfg.suite == "estimate-sweep" and not cfg.t_grid:
        raise ConfigError("t_grid: estimate-sweep needs at least one weight t")
    if cfg.suite == "obstruction-scan" and len(cfg.scan_x_max) < 2:
        raise ConfigError("scan.x_max: obstruction-scan needs at least two windows")


@dataclass
class ReportRow:
    suite: str
    case_id: int
    function: str
    quantity: str
    params: str
    value: float
    bound: float | None
    direction: str  # "<=" or ">="
    passed: bool
    flags: str = ""


class Check(NamedTuple):
    """One measured quantity of a case; run_suite adds suite, case and function."""

    quantity: str
    params: str
    value: float
    bound: float | None
    direction: str = "<="
    flags: str = ""
    function: str | None = None  # names the input when a case covers several


def _measure(fn: Callable[..., Any], *args, params: str = "", function: str | None = None) -> Any:
    """fn(*args), or [the failing `error` Check] when fn raises a module error;
    the Check names the error, and its NaN value is no measurement."""
    try:
        return fn(*args)
    except TwisteqError as exc:
        flags = f"{type(exc).__name__}: {exc}"
        return [Check("error", params, float("nan"), None, flags=flags, function=function)]


def _row(cfg: ExperimentConfig, case_id: int, function: str, check: Check) -> ReportRow:
    value = float(check.value)
    flags = check.flags
    if check.quantity == "error":
        passed = False
    else:
        if not math.isfinite(value):
            flags = f"{flags};non-finite" if flags else "non-finite"
        if check.bound is None:
            passed = True
        elif check.direction == "<=":
            passed = value <= check.bound
        else:
            passed = value >= check.bound
    return ReportRow(
        cfg.suite, case_id, check.function or function, check.quantity, check.params,
        value, check.bound, check.direction, passed and not (cfg.strict and flags), flags,
    )


PlotData = dict[str, tuple[tuple[str, ...], np.ndarray]]
Cases = list[tuple[str, list[Check]]]  # (function name, checks) per case, in report order


def _mellin_suite(cfg: ExperimentConfig, plot: PlotData) -> Cases:
    grid = cfg.grid()

    def roundtrip(f: HalfLineFunction, a: float) -> list[Check]:
        err = relative_difference(mellin_inverse_line(mellin_line(f, a), grid), f)
        return [Check("roundtrip_rel_err", f"a={a:g}", err, 1e-8)]

    def derivative_rule(f: HalfLineFunction, a: float) -> list[Check]:
        defect = derivative_rule_defect(f, a, cfg.decay_tol)
        return [Check("derivative_rule_defect", f"a={a:g}", defect, 1e-6)]

    def shift_law(f: HalfLineFunction, a: float, b: float) -> list[Check]:
        return [Check("shift_law_rel_err", f"a={a:g};b={b:g}", shift_law_defect(f, a, b), 1e-10)]

    def identities(terms: Terms) -> list[Check]:
        f = sample_terms(terms, grid)
        k = min_power(terms)
        shift = -min(k, 2) / 4.0
        checks = [Check("parseval_defect", "", parseval_defect(f), 1e-8)]
        # a line refused by its weight or decay gate hides none of the other rows
        for a in (0.0, shift):
            checks += _measure(roundtrip, f, a, params=f"a={a:g}")
            checks += _measure(derivative_rule, f, a, params=f"a={a:g}")
        b = 0.3
        checks += _measure(shift_law, f, shift, b, params=f"a={shift:g};b={b:g}")
        return checks

    return [(name, _measure(identities, terms)) for name, terms in cfg.cases()]


def _solve_suite(cfg: ExperimentConfig, plot: PlotData) -> Cases:
    grid = cfg.grid()
    p = cfg.rep()
    params = f"m={cfg.m:g};lambda1={cfg.lambda1:g}"

    def solve(terms: Terms, project: bool) -> list[Check]:
        g = sample_terms(terms, grid)
        lines = (0.0,)
        if project:
            # The bump is a pure r^k e^{-2r} term with k above both the data's
            # leading power and the twist depth, so it is independent of the
            # input and carries a nonzero obstruction.
            bump_k = max(min_power(terms) + 1, int(np.ceil(p.m)) + 1)
            bump = sample_terms(make_terms([(1.0, bump_k, 2.0)]), grid)
            g = project_obstruction(g, p, bump, decay_tol=cfg.decay_tol)
            lines = cfg.lines
        report = solve_mellin(g, p, s=cfg.s, lines=lines, t_list=cfg.t_grid, **cfg.tolerances())
        oracle = solve_semigroup(g, cfg.m)
        agreement = relative_difference(report.solution, oracle)
        flags = ";".join(report.flags)
        checks = [
            Check("residual_mellin", params, report.residual, 1e-6, flags=flags),
            Check("residual_semigroup", params, residual(oracle, g, cfg.m), 1e-6),
            Check("oracle_agreement", params, agreement, 1e-6),
            Check("base_norm_ratio", params, report.base_norm_ratio, 1.0 + 1e-8),
            Check("coincidence_defect", params, report.coincidence_defect, 1e-6),
            Check("obstruction_abs", params, magnitude(report.obstruction), None),
        ]
        for entry in report.weighted_norms:
            norm_params = params + f";t={entry.t:g};class={entry.bound_class}"
            norm_flags = "" if entry.admissible else "not-admissible"
            checks.append(Check("weighted_norm", norm_params, entry.value, None, flags=norm_flags))
        return checks

    def line_profile(name: str, terms: Terms) -> None:
        # on a grid of its own, which frees the weight each line reads
        g = sample_terms(terms, cfg.grid())
        a_grid = np.linspace(-cfg.m - 0.9, 0.0, 41)
        energies = [  # a = -m puts the pole on the line
            line_energy(divide_line(mellin_line(g, float(a)), cfg.m)) if a != -cfg.m else np.inf
            for a in a_grid
        ]
        table = np.column_stack([a_grid, energies])
        plot[f"line_profile_{name}"] = (("a", "divided_line_energy"), table)

    # Each member is solved raw (obstruction reported; solution decays only
    # like r^m, so the solve stays on Re z = 0) and, when its regularity
    # allows, also with the obstruction projected out and the full line set.
    cases = []
    for name, terms in cfg.cases():
        cases.append((name, _measure(solve, terms, False)))
        if min_power(terms) > cfg.m:
            cases.append((f"{name}-projected", _measure(solve, terms, True)))
    # Line-energy profile of the divided transform for the first input; an
    # input that fails has none, and its case reports the error.
    _measure(line_profile, *cfg.cases()[0])
    return cases


def _estimate_suite(cfg: ExperimentConfig, plot: PlotData) -> Cases:
    p = cfg.rep()
    grids = (cfg.grid(), make_log_grid(2 * cfg.n_points, cfg.x_min, cfg.x_max))

    def estimate(name: str, terms: Terms) -> list[Check]:
        if cfg.lambda1 > 0 and min_power(terms) <= cfg.s * cfg.lambda1:
            # a window that misses the data is an error, skipped or not
            sample_terms(terms, grids[0])
            flags = f"regularity below s={cfg.s:g} for lambda1={cfg.lambda1:g}"
            return [Check("skipped", f"s={cfg.s:g}", 0.0, None, flags=flags)]
        curves = []
        for grid in grids:
            g = sample_terms(terms, grid)
            curves.append(estimate_sweep(g, p, cfg.s, cfg.t_grid, **cfg.tolerances()))
        checks = []
        for entry, refined in zip(*curves):
            params = f"m={cfg.m:g};lambda1={cfg.lambda1:g};t={entry.t:g};class={entry.bound_class}"
            flags = "" if entry.admissible else "not-admissible"
            checks.append(Check("estimate_ratio", params, entry.ratio, None, flags=flags))
            pair = (entry.ratio, refined.ratio)
            spread = max(pair) / min(pair) if min(pair) > 0 else float("inf")
            checks.append(Check("ratio_refinement_spread", params, spread, 2.0))
        table = np.column_stack(
            [[e.t for e in curves[0]], [e.lhs for e in curves[0]], [e.ratio for e in curves[0]]]
        )
        plot[f"estimate_curve_{name}"] = (("t", "weighted_norm", "ratio"), table)
        return checks

    return [(name, _measure(estimate, name, terms)) for name, terms in cfg.cases()]


def _scan_suite(cfg: ExperimentConfig, plot: PlotData) -> Cases:
    terms = cfg.function if cfg.function is not None else family_member("r2_exp")
    h_target = cfg.grid().h
    bump_terms = make_terms([(1.0, min_power(terms), 2.0)])
    p = cfg.rep()
    params_base = f"m={cfg.m:g};x_min={cfg.x_min:g}"
    series = []  # each case's energies, once it has measured them all

    def scan(project: bool) -> list[Check]:
        energies = []
        for x_max in cfg.scan_x_max:
            n = int(round((x_max - cfg.x_min) / h_target)) + 1
            grid = make_log_grid(n, cfg.x_min, x_max)
            g = sample_terms(terms, grid)
            if project:
                bump = sample_terms(bump_terms, grid)
                g = project_obstruction(g, p, bump, decay_tol=cfg.decay_tol)
            report = solve_mellin(g, p, lines=(0.0,), **cfg.tolerances())
            energies.append(weighted_norm(report.solution, cfg.m) ** 2)
        series.append(energies)
        checks = [
            Check("weighted_energy", params_base + f";x_max={x_max:g}", value, None)
            for x_max, value in zip(cfg.scan_x_max, energies)
        ]
        for i in range(len(energies) - 1):
            with np.errstate(divide="ignore", invalid="ignore"):  # an energy may underflow to 0
                growth = float(np.divide(energies[i + 1], energies[i]))
            params = params_base + f";step={cfg.scan_x_max[i]:g}->{cfg.scan_x_max[i+1]:g}"
            if project:
                checks.append(Check("energy_drift", params, abs(growth - 1.0), 0.01))
            else:
                checks.append(Check("energy_growth", params, growth, 1.2, ">="))
        return checks

    cases = [
        (label, _measure(scan, project))
        for label, project in (("obstructed", False), ("projected", True))
    ]
    if len(series) == len(cases):
        scan_table = np.column_stack([list(cfg.scan_x_max), *series])
        plot["weighted_energy_scan"] = (("x_max", "obstructed", "projected"), scan_table)
    return cases


def _cocycle_suite(cfg: ExperimentConfig, plot: PlotData) -> Cases:
    grid = cfg.grid()
    p = cfg.rep()

    def common(h_terms: Terms, v: float, m1: float) -> list[Check]:
        params = f"m={cfg.m:g};v={v:g};m1={m1:g}"
        character = complex(m1, v)
        g1 = sample_terms(scale_terms(character, h_terms), grid)
        g2 = sample_terms(flow_rhs(h_terms, cfg.m), grid)
        data = CocycleData(g1, g2, v=v, m1=m1, p=p)
        report = common_solution(data, **cfg.tolerances())
        match = relative_difference(report.solution, sample_terms(h_terms, grid))
        flags = ";".join(report.flags)
        return [
            Check("compatibility_defect", params, report.compatibility_defect, 1e-7),
            Check("residual_flow", params, report.residual_flow, 1e-6, flags=flags),
            Check("residual_character", params, report.residual_character, 1e-6),
            Check("solution_match", params, match, 1e-6),
            Check("base_norm_ratio", params, report.base_norm_ratio, 1.0 + 1e-8),
        ]

    # One constructed compatible dataset per known solution h: (h, v, m1).
    datasets = (
        ("h=r*exp(-r)", make_terms([(1.0, 1, 1.0)]), 1.0, 0.0),
        ("h=r2*exp(-2r)", make_terms([(1.0, 2, 2.0)]), 2.0, 1.0),
        ("h=mix", make_terms([(1.0, 1, 1.0), (0.5, 3, 2.0)]), -1.5, 0.5),
    )
    return [(name, _measure(common, h_terms, v, m1)) for name, h_terms, v, m1 in datasets]


def _sweep_suite(cfg: ExperimentConfig, plot: PlotData) -> Cases:
    grid = cfg.grid()
    inputs = cfg.cases()
    steps = cfg.sweep_steps
    # Tensor grid over [-delta/2, delta/2] per axis keeps every point inside
    # the L1 ball |d lambda| + |d m| <= delta.
    offsets = (
        np.linspace(-cfg.sweep_delta / 2.0, cfg.sweep_delta / 2.0, steps)
        if steps > 1
        else np.array([0.0])
    )
    points = [(cfg.lambda1 + dl, cfg.m + dm) for dl in offsets for dm in offsets]
    # Each input is sampled on its first use and shared by every point, so its
    # line-0 spectrum is transformed once per run.  A failed sampling is not
    # held: it raises again, and becomes an error row, in every case.
    sampled = functools.cache(functools.partial(sample_terms, grid=grid))
    ratios = []  # every base_norm_ratio measured

    def solve(fun: str, terms: Terms, p: ModelRepParams, params: str) -> list[Check]:
        report = solve_mellin(sampled(terms), p, lines=(0.0,), **cfg.tolerances())
        ratio = report.base_norm_ratio
        ratios.append(ratio)
        return [
            Check("base_norm_ratio", params, ratio, 1.0 + 1e-8, function=fun),
            # ||f|| <= 2/m0 ||g||  <=>  m0 ||f|| / (2 ||g||) <= 1
            Check("uniform_bound_ratio", params, ratio * cfg.m / (2.0 * p.m), 1.0, function=fun),
            Check("residual_mellin", params, report.residual, 1e-6, function=fun),
        ]

    def point(lam: float, m: float) -> list[Check]:
        params = f"m={m:.6g};lambda1={lam:.6g}"
        p = cfg.rep(m=m, lambda1=lam)
        checks = []
        # one input's module error must not hide the other inputs' rows
        for fun, terms in inputs:
            checks += _measure(solve, fun, terms, p, params, params=params, function=fun)
        return checks

    cases = [(f"({lam:g},{m:g})", _measure(point, lam, m)) for lam, m in points]
    if ratios:
        spread = max(ratios) - min(ratios)
        summary = Check("base_norm_ratio_spread", f"delta={cfg.sweep_delta:g}", spread, None)
        cases.append(("summary", [summary]))
    return cases


# suite -> its function, which measures every case and may add plot tables
_SUITES = {
    "mellin-identities": _mellin_suite,
    "solve": _solve_suite,
    "estimate-sweep": _estimate_suite,
    "obstruction-scan": _scan_suite,
    "cocycle": _cocycle_suite,
    "perturbation-sweep": _sweep_suite,
}
SUITES = tuple(_SUITES)


def run_suite(cfg: ExperimentConfig) -> tuple[list[ReportRow], PlotData]:
    """Run the configured suite and number its cases in report order.

    A module error inside a case, or inside one input or line of it, becomes
    a failing `error` row through `_measure`, and the rest still runs.
    """
    plot: PlotData = {}
    rows = [
        _row(cfg, case_id, name, check)
        for case_id, (name, checks) in enumerate(_SUITES[cfg.suite](cfg, plot))
        for check in checks
    ]
    return rows, plot


def _format_value(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _jsonable(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return value


# A row of the payload sits at indent level 2 of json.dumps(payload,
# indent=2): its items one per line, 6 spaces in, its braces 4 spaces in.
# Encoding the flat row without indent (the C encoder) with this item
# separator gives the same text between the braces.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_row(row: ReportRow) -> str:
    # vars, as asdict would deep-copy the row
    record = vars(row) | {"value": _jsonable(row.value), "bound": _jsonable(row.bound)}
    return "{\n      " + _ROW_ENCODER.encode(record)[1:-1] + "\n    }"


def write_reports(
    rows: list[ReportRow], plot: PlotData, cfg: ExperimentConfig, out_dir: Path
) -> None:
    """Write <suite>.csv, <suite>.json and the plot tables; the CSV equals
    csv.DictWriter's and the JSON json.dumps(payload, indent=2)'s, byte for
    byte."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / f"{cfg.suite}.csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f.name for f in fields(ReportRow)])
        writer.writerows(
            (
                r.suite, r.case_id, r.function, r.quantity, r.params, _format_value(r.value),
                _format_value(r.bound), r.direction, "pass" if r.passed else "fail", r.flags,
            )
            for r in rows
        )

    head = json.dumps(
        {
            "suite": cfg.suite,
            "grid": {"n_points": cfg.n_points, "x_min": cfg.x_min, "x_max": cfg.x_max},
            "rows": [],
        },
        indent=2,
    ).removesuffix("[]\n}")
    body = ",\n    ".join(map(_json_row, rows))
    rows_text = f"[\n    {body}\n  ]" if rows else "[]"
    (out_dir / f"{cfg.suite}.json").write_text(head + rows_text + "\n}\n")
    if plot:
        plot_dir = out_dir / "plots"
        plot_dir.mkdir(exist_ok=True)
        for name, (header, table) in plot.items():
            path = plot_dir / f"{cfg.suite}_{name}.tsv"
            with path.open("w") as handle:
                handle.write("# " + "\t".join(header) + "\n")
                for row in np.atleast_2d(table):
                    handle.write("\t".join(f"{v:.12g}" for v in row) + "\n")


def run(cfg: ExperimentConfig) -> int:
    rows, plot = run_suite(cfg)
    write_reports(rows, plot, cfg, Path(cfg.out_dir))
    failed = [row for row in rows if not row.passed]
    total = len(rows)
    print(f"{cfg.suite}: {total - len(failed)}/{total} rows pass")
    for row in failed:
        print(
            f"  FAIL {row.function} {row.quantity} {row.params} "
            f"value={_format_value(row.value)} bound={row.direction}{_format_value(row.bound)} "
            f"{row.flags}"
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twisteq",
        description="Verification suites for the twisted-equation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the suite described by a config file")
    runp.add_argument("config", help="path to a flat key=value config file")
    runp.add_argument("--out", help="override the output directory")
    runp.add_argument(
        "--strict", action="store_true", help="treat flagged (warned) rows as failures"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out:
            cfg.out_dir = args.out
        cfg.strict = args.strict
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
