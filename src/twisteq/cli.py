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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import families
from .cocycle import CocycleData, common_solution, cartan_reduce, reconstruct_g1
from .errors import ConfigError, MissingParams, TwisteqError
from .families import Terms, family_member, flow_rhs, make_terms, min_power, sample_terms, scale_terms
from .grid import DECAY_TOL, LogGrid, make_log_grid, relative_difference, weighted_norm
from .mellin import (
    derivative_rule_defect,
    line_energy,
    mellin_inverse_line,
    mellin_line,
    parseval_defect,
)
from .reps import ModelRepParams
from .solver import (
    DEFAULT_EPS_POLE,
    DEFAULT_OBSTRUCTION_TOL,
    divide_line,
    estimate_sweep,
    project_obstruction,
    residual,
    solve_mellin,
    solve_semigroup,
)


@dataclass
class ExperimentConfig:
    suite: str = "solve"
    n_points: int = 4096
    x_min: float = -12.0
    x_max: float = 12.0
    lambda1: float = 1.0
    m: float = 1.0
    s: float = 3.0
    t_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    lines: tuple[float, ...] = (0.0, -0.4, -0.8)
    family: str = "default"
    function: Terms | None = None
    decay_tol: float = DECAY_TOL
    obstruction_tol: float = DEFAULT_OBSTRUCTION_TOL
    eps_pole: float = DEFAULT_EPS_POLE
    out_dir: str = "reports"
    sweep_delta: float = 0.2
    sweep_steps: int = 5
    scan_x_max: tuple[float, ...] = (8.0, 12.0, 16.0)
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
        """The tol.* keys, as keyword arguments of the solver's solves."""
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


_KEYS = {
    "suite": ("suite", _parse_suite),
    "grid.n_points": ("n_points", int),
    "grid.x_min": ("x_min", float),
    "grid.x_max": ("x_max", float),
    "rep.lambda1": ("lambda1", float),
    "twist.m": ("m", float),
    "regularity.s": ("s", float),
    "t_grid": ("t_grid", _parse_floats),
    "lines": ("lines", _parse_floats),
    "family": ("family", str),
    "function": ("function", _parse_terms),
    "tol.decay": ("decay_tol", float),
    "tol.obstruction": ("obstruction_tol", float),
    "tol.eps_pole": ("eps_pole", float),
    "out.dir": ("out_dir", str),
    "sweep.delta": ("sweep_delta", float),
    "sweep.steps": ("sweep_steps", int),
    "scan.x_max": ("scan_x_max", _parse_floats),
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
    if cfg.n_points < 16:
        raise ConfigError(f"grid.n_points: must be >= 16, got {cfg.n_points}")
    for key, (attr, _) in _KEYS.items():
        value = getattr(cfg, attr)
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ConfigError(f"{key}: must be finite, got {value}")
    if not cfg.x_min < cfg.x_max:
        raise ConfigError("grid.x_min: must be below grid.x_max")
    for name, tol in (
        ("tol.decay", cfg.decay_tol),
        ("tol.obstruction", cfg.obstruction_tol),
        ("tol.eps_pole", cfg.eps_pole),
    ):
        if not tol > 0:
            raise ConfigError(f"{name}: must be positive, got {tol}")
    try:
        cfg.rep()  # twist and representation parameters
    except MissingParams as exc:
        raise ConfigError(f"rep: {exc}") from exc
    if cfg.suite == "perturbation-sweep":
        if cfg.sweep_delta < 0 or cfg.sweep_delta >= cfg.m / 2.0:
            raise ConfigError(
                f"sweep.delta: must satisfy 0 <= delta < m/2 = {cfg.m / 2.0}, "
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


def _error(exc: TwisteqError, params: str = "", function: str | None = None) -> Check:
    """The failing `error` row of a module error; its NaN value is no measurement."""
    return Check("error", params, float("nan"), None, flags=f"{type(exc).__name__}: {exc}",
                 function=function)


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
Case = tuple[str, Any]  # (function name, inputs of the case's checks)


def _mellin_cases(cfg: ExperimentConfig) -> list[Case]:
    grid = cfg.grid()
    return [(name, (grid, terms)) for name, terms in cfg.cases()]


def _mellin_checks(cfg: ExperimentConfig, name: str, case, plot: PlotData) -> list[Check]:
    grid, terms = case
    f = sample_terms(terms, grid)
    k = min_power(terms)
    shift = -min(k, 2) / 4.0
    checks = [Check("parseval_defect", "", parseval_defect(f), 1e-8)]
    for a in (0.0, shift):
        line = mellin_line(f, a)
        back = mellin_inverse_line(line, grid)
        err = relative_difference(back, f)
        checks.append(Check("roundtrip_rel_err", f"a={a:g}", err, 1e-8))
        checks.append(
            Check("derivative_rule_defect", f"a={a:g}", derivative_rule_defect(f, a), 1e-6)
        )
    b = 0.3
    fb = f.with_values(f.values * np.exp(b * grid.x))
    la = mellin_line(fb, shift).spectrum  # same grid: scale and phase cancel
    lb = mellin_line(f, shift - b).spectrum
    num = float(np.abs(la - lb).max())
    den = float(np.abs(lb).max())
    checks.append(
        Check("shift_law_rel_err", f"a={shift:g};b={b:g}", num / den if den > 0 else num, 1e-10)
    )
    return checks


def _solve_cases(cfg: ExperimentConfig) -> list[Case]:
    # Each member is solved raw (obstruction reported; solution decays only
    # like r^m, so the solve stays on Re z = 0) and, when its regularity
    # allows, also with the obstruction projected out and the full line set.
    grid = cfg.grid()
    p = cfg.rep()
    cases: list[Case] = []
    for name, terms in cfg.cases():
        cases.append((name, (grid, p, terms, False)))
        if min_power(terms) > cfg.m:
            cases.append((f"{name}-projected", (grid, p, terms, True)))
    return cases


def _solve_checks(cfg: ExperimentConfig, name: str, case, plot: PlotData) -> list[Check]:
    grid, p, terms, project = case
    params = f"m={cfg.m:g};lambda1={cfg.lambda1:g}"
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
        Check("obstruction_abs", params, abs(report.obstruction), None),
    ]
    for entry in report.weighted_norms:
        norm_params = params + f";t={entry.t:g};class={entry.bound_class}"
        norm_flags = "" if entry.admissible else "not-admissible"
        checks.append(Check("weighted_norm", norm_params, entry.value, None, flags=norm_flags))
    return checks


def _solve_finish(
    cfg: ExperimentConfig, cases: list[Case], rows: list[ReportRow], plot: PlotData
) -> list[Check]:
    # Line-energy profile of the divided transform for the first case.
    name, (grid, _, terms, _) = cases[0]
    try:
        g = sample_terms(terms, grid)
        a_grid = np.linspace(-cfg.m - 0.9, 0.0, 41)
        energies = [  # a = -m puts the pole on the line
            line_energy(divide_line(mellin_line(g, float(a)), cfg.m)) if a != -cfg.m else np.inf
            for a in a_grid
        ]
        plot[f"line_profile_{name}"] = (
            ("a", "divided_line_energy"),
            np.column_stack([a_grid, energies]),
        )
    except TwisteqError:
        pass
    return []


def _estimate_cases(cfg: ExperimentConfig) -> list[Case]:
    p = cfg.rep()
    grids = (cfg.grid(), make_log_grid(2 * cfg.n_points, cfg.x_min, cfg.x_max))
    return [(name, (p, grids, terms)) for name, terms in cfg.cases()]


def _estimate_checks(cfg: ExperimentConfig, name: str, case, plot: PlotData) -> list[Check]:
    p, grids, terms = case
    if cfg.lambda1 > 0 and min_power(terms) <= cfg.s * cfg.lambda1:
        sample_terms(terms, grids[0])  # a window that misses the data is an error, skipped or not
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


def _scan_cases(cfg: ExperimentConfig) -> list[Case]:
    terms = cfg.function if cfg.function is not None else family_member("r2_exp")
    return [("obstructed", (terms, False)), ("projected", (terms, True))]


def _scan_checks(cfg: ExperimentConfig, label: str, case, plot: PlotData) -> list[Check]:
    terms, project = case
    h_target = cfg.grid().h
    bump_terms = make_terms([(1.0, min_power(terms), 2.0)])
    p = cfg.rep()
    series = []
    for x_max in cfg.scan_x_max:
        n = int(round((x_max - cfg.x_min) / h_target)) + 1
        grid = make_log_grid(n, cfg.x_min, x_max)
        g = sample_terms(terms, grid)
        if project:
            g = project_obstruction(g, p, sample_terms(bump_terms, grid), decay_tol=cfg.decay_tol)
        report = solve_mellin(g, p, lines=(0.0,), **cfg.tolerances())
        series.append(weighted_norm(report.solution, cfg.m) ** 2)

    params_base = f"m={cfg.m:g};x_min={cfg.x_min:g}"
    checks = [
        Check("weighted_energy", params_base + f";x_max={x_max:g}", value, None)
        for x_max, value in zip(cfg.scan_x_max, series)
    ]
    for i in range(len(series) - 1):
        with np.errstate(divide="ignore", invalid="ignore"):  # an energy may underflow to 0
            growth = float(np.divide(series[i + 1], series[i]))
        params = params_base + f";step={cfg.scan_x_max[i]:g}->{cfg.scan_x_max[i+1]:g}"
        if project:
            checks.append(Check("energy_drift", params, abs(growth - 1.0), 0.01))
        else:
            checks.append(Check("energy_growth", params, growth, 1.2, ">="))
    return checks


def _scan_finish(
    cfg: ExperimentConfig, cases: list[Case], rows: list[ReportRow], plot: PlotData
) -> list[Check]:
    series = [
        [row.value for row in rows if row.function == label and row.quantity == "weighted_energy"]
        for label, _ in cases
    ]
    if all(len(values) == len(cfg.scan_x_max) for values in series):
        scan = np.column_stack([list(cfg.scan_x_max), *series])
        plot["weighted_energy_scan"] = (("x_max", "obstructed", "projected"), scan)
    return []


def _cocycle_cases(cfg: ExperimentConfig) -> list[Case]:
    """One constructed compatible dataset per known solution h: (h, v, m1)."""
    grid = cfg.grid()
    p = cfg.rep()
    return [
        ("h=r*exp(-r)", (grid, p, make_terms([(1.0, 1, 1.0)]), 1.0, 0.0)),
        ("h=r2*exp(-2r)", (grid, p, make_terms([(1.0, 2, 2.0)]), 2.0, 1.0)),
        ("h=mix", (grid, p, make_terms([(1.0, 1, 1.0), (0.5, 3, 2.0)]), -1.5, 0.5)),
    ]


def _cocycle_checks(cfg: ExperimentConfig, name: str, case, plot: PlotData) -> list[Check]:
    grid, p, h_terms, v, m1 = case
    params = f"m={cfg.m:g};v={v:g};m1={m1:g}"
    character = complex(m1, v)
    g1 = sample_terms(scale_terms(character, h_terms), grid)
    g2 = sample_terms(flow_rhs(h_terms, cfg.m), grid)
    data = CocycleData(g1, g2, v=v, m1=m1, p=p)
    report = common_solution(data, obstruction_tol=cfg.obstruction_tol, decay_tol=cfg.decay_tol)
    match = relative_difference(report.solution, sample_terms(h_terms, grid))
    flags = ";".join(report.flags)
    checks = [
        Check("compatibility_defect", params, report.compatibility_defect, 1e-7),
        Check("residual_flow", params, report.residual_flow, 1e-6, flags=flags),
        Check("residual_character", params, report.residual_character, 1e-6),
        Check("solution_match", params, match, 1e-6),
        Check("base_norm_ratio", params, report.base_norm_ratio, 1.0 + 1e-8),
    ]
    red = cartan_reduce(g1, g2, lam=2.0, phi_x=1.0, m=cfg.m, m1=m1)
    recon = reconstruct_g1(red)
    err = float(np.abs(recon.values - g1.values).max())
    scale = float(np.abs(g1.values).max())
    checks.append(Check("cartan_roundtrip", params, err / scale if scale else err, 1e-14))
    return checks


def _sweep_cases(cfg: ExperimentConfig) -> list[Case]:
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
    return [(f"({lam:g},{m:g})", (sampled, inputs, lam, m)) for lam, m in points]


def _sweep_checks(cfg: ExperimentConfig, name: str, case, plot: PlotData) -> list[Check]:
    sampled, inputs, lam, m = case
    params = f"m={m:.6g};lambda1={lam:.6g}"
    p = cfg.rep(m=m, lambda1=lam)
    checks = []
    for fun, terms in inputs:
        try:  # one input's module error must not hide the other inputs' rows
            report = solve_mellin(sampled(terms), p, lines=(0.0,), **cfg.tolerances())
        except TwisteqError as exc:
            checks.append(_error(exc, params, fun))
            continue
        ratio = report.base_norm_ratio
        checks += [
            Check("base_norm_ratio", params, ratio, 1.0 + 1e-8, function=fun),
            # ||f|| <= 2/m0 ||g||  <=>  m0 ||f|| / (2 ||g||) <= 1
            Check("uniform_bound_ratio", params, ratio * cfg.m / (2.0 * m), 1.0, function=fun),
            Check("residual_mellin", params, report.residual, 1e-6, function=fun),
        ]
    return checks


def _sweep_finish(
    cfg: ExperimentConfig, cases: list[Case], rows: list[ReportRow], plot: PlotData
) -> list[Check]:
    ratios = [row.value for row in rows if row.quantity == "base_norm_ratio"]
    if not ratios:
        return []
    spread = max(ratios) - min(ratios)
    return [Check("base_norm_ratio_spread", f"delta={cfg.sweep_delta:g}", spread, None)]


# suite -> (cases, checks of one case, finish or None); see run_suite.
_SUITES = {
    "mellin-identities": (_mellin_cases, _mellin_checks, None),
    "solve": (_solve_cases, _solve_checks, _solve_finish),
    "estimate-sweep": (_estimate_cases, _estimate_checks, None),
    "obstruction-scan": (_scan_cases, _scan_checks, _scan_finish),
    "cocycle": (_cocycle_cases, _cocycle_checks, None),
    "perturbation-sweep": (_sweep_cases, _sweep_checks, _sweep_finish),
}
SUITES = tuple(_SUITES)


def run_suite(cfg: ExperimentConfig) -> tuple[list[ReportRow], PlotData]:
    """Run every case of the configured suite.

    `cases(cfg)` lists (function name, inputs) pairs; `checks(cfg, name,
    inputs, plot)` measures one case and may add plot tables.  A module error
    inside a case becomes that case's single failing `error` row, and the
    other cases still run.  The optional `finish(cfg, cases, rows, plot)`
    sees every row; its checks are reported as one more case, "summary".
    """
    cases_of, checks_of, finish = _SUITES[cfg.suite]
    cases = cases_of(cfg)
    rows: list[ReportRow] = []
    plot: PlotData = {}
    for case_id, (name, case) in enumerate(cases):
        try:
            checks = checks_of(cfg, name, case, plot)
        except TwisteqError as exc:
            rows.append(_row(cfg, case_id, name, _error(exc)))
            continue
        rows.extend(_row(cfg, case_id, name, check) for check in checks)
    if finish is not None:
        checks = finish(cfg, cases, rows, plot)
        rows.extend(_row(cfg, len(cases), "summary", check) for check in checks)
    return rows, plot


def _format_value(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def write_reports(
    rows: list[ReportRow], plot: PlotData, cfg: ExperimentConfig, out_dir: Path
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = [vars(row) for row in rows]  # asdict would deep-copy every row
    with (out_dir / f"{cfg.suite}.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(handle, [f.name for f in fields(ReportRow)], lineterminator="\n")
        writer.writeheader()
        for record in records:
            cells = {key: _format_value(record[key]) for key in ("value", "bound")}
            writer.writerow(record | cells | {"passed": "pass" if record["passed"] else "fail"})

    def _jsonable(value: float | None) -> float | None:
        if value is None or not np.isfinite(value):
            return None
        return value

    payload = {
        "suite": cfg.suite,
        "grid": {"n_points": cfg.n_points, "x_min": cfg.x_min, "x_max": cfg.x_max},
        "rows": [
            record | {key: _jsonable(record[key]) for key in ("value", "bound")} for record in records
        ],
    }
    (out_dir / f"{cfg.suite}.json").write_text(json.dumps(payload, indent=2) + "\n")
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
