import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from twisteq import cli, solver
from twisteq.cli import _KEYS, main, parse_config
from twisteq.errors import ConfigError
from twisteq.families import make_terms
from twisteq.grid import LogGrid

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
SHIPPED = sorted(path.stem for path in CONFIG_DIR.glob("*.cfg"))
REMOVED_KEYS = [
    ("rep.sigma", "1"), ("rep.lambda2", "0.5"), ("rep.s0", "1.5"),
    ("cocycle.v", "1.0"), ("cocycle.m1", "0.0"), ("strict", "true"),
]


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def read_rows(out_dir: Path, suite: str) -> list[dict]:
    with (out_dir / f"{suite}.csv").open() as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Runs a shipped config at most once per module; gives (exit code, out dir)."""
    out = tmp_path_factory.mktemp("shipped")
    results = {}

    def run(stem: str) -> tuple[int, Path]:
        if stem not in results:
            args = ["run", str(CONFIG_DIR / f"{stem}.cfg"), "--out", str(out / stem)]
            results[stem] = (main(args), out / stem)
        return results[stem]

    return run


class TestConfigParsing:
    def test_defaults_round_trip(self, tmp_path):
        cfg = parse_config(write(tmp_path, "suite = solve\n"))
        assert cfg.suite == "solve"
        assert cfg.n_points == 4096

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.npoints"):
            parse_config(write(tmp_path, "grid.npoints = 12\n"))

    def test_bad_value_named(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.n_points"):
            parse_config(write(tmp_path, "grid.n_points = twelve\n"))

    def test_negative_points_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="n_points"):
            parse_config(write(tmp_path, "grid.n_points = -4\n"))

    def test_inline_function_terms(self, tmp_path):
        cfg = parse_config(write(tmp_path, "function = 1,2,1 ; -2,2,2\nfamily = none\n"))
        assert len(cfg.function) == 2
        assert cfg.function[1].coef == -2

    def test_nonpositive_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="function"):
            parse_config(write(tmp_path, "function = 1,2,-1\n"))

    def test_comments_and_blanks(self, tmp_path):
        cfg = parse_config(write(tmp_path, "# a comment\n\nsuite = cocycle  # trailing\n"))
        assert cfg.suite == "cocycle"

    def test_readme_lists_every_key(self):
        # the first cell of each row of the README's key table names its keys
        readme = (ROOT / "README.md").read_text()
        keys = {
            key
            for line in readme.splitlines()
            if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])
        }
        assert keys == set(_KEYS)

    def test_sweep_delta_too_large(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep.delta"):
            parse_config(
                write(tmp_path, "suite = perturbation-sweep\ntwist.m = 1\nsweep.delta = 0.6\n")
            )


class TestMainExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "grid.n_points = -4\n")
        assert main(["run", str(path)]) == 2
        assert "n_points" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_small_solve_passes(self, tmp_path):
        path = write(
            tmp_path,
            "suite = solve\n"
            "grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n"
            "family = none\nfunction = 1,2,1\n"
            "lines = 0, -0.5\nt_grid = 0, 0.5\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out", "solve")
        assert all(row["passed"] == "pass" for row in rows)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("suite = solve\nfunction = 0,2,1\n", "all coefficients vanish"),
            ("suite = estimate-sweep\nfunction = 0,2,1\n", "all coefficients vanish"),
            ("grid.x_min = -inf\n", "must be finite"),
            ("rep.lambda1 = nan\n", "rep.lambda1: must be finite"),
            ("twist.m = inf\n", "twist.m: must be finite"),
            ("regularity.s = nan\n", "regularity.s: must be finite"),
            ("tol.eps_pole = inf\n", "tol.eps_pole: must be finite"),
            ("tol.decay = nan\n", "tol.decay: must be finite"),
            ("suite = perturbation-sweep\nsweep.delta = nan\n", "sweep.delta: must be finite"),
            # the lambda1 axis lambda1 +- delta/2 would reach 0
            ("suite = perturbation-sweep\nrep.lambda1 = 0.1\nsweep.delta = 0.2\n", "sweep.delta"),
            ("grid.x_min = 5\ngrid.x_max = 5\n", "grid: x_min < x_max required"),
            ("lines = 0, nan\n", "lines: must be finite"),
            ("t_grid = 0, inf\n", "t_grid: must be finite"),
            ("suite = obstruction-scan\nscan.x_max = 8, inf\n", "scan.x_max: must be finite"),
            ("function = nan,2,1\n", "coefficient and rate must be finite"),
            ("function = 1,2,inf\n", "coefficient and rate must be finite"),
            ("suite = estimate-sweep\nt_grid =\n", "estimate-sweep needs at least one"),
            ("suite = obstruction-scan\nscan.x_max =\n", "obstruction-scan needs at least two"),
            ("suite = obstruction-scan\nscan.x_max = 12\n", "obstruction-scan needs at least two"),
            # keys that changed no report, or set a value --strict sets
            *[(f"{key} = {value}\n", f"unknown key {key!r}") for key, value in REMOVED_KEYS],
        ],
        ids=["solve-vanishing-function", "estimate-vanishing-function", "infinite-x-min",
             "nan-lambda1", "infinite-m", "nan-s",
             "infinite-eps-pole", "nan-decay-tol", "nan-sweep-delta",
             "sweep-reaches-lambda1-0", "empty-window",
             "nan-line", "infinite-t", "infinite-scan-x-max", "nan-coefficient",
             "infinite-rate", "empty-t-grid", "empty-scan", "single-window-scan",
             *[f"unknown-key-{key}" for key, _ in REMOVED_KEYS]],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, monkeypatch, text, message):
        # rejected while parsing, before any suite runs: no traceback
        monkeypatch.chdir(tmp_path)  # a run that slips through writes here
        assert main(["run", str(write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_window_where_r_overflows_is_sampled(self, tmp_path, suite):
        # r = e^800 is +Inf at the left end, where every term is 0: the window
        # gives the verdicts of [-709, 12], and no NonFiniteSample
        function = "" if suite == "cocycle" else "function = 1,2,1\n"
        verdicts = {}
        for x_min in (-709, -800):
            out = tmp_path / str(x_min)
            path = write(
                tmp_path,
                f"suite = {suite}\ngrid.n_points = 8192\ngrid.x_min = {x_min}\n"
                f"grid.x_max = 12\n{function}out.dir = {out}\n",
            )
            code = main(["run", str(path)])
            rows = read_rows(out, suite)
            assert not any("NonFiniteSample" in r["flags"] for r in rows)
            errors = [r["flags"].partition(":")[0] for r in rows if r["quantity"] == "error"]
            verdicts[x_min] = code, [(r["case_id"], r["quantity"], r["passed"]) for r in rows], errors
        assert verdicts[-800] == verdicts[-709]

    @pytest.mark.parametrize(
        "text, code",
        [
            ("grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n", 0),
            # too coarse for the semigroup oracle: its residual fails
            ("grid.n_points = 1024\n", 1),
            ("rep.lambda1 = nan\n", 2),
        ],
        ids=["pass", "row-failure", "config-error"],
    )
    def test_module_entry_point(self, tmp_path, text, code):
        # `python -m twisteq` in a fresh interpreter, as a plain checkout runs it
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        solve = "suite = solve\nfamily = none\nfunction = 1,2,1\nlines = 0\nt_grid = 0\n"
        path = write(tmp_path, solve + text + f"out.dir = {tmp_path / 'out'}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "twisteq", "run", str(path)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve_suite")
    path = tmp / "exp.cfg"
    path.write_text(
        "suite = solve\n"
        "grid.n_points = 4096\ngrid.x_min = -12\ngrid.x_max = 20\n"
        "family = none\nfunction = 1,2,1\n"  # r^2 e^-r: the obstructed case
        "lines = 0, -0.5\nt_grid = 0, 1\n"
        f"out.dir = {tmp / 'out'}\n"
    )
    code = main(["run", str(path)])
    return code, tmp / "out", path


class TestSolveSuiteReport:

    def test_exit_zero(self, run_dir):
        assert run_dir[0] == 0

    def test_obstruction_value_reported(self, run_dir):
        rows = read_rows(run_dir[1], "solve")
        obs = {r["function"]: float(r["value"]) for r in rows if r["quantity"] == "obstruction_abs"}
        assert obs["inline"] == pytest.approx(0.3989422804014327, rel=1e-6)
        assert obs["inline-projected"] <= 1e-12

    def test_weighted_norm_flagged(self, run_dir):
        rows = read_rows(run_dir[1], "solve")
        flagged = [
            r
            for r in rows
            if r["quantity"] == "weighted_norm" and "t=1" in r["params"] and r["function"] == "inline"
        ]
        assert flagged and flagged[0]["flags"] == "not-admissible"

    def test_strict_turns_flags_into_failures(self, run_dir, tmp_path):
        _, _, cfg_path = run_dir
        out = tmp_path / "strict_out"
        code = main(["run", str(cfg_path), "--strict", "--out", str(out)])
        assert code == 1
        rows = read_rows(out, "solve")
        assert any(row["passed"] == "fail" and row["flags"] for row in rows)

    def test_plot_data_written(self, run_dir):
        plots = list((run_dir[1] / "plots").glob("solve_line_profile_*.tsv"))
        assert plots
        lines = plots[0].read_text().splitlines()
        assert lines[0].startswith("# a\t")
        assert len(lines) == 42

    def test_line_profile_through_pole(self, tmp_path):
        # at m = 1.5 the profile grid hits a = -m, the pole of the divided line
        path = write(
            tmp_path,
            "suite = solve\nfamily = none\nfunction = 1,3,1\nlines = 0\nt_grid = 0\n"
            f"twist.m = 1.5\nout.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 0
        plot = tmp_path / "out" / "plots" / "solve_line_profile_inline.tsv"
        assert "-1.5\tinf" in plot.read_text().splitlines()

    def test_non_finite_value_flagged(self, tmp_path):
        # r e^{-r} has no obstruction at m = 1 (k = m), so D(g) is NaN
        path = write(
            tmp_path,
            "suite = solve\nfamily = none\nfunction = 1,1,1\nlines = 0\nt_grid = 0\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        main(["run", str(path)])
        main(["run", str(path), "--strict", "--out", str(tmp_path / "strict")])
        for out, verdict in ((tmp_path / "out", "pass"), (tmp_path / "strict", "fail")):
            rows = read_rows(out, "solve")
            (obs,) = [r for r in rows if r["quantity"] == "obstruction_abs"]
            assert obs["value"] == "nan"
            assert obs["flags"] == "non-finite"
            assert obs["passed"] == verdict

    def test_line_profile_weights_leave_with_their_grid(self, tmp_path, monkeypatch):
        # the profile reads one weight per line, each once; it reads them on
        # a grid of its own, so the grid the cases solve on keeps only the
        # weights of the solves
        asked = {}  # id(grid) -> (grid, the distinct a asked of it)
        weight = LogGrid.weight

        def recorded_weight(grid, a):
            asked.setdefault(id(grid), (grid, set()))[1].add(a)
            return weight(grid, a)

        solved = {}
        solve = cli.solve_mellin

        def recorded_solve(g, *args, **kwargs):
            solved[id(g.grid)] = g.grid
            return solve(g, *args, **kwargs)

        monkeypatch.setattr(LogGrid, "weight", recorded_weight)
        monkeypatch.setattr(cli, "solve_mellin", recorded_solve)
        assert main(["run", str(CONFIG_DIR / "solve.cfg"), "--out", str(tmp_path)]) == 0
        (case_grid,) = solved.values()
        assert len(asked[id(case_grid)][1]) == 6
        (profile,) = [a for grid, a in asked.values() if grid is not case_grid]
        assert len(profile) == 40  # the line through the pole reads none

    def test_deterministic_reports(self, run_dir, tmp_path):
        _, out_dir, cfg_path = run_dir
        rerun = tmp_path / "rerun"
        assert main(["run", str(cfg_path), "--out", str(rerun)]) == 0
        assert (rerun / "solve.csv").read_bytes() == (out_dir / "solve.csv").read_bytes()
        assert (rerun / "solve.json").read_bytes() == (out_dir / "solve.json").read_bytes()


class TestPerturbationSweep:
    def test_shipped_config_passes(self, shipped):
        code, out = shipped("perturbation")
        assert code == 0
        rows = read_rows(out, "perturbation-sweep")
        ratios = [r for r in rows if r["quantity"] == "base_norm_ratio"]
        assert len(ratios) == 25 * 8  # 5x5 grid, 8 family members
        assert all(float(r["value"]) <= 1.0 + 1e-8 for r in ratios)
        uniform = [r for r in rows if r["quantity"] == "uniform_bound_ratio"]
        assert all(float(r["value"]) <= 1.0 for r in uniform)

    def test_each_input_and_twist_solved_once(self, tmp_path, monkeypatch):
        # 8 inputs at 25 (lambda1, m) points, 5 distinct m: 40 of the 200
        # solves divide and invert, the others reuse the solve held on g
        divided = []
        original = solver.divide_line

        def counted(g_line, m):
            divided.append((g_line.a, m))
            return original(g_line, m)

        monkeypatch.setattr(solver, "divide_line", counted)
        config = str(CONFIG_DIR / "perturbation.cfg")
        assert main(["run", config, "--out", str(tmp_path)]) == 0
        assert len(divided) == 40 and len(set(divided)) == 5
        assert all(a == 0.0 for a, _ in divided)
        rows = read_rows(tmp_path, "perturbation-sweep")
        assert len([r for r in rows if r["quantity"] == "residual_mellin"]) == 200

    def test_failing_input_hides_no_other_rows(self, tmp_path):
        # r e^{-0.00001 r} does not decay on the default window; the family does
        path = write(
            tmp_path,
            "suite = perturbation-sweep\nfunction = 1,1,0.00001\nsweep.steps = 2\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "perturbation-sweep")
        errors = [r for r in rows if r["quantity"] == "error"]
        assert [(r["case_id"], r["function"]) for r in errors] == [
            (str(case), "inline") for case in range(4)
        ]
        assert all(r["flags"].startswith("NotAdmissible") for r in errors)
        assert all(r["passed"] == "fail" and r["params"].startswith("m=") for r in errors)
        members = [r for r in rows if r["function"] not in ("inline", "summary")]
        assert len(members) == 4 * 8 * 3 and all(r["passed"] == "pass" for r in members)
        assert [r["quantity"] for r in rows if r["function"] == "summary"] == [
            "base_norm_ratio_spread"
        ]

    def test_point_without_a_model_component_is_a_case_error(self):
        # lambda1 = 0.1 swept by +-0.1 puts five points on lambda1 = 0, where
        # no model component exists: each is one case-level error row.  A
        # config file with this sweep is refused, so the config is built
        # directly and its suite run without validate_config.
        cfg = cli.ExperimentConfig(
            suite="perturbation-sweep", family="none", function=make_terms([(1.0, 2, 1.0)]),
            lambda1=0.1, sweep_delta=0.2,
        )
        rows, _ = cli.run_suite(cfg)
        assert len(rows) == 66 and sum(r.passed for r in rows) == 61
        errors = [(r.function, r.params, r.flags) for r in rows if r.quantity == "error"]
        assert errors == [
            (f"(0,{m})", "", "MissingParams: lambda1 must be nonzero")
            for m in ("0.9", "0.95", "1", "1.05", "1.1")
        ]

    def test_degenerate_sweep_reproduces_base(self, tmp_path):
        base = write(
            tmp_path,
            "suite = perturbation-sweep\n"
            "grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n"
            "family = none\nfunction = 1,2,1\n"
            "sweep.delta = 0\nsweep.steps = 1\n"
            f"out.dir = {tmp_path / 'sweep0'}\n",
        )
        assert main(["run", str(base)]) == 0
        rows = read_rows(tmp_path / "sweep0", "perturbation-sweep")
        point_rows = [r for r in rows if r["quantity"] == "base_norm_ratio"]
        assert len(point_rows) == 1
        # compare with a direct solve row
        solve_cfg = write(
            tmp_path,
            "suite = solve\n"
            "grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n"
            "family = none\nfunction = 1,2,1\nlines = 0\nt_grid = 0\n"
            f"out.dir = {tmp_path / 'single'}\n",
        )
        assert main(["run", str(solve_cfg)]) == 0
        solve_rows = read_rows(tmp_path / "single", "solve")
        want = [
            r
            for r in solve_rows
            if r["quantity"] == "base_norm_ratio" and r["function"] == "inline"
        ][0]
        assert point_rows[0]["value"] == want["value"]


class TestOtherSuites:
    @pytest.mark.parametrize("stem", SHIPPED)
    def test_shipped_config_exits_zero(self, shipped, stem):
        assert shipped(stem)[0] == 0

    def test_mellin_suite(self, shipped):
        code, out = shipped("mellin")
        assert code == 0
        rows = read_rows(out, "mellin-identities")
        assert len(rows) == 8 * 6  # 8 family members, 6 identities each

    def test_refused_derivative_line_hides_no_other_row(self, tmp_path):
        # configs/mellin.cfg's grid at tol.decay = 1e-12: the derivative
        # rule's gate refuses 11 of the 16 lines, each on an error row of its
        # own, and every other identity is still measured
        path = write(
            tmp_path,
            "suite = mellin-identities\ngrid.n_points = 6912\ngrid.x_min = -12\n"
            f"grid.x_max = 28\ntol.decay = 1e-12\nout.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "mellin-identities")
        assert len(rows) == 48 and sum(r["passed"] == "pass" for r in rows) == 37
        counts = Counter(r["quantity"] for r in rows)
        assert counts == {
            "parseval_defect": 8, "roundtrip_rel_err": 16, "shift_law_rel_err": 8,
            "derivative_rule_defect": 5, "error": 11,
        }
        errors = [r for r in rows if r["quantity"] == "error"]
        assert all(r["flags"].startswith("NotAdmissible") for r in errors)
        assert all(r["params"] in ("a=0", "a=-0.25", "a=-0.5") for r in errors)

    def test_cocycle_suite(self, shipped):
        code, out = shipped("cocycle")
        assert code == 0
        rows = read_rows(out, "cocycle")
        assert sum(r["quantity"] == "residual_flow" for r in rows) == 3

    def test_cocycle_flag_once_per_row(self, tmp_path):
        # past the twist depth of every dataset the obstruction is undefined
        text = (CONFIG_DIR / "cocycle.cfg").read_text().replace("twist.m = 1.0", "twist.m = 2.5")
        assert main(["run", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 0
        rows = [r for r in read_rows(tmp_path / "out", "cocycle") if r["quantity"] == "residual_flow"]
        assert len(rows) == 3
        assert all(r["flags"].split(";").count("obstruction-undefined") == 1 for r in rows)

    def test_obstruction_scan(self, shipped):
        code, out = shipped("obstruction")
        assert code == 0
        rows = read_rows(out, "obstruction-scan")
        growth = [r for r in rows if r["quantity"] == "energy_growth"]
        assert len(growth) == 2
        assert all(float(r["value"]) >= 1.2 for r in growth)
        drift = [r for r in rows if r["quantity"] == "energy_drift"]
        assert all(float(r["value"]) <= 0.01 for r in drift)

    def test_estimate_suite(self, shipped):
        code, out = shipped("estimate")
        assert code == 0
        rows = read_rows(out, "estimate-sweep")
        spreads = [r for r in rows if r["quantity"] == "ratio_refinement_spread"]
        assert spreads and all(float(r["value"]) <= 2.0 for r in spreads)

    def test_decay_tolerance_is_live(self, tmp_path):
        # an impossibly strict decay tolerance must reject every line
        path = write(
            tmp_path,
            "suite = solve\n"
            "grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n"
            "family = none\nfunction = 1,2,1\nlines = 0\nt_grid = 0\n"
            "tol.decay = 1e-30\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "solve")
        assert any("NotAdmissible" in r["flags"] for r in rows)

    @pytest.mark.parametrize(
        "suite, text, case, error",
        [
            # r e^{-r} at r = e^12 is 1.7e-5 of its peak
            (
                "perturbation-sweep", "function = 1,1,1\nsweep.steps = 2\ntol.decay = 1e-12",
                "inline", "NotAdmissible: g lacks decay for the requested line Re z = 0.0",
            ),
            (
                "obstruction-scan", "function = 1,1,1\ntol.decay = 1e-12",
                "obstructed", "NotAdmissible: g lacks decay for the requested line Re z = 0.0",
            ),
            # configs/mellin.cfg's grid; the derivative rule's gate refuses a
            # line of every member
            (
                "mellin-identities",
                "grid.n_points = 6912\ngrid.x_min = -12\ngrid.x_max = 28\ntol.decay = 1e-12",
                "r2_exp", "NotAdmissible: r d/dr f lacks decay for the line Re z = -0.5",
            ),
            # line 0 lies within 2 of the pole -m = -1, and the data are obstructed
            (
                "perturbation-sweep", "function = 1,1,1\nsweep.steps = 2\ntol.eps_pole = 2",
                "inline", "PoleOnLine: line Re z = 0.0 passes within 2.0 of the pole",
            ),
            (
                "obstruction-scan", "function = 1,1,1\ntol.eps_pole = 2",
                "obstructed", "PoleOnLine: line Re z = 0.0 passes within 2.0 of the pole",
            ),
            (
                "estimate-sweep", "family = none\nfunction = 1,4,1\nt_grid = 0\ntol.eps_pole = 2",
                "inline", "PoleOnLine: line Re z = 0.0 passes within 2.0 of the pole",
            ),
            # configs/cocycle.cfg's grid; every g2 reads as obstructed at
            # tol.obstruction = 1e-30
            (
                "cocycle",
                "grid.n_points = 6144\ngrid.x_max = 24\ntol.obstruction = 1e-30\ntol.eps_pole = 2",
                "h=r*exp(-r)", "PoleOnLine: line Re z = 0.0 passes within 2.0 of the pole",
            ),
        ],
        ids=[
            "sweep-decay", "scan-decay", "mellin-decay", "sweep-eps-pole", "scan-eps-pole",
            "estimate-eps-pole", "cocycle-eps-pole",
        ],
    )
    def test_tolerances_reach_every_solve(self, tmp_path, suite, text, case, error):
        path = write(tmp_path, f"suite = {suite}\n{text}\nout.dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", suite)
        errors = {r["function"]: r["flags"] for r in rows if r["quantity"] == "error"}
        assert errors[case].startswith(error)

    @pytest.mark.parametrize(
        "suite, text",
        [
            # a line beyond the data's decay
            (
                "solve",
                "grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n"
                "family = none\nfunction = 1,2,1\nlines = 0, -3.5\nt_grid = 0\n",
            ),
            # every point fails, so there is no spread to summarise
            ("perturbation-sweep", "family = none\nfunction = 1,1,1e-6\nsweep.steps = 2\n"),
            ("obstruction-scan", "function = 1,1,1e-6\n"),
        ],
        ids=["solve", "perturbation-sweep", "obstruction-scan"],
    )
    def test_module_error_becomes_failed_row(self, tmp_path, suite, text):
        # data without the decay a case needs raises inside the case and must
        # surface as a failing row, not a crash
        path = write(tmp_path, f"suite = {suite}\n{text}out.dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", suite)
        errors = [r for r in rows if r["quantity"] == "error"]
        assert errors and all("NotAdmissible" in r["flags"] for r in errors)
        assert all(r["passed"] == "fail" for r in errors)


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "suite", ["cocycle", "perturbation-sweep", "estimate-sweep", "mellin-identities", "solve"]
    )
    def test_window_missing_the_data_is_an_error(self, tmp_path, suite):
        # r = e^35..e^40: every input samples to exactly zero on this window
        path = write(
            tmp_path,
            f"suite = {suite}\ngrid.x_min = -40\ngrid.x_max = -35\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", suite)
        assert rows and all(r["quantity"] == "error" for r in rows)
        assert all("InvalidGrid" in r["flags"] and r["passed"] == "fail" for r in rows)

    @pytest.mark.parametrize(
        "suite, unmeasured",
        [
            ("mellin-identities", {"parseval_defect", "roundtrip_rel_err"}),
            ("solve", {"residual_mellin", "oracle_agreement", "base_norm_ratio"}),
        ],
    )
    def test_underflowing_norm_fails(self, tmp_path, suite, unmeasured):
        # the samples are nonzero, but every L2 norm of them underflows to 0
        path = write(
            tmp_path,
            f"suite = {suite}\nfamily = none\nfunction = 1e-300,2,1\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", suite)
        hit = [r for r in rows if r["quantity"] in unmeasured]
        assert {r["quantity"] for r in hit} == unmeasured
        for r in hit:
            assert r["value"] == "nan" and r["passed"] == "fail", r
            assert "non-finite" in r["flags"].split(";"), r

    def test_underflowing_energy_flags_growth(self, tmp_path):
        # the samples are nonzero, but every weighted energy underflows to 0
        path = write(
            tmp_path,
            f"suite = obstruction-scan\nfunction = 1e-300,2,1\nout.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "obstruction-scan")
        steps = [r for r in rows if r["quantity"] in ("energy_growth", "energy_drift")]
        assert len(steps) == 4
        assert all(r["flags"] == "non-finite" and r["passed"] == "fail" for r in steps)

    def test_overflowing_u1_weight_hides_no_row(self, tmp_path):
        # (1 + r^-120) overflows where f is nonzero: the t = 2 norm is inf
        path = write(
            tmp_path,
            "suite = solve\ngrid.n_points = 6144\ngrid.x_min = -12\ngrid.x_max = 24\n"
            "rep.lambda1 = 60\nt_grid = 0, 2\nfamily = none\nfunction = 1,2,1\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out", "solve")
        assert len(rows) == 16 and all(r["passed"] == "pass" for r in rows)
        weighted = [r for r in rows if r["quantity"] == "weighted_norm" and "t=2" in r["params"]]
        assert len(weighted) == 2
        assert all(r["value"] == "inf" for r in weighted)
        assert all(r["flags"] == "not-admissible;non-finite" for r in weighted)

    def test_overflowing_power_samples_as_its_term(self, tmp_path):
        # r^3 and r^2 overflow at r = e^300; a zero term adds nothing
        rows = {}
        for label, function in (("one", "1,2,1"), ("zero-term", "0,3,1; 1,2,1")):
            out = tmp_path / label
            path = write(
                tmp_path,
                "suite = solve\ngrid.n_points = 8192\ngrid.x_min = -300\ngrid.x_max = 12\n"
                f"family = none\nfunction = {function}\nout.dir = {out}\n",
            )
            main(["run", str(path)])
            rows[label] = read_rows(out, "solve")
        assert len(rows["one"]) == 20
        assert not any(r["quantity"] == "error" for r in rows["one"])
        assert rows["zero-term"] == rows["one"]

    def test_overflowing_line_weight_hides_no_row(self, tmp_path):
        # r^{1/2} and r^{-0.3} overflow at r = e^{-2400}, where r^2 e^{-r} is
        # 0: the lines a = -0.5 and the shift law are refused on their own,
        # with no warning (pytest turns warnings into errors)
        path = write(
            tmp_path,
            "suite = mellin-identities\ngrid.n_points = 8192\ngrid.x_min = -12\n"
            "grid.x_max = 2400\nfamily = none\nfunction = 1,2,1\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "mellin-identities")
        passed = [r["quantity"] for r in rows if r["passed"] == "pass"]
        assert passed == ["parseval_defect", "roundtrip_rel_err", "derivative_rule_defect"]
        errors = [(r["params"], r["flags"].partition(":")[0]) for r in rows if r["quantity"] == "error"]
        assert errors == [
            ("a=-0.5", "NotAdmissible"), ("a=-0.5", "NotAdmissible"), ("a=-0.5;b=0.3", "NonFiniteSample"),
        ]

    def test_underflowing_estimate_rhs_is_not_measured(self, tmp_path):
        # the samples are nonzero, but the estimate's rhs norm underflows to 0
        path = write(
            tmp_path,
            f"suite = estimate-sweep\nfamily = none\nfunction = 1e-300,4,1\n"
            f"out.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "estimate-sweep")
        ratios = [r for r in rows if r["quantity"] == "estimate_ratio"]
        assert len(ratios) == 4
        for r in ratios:
            assert r["value"] == "nan" and "non-finite" in r["flags"].split(";"), r


def _reference_reports(rows, cfg, out_dir: Path) -> None:
    """The CSV of csv.DictWriter and the JSON of json.dumps(payload, indent=2)."""
    out_dir.mkdir(parents=True)
    records = [vars(row) for row in rows]
    with (out_dir / f"{cfg.suite}.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle, [f.name for f in dataclasses.fields(cli.ReportRow)], lineterminator="\n"
        )
        writer.writeheader()
        for record in records:
            cells = {key: cli._format_value(record[key]) for key in ("value", "bound")}
            writer.writerow(record | cells | {"passed": "pass" if record["passed"] else "fail"})

    def jsonable(value):
        return None if value is None or not math.isfinite(value) else value

    payload = {
        "suite": cfg.suite,
        "grid": {"n_points": cfg.n_points, "x_min": cfg.x_min, "x_max": cfg.x_max},
        "rows": [
            record | {"value": jsonable(record["value"]), "bound": jsonable(record["bound"])}
            for record in records
        ],
    }
    (out_dir / f"{cfg.suite}.json").write_text(json.dumps(payload, indent=2) + "\n")


def _assert_reports_match_reference(rows, cfg, tmp_path: Path) -> None:
    cli.write_reports(rows, {}, cfg, tmp_path / "new")
    _reference_reports(rows, cfg, tmp_path / "reference")
    for ext in ("csv", "json"):
        name = f"{cfg.suite}.{ext}"
        new, reference = (tmp_path / side / name for side in ("new", "reference"))
        assert new.read_bytes() == reference.read_bytes(), name


class TestReportWriters:
    """The CSV and JSON writers give the bytes of csv.DictWriter and of
    json.dumps(payload, indent=2)."""

    def test_awkward_rows(self, tmp_path):
        cfg = cli.ExperimentConfig(suite="solve")
        awkward = [
            (float("nan"), None, True, ""),
            (float("inf"), 1e-6, False, "non-finite"),
            (float("-inf"), 1.0 + 1e-8, False, "a, b;non-finite"),
            (-0.0, 0.0, True, 'quoted "flag"'),
            (1.5e-300, 2.0, True, "line one\nline two\r\nline three"),
            (3.0, None, False, "NotAdmissible: λ1 — ré, \"x\"\n, ünïcode"),
        ]
        rows = [
            cli.ReportRow("solve", i, f"fn,{i}", "error" if not passed else "q", "m=1;a=0",
                          value, bound, "<=" if i % 2 else ">=", passed, flags)
            for i, (value, bound, passed, flags) in enumerate(awkward)
        ]
        _assert_reports_match_reference(rows, cfg, tmp_path)

    def test_no_rows(self, tmp_path):
        _assert_reports_match_reference([], cli.ExperimentConfig(suite="cocycle"), tmp_path)

    @pytest.mark.parametrize("stem", SHIPPED)
    def test_shipped_config(self, tmp_path, stem):
        cfg = parse_config(CONFIG_DIR / f"{stem}.cfg")
        rows, _ = cli.run_suite(cfg)
        _assert_reports_match_reference(rows, cfg, tmp_path)


def test_transform_census_of_the_shipped_configs(ffts, tmp_path):
    # the forward and inverse transforms of one pass over the shipped
    # configs: a change that runs fewer has dropped a measurement
    def one_pass():
        for stem in SHIPPED:
            assert main(["run", str(CONFIG_DIR / f"{stem}.cfg"), "--out", str(tmp_path / stem)]) == 0

    assert ffts(one_pass) == (176, 217)
