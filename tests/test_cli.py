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

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"suite = solve\nfamily = \xff\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["key", "flag"])
    def test_output_directory_that_cannot_be_made_exit_2(self, tmp_path, capsys, monkeypatch, where):
        # out.dir naming a file, or --out a path below one: refused before
        # any suite runs, with one line and no traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        if where == "key":
            path, argv = write(tmp_path, f"suite = cocycle\nout.dir = {blocker}\n"), []
        else:
            path, argv = write(tmp_path, "suite = cocycle\n"), ["--out", str(blocker / "sub")]
        monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("the suite ran"))
        assert main(["run", str(path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: out.dir: ") and captured.err.count("\n") == 1

    def test_report_that_cannot_be_written_exit_2(self, tmp_path, capsys):
        (tmp_path / "out" / "cocycle.csv").mkdir(parents=True)
        path = write(tmp_path, f"suite = cocycle\nout.dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out.dir: ") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_config_without_inputs(self, tmp_path, capsys, suite):
        # family = none and no function: the suites that read the inputs
        # refuse it while parsing, before out.dir is made; the others run
        # (cocycle's rows on the default grid fail, exit 1)
        out = tmp_path / "out"
        path = write(tmp_path, f"suite = {suite}\nfamily = none\n")
        code = main(["run", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if suite in ("cocycle", "obstruction-scan"):
            assert code in (0, 1) and err == "" and out.is_dir()
        else:
            assert code == 2 and not out.exists()
            assert err == "config error: no inputs: family = none and no function given\n"

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
            # a gate's tolerance is a constant of the package: its old key is unknown
            ("tol.eps_pole = inf\n", "unknown key 'tol.eps_pole'"),
            ("tol.decay = nan\n", "unknown key 'tol.decay'"),
            ("suite = perturbation-sweep\nsweep.delta = nan\n", "sweep.delta: must be finite"),
            ("grid.x_min = 5\ngrid.x_max = 5\n", "grid: x_min < x_max required"),
            ("lines = 0, nan\n", "lines: must be finite"),
            ("t_grid = 0, inf\n", "t_grid: must be finite"),
            ("suite = obstruction-scan\nscan.x_max = 8, inf\n", "scan.x_max: must be finite"),
            ("function = nan,2,1\n", "coefficient and rate must be finite"),
            ("function = 1,2,inf\n", "coefficient and rate must be finite"),
            ("suite = estimate-sweep\nt_grid =\n", "estimate-sweep needs at least one"),
            ("suite = obstruction-scan\nscan.x_max =\n", "obstruction-scan needs at least two"),
            ("suite = obstruction-scan\nscan.x_max = 12\n", "obstruction-scan needs at least two"),
            # a shrinking, repeated or empty window would blame the data
            ("suite = obstruction-scan\nscan.x_max = 12, 8\n", "windows must increase strictly"),
            ("suite = obstruction-scan\nscan.x_max = 12, 12\n", "windows must increase strictly"),
            ("suite = obstruction-scan\nscan.x_max = -12, 8\n", "from above grid.x_min = -12"),
            # every input's leading power is <= s*lambda1 = 4.5: all would be skipped
            (
                "suite = estimate-sweep\nrep.lambda1 = 1.5\nregularity.s = 3\n",
                "estimate-sweep skips every input",
            ),
            # sweep twists a report cannot tell apart: one float (1e308 +- 0.1),
            # one twist five times (delta = 0), one params text (1e+06)
            ("suite = perturbation-sweep\ntwist.m = 1e308\n", "twists m +- delta/2 repeat"),
            ("suite = perturbation-sweep\nsweep.delta = 0\n", "twists m +- delta/2 repeat"),
            ("suite = perturbation-sweep\ntwist.m = 1e6\n", "m=1e+06, m=1e+06"),
            # keys that changed no report, or set a value --strict sets
            *[(f"{key} = {value}\n", f"unknown key {key!r}") for key, value in REMOVED_KEYS],
            # refused while parsing, in the suites that read the key and in those that do not
            *[(f"suite = {suite}\nfamily = bogus\n", "bad value for 'family'") for suite in cli.SUITES],
        ],
        ids=["solve-vanishing-function", "estimate-vanishing-function", "infinite-x-min",
             "nan-lambda1", "infinite-m", "nan-s",
             "infinite-eps-pole", "nan-decay-tol", "nan-sweep-delta", "empty-window",
             "nan-line", "infinite-t", "infinite-scan-x-max", "nan-coefficient",
             "infinite-rate", "empty-t-grid", "empty-scan", "single-window-scan",
             "shrinking-scan", "repeated-scan-window", "scan-window-at-x-min",
             "estimate-skips-every-input", "sweep-twists-one-float", "sweep-zero-delta",
             "sweep-twists-one-params",
             *[f"unknown-key-{key}" for key, _ in REMOVED_KEYS],
             *[f"bogus-family-{suite}" for suite in cli.SUITES]],
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
        if suite == "estimate-sweep":  # lambda1 = 1 skips every input
            function += "rep.lambda1 = 0.8\n"
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
        proc = subprocess.run(
            _module_command(tmp_path, text), cwd=tmp_path, env=_module_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "text, code", [("grid.n_points = 3072\ngrid.x_min = -10\ngrid.x_max = 22\n", 0),
                       ("grid.n_points = 1024\n", 1)],
        ids=["pass", "row-failure"],
    )
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, text, code, unbuffered):
        # a reader that closes standard output before reading (`| head -0`)
        # ends no run in a traceback: the rows still set the exit code.
        # Buffered, the closed pipe shows at the flush; unbuffered, at the
        # first print.
        env = _module_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            _module_command(tmp_path, text), cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == code, stderr
        assert stderr == b""


def _module_env() -> dict[str, str]:
    """The environment, with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _module_command(tmp_path: Path, text: str) -> list[str]:
    """`python -m twisteq run` of r^2 e^{-r}'s solve suite on line 0, with text added."""
    solve = "suite = solve\nfamily = none\nfunction = 1,2,1\nlines = 0\nt_grid = 0\n"
    path = write(tmp_path, solve + text + f"out.dir = {tmp_path / 'out'}\n")
    return [sys.executable, "-m", "twisteq", "run", str(path)]


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

    def test_coincidence_row_only_where_a_line_is_compared(self, run_dir, tmp_path):
        # the raw case is solved on line 0 alone and compares no line with
        # it; the projected case also inverts a = -0.5 and keeps its row
        rows = read_rows(run_dir[1], "solve")
        (row,) = [r for r in rows if r["quantity"] == "coincidence_defect"]
        assert row["function"] == "inline-projected" and row["passed"] == "pass"
        # with lines = 0 the projected case compares none either
        text = run_dir[2].read_text().replace("lines = 0, -0.5", "lines = 0")
        path = write(tmp_path, text.replace(str(run_dir[1]), str(tmp_path / "out")))
        assert main(["run", str(path)]) == 0
        rows = read_rows(tmp_path / "out", "solve")
        assert {r["function"] for r in rows} == {"inline", "inline-projected"}
        assert not any(r["quantity"] == "coincidence_defect" for r in rows)

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
        assert len(ratios) == 5 * 8  # 5 twists, 8 family members
        assert all(float(r["value"]) <= 1.0 + 1e-8 for r in ratios)
        # every row carries the config's lambda1, which no sweep row reads
        assert {r["params"].partition(";")[2] for r in rows[:-1]} == {"lambda1=1"}
        assert [r["case_id"] for r in rows[::10]] == [str(case) for case in range(9)]

    def test_each_input_and_twist_solved_once(self, tmp_path, monkeypatch):
        # 8 inputs at 5 twists: each of the 40 solves divides and inverts
        divided, solved = [], []
        divide, solve = solver.divide_line, cli.solve_mellin

        def counted_divide(g_line, m, out=None):
            divided.append((g_line.a, m))
            return divide(g_line, m, out=out)

        def counted_solve(g, p, *args, **kwargs):
            solved.append((g, p.m))
            return solve(g, p, *args, **kwargs)

        monkeypatch.setattr(solver, "divide_line", counted_divide)
        monkeypatch.setattr(cli, "solve_mellin", counted_solve)
        config = str(CONFIG_DIR / "perturbation.cfg")
        assert main(["run", config, "--out", str(tmp_path)]) == 0
        assert len(divided) == 40 and len(set(divided)) == 5
        assert all(a == 0.0 for a, _ in divided)
        assert len(solved) == len({(id(g), m) for g, m in solved}) == 40
        rows = read_rows(tmp_path, "perturbation-sweep")
        assert len([r for r in rows if r["quantity"] == "residual_mellin"]) == 40

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
        assert [(r["case_id"], r["function"], r["params"]) for r in errors] == [
            ("8", "inline", f"m={m};lambda1=1") for m in ("0.9", "1.1")
        ]
        assert all(r["flags"].startswith("NotAdmissible") for r in errors)
        assert all(r["passed"] == "fail" for r in errors)
        members = [r for r in rows if r["function"] not in ("inline", "summary")]
        assert len(members) == 8 * 2 * 2 and all(r["passed"] == "pass" for r in members)
        assert [r["quantity"] for r in rows if r["function"] == "summary"] == [
            "base_norm_ratio_spread"
        ]

    def test_underflowing_solution_norms_are_not_measured(self, tmp_path):
        # at m = 1e308 every solution's norm underflows to 0 on nonzero
        # samples: its ratios read NaN and fail, and none reads 0.  A delta
        # of 1e307 keeps the 5 twists distinct floats.
        path = write(
            tmp_path,
            "suite = perturbation-sweep\ntwist.m = 1e308\nsweep.delta = 1e307\n"
            f"out.dir = {tmp_path}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path, "perturbation-sweep")
        ratios = [r for r in rows if r["quantity"] == "base_norm_ratio"]
        assert len(ratios) == 40
        assert {(r["value"], r["passed"], r["flags"]) for r in ratios} == {
            ("nan", "fail", "non-finite")
        }
        assert sum(r["passed"] == "pass" for r in rows) == 41 and len(rows) == 81
        assert [r["value"] for r in rows if r["function"] == "summary"] == ["nan"]

    def test_spread_keeps_a_nan_ratio(self, tmp_path):
        # the inline input's norm underflows, so its ratios, measured after
        # the family's finite ones, are NaN; so is the spread over them all
        path = write(
            tmp_path,
            "suite = perturbation-sweep\nfunction = 1e-300,2,1\nsweep.steps = 2\n"
            f"out.dir = {tmp_path}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path, "perturbation-sweep")
        ratios = [r["value"] for r in rows if r["quantity"] == "base_norm_ratio"]
        assert ratios[0] != "nan" and "nan" in ratios
        summary = [r for r in rows if r["function"] == "summary"]
        assert [(r["value"], r["flags"]) for r in summary] == [("nan", "non-finite")]

    def test_point_without_a_model_component_is_a_case_error(self):
        # at lambda1 = 0 no model component exists: each twist is one error
        # row, and there is no ratio to summarise.  A config file with it is
        # refused, so the config is built directly and its suite run without
        # validate_config.
        cfg = cli.ExperimentConfig(
            suite="perturbation-sweep", family="none", function=make_terms([(1.0, 2, 1.0)]),
            lambda1=0.0, sweep_delta=0.2,
        )
        rows, _ = cli.run_suite(cfg)
        assert [(r.function, r.quantity, r.params, r.flags, r.passed) for r in rows] == [
            ("inline", "error", f"m={m};lambda1=0", "MissingParams: lambda1 must be nonzero", False)
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
        # at r <= e: the derivative rule's gate refuses all 16 lines, each on
        # an error row of its own, and every other identity is still measured
        path = write(
            tmp_path,
            f"suite = mellin-identities\ngrid.x_min = -1\nout.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "mellin-identities")
        counts = Counter(r["quantity"] for r in rows)
        assert counts == {
            "parseval_defect": 8, "roundtrip_rel_err": 16, "shift_law_rel_err": 8, "error": 16,
        }
        assert all(
            r["passed"] == "pass" for r in rows
            if r["quantity"] in ("roundtrip_rel_err", "shift_law_rel_err")
        )
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

    def test_solve_obstruction_flag_once_and_first(self, tmp_path):
        # past the twist depth of every member D(g) is undefined: each
        # residual_mellin row names that once, before its weighted-norm flags
        text = (CONFIG_DIR / "solve.cfg").read_text().replace("twist.m = 1.0", "twist.m = 3.5")
        assert main(["run", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 0
        rows = [r for r in read_rows(tmp_path / "out", "solve") if r["quantity"] == "residual_mellin"]
        assert len(rows) == 8
        for r in rows:
            flags = r["flags"].split(";")
            assert flags[0] == "obstruction-undefined" and flags.count(flags[0]) == 1, r
        assert any(len(r["flags"].split(";")) > 1 for r in rows)

    @pytest.mark.parametrize("sides", [("refined",), ("base", "refined")], ids=["refined", "both"])
    def test_refinement_spread_keeps_a_nan_ratio(self, tmp_path, monkeypatch, sides):
        # a NaN ratio on either grid leaves no measured spread; max() and
        # min() read 1.0 (passing) for a NaN refined ratio, and inf for two
        sweep = cli.estimate_sweep

        def nan_ratios(g, p, s, t_grid):
            rows = sweep(g, p, s, t_grid)
            side = "base" if g.grid.n_points == 4096 else "refined"
            return [dataclasses.replace(r, ratio=math.nan) for r in rows] if side in sides else rows

        monkeypatch.setattr(cli, "estimate_sweep", nan_ratios)
        path = write(
            tmp_path,
            "suite = estimate-sweep\nfamily = none\nfunction = 1,3,1\nrep.lambda1 = 0.8\n"
            f"t_grid = 0, 0.5\nout.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "estimate-sweep")
        spreads = [r for r in rows if r["quantity"] == "ratio_refinement_spread"]
        assert [(r["value"], r["passed"], r["flags"]) for r in spreads] == [
            ("nan", "fail", "non-finite")
        ] * 2

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

    @pytest.mark.parametrize(
        "suite, text, case, error",
        [
            # r e^{-r} at r = e^{1/2} is 0.86 of its peak, above DECAY_TOL
            (
                "perturbation-sweep", "function = 1,1,1\nsweep.steps = 2\ngrid.x_min = -0.5",
                "inline", "NotAdmissible: g lacks decay for the requested line Re z = 0.0",
            ),
            (
                "obstruction-scan", "function = 1,1,1\ngrid.x_min = -0.5",
                "obstructed", "NotAdmissible: g lacks decay for the requested line Re z = 0.0",
            ),
            # the derivative rule's gate refuses a line of every member
            (
                "mellin-identities", "grid.x_min = -1",
                "mix_12", "NotAdmissible: r d/dr f lacks decay for the line Re z = -0.25",
            ),
            # line 0 lies within 0.05 of the pole -m = -0.04, and the data
            # are obstructed
            (
                "perturbation-sweep",
                "function = 1,1,1\ntwist.m = 0.04\nsweep.delta = 0.01\nsweep.steps = 2",
                "inline", "PoleOnLine: line Re z = 0.0 passes within 0.05 of the pole",
            ),
            (
                "obstruction-scan", "function = 1,1,1\ntwist.m = 0.04",
                "obstructed", "PoleOnLine: line Re z = 0.0 passes within 0.05 of the pole",
            ),
            (
                "estimate-sweep", "family = none\nfunction = 1,4,1\nt_grid = 0\ntwist.m = 0.04",
                "inline", "PoleOnLine: line Re z = 0.0 passes within 0.05 of the pole",
            ),
        ],
        ids=[
            "sweep-decay", "scan-decay", "mellin-decay", "sweep-eps-pole", "scan-eps-pole",
            "estimate-eps-pole",
        ],
    )
    def test_tolerances_reach_every_solve(self, tmp_path, suite, text, case, error):
        # the gates' tolerances are constants of the package, and the inputs
        # above reach each gate at them
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
        lambda1 = "rep.lambda1 = 0.8\n" if suite == "estimate-sweep" else ""  # 1 skips every input
        path = write(
            tmp_path,
            f"suite = {suite}\ngrid.x_min = -40\ngrid.x_max = -35\n{lambda1}"
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
        assert len(rows) == 15 and all(r["passed"] == "pass" for r in rows)
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
        assert len(rows["one"]) == 19
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

    def test_underflowing_estimate_lhs_is_not_measured(self, tmp_path):
        # at m = 1e308 the solution's weighted norms underflow to 0 on
        # nonzero samples: every lhs, and so every ratio, reads NaN, not 0
        path = write(
            tmp_path,
            "suite = estimate-sweep\nrep.lambda1 = 0.8\ntwist.m = 1e308\nregularity.s = 3\n"
            f"t_grid = 0, 1.25\nout.dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", str(path)]) == 1
        rows = read_rows(tmp_path / "out", "estimate-sweep")
        ratios = [r for r in rows if r["quantity"] == "estimate_ratio"]
        assert len(ratios) == 4
        for r in ratios:
            assert r["value"] == "nan", r
            assert r["flags"].split(";") == ["not-admissible", "non-finite"], r


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
    (tmp_path / "new").mkdir()
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


def _one_pass(out: Path) -> None:
    """Run every shipped config once, each into its own directory under out."""
    for stem in SHIPPED:
        assert main(["run", str(CONFIG_DIR / f"{stem}.cfg"), "--out", str(out / stem)]) == 0


def test_transform_census_of_the_shipped_configs(ffts, tmp_path):
    # the forward and inverse real-row transforms of one pass over the
    # shipped configs: a change that runs fewer has dropped a measurement.
    # Complex data carries two rows: 3 forward and 3 inverse transforms of
    # cocycle.cfg do.  Each of the 16 residual calls (the solve suite's 13
    # semigroup oracles and cocycle's 3 flow residuals) runs one forward
    # transform and no inverse
    assert ffts(lambda: _one_pass(tmp_path)) == (179, 204)
    assert ffts.calls == (155, 109)


def test_decay_gate_census_of_the_shipped_configs(gates, tmp_path):
    # every decay test of one pass over the shipped configs is one call of
    # the one gate, so a tracer of decay_admissible sees each of them; the
    # line-0 solves evaluate no obstruction, so its strip edges are tested
    # only where D is gated or reported, at each evaluation (twice in each
    # of solve.cfg's 5 projected cases: the pole gate and the report)
    assert gates(lambda: _one_pass(tmp_path)) == (424, 424)


def test_held_kind_census_of_the_shipped_configs(holds, tmp_path):
    # (hits, misses) of each held kind over one pass of the shipped configs,
    # so that a kind that stops paying shows.  No shipped config repeats a
    # solve; the held solve pays in a sweep of one input at repeated twists
    # (perfbench's shared-sweep)
    assert holds(lambda: _one_pass(tmp_path)) == {
        "X": (8, 8),
        "fractional_weight": (138, 16),
        "log_weight": (11, 5),
        "profile": (703, 423),
        "solve": (0, 82),
        "weight": (168, 68),
    }
