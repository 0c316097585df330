"""Tests of the benchmark itself: span arithmetic, wrapping, seeding, counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import twisteq  # noqa: E402
from twisteq import cli, mellin, solver  # noqa: E402


def test_self_times_on_hand_built_tree():
    #   0 [0, 100]
    #   |- 1 [10, 30]        |- 3 [12, 18]
    #   |- 2 [20, 50]   overlaps 1: the union [10, 50] counts once
    #   '- 4 [90, 120]  clipped to its parent's end at 100
    start = [0, 10, 20, 12, 90]
    end = [100, 30, 50, 18, 120]
    parent = [-1, 0, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [100 - 40 - 10, 20 - 6, 30, 6, 30]


def test_self_times_of_disjoint_nested_calls_sum_to_root_duration():
    start = [0, 5, 6, 40, 41, 42]
    end = [100, 30, 20, 60, 59, 50]
    parent = [-1, 0, 1, 0, 3, 4]
    assert sum(spans.self_times(start, end, parent)) == 100


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    latencies = [float(i) for i in range(25, 0, -1)]
    assert run.tail(latencies) == (15.0, 60.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_costs_use_reference_timings_across_each_operation():
    # Op 0 has two steps (references 1 and 3), op 1 one step (reference 2);
    # each is also divided by the timing taken right after it.
    phase = run.Phase(latencies=[20.0, 30.0], references=[[1.0, 3.0], [2.0]],
                      closing_reference=4.0)
    assert run.costs(phase) == [20.0 / 2.0, 30.0 / 3.0]


def test_installed_rebinds_every_namespace_and_restores():
    original_line = mellin.mellin_line
    original_solve = solver.solve_mellin
    assert spans.wrapped_bindings() == []
    tracer = spans.Tracer()
    with tracer.installed():
        bound = set(spans.wrapped_bindings())
        # solver and cli import these by name; the package root re-exports them.
        assert {"twisteq.mellin.mellin_line", "twisteq.solver.mellin_line",
                "twisteq.mellin_line", "twisteq.cli.solve_mellin"} <= bound
        assert solver.mellin_line is not original_line
        assert getattr(cli.solve_mellin, spans.MARKER) is original_solve
    assert spans.wrapped_bindings() == []
    assert solver.mellin_line is original_line and twisteq.mellin_line is original_line
    assert cli.solve_mellin is original_solve


def test_untraced_run_refuses_wrapped_functions():
    result, _ = run.run_benchmark("shared-sweep", 5, 0.01, False, ROOT)
    assert result["correct"] and spans.wrapped_bindings() == []
    with spans.Tracer().installed():
        with pytest.raises(RuntimeError, match="tracing wrappers"):
            run.run_benchmark("shared-sweep", 5, 0.01, False, ROOT)


def _inputs(name, seed, tmp_path, count=4):
    wl = workloads.make_workload(name, seed, ROOT, tmp_path / name)
    return [wl.prepare(run.MEASURED, i) for i in range(count)]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    assert _inputs(name, 7, tmp_path) == first
    assert _inputs(name, 8, tmp_path) != first
    assert len({repr(x) for x in first}) == len(first)


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs per workload with the same seed and a short budget."""
    return {
        name: [run.run_benchmark(name, 3, 0.05, True, ROOT)[0] for _ in range(2)]
        for name in run.WORKLOAD_NAMES
    }


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_call_counts_repeat_exactly(name, traced_pairs):
    a, b = (r["metrics"] for r in traced_pairs[name])
    calls = [k for k in a if k.endswith(".calls")]
    assert calls and {k: a[k]["value"] for k in calls} == {k: b[k]["value"] for k in calls}
    assert all(r["correct"] and r["failed"] == 0 for r in traced_pairs[name])


def test_layers_run_where_the_workloads_say(traced_pairs):
    def value(name, key):
        return traced_pairs[name][0]["metrics"][key]["value"]

    assert value("suites", "cli.calls") > 0 and value("suites", "cocycle.calls") > 0
    assert value("shared-sweep", "cli.calls") == 0
    assert value("shared-sweep", "mellin.distinct_transform_ratio") == pytest.approx(1 / 25)
    assert value("fresh-grid", "solver.solve_semigroup.calls") == 1
    assert value("fresh-grid", "reps.fractional_weight.calls") > 0
    assert value("fresh-grid", "mellin.distinct_transform_ratio") == 1


def test_benchmark_json_names_every_metric_printed(traced_pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    for name in run.WORKLOAD_NAMES:
        printed = traced_pairs[name][0]["metrics"]
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            k: v["unit"] for k, v in printed.items()
        }


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
