"""tools/bench_json.py pairs the untraced records of two checkouts by
(workload, seed), counts the pairs each side wins per end-to-end metric,
and refuses a workload whose quartiles are not defined."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)

METRICS = ("setup_s", "ops_per_kref", "op_p50_ref", "op_tail_ref", "pass_ratio", "peak_rss_mb")


def _write(checkout: Path, workload: str, seed: int, **values: float) -> None:
    """One untraced record as perfbench/run.py writes it; unnamed metrics read 1."""
    metrics = {name: {"value": values.get(name, 1.0)} for name in METRICS}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": 30.0,
        "environment": {"python": "3.11", "affinity": [seed % 2]},
        "result": {"metrics": metrics},
    }
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_pairs_by_workload_and_seed(tmp_path):
    # a seed run on one side only, or under another workload, pairs with nothing
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        _write(parent, "fresh-grid", seed, ops_per_kref=100.0 + seed)
    for seed in (2, 3, 4):
        _write(change, "fresh-grid", seed, ops_per_kref=200.0 + seed)
    _write(parent, "suites", 9)
    _write(change, "shared-sweep", 9)
    summary = bench_json.summarise("t", parent, change)
    assert list(summary["workloads"]) == ["fresh-grid"]
    entry = summary["workloads"]["fresh-grid"]
    assert entry["seeds"] == [2, 3] and entry["pairs"] == 2
    assert entry["ops_per_kref"]["parent"]["runs"] == [102.0, 103.0]
    assert entry["ops_per_kref"]["change"]["runs"] == [202.0, 203.0]
    assert summary["environment"] == {"python": "3.11"}


def test_wins_count_neither_side_on_a_tie(tmp_path):
    # higher ops_per_kref and lower op_p50_ref are better: one win, one tie
    # and one loss each
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, ops, p50 in ((1, 10.0, 5.0), (2, 11.0, 4.0), (3, 9.0, 6.0)):
        _write(parent, "fresh-grid", seed, ops_per_kref=10.0, op_p50_ref=5.0)
        _write(change, "fresh-grid", seed, ops_per_kref=ops, op_p50_ref=p50)
    entry = bench_json.summarise("t", parent, change)["workloads"]["fresh-grid"]
    assert entry["ops_per_kref"]["change_wins"] == 1
    assert entry["op_p50_ref"]["change_wins"] == 1
    # every other metric ties in every pair
    assert entry["peak_rss_mb"]["change_wins"] == 0


def test_one_pair_is_refused_by_name(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write(parent, "fresh-grid", seed)
        _write(change, "fresh-grid", seed)
    _write(parent, "suites", 5)
    _write(change, "suites", 5)
    with pytest.raises(SystemExit) as refused:
        bench_json.summarise("t", parent, change)
    message = str(refused.value)
    assert "'suites'" in message and "\n" not in message
