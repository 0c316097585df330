"""Summarise paired perfbench runs of two checkouts into one BENCH_<label>.json.

    python tools/bench_json.py --label pr6 --parent ../parent --change . \
        --out BENCH_pr6.json

Each checkout's `.perfbench/results/` holds the records that
`perfbench/run.py` wrote there.  Untraced records (`-trace0`) with the same
workload and seed on both sides form a pair; for each workload and each
end-to-end metric of `BENCHMARK.json` the summary gives both sides' median,
quartiles and runs, and how many pairs the change won (ties count for
neither side).  Traced records (`-trace1`), when present, add their
per-layer metrics.  The environment block is taken from the change's
records, and the script refuses records whose environments differ, and a
workload with fewer than two pairs, whose quartiles are not defined.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _records(checkout: Path, trace: int) -> dict[tuple[str, int], dict]:
    out = {}
    for path in sorted((checkout / ".perfbench" / "results").glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["seed"])] = record
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _environment(records: list[dict]) -> dict:
    # The affinity (the CPU a run was pinned to) may differ between runs.
    envs = [{k: v for k, v in r["environment"].items() if k != "affinity"} for r in records]
    if any(env != envs[0] for env in envs):
        raise SystemExit("records come from different environments")
    return envs[0]


def summarise(label: str, parent: Path, change: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {side: _records(path, 0) for side, path in (("parent", parent), ("change", change))}
    pairs = sorted(set(runs["parent"]) & set(runs["change"]))
    if not pairs:
        raise SystemExit("no workload and seed was run on both checkouts")
    workloads = {}
    for workload in dict.fromkeys(w for w, _ in pairs):
        seeds = [seed for w, seed in pairs if w == workload]
        if len(seeds) < 2:
            raise SystemExit(
                f"workload {workload!r} has {len(seeds)} paired seed; its quartiles need 2"
            )
        entry = {"seeds": seeds, "pairs": len(seeds)}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = {
                side: [runs[side][(workload, seed)]["result"]["metrics"][name]["value"] for seed in seeds]
                for side in runs
            }
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            parent_median = statistics.median(sides["parent"])
            change_median = statistics.median(sides["change"])
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": _spread(sides["parent"]),
                "change": _spread(sides["change"]),
                "change_over_parent": change_median / parent_median if parent_median else None,
                "change_wins": wins,
            }
        traced = {}
        for side, path in (("parent", parent), ("change", change)):
            for (w, seed), record in _records(path, 1).items():
                if w == workload:
                    metrics = record["result"]["metrics"]
                    traced[side] = {"seed": seed} | {k: v["value"] for k, v in metrics.items()}
        if traced:
            entry["traced"] = traced
        workloads[workload] = entry
    records = [runs[side][pair] for side in runs for pair in pairs]
    return {
        "label": label,
        "environment": _environment(records),
        "run_seconds": records[0]["seconds"],
        "workloads": workloads,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    summary = summarise(args.label, args.parent, args.change)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
