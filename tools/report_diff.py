"""Run every shipped config under two checkouts and compare the reports.

    python tools/report_diff.py --parent ../parent [--change .]

Each checkout runs its own copy of every config that either checkout has
in `configs/*.cfg` through `python -W error -m twisteq run <config> --out
<dir>`, with its `src` on `PYTHONPATH`, inside a temporary directory.  A
config that only one checkout has is printed as `only in parent` or `only
in change` and counts as a difference.  The exit code, stdout, stderr and
every report file are compared byte for byte; for each that differs the
first differing line is printed, and for a CSV or JSON report also how
many rows' value moved, every row whose verdict (passed or flags) changed
and, per quantity with a moved value, how many of its rows moved and the
largest relative and absolute moves, so that a large relative move of a
value at rounding level reads as such.  The CSV prints 12 significant
digits and the JSON every digit, so a move that the CSV rounds away shows
in the JSON.  Rows are matched by suite, function, quantity and params,
not by case number.
The exit status is 1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(checkout: Path, config: Path, out: Path) -> dict[str, bytes]:
    """The outputs of one run: its exit code, stdout, stderr and report files."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "twisteq", "run", str(config), "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True,
    )
    outputs = {"exit code": b"%d\n" % proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(out))] = path.read_bytes()
    return outputs


def _first_difference(parent: bytes | None, change: bytes | None) -> str:
    if parent is None or change is None:
        return "only in " + ("change" if parent is None else "parent")
    old, new = parent.splitlines(), change.splitlines()
    for lineno, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {lineno}:\n    parent: {a!r}\n    change: {b!r}"
    lineno = min(len(old), len(new)) + 1
    return f"line {lineno}: one side ends here ({len(old)} vs {len(new)} lines)"


def _records(report: bytes) -> list[dict[str, str]]:
    """The rows of a CSV report, or of a JSON report (which starts with
    "{"), each field as text: a JSON field that is not a string as its JSON
    text, so that a value prints every digit and NaN or Inf (null) is not
    a number."""
    if report.lstrip().startswith(b"{"):
        return [
            {name: v if isinstance(v, str) else json.dumps(v) for name, v in row.items()}
            for row in json.loads(report)["rows"]
        ]
    return list(csv.DictReader(io.StringIO(report.decode())))


def _rows(report: bytes) -> dict[tuple, dict[str, str]]:
    """Report rows in file order, by (suite, function, quantity, params) and
    the count of earlier rows with the same four fields, so that renumbered
    cases still match."""
    rows: dict[tuple, dict[str, str]] = {}
    seen: Counter[tuple] = Counter()
    for row in _records(report):
        key = tuple(row[name] for name in ("suite", "function", "quantity", "params"))
        rows[key + (seen[key],)] = row
        seen[key] += 1
    return rows


def verdict_changes(parent: bytes, change: bytes) -> list[str]:
    """How many rows' value moved, then each row whose passed or flags
    changed and each row that only one side has."""
    old, new = _rows(parent), _rows(change)
    shared = [key for key in old if key in new]
    moved = sum(old[key]["value"] != new[key]["value"] for key in shared)
    lines = [f"{moved} of {len(shared)} rows' value moved"]
    for key in [*old, *(key for key in new if key not in old)]:
        label = ",".join(key[:-1])
        if key not in new or key not in old:
            lines.append(f"{label}: only in {'parent' if key in old else 'change'}")
            continue
        verdicts = [(row["passed"], row["flags"]) for row in (old[key], new[key])]
        if verdicts[0] != verdicts[1]:
            lines.append(f"{label}: passed,flags {verdicts[0]} -> {verdicts[1]}")
    return lines


def _moves(old: str, new: str) -> tuple[float, float]:
    """(|new - old| / |old|, |new - old|): both +Inf when either value is not
    a finite number, and the relative move +Inf when old is 0."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf, math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    move = abs(b - a)
    return (move / abs(a) if a != 0 else math.inf), move


def value_moves(parent: bytes, change: bytes) -> list[str]:
    """For each quantity, in file order, with a row whose value moved: how
    many of the rows that both sides have moved, and the largest relative
    and the largest absolute move among them."""
    old, new = _rows(parent), _rows(change)
    shared: dict[str, list[tuple]] = {}
    for key in old:
        if key in new:
            shared.setdefault(key[2], []).append(key)
    lines = []
    for quantity, keys in shared.items():
        moves = [
            _moves(old[key]["value"], new[key]["value"])
            for key in keys
            if old[key]["value"] != new[key]["value"]
        ]
        if moves:
            relative, absolute = map(max, zip(*moves))
            lines.append(
                f"{quantity}: {len(moves)} of {len(keys)} rows moved, "
                f"largest relative move {relative:.2g}, largest absolute move {absolute:.2g}"
            )
    return lines


def compare(parent: Path, change: Path) -> int:
    """Print each differing output per config; return how many differ."""
    differing = 0
    sides = {"parent": parent, "change": change}
    configs = sorted({path.name for root in sides.values() for path in root.glob("configs/*.cfg")})
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            present = [side for side, root in sides.items() if (root / "configs" / config).is_file()]
            if len(present) == 1:
                print(f"{config}: only in {present[0]}")
                differing += 1
                continue
            runs = []
            for side, checkout in sides.items():
                work = Path(tmp) / config / side
                work.mkdir(parents=True)
                runs.append(_run(checkout, checkout / "configs" / config, work / "out"))
            old, new = runs
            names = sorted(old.keys() | new.keys())
            diffs = [name for name in names if old.get(name) != new.get(name)]
            print(f"{config}: {len(names) - len(diffs)}/{len(names)} outputs identical")
            for name in diffs:
                print(f"  {name}: {_first_difference(old.get(name), new.get(name))}")
                if name.endswith((".csv", ".json")) and name in old and name in new:
                    for line in verdict_changes(old[name], new[name]):
                        print(f"    {line}")
                    for line in value_moves(old[name], new[name]):
                        print(f"      {line}")
            differing += len(diffs)
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout under test")
    args = parser.parse_args(argv)
    return 1 if compare(args.parent.resolve(), args.change.resolve()) else 0


if __name__ == "__main__":
    sys.exit(main())
