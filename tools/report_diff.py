"""Run every shipped config under two checkouts and compare the reports.

    python tools/report_diff.py --parent ../parent [--change .]

Each `configs/*.cfg` of the change is run through
`python -W error -m twisteq run <config> --out <dir>`, once with each
checkout's `src` on `PYTHONPATH`, inside a temporary directory.  The exit
code, stdout, stderr and every report file are compared byte for byte; for
each that differs the first differing line is printed.  The exit status is
1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
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


def compare(parent: Path, change: Path) -> int:
    """Print each differing output per config; return how many differ."""
    differing = 0
    configs = sorted((change / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            runs = []
            for side, checkout in (("parent", parent), ("change", change)):
                work = Path(tmp) / config.stem / side
                work.mkdir(parents=True)
                runs.append(_run(checkout, config, work / "out"))
            old, new = runs
            names = sorted(old.keys() | new.keys())
            diffs = [name for name in names if old.get(name) != new.get(name)]
            print(f"{config.name}: {len(names) - len(diffs)}/{len(names)} outputs identical")
            for name in diffs:
                print(f"  {name}: {_first_difference(old.get(name), new.get(name))}")
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
