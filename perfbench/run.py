"""Benchmark of the twisteq package: one closed-loop client, one thread.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the package is imported from
``src/`` and the configs read from ``configs/`` next to this directory.
Each operation's inputs come from ``--seed`` and the operation index; the
next operation starts only after the previous one has completed and been
checked.  A fixed pure-Python reference loop is timed right before each
timed step, and latencies are gated in units of that loop ("ref"), so that
the host's changing speed cancels out.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced blocks and
prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the line
before it holds the environment and the tail percentile used.  A fuller
record, and the spans of a traced run, are written under ``.perfbench/``.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

WORKLOAD_NAMES = ("suites", "shared-sweep", "fresh-grid")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up is repeated and its median reported, so one slow start does not
# decide the figure.
SETUP_ROUNDS = 5
TAIL_BEYOND = 10
# Input streams: measured and warm-up inputs never coincide, and the traced
# phase draws its own inputs so that it shares no grid with the untraced one.
MEASURED, WARMUP, TRACED = 0, 1, 2
BLOCK_SECONDS = 0.25
# About 1 ms of interpreter work on a 2-vCPU Xeon; see reference_loop.
REFERENCE_ITERATIONS = 8000
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}
MAX_PROBLEMS_SHOWN = 20


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def missing_sources(root: Path) -> str | None:
    """What the checkout lacks to run the benchmark, or None."""
    if not (root / "src" / "twisteq" / "__init__.py").is_file():
        return f"no twisteq sources under {root / 'src'}"
    if not any((root / "configs").glob("*.cfg")):
        return f"no shipped configs under {root / 'configs'}"
    return None


def cpu_info() -> dict[str, str]:
    """CPU model and last-level cache size as /proc/cpuinfo reports them."""
    info = {"cpu_model": "unknown", "cache_size": "unknown"}
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return info
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and info["cpu_model"] == "unknown":
            info["cpu_model"] = value.strip()
        elif key == "cache size" and info["cache_size"] == "unknown":
            info["cache_size"] = value.strip()
    return info


def environment() -> dict:
    import numpy
    import twisteq

    return {
        "twisteq": twisteq.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        **cpu_info(),
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum if there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def reference_loop() -> int:
    """Fixed interpreter work that shares no code with twisteq.

    The same operation runs up to twice as slowly for tens of seconds at a
    time when other tenants load the shared host, and its thread CPU time
    rises with its wall time.  Timed right before every step, this loop
    slows by about the same factor, so a step's latency divided by the
    loop's (its cost in "ref") measures the program, not the host.
    """
    table = {}
    total = 0
    for k in range(REFERENCE_ITERATIONS):
        table[k % 97] = total
        total += (k * k) % 7
    return total


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


@dataclass
class Phase:
    """Outcome of one timed closed loop."""

    latencies: list[float] = field(default_factory=list)
    # Reference timings taken before each step of each operation, and one
    # taken after the last operation.
    references: list[list[float]] = field(default_factory=list)
    closing_reference: float | None = None
    parts: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_op(workload, stream: int, i: int, phase: Phase, tracer=None) -> None:
    """Prepare, time and check one operation, recording into ``phase``.

    Each step is timed on its own, right after a timing of the reference
    loop; the operation's latency is the sum of its steps' latencies.
    """
    inputs = workload.prepare(stream, i)
    outputs, seconds, references, error = [], {}, [], None
    if tracer is not None:
        tracer.begin_op(i)
    for label, step in workload.steps(inputs):
        references.append(time_reference())
        t0 = perf_counter()
        try:
            outputs.append(step())
        except Exception:  # a failing operation is counted, never fatal
            error = traceback.format_exc(limit=4)
        elapsed = perf_counter() - t0
        seconds[label] = elapsed
        if error is not None:
            break
    if tracer is not None:
        tracer.end_op(paused_seconds=sum(references))
    phase.latencies.append(sum(seconds.values()))
    phase.references.append(references)
    if error is None:
        for label, elapsed in seconds.items():
            phase.parts.setdefault(label, []).append(elapsed)
        try:
            found = workload.check(inputs, outputs)
        except Exception:
            found = [traceback.format_exc(limit=4)]
    else:
        found = [error]
    if found:
        phase.failed += 1
        phase.problems += [f"{workload.name} op {stream}/{i}: {p}" for p in found]


def measure(workload, seconds: float, stream: int) -> Phase:
    """Closed loop over operations 0, 1, ... of ``stream`` for ``seconds``."""
    phase = Phase()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        run_op(workload, stream, i, phase)
        i += 1
        if perf_counter() >= deadline:
            phase.closing_reference = time_reference()
            return phase


def require_unwrapped() -> None:
    from spans import wrapped_bindings

    bound = wrapped_bindings()
    if bound:
        raise RuntimeError(f"untraced run found tracing wrappers: {bound[:5]}")


def measure_alternating(workload, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced blocks of at least BLOCK_SECONDS each.

    Alternating short blocks exposes both halves to the same machine load,
    so the ratio of their medians measures the cost of tracing rather than
    a change in load between two halves of the run.
    """
    untraced, traced = Phase(), Phase()
    next_op = {MEASURED: 0, TRACED: 0}
    deadline = perf_counter() + seconds
    while True:
        for stream, phase in ((MEASURED, untraced), (TRACED, traced)):
            if stream == MEASURED:
                require_unwrapped()
                context = contextlib.nullcontext()
            else:
                context = tracer.installed()
            with context:
                block_end = perf_counter() + BLOCK_SECONDS
                while True:
                    run_op(workload, stream, next_op[stream], phase,
                           tracer if stream == TRACED else None)
                    next_op[stream] += 1
                    if perf_counter() >= block_end:
                        break
        if perf_counter() >= deadline:
            return untraced, traced


def set_up(workload, root: Path, rounds: int) -> tuple[list[float], list[str]]:
    """Repeat the set-up; each round is a cold ``import twisteq`` in a child
    interpreter plus the workload's set-up pass and warm-up operations."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    times, problems = [], []
    warm = workload.warmup_ops
    for r in range(rounds):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import twisteq"],
            cwd=root, env=env, check=True, timeout=120, capture_output=True,
        )
        problems += workload.set_up()
        phase = Phase()
        for j in range(warm):
            run_op(workload, WARMUP, r * warm + j, phase)
        problems += phase.problems
        times.append(perf_counter() - t0)
    return times, problems


def costs(phase: Phase) -> list[float]:
    """Each operation's latency in ref: over the mean of the reference timings
    taken before each of its steps and the one taken right after it, which
    sample the host's speed across the operation."""
    after = [refs[0] for refs in phase.references[1:]] + [phase.closing_reference]
    return [
        latency / statistics.fmean(refs + [last])
        for latency, refs, last in zip(phase.latencies, phase.references, after)
    ]


def end_to_end(phase: Phase, setup_times: list[float]) -> tuple[dict[str, float], dict]:
    passed = phase.attempted - phase.failed
    cost = costs(phase)
    cost_tail, percentile, beyond = tail(cost)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_kref": 1e3 * passed / sum(cost),
        "op_p50_ref": statistics.median(cost),
        "op_tail_ref": cost_tail,
        "pass_ratio": passed / phase.attempted,
        "peak_rss_mb": rss / 1024.0,
    }
    # Wall-clock operation figures move with the host's speed; they are
    # recorded, not gated.
    info = {"op_tail_percentile": percentile, "op_tail_beyond": beyond,
            "samples": phase.attempted, "setup_rounds_s": setup_times,
            "wall": {"ops_per_s": passed / sum(phase.latencies),
                     "op_p50_ms": 1e3 * statistics.median(phase.latencies),
                     "op_tail_ms": 1e3 * tail(phase.latencies)[0],
                     "ref_p50_ms": 1e3 * statistics.median(
                         r for refs in phase.references for r in refs)},
            "latencies_s": phase.latencies, "references_s": phase.references}
    return metrics, info


def per_layer(untraced: Phase, traced: Phase, tracer, config_names) -> dict[str, float]:
    metrics = tracer.summary()
    for name in config_names:
        times = untraced.parts.get(name)
        metrics[f"suite_p50_ms.{name}"] = 1e3 * statistics.median(times) if times else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.latencies) / statistics.median(untraced.latencies) - 1.0
    )
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result line, record)."""
    from spans import Tracer
    from workloads import make_workload

    state_dir = root / ".perfbench"
    work_dir = state_dir / f"work-{os.getpid()}"
    try:
        workload = make_workload(name, seed, root, work_dir)
        setup_times, setup_problems = set_up(workload, root, 1 if trace else SETUP_ROUNDS)
        config_names = tuple(p.stem for p in sorted((root / "configs").glob("*.cfg")))
        if not trace:
            require_unwrapped()
            phases = [measure(workload, seconds, MEASURED)]
            metrics, info = end_to_end(phases[0], setup_times)
        else:
            tracer = Tracer()
            untraced, traced = measure_alternating(workload, seconds, tracer)
            phases = [untraced, traced]
            metrics = per_layer(untraced, traced, tracer, config_names)
            info = {"traced_ops": traced.attempted, "untraced_ops": untraced.attempted}
            tracer.save(state_dir / "traces" / f"{name}-seed{seed}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = setup_problems + [x for p in phases for x in p.problems]
    for key, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {key} is not finite: {value}")
    unit = layer_unit if trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit(key)}
            for key, value in metrics.items()
        },
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), **info, "problems": problems, "result": result,
    }
    return result, record


def layer_unit(key: str) -> str:
    if key.endswith(".calls") or key in ("mellin.fft_points", "trace.spans_per_op"):
        return "count"
    if key.endswith("_ms") or key.startswith("suite_p50_ms."):
        return "ms"
    if key == "mellin.fft_bytes_computed":
        return "B"
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    problem = missing_sources(root)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # Pinned before numpy loads; child interpreters inherit the setting.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the whole run, child interpreters included, so that every
    # reference timing sees the same CPU, and the same co-tenants, as the
    # work it is compared with.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    import twisteq

    if Path(twisteq.__file__).resolve().parent != root / "src" / "twisteq":
        print(f"perfbench: imported twisteq from {twisteq.__file__}", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    out = root / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in record["problems"][:MAX_PROBLEMS_SHOWN]:
        print(line, file=sys.stderr)
    summary = {k: record[k] for k in record
               if k not in ("result", "problems", "latencies_s", "references_s")}
    summary["problems"] = len(record["problems"])
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
