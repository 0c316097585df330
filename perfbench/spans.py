"""Span tracing of twisteq's layers from outside the package.

``Tracer.installed()`` wraps every public function of the layer modules and
rebinds the wrapper under each name that refers to the original in any
loaded ``twisteq`` namespace (``solver`` and ``cli`` import many functions
by name).  Leaving the block restores every original binding.

While an operation is open (``begin_op`` .. ``end_op``) each wrapped call
records one span: name, start, end, parent span and operation id, kept in
flat integer arrays and written out by ``save``.  Calls outside an
operation (input generation, correctness checks) record nothing.  A few
wrappers also feed counters, taken before the span starts so that their
cost is not charged to the layer: distinct forward transforms, distinct
samplings and FFT sizes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

PACKAGE = "twisteq"
LAYERS = ("cli", "cocycle", "solver", "reps", "mellin", "families", "grid")

# ROADMAP stages whose calls and self time are reported one by one.
STAGES = (
    "families.sample_terms",
    "grid.decay_admissible",
    "mellin.mellin_line",
    "mellin.mellin_inverse_line",
    "solver.solve_mellin",
    "solver.solve_semigroup",
    "solver.residual",
    "solver.obstruction",
    "reps.fractional_weight",
    "cli.write_reports",
)

# Wrapped functions that also feed a counter, and the Tracer method that does it.
PROBES = {
    "mellin.mellin_line": "_probe_mellin_line",
    "mellin.mellin_inverse_line": "_probe_mellin_inverse_line",
    "mellin.spectral_dx": "_probe_spectral_dx",
    "families.sample_terms": "_probe_sample_terms",
}

MARKER = "__perfbench_original__"
# complex128 input read plus output written by one FFT of n points.
FFT_BYTES_PER_POINT = 2 * 16


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _digest(values: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(values).data, digest_size=16).digest()


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def layer_functions() -> dict[str, object]:
    """Public functions defined in each layer module, by ``layer.name``."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[f"{layer}.{attr}"] = value
        if not any(name.startswith(f"{layer}.") for name in found):
            raise RuntimeError(f"layer {layer} has no public functions")
    return found


def wrapped_bindings() -> list[str]:
    """Names in loaded package namespaces that are bound to a tracing wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, MARKER)
    ]


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once.
    """
    children: list[list[int]] = [[] for _ in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = start[i], end[i]
        covered = 0
        run_lo = run_hi = None
        for c in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """In-memory span recorder for one process; one operation open at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current = -1
        self.op_id = -1
        self.op_ns: list[int] = []
        self.transforms = 0
        self.distinct_transforms = 0
        self.samples = 0
        self.distinct_samples = 0
        self.fft_points = 0
        self._seen_lines: set = set()
        self._seen_samples: set = set()
        self._op_start = 0
        self._wrappers: dict[int, object] | None = None

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.current = -1
        self._seen_lines.clear()
        self._seen_samples.clear()
        self._op_start = perf_counter_ns()

    def end_op(self, paused_seconds: float = 0.0) -> None:
        """Close the operation; ``paused_seconds`` of benchmark work done
        inside it (reference timings between steps) is not its time."""
        self.op_ns.append(perf_counter_ns() - self._op_start - int(1e9 * paused_seconds))
        self.distinct_transforms += len(self._seen_lines)
        self.distinct_samples += len(self._seen_samples)
        self.op_id = -1

    # -- counters ---------------------------------------------------------

    def _probe_mellin_line(self, args, kwargs) -> None:
        f = _arg(args, kwargs, 0, "f")
        self.transforms += 1
        self.fft_points += f.grid.n_points
        self._seen_lines.add((_digest(f.values), f.grid, float(_arg(args, kwargs, 1, "a"))))

    def _probe_mellin_inverse_line(self, args, kwargs) -> None:
        self.fft_points += _arg(args, kwargs, 1, "grid").n_points

    def _probe_spectral_dx(self, args, kwargs) -> None:
        self.fft_points += 2 * len(_arg(args, kwargs, 0, "values"))

    def _probe_sample_terms(self, args, kwargs) -> None:
        self.samples += 1
        self._seen_samples.add((_arg(args, kwargs, 0, "terms"), _arg(args, kwargs, 1, "grid")))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = getattr(self, PROBES[name]) if name in PROBES else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(args, kwargs)
            span = len(tracer.start)
            parent = tracer.current
            tracer.name_id.append(name_id)
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.current = span
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer.start[span] = t0
                tracer.end[span] = t1
                tracer.current = parent

        setattr(wrapper, MARKER, fn)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind wrappers in every package namespace; restore the originals on exit."""
        if self._wrappers is None:
            originals = layer_functions()
            missing = sorted((set(STAGES) | set(PROBES)) - set(originals))
            if missing:
                raise RuntimeError(f"traced stages are not public functions: {missing}")
            self._wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        wrappers = self._wrappers
        rebound = []
        try:
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and getattr(wrapper, MARKER) is value:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-operation layer and stage metrics over every traced operation."""
        ops = len(self.op_ns)
        if ops == 0:
            raise RuntimeError("no traced operations")
        total_ns = sum(self.op_ns)
        self_ns = self_times(self.start, self.end, self.parent)
        calls = {name: 0 for name in self.names}
        busy = {name: 0 for name in self.names}
        for name_id, ns in zip(self.name_id, self_ns):
            name = self.names[name_id]
            calls[name] += 1
            busy[name] += ns
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.names if n.split(".", 1)[0] == layer]
            layer_ns = sum(busy[n] for n in names)
            metrics[f"{layer}.calls"] = sum(calls[n] for n in names) / ops
            metrics[f"{layer}.self_ms"] = layer_ns / ops / 1e6
            metrics[f"{layer}.self_share"] = layer_ns / total_ns
        for stage in STAGES:
            metrics[f"{stage}.calls"] = calls.get(stage, 0) / ops
            metrics[f"{stage}.self_ms"] = busy.get(stage, 0) / ops / 1e6
        metrics["mellin.distinct_transform_ratio"] = (
            self.distinct_transforms / self.transforms if self.transforms else 0.0
        )
        metrics["families.distinct_sample_ratio"] = (
            self.distinct_samples / self.samples if self.samples else 0.0
        )
        metrics["mellin.fft_points"] = self.fft_points / ops
        metrics["mellin.fft_bytes_computed"] = FFT_BYTES_PER_POINT * self.fft_points / ops
        metrics["trace.spans_per_op"] = len(self.start) / ops
        return metrics

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            op_ns=np.array(self.op_ns, dtype=np.int64),
        )
