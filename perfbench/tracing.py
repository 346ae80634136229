"""Spans around the package's module-level functions during a CLI run.

The traced run calls ``mfdma.cli.main`` in this process with the same
command line as the timed runs.  While it runs, each function in ``HOOKS``
is replaced, on the module that looks it up, by a wrapper that opens a span
around the call; the originals are put back afterwards.  Nothing in the
package's files changes.  Because the spans sit on the names the real path
calls, their counts follow the program: a restructured path shows as
changed counts and times, not as a stale copy of the old path.

Spans stay in memory and are written out when the run ends.  A layer's time
is the self time of its spans: duration minus the time covered by their
direct children.  The ``cli.main`` root span and the per-estimator ``pass``
spans are containers, so their self time (argument parsing, digests,
printed summaries, loop overhead) is ``trace.unattributed_s``.  MFDFA's
per-q power means are ``dma1d.power_mean`` spans inside ``dma1d.mfdfa``, so
``dma1d.mfdfa_s`` is the rest of that call.  A layer that a workload does
not use reads 0 on it.

``trace.overhead_s`` is the traced run's wall time plus ``cli.import_s``
minus the wall time of the untraced CLI.  Interpreter start-up is in the
latter only, so it can be negative.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "pipeline.ingest_s": ("s", "lower"),
    "pipeline.ingest_calls": ("count", "lower"),
    "pipeline.ingest_ns_per_value": ("ns", "lower"),
    "pipeline.emit_s": ("s", "lower"),
    "pipeline.emit_bytes": ("bytes", "lower"),
    "dma1d.profile_s": ("s", "lower"),
    "dma1d.detrend_s": ("s", "lower"),
    "dma1d.detrend_ns_per_point": ("ns", "lower"),
    "dma1d.segment_rms_s": ("s", "lower"),
    "dma1d.power_mean_s": ("s", "lower"),
    "dma1d.power_mean_calls": ("count", "lower"),
    "dma1d.mfdfa_s": ("s", "lower"),
    "dma2d.window_aggregates_s": ("s", "lower"),
    "dma2d.window_aggregates_ns_per_cell": ("ns", "lower"),
    "dma2d.residual_s": ("s", "lower"),
    "dma2d.segment_rms_s": ("s", "lower"),
    "dma2d.power_mean_s": ("s", "lower"),
    "spectrum.fit_s": ("s", "lower"),
    "spectrum.legendre_s": ("s", "lower"),
    "generators.shuffle_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# spans around calls into a layer; each gives the metric "<name>_s"
LAYER_SPANS = (
    "pipeline.ingest", "pipeline.emit", "dma1d.profile", "dma1d.detrend",
    "dma1d.segment_rms", "dma1d.power_mean", "dma1d.mfdfa",
    "dma2d.window_aggregates", "dma2d.residual", "dma2d.segment_rms",
    "dma2d.power_mean", "spectrum.fit", "spectrum.legendre", "generators.shuffle",
)
CONTAINERS = ("cli.main", "pass")


class Span:
    """One timed call; also its own context manager."""

    __slots__ = ("trace", "id", "parent", "name", "start", "end", "work", "_stack")

    def __init__(self, trace, span_id, parent, name, stack):
        self.trace = trace
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0
        self.work = 0  # values, points, cells or bytes the call handled
        self._stack = stack

    def __enter__(self):
        self._stack.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()
        self._stack.pop()
        return False

    def as_dict(self):
        return {
            "trace": self.trace, "id": self.id, "parent": self.parent, "name": self.name,
            "start_ns": self.start, "end_ns": self.end, "work": self.work,
        }


class Tracer:
    """Collects spans in memory; one trace id per traced CLI run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[int] = []

    def span(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(self.trace, len(self.spans), parent, name, self._stack)
        self.spans.append(s)
        return s

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.as_dict()) + "\n")


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced run's spans, and its wall time."""
    covered = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s in spans:
        self_ns[s.name] += (s.end - s.start) - covered[s.id]
        calls[s.name] += 1
        work[s.name] += s.work

    def per_unit(name):
        return self_ns[name] / work[name] if work[name] else 0.0

    out = {f"{name}_s": self_ns[name] / 1e9 for name in LAYER_SPANS}
    out["pipeline.ingest_calls"] = calls["pipeline.ingest"]
    out["pipeline.ingest_ns_per_value"] = per_unit("pipeline.ingest")
    out["pipeline.emit_bytes"] = work["pipeline.emit"]
    out["dma1d.detrend_ns_per_point"] = per_unit("dma1d.detrend")
    out["dma1d.power_mean_calls"] = calls["dma1d.power_mean"]
    out["dma2d.window_aggregates_ns_per_cell"] = per_unit("dma2d.window_aggregates")
    out["trace.unattributed_s"] = sum(self_ns[c] for c in CONTAINERS) / 1e9
    root = next(s for s in spans if s.name == "cli.main")
    return out, (root.end - root.start) / 1e9


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}


# ---------------------------------------------------------------------------
# hooks on the names the CLI path looks up at call time


def _values(result):
    return result.values.size


def _bytes(written):
    return sum(Path(p).stat().st_size for p in written)


# (module, function, span, work of the call from its result)
HOOKS = (
    ("mfdma.cli", "ingest_series", "pipeline.ingest", _values),
    ("mfdma.cli", "shuffle_surrogate", "generators.shuffle", None),
    ("mfdma.cli", "emit_results", "pipeline.emit", _bytes),
    ("mfdma.pipeline", "ingest_series", "pipeline.ingest", _values),
    ("mfdma.pipeline", "ingest_surface", "pipeline.ingest", _values),
    ("mfdma.pipeline", "mfdma_fluctuations_1d", "pass", None),
    ("mfdma.pipeline", "mfdfa_fluctuations_1d", "dma1d.mfdfa", None),
    ("mfdma.pipeline", "mfdma_fluctuations_2d", "pass", None),
    ("mfdma.pipeline", "fit_scaling", "spectrum.fit", None),
    ("mfdma.pipeline", "legendre_spectrum", "spectrum.legendre", None),
    ("mfdma.dma1d", "profile", "dma1d.profile", None),
    ("mfdma.dma1d", "_compensated_cumsum", "dma1d.profile", None),
    ("mfdma.dma1d", "residual_series", "dma1d.detrend", lambda r: r.size),
    ("mfdma.dma1d", "segment_rms", "dma1d.segment_rms", None),
    ("mfdma.dma1d", "_power_mean", "dma1d.power_mean", None),
    ("mfdma.dma2d", "window_aggregates", "dma2d.window_aggregates", lambda a: a.total.size),
    ("mfdma.dma2d", "residual_matrix_2d", "dma2d.residual", None),
    ("mfdma.dma2d", "segment_rms_2d", "dma2d.segment_rms", None),
    ("mfdma.dma2d", "_power_mean", "dma2d.power_mean", None),
)


def _traced(tracer, name, work, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if work is not None:
            s.work = work(result)
        return result

    return call


@contextmanager
def hooked(tracer: Tracer):
    """Install the span wrappers; yields the hooks whose function is missing."""
    installed, missing = [], []
    try:
        for module_name, attr, name, work in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            installed.append((module, attr, fn))
            setattr(module, attr, _traced(tracer, name, work, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)
