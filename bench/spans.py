"""In-memory spans around the benchmark's calls into stargrid.

A span records name, start, end, parent span, op id and the grid attributes
(m, n, N, k) of the op it belongs to.  Spans are kept in memory and written
out once, when the run ends.  ``NullTracer`` is the untraced stand-in: its
spans are one shared no-op context, so untraced runs pay almost nothing.

The per-layer metric names are defined here, once; ``BENCHMARK.json`` lists
the same names and ``smoke.py`` checks that the two agree.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Layer (module) -> the public functions the benchmark times in it.  `grid`
# has no call worth timing alone; its cost shows inside resolve and oracle.
FUNCTIONS = {
    "builder": ("dimension", "build_basis"),
    "resolve": ("is_resolving",),
    "auxgraph": ("build_aux_graph", "classify_components", "structural_audit"),
    "oracle": (
        "brute_force_dimension",
        "enumerate_minimum_bases",
        "exists_hub_free_basis",
        "brute_force_adjacency_dimension",
    ),
    "localize": ("code_table", "decode", "simulate"),
    "cli": ("main.basis", "main.verify", "main.hgraph"),
}

# Counts recorded at the same call sites.  oracle.candidates_planned is
# computed by the benchmark from (N, k), not reported by the oracle.
COUNTS = (
    ("resolve.is_resolving.witnesses", "count"),
    ("oracle.enumerate_minimum_bases.bases", "count"),
    ("oracle.candidates_planned", "count-computed"),
    ("localize.decode.ties", "count"),
    ("localize.simulate.trials", "count"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, funcs in FUNCTIONS.items():
        for func in funcs:
            base = f"{module}.{func}"
            specs += [
                (f"{base}.calls", "count", "higher"),
                (f"{base}.busy_s", "s", "lower"),
                (f"{base}.p50_ms", "ms", "lower"),
                (f"{base}.errors", "count", "lower"),
            ]
        specs += [(f"{module}.busy_s", "s", "lower"), (f"{module}.share", "ratio", "lower")]
    specs += [(name, unit, "higher") for name, unit in COUNTS]
    specs += [
        ("bench.check_s", "s", "lower"),
        ("bench.tracing_overhead", "ratio", "lower"),
    ]
    return specs


class _Span:
    __slots__ = ("tracer", "name", "attrs", "start", "sid")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        self.sid = next(tr.ids)
        tr.stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        a = self.attrs or {}
        tr.spans.append({
            "id": self.sid, "name": self.name, "start": self.start, "end": end,
            "parent": parent, "op": tr.op_id, "m": a.get("m"), "n": a.get("n"),
            "N": a.get("N"), "k": a.get("k"), "error": exc_type is not None,
        })
        if exc_type is not None:
            tr.errors[self.name] += 1
        return False


class Tracer:
    """Collects spans, counts and per-function result errors for one run.

    ``op_id`` is set by the measuring loop before each op; 0 marks set-up.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.ids = itertools.count(1)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.op_id = 0

    def span(self, name: str, attrs: dict | None = None) -> _Span:
        return _Span(self, name, attrs)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def error(self, name: str) -> None:
        self.errors[name] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Untraced run: every call is a no-op."""

    op_id = 0
    _null = contextlib.nullcontext()

    def span(self, name, attrs=None):
        return self._null

    def count(self, name, value=1):
        pass

    def error(self, name):
        pass


def summarize(tracer: Tracer, wall_s: float, check_s: float, overhead: float) -> dict:
    """Per-layer metrics from the spans of the measured phase (op id > 0).

    Busy time is the summed span duration.  The package spans do not nest,
    so a function's self time equals its busy time; ``self_times`` gives
    self time for every span name, the benchmark's own included.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        if s["op"] > 0:
            durations[s["name"]].append(s["end"] - s["start"])
    metrics: dict[str, tuple[float, str]] = {}
    for module, funcs in FUNCTIONS.items():
        module_busy = 0.0
        for func in funcs:
            base = f"{module}.{func}"
            d = durations.get(base, [])
            busy = sum(d)
            module_busy += busy
            metrics[f"{base}.calls"] = (len(d), "count")
            metrics[f"{base}.busy_s"] = (busy, "s")
            metrics[f"{base}.p50_ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
            metrics[f"{base}.errors"] = (tracer.errors[base], "count")
        metrics[f"{module}.busy_s"] = (module_busy, "s")
        metrics[f"{module}.share"] = (module_busy / wall_s if wall_s > 0 else 0.0, "ratio")
    for name, unit in COUNTS:
        metrics[name] = (tracer.counts[name], unit)
    metrics["bench.check_s"] = (check_s, "s")
    metrics["bench.tracing_overhead"] = (overhead, "ratio")
    return metrics


def self_times(tracer: Tracer) -> dict[str, dict]:
    """Calls, busy and self seconds per span name over the measured phase."""
    child_time: Counter = Counter()
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in tracer.spans:
        if s["op"] <= 0:
            continue
        row = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - child_time[s["id"]]
    return out
