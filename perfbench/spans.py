"""Span recorder for the traced run, attached from outside the program.

`Tracer.attached()` replaces each traced function, wherever a `curator`
module holds a reference to it, with a wrapper that records a span: name,
start, end, parent span and operation id, plus counters computed from the
call's arguments and result.  Spans stay in memory until the run writes
them out.  Spans inside forked pool workers are lost with the worker.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field


def _bytes_read(args, kwargs, dataset):
    config = args[0]
    return {"bytes_read": sum(a.size for a in dataset.fields.values()) * config.precision}


def _partition(args, kwargs, blocks):
    copied = sum(v.nbytes for b in blocks for v in b.values.values())
    return {"bytes_copied": copied, "cubes": len(blocks)}


def _assign(args, kwargs, labels):
    return {"points": len(labels)}


def _kl_pairs(args, kwargs, graph):
    n = graph.A.shape[0]
    return {"kl_pairs": n * (n - 1)}


def _pipeline(args, kwargs, sample):
    config = args[0]
    cell = (config.method, str(sample.provenance["seed"]))
    return {"rows": len(sample), "cubes": len(sample.provenance["cube_ranges"]),
            "cell": cell}


def _csv_bytes(args, kwargs, _result):
    return {"csv_bytes": os.path.getsize(args[1])}


def _parallel_map(args, kwargs, _result):
    _fn, items, workers = args
    return {"items": len(items), "pools": int(workers > 1 and len(items) > 1)}


# (module, attribute, counters computed from (args, kwargs, result)).
# An attribute "Class.method" is replaced on the class.
TRACED = [
    ("grid", "load_dataset", _bytes_read),
    ("grid", "partition_hypercubes", _partition),
    ("clustering", "kmeans_fit", None),
    ("clustering", "assign", _assign),
    ("entropy", "adjacency_matrix", _kl_pairs),
    ("entropy", "weighted_sample", None),
    ("entropy", "allocate_counts", None),
    ("samplers", "run_pipeline", _pipeline),
    ("samplers", "select_hypercubes_maxent", None),
    ("samplers", "select_hypercubes_random", None),
    ("samplers", "sample_maxent_points", None),
    ("samplers", "sample_lhs", None),
    ("samplers", "sample_uips", None),
    ("samplers", "sample_stratified", None),
    ("samplers", "sample_random", None),
    ("samplers", "SampleSet.to_csv", _csv_bytes),
    ("bench", "parallel_map", _parallel_map),
    ("metrics", "compare_methods", None),
    ("metrics", "coverage_report", None),
    ("metrics", "histogram_comparison_csv", None),
]
POOL_SPAN = "bench.parallel_map"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for none
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the operations run while it is attached."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.counts = counters(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """Trace one operation: its root span "op" and every traced call in it."""
        self.op = op
        root = Span("op", 0.0, 0.0, -1, op)
        self.spans.append(root)
        self._stack.append(len(self.spans) - 1)
        with self.attached():
            root.start = time.perf_counter()
            try:
                yield root
            finally:
                root.end = time.perf_counter()
                self._stack.pop()

    @contextlib.contextmanager
    def attached(self):
        """Replace every traced function in the loaded curator modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "curator" or name.startswith("curator."))]
        undo = []
        try:
            for mod_name, attr, counters in TRACED:
                module = sys.modules[f"curator.{mod_name}"]
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original, counters))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, counters)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)


def aggregate(spans: list[Span], op: int, pool_side: bool | None = None) -> dict[str, dict]:
    """Sum one operation's spans by name.

    For each name: "s" (busy seconds, outermost span of that name only),
    "self_s" (duration minus the time covered by child spans), "calls",
    and every counter summed; "cells" collects run_pipeline's distinct
    (method, seed) pairs.  pool_side=True keeps only spans below a pool
    span, False only spans outside one, None all.
    """
    below_pool: dict[int, bool] = {}
    ancestors: dict[int, frozenset] = {}
    child_seconds: dict[int, float] = {}
    chosen = []
    # spans are appended when they start, so a parent precedes its children
    for i, s in enumerate(spans):
        if s.op != op:
            continue
        p = s.parent
        below_pool[i] = p >= 0 and (spans[p].name == POOL_SPAN or below_pool[p])
        ancestors[i] = (ancestors[p] | {spans[p].name}) if p >= 0 else frozenset()
        if p >= 0:
            child_seconds[p] = child_seconds.get(p, 0.0) + s.seconds
        if pool_side is None or below_pool[i] == pool_side:
            chosen.append(i)
    out: dict[str, dict] = {}
    for i in chosen:
        s = spans[i]
        a = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "cells": set()})
        if s.name not in ancestors[i]:
            a["s"] += s.seconds
        a["self_s"] += s.seconds - child_seconds.get(i, 0.0)
        a["calls"] += 1
        for key, value in s.counts.items():
            if key == "cell":
                a["cells"].add(value)
            else:
                a[key] = a.get(key, 0) + value
    return out


def merge(*aggs: dict[str, dict]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for agg in aggs:
        for name, a in agg.items():
            b = out.setdefault(name, {"cells": set()})
            for key, value in a.items():
                b[key] = (b.get(key, set()) | value) if key == "cells" else b.get(key, 0) + value
    return out


# Counters derived from array sizes or file sizes rather than timed.
COMPUTED = (
    "grid.load_dataset.bytes_read", "grid.partition.bytes_copied", "entropy.kl_pairs",
    "samplers.csv_bytes", "bench.pools_started", "cli.pipeline_runs",
)


def layer_metrics(agg: dict[str, dict], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation of `wall` seconds."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for module, attr, _ in TRACED:
        name = f"{module}.{attr}"
        m[f"{name}.s"] = float(get(name, "s"))
        m[f"{name}.calls"] = get(name, "calls")
    runs = get("samplers.run_pipeline", "calls")
    extracted = get("grid.partition_hypercubes", "cubes")
    m.update({
        "samplers.run_pipeline.self_s": float(get("samplers.run_pipeline", "self_s")),
        "grid.load_dataset.bytes_read": get("grid.load_dataset", "bytes_read"),
        "grid.partition.bytes_copied": get("grid.partition_hypercubes", "bytes_copied"),
        "grid.cubes_used_frac": get("samplers.run_pipeline", "cubes") / extracted if extracted else 0.0,
        "clustering.assign.points": get("clustering.assign", "points"),
        "clustering.kmeans_fit.share": get("clustering.kmeans_fit", "s") / wall,
        "entropy.kl_pairs": get("entropy.adjacency_matrix", "kl_pairs"),
        "entropy.adjacency_matrix.share": get("entropy.adjacency_matrix", "s") / wall,
        "samplers.rows": get("samplers.run_pipeline", "rows"),
        "samplers.csv_bytes": get("samplers.SampleSet.to_csv", "csv_bytes"),
        "bench.parallel_map.items": get("bench.parallel_map", "items"),
        "bench.pools_started": get("bench.parallel_map", "pools"),
        "cli.pipeline_runs": runs,
        "cli.pipeline_runs_useful_frac":
            len(agg.get("samplers.run_pipeline", {}).get("cells", ())) / runs if runs else 0.0,
    })
    return m
