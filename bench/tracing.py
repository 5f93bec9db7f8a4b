"""In-process tracing of kmpcluster, installed from outside the package.

`install(tracer)` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and the call's work counts.
Stage functions are called through the modules that imported them
(`pipeline.ikc`, `cli.kmp_parse`), so the wrapper is put in place of
every reference a kmpcluster module holds, not only the defining one.
Kernels are called as `_kernels.name`, so one replacement covers them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and work counts of one traced run, kept in memory."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, func, args, kwargs, parent=None):
        """Run func inside a span; `parent` overrides the caller's span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = {"id": 0, "name": name, "parent": parent, "start": 0.0, "end": 0.0}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span["start"] = start - self._t0
            span["end"] = end - self._t0

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount


# -- what is traced ----------------------------------------------------------


def _member_arcs(args) -> int:
    """Sum of full-network degrees of the subset a kernel walks."""
    indptr, sub = args[0], args[2]
    return int((indptr[sub + 1] - indptr[sub]).sum())


def _loc_bytes(args) -> int:
    """A kernel that allocates an n-sized int64 `loc` array."""
    return 8 * (len(args[0]) - 1)


def _mask_bytes(args) -> int:
    """A kernel that receives an n-sized mask, side or owner array."""
    return int(args[2].nbytes)


# kernel name -> (span name, arc count or None, whole-network bytes)
KERNELS = {
    "peel": ("kernels.peel", _member_arcs, _loc_bytes),
    "component_labels": ("kernels.components", None, _loc_bytes),
    "extract_local_csr": ("kernels.local_csr", None, _loc_bytes),
    "subset_degrees": ("kernels.neighbor_count", None, _mask_bytes),
    "count_neighbors_in": ("kernels.neighbor_count", None, _mask_bytes),
    "induced_edges": ("kernels.neighbor_count", None, _mask_bytes),
    "cut_counts": ("kernels.neighbor_count", None, _mask_bytes),
    "matvec": ("kernels.matvec", lambda args: int(args[0][-1]), None),
    "sweep_objective": ("kernels.sweep_refine", None, None),
    "refine_split": ("kernels.sweep_refine", None, None),
    "best_cluster_per_node": ("kernels.attach", None, _mask_bytes),
}

# (module, function, span name) for the layers above the kernels
STAGES = (
    ("graph", "load_edge_list", "graph.load"),
    ("kcore", "ikc", "kcore.ikc"),
    ("kcore", "core_labels", "kcore.core_labels"),
    ("bisection", "iterative_split", "bisection.split"),
    ("bisection", "recursive_split", "bisection.split"),
    ("bisection", "bipartition", "bisection.bipartition"),
    ("augment", "augment", "augment.augment"),
    ("parsing", "kmp_parse", "parsing.kmp_parse"),
    ("parsing", "validate", "parsing.validate"),
    ("io", "load_clustering", "io.load_clustering"),
    ("io", "write_clustering", "io.write"),
    ("io", "write_node_list", "io.write"),
    ("io", "write_json", "io.write"),
    ("graph", "write_id_map", "io.write"),
)

# per-layer metric -> unit
PER_LAYER = {
    "graph.load_s": "s",
    "graph.from_edges_s": "s",
    "kcore.ikc_s": "s",
    "kcore.rounds": "count",
    "bisection.split_s": "s",
    "bisection.bipartitions": "count",
    "augment.augment_s": "s",
    "parsing.kmp_parse_s": "s",
    "parsing.validate_s": "s",
    "io.load_clustering_s": "s",
    "io.write_s": "s",
    "parallel.map_s": "s",
    "parallel.task_s": "s",
    "kernels.peel_s": "s",
    "kernels.peel_arcs": "count",
    "kernels.components_s": "s",
    "kernels.neighbor_count_s": "s",
    "kernels.scratch_mb": "MiB",
    "kernels.local_csr_s": "s",
    "kernels.matvec_s": "s",
    "kernels.matvec_arcs": "count",
    "kernels.sweep_refine_s": "s",
    "kernels.attach_s": "s",
}


def _wrap(tracer: Tracer, name: str, func, arcs=None, scratch=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if arcs is not None:
            tracer.add(name + "_arcs", arcs(args))
        if scratch is not None:
            tracer.add("kernels.scratch_bytes", scratch(args))
        return tracer.call(name, func, args, kwargs)

    return traced


def _wrap_map(tracer: Tracer, func):
    """ordered_map: one span for the map, one per task under it.

    Tasks may run on pool threads, whose span stacks are empty, so each
    task span names the map span as its parent explicitly.
    """

    @functools.wraps(func)
    def traced(task, items):
        def run(items):
            parent = tracer.current()

            def timed(item):
                return tracer.call("parallel.task", task, (item,), {}, parent=parent)

            return func(timed, items)

        return tracer.call("parallel.map", run, (items,), {})

    return traced


def _replace_everywhere(original, replacement, undo: list) -> None:
    for name, module in list(sys.modules.items()):
        if name != "kmpcluster" and not name.startswith("kmpcluster."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(tracer: Tracer):
    """Put the wrappers in place; returns a function that removes them."""

    def mod(name):
        return importlib.import_module("kmpcluster." + name)

    importlib.import_module("kmpcluster.cli")
    undo: list = []
    kernels = mod("_kernels")
    for kname, (span, arcs, scratch) in KERNELS.items():
        original = getattr(kernels, kname)
        _replace_everywhere(original, _wrap(tracer, span, original, arcs, scratch), undo)
    for module, fname, span in STAGES:
        original = getattr(mod(module), fname)
        _replace_everywhere(original, _wrap(tracer, span, original), undo)
    ordered_map = mod("parallel").ordered_map
    _replace_everywhere(ordered_map, _wrap_map(tracer, ordered_map), undo)

    network = mod("graph").Network
    from_edges = network.__dict__["from_edges"]
    network.from_edges = classmethod(
        _wrap(tracer, "graph.from_edges", from_edges.__func__)
    )
    undo.append((network, "from_edges", from_edges))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- reading a trace -----------------------------------------------------------


def durations(tracer: Tracer) -> dict[str, float]:
    """Total inclusive time per span name."""
    out: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        out[span["name"]] += span["end"] - span["start"]
    return out


def self_times(tracer: Tracer) -> dict[str, float]:
    """Per span name: time not covered by the span's own children."""
    child = defaultdict(float)
    for span in tracer.spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        out[span["name"]] += span["end"] - span["start"] - child[span["id"]]
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric of one traced run; 0 for layers not reached."""
    dur = durations(tracer)
    names = {s["id"]: s["name"] for s in tracer.spans}
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span["name"]] += 1
    rounds = sum(
        1
        for s in tracer.spans
        if s["name"] == "kcore.core_labels" and names.get(s["parent"]) == "kcore.ikc"
    )
    out = {}
    for metric in PER_LAYER:
        if metric == "kcore.rounds":
            out[metric] = float(rounds)
        elif metric == "bisection.bipartitions":
            out[metric] = float(calls["bisection.bipartition"])
        elif metric == "parallel.task_s":
            out[metric] = dur["parallel.task"]
        elif metric == "kernels.scratch_mb":
            out[metric] = tracer.counts["kernels.scratch_bytes"] / 2**20
        elif metric.endswith("_arcs"):
            out[metric] = float(tracer.counts[metric])
        else:
            out[metric] = dur[metric[: -len("_s")]]
    return out


def span_summary(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive time and self time."""
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span["name"]] += 1
    dur = durations(tracer)
    own = self_times(tracer)
    return {
        name: {"calls": calls[name], "total_s": dur[name], "self_s": own[name]}
        for name in sorted(calls)
    }


def as_arrays(tracer: Tracer) -> dict:
    """Spans as parallel lists, which keeps a large trace file compact."""
    spans = tracer.spans
    return {
        "name": [s["name"] for s in spans],
        "parent": [-1 if s["parent"] is None else s["parent"] for s in spans],
        "start": np.round([s["start"] for s in spans], 7).tolist(),
        "end": np.round([s["end"] for s in spans], 7).tolist(),
    }
