"""In-memory spans around calls into the bookcross layers, recorded from outside.

``install`` replaces each layer entry point, wherever a bookcross module holds a
reference to it, by a wrapper that records a span: name, layer, start, end,
parent span and run id, plus counts taken at the same boundary (graph edges,
search nodes, clique size, ...).  Counts are computed after the span's end
timestamp, so their cost shows up in the trace overhead, not in a layer.

Spans live in a list until the pass ends; ``Tracer.dump`` writes them as JSON
lines and ``layer_metrics`` derives every per-layer metric from such a file.
Span times are CPU time of the process (user + system), the clock the
end-to-end ``norm_cpu_s`` is taken on before it is scaled, so hypervisor
steal on a shared host does not land in a layer.  A span's self time is its duration minus the durations of its
direct children (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function, layer).  A function listed under one layer and called
# from another becomes a child span there, e.g. count_crossings inside the
# validation of balanced_embedding is drawings.count_crossings time, not
# constructions time.
TARGETS = (
    ("bookcross.enumeration", "necklace_classes", "enumeration"),
    ("bookcross.enumeration", "enumerate_layouts", "enumeration"),
    ("bookcross.coloring", "conflict_graph", "coloring.conflict_graph"),
    ("bookcross.coloring", "find_clique", "coloring.clique"),
    ("bookcross.coloring", "is_k_colorable", "coloring.search"),
    ("bookcross.coloring", "check_layout", "coloring.verify"),
    ("bookcross.coloring", "verify_positive_crossing", "coloring.verify"),
    ("bookcross.constructions", "balanced_embedding", "constructions"),
    ("bookcross.constructions", "blowup", "constructions"),
    ("bookcross.constructions", "block_cyclic", "constructions"),
    ("bookcross.constructions", "riskin_drawing", "constructions"),
    ("bookcross.drawings", "count_crossings", "drawings.count_crossings"),
    ("bookcross.oracle", "brute_force_run", "oracle"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def _counts(func: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts recorded at one layer boundary."""
    if func == "necklace_classes":
        return {"classes": len(result)}
    if func == "conflict_graph":
        return {"edges": result.edge_count}
    if func == "find_clique":
        return {"size": len(result)}
    if func == "is_k_colorable":
        k = args[1] if len(args) > 1 else kwargs["k"]
        return {"k": k, "status": result.status, "nodes": result.nodes}
    if func in ("balanced_embedding", "blowup", "block_cyclic", "riskin_drawing"):
        return {"edges": len(result.pages)}
    if func == "count_crossings":
        return {"edges": len(args[0].pages)}
    if func == "brute_force_run":
        return {"nodes": result.nodes}
    return {}


class Tracer:
    """Span recorder for one pass; ``run_id`` tags every span it records."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> dict:
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.process_time()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.process_time()
        self._stack.pop()

    def wrap(self, func, layer: str):
        name = func.__name__

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            span.update(_counts(name, args, kwargs, result))
            return result

        return traced

    def wrap_generator(self, func, layer: str):
        """One span per ``next`` so the span covers the generator's own work."""
        name = func.__name__

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                span = self._open(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Route every bookcross reference to a layer entry point through ``tracer``."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "bookcross"]
    for module_name, func_name, layer in TARGETS:
        original = getattr(sys.modules[module_name], func_name)
        wrap = tracer.wrap_generator if inspect.isgeneratorfunction(original) else tracer.wrap
        traced = wrap(original, layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(spans: list[dict], pass_cpu_s: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    self_s = defaultdict(float)
    for s in spans:
        own = s["end"] - s["start"]
        own -= sum(c["end"] - c["start"] for c in children[s["id"]])
        self_s[s["layer"]] += own

    def named(name):
        return [s for s in spans if s["name"] == name]

    searches = named("is_k_colorable")
    decided = 0
    for s in searches:
        cliques = [c for c in children[s["id"]] if c["name"] == "find_clique"]
        if cliques and cliques[0]["size"] > s["k"]:
            decided += 1
    cliques = named("find_clique")
    check_ms = sorted((s["end"] - s["start"]) * 1000.0 for s in named("check_layout"))
    kernel = named("count_crossings")
    kernel_edges = sum(s["edges"] for s in kernel)
    roots = [s for s in spans if s["parent"] is None]
    graphs = named("conflict_graph")
    builds = [s for s in spans if s["layer"] == "constructions"]
    oracle = named("brute_force_run")

    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    metrics.update({
        "enumeration.classes": sum(s["classes"] for s in named("necklace_classes")),
        "coloring.conflict_graph.calls": len(graphs),
        "coloring.conflict_graph.edges": sum(s["edges"] for s in graphs),
        "coloring.clique.decided": decided,
        "coloring.clique.decided_ratio": decided / len(cliques) if cliques else 0.0,
        "coloring.search.nodes": sum(s["nodes"] for s in searches),
        "coloring.search.layouts": len(searches) - decided,
        "coloring.search.budget_exceeded": sum(s["status"] == "budget_exceeded" for s in searches),
        "coloring.check_layout.p50_ms": statistics.median(check_ms) if check_ms else 0.0,
        "coloring.check_layout.p99_ms": _percentile(check_ms, 99) if check_ms else 0.0,
        "coloring.check_layout.samples": len(check_ms),
        "coloring.verify.layouts_checked": len(check_ms),
        "constructions.calls": len(builds),
        "constructions.edges": sum(s["edges"] for s in builds),
        "drawings.count_crossings.calls": len(kernel),
        "drawings.count_crossings.edges": kernel_edges,
        "drawings.count_crossings.ns_per_edge": (
            self_s["drawings.count_crossings"] * 1e9 / kernel_edges if kernel_edges else 0.0
        ),
        "oracle.nodes": sum(s["nodes"] for s in oracle),
        "oracle.calls": len(oracle),
        "trace.spans": len(spans),
        "trace.uncovered_s": pass_cpu_s - sum(s["end"] - s["start"] for s in roots),
    })
    return metrics
