"""Span recording around the public functions of radonnets, from outside.

`Tracer.install()` replaces each traced function at module-attribute
level: every `radonnets.*` module attribute that is the original function
object is rebound to a wrapper, so calls made between modules (`cli` ->
`invariants.analyze`, `bounds` -> `exact.exact_chromatic_number`) are
seen as well.  `uninstall()` puts the originals back.

One span per call: (id, parent id, request id, name, start, end).  Spans
stay in memory and are written out by the caller at the end of a run.
Counts that must be read from a result (the net recursion DAG, hitting-set
targets, graph sizes) are taken after the call returns, inside a
`trace.count` span so that their cost is not charged to any layer.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> traced public functions.  Functions left out run inside their
# caller's span (for example `exact.dense_sets` inside the oracle or the
# chromatic certificate).
TRACED = {
    "space": ("parse_space_file", "parse_distribution_file", "halfspaces", "is_separable"),
    "generators": (
        "power_set_space",
        "cylinder_space",
        "subtree_space",
        "lattice_convex_space",
        "linear_extension_space",
        "random_separable",
    ),
    "invariants": ("analyze", "radon_number", "helly_number", "vc_dimension"),
    "nets": ("build_weak_net", "verify_weak_net"),
    "exact": ("minimal_weak_net", "hitting_instance", "exact_chromatic_number"),
    "bounds": ("chromatic_lower_bound", "radon_lower_bound", "kneser_graph"),
    "cli": ("main",),
}

# Per-layer time metric -> the spans whose self time it sums.
SELF_TIME_GROUPS = {
    "space.parse_s": ("space.parse_space_file", "space.parse_distribution_file"),
    "space.halfspaces_s": ("space.halfspaces",),
    "space.is_separable_s": ("space.is_separable",),
    "generators.build_s": tuple(f"generators.{f}" for f in TRACED["generators"]),
    "invariants.radon_s": ("invariants.radon_number",),
    "invariants.helly_s": ("invariants.helly_number",),
    "invariants.vc_s": ("invariants.vc_dimension",),
    "invariants.analyze_s": ("invariants.analyze",),
    "nets.build_s": ("nets.build_weak_net",),
    "nets.verify_s": ("nets.verify_weak_net",),
    "exact.oracle_s": ("exact.minimal_weak_net", "exact.hitting_instance"),
    "exact.chromatic_s": ("exact.exact_chromatic_number",),
    "bounds.chromatic_s": ("bounds.chromatic_lower_bound",),
    "bounds.radon_s": ("bounds.radon_lower_bound",),
    "bounds.kneser_s": ("bounds.kneser_graph",),
    "cli.self_s": ("cli.main",),
}

MODULES = tuple(TRACED)
FAMILIES = ("cylinders", "lattice", "poset", "power", "random", "tree")
CLI_COMMANDS = ("gen", "analyze", "net", "lowerbound", "kneser")

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_GROUPS},
    **{f"nets.build_s.{fam}": "s" for fam in FAMILIES},
    **{f"layer.{mod}_s": "s" for mod in MODULES},
    "nets.nodes": "count",
    "nets.calls": "count",
    "nets.memo_hit_ratio": "ratio",
    "nets.distinct_supports": "count",
    "nets.max_packing": "count",
    "nets.net_points": "count",
    "nets.worst_ratio": "ratio",
    "exact.targets": "count",
    "exact.graph_vertices": "count",
    "exact.graph_edges": "count",
    **{f"cli.{cmd}_ms": "ms" for cmd in CLI_COMMANDS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_fraction": "ratio",
}


def walk_net(net) -> dict:
    """Counters of one `WeakNet.trace`, walked with a visited set.

    Every (support, level) node is one NetNode object (`build_weak_net`
    memoizes them), and every child edge is one recursive call, so
    calls = 1 + edges and memo hits = calls - nodes.
    """
    seen = {id(net.trace)}
    stack = [net.trace]
    edges = 0
    supports = set()
    max_packing = 0
    while stack:
        node = stack.pop()
        supports.add(node.support.mask)
        if node.packing is not None:
            max_packing = max(max_packing, len(node.packing))
        edges += len(node.children)
        for _, child in node.children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return {
        "nodes": len(seen),
        "calls": edges + 1,
        "distinct_supports": len(supports),
        "max_packing": max_packing,
        "net_points": len(net.points),
    }


def _graph_size(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["graph"]
    edges = sum(row.bit_count() for row in graph.adjacency) // 2
    return {"graph_vertices": graph.vertex_count, "graph_edges": edges}


COUNTERS = {
    "nets.build_weak_net": lambda args, kwargs, result: walk_net(result),
    "exact.hitting_instance": lambda args, kwargs, result: {"targets": len(result.targets)},
    "exact.exact_chromatic_number": _graph_size,
}


class Tracer:
    """In-memory span recorder.  `request` is set by the harness."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, dict]] = []
        self.attrs: dict[int, str] = {}
        self.stack: list[int] = []
        self.request: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, self.request, name, perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                tracer.attrs[rec[0]] = argv[0] if argv else ""
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counter is not None:
                count = tracer._open("trace.count")
                try:
                    tracer.counts.append((name, rec[0], counter(args, kwargs, result)))
                finally:
                    tracer._close(count)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "radonnets" or n.startswith("radonnets.")]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"radonnets.{mod_name}"]
            for fn_name in funcs:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # --- aggregation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[sid] for sid, _, _, _, start, end in self.spans]

    def per_layer(self, request_family: dict[int, str]) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (overhead is added by the caller)."""
        selfs = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        by_family: dict[str, float] = defaultdict(float)
        for (sid, _, req, name, _, _), st in zip(self.spans, selfs):
            by_name[name] += st
            if name == "nets.build_weak_net":
                by_family[request_family.get(req, "")] += st
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_GROUPS.items():
            out[metric] = sum(by_name[n] for n in names)
        for fam in FAMILIES:
            out[f"nets.build_s.{fam}"] = by_family[fam]
        for mod in MODULES:
            out[f"layer.{mod}_s"] = sum(v for n, v in by_name.items() if n.startswith(mod + "."))

        totals: dict[str, int] = defaultdict(int)
        max_packing = 0
        for _, _, c in self.counts:
            for key, value in c.items():
                if key == "max_packing":
                    max_packing = max(max_packing, value)
                else:
                    totals[key] += value
        for key in ("nodes", "calls", "distinct_supports", "net_points"):
            out[f"nets.{key}"] = totals[key]
        out["nets.max_packing"] = max_packing
        out["nets.memo_hit_ratio"] = (totals["calls"] - totals["nodes"]) / totals["calls"] if totals["calls"] else 0.0
        for key in ("targets", "graph_vertices", "graph_edges"):
            out[f"exact.{key}"] = totals[key]

        per_cmd: dict[str, list[float]] = defaultdict(list)
        for sid, cmd in self.attrs.items():
            _, _, _, _, start, end = self.spans[sid]
            per_cmd[cmd].append(end - start)
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_ms"] = 1000 * statistics.median(per_cmd[cmd]) if per_cmd[cmd] else 0.0
        out["trace.spans"] = len(self.spans)
        return out
