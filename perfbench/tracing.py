"""Per-layer tracing from outside the library.

The library binds names such as ``reachable_set`` and ``grow_forwards``
with ``from .x import y``, so a call is routed through the binding of
the calling module. ``Tracer.install`` replaces each such binding (and
the public methods the layers call on each other) with a wrapper that
records a span: name, parent, start and end. A span's self time is its
duration minus the durations of its direct children. ``Tracer.restore``
puts every original back.

Only public names of ``graphs``, ``preserver``, ``pathsystem``,
``udsn``, ``nonadaptive`` and ``oracle`` are wrapped; ``cli`` and
``harness`` are not on any measured path.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

from reachkeep import graphs, nonadaptive, oracle, preserver, udsn

# Per-layer metrics: name -> unit. Kept in step with BENCHMARK.json.
LAYER_METRICS = {
    "graphs.load_s": "s",
    "graphs.condense_s": "s",
    "graphs.components": "count",
    "graphs.reach_calls": "count",
    "graphs.reach_visited": "count",
    "graphs.reach_s": "s",
    "preserver.grow_calls": "count",
    "preserver.grow_self_s": "s",
    "preserver.walk_steps": "count",
    "preserver.z_size_calls": "count",
    "preserver.z_size_s": "s",
    "preserver.path_edges": "count",
    "preserver.new_edges": "count",
    "preserver.reuse_ratio": "ratio",
    "preserver.lift_self_s": "s",
    "preserver.tree_edges_added": "count",
    "preserver.verify_s": "s",
    "preserver.verify_reach_s": "s",
    "pathsystem.z_system_s": "s",
    "pathsystem.acyclic_s": "s",
    "pathsystem.bridge_k2_s": "s",
    "pathsystem.bridge_k3_s": "s",
    "pathsystem.bridge_k4_s": "s",
    "pathsystem.z_size": "count",
    "udsn.serve_self_s": "s",
    "udsn.hit_by_calls": "count",
    "udsn.hit_by_s": "s",
    "udsn.is_thin_s": "s",
    "udsn.bfs_route_s": "s",
    "udsn.leg_serve_s": "s",
    "udsn.route.trivial": "count",
    "udsn.route.firstT": "count",
    "udsn.route.hit": "count",
    "udsn.route.thin": "count",
    "udsn.sample_size": "count",
    "nonadaptive.levels": "count",
    "nonadaptive.distinct_levels": "count",
    "nonadaptive.known_p_s": "s",
    "nonadaptive.while_rounds": "count",
    "nonadaptive.residual_entries": "count",
    "oracle.adversary_calls": "count",
    "oracle.adversary_paths": "count",
    "oracle.adversary_s": "s",
    "nonadaptive.monitor_s": "s",
    "nonadaptive.select_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # (span id, parent id, name id, start ns, end ns) per closed span.
        self.spans = array("q")
        self._stack: list[list] = []
        self._next_id = 0
        self.total: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.under: Counter = Counter()
        self.counts: Counter = Counter()
        self.audited: list = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str) -> list:
        frame = [name, 0, self._next_id, perf_counter_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        name, child_ns, span_id, start = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.total[name] += dur
        self.self_ns[name] += dur - child_ns
        self.calls[name] += 1
        self.under[(parent[0] if parent else "", name)] += dur
        self.spans.extend((span_id, parent[2] if parent else -1, self._id(name), start, end))

    def span(self, name, fn, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments, ``after(result, args)`` updates counters."""

        def traced(*args, **kwargs):
            frame = self.open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- installing ----------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(self.span(name, original.fget, after)))
        else:
            setattr(owner, attr, self.span(name, original, after))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        def components(cond, _):
            self.counts["graphs.components"] = len(cond.components)

        def visited(result, _):
            self.counts["graphs.reach_visited"] += len(result)

        def steps(path, _):
            self.counts["preserver.walk_steps"] += len(path) - 1

        def session_serve(new, args):
            path = args[0].log[-1].path
            self.counts["preserver.path_edges"] += len(path) - 1
            self.counts["preserver.new_edges"] += len(new)

        def lift(added, args):
            comp = args[0].cond.component_of
            self.counts["preserver.tree_edges_added"] += sum(1 for u, v in added if comp[u] == comp[v])

        def z_system(z, _):
            self.audited.append(z)

        def route(record, args):
            self.counts["udsn.route." + record.route] += 1
            self.counts["udsn.sample_size"] = len(args[0].sample or ())

        def stack(tables, _):
            self.counts["nonadaptive.levels"] += len(tables)
            self.counts["nonadaptive.distinct_levels"] += sum(
                1 for a, b in zip(tables, tables[1:] + (None,)) if b is None or a.entries != b.entries
            )
            for table in tables:
                wl = len(table.while_loop_pairs)
                self.counts["nonadaptive.while_rounds"] += wl
                self.counts["nonadaptive.residual_entries"] += len(table.entries) - wl

        def adversary(_, args):
            self.counts["oracle.adversary_paths"] += len(args[3])

        self.wrap(graphs, "load_graph", "graphs.load_graph")
        for module in (preserver, udsn):
            self.wrap(module, "condense", "graphs.condense", components)
        for module in (preserver, udsn, nonadaptive, oracle):
            self.wrap(module, "reachable_set", "graphs.reachable_set", visited)
        for module in (preserver, nonadaptive, oracle):
            self.wrap(module, "grow_forwards", "preserver.grow", steps)
            self.wrap(module, "grow_backwards", "preserver.grow", steps)
        self.wrap(preserver.PreserverSession, "z_size", "preserver.z_size")
        self.wrap(preserver.PreserverSession, "serve_pair", "preserver.session_serve", session_serve)
        self.wrap(preserver.PreserverSession, "z_system", "pathsystem.z_system", z_system)
        self.wrap(preserver.CondensingPreserver, "serve_pair", "preserver.condensing_serve", lift)
        self.wrap(preserver, "verify_session", "preserver.verify_session")
        self.wrap(preserver, "is_acyclic", "pathsystem.is_acyclic")
        self.wrap(preserver, "find_k_bridge", lambda a: f"pathsystem.find_k_bridge.k{a[1]}")
        self.wrap(udsn, "hit_by", "udsn.hit_by")
        self.wrap(udsn, "is_thin", "udsn.is_thin")
        self.wrap(udsn, "bfs_route", "udsn.bfs_route")
        self.wrap(udsn.UdsnSession, "serve", "udsn.serve", route)
        self.wrap(nonadaptive, "precompute_index_sensitive", "nonadaptive.precompute_index_sensitive", stack)
        self.wrap(nonadaptive, "precompute_known_p", "nonadaptive.precompute_known_p")
        self.wrap(nonadaptive, "greedy_adversary_step", "oracle.greedy_adversary_step", adversary)
        self.wrap(nonadaptive, "surrogate_monitor", "nonadaptive.surrogate_monitor")
        self.wrap(nonadaptive, "select_entry", "nonadaptive.select_entry")

    # -- reading -------------------------------------------------------

    def metrics(self, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the recorded round (all but the overhead);
        times are multiplied by ``speed``, the host-speed factor."""
        t, s, n, c = self.total, self.self_ns, self.calls, self.counts
        NS = 1e-9 * speed
        path_edges = c["preserver.path_edges"]
        return {
            "graphs.load_s": t["graphs.load_graph"] * NS,
            "graphs.condense_s": t["graphs.condense"] * NS,
            "graphs.components": c["graphs.components"],
            "graphs.reach_calls": n["graphs.reachable_set"],
            "graphs.reach_visited": c["graphs.reach_visited"],
            "graphs.reach_s": t["graphs.reachable_set"] * NS,
            "preserver.grow_calls": n["preserver.grow"],
            "preserver.grow_self_s": s["preserver.grow"] * NS,
            "preserver.walk_steps": c["preserver.walk_steps"],
            "preserver.z_size_calls": n["preserver.z_size"],
            "preserver.z_size_s": t["preserver.z_size"] * NS,
            "preserver.path_edges": path_edges,
            "preserver.new_edges": c["preserver.new_edges"],
            "preserver.reuse_ratio": (
                (path_edges - c["preserver.new_edges"]) / path_edges if path_edges else 0.0
            ),
            "preserver.lift_self_s": s["preserver.condensing_serve"] * NS,
            "preserver.tree_edges_added": c["preserver.tree_edges_added"],
            "preserver.verify_s": t["preserver.verify_session"] * NS,
            "preserver.verify_reach_s": self.under[("preserver.verify_session", "graphs.reachable_set")] * NS,
            "pathsystem.z_system_s": t["pathsystem.z_system"] * NS,
            "pathsystem.acyclic_s": t["pathsystem.is_acyclic"] * NS,
            "pathsystem.bridge_k2_s": t["pathsystem.find_k_bridge.k2"] * NS,
            "pathsystem.bridge_k3_s": t["pathsystem.find_k_bridge.k3"] * NS,
            "pathsystem.bridge_k4_s": t["pathsystem.find_k_bridge.k4"] * NS,
            "pathsystem.z_size": sum(z.size() for z in self.audited),
            "udsn.serve_self_s": s["udsn.serve"] * NS,
            "udsn.hit_by_calls": n["udsn.hit_by"],
            "udsn.hit_by_s": t["udsn.hit_by"] * NS,
            "udsn.is_thin_s": t["udsn.is_thin"] * NS,
            "udsn.bfs_route_s": t["udsn.bfs_route"] * NS,
            "udsn.leg_serve_s": self.under[("udsn.serve", "preserver.condensing_serve")] * NS,
            "udsn.route.trivial": c["udsn.route.trivial"],
            "udsn.route.firstT": c["udsn.route.firstT"],
            "udsn.route.hit": c["udsn.route.hit"],
            "udsn.route.thin": c["udsn.route.thin"],
            "udsn.sample_size": c["udsn.sample_size"],
            "nonadaptive.levels": c["nonadaptive.levels"],
            "nonadaptive.distinct_levels": c["nonadaptive.distinct_levels"],
            "nonadaptive.known_p_s": t["nonadaptive.precompute_known_p"] * NS,
            "nonadaptive.while_rounds": c["nonadaptive.while_rounds"],
            "nonadaptive.residual_entries": c["nonadaptive.residual_entries"],
            "oracle.adversary_calls": n["oracle.greedy_adversary_step"],
            "oracle.adversary_paths": c["oracle.adversary_paths"],
            "oracle.adversary_s": t["oracle.greedy_adversary_step"] * NS,
            "nonadaptive.monitor_s": t["nonadaptive.surrogate_monitor"] * NS,
            "nonadaptive.select_s": t["nonadaptive.select_entry"] * NS,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent id, name, start
        ns, end ns."""
        with open(path, "w", encoding="ascii") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            rows = self.spans
            for i in range(0, len(rows), 5):
                sid, parent, name, start, end = rows[i : i + 5]
                f.write(f"{sid}\t{parent}\t{self.names[name]}\t{start}\t{end}\n")
