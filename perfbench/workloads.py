"""The four workloads: seeded inputs, and the phases a round times.

A round is ``setup`` (graph text to a session ready to serve), a serve
pass (the whole demand stream, one timed call per pair, through the
function ``server`` returns) and ``audit`` (the program's own audit of
what it served). Each phase is repeated the number of times its
workload states, so that no timed phase is shorter than about a tenth
of a second. Every library call goes through a
module attribute (``graphs.load_graph``, ``preserver.verify_session``,
...), which is what lets the traced run wrap it.

Each workload's graph (and, for ``sourcewise-bw``, its shared sources;
for ``cyclic-udsn``, the session seed that draws the relay sample) is
drawn once, from a fixed seed; the run's seed draws the demand stream.
The cost of a stream is set mostly by the graph's reachability
structure, which varies a lot between random graphs of this size: at
n=2000 the total reachability work of a stream differs by about 5%
(quartile spread) across independently drawn DAGs, but by under 1%
across streams on one DAG. A fixed graph keeps the run-to-run spread at
the level of the host.

The library must be importable when this module is imported.
"""

from __future__ import annotations

import checks
import inputs
from reachkeep import graphs, nonadaptive, preserver, udsn

GRAPH_SEED = 0


class Workload:
    """Inputs of one workload for one seed, and its phases."""

    name = ""
    setup_reps = 1
    serve_reps = 1
    audit_reps = 1

    n: int
    edges: list
    text: str
    pairs: list

    def describe(self) -> dict:
        return {"n": self.n, "m": len(self.edges), "p": len(self.pairs)}

    def draw_graph(self, generate, n: int, m: int) -> None:
        self.edges = generate(inputs.rng_for(GRAPH_SEED, self.name + "/graph"), n, m)

    def setup(self):
        raise NotImplementedError

    def server(self, state):
        """A function ``serve(i, s, t)`` answering the i-th demand (from 0)
        of a fresh pass over the stream."""
        raise NotImplementedError

    def audit(self, state) -> str | None:
        """Run the program's own audit; a description when it objects."""
        raise NotImplementedError

    def output(self, state) -> frozenset:
        """The output edge set, compared across rounds."""
        raise NotImplementedError

    def check(self, state) -> checks.Verdict:
        raise NotImplementedError


class DagPreserver(Workload):
    """``CondensingPreserver`` on a random DAG, then ``verify_session``.
    With ``sources`` set the stream is P subset of S x V."""

    setup_reps = 3
    audit_reps = 3

    def __init__(self, name: str, seed: int, n: int, m: int, p: int, mode: str, sources: int = 0):
        self.name = name
        self.n, self.mode, self.sources = n, mode, sources
        self.draw_graph(inputs.random_dag, n, m)
        stream_rng = inputs.rng_for(seed, name + "/stream")
        if sources:
            sources_rng = inputs.rng_for(GRAPH_SEED, name + "/sources")
            self.shared = inputs.wide_sources(sources_rng, n, self.edges, sources)
            self.pairs = inputs.sourcewise_pairs(stream_rng, n, self.edges, self.shared, p)
        else:
            reach = inputs.Reach(n, self.edges)
            self.pairs = inputs.uniform_pairs(stream_rng, reach, n, p)
        self.text = inputs.graph_text(n, self.edges)

    def describe(self) -> dict:
        info = super().describe()
        info["mode"] = self.mode
        if self.sources:
            info["S"] = self.sources
        return info

    def setup(self):
        return preserver.CondensingPreserver(graphs.load_graph(self.text), self.mode)

    def server(self, session):
        serve_pair = session.serve_pair
        return lambda i, s, t: serve_pair(s, t)

    def audit(self, session) -> str | None:
        report = preserver.verify_session(session.inner)
        return None if report.ok else report.describe()

    def output(self, session) -> frozenset:
        return frozenset(session.output_edges)

    def check(self, session) -> checks.Verdict:
        v = checks.Verdict(len(self.pairs))
        inner = session.inner
        checks.subgraph(v, self.edges, session.output_edges)
        checks.pairs_reachable(v, self.n, session.output_edges, self.pairs)
        # On a DAG every component is one vertex, so the auxiliary paths
        # (on component ids) are on the original vertex ids.
        z = checks.size_identity(v, inner.z_paths, len(session.output_edges), len(self.pairs))
        pos = checks.dag_positions(self.n, self.edges)
        checks.increasing(v, inner.z_paths, pos.__getitem__)
        if self.sources:
            checks.envelope(v, z, self.n, len(self.pairs), len(self.shared))
        return v


class CyclicUdsn(Workload):
    """``UdsnSession`` on a sparse random digraph with a small forced T,
    then ``verify_session`` on both preserver legs."""

    setup_reps = 5
    audit_reps = 10

    def __init__(self, name: str, seed: int, n: int, m: int, p: int, T: int):
        self.name = name
        self.n, self.T = n, T
        self.draw_graph(inputs.random_digraph, n, m)
        self.reach = inputs.Reach(n, self.edges)
        self.pairs = inputs.uniform_pairs(inputs.rng_for(seed, name + "/stream"), self.reach, n, p)
        self.text = inputs.graph_text(n, self.edges)
        self.params = udsn.UdsnParams(tau=udsn.UdsnParams.defaults_for(n).tau, T=T)

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            T=self.T,
            tau=self.params.tau,
            sample=self.params.sample_size(self.n),
            components=max(self.reach.comp) + 1,
        )
        return info

    def setup(self):
        return udsn.UdsnSession(graphs.load_graph(self.text), self.params, seed=GRAPH_SEED)

    def server(self, session):
        serve = session.serve
        return lambda i, s, t: serve(s, t)

    def audit(self, session) -> str | None:
        problems = []
        for leg in (session.fw_leg, session.bw_leg):
            report = preserver.verify_session(leg.inner)
            if not report.ok:
                problems.append(f"{leg.mode.value} leg: {report.describe()}")
        return "; ".join(problems) or None

    def output(self, session) -> frozenset:
        return frozenset(session.output.edges)

    def check(self, session) -> checks.Verdict:
        v = checks.Verdict(len(self.pairs))
        checks.subgraph(v, self.edges, session.output.edges, "output")
        checks.pairs_reachable(v, self.n, session.output.edges, self.pairs)
        hits = [(r.index, *r.pair, r.via) for r in session.records if r.route == udsn.HIT]
        checks.hit_relays(v, self.reach, session.sample or (), hits)
        owner = [i for i, *_ in hits]
        # Leg auxiliary paths live on the library's component ids; map each
        # through its smallest member to this benchmark's own components.
        rep = session.condensation.representative
        comp = self.reach.comp
        dag = {(comp[a], comp[b]) for a, b in self.edges if comp[a] != comp[b]}
        pos = checks.dag_positions(max(comp) + 1, dag)
        for leg, leg_pairs in (
            (session.fw_leg, [(s, r) for _, s, _, r in hits]),
            (session.bw_leg, [(r, t) for _, _, t, r in hits]),
        ):
            label = f"{leg.mode.value} leg"
            checks.subgraph(v, self.edges, leg.output_edges, label)
            leg_v = checks.Verdict(len(leg_pairs))
            checks.pairs_reachable(leg_v, self.n, leg.output_edges, leg_pairs)
            checks.increasing(leg_v, leg.inner.z_paths, lambda c: pos[comp[rep[c]]])
            checks.size_identity(v, leg.inner.z_paths, len(leg.inner.h), leg.pairs_served, label)
            for j, why in leg_v.bad.items():
                v.pair(owner[j], f"{label}: {why}")
        return v


class Tables(Workload):
    """``precompute_index_sensitive`` on a small DAG, a stream answered
    with ``select_entry`` and committed to H, then ``surrogate_monitor``."""

    serve_reps = 10
    audit_reps = 2

    def __init__(self, name: str, seed: int, n: int, m: int, p: int, scale: float, mode: str):
        self.name = name
        self.n, self.scale, self.mode = n, scale, mode
        self.draw_graph(inputs.random_dag, n, m)
        reach = inputs.Reach(n, self.edges)
        self.pairs = inputs.uniform_pairs(inputs.rng_for(seed, name + "/stream"), reach, n, p)
        self.text = inputs.graph_text(n, self.edges)

    def describe(self) -> dict:
        info = super().describe()
        info.update(scale=self.scale, mode=self.mode, p_star=self.n, monitor_p=self.n)
        return info

    def setup(self):
        g = graphs.load_graph(self.text)
        surrogate = nonadaptive.default_surrogate(self.n, self.scale)
        stack = nonadaptive.precompute_index_sensitive(g, surrogate, self.mode)
        return TablesState(g, surrogate, stack)

    def server(self, state):
        h = state.h = preserver.EdgeStore(self.n)
        answers = state.answers = []
        select, stack, add = nonadaptive.select_entry, state.stack, h.add

        def serve(i, s, t):
            answer = select(stack, s, t, i + 1)
            path = answer[1]
            for e in zip(path, path[1:]):
                add(e)
            answers.append(answer)

        return serve

    def audit(self, state) -> str | None:
        report = nonadaptive.surrogate_monitor(state.g, self.n, state.surrogate, self.mode)
        if report.valid:
            return None
        return f"surrogate monitor: {report.final_edges} edges over budget {report.budget:.1f}"

    def output(self, state) -> frozenset:
        return frozenset(state.h.edges)

    def check(self, state) -> checks.Verdict:
        v = checks.Verdict(len(self.pairs))
        stack = state.stack
        checks.tables(v, self.n, self.edges, [(t.threshold, t.entries, t.finalized_by) for t in stack])
        checks.selections(v, [t.level for t in stack], [t.entries for t in stack], self.pairs, state.answers)
        checks.subgraph(v, self.edges, state.h.edges)
        checks.pairs_reachable(v, self.n, state.h.edges, self.pairs)
        return v


class TablesState:
    def __init__(self, g, surrogate, stack):
        self.g, self.surrogate, self.stack = g, surrogate, stack
        self.h = None
        self.answers: list = []


WORKLOADS = {
    "dag-fw": lambda seed: DagPreserver("dag-fw", seed, n=2000, m=9000, p=4000, mode="fw"),
    "sourcewise-bw": lambda seed: DagPreserver(
        "sourcewise-bw", seed, n=2000, m=9000, p=4000, mode="bw", sources=8
    ),
    "cyclic-udsn": lambda seed: CyclicUdsn("cyclic-udsn", seed, n=2000, m=3400, p=4000, T=40),
    "tables": lambda seed: Tables("tables", seed, n=40, m=88, p=4000, scale=0.3, mode="fw"),
}
