from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gc
import heapq
import random
import re

from reachkeep import graphs, preserver
from reachkeep import (
    BoundsError,
    CondensingPreserver,
    CyclicGraphError,
    DirectedGraph,
    EdgeStore,
    GrowthMode,
    InfeasiblePairError,
    InstanceFamily,
    PairRecord,
    ParameterError,
    ReachkeepError,
    condense,
    default_surrogate,
    generate,
    grow_backwards,
    grow_forwards,
    reachable_set,
    size_envelope_general,
    size_envelope_source_restricted,
    verify_session,
)
from reachkeep.graphs import check_vertices
from reachkeep.pathsystem import find_k_bridge, is_acyclic
from reachkeep.preserver import SessionReport, _walk, unreachable_pairs
from reference import lift_edge
from test_nonadaptive import time_limit

DIAMOND = DirectedGraph(4, {(0, 1), (1, 2), (0, 2), (2, 3)})
CHAIN3 = DirectedGraph(3, {(0, 1), (1, 2)})


def empty_store(n: int) -> EdgeStore:
    return EdgeStore(n)


def store_with(n: int, edges) -> EdgeStore:
    h = EdgeStore(n)
    for e in edges:
        h.add(e)
    return h


@st.composite
def dag_with_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    # u < v keeps the graph acyclic by construction
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=min(len(pool), 14)))
    g = DirectedGraph(n, edges)
    feasible = [
        (s, t)
        for s in range(n)
        for t in sorted(reachable_set(g, s))
    ]
    pairs = draw(st.lists(st.sampled_from(feasible), min_size=1, max_size=8))
    return g, pairs


@st.composite
def digraph_with_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=min(len(pool), 16)))
    g = DirectedGraph(n, edges)
    feasible = [
        (s, t)
        for s in range(n)
        for t in sorted(reachable_set(g, s))
    ]
    pairs = draw(st.lists(st.sampled_from(feasible), min_size=1, max_size=8))
    return g, pairs


@st.composite
def ringed_digraph_with_pairs(draw):
    """A digraph with at least one ring of 2 or more vertices, plus a
    stream of feasible pairs in which some pairs repeat."""
    n = draw(st.integers(min_value=3, max_value=10))
    order = draw(st.permutations(range(n)))
    ring = order[: draw(st.integers(min_value=2, max_value=n))]
    edges = set(zip(ring, ring[1:] + ring[:1]))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges |= draw(st.sets(st.sampled_from(pool), max_size=2 * n))
    g = DirectedGraph(n, edges)
    feasible = [(s, t) for s in range(n) for t in sorted(reachable_set(g, s))]
    pairs = draw(st.lists(st.sampled_from(feasible), min_size=1, max_size=10))
    return g, pairs + pairs[::2]


class BareDagSession:
    """A session on a DAG alone, with no condensation and no lift: grow
    on g, add the new edges, build the auxiliary path, append a
    ``PairRecord``. With no trees and the identity lift, the output
    edges a pair adds are its new edges. Kept as the reference for
    ``CondensingPreserver``."""

    def __init__(self, g: DirectedGraph, mode: str):
        self.g, self.mode = g, GrowthMode(mode)
        self.h = EdgeStore(g.n)
        self.z_paths: list[tuple[int, ...]] = []
        self.log: list[PairRecord] = []

    def serve_pair(self, s: int, t: int):
        path = self.mode.grow(self.g, self.h, s, t)
        new = tuple((u, v) for u, v in zip(path, path[1:]) if (u, v) not in self.h)
        for e in new:
            self.h.add(e)
        if self.mode is GrowthMode.FORWARDS:
            self.z_paths.append(tuple(u for u, _ in new) + (t,))
        else:
            self.z_paths.append((s,) + tuple(v for _, v in new))
        self.log.append(PairRecord((s, t), path, new, new))
        return new


def touched_loop_serve(bare: BareDagSession, cond, output: set, touched: set, s: int, t: int):
    """``CondensingPreserver.serve_pair`` as it was before the session
    kept only the components still pending: ``bare`` serves the pair on
    ``cond.dag``, every component seen on a path is remembered in
    ``touched``, each path is scanned in full, and every edge is tested
    against ``output`` before it is added. Returns the pair's record:
    the stream's pair, the bare session's path and new edges, and the
    edges this loop added. Kept as the reference."""
    new_dag_edges = bare.serve_pair(cond.component_of[s], cond.component_of[t])
    path = bare.log[-1].path
    added = []
    for comp in path:
        if comp in touched:
            continue
        touched.add(comp)
        for e in cond.tree_edges_of(comp):
            if e not in output:
                output.add(e)
                added.append(e)
    for de in new_dag_edges:
        e = lift_edge(cond, de)
        if e not in output:
            output.add(e)
            added.append(e)
    return PairRecord((s, t), path, new_dag_edges, tuple(added))


def random_pairs(rng: random.Random, g: DirectedGraph, count: int):
    pairs = []
    while len(pairs) < count:
        s = rng.randrange(g.n)
        pairs.append((s, rng.choice(sorted(reachable_set(g, s)))))
    return pairs


def reference_walk(start: int, goal: int, member: int, h_step, g_step) -> list[int]:
    """The walk as it was before it recorded its steps along g edges:
    neighbours read through the range-checked accessors."""
    path = [start]
    u = start
    while u != goal:
        nxt = None
        for v in h_step(u):
            if member >> v & 1:
                nxt = v
                break
        if nxt is None:
            for v in g_step(u):
                if member >> v & 1:
                    nxt = v
                    break
        assert nxt is not None, "stuck despite reachability"
        path.append(nxt)
        u = nxt
    return path


def reference_grow(g: DirectedGraph, h: EdgeStore, s: int, t: int, mode):
    """``grow_forwards`` or ``grow_backwards`` as it was before the walk
    handed back the edges it takes off h: the walk, then a re-scan of
    the path against h for its new edges. Returns (path, new edges in
    path order). Kept as the reference."""
    if not g.is_dag:
        raise CyclicGraphError("growth requires a DAG input")
    check_vertices(g.n, s, t)
    if GrowthMode(mode) is GrowthMode.FORWARDS:
        member = g.reach_mask(t, reverse=True)
        if not member >> s & 1:
            raise InfeasiblePairError(f"{t} not reachable from {s}")
        path = tuple(reference_walk(s, t, member, h.out_neighbors, g.out_neighbors))
    else:
        member = g.reach_mask(s)
        if not member >> t & 1:
            raise InfeasiblePairError(f"{t} not reachable from {s}")
        path = tuple(reversed(reference_walk(t, s, member, h.in_neighbors, g.in_neighbors)))
    return path, tuple(e for e in zip(path, path[1:]) if e not in h.edges)


class RescanSession(CondensingPreserver):
    """A session whose new edges come from ``reference_grow``'s re-scan
    of the path, as ``serve_pair`` computed them before the walk handed
    them back. Kept as the reference."""

    def _choose_path(self, s: int, t: int, new: list) -> tuple[int, ...]:
        path, rescanned = reference_grow(self.dag, self.h, s, t, self.mode)
        new.extend(rescanned)
        return path


@st.composite
def dag_with_subgraph_and_pairs(draw):
    """A DAG of up to 12 vertices whose ids do not follow a topological
    order, a random subgraph H, and pairs that may be reflexive,
    infeasible or out of range."""
    n = draw(st.integers(min_value=1, max_value=12))
    perm = draw(st.permutations(range(n)))
    pool = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), max_size=30)) if pool else set()
    sub = draw(st.sets(st.sampled_from(sorted(edges)))) if edges else set()
    vertex = st.integers(min_value=0, max_value=n)  # n itself is out of range
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
    return DirectedGraph(n, edges), sub, pairs


def outcome(call):
    """The value of call(), or the class and message of the library
    error it raises."""
    try:
        return call()
    except ReachkeepError as exc:
        return type(exc), str(exc)


class TestGrowth:
    def test_forwards_prefers_smallest_head(self):
        path = grow_forwards(DIAMOND, empty_store(4), 0, 3)
        assert path == (0, 1, 2, 3)

    def test_forwards_reuses_existing_edges(self):
        h = store_with(4, [(0, 2), (2, 3)])
        assert grow_forwards(DIAMOND, h, 0, 3) == (0, 2, 3)

    def test_backwards_prefers_smallest_tail(self):
        path = grow_backwards(DIAMOND, empty_store(4), 0, 3)
        assert path == (0, 2, 3)

    def test_backwards_reuses_existing_edges(self):
        h = store_with(4, [(0, 1), (1, 2)])
        assert grow_backwards(DIAMOND, h, 0, 2) == (0, 1, 2)

    def test_degenerate_pair_is_a_single_vertex(self):
        assert grow_forwards(DIAMOND, empty_store(4), 1, 1) == (1,)
        assert grow_backwards(DIAMOND, empty_store(4), 1, 1) == (1,)

    def test_cyclic_input_rejected(self):
        g = DirectedGraph(2, {(0, 1), (1, 0)})
        with pytest.raises(CyclicGraphError):
            grow_forwards(g, empty_store(2), 0, 1)
        with pytest.raises(CyclicGraphError):
            grow_backwards(g, empty_store(2), 0, 1)

    def test_infeasible_pair_raises(self):
        with pytest.raises(InfeasiblePairError):
            grow_forwards(DIAMOND, empty_store(4), 3, 0)

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(BoundsError):
            grow_forwards(DIAMOND, empty_store(4), 0, 9)

    @given(dag_with_pairs())
    @settings(max_examples=60, deadline=None)
    def test_grown_paths_are_walks_in_g(self, case):
        g, pairs = case
        h = empty_store(g.n)
        for s, t in pairs:
            for path in (
                grow_forwards(g, h, s, t),
                grow_backwards(g, h, s, t),
            ):
                assert path[0] == s and path[-1] == t
                for u, v in zip(path, path[1:]):
                    assert (u, v) in g.edges


class TestWalkAgainstReference:
    @given(dag_with_subgraph_and_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=300, deadline=None)
    def test_new_edges_match_a_rescan(self, case, mode):
        g, sub, pairs = case
        h = store_with(g.n, sub)
        grow = GrowthMode(mode).grow
        for s, t in pairs:
            new: list = []
            got = outcome(lambda: (grow(g, h, s, t, new), tuple(new)))
            assert got == outcome(lambda: reference_grow(g, h, s, t, mode))
            if isinstance(got[0], type):
                assert new == []
            assert outcome(lambda: grow(g, h, s, t)) == outcome(lambda: reference_grow(g, h, s, t, mode)[0])

    def test_backwards_new_edges_follow_the_path(self):
        chain = DirectedGraph(4, {(0, 1), (1, 2), (2, 3)})
        new: list = []
        assert grow_backwards(chain, store_with(4, [(1, 2)]), 0, 3, new) == (0, 1, 2, 3)
        assert new == [(0, 1), (2, 3)]

    @given(ringed_digraph_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=80, deadline=None)
    def test_session_matches_a_rescan_session(self, case, mode):
        g, stream = case
        session, reference = CondensingPreserver(g, mode), RescanSession(g, mode)
        for s, t in stream:
            assert session.serve_pair(s, t) == reference.serve_pair(s, t)
        assert session.log == reference.log
        assert session.h.edges == reference.h.edges
        assert session.h._out == reference.h._out and session.h._in == reference.h._in
        assert session.z_paths == reference.z_paths
        assert session.output_edges == reference.output_edges


def _require_dag(g: DirectedGraph) -> None:
    if not g.is_dag:
        raise CyclicGraphError("growth requires a DAG input")


def parent_grow_forwards(
    g: DirectedGraph, h: EdgeStore, s: int, t: int, new: list | None = None
) -> tuple[int, ...]:
    """``grow_forwards`` as it was before the growth rules range-checked
    inline and read the cached order: a DAG test through ``is_dag`` and
    ``check_vertices`` on every call. Kept as the reference."""
    _require_dag(g)
    check_vertices(g.n, s, t)
    member = g.reach_mask(t, reverse=True)
    if not member >> s & 1:
        raise InfeasiblePairError(f"{t} not reachable from {s}")
    return tuple(_walk(s, t, member, h._out, g._out, [] if new is None else new))


def parent_grow_backwards(
    g: DirectedGraph, h: EdgeStore, s: int, t: int, new: list | None = None
) -> tuple[int, ...]:
    """``grow_backwards`` as it was then; kept as the reference."""
    _require_dag(g)
    check_vertices(g.n, s, t)
    member = g.reach_mask(s)
    if not member >> t & 1:
        raise InfeasiblePairError(f"{t} not reachable from {s}")
    taken: list = []
    path = _walk(t, s, member, h._in, g._in, taken)
    path.reverse()
    if new is not None:
        new.extend([(u, v) for v, u in reversed(taken)])
    return tuple(path)


class ParentSession(CondensingPreserver):
    """A session whose ``serve_pair`` and growth rules are as they were
    before serving a pair took one range test and one growth call: the
    pair checked by ``check_vertices``, each growth call re-testing the
    DAG and the range, and every new edge looked up in the lift, on a
    DAG too (through the reference ``lift_edge``, as a DAG's condensation
    keeps no lift table). Kept as the reference."""

    def _choose_path(self, s: int, t: int, new: list) -> tuple[int, ...]:
        grow = parent_grow_forwards if self.mode is GrowthMode.FORWARDS else parent_grow_backwards
        return grow(self.dag, self.h, s, t, new)

    def serve_pair(self, s: int, t: int):
        check_vertices(self.g.n, s, t)
        cond = self.cond
        taken: list = []
        try:
            path = self._choose_path(cond.component_of[s], cond.component_of[t], taken)
        except InfeasiblePairError:
            raise InfeasiblePairError(f"{t} not reachable from {s}") from None
        add = self.h.add
        for e in taken:
            add(e)
        new = tuple(taken)
        # Every edge below is new to the output: tree edges stay inside one
        # component and are added once per component, and each new DAG
        # edge lifts to its own edge between two components.
        added: list = []
        pending = self._pending
        if pending:
            for comp in path:
                if comp in pending:
                    pending.remove(comp)
                    added.extend(cond.tree_edges_of(comp))
        added.extend(lift_edge(cond, e) for e in new)
        record = PairRecord((s, t), path, new, tuple(added))
        self.log.append(record)
        return record.added


def session_state(session: CondensingPreserver):
    """Everything serving a pair may write, and every view of it, as
    values that later serves cannot change."""
    h = session.h
    return (
        tuple(session.log),
        frozenset(h.edges),
        {u: tuple(vs) for u, vs in h._out.items()},
        {v: tuple(us) for v, us in h._in.items()},
        frozenset(session._pending),
        frozenset(session.output_edges),
        tuple(session.z_paths),
    )


def any_pairs(n: int):
    """Pairs that may be reflexive, infeasible or out of range on both
    sides (-1 and n)."""
    vertex = st.integers(min_value=-1, max_value=n)
    return st.lists(st.tuples(vertex, vertex), max_size=10)


def assert_serves_like_the_parent(session: CondensingPreserver, reference: ParentSession, stream) -> None:
    for s, t in stream:
        before = session_state(session)
        got = outcome(lambda: session.serve_pair(s, t))
        assert got == outcome(lambda: reference.serve_pair(s, t))
        if got and isinstance(got[0], type):  # an error, not a tuple of edges
            assert session_state(session) == before
        assert session_state(session) == session_state(reference)


class TestServeAgainstTheParent:
    @given(ringed_digraph_with_pairs(), st.sampled_from(["fw", "bw"]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_cyclic_streams_serve_like_the_parent(self, case, mode, data):
        g, stream = case
        mixed = data.draw(st.permutations(stream + data.draw(any_pairs(g.n))))
        session, reference = CondensingPreserver(g, mode), ParentSession(g, mode)
        assert_serves_like_the_parent(session, reference, mixed)

    @given(dag_with_subgraph_and_pairs(), st.sampled_from(["fw", "bw"]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_dag_streams_serve_like_the_parent(self, case, mode, data):
        g, sub, pairs = case
        pairs = pairs + data.draw(any_pairs(g.n)) + pairs
        session, reference = CondensingPreserver(g, mode), ParentSession(g, mode)
        assert session.dag is g
        for e in sorted(sub):
            session.h.add(e)
            reference.h.add(e)
        assert_serves_like_the_parent(session, reference, pairs)

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    def test_a_dag_stream_checks_no_vertex_and_orders_once(self, mode, monkeypatch):
        family_g, stream = generate(InstanceFamily(kind="random-dag", n=80, seed=11, pairs=200))
        g = DirectedGraph(family_g.n, family_g.edges)  # no order computed yet
        calls = {"check_vertices": 0, "topological_order": 0, "built": 0}

        def counting_check(*args):
            calls["check_vertices"] += 1
            return check_vertices(*args)

        order = DirectedGraph.topological_order

        def counting_order(self):
            calls["topological_order"] += 1
            calls["built"] += self._topo is False
            return order(self)

        monkeypatch.setattr(preserver, "check_vertices", counting_check)
        monkeypatch.setattr(graphs, "check_vertices", counting_check)
        monkeypatch.setattr(DirectedGraph, "topological_order", counting_order)
        session = CondensingPreserver(g, mode)
        for s, t in stream:
            session.serve_pair(s, t)
        assert len(stream) == 200 and session.pairs_served == 200
        assert calls["check_vertices"] == 0
        assert calls["built"] == 1
        # condense's DAG test and the first pair's closure build; none per pair.
        assert calls["topological_order"] == 2

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    def test_after_condense_the_first_pair_builds_no_order(self, mode, monkeypatch):
        family_g, stream = generate(InstanceFamily(kind="random-dag", n=80, seed=12, pairs=20))
        g = DirectedGraph(family_g.n, family_g.edges)  # no order computed yet
        cond = condense(g)
        pops = []
        heappop = heapq.heappop

        def counting_pop(heap):  # Kahn's pass pops each vertex once
            pops.append(heap[0])
            return heappop(heap)

        monkeypatch.setattr(heapq, "heappop", counting_pop)
        session = CondensingPreserver(g, mode, cond)
        session.serve_pair(*stream[0])
        assert cond.dag is g and session.pairs_served == 1
        assert pops == []  # the order condense kept serves the first pair
        assert DirectedGraph(3, [(2, 1)]).topological_order() == (0, 2, 1) and pops == [0, 2, 1]


def triangle() -> DirectedGraph:
    return DirectedGraph(4, {(0, 1), (1, 2), (2, 0), (2, 3)})


class TestGrowthErrorsMatchTheParent:
    @pytest.mark.parametrize("direction", [0, 1])
    @pytest.mark.parametrize("order_known", [False, True])
    @pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 2), (0, 4)])
    def test_cyclic_graph(self, direction, order_known, pair):
        grow = (grow_forwards, grow_backwards)[direction]
        parent = (parent_grow_forwards, parent_grow_backwards)[direction]
        g, g_parent = triangle(), triangle()
        if order_known:
            assert g.topological_order() is None and g_parent.topological_order() is None
        new: list = []
        got = outcome(lambda: grow(g, empty_store(4), *pair, new))
        assert got == outcome(lambda: parent(g_parent, empty_store(4), *pair))
        assert got == (CyclicGraphError, "growth requires a DAG input")
        assert new == []

    @pytest.mark.parametrize("direction", [0, 1])
    @pytest.mark.parametrize("order_known", [False, True])
    @pytest.mark.parametrize("pair", [(-1, 3), (4, 3), (0, -1), (0, 4), (-1, 4), (9, 9)])
    def test_endpoint_out_of_range(self, direction, order_known, pair):
        grow = (grow_forwards, grow_backwards)[direction]
        parent = (parent_grow_forwards, parent_grow_backwards)[direction]
        g = DirectedGraph(DIAMOND.n, DIAMOND.edges)
        if order_known:
            g.topological_order()
        new: list = []
        got = outcome(lambda: grow(g, empty_store(4), *pair, new))
        assert got == outcome(lambda: parent(g, empty_store(4), *pair))
        bad = pair[0] if not 0 <= pair[0] < 4 else pair[1]
        assert got == (BoundsError, f"vertex {bad} outside range 0..3")
        assert new == []


class TestEdgeStore:
    def test_add_reports_novelty(self):
        h = EdgeStore(3)
        assert h.add((0, 1)) is True
        assert h.add((0, 1)) is False
        assert len(h) == 1

    def test_neighbor_lists_stay_sorted(self):
        h = store_with(5, [(0, 4), (0, 1), (0, 3), (2, 3), (1, 3)])
        assert h.out_neighbors(0) == [1, 3, 4]
        assert h.in_neighbors(3) == [0, 1, 2]
        assert h.out_neighbors(4) == []

    def test_to_graph_roundtrip(self):
        h = store_with(4, [(0, 1), (2, 3)])
        g = h.to_graph()
        assert g.n == 4 and g.edges == {(0, 1), (2, 3)}

    @pytest.mark.parametrize("edge", [(1, 1), (0, 7), (7, 0), (-1, 2), (0, 3)])
    def test_bad_edge_rejected_without_a_trace(self, edge):
        h = store_with(3, [(0, 1)])
        with pytest.raises(BoundsError, match="self-loop or outside 0..2"):
            h.add(edge)
        assert h.edges == {(0, 1)}
        assert h._out == {0: [1]} and h._in == {1: [0]}

    def test_rejected_self_loop_cannot_trap_the_walk(self):
        # A stored self-loop (1, 1) made the walk step 1 -> 1 forever.
        with time_limit(5):
            h = EdgeStore(3)
            with pytest.raises(BoundsError):
                h.add((1, 1))
            assert grow_forwards(CHAIN3, h, 0, 2) == (0, 1, 2)


def bfs_unreachable_pairs(g: DirectedGraph, pairs) -> list:
    """``unreachable_pairs`` as it was before it read a bitset closure:
    one ``reachable_set`` sweep per distinct source. Kept as the
    reference."""
    reach: dict[int, frozenset[int]] = {}
    bad = []
    for s, t in pairs:
        if s not in reach:
            reach[s] = reachable_set(g, s)
        if t not in reach[s]:
            bad.append((s, t))
    return bad


@st.composite
def cyclic_digraph_with_any_pairs(draw):
    """A digraph with a few rings, and pairs (repeats included) whose
    sinks may fall outside the vertex range."""
    n = draw(st.integers(min_value=1, max_value=10))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.sets(st.sampled_from(pool), max_size=14)) if pool else set()
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        ring = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
        edges |= {(u, ring[(i + 1) % len(ring)]) for i, u in enumerate(ring)}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-2, n + 1)), max_size=12))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return DirectedGraph(n, edges), draw(st.permutations(pairs))


@st.composite
def graphs_with_stray_pairs(draw):
    """An acyclic or a cyclic digraph on shuffled ids, and pairs
    (repeats included) whose endpoints may fall outside the vertex
    range."""
    n = draw(st.integers(min_value=1, max_value=8))
    acyclic = draw(st.booleans())
    perm = draw(st.permutations(range(n)))
    pool = [
        (perm[i], perm[j]) for i in range(n) for j in range(n) if (i < j if acyclic else i != j)
    ]
    edges = draw(st.sets(st.sampled_from(pool), max_size=14)) if pool else set()
    end = st.integers(-2, n + 1)
    pairs = draw(st.lists(st.tuples(end, end), max_size=10))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return DirectedGraph(n, edges), pairs


class TestUnreachablePairs:
    def test_reports_failures_in_input_order(self):
        pairs = [(2, 0), (0, 3), (3, 1), (0, 0), (2, 0)]
        assert unreachable_pairs(DIAMOND, pairs) == [(2, 0), (3, 1), (2, 0)]

    @given(cyclic_digraph_with_any_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_one_bfs_per_source(self, case):
        g, pairs = case
        assert unreachable_pairs(g, pairs) == bfs_unreachable_pairs(g, pairs)

    @given(graphs_with_stray_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_bfs_with_stray_endpoints(self, case):
        g, pairs = case
        got = outcome(lambda: unreachable_pairs(g, pairs))
        assert got == outcome(lambda: bfs_unreachable_pairs(g, pairs))

    def test_one_closure_build_per_call(self, monkeypatch):
        # On a cyclic graph each closure build is one strong-component pass.
        calls = []

        def counting(n, step):
            calls.append(n)
            return strong_components(n, step)

        strong_components = graphs._strong_components
        monkeypatch.setattr(graphs, "_strong_components", counting)
        cyclic = DirectedGraph(4, {(0, 1), (1, 0), (1, 2)})
        assert unreachable_pairs(cyclic, [(0, 2), (2, 0), (1, 0), (3, 2), (0, 2)]) == [(2, 0), (3, 2)]
        assert calls == [4]
        assert cyclic._closure[True] is None
        assert unreachable_pairs(cyclic, [(2, 1), (1, 2)]) == [(2, 1)]
        assert calls == [4]

    def test_sink_out_of_range_is_unreachable_and_source_raises(self):
        assert unreachable_pairs(DIAMOND, [(0, 4), (0, 3), (0, -1)]) == [(0, 4), (0, -1)]
        for s in (4, -1):
            with pytest.raises(BoundsError):
                unreachable_pairs(DIAMOND, [(0, 3), (s, 0)])
            with pytest.raises(BoundsError):
                bfs_unreachable_pairs(DIAMOND, [(0, 3), (s, 0)])


class TestGrowthMode:
    def test_parse_accepts_codes_and_members(self):
        assert GrowthMode("fw") is GrowthMode.FORWARDS
        assert GrowthMode("bw") is GrowthMode.BACKWARDS
        assert GrowthMode(GrowthMode.FORWARDS) is GrowthMode.FORWARDS

    def test_parse_rejects_unknown(self):
        with pytest.raises(ParameterError):
            GrowthMode("sideways")

    def test_each_mode_pins_its_constraint(self):
        assert GrowthMode.FORWARDS.constraint.name == "FIRST_ARC_BEFORE_RIVER"
        assert GrowthMode.BACKWARDS.constraint.name == "LAST_ARC_BEFORE_RIVER"


class TestPreserverSession:
    def test_backwards_serve_records_auxiliary_path(self):
        session = CondensingPreserver(CHAIN3, "bw")
        new = session.serve_pair(0, 2)
        assert set(new) == {(0, 1), (1, 2)}
        assert session.z_paths[-1] == (0, 1, 2)
        assert session.z_size == 3

    def test_repeat_pair_adds_singleton_auxiliary_path(self):
        session = CondensingPreserver(CHAIN3, "bw")
        session.serve_pair(0, 2)
        new = session.serve_pair(0, 2)
        assert new == ()
        assert session.z_paths[-1] == (0,)
        assert session.z_size == 4
        assert session.h_size == 2

    def test_forwards_auxiliary_path_is_tails_plus_sink(self):
        session = CondensingPreserver(DIAMOND, "fw")
        session.serve_pair(0, 3)
        assert session.z_paths[-1] == (0, 1, 2, 3)
        session.serve_pair(0, 3)
        assert session.z_paths[-1] == (3,)

    def test_infeasible_pair_leaves_state_untouched(self):
        session = CondensingPreserver(CHAIN3, "bw")
        session.serve_pair(0, 2)
        before = (
            set(session.h.edges),
            list(session.z_paths),
            len(session.log),
            session.pairs_served,
        )
        with pytest.raises(InfeasiblePairError):
            session.serve_pair(2, 0)
        after = (
            set(session.h.edges),
            list(session.z_paths),
            len(session.log),
            session.pairs_served,
        )
        assert before == after

    def test_log_records_a_pair_on_reused_edges(self):
        session = CondensingPreserver(CHAIN3, "bw")
        session.serve_pair(0, 2)
        session.serve_pair(0, 1)
        rec = session.log[-1]
        assert rec.pair == (0, 1)
        assert rec.path == (0, 1)
        assert rec.new_edges == ()
        assert rec.added == ()

    @given(ringed_digraph_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=80, deadline=None)
    def test_the_log_is_the_run(self, case, mode):
        g, stream = case
        session = CondensingPreserver(g, mode)
        comp = session.cond.component_of
        for s, t in stream:
            assert session.serve_pair(s, t) is session.log[-1].added
        log = session.log
        assert [rec.pair for rec in log] == stream
        assert [(rec.path[0], rec.path[-1]) for rec in log] == [(comp[s], comp[t]) for s, t in stream]
        assert sum(len(rec.added) for rec in log) == len(session.output_edges)
        assert set().union(*(rec.added for rec in log)) == session.output_edges
        assert sum(len(rec.new_edges) for rec in log) == len(session.h)
        assert session.pairs_served == len(stream)
        # The count as the session kept it before the log: one set of
        # source components and one of sink components, filled per pair.
        sources = {comp[s] for s, _ in stream}
        sinks = {comp[t] for _, t in stream}
        expected = len(sinks) if mode == "fw" else len(sources)
        assert session.restricted_side_size == expected

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    def test_running_z_size_matches_recount_after_every_pair(self, mode):
        g, stream = generate(InstanceFamily(kind="random-dag", n=30, seed=3, pairs=60))
        session = CondensingPreserver(g, mode)
        for s, t in stream:
            session.serve_pair(s, t)
            recount = sum(len(p) for p in session.z_paths)
            assert session.z_size == recount

    def test_restricted_side_tracks_mode(self):
        fw = CondensingPreserver(DIAMOND, "fw")
        fw.serve_pair(0, 3)
        fw.serve_pair(1, 3)
        assert fw.restricted_side_size == 1
        bw = CondensingPreserver(DIAMOND, "bw")
        bw.serve_pair(0, 3)
        bw.serve_pair(0, 2)
        assert bw.restricted_side_size == 1

    def test_determinism_identical_streams(self):
        a = CondensingPreserver(DIAMOND, "fw")
        b = CondensingPreserver(DIAMOND, "fw")
        for s, t in [(0, 3), (1, 2), (0, 2), (0, 3)]:
            a.serve_pair(s, t)
            b.serve_pair(s, t)
        assert a.h.edges == b.h.edges
        assert a.z_paths == b.z_paths
        assert a.log == b.log


def closure_unreachable_pairs(session: CondensingPreserver) -> list:
    """The served-pair check of the audit without the path certificate:
    every record's ends are read off the bitset closure of H."""
    h = session.h.to_graph()
    return [r.pair for r in session.log if not h.reach_mask(r.path[0]) >> r.path[-1] & 1]


class TestVerifySession:
    @pytest.mark.parametrize("mode", ["fw", "bw"])
    def test_audit_leaves_no_reference_cycle(self, mode):
        # Widths 3 and 4 extend chains with a recursive helper; one that
        # called itself through its closure cell kept the pair index alive
        # until the next full collection.
        rng = random.Random(5)
        n = 120
        g = DirectedGraph(n, {tuple(sorted(rng.sample(range(n), 2))) for _ in range(4 * n)})
        session = CondensingPreserver(g, mode)
        for s, t in random_pairs(rng, g, 2 * n):
            session.serve_pair(s, t)
        gc.collect()
        gc.disable()
        try:
            assert verify_session(session).ok
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_session_audits_clean(self):
        report = verify_session(CondensingPreserver(DIAMOND))
        assert report.ok
        assert report.expected_size == 0 == report.actual_size
        assert report.describe() == "session audit clean"

    def test_driven_session_audits_clean(self):
        session = CondensingPreserver(DIAMOND, "bw")
        for s, t in [(0, 3), (0, 2), (1, 3), (0, 3)]:
            session.serve_pair(s, t)
        report = verify_session(session)
        assert report.ok
        assert report.size_ok
        assert report.actual_size == len(session.h) + session.pairs_served

    def test_reversed_auxiliary_path_is_caught(self):
        g = DirectedGraph(4, {(0, 1), (1, 2), (1, 3), (3, 2)})
        session = CondensingPreserver(g, "bw")
        for s, t in [(0, 2), (1, 3), (3, 2)]:
            session.serve_pair(s, t)
        assert verify_session(session).ok
        rec = session.log[0]
        session.log[0] = rec._replace(new_edges=tuple(reversed(rec.new_edges)))
        assert session.z_paths[0] == (0, 2, 1)
        report = verify_session(session)
        assert not report.ok
        assert not report.acyclic
        assert "cyclic" in report.describe()

    def test_record_missing_a_new_edge_breaks_size_identity(self):
        session = CondensingPreserver(DIAMOND, "fw")
        for s, t in [(0, 3), (1, 3)]:
            session.serve_pair(s, t)
        assert verify_session(session).ok
        rec = session.log[0]
        session.log[0] = rec._replace(new_edges=rec.new_edges[:-1])
        report = verify_session(session)
        assert not report.size_ok
        assert report.actual_size == report.expected_size - 1 == len(session.h) + 1
        assert "size identity broken" in report.describe()

    def test_cleared_h_reports_the_pair_as_served(self):
        # 0 and 1 share a strong component, so the served pair (0, 2) is
        # the component pair (0, 1) on the condensation.
        g = DirectedGraph(5, {(0, 1), (1, 0), (1, 4), (4, 3), (3, 2)})
        session = CondensingPreserver(g, "fw")
        session.serve_pair(0, 2)
        session.h = EdgeStore(session.dag.n)
        report = verify_session(session)
        assert report.unreachable_pairs == [(0, 2)]
        assert "pairs not preserved: [(0, 2)]" in report.describe()

    def test_dropped_h_edge_on_a_cyclic_graph_reports_served_pairs(self):
        g = DirectedGraph(5, {(0, 1), (1, 0), (1, 4), (4, 3), (3, 2)})
        session = CondensingPreserver(g, "bw")
        for s, t in [(1, 2), (0, 3), (4, 2), (1, 0)]:
            session.serve_pair(s, t)
        comp = session.cond.component_of
        dropped = (comp[3], comp[2])
        session.h = store_with(session.dag.n, [e for e in session.h.edges if e != dropped])
        report = verify_session(session)
        assert report.unreachable_pairs == [(1, 2), (4, 2)]
        assert "pairs not preserved: [(1, 2), (4, 2)]" in report.describe()

    @pytest.mark.parametrize(
        "h_edges, expected",
        [
            # the recorded path 0-1-2 lost (1, 2), but (0, 2) still
            # reaches 2: the certificate fails, the closure clears it
            ([(0, 1), (0, 2)], []),
            # the only route to 2 is gone: reported as served
            ([(0, 1), (2, 3)], [(0, 2)]),
        ],
    )
    def test_uncertified_pairs_are_decided_by_the_closure(self, h_edges, expected):
        session = CondensingPreserver(DIAMOND, "fw")
        session.serve_pair(0, 2)
        assert session.log[0].path == (0, 1, 2)
        session.h = store_with(DIAMOND.n, h_edges)
        assert (1, 2) not in session.h
        assert verify_session(session).unreachable_pairs == expected

    # rings collapse most of a small digraph into one component, so plain
    # DAGs are drawn too: they give longer paths to drop edges from
    @given(
        st.one_of(ringed_digraph_with_pairs(), dag_with_pairs()),
        st.sampled_from(["fw", "bw"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_served_pairs_match_the_closure_after_random_drops(self, case, mode, data):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs:
            session.serve_pair(s, t)
        assert verify_session(session).unreachable_pairs == closure_unreachable_pairs(session) == []
        edges = sorted(session.h.edges)
        dropped = data.draw(st.sets(st.sampled_from(edges), min_size=1) if edges else st.just(set()))
        # DAG edges outside H give a pair whose path lost an edge another route
        spare = sorted(session.dag.edges - session.h.edges)
        extra = data.draw(st.sets(st.sampled_from(spare)) if spare else st.just(set()))
        session.h = store_with(session.dag.n, [e for e in edges if e not in dropped] + sorted(extra))
        assert verify_session(session).unreachable_pairs == closure_unreachable_pairs(session)

    def test_dropped_edge_breaks_size_identity(self):
        session = CondensingPreserver(CHAIN3, "bw")
        session.serve_pair(0, 2)
        session.h.edges.discard((0, 1))
        report = verify_session(session)
        assert not report.size_ok
        assert report.unreachable_pairs == [(0, 2)]
        assert not report.ok

    @given(
        dag_with_pairs(),
        st.sampled_from(["fw", "bw"]),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_served_pairs_match_bfs_with_and_without_a_dropped_edge(self, case, mode, drop):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs + pairs[:2]:
            session.serve_pair(s, t)
        served = [rec.pair for rec in session.log]
        assert verify_session(session).unreachable_pairs == []
        edges = sorted(session.h.edges)
        if not edges:
            return
        session.h = store_with(g.n, [e for e in edges if e != edges[drop % len(edges)]])
        expected = unreachable_pairs(session.h.to_graph(), served)
        assert verify_session(session).unreachable_pairs == expected

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_served_pairs_match_bfs_for_each_dropped_edge(self, seed, mode):
        g, stream = generate(InstanceFamily(kind="random-dag", n=30, seed=seed, pairs=40))
        session = CondensingPreserver(g, mode)
        for s, t in stream + stream[:5]:
            session.serve_pair(s, t)
        served = [rec.pair for rec in session.log]
        assert verify_session(session).unreachable_pairs == unreachable_pairs(session.h.to_graph(), served) == []
        honest = sorted(session.h.edges)
        broken = 0
        for dropped in honest:
            session.h = store_with(g.n, [e for e in honest if e != dropped])
            expected = unreachable_pairs(session.h.to_graph(), served)
            assert verify_session(session).unreachable_pairs == expected
            broken += bool(expected)
        assert broken > 0

    @given(dag_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=60, deadline=None)
    def test_honest_sessions_always_audit_clean(self, case, mode):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs:
            session.serve_pair(s, t)
            report = verify_session(session)
            assert report.ok, report.describe()


def parent_verify_session(session: CondensingPreserver) -> SessionReport:
    """Full audit of a finished session: auxiliary system acyclic, size
    identity |Z| = |H| + p exact, no mode-constrained bridge of width 2,
    3 or 4, and every served pair reachable in H. All of it is read on
    the component DAG, where H and Z live. Violations are reported with
    witnesses instead of raised, unpreserved pairs as they were served.

    A record whose recorded path lies in H certifies its pair. The
    others are checked against the bitset closure of H, built only when
    some record needs it."""
    # The audit before acyclicity was certified by the DAG's order: the
    # full is_acyclic runs on every call. Kept as the oracle.
    z = session.z_system()
    acyclic, _ = is_acyclic(z)
    expected = len(session.h) + session.pairs_served
    actual = z.size()
    bridges = {k: find_k_bridge(z, k, session.mode.constraint) for k in (2, 3, 4)}
    h_edges = session.h.edges
    unsure = [r for r in session.log if not h_edges.issuperset(zip(r.path, r.path[1:]))]
    if unsure:
        h = session.h.to_graph()
        unsure = [r for r in unsure if not h.reach_mask(r.path[0]) >> r.path[-1] & 1]
    unreachable = [r.pair for r in unsure]
    return SessionReport(
        acyclic=acyclic,
        size_ok=(expected == actual),
        expected_size=expected,
        actual_size=actual,
        bridges=bridges,
        unreachable_pairs=unreachable,
    )


class AgainstOrderSession(CondensingPreserver):
    """A session on a DAG that serves the pairs whose stream index is in
    ``against`` along the reverse of their grown path; every path edge
    not yet in H counts as new. A reversed path with two vertices or
    more gives an auxiliary path against the DAG's topological order.
    Paths are grown on ``grown``, the H of the honest session, because a
    walk that read the reversed edges in H could circle forever. The
    reversed edges are not DAG edges, so only an identity condensation
    (a DAG input) can lift them."""

    def __init__(self, g: DirectedGraph, mode, against):
        super().__init__(g, mode)
        self.against = against
        self.grown = EdgeStore(self.dag.n)

    def _choose_path(self, s: int, t: int, new: list) -> tuple[int, ...]:
        taken: list = []
        path = self.mode.grow(self.dag, self.grown, s, t, taken)
        for e in taken:
            self.grown.add(e)
        if len(self.log) in self.against:
            path = path[::-1]
        new.extend(e for e in zip(path, path[1:]) if e not in self.h)
        return path


def breaks_dag_order(session: CondensingPreserver) -> bool:
    """Whether some auxiliary path fails to ascend strictly in the
    component DAG's topological order, read by a dict of positions."""
    position = {c: i for i, c in enumerate(session.dag.topological_order())}
    return any(
        position[a] >= position[b] for path in session.z_paths for a, b in zip(path, path[1:])
    )


def audited_against_the_parent(session: CondensingPreserver, monkeypatch) -> tuple[SessionReport, int]:
    """verify_session's report, asserted equal (as its repr) to the
    parent's, and the number of is_acyclic calls the audit made through
    preserver's binding."""
    calls = []

    def counted(z):
        calls.append(z)
        return is_acyclic(z)

    monkeypatch.setattr(preserver, "is_acyclic", counted)
    report = verify_session(session)
    monkeypatch.undo()
    assert repr(report) == repr(parent_verify_session(session))
    return report, len(calls)


class TestAcyclicityCertificate:
    @given(
        st.one_of(ringed_digraph_with_pairs(), dag_with_pairs()),
        st.sampled_from(["fw", "bw"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_honest_sessions_match_the_parent_without_is_acyclic(self, case, mode):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs:
            session.serve_pair(s, t)
        with pytest.MonkeyPatch.context() as mp:
            report, calls = audited_against_the_parent(session, mp)
        assert report.ok, report.describe()
        assert calls == 0

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    @pytest.mark.parametrize("kind", ["random-dag", "random-digraph"])
    def test_generated_sessions_match_the_parent(self, kind, mode, monkeypatch):
        density = 0.1 if kind == "random-dag" else 0.03
        family = InstanceFamily(kind=kind, n=60, seed=7, density=density, pairs=120)
        g, stream = generate(family)
        session = CondensingPreserver(g, mode)
        for s, t in stream:
            session.serve_pair(s, t)
        assert max(map(len, session.z_paths)) >= 3
        report, calls = audited_against_the_parent(session, monkeypatch)
        assert report.ok and calls == 0

    @given(dag_with_pairs(), st.sampled_from(["fw", "bw"]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sessions_against_the_order_match_the_parent(self, case, mode, data):
        g, pairs = case
        against = data.draw(st.sets(st.integers(0, len(pairs) - 1), min_size=1))
        session = AgainstOrderSession(g, mode, against)
        for s, t in pairs:
            session.serve_pair(s, t)
        with pytest.MonkeyPatch.context() as mp:
            _, calls = audited_against_the_parent(session, mp)
        assert calls == (1 if breaks_dag_order(session) else 0)

    def test_a_path_against_the_order_on_an_acyclic_z_calls_is_acyclic_once(self, monkeypatch):
        session = AgainstOrderSession(CHAIN3, "fw", {0})
        session.serve_pair(0, 2)
        assert session.z_paths == [(2, 1, 0)]
        report, calls = audited_against_the_parent(session, monkeypatch)
        assert report.acyclic and calls == 1

    def test_a_cyclic_z_calls_is_acyclic_once(self, monkeypatch):
        # the session of test_reversed_auxiliary_path_is_caught
        g = DirectedGraph(4, {(0, 1), (1, 2), (1, 3), (3, 2)})
        session = CondensingPreserver(g, "bw")
        for s, t in [(0, 2), (1, 3), (3, 2)]:
            session.serve_pair(s, t)
        rec = session.log[0]
        session.log[0] = rec._replace(new_edges=tuple(reversed(rec.new_edges)))
        report, calls = audited_against_the_parent(session, monkeypatch)
        assert not report.acyclic and calls == 1

    @given(
        st.one_of(ringed_digraph_with_pairs(), dag_with_pairs()),
        st.sampled_from(["fw", "bw"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_reversed_records_match_the_parent(self, case, mode, data):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs:
            session.serve_pair(s, t)
        for i in data.draw(st.sets(st.integers(0, len(session.log) - 1))):
            rec = session.log[i]
            session.log[i] = rec._replace(new_edges=tuple(reversed(rec.new_edges)))
        with pytest.MonkeyPatch.context() as mp:
            _, calls = audited_against_the_parent(session, mp)
        assert calls == (1 if breaks_dag_order(session) else 0)


class TestSizeEnvelope:
    def test_frozen_values(self):
        assert size_envelope_source_restricted(100, 1, 1) == pytest.approx(1760.0)
        assert size_envelope_source_restricted(1, 1, 1) == pytest.approx(32.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            size_envelope_source_restricted(0, 1, 1)
        with pytest.raises(ParameterError):
            size_envelope_source_restricted(10, -1, 1)
        with pytest.raises(ParameterError):
            size_envelope_source_restricted(10, 1, 1, constant=0.0)

    @pytest.mark.parametrize("constant", [1.0, 32])
    def test_general_envelope_is_the_abstracts_bound(self, constant):
        for n in (1, 2, 40, 160, 2000):
            for p in (1, 3, 20, 80, 4000):
                expected = constant * (n**0.72 * p**0.56 + n**0.6 * p**0.7 + n)
                assert size_envelope_general(n, p, constant) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "args", [(0, 1, 1.0), (10, -1, 1.0), (10, 2.5, 1.0), (10, 1, 0.0), (10, 1, float("inf"))]
    )
    def test_general_envelope_rejects_bad_parameters(self, args):
        with pytest.raises(ParameterError):
            size_envelope_general(*args)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "3", 2.5], ids=repr)
    @pytest.mark.parametrize("name", ["n", "p"])
    def test_a_count_must_be_exactly_an_int(self, name, value):
        counts = {"n": 10, "p": 3, name: value}
        message = re.escape(f"{name} must be an integer >= 1, got {value!r}")
        with pytest.raises(ParameterError, match=message):
            size_envelope_general(counts["n"], counts["p"], 1.0)
        with pytest.raises(ParameterError, match=message):
            default_surrogate(10).evaluate(counts["n"], counts["p"])

    @given(dag_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=40, deadline=None)
    def test_small_sessions_fit_the_default_budget(self, case, mode):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs:
            session.serve_pair(s, t)
        sigma = max(1, session.restricted_side_size)
        budget = size_envelope_source_restricted(g.n, len(pairs), sigma)
        assert session.h_size <= budget


class TestCondensingPreserver:
    def test_cycle_component_gets_both_trees(self):
        g = DirectedGraph(4, {(0, 1), (1, 2), (2, 0), (2, 3)})
        session = CondensingPreserver(g, "fw")
        added = session.serve_pair(0, 3)
        assert set(added) == {(0, 1), (1, 2), (2, 0), (2, 3)}
        out = session.output_graph()
        assert 3 in reachable_set(out, 0)
        # trees for {0,1,2} count 2(|C|-1) = 4, singleton {3} counts 0
        assert session.cond.tree_edge_count == 4

    def test_trees_added_only_on_first_touch(self):
        g = DirectedGraph(4, {(0, 1), (1, 2), (2, 0), (2, 3)})
        session = CondensingPreserver(g, "fw")
        session.serve_pair(0, 3)
        assert session.serve_pair(1, 3) == ()
        assert session.pairs_served == 2

    def test_infeasible_pair_reports_original_ids(self):
        g = DirectedGraph(4, {(0, 1), (1, 2), (2, 0), (2, 3)})
        session = CondensingPreserver(g)
        with pytest.raises(InfeasiblePairError, match="0 not reachable from 3"):
            session.serve_pair(3, 0)

    def test_out_of_range_vertex_raises(self):
        session = CondensingPreserver(DIAMOND)
        with pytest.raises(BoundsError):
            session.serve_pair(0, 99)

    def test_same_component_pair_served_by_trees(self):
        g = DirectedGraph(3, {(0, 1), (1, 2), (2, 0)})
        session = CondensingPreserver(g, "bw")
        session.serve_pair(1, 0)
        out = session.output_graph()
        for s in range(3):
            assert reachable_set(out, s) == frozenset(range(3))

    @given(digraph_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=60, deadline=None)
    def test_all_served_pairs_stay_reachable(self, case, mode):
        g, pairs = case
        session = CondensingPreserver(g, mode)
        for s, t in pairs:
            session.serve_pair(s, t)
        out = session.output_graph()
        assert session.output_edges <= g.edges
        for s, t in pairs:
            assert t in reachable_set(out, s)
        report = verify_session(session)
        assert report.ok, report.describe()

    @given(digraph_with_pairs())
    @settings(max_examples=40, deadline=None)
    def test_tree_accounting_identity(self, case):
        g, _ = case
        cond = condense(g)
        expected = sum(2 * (len(comp) - 1) for comp in cond.components)
        assert cond.tree_edge_count == expected
        assert cond.tree_edge_count < 2 * g.n

    def test_rejects_a_condensation_of_another_graph(self):
        other = condense(DirectedGraph(3, {(0, 2), (2, 1)}))
        with pytest.raises(ParameterError, match="another graph"):
            CondensingPreserver(CHAIN3, "fw", other)

    def test_accepts_a_condensation_of_an_equal_graph(self):
        cond = condense(DirectedGraph(3, {(0, 1), (1, 2)}))
        session = CondensingPreserver(CHAIN3, "fw", cond)
        assert session.serve_pair(0, 2) == ((0, 1), (1, 2))

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    @pytest.mark.parametrize("seed", range(10))
    def test_trees_and_lifts_match_the_touched_loop(self, seed, mode):
        rng = random.Random(seed)
        n = rng.randint(10, 60)
        edges = {tuple(rng.sample(range(n), 2)) for _ in range(int(1.6 * n))}
        g = DirectedGraph(n, edges)
        session = CondensingPreserver(g, mode)
        cond = session.cond
        bare, reference, touched = BareDagSession(cond.dag, mode), set(), set()
        reference_log = []
        first_pair: dict[int, int] = {}
        tree_edges_added: dict[int, list] = {}
        for i, (s, t) in enumerate(random_pairs(rng, g, 3 * n)):
            added = session.serve_pair(s, t)
            reference_log.append(touched_loop_serve(bare, cond, reference, touched, s, t))
            assert added == reference_log[-1].added
            for comp in session.log[-1].path:
                first_pair.setdefault(comp, i)
            for u, v in added:
                if cond.component_of[u] == cond.component_of[v]:
                    tree_edges_added.setdefault(cond.component_of[u], []).append((i, (u, v)))
        assert session.output_edges == reference
        assert session.h.edges == bare.h.edges
        assert session.z_paths == bare.z_paths
        assert session.log == reference_log
        assert any(len(comp) > 1 for comp in cond.components)
        # Each component's trees come once, with the first pair whose path passes it.
        for comp, members in enumerate(cond.components):
            got = tree_edges_added.get(comp, [])
            if len(members) == 1 or comp not in first_pair:
                assert got == []
            else:
                assert got == [(first_pair[comp], e) for e in cond.tree_edges_of(comp)]

    @given(dag_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=60, deadline=None)
    def test_on_a_dag_matches_a_bare_session(self, case, mode):
        g, pairs = case
        wrapped, bare = CondensingPreserver(g, mode), BareDagSession(g, mode)
        assert wrapped.dag is g
        for s, t in pairs:
            assert wrapped.serve_pair(s, t) == bare.serve_pair(s, t)
        assert wrapped.output_edges == bare.h.edges
        assert wrapped.z_paths == bare.z_paths
        assert wrapped.log == bare.log

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    @pytest.mark.parametrize("seed", range(4))
    def test_on_a_shuffled_dag_matches_a_bare_session(self, seed, mode):
        rng = random.Random(seed)
        n = rng.randint(20, 80)
        perm = rng.sample(range(n), n)  # so that ids do not follow the topological order
        edges = set()
        for _ in range(3 * n):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((perm[u], perm[v]))
        g = DirectedGraph(n, edges)
        wrapped, bare = CondensingPreserver(g, mode), BareDagSession(g, mode)
        for s, t in random_pairs(rng, g, 4 * n):
            assert wrapped.serve_pair(s, t) == bare.serve_pair(s, t)
        assert wrapped.output_edges == bare.h.edges
        assert wrapped.z_paths == bare.z_paths
        assert wrapped.log == bare.log


@given(cyclic_digraph_with_any_pairs())
@settings(max_examples=150, deadline=None)
def test_pending_trees_are_the_components_with_two_vertices_or_more(case):
    # the session copies the condensation's tree keys instead of scanning
    # every component, and serving removes from its own set only
    g, pairs = case
    cond = condense(g)
    session = CondensingPreserver(g, "fw", cond)
    scan = {c for c, members in enumerate(cond.components) if len(members) > 1}
    assert session._pending == scan and type(session._pending) is set
    for s, t in pairs:
        try:
            session.serve_pair(s, t)
        except ReachkeepError:
            pass
    assert set(cond._tree_of) == scan and session._pending <= scan
