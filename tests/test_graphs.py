"""Graph container, text format, reachability, and condensation."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachkeep.errors import (
    BoundsError,
    InfeasiblePairError,
    MissingEntryError,
    ParseError,
)
from reachkeep.graphs import (
    DirectedGraph,
    IncrementalClosure,
    condense,
    dump_graph,
    format_pairs,
    lift_edge,
    load_graph,
    parse_pairs,
    reachable_set,
)
from reachkeep.preserver import EdgeStore
from reachkeep.udsn import bfs_route


def closure_oracle(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Reflexive-transitive closure by saturation. Slow on purpose."""
    reach = {(v, v) for v in range(n)} | set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(reach), repeat=2):
            if b == c and (a, d) not in reach:
                reach.add((a, d))
                changed = True
    return reach


def scc_oracle(n: int, edges: set[tuple[int, int]]) -> list[frozenset[int]]:
    reach = closure_oracle(n, edges)
    comps = {
        frozenset(v for v in range(n) if (u, v) in reach and (v, u) in reach)
        for u in range(n)
    }
    return sorted(comps, key=min)


def bits(mask: int) -> set[int]:
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def level_bfs_route(g: DirectedGraph, s: int, t: int) -> tuple[tuple[int, int], ...]:
    """Level-by-level BFS route, smallest-head tie-break; the route
    ``bfs_route`` must return. Kept as the reference for it."""
    if s == t:
        return ()
    parent: dict[int, int] = {s: s}
    frontier = [s]
    while frontier and t not in parent:
        nxt = []
        for u in frontier:
            for v in g.out_neighbors(u):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if t not in parent:
        raise InfeasiblePairError(f"{t} is not reachable from {s}")
    edges = []
    v = t
    while v != s:
        edges.append((parent[v], v))
        v = parent[v]
    return tuple(reversed(edges))


def component_bfs_tree(members, rep: int, step, reverse: bool) -> set[tuple[int, int]]:
    """BFS tree over ``members`` from ``rep``, edges in original
    orientation; the reference for the condensation's per-component
    in and out trees."""
    member_set = set(members)
    seen = {rep}
    queue = deque([rep])
    tree: set[tuple[int, int]] = set()
    while queue:
        u = queue.popleft()
        for v in step(u):
            if v in member_set and v not in seen:
                seen.add(v)
                tree.add((v, u) if reverse else (u, v))
                queue.append(v)
    assert seen == member_set
    return tree


def reference_tree_edges(g: DirectedGraph, comp) -> tuple[tuple[int, int], ...]:
    """The sorted union of the reference out- and in-BFS trees of the
    component ``comp`` from its smallest member; none for one vertex."""
    if len(comp) == 1:
        return ()
    out_tree = component_bfs_tree(comp, comp[0], g.out_neighbors, False)
    in_tree = component_bfs_tree(comp, comp[0], g.in_neighbors, True)
    return tuple(sorted(out_tree | in_tree))


def tree_depths(tree, comp, rep: int, reverse: bool) -> dict[int, int]:
    """Depth of each vertex of ``comp`` in the edges of ``tree`` inside
    it: edges point away from ``rep``, or towards it when reverse."""
    members = set(comp)
    parent = {}
    for u, v in tree:
        if u in members:
            child, up = (u, v) if reverse else (v, u)
            assert child not in parent
            parent[child] = up
    depths = {}
    for v in comp:
        k, w = 0, v
        while w != rep:
            w = parent[w]
            k += 1
            assert k < len(comp)
        depths[v] = k
    return depths


small_graphs = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=14,
        ),
    )
)


def edge_loop_topological_order(g: DirectedGraph):
    """``DirectedGraph.topological_order`` as it was when the in-degrees
    came from a loop over the edge set, uncached. Kept as the
    reference."""
    import heapq

    indeg = [0] * g.n
    for _, v in g.edges:
        indeg[v] += 1
    heap = [v for v in range(g.n) if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for w in g._out[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return tuple(order) if len(order) == g.n else None


@st.composite
def shuffled_dags(draw):
    """A DAG of up to 16 vertices whose ids do not follow a topological
    order, and, when asked for, the same edges plus one back edge, which
    closes a cycle behind an acyclic part."""
    n = draw(st.integers(min_value=1, max_value=16))
    perm = draw(st.permutations(range(n)))
    pool = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), max_size=40)) if pool else set()
    if pool and draw(st.booleans()):
        u, v = draw(st.sampled_from(sorted(edges or pool)))
        edges = edges | {(u, v), (v, u)}
    return DirectedGraph(n, edges)


class TestDirectedGraph:
    @given(st.one_of(small_graphs.map(lambda case: DirectedGraph(*case)), shuffled_dags()))
    @settings(max_examples=200, deadline=None)
    def test_topological_order_matches_the_edge_loop(self, g):
        expected = edge_loop_topological_order(g)
        assert g.topological_order() == expected
        assert g.topological_order() == expected  # the cached answer
        assert g.is_dag == (expected is not None)
        if expected is not None:
            pos = {v: i for i, v in enumerate(expected)}
            assert all(pos[u] < pos[v] for u, v in g.edges)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(BoundsError):
            DirectedGraph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(BoundsError):
            DirectedGraph(3, [(1, 1)])

    def test_deduplicates(self):
        g = DirectedGraph(3, [(0, 1), (0, 1), (1, 2)])
        assert g.edge_count == 2

    def test_neighbor_order_is_sorted(self):
        g = DirectedGraph(4, [(0, 3), (0, 1), (0, 2)])
        assert g.out_neighbors(0) == (1, 2, 3)
        assert g.in_neighbors(3) == (0,)

    def test_topological_order_on_dag(self):
        g = DirectedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in g.edges)
        assert g.is_dag

    def test_topological_order_on_cycle(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.topological_order() is None
        assert not g.is_dag

    def test_reach_mask_rejects_out_of_range_vertex(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        for v in (-1, 3):
            for reverse in (False, True):
                with pytest.raises(BoundsError):
                    g.reach_mask(v, reverse)

    @given(small_graphs)
    @settings(max_examples=60, deadline=None)
    def test_reachability_matches_closure(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        closure = closure_oracle(n, edges)
        for root in range(n):
            assert reachable_set(g, root) == {v for u, v in closure if u == root}
            assert reachable_set(g, root, reverse=True) == {
                u for u, v in closure if v == root
            }
            for reverse in (False, True):
                assert bits(g.reach_mask(root, reverse)) == reachable_set(g, root, reverse)
        # The members of one strong component share one mask object.
        for comp in scc_oracle(n, edges):
            for reverse in (False, True):
                assert len({id(g.reach_mask(v, reverse)) for v in comp}) == 1
        store = EdgeStore(n)
        for e in g.edges:
            store.add(e)
        for s in range(n):
            assert reachable_set(store, s) == reachable_set(g, s)


class TestTextFormat:
    def test_roundtrip(self):
        g = DirectedGraph(5, [(0, 1), (3, 2), (4, 0)])
        assert load_graph(dump_graph(g)) == g

    def test_header_and_comments(self):
        g = load_graph("# demo\nn 4\n0 1  # edge\n\n2 3\n")
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (2, 3)})

    def test_headerless_uses_max_vertex(self):
        g = load_graph("0 5\n")
        assert g.n == 6

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph("0 1\n0 one\n")

    def test_header_after_edges_rejected(self):
        with pytest.raises(ParseError, match="before edges"):
            load_graph("0 1\nn 4\n")

    def test_edge_beyond_declared_count(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph("n 2\n0 2\n")

    @given(small_graphs)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        assert load_graph(dump_graph(g)) == g


class TestPairFormat:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("p 1\np 1\n0 1\n", "line 2: duplicate 'p' header"),
            ("0 1\np 1\n", "line 2: 'p' header must come before pairs"),
            ("p ²\n", "line 1: bad count"),
            ("p 1 2\n0 1\n", "line 1: header must be 'p <count>'"),
            ("p 2\n0 1\n", "header declared 2 pairs, found 1"),
            ("0 1\n0 one\n", "line 2: non-integer id"),
            ("0 1\n1 2 3\n", "line 2: expected two ids"),
            ("# demands\n\n-1 2\n", "line 3: negative id"),
        ],
        ids=[
            "duplicate-header", "header-after-pairs", "bad-count", "bad-header",
            "count-mismatch", "non-integer", "three-columns", "negative",
        ],
    )
    def test_malformed_pairs_rejected(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_pairs(text)

    def test_header_and_comments(self):
        assert parse_pairs("# demo\np 2\n0 1  # first\n\n2 0\n") == [(0, 1), (2, 0)]
        assert parse_pairs("3 1\n3 1\n") == [(3, 1), (3, 1)]

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, pairs):
        assert parse_pairs(format_pairs(pairs)) == pairs


# Tokens joined by spaces never merge, so every id stays below 100 and a
# parsed graph stays small.
_tokens = st.one_of(
    st.sampled_from(["n", "p", "0", "1", "2", "7", "-1", "+5", "²", "١٢", "1_0", "x", "#"]),
    st.text(max_size=2),
)
_any_text = st.lists(st.lists(_tokens, max_size=4).map(" ".join), max_size=6).map("\n".join)


@given(_any_text)
@example("p ²\n0 1\n")
@example("n ²\n")
@example("n +5\n١٢ 3\n")
@settings(max_examples=200, deadline=None)
def test_any_text_fails_only_with_parse_error(text):
    for reader in (load_graph, parse_pairs):
        try:
            reader(text)
        except ParseError:
            pass


class TestCondensation:
    def test_three_cycle_trees(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        c = condense(g)
        assert c.components == ((0, 1, 2),)
        assert c.tree_edge_count == 4
        assert c.dag.edge_count == 0

    def test_dag_is_identity(self):
        g = DirectedGraph(4, [(0, 1), (1, 2), (0, 3)])
        c = condense(g)
        assert c.components == ((0,), (1,), (2,), (3,))
        assert c.tree_edge_count == 0
        assert c.dag.edges == g.edges

    @pytest.mark.parametrize("seed", range(8))
    def test_dag_is_its_own_condensation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        perm = rng.sample(range(n), n)  # so that ids do not follow the topological order
        edges = set()
        for _ in range(3 * n):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((perm[u], perm[v]))
        g = DirectedGraph(n, edges)
        c = condense(g)
        assert c.dag is g
        assert c.component_of == tuple(range(n))
        assert c.components == tuple((v,) for v in range(n))
        assert c.representative == tuple(range(n))
        assert c.tree_edge_count == 0
        assert all(c.tree_edges_of(v) == () for v in range(n))
        for e in g.edges:
            assert lift_edge(c, e) == e
        u, v = next(iter(g.edges))
        with pytest.raises(MissingEntryError):
            lift_edge(c, (v, u))  # a DAG has no edge both ways

    def test_lift_roundtrip(self):
        g = DirectedGraph(5, [(0, 1), (1, 0), (1, 2), (0, 2), (2, 3), (3, 4), (4, 3)])
        c = condense(g)
        for de in c.dag.edges:
            u, v = lift_edge(c, de)
            assert (u, v) in g.edges
            assert c.component_of[u] == de[0]
            assert c.component_of[v] == de[1]

    def test_lift_unknown_edge(self):
        g = DirectedGraph(2, [(0, 1)])
        c = condense(g)
        with pytest.raises(MissingEntryError):
            lift_edge(c, (1, 0))

    def test_lift_prefers_smallest_original(self):
        # both (0,2) and (1,2) cross from the cycle {0,1} to {2}
        g = DirectedGraph(3, [(0, 1), (1, 0), (1, 2), (0, 2)])
        c = condense(g)
        (de,) = c.dag.edges
        assert lift_edge(c, de) == (0, 2)

    @given(small_graphs)
    @settings(max_examples=60, deadline=None)
    def test_matches_scc_oracle(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        c = condense(g)
        expected = scc_oracle(n, edges)
        assert [frozenset(comp) for comp in c.components] == expected
        assert c.dag.is_dag
        assert c.tree_edge_count == sum(2 * (len(comp) - 1) for comp in c.components)
        for comp_id, comp in enumerate(c.components):
            members = set(comp)
            assert c.tree_edges_of(comp_id) == reference_tree_edges(g, comp)
            for u, v in c.tree_edges_of(comp_id):
                assert (u, v) in g.edges
                assert u in members and v in members

    @given(small_graphs)
    @settings(max_examples=60, deadline=None)
    def test_tree_index_matches_tree_edges(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        c = condense(g)
        assert c.tree_edge_count == sum(2 * (len(comp) - 1) for comp in c.components)
        for comp_id, comp in enumerate(c.components):
            got = c.tree_edges_of(comp_id)
            assert got == reference_tree_edges(g, comp)
            assert list(got) == sorted(got)
            if len(comp) == 1:
                assert got == ()

    @given(small_graphs)
    @settings(max_examples=40, deadline=None)
    def test_tree_total_strictly_below_2n(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        assert condense(g).tree_edge_count < 2 * n

    @given(small_graphs)
    @settings(max_examples=40, deadline=None)
    def test_component_reachability_preserved_by_trees(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        c = condense(g)
        if c.tree_edge_count == 0:
            return
        for comp_id, comp in enumerate(c.components):
            if len(comp) == 1:
                continue
            assert c.tree_edges_of(comp_id) == reference_tree_edges(g, comp)
            t = DirectedGraph(n, c.tree_edges_of(comp_id))
            root = min(comp)
            assert set(comp) <= reachable_set(t, root)
            assert set(comp) <= reachable_set(t, root, reverse=True)


class TestSingleBfs:
    """``bfs_route`` and the condensation's trees against the separate
    BFS loops they replaced."""

    @given(small_graphs)
    @example((4, {(0, 1), (0, 2), (1, 3), (2, 3)}))  # 3 is found again from 2
    @example((4, {(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)}))  # edges leave {0, 1}
    @settings(max_examples=80, deadline=None)
    def test_routes_and_trees_match_references(self, case):
        n, edges = case
        g = DirectedGraph(n, edges)
        for s in range(n):
            for t in range(n):
                try:
                    want = level_bfs_route(g, s, t)
                except InfeasiblePairError as exc:
                    with pytest.raises(InfeasiblePairError, match=str(exc)):
                        bfs_route(g, s, t)
                else:
                    assert bfs_route(g, s, t) == want
        c = condense(g)
        assert c.tree_edge_count == sum(2 * (len(comp) - 1) for comp in c.components)
        for comp_id, comp in enumerate(c.components):
            assert c.tree_edges_of(comp_id) == reference_tree_edges(g, comp)


@pytest.mark.parametrize("seed", range(6))
def test_condense_and_reach_mask_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randint(20, 120)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
    edges = {(u, v) for u, v in edges if u != v}
    perm = rng.sample(range(n), n)  # so that ids do not follow the topological order
    dag_edges = {(perm[min(u, v)], perm[max(u, v)]) for u, v in edges}
    for g in (DirectedGraph(n, edges), DirectedGraph(n, dag_edges)):
        ng = nx.DiGraph(list(g.edges))
        ng.add_nodes_from(range(n))
        c = condense(g)
        assert {frozenset(comp) for comp in c.components} == {
            frozenset(comp) for comp in nx.strongly_connected_components(ng)
        }
        assert c.tree_edge_count == sum(2 * (len(comp) - 1) for comp in c.components)
        for comp_id, comp in enumerate(c.components):
            sub = ng.subgraph(comp)
            rep = comp[0]
            out_tree = component_bfs_tree(comp, rep, g.out_neighbors, False)
            in_tree = component_bfs_tree(comp, rep, g.in_neighbors, True)
            assert tree_depths(out_tree, comp, rep, False) == (
                nx.single_source_shortest_path_length(sub, rep)
            )
            assert tree_depths(in_tree, comp, rep, True) == (
                nx.single_source_shortest_path_length(sub.reverse(), rep)
            )
            assert c.tree_edges_of(comp_id) == tuple(sorted(out_tree | in_tree))
        for s in rng.sample(range(n), 8):
            dist = nx.single_source_shortest_path_length(ng, s)
            for t in range(n):
                if t in dist:
                    assert len(bfs_route(g, s, t)) == dist[t]
                else:
                    with pytest.raises(InfeasiblePairError):
                        bfs_route(g, s, t)
        for h in (c.dag, g):
            nh = nx.DiGraph(list(h.edges))
            nh.add_nodes_from(range(h.n))
            for v in range(h.n):
                assert bits(h.reach_mask(v)) == nx.descendants(nh, v) | {v}
                assert bits(h.reach_mask(v, reverse=True)) == nx.ancestors(nh, v) | {v}


@st.composite
def insert_sequences(draw):
    """Edge insertions on at most 12 vertices: random edges (repeats
    included), two disjoint rings, and two single edges between the
    rings, the second of which merges them into one cycle."""
    n = draw(st.integers(min_value=4, max_value=12))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    noise = st.lists(st.sampled_from(pool), max_size=10)
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(min_value=2, max_value=n - 2))
    left, right = perm[:k], perm[k:]
    rings = [(u, v) for ring in (left, right) for u, v in zip(ring, ring[1:] + ring[:1])]
    rings = draw(st.permutations(rings))
    there = (draw(st.sampled_from(left)), draw(st.sampled_from(right)))
    back = (draw(st.sampled_from(right)), draw(st.sampled_from(left)))
    return n, draw(noise) + rings + draw(noise) + [there] + draw(noise) + [back] + draw(noise)


@st.composite
def insert_batches(draw):
    """``insert_sequences`` cut into random batches. A batch may also
    take a ring on some of the vertices (strongly connected on its
    own), repeat its own edges, and repeat edges of earlier batches."""
    n, sequence = draw(insert_sequences())
    batches: list[list[tuple[int, int]]] = []
    while sequence:
        k = draw(st.integers(min_value=1, max_value=len(sequence)))
        batch, sequence = sequence[:k], sequence[k:]
        if draw(st.booleans()):
            ring = draw(st.permutations(range(n)))[: draw(st.integers(2, max(2, n // 2)))]
            batch += [(u, ring[(i + 1) % len(ring)]) for i, u in enumerate(ring)]
        earlier = [e for b in batches for e in b] + batch
        batch += draw(st.lists(st.sampled_from(earlier), max_size=4))
        batches.append(draw(st.permutations(batch)))
    return n, batches


class HublessClosure:
    """The closure without a hub: every component stores its full
    descendant and ancestor sets, so an edge leaving a strong component
    is ORed into each of its ancestors one at a time. Kept as the
    reference for ``IncrementalClosure``; ``add_all`` is by definition
    ``sum(map(add, batch))``."""

    def __init__(self, n: int):
        self.n = n
        self.edges: set[tuple[int, int]] = set()
        self.comp = list(range(n))
        self.members: dict[int, list[int]] = {}
        self.reps = (1 << n) - 1
        self.desc: dict[int, int] = {}
        self.anc: dict[int, int] = {}

    def add(self, edge: tuple[int, int]) -> bool:
        if edge in self.edges:
            return False
        u, v = edge
        self.edges.add(edge)
        a, b = self.comp[u], self.comp[v]
        desc_a, anc_a = self.desc.get(a, 1 << a), self.anc.get(a, 1 << a)
        desc_b, anc_b = self.desc.get(b, 1 << b), self.anc.get(b, 1 << b)
        if desc_a >> v & 1:
            return True
        cycle = desc_b & anc_a & self.reps if desc_b >> u & 1 else 0
        for r in bits(anc_a & ~anc_b & self.reps & ~cycle):
            self.desc[r] = self.desc.get(r, 1 << r) | desc_b
        for r in bits(desc_b & ~desc_a & self.reps & ~cycle):
            self.anc[r] = self.anc.get(r, 1 << r) | anc_a
        if cycle:
            group = sorted(bits(cycle))
            keep = max(group, key=lambda r: len(self.members.get(r, ())))
            into = self.members.setdefault(keep, [keep])
            for r in group:
                if r != keep:
                    moved = self.members.pop(r, [r])
                    for w in moved:
                        self.comp[w] = keep
                    into.extend(moved)
                    self.desc.pop(r, None)
                    self.anc.pop(r, None)
                    self.reps ^= 1 << r
            self.desc[keep], self.anc[keep] = desc_b, anc_a
        return True

    def reaches(self, s: int, t: int) -> bool:
        return s == t or bool(self.desc.get(self.comp[s], 0) >> t & 1)


def assert_matches_bfs(closure: IncrementalClosure) -> None:
    g = closure.to_graph()
    for s in range(closure.n):
        reach = reachable_set(g, s)
        for t in range(closure.n):
            assert closure.reaches(s, t) == (t in reach), (s, t)


def bow_tie_batches(seed: int, n: int = 200, batches: int = 40):
    """Route-like edge batches over a digraph in the shape of sparse
    ones: a giant ring with chords, two smaller rings with chords, and
    upstream and downstream singletons. Each batch is a fewest-edges
    route between a random reachable pair, and every fourth also takes
    an arc of a ring, as a strong component's trees would; the output's
    pieces of the rings close and grow at different times."""
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    cut = [0, n // 2, 7 * n // 10, 4 * n // 5, 9 * n // 10, n]
    giant, second, third, upstream, downstream = (ids[a:b] for a, b in zip(cut, cut[1:]))
    edges = set()
    for ring in (giant, second, third):
        edges |= {(u, ring[(i + 1) % len(ring)]) for i, u in enumerate(ring)}
        edges |= {tuple(rng.sample(ring, 2)) for _ in range(len(ring) // 3)}
    for i, u in enumerate(upstream):
        edges.add((u, rng.choice(giant + second + upstream[i + 1 :])))
        edges.add((u, rng.choice(third)))
    for i, d in enumerate(downstream):
        edges.add((rng.choice(giant + second + downstream[:i]), d))
    edges.add((rng.choice(third), rng.choice(giant)))
    edges.add((rng.choice(giant), rng.choice(second)))
    g = DirectedGraph(n, edges)
    out = []
    while len(out) < batches:
        s, t = rng.sample(range(n), 2)
        if t not in reachable_set(g, s):
            continue
        batch = list(bfs_route(g, s, t))
        if len(out) % 4 == 3:
            ring = rng.choice((giant, second, third))
            start = rng.randrange(len(ring))
            arc = [ring[(start + i) % len(ring)] for i in range(rng.randint(2, len(ring) // 2))]
            batch += list(zip(arc, arc[1:]))
        rng.shuffle(batch)
        out.append(batch)
    return n, out


class TestIncrementalClosure:
    @given(insert_sequences())
    @settings(max_examples=80, deadline=None)
    def test_matches_bfs_after_every_insert(self, case):
        n, sequence = case
        closure = IncrementalClosure(n)
        seen = set()
        for e in sequence:
            assert closure.add(e) == (e not in seen)
            seen.add(e)
            size = len(closure)
            assert not closure.add(e)
            assert len(closure) == size == len(seen)
            assert closure.to_graph().edges == seen
            assert_matches_bfs(closure)

    @given(insert_batches())
    @settings(max_examples=120, deadline=None)
    def test_add_all_matches_per_edge_add(self, case):
        n, batches = case
        closure, reference = IncrementalClosure(n), IncrementalClosure(n)
        for batch in batches:
            assert closure.add_all(batch) == sum(map(reference.add, batch))
            assert closure.edges == reference.edges
            assert_matches_bfs(closure)

    def test_add_all_updates_what_the_merged_ring_reaches(self):
        closure = IncrementalClosure(6)
        closure.add_all([(0, 1), (3, 4)])
        closure.add_all([(1, 2), (2, 3), (3, 1)])
        # 0 reaches 4 only through the ring, so 4's ancestors must hold 0
        # before 4 -> 5 goes in.
        closure.add_all([(4, 5)])
        assert closure.reaches(0, 5) and closure.reaches(2, 5)
        assert not closure.reaches(5, 0)

    # Seeds whose hub moves at least once; the last assert keeps them so.
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_matches_the_hubless_closure_on_route_batches(self, seed):
        n, batches = bow_tie_batches(seed)
        closure, reference = IncrementalClosure(n), HublessClosure(n)
        hubs = set()
        for batch in batches:
            assert closure.add_all(batch) == sum(map(reference.add, batch))
            assert closure.edges == reference.edges
            hubs.add(closure._hub)
            for s in range(n):
                for t in range(n):
                    assert closure.reaches(s, t) == reference.reaches(s, t), (s, t)
        # The hub appeared and then moved at least once.
        assert len(hubs - {n}) >= 2

    def test_edge_out_of_the_hub_reaches_its_ancestors(self):
        closure = IncrementalClosure(9)
        closure.add_all([(0, 1), (1, 2), (2, 0)])
        for e in [(3, 0), (4, 3), (4, 5), (2, 6), (6, 7)]:
            closure.add(e)
        # 4 reaches 8 through 5, which the hub does not reach.
        closure.add((5, 8))
        assert closure.reaches(4, 7) and closure.reaches(3, 6) and closure.reaches(4, 8)
        assert_matches_bfs(closure)

    def test_edge_into_the_hub_reaches_its_descendants(self):
        closure = IncrementalClosure(10)
        closure.add_all([(0, 1), (1, 2), (2, 0)])
        for e in [(2, 3), (3, 4), (5, 3), (6, 0)]:
            closure.add(e)
        # 4's ancestors must hold 5, which the hub does not reach, and 6.
        closure.add((4, 9))
        closure.add((4, 7))
        assert closure.reaches(5, 9) and closure.reaches(6, 7) and closure.reaches(6, 4)
        assert_matches_bfs(closure)

    def test_ring_through_the_hub_and_a_smaller_component(self):
        closure = IncrementalClosure(10)
        closure.add_all([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 4)])
        for e in [(6, 0), (3, 7), (8, 4), (5, 9)]:
            closure.add(e)
        closure.add_all([(3, 4), (5, 0)])
        assert closure.reaches(6, 9) and closure.reaches(8, 7) and closure.reaches(4, 1)
        assert_matches_bfs(closure)

    def test_a_larger_ring_elsewhere_takes_over_the_hub(self):
        closure = IncrementalClosure(11)
        closure.add_all([(0, 1), (1, 2), (2, 0)])
        # 4 upstream and 3 downstream of the hub, 5 and 6 added after them,
        # so each of 3 and 4 reaches or is reached through the hub's sets.
        for e in [(2, 3), (4, 0), (2, 5), (6, 1)]:
            closure.add(e)
        closure.add_all([(7, 8), (8, 9), (9, 10), (10, 7)])
        assert closure.reaches(4, 5) and closure.reaches(6, 3)
        assert_matches_bfs(closure)
        closure.add((3, 7))
        assert closure.reaches(6, 10) and closure.reaches(4, 8)
        assert_matches_bfs(closure)
        closure.add_all([(5, 7), (10, 6)])
        assert closure.reaches(3, 0) and closure.reaches(9, 5) and not closure.reaches(9, 4)
        assert_matches_bfs(closure)

    @pytest.mark.parametrize("bad", [(0, 5), (-1, 2), (3, 3)])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_add_all_rejects_a_bad_edge_before_any_change(self, bad, at):
        closure = IncrementalClosure(5)
        closure.add_all([(0, 1), (1, 2)])
        before = set(closure.edges)
        reach = [[closure.reaches(s, t) for t in range(5)] for s in range(5)]
        batch = [(2, 0), (2, 3), (3, 4), (4, 2)]
        batch.insert(at, bad)
        with pytest.raises(BoundsError):
            closure.add_all(batch)
        assert closure.edges == before
        assert [[closure.reaches(s, t) for t in range(5)] for s in range(5)] == reach

    def test_rejects_out_of_range_and_self_loops(self):
        closure = IncrementalClosure(3)
        for e in ((0, 3), (-1, 1), (2, 2)):
            with pytest.raises(BoundsError):
                closure.add(e)
        for s, t in ((0, 3), (-1, 0)):
            with pytest.raises(BoundsError):
                closure.reaches(s, t)
        assert len(closure) == 0
