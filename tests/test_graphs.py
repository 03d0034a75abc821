"""Graph container, text format, reachability, and condensation."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkeep.errors import BoundsError, MissingEntryError, ParseError
from reachkeep.graphs import (
    DirectedGraph,
    condense,
    dump_graph,
    lift_edge,
    load_graph,
    reachable_set,
    reaches,
)
from reachkeep.preserver import EdgeStore


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


class TestDirectedGraph:
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
        store = EdgeStore(n)
        for e in g.edges:
            store.add(e)
        for s, t in itertools.product(range(n), repeat=2):
            expected = t in reachable_set(g, s)
            assert reaches(g, s, t) == expected
            assert reaches(store, s, t) == expected


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
        for comp_id, comp in enumerate(c.components):
            members = set(comp)
            expected_count = len(comp) - 1 if len(comp) > 1 else 0
            in_c = {e for e in c.in_tree if e[0] in members}
            out_c = {e for e in c.out_tree if e[0] in members}
            assert len(in_c) == expected_count
            assert len(out_c) == expected_count
            for u, v in c.tree_edges_of(comp_id):
                assert (u, v) in g.edges
                assert u in members and v in members

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
        if not c.tree_edges:
            return
        for comp_id, comp in enumerate(c.components):
            if len(comp) == 1:
                continue
            t = DirectedGraph(n, c.tree_edges_of(comp_id))
            root = min(comp)
            assert set(comp) <= reachable_set(t, root)
            assert set(comp) <= reachable_set(t, root, reverse=True)
