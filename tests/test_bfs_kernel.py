"""The list-indexed BFS kernel against the dict-and-deque search it
replaced: routes, condensation trees and reachable sets."""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachkeep import graphs
from reachkeep.errors import BoundsError, InfeasiblePairError
from reachkeep.graphs import (
    Condensation,
    DirectedGraph,
    Edge,
    check_vertices,
    condense,
    reachable_set,
)
from reachkeep.preserver import EdgeStore
from reachkeep.udsn import bfs_route
from reference import lift_edge, parent_strong_components


def parent_bfs_parents(
    step: Callable[[int], Iterable[int]],
    root: int,
    within: set[int] | None = None,
    goal: int | None = None,
) -> dict[int, int]:
    """``graphs.bfs_parents`` as it was with a dict of parents and a
    deque, one root and a per-edge ``within`` test. Kept as the
    reference."""
    parent = {root: root}
    queue = deque([root])
    while queue and goal not in parent:
        u = queue.popleft()
        for v in step(u):
            if v not in parent and (within is None or v in within):
                parent[v] = u
                queue.append(v)
    return parent


def parent_reachable_set(g, root: int, reverse: bool = False) -> frozenset[int]:
    check_vertices(g.n, root)
    return frozenset(parent_bfs_parents(g.in_neighbors if reverse else g.out_neighbors, root))


def parent_bfs_route(g: DirectedGraph, s: int, t: int) -> tuple[Edge, ...]:
    """``udsn.bfs_route`` over the reference search."""
    check_vertices(g.n, s, t)
    parent = parent_bfs_parents(g.out_neighbors, s, goal=t)
    if t not in parent:
        raise InfeasiblePairError(f"{t} is not reachable from {s}")
    edges = []
    v = t
    while v != s:
        edges.append((parent[v], v))
        v = parent[v]
    return tuple(reversed(edges))


def parent_condense(g: DirectedGraph) -> Condensation:
    """``graphs.condense`` as it was with two searches per component,
    each over a set of that component's members. Kept as the reference."""
    comps = parent_strong_components(g.n, g._out.__getitem__)
    if len(comps) == g.n:
        ids = tuple(range(g.n))
        lift = dict(zip(g.edges, g.edges))
        return Condensation(g, ids, tuple((v,) for v in ids), g, {}, lift)
    comps.sort(key=lambda c: c[0])
    component_of = [0] * g.n
    for cid, members in enumerate(comps):
        for v in members:
            component_of[v] = cid

    tree_of: dict[int, tuple[Edge, ...]] = {}
    for cid, members in enumerate(comps):
        if len(members) == 1:
            continue
        rep = members[0]
        within = set(members)
        out_parent = parent_bfs_parents(g.out_neighbors, rep, within)
        in_parent = parent_bfs_parents(g.in_neighbors, rep, within)
        if out_parent.keys() != within or in_parent.keys() != within:
            raise AssertionError("component not internally connected")
        tree = {(u, v) for v, u in out_parent.items() if v != rep}
        tree.update((v, u) for v, u in in_parent.items() if v != rep)
        tree_of[cid] = tuple(sorted(tree))

    dag_edges: set[Edge] = set()
    lift: dict[Edge, Edge] = {}
    for u, v in sorted(g.edges):
        a, b = component_of[u], component_of[v]
        if a == b:
            continue
        key = (a, b)
        dag_edges.add(key)
        if key not in lift:
            lift[key] = (u, v)
    dag = DirectedGraph(len(comps), dag_edges)
    return Condensation(g, tuple(component_of), tuple(tuple(c) for c in comps), dag, tree_of, lift)


def condensation_fields(c: Condensation) -> tuple:
    """Every field, with the lift read edge by edge through the reference
    ``lift_edge``: a DAG's condensation keeps no lift table."""
    return (
        c.graph,
        c.component_of,
        c.components,
        c.representative,
        c._tree_of,
        [(e, lift_edge(c, e)) for e in sorted(c.dag.edges)],
        c.dag.n,
        c.dag.edges,
    )


@st.composite
def chained_cycles(draw):
    """2- and 3-cycles chained one way (so each stays its own strong
    component), isolated vertices, a few random edges that may merge
    some components, and every id shuffled."""
    sizes = draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=8))
    isolated = draw(st.integers(0, 4))
    n = sum(sizes) + isolated
    edges: set[Edge] = set()
    start = 0
    for i, size in enumerate(sizes):
        ring = range(start, start + size)
        edges |= {(v, ring[(j + 1) % size]) for j, v in enumerate(ring)}
        if i:
            edges.add((draw(st.integers(start - sizes[i - 1], start - 1)), draw(st.sampled_from(ring))))
        start += size
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges |= draw(st.sets(st.sampled_from(pool), max_size=4))
    perm = draw(st.permutations(range(n)))
    return DirectedGraph(n, {(perm[u], perm[v]) for u, v in edges})


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except (BoundsError, InfeasiblePairError) as exc:
        return type(exc), str(exc)


class TestAgainstTheDictSearch:
    @given(chained_cycles())
    @example(DirectedGraph(5, {(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)}))  # 4 is isolated
    @example(DirectedGraph(4, {(0, 1), (0, 2), (1, 3), (2, 3)}))  # 3 is found again from 2
    @settings(max_examples=120, deadline=None)
    def test_routes_match(self, g):
        for s in range(-1, g.n + 1):
            for t in range(-1, g.n + 1):
                assert outcome(bfs_route, g, s, t) == outcome(parent_bfs_route, g, s, t)

    @given(chained_cycles())
    @example(DirectedGraph(4, {(0, 1), (0, 2), (1, 3), (2, 3)}))  # a DAG, its own condensation
    @settings(max_examples=120, deadline=None)
    def test_condensation_fields_match(self, g):
        assert condensation_fields(condense(g)) == condensation_fields(parent_condense(g))

    @given(chained_cycles())
    @settings(max_examples=80, deadline=None)
    def test_reachable_sets_match(self, g):
        store = EdgeStore(g.n)
        for e in sorted(g.edges):
            store.add(e)
        for h in (g, store):
            for root in range(-1, g.n + 1):
                for reverse in (False, True):
                    got = outcome(reachable_set, h, root, reverse)
                    assert got == outcome(parent_reachable_set, h, root, reverse)

    @pytest.mark.parametrize("seed", range(4))
    def test_many_components_at_size(self, seed):
        # 400 strong components of 2 or 3 vertices, chained, plus strays
        rng = random.Random(seed)
        sizes = [rng.choice((2, 3)) for _ in range(400)]
        n = sum(sizes) + 50
        perm = rng.sample(range(n), n)
        edges, start = set(), 0
        for size in sizes:
            ring = [perm[v] for v in range(start, start + size)]
            edges |= {(v, ring[(j + 1) % size]) for j, v in enumerate(ring)}
            if start:
                edges.add((perm[start - 1], ring[0]))
            start += size
        g = DirectedGraph(n, edges)
        assert condensation_fields(condense(g)) == condensation_fields(parent_condense(g))
        for s in rng.sample(range(n), 10):
            for t in rng.sample(range(n), 10):
                assert outcome(bfs_route, g, s, t) == outcome(parent_bfs_route, g, s, t)


def test_condense_calls_the_kernel_twice_on_a_cyclic_graph_and_never_on_a_dag(monkeypatch):
    calls = []
    kernel = graphs.bfs_parents

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("comp"))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(graphs, "bfs_parents", counted)
    sizes = [2, 3] * 30
    edges, start = set(), 0
    for size in sizes:
        edges |= {(v, start + (v - start + 1) % size) for v in range(start, start + size)}
        if start:
            edges.add((start - 1, start))
        start += size
    c = condense(DirectedGraph(start, edges))
    assert len(c.components) == len(sizes)
    assert len(calls) == 2 and all(comp is not None for comp in calls)
    calls.clear()
    condense(DirectedGraph(50, {(u, v) for u in range(50) for v in range(u + 1, min(u + 4, 50))}))
    assert calls == []
