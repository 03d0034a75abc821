from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkeep import (
    EXHAUSTIVE_EDGE_LIMIT,
    BoundsError,
    CondensingPreserver,
    DirectedGraph,
    EdgeStore,
    InfeasiblePairError,
    InstanceFamily,
    ParameterError,
    SizeLimitError,
    generate,
    greedy_adversary_step,
    min_preserver,
    reachable_set,
)
from reachkeep.graphs import MAX_VERTICES
from reachkeep.oracle import FAMILY_KINDS, _GreedyAdversary, _random_dag_edges, reachable_pairs
from reachkeep.preserver import unreachable_pairs
from reachkeep.seeding import rng_for
from test_nonadaptive import FullScanAdversary
from test_preserver import dag_with_pairs, graphs_with_stray_pairs, outcome, reference_grow

TRIANGLE = DirectedGraph(3, {(0, 1), (1, 2), (0, 2)})
CHAIN4 = DirectedGraph(4, {(0, 1), (1, 2), (2, 3)})


def preserves(n, edges, pairs) -> bool:
    g = DirectedGraph(n, set(edges))
    return all(s == t or t in reachable_set(g, s) for s, t in pairs)


@st.composite
def tiny_instances(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=min(len(pool), 10)))
    g = DirectedGraph(n, edges)
    feasible = [
        (s, t)
        for s in range(n)
        for t in sorted(reachable_set(g, s))
        if s != t
    ]
    if not feasible:
        feasible = [(0, 0)]
    pairs = draw(st.lists(st.sampled_from(feasible), min_size=1, max_size=5))
    return g, pairs


class TestMinPreserver:
    def test_shortcut_beats_the_detour(self):
        assert min_preserver(TRIANGLE, [(0, 2)]) == frozenset({(0, 2)})

    def test_mandatory_edges_survive(self):
        assert min_preserver(TRIANGLE, [(0, 1), (1, 2)]) == frozenset(
            {(0, 1), (1, 2)}
        )

    def test_lexicographic_preference_among_equals(self):
        # {(0,1),(0,2)} and {(0,1),(1,2)} both work; lex order decides
        assert min_preserver(TRIANGLE, [(0, 1), (0, 2)]) == frozenset(
            {(0, 1), (0, 2)}
        )

    def test_reflexive_and_empty_demands_cost_nothing(self):
        assert min_preserver(TRIANGLE, [(1, 1)]) == frozenset()
        assert min_preserver(TRIANGLE, []) == frozenset()

    def test_edge_budget_enforced(self):
        big = DirectedGraph(
            EXHAUSTIVE_EDGE_LIMIT + 2,
            {(i, i + 1) for i in range(EXHAUSTIVE_EDGE_LIMIT + 1)},
        )
        with pytest.raises(SizeLimitError):
            min_preserver(big, [(0, 1)])

    def test_infeasible_pair_rejected(self):
        with pytest.raises(InfeasiblePairError):
            min_preserver(CHAIN4, [(3, 0)])

    def test_bounds_checked(self):
        with pytest.raises(BoundsError):
            min_preserver(CHAIN4, [(0, 9)])

    @given(tiny_instances())
    @settings(max_examples=60, deadline=None)
    def test_result_preserves_and_lower_bounds_online(self, case):
        g, pairs = case
        opt = min_preserver(g, pairs)
        assert opt <= g.edges
        assert preserves(g.n, opt, pairs) or not pairs
        for mode in ("fw", "bw"):
            session = CondensingPreserver(g, mode)
            for s, t in pairs:
                session.serve_pair(s, t)
            assert len(opt) <= len(session.output_edges)

    @given(tiny_instances())
    @settings(max_examples=40, deadline=None)
    def test_no_smaller_subset_preserves(self, case):
        g, pairs = case
        opt = sorted(min_preserver(g, pairs))
        if not opt:
            return
        for i in range(len(opt)):
            thinner = opt[:i] + opt[i + 1 :]
            assert not preserves(g.n, thinner, [(s, t) for s, t in pairs if s != t])


def bfs_reachable_pairs(g: DirectedGraph) -> list:
    """``reachable_pairs`` as it was before it read ``reach_mask``: one
    ``reachable_set`` sweep per vertex. Kept as the reference."""
    return [(u, v) for u in range(g.n) for v in sorted(reachable_set(g, u))]


def bfs_preserves(n: int, edge_set, pairs) -> bool:
    """The pair-preservation check as it was before it read
    ``reach_mask``: one ``reachable_set`` sweep of an ``EdgeStore`` per
    distinct source. Kept as the reference."""
    h = EdgeStore(n)
    for e in edge_set:
        h.add(e)
    reach: dict[int, frozenset[int]] = {}
    for s, t in pairs:
        if s not in reach:
            reach[s] = reachable_set(h, s)
        if t not in reach[s]:
            return False
    return True


class TestClosureAgainstBfs:
    @given(graphs_with_stray_pairs())
    @settings(max_examples=150, deadline=None)
    def test_reachable_pairs_matches_bfs(self, case):
        g, _ = case
        assert reachable_pairs(g) == bfs_reachable_pairs(g)

    @given(graphs_with_stray_pairs())
    @settings(max_examples=150, deadline=None)
    def test_preserves_matches_bfs(self, case):
        # min_preserver's check: an edge set preserves the pairs when
        # unreachable_pairs finds none of them cut
        g, pairs = case
        edges = sorted(g.edges)
        for edge_set in [edges] + [edges[:i] + edges[i + 1 :] for i in range(len(edges))]:
            got = outcome(lambda: unreachable_pairs(DirectedGraph(g.n, edge_set), pairs))
            want = outcome(lambda: [p for p in pairs if not bfs_preserves(g.n, edge_set, [p])])
            assert got == want


class TestGreedyAdversary:
    def test_picks_the_costliest_pair(self):
        h = EdgeStore(4)
        candidates = [(0, 1), (0, 2), (0, 3), (1, 3)]
        assert greedy_adversary_step(CHAIN4, h, "fw", candidates) == (0, 3)

    def test_lexicographic_tie_break(self):
        g = DirectedGraph(4, {(0, 1), (2, 3)})
        h = EdgeStore(4)
        assert greedy_adversary_step(g, h, "fw", [(2, 3), (0, 1)]) == (0, 1)

    def test_served_pairs_become_cheap(self):
        g = DirectedGraph(4, {(0, 1), (2, 3)})
        h = EdgeStore(4)
        h.add((0, 1))
        assert greedy_adversary_step(g, h, "fw", [(0, 1), (2, 3)]) == (2, 3)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ParameterError):
            greedy_adversary_step(CHAIN4, EdgeStore(4), "fw", [])

    @pytest.mark.parametrize("candidate", [(0, 2.7), (True, 3), (0, "3"), (0, 1, 2), [0], 5, "03"])
    def test_candidate_that_is_not_a_pair_of_ints_rejected(self, candidate):
        with pytest.raises(BoundsError, match=re.escape(f"candidate {candidate!r}")):
            greedy_adversary_step(CHAIN4, EdgeStore(4), "fw", [(0, 1), candidate])

    def test_pair_of_ints_kept_and_list_of_two_ints_accepted(self):
        pair = (0, 3)
        adversary = _GreedyAdversary(CHAIN4, EdgeStore(4), "fw", [pair, [1, 3]])
        assert adversary._cands == [(0, 3), (1, 3)]
        assert adversary._cands[0] is pair

    def test_commit_skips_stale_reader_entries(self):
        # (0, 3) first walks 0, 1, 3 and reads 0 and 1; committing 0, 2, 3
        # moves it to 0, 2, 3, which reads 1 no more.
        g = DirectedGraph(4, {(0, 1), (1, 3), (0, 2), (2, 3)})
        adversary = _GreedyAdversary(g, EdgeStore(4), "fw", [(0, 3), (1, 3)])
        assert adversary._paths[0] == (0, 1, 3)
        adversary.commit((0, 2, 3))
        assert adversary._paths[0] == (0, 2, 3)
        walks = []
        grow = adversary._grow
        adversary._grow = lambda *args: walks.append(args[2:4]) or grow(*args)
        # (1, 3) reads 1, so it alone is grown again.
        adversary.commit((1, 3))
        assert walks == [(1, 3)]
        # A discarded candidate is never grown again, nor comes back.
        adversary.discard((0, 3))
        adversary.commit((0, 1))
        assert walks == [(1, 3)]
        assert adversary.remaining() == [((1, 3), (1, 3))]

    @given(dag_with_pairs(), st.sampled_from(["fw", "bw"]))
    @settings(max_examples=80, deadline=None)
    def test_cached_counts_match_a_rescan_after_every_commit(self, case, mode):
        g, _ = case
        h = EdgeStore(g.n)
        adversary = _GreedyAdversary(g, h, mode, reachable_pairs(g))
        while True:
            for pair, path, count in zip(adversary._cands, adversary._paths, adversary._counts):
                if path is not None:
                    ref_path, ref_new = reference_grow(g, h, *pair, mode)
                    assert (path, count) == (ref_path, len(ref_new))
            if not adversary:
                break
            pair, path, _ = adversary.best()
            adversary.commit(path)
            adversary.discard(pair)


@st.composite
def shuffled_dags_with_candidates(draw):
    """A DAG on at most 9 vertices whose labels are not a topological
    order, and a non-empty set of its reachable pairs."""
    n = draw(st.integers(min_value=2, max_value=9))
    order = draw(st.permutations(range(n)))
    pool = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=min(len(pool), 20)))
    g = DirectedGraph(n, edges)
    candidates = draw(st.sets(st.sampled_from(reachable_pairs(g)), min_size=1))
    return g, sorted(candidates)


def assert_same_adversary(new, ref, candidates, mode):
    assert bool(new) == bool(ref)
    if ref:
        assert new.best() == ref.best()
    assert new._cands == candidates
    live = {q: (path, count) for q, path, count in zip(candidates, new._paths, new._counts) if path}
    assert live == {q: e[:2] for q, e in ref._cache.items()}
    assert new.remaining() == ref.remaining()
    # A forwards walk reads the out-lists of all but its last vertex, a
    # backwards walk the in-lists of all but its first. Every live
    # candidate has an entry at each vertex it reads; every other entry
    # is stale: discarded, or its path no longer reads the vertex.
    reads = slice(0, -1) if mode == "fw" else slice(1, None)
    for v, entries in enumerate(new._readers):
        reading = {i for i, path in enumerate(new._paths) if path and v in path[reads]}
        assert reading <= set(entries) <= set(range(len(candidates)))


class TestOrderedAdversary:
    @given(
        shuffled_dags_with_candidates(),
        st.sampled_from(["fw", "bw"]),
        st.lists(
            st.tuples(
                st.sampled_from(["serve", "commit-best", "commit-other", "commit-edge", "discard"]),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_step_matches_the_full_scan(self, case, mode, steps):
        g, candidates = case
        new = _GreedyAdversary(g, EdgeStore(g.n), mode, candidates)
        ref = FullScanAdversary(g, EdgeStore(g.n), mode, candidates)
        edges = sorted(g.edges)
        assert_same_adversary(new, ref, candidates, mode)
        for kind, k in steps:
            if not ref:
                break
            pair, path, _ = ref.best()
            other, other_path = ref.remaining()[k % len(ref.remaining())]
            for adversary in (new, ref):
                if kind == "serve":
                    adversary.discard(pair)
                    adversary.commit(path)
                elif kind == "commit-best":
                    adversary.commit(path)
                elif kind == "commit-other":
                    adversary.commit(other_path)
                elif kind == "commit-edge":
                    adversary.commit(edges[k % len(edges)])
                else:
                    adversary.discard(other)
            assert new.h.edges == ref.h.edges
            assert_same_adversary(new, ref, candidates, mode)


class TestInstanceFamily:
    def test_validation(self):
        with pytest.raises(ParameterError):
            InstanceFamily(kind="random-dag", n=0, seed=1)
        with pytest.raises(ParameterError):
            InstanceFamily(kind="random-dag", n=4, seed=1, pairs=-1)
        with pytest.raises(ParameterError):
            InstanceFamily(kind="random-dag", n=4, seed=1, density=1.5)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_vertex_count_above_the_cap_rejected(self, kind):
        InstanceFamily(kind=kind, n=MAX_VERTICES, seed=1)
        with pytest.raises(ParameterError, match=f"got {MAX_VERTICES + 1}"):
            InstanceFamily(kind=kind, n=MAX_VERTICES + 1, seed=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            generate(InstanceFamily(kind="moebius", n=4, seed=1))

    def test_sourcewise_needs_two_vertices(self):
        with pytest.raises(ParameterError):
            InstanceFamily(kind="sourcewise", n=1, seed=1)

    def test_bad_side_rejected(self):
        with pytest.raises(ParameterError):
            InstanceFamily(kind="sourcewise", n=4, seed=1, side="edge")

    @pytest.mark.parametrize("n, part_length", [(3, 4), (1, 0), (1, 2)])
    def test_path_union_shorter_than_a_part_rejected(self, n, part_length):
        with pytest.raises(ParameterError, match="part_length") as info:
            InstanceFamily(kind="path-union", n=n, seed=1, part_length=part_length)
        assert f"n={n}" in str(info.value)

    @pytest.mark.parametrize(
        "knobs, name",
        [
            ({"kind": "sourcewise", "s_size": 0}, "s_size"),
            ({"kind": "sourcewise", "s_size": 10}, "s_size"),
            ({"kind": "layered", "layers": -1}, "layers"),
            ({"kind": "layered", "layers": 1}, "layers"),
            ({"kind": "layered", "layers": 11}, "layers"),
            ({"kind": "path-union", "part_length": 1}, "part_length"),
        ],
    )
    def test_knob_outside_its_domain_rejected(self, knobs, name):
        with pytest.raises(ParameterError, match=f"{name}={knobs[name]}"):
            InstanceFamily(n=10, seed=1, **knobs)

    @pytest.mark.parametrize("value", [True, 4.5, "3"])
    @pytest.mark.parametrize(
        "kind, knob",
        [
            ("random-dag", "n"),
            ("random-dag", "pairs"),
            ("sourcewise", "s_size"),
            ("layered", "layers"),
            ("path-union", "part_length"),
        ],
    )
    def test_count_that_is_not_an_int_rejected(self, kind, knob, value):
        # a bool is an int, and a float or a str used to pass or fail later in generate
        with pytest.raises(ParameterError, match=re.escape(repr(value))):
            InstanceFamily(kind=kind, **{"n": 10, "seed": 1, knob: value})

    @pytest.mark.parametrize(
        "kind, knob, value",
        [
            ("random-dag", "s_size", 0),
            ("random-dag", "side", "sink"),
            ("random-digraph", "layers", 3),
            ("random-digraph", "part_length", 5),
            ("layered", "s_size", 2),
            ("layered", "part_length", 2),
            ("path-union", "density", 0.5),
            ("path-union", "layers", 2),
            ("sourcewise", "layers", 2),
            ("sourcewise", "part_length", 3),
        ],
    )
    def test_knob_the_kind_ignores_rejected(self, kind, knob, value):
        with pytest.raises(ParameterError, match=f"{kind} does not use {knob}"):
            InstanceFamily(kind=kind, n=10, seed=1, **{knob: value})

    @pytest.mark.parametrize(
        "knobs, refused",
        [
            ({"s_size": True, "layers": 0.0}, "s_size=True"),
            ({"layers": 0.0}, "layers=0.0"),
            ({"part_length": 4.0}, "part_length=4.0"),
            ({"side": ["source"]}, "side=['source']"),
        ],
    )
    def test_ignored_knob_equal_to_its_default_in_another_type_rejected(self, knobs, refused):
        # a manifest records True, 0.0 and 4.0 as such, so one instance would get two ids
        with pytest.raises(ParameterError) as raised:
            InstanceFamily(kind="random-dag", n=5, seed=0, **knobs)
        assert str(raised.value) == f"random-dag does not use {refused.split('=')[0]}, got {refused}"

    def test_ignored_knob_at_its_default_accepted(self):
        family = InstanceFamily(kind="random-dag", n=5, seed=0, s_size=1, layers=0, side="source")
        assert family == InstanceFamily(kind="random-dag", n=5, seed=0)

    def test_density_must_not_be_a_bool(self):
        with pytest.raises(ParameterError, match=re.escape("density must be in [0, 1], got True")):
            InstanceFamily(kind="random-dag", n=5, seed=0, density=True)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"kind": "sourcewise", "s_size": 1},
            {"kind": "sourcewise", "s_size": 9},
            {"kind": "layered", "layers": 0},
            {"kind": "layered", "layers": 2},
            {"kind": "layered", "layers": 10},
            {"kind": "path-union", "part_length": 2},
        ],
    )
    def test_knob_domain_edges_accepted(self, knobs):
        generate(InstanceFamily(n=10, seed=1, **knobs))

    def test_same_family_same_bytes(self):
        fam = InstanceFamily(kind="random-dag", n=12, seed=7, pairs=6)
        g1, stream1 = generate(fam)
        g2, stream2 = generate(fam)
        assert g1.edges == g2.edges
        assert stream1 == stream2


def assert_stream_feasible(g, stream):
    for s, t in stream:
        assert 0 <= s < g.n and 0 <= t < g.n
        assert t in reachable_set(g, s)


class TestGenerate:
    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_random_dag(self, n, seed):
        g, stream = generate(InstanceFamily(kind="random-dag", n=n, seed=seed, pairs=5))
        assert g.n == n and g.is_dag
        assert len(stream) == 5
        assert_stream_feasible(g, stream)

    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_random_digraph(self, n, seed):
        fam = InstanceFamily(kind="random-digraph", n=n, seed=seed, pairs=5, density=0.4)
        g, stream = generate(fam)
        assert g.n == n
        assert all(u != v for u, v in g.edges)
        assert len(stream) == 5
        assert_stream_feasible(g, stream)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_layered_edges_cross_adjacent_layers(self, seed):
        n, layer_count = 9, 3
        fam = InstanceFamily(kind="layered", n=n, seed=seed, pairs=4, layers=layer_count)
        g, stream = generate(fam)
        layer = lambda v: v * layer_count // n  # noqa: E731
        assert g.is_dag
        for u, v in g.edges:
            assert layer(v) == layer(u) + 1
        assert_stream_feasible(g, stream)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_path_union_demands_span_each_part(self, seed):
        fam = InstanceFamily(kind="path-union", n=12, seed=seed, pairs=6, part_length=4)
        g, stream = generate(fam)
        assert g.edges == {
            (base + i, base + i + 1) for base in (0, 4, 8) for i in range(3)
        }
        assert len(stream) == 6
        assert {(0, 3), (4, 7), (8, 11)} <= set(stream)
        assert_stream_feasible(g, stream)

    @given(
        st.integers(min_value=4, max_value=14),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["source", "sink"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sourcewise_shares_one_side(self, n, seed, s_size, side):
        fam = InstanceFamily(
            kind="sourcewise", n=n, seed=seed, pairs=8, s_size=s_size, side=side
        )
        g, stream = generate(fam)
        assert g.is_dag
        assert len(stream) == 8
        assert_stream_feasible(g, stream)
        if side == "source":
            assert len({s for s, _ in stream}) <= s_size
        else:
            assert len({t for _, t in stream}) <= s_size
        # The shared terminals, drawn again as generate draws them
        rng = rng_for(seed, "graph", "sourcewise")
        perm, _ = _random_dag_edges(n, fam.density, rng)
        shared = rng.sample(perm[:-1] if side == "source" else perm[1:], s_size)
        # The fix-up rule: every shared source has an out-edge in g, every
        # shared sink an in-edge.
        ends = g.out_neighbors if side == "source" else g.in_neighbors
        assert all(ends(v) for v in shared), shared
