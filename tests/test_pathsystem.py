"""Ordered path systems: bridges, R-set diagnostics."""

from __future__ import annotations

import gc
import itertools
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkeep import CondensingPreserver, InstanceFamily, generate, pathsystem
from reachkeep.errors import BoundsError, ParameterError
from reachkeep.graphs import iter_bits
from reachkeep.pathsystem import (
    BridgeWitness,
    OrderConstraint,
    PathSystem,
    find_k_bridge,
    is_acyclic,
)
from reference import r_set, reversed_system, validate_witness, verify_r_ordering

NONE = OrderConstraint.NONE
FIRST = OrderConstraint.FIRST_ARC_BEFORE_RIVER
LAST = OrderConstraint.LAST_ARC_BEFORE_RIVER


def contains_in_order(path: tuple[int, ...], a: int, b: int) -> bool:
    try:
        return path.index(b) > path.index(a)
    except ValueError:
        return False


def naive_bridge_exists(s: PathSystem, k: int, constraint: OrderConstraint) -> bool:
    """Exhaustive reference: every role tuple times every chain."""
    p = len(s.paths)
    if p < k:
        return False
    support = sorted({v for path in s.paths for v in path})
    for roles in itertools.permutations(range(p), k):
        river, arcs = roles[0], roles[1:]
        if constraint is FIRST and not arcs[0] < river:
            continue
        if constraint is LAST and not arcs[-1] < river:
            continue
        for chain in itertools.permutations(support, k):
            if not contains_in_order(s.paths[river], chain[0], chain[-1]):
                continue
            if all(
                contains_in_order(s.paths[arcs[i]], chain[i], chain[i + 1])
                for i in range(k - 1)
            ):
                return True
    return False


ascending_ids = st.lists(st.integers(0, 11), max_size=12, unique=True).map(sorted)


def uncut_assign_roles(
    hop_lists: list[list[int]],
    river_list: list[int],
    constraint: OrderConstraint,
) -> tuple[int, tuple[int, ...]] | None:
    """Role assignment without the cut: every unused candidate of every
    arc position is tried, in list order, the river chosen last."""
    k1 = len(hop_lists)
    arcs: list[int] = []
    used: set[int] = set()

    def river_ok(r: int) -> bool:
        if r in used:
            return False
        if constraint is FIRST:
            return arcs[0] < r
        if constraint is LAST:
            return arcs[-1] < r
        return True

    def rec(pos: int) -> tuple[int, tuple[int, ...]] | None:
        if pos == k1:
            for r in river_list:
                if river_ok(r):
                    return r, tuple(arcs)
            return None
        for cand in hop_lists[pos]:
            if cand in used:
                continue
            used.add(cand)
            arcs.append(cand)
            found = rec(pos + 1)
            if found is not None:
                return found
            arcs.pop()
            used.discard(cand)
        return None

    return rec(0)


def unpruned_find_k_bridge(
    s: PathSystem, k: int, constraint: OrderConstraint
) -> BridgeWitness | None:
    """The search without chain pruning, a kept index or the cut in role
    assignment: every chain whose hops and river occur in some path goes
    to the uncut role assignment."""
    lists: dict[tuple[int, int], list[int]] = {}
    succ: dict[int, int] = {}
    for idx, path in enumerate(s.paths):
        for i, a in enumerate(path):
            for b in path[i + 1 :]:
                lists.setdefault((a, b), []).append(idx)
                succ[a] = succ.get(a, 0) | (1 << b)

    def try_chain(chain):
        hop_lists = [lists[(chain[i], chain[i + 1])] for i in range(k - 1)]
        river_list = lists[(chain[0], chain[-1])]
        got = uncut_assign_roles(hop_lists, river_list, constraint)
        if got is None:
            return None
        river, arcs = got
        return BridgeWitness(k=k, chain=chain, river=river, arcs=arcs)

    def extend(prefix, used_mask):
        depth = len(prefix)
        base = succ.get(prefix[-1], 0) & ~used_mask
        if depth == k - 1:
            base &= succ.get(prefix[0], 0)
        for v in iter_bits(base):
            prefix.append(v)
            if depth == k - 1:
                found = try_chain(tuple(prefix))
            else:
                found = extend(prefix, used_mask | (1 << v))
            prefix.pop()
            if found is not None:
                return found
        return None

    for x1 in sorted(succ):
        found = extend([x1], 1 << x1)
        if found is not None:
            return found
    return None


class ParentSystemIndex:
    """The occurrence index the search read before the one-owner index:
    every pair keeps its full ascending path list."""

    __slots__ = ("lists", "succ", "pred", "sole")

    def __init__(self, paths):
        self.lists: dict[tuple[int, int], list[int]] = {}
        self.succ: dict[int, int] = {}
        self.pred: dict[int, int] = {}
        for idx, path in enumerate(paths):
            for i in range(len(path)):
                a = path[i]
                for j in range(i + 1, len(path)):
                    b = path[j]
                    self.lists.setdefault((a, b), []).append(idx)
                    self.succ[a] = self.succ.get(a, 0) | (1 << b)
                    self.pred[b] = self.pred.get(b, 0) | (1 << a)
        self.sole: dict[int, dict[int, int]] = {}
        for (a, b), occurrences in self.lists.items():
            if len(occurrences) == 1:
                groups = self.sole.setdefault(a, {})
                q = occurrences[0]
                groups[q] = groups.get(q, 0) | (1 << b)


class ParentPairIndex:
    """The one-owner index as it was built before one-vertex paths were
    skipped: every path goes through both loops, and every vertex keeps
    its predecessor mask and its full successor list. Kept as the
    oracle."""

    __slots__ = ("owner", "shared", "succ", "pred", "after", "sole")

    def __init__(self, paths):
        owner: dict[tuple[int, int], int] = {}
        shared: dict[tuple[int, int], list[int]] = {}
        succ: dict[int, int] = {}
        pred: dict[int, int] = {}
        sole: dict[int, dict[int, int]] = {}
        for idx, path in enumerate(paths):
            earlier = 0
            for b in path:
                if earlier:
                    pred[b] = pred.get(b, 0) | earlier
                earlier |= 1 << b
            later = 0
            for i in range(len(path) - 1, -1, -1):
                a = path[i]
                if later:
                    succ[a] = succ.get(a, 0) | later
                    sole.setdefault(a, {})[idx] = later
                    for b in path[i + 1 :]:
                        q = owner.setdefault((a, b), idx)
                        if q != idx:
                            shared.setdefault((a, b), [q]).append(idx)
                later |= 1 << a
        # a shared pair is on no path alone: clear it from each of its paths
        for (a, b), qs in shared.items():
            groups = sole[a]
            for q in qs:
                groups[q] ^= 1 << b
                if not groups[q]:
                    del groups[q]
            if not groups:
                del sole[a]
        after: dict[int, list[int]] = {}
        for a, b in owner:
            after.setdefault(a, []).append(b)
        for bs in after.values():
            bs.sort()
        self.owner, self.shared, self.succ, self.pred = owner, shared, succ, pred
        self.after, self.sole = after, sole


# Prints the tracemalloc peak of the index build, then of the parent's,
# over the auxiliary system of one 4,000-pair forwards stream.
BUILD_PEAKS = """
import gc, tracemalloc
from reachkeep import CondensingPreserver, InstanceFamily, generate, pathsystem
from test_pathsystem import ParentPairIndex

g, stream = generate(
    InstanceFamily(kind="random-dag", n=2000, seed=1, density=9 / 1999, pairs=4000)
)
session = CondensingPreserver(g, "fw")
for s, t in stream:
    session.serve_pair(s, t)
paths = session.z_system().paths
for build in (pathsystem._PairIndex, ParentPairIndex):
    gc.collect()
    tracemalloc.start()
    build(paths)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def parent_feeds(parent: ParentPairIndex, a: int) -> int:
    """The vertices that precede some vertex a precedes, as the width-4
    search built them for every start from the parent's fields."""
    feeds = 0
    for b in parent.after[a]:
        feeds |= parent.pred[b]
    return feeds


def every_start_index(paths) -> pathsystem._PairIndex:
    """The index with the parent's build of the fields the flags come
    from, and every vertex that has a successor flagged at both widths:
    a search over it walks every start, as the parent's did."""
    parent = ParentPairIndex(paths)
    index = pathsystem._PairIndex(paths)
    index.after = parent.after
    index.feeds = {a: parent_feeds(parent, a) for a in parent.after}
    index.starts = {3: set(parent.after), 4: set(parent.after)}
    return index


def pair_layout(index: pathsystem._PairIndex) -> tuple[dict, dict, dict]:
    """``owner``, ``shared`` and ``sole`` in the layout the index stored
    before it derived them from per-vertex path lists: the smallest path of
    every ordered pair, the ascending paths of each pair held by two or
    more, and per vertex the nonzero masks of the pairs one path holds
    alone."""
    paths = index.paths
    pairs = {(a, b) for path in paths for i, a in enumerate(path) for b in path[i + 1 :]}
    holders = {pair: index.paths_of(*pair) for pair in pairs}
    sole: dict[int, dict[int, int]] = {}
    for a in index.succ:
        for q in range(len(paths)):
            if mask := index.sole(a, q):
                sole.setdefault(a, {})[q] = mask
    owner = {pair: qs[0] for pair, qs in holders.items()}
    return owner, {pair: qs for pair, qs in holders.items() if len(qs) > 1}, sole


def parent_find_k_bridge(
    s: PathSystem,
    k: int,
    order_constraint: OrderConstraint | str = OrderConstraint.NONE,
    only: int | None = None,
) -> BridgeWitness | None:
    """The search over full occurrence lists, with a width-2 search, the
    feeds mask at every width above 2 and a role assignment for every
    chain: the oracle for the one-owner search. With ``only`` set, the
    chains start at that vertex alone."""
    if k not in (2, 3, 4):
        raise ParameterError(f"k must be in 2..4, got {k}")
    constraint = OrderConstraint(order_constraint)
    index = ParentSystemIndex(s.paths)
    succ = index.succ
    pred = index.pred
    lists = index.lists
    sole = index.sole
    no_groups: dict[int, int] = {}

    def try_chain(chain: tuple[int, ...]) -> BridgeWitness | None:
        hop_lists = [lists[(chain[i], chain[i + 1])] for i in range(k - 1)]
        river_list = lists[(chain[0], chain[-1])]
        got = pathsystem._assign_roles(hop_lists, river_list, constraint)
        if got is None:
            return None
        river, arcs = got
        return BridgeWitness(k=k, chain=chain, river=river, arcs=arcs)

    def candidates(prefix: list[int], used_mask: int, taken: list[int]) -> int:
        last = prefix[-1]
        base = succ.get(last, 0) & ~used_mask
        groups = sole.get(last, no_groups)
        for q in taken:
            base &= ~groups.get(q, 0)
        if len(prefix) == k - 2:
            base &= feeds
        elif len(prefix) == k - 1:
            first = prefix[0]
            base &= succ[first]
            river_groups = sole.get(first, no_groups)
            for q in taken:
                base &= ~river_groups.get(q, 0)
            for v in iter_bits(base):
                hop = lists[(last, v)]
                if len(hop) == 1 and hop == lists[(first, v)]:
                    base ^= 1 << v
        return base

    def extend(
        prefix: list[int], used_mask: int, taken: list[int], base: int
    ) -> BridgeWitness | None:
        last = prefix[-1]
        for v in iter_bits(base):
            prefix.append(v)
            if len(prefix) == k:
                found = try_chain(tuple(prefix))
            else:
                hop = lists[(last, v)]
                if len(hop) == 1:
                    taken.append(hop[0])
                mask = used_mask | (1 << v)
                child = candidates(prefix, mask, taken)
                found = extend(prefix, mask, taken, child) if child else None
                if len(hop) == 1:
                    taken.pop()
            prefix.pop()
            if found is not None:
                return found
        return None

    for x1 in sorted(succ):
        if only is not None and x1 != only:
            continue
        feeds = 0
        if k > 2:
            for b in iter_bits(succ[x1]):
                feeds |= pred[b]
        base = candidates([x1], 1 << x1, [])
        if base:
            found = extend([x1], 1 << x1, [], base)
            if found is not None:
                return found
    return None


@st.composite
def path_systems(draw, max_universe=6, max_paths=5, max_len=5):
    n = draw(st.integers(2, max_universe))
    count = draw(st.integers(1, max_paths))
    paths = []
    for _ in range(count):
        length = draw(st.integers(1, min(max_len, n)))
        perm = draw(st.permutations(tuple(range(n))))
        paths.append(tuple(perm[:length]))
    return PathSystem(n, tuple(paths))


@st.composite
def systems_with_one_vertex_paths(draw, max_universe=9, max_paths=14, max_len=6):
    """Systems in which most paths are one vertex long, interleaved at
    random among longer ones, as in a session where most pairs add no
    edge."""
    n = draw(st.integers(2, max_universe))
    paths = []
    for _ in range(draw(st.integers(1, max_paths))):
        long = draw(st.integers(0, 2)) == 0
        length = draw(st.integers(2, min(max_len, n))) if long else 1
        paths.append(tuple(draw(st.permutations(tuple(range(n))))[:length]))
    return PathSystem(n, tuple(paths))


@st.composite
def repeated_stretch_systems(draw):
    """Systems in which a later stretch of a path is also a path of its
    own, with a path joining the first vertex to the stretch's end, all
    in random order: a second hop's pair then lies on the first arc's
    path too, so it is on that path but not on it alone."""
    base = draw(path_systems(max_universe=8, max_paths=5, max_len=5))
    paths = list(base.paths)
    for path in base.paths:
        if len(path) >= 3 and draw(st.booleans()):
            i = draw(st.integers(1, len(path) - 2))
            j = draw(st.integers(i + 1, len(path) - 1))
            paths += [path[i:], (path[0], path[j])]
    return PathSystem(base.universe, tuple(draw(st.permutations(paths))))


@st.composite
def one_owner_systems(draw, max_universe=12, max_paths=8, max_len=10):
    """Systems in which no ordered pair lies on two paths: each path
    keeps a vertex only if none of its pairs with the vertices already
    kept is taken."""
    n = draw(st.integers(2, max_universe))
    taken: set[tuple[int, int]] = set()
    paths = []
    for _ in range(draw(st.integers(1, max_paths))):
        length = draw(st.integers(1, min(max_len, n)))
        path: list[int] = []
        for v in draw(st.permutations(tuple(range(n)))):
            if len(path) == length:
                break
            if all((u, v) not in taken for u in path):
                path.append(v)
        taken.update(itertools.combinations(path, 2))
        paths.append(tuple(path))
    return PathSystem(n, tuple(paths))


class TestPathSystem:
    def test_rejects_repeat_within_path(self):
        with pytest.raises(BoundsError):
            PathSystem(4, ((0, 1, 0),))

    def test_rejects_empty_path(self):
        with pytest.raises(BoundsError):
            PathSystem(4, ((),))

    def test_rejects_out_of_range(self):
        with pytest.raises(BoundsError):
            PathSystem(2, ((0, 2),))

    @pytest.mark.parametrize("vertex", [0.5, "1", True])
    def test_rejects_a_vertex_that_is_not_an_int(self, vertex):
        with pytest.raises(BoundsError, match=f"path 1 uses vertex {vertex!r}, not an int"):
            PathSystem(3, ((0, 1), (vertex, 2)))

    @pytest.mark.parametrize("universe", [2.5, "3", True, 3.0])
    def test_rejects_a_universe_that_is_not_an_int(self, universe):
        with pytest.raises(BoundsError, match=f"universe must be an int, got {universe!r}"):
            PathSystem(universe, ((0, 1), (0, 1)))

    def test_size_degree_support(self):
        s = PathSystem(5, ((0, 1, 2), (1, 3)))
        assert s.size() == 5


class TestAcyclicity:
    def test_chain(self):
        ok, order = is_acyclic(PathSystem(3, ((0, 1), (1, 2))))
        assert ok
        assert order == (0, 1, 2)

    def test_two_cycle(self):
        ok, order = is_acyclic(PathSystem(2, ((0, 1), (1, 0))))
        assert not ok
        assert order is None

    def test_longer_precedence_cycle(self):
        ok, _ = is_acyclic(PathSystem(4, ((0, 1, 2), (2, 3), (3, 0))))
        assert not ok

    @given(path_systems())
    @settings(max_examples=60, deadline=None)
    def test_order_witnesses_every_precedence(self, s):
        ok, order = is_acyclic(s)
        if not ok:
            assert order is None
            return
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(s.universe))
        for path in s.paths:
            for a, b in zip(path, path[1:]):
                assert pos[a] < pos[b]

    @given(path_systems())
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_naive_cycle_search(self, s):
        edges = {(a, b) for path in s.paths for a, b in zip(path, path[1:])}
        adj: dict[int, list[int]] = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)

        def has_cycle() -> bool:
            color: dict[int, int] = {}

            def visit(v: int) -> bool:
                color[v] = 1
                for w in adj.get(v, []):
                    if color.get(w) == 1:
                        return True
                    if color.get(w) is None and visit(w):
                        return True
                color[v] = 2
                return False

            return any(color.get(v) is None and visit(v) for v in range(s.universe))

        ok, order = is_acyclic(s)
        assert ok == (not has_cycle())
        if ok:
            pos = {v: i for i, v in enumerate(order)}
            for path in s.paths:
                assert [pos[v] for v in path] == sorted(pos[v] for v in path)


class TestFindKBridge:
    def test_two_paths_coinciding_on_two_nodes(self):
        s = PathSystem(6, ((0, 1, 2), (5, 1, 2)))
        w = find_k_bridge(s, 2)
        assert w == BridgeWitness(k=2, chain=(1, 2), river=1, arcs=(0,))

    def test_three_bridge(self):
        s = PathSystem(4, ((0, 3), (0, 1), (1, 3)))
        w = find_k_bridge(s, 3)
        assert w is not None
        assert w.chain == (0, 1, 3)
        assert w.river == 0
        assert w.arcs == (1, 2)

    def test_single_path_has_no_bridge(self):
        s = PathSystem(4, ((0, 1, 2, 3),))
        for k in (2, 3, 4):
            assert find_k_bridge(s, k) is None

    def test_subsequence_semantics(self):
        s = PathSystem(10, ((0, 9, 3), (0, 1), (1, 3)))
        w = find_k_bridge(s, 3)
        assert w is not None
        assert w.chain == (0, 1, 3)
        assert w.river == 0

    def test_k_out_of_range(self):
        s = PathSystem(2, ((0, 1),))
        for k in (1, 5):
            with pytest.raises(ParameterError):
                find_k_bridge(s, k)

    @pytest.mark.parametrize("k", [2.0, 3.0, True])
    def test_k_must_be_an_int(self, k):
        bridged = PathSystem(4, ((0, 1, 2), (0, 1), (0, 2), (1, 2)))
        for s in (PathSystem(2, ((0, 1),)), bridged):
            with pytest.raises(ParameterError, match="k must be in 2..4"):
                find_k_bridge(s, k)

    def test_constraint_filters_witness(self):
        # the lone 3-bridge has its last arc arriving after the river
        s = PathSystem(4, ((0, 1), (0, 3), (1, 3)))
        assert find_k_bridge(s, 3, NONE) is not None
        assert find_k_bridge(s, 3, FIRST) is not None
        assert find_k_bridge(s, 3, LAST) is None

    @given(path_systems(), st.sampled_from([2, 3]), st.sampled_from([NONE, FIRST, LAST]))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_enumerator(self, s, k, constraint):
        found = find_k_bridge(s, k, constraint)
        assert (found is not None) == naive_bridge_exists(s, k, constraint)
        if found is not None:
            assert validate_witness(s, found, constraint)

    @given(path_systems(max_universe=5, max_paths=5, max_len=4), st.sampled_from([NONE, FIRST, LAST]))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_enumerator_k4(self, s, constraint):
        found = find_k_bridge(s, 4, constraint)
        assert (found is not None) == naive_bridge_exists(s, 4, constraint)
        if found is not None:
            assert validate_witness(s, found, constraint)

    @given(path_systems(), st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_reversal_swaps_first_and_last(self, s, k):
        r = reversed_system(s)
        assert (find_k_bridge(s, k, FIRST) is not None) == (
            find_k_bridge(r, k, LAST) is not None
        )
        assert (find_k_bridge(s, k, LAST) is not None) == (
            find_k_bridge(r, k, FIRST) is not None
        )


class TestPrunedSearch:
    @given(
        st.one_of(
            path_systems(max_universe=10, max_paths=10, max_len=10),
            # short paths leave most pairs on one path, where pruning bites
            path_systems(max_universe=10, max_paths=10, max_len=3),
        ),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=600, deadline=None)
    def test_same_witness_as_unpruned_search(self, s, k, constraint):
        found = find_k_bridge(s, k, constraint)
        assert found == unpruned_find_k_bridge(s, k, constraint)
        if found is not None:
            assert validate_witness(s, found, constraint)

    @given(
        st.lists(ascending_ids, min_size=1, max_size=3),
        ascending_ids,
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=1000, deadline=None)
    def test_role_assignment_cut_is_exact(self, hop_lists, river_list, constraint):
        assert pathsystem._assign_roles(
            hop_lists, river_list, constraint
        ) == uncut_assign_roles(hop_lists, river_list, constraint)

    def test_index_is_built_once_per_system(self, monkeypatch):
        builds = []

        class CountingIndex(pathsystem._PairIndex):
            __slots__ = ()

            def __init__(self, paths):
                builds.append(paths)
                super().__init__(paths)

        monkeypatch.setattr(pathsystem, "_PairIndex", CountingIndex)
        for paths, shared in (
            (((0, 1, 2), (1, 2, 3), (0, 3), (2, 4)), {(1, 2): [0, 1]}),
            (((0, 1, 2), (2, 3), (0, 3), (1, 4)), {}),
        ):
            builds.clear()
            s = PathSystem(5, paths)
            assert pair_layout(s.pair_index)[1] == shared
            witnesses = [find_k_bridge(s, k, FIRST) for k in (2, 3, 4)]
            assert [find_k_bridge(s, k, FIRST) for k in (2, 3, 4)] == witnesses
            assert witnesses == [parent_find_k_bridge(s, k, FIRST) for k in (2, 3, 4)]
            assert len(builds) == 1
            assert s.pair_index is s.pair_index

    def test_index_groups_one_path_pairs(self):
        s = PathSystem(4, ((0, 1, 2), (0, 1), (3, 2)))
        index, parent = s.pair_index, ParentPairIndex(s.paths)
        owner, shared, sole = pair_layout(index)
        assert sole == {0: {0: 1 << 2}, 1: {0: 1 << 2}, 3: {2: 1 << 2}}
        assert owner == {(0, 1): 0, (0, 2): 0, (1, 2): 0, (3, 2): 2}
        assert shared == {(0, 1): [0, 1]}
        assert parent.after == {0: [1, 2], 1: [2], 3: [2]}
        assert index.succ == {0: 0b110, 1: 0b100, 3: 0b100}
        assert parent.pred == {1: 0b1, 2: 0b1011}
        # Only 0 lies on two paths with a later vertex. On path 1, W = {2}
        # through (1, 2), which path 0 does not hold alone, and 2 follows
        # 0 off path 1: 0 starts width 3. feeds[0] = {0, 1, 3} misses W.
        assert index.feeds == {0: parent_feeds(parent, 0)} == {0: 0b1011}
        assert index.starts == {3: {0}, 4: set()}
        assert index.after == {0: parent.after[0]} == {0: [1, 2]}


class TestParentOracle:
    """The one-owner search against the search it replaced, which read
    a full occurrence list for every pair, and the unpruned one."""

    @given(
        st.one_of(
            path_systems(max_universe=10, max_paths=10, max_len=10),
            path_systems(max_universe=8, max_paths=10, max_len=3),
            one_owner_systems(),
        ),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=600, deadline=None)
    def test_same_witness_as_both_oracles(self, s, k, constraint):
        found = find_k_bridge(s, k, constraint)
        assert found == parent_find_k_bridge(s, k, constraint)
        assert found == unpruned_find_k_bridge(s, k, constraint)

    @given(
        path_systems(max_universe=8, max_paths=10, max_len=4),
        st.sampled_from([3, 4]),
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=150, deadline=None)
    def test_search_leaves_no_reference_cycle(self, s, k, constraint):
        # The chain extension and the role assignment recurse; a helper
        # that called itself through its closure cell made a cycle that
        # held the pair index until the next full collection. Everything
        # the search makes stays in the youngest generation while gc is off.
        gc.collect(0)
        gc.disable()
        try:
            found = find_k_bridge(s, k, constraint)
            assert gc.collect(0) == 0
        finally:
            gc.enable()
        assert found == parent_find_k_bridge(s, k, constraint)

    @given(one_owner_systems())
    @settings(max_examples=60, deadline=None)
    def test_one_owner_systems_have_no_shared_pair(self, s):
        assert s.pair_index.shared == {}
        assert find_k_bridge(s, 2) is None

    @pytest.mark.parametrize("mode", ["fw", "bw"])
    def test_same_witness_on_sessions(self, mode):
        g, stream = generate(InstanceFamily(kind="random-dag", n=300, seed=7, pairs=600))
        session = CondensingPreserver(g, mode)
        for s, t in stream:
            session.serve_pair(s, t)
        z = session.z_system()
        met = 0
        for system in (z, reversed_system(z)):
            for constraint in (NONE, FIRST, LAST):
                for k in (2, 3, 4):
                    found = find_k_bridge(system, k, constraint)
                    assert found == parent_find_k_bridge(system, k, constraint)
                    met += found is not None
        assert met > 0


class TestIndexSkipsOneVertexPaths:
    """The index, which skips one-vertex paths, against the parent's
    build, which runs every path through its loops."""

    @given(st.one_of(systems_with_one_vertex_paths(), path_systems(max_universe=8, max_paths=8)))
    @settings(max_examples=400, deadline=None)
    def test_same_index_as_the_parent_build(self, s):
        index, parent = s.pair_index, ParentPairIndex(s.paths)
        assert pair_layout(index) == (parent.owner, parent.shared, parent.sole)
        assert index.succ == parent.succ
        # pred and the full after live on in what replaced them
        for a, feeds in index.feeds.items():
            assert feeds == parent_feeds(parent, a), a
        assert set(index.after) == index.starts[3] | index.starts[4]
        for a, bs in index.after.items():
            assert bs == parent.after[a], a

    @given(
        systems_with_one_vertex_paths(),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_witness_as_the_parent_build(self, s, k, constraint):
        on_parent = PathSystem(s.universe, s.paths)
        on_parent.__dict__["pair_index"] = every_start_index(s.paths)
        found = find_k_bridge(s, k, constraint)
        assert found == find_k_bridge(on_parent, k, constraint)
        assert found == parent_find_k_bridge(s, k, constraint)

    def test_one_vertex_paths_add_nothing(self):
        paths = ((3,), (0, 1), (1,), (2,), (0,))
        index, parent = PathSystem(4, paths).pair_index, ParentPairIndex(paths)
        owner, shared, sole = pair_layout(index)
        assert (owner, shared) == ({(0, 1): 1}, {})
        assert (parent.succ, parent.pred, parent.after) == ({0: 0b10}, {1: 0b1}, {0: [1]})
        assert index.succ == parent.succ
        assert sole == {0: {1: 0b10}}
        # 0 lies on one path with a later vertex, so nothing is flagged
        assert (index.feeds, index.starts, index.after) == ({}, {3: set(), 4: set()}, {})


class TestFlaggedStarts:
    """The chain starts the index flags for widths 3 and 4 against every
    start from which the parent's search, walking that start alone,
    finds a witness."""

    @given(
        st.one_of(
            path_systems(max_universe=8, max_paths=8),
            # short paths leave most pairs on one path
            path_systems(max_universe=10, max_paths=10, max_len=3),
            one_owner_systems(),
            systems_with_one_vertex_paths(),
            repeated_stretch_systems(),
        ),
        st.sampled_from([3, 4]),
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_witness_start_is_flagged(self, s, k, constraint):
        index = s.pair_index
        counts = Counter(a for path in s.paths for a in path[:-1])
        tested = {a for a, count in counts.items() if count > 1}
        assert set(index.feeds) == tested
        assert index.starts[k] <= tested
        for x1 in ParentPairIndex(s.paths).after:
            if parent_find_k_bridge(s, k, constraint, only=x1) is not None:
                assert x1 in index.starts[k], x1

    @pytest.mark.parametrize(
        "paths, k",
        [
            (((0, 1, 2), (1, 2), (0, 2)), 3),
            (((0, 1, 2), (1, 2), (2, 3), (0, 3)), 4),
        ],
    )
    def test_second_hop_shared_with_the_first_arc(self, paths, k):
        # The witness's first arc is path 0, which also holds its second
        # hop (1, 2). Path 0 does not hold that pair alone, so W at 0 on
        # path 0 keeps 2; path 0's own later mask would remove it.
        s = PathSystem(4, paths)
        found = find_k_bridge(s, k)
        assert found is not None and found.chain == tuple(range(k)) and found.arcs[0] == 0
        assert found == parent_find_k_bridge(s, k)
        assert 0 in s.pair_index.starts[k]
        assert not s.pair_index.sole(1, 0) >> 2 & 1

    def test_width_4_start_whose_x3_does_not_follow_it(self):
        # x_3 = 2 is in W at 0 on path 0 and precedes x_4 = 3 as 0 does,
        # but 0 precedes only 1 and 3
        s = PathSystem(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert s.pair_index.succ[0] == 0b1010
        assert s.pair_index.starts == {3: set(), 4: {0}}
        found = find_k_bridge(s, 4)
        assert found is not None and found.chain == (0, 1, 2, 3)
        assert found == parent_find_k_bridge(s, 4)


class TestDerivedPairFacts:
    """The index that derives owners, shared pairs and one-path masks from
    per-vertex path lists, against the searches and builds it replaced."""

    @given(
        st.one_of(
            path_systems(max_universe=10, max_paths=10, max_len=10),
            repeated_stretch_systems(),
            one_owner_systems(),
            systems_with_one_vertex_paths(),
        ),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([NONE, FIRST, LAST]),
    )
    @settings(max_examples=600, deadline=None)
    def test_same_witness_as_the_parent_search(self, s, k, constraint):
        assert find_k_bridge(s, k, constraint) == parent_find_k_bridge(s, k, constraint)

    @given(st.one_of(path_systems(max_universe=8, max_paths=8), repeated_stretch_systems()))
    @settings(max_examples=300, deadline=None)
    def test_accessors_match_the_parent_build(self, s):
        index, parent = s.pair_index, ParentPairIndex(s.paths)
        expected = {
            pair: -1 if pair in parent.shared else q for pair, q in parent.owner.items()
        }
        for (a, b), q in expected.items():
            assert index.owner(a, b) == q, (a, b)
            assert index.shared.get(a, 0) >> b & 1 == (q == -1), (a, b)
        for a in index.succ:
            on = [q for q, path in enumerate(s.paths) if a in path[:-1]]
            assert list(index.paths_at(a)) == on, a
            assert (a in index.one, a in index.many) == (len(on) == 1, len(on) > 1), a
            if a in index.many:
                assert index.row(a) == {b: expected[a, b] for b in iter_bits(index.succ[a])}, a
            assert index.sole(a, -1) == 0

    def test_build_peak_is_at_most_half_the_parent_build(self):
        # Both peaks come from one fresh interpreter: taken here, they
        # moved with the free lists that earlier tests left behind.
        paths = [os.path.dirname(os.path.dirname(pathsystem.__file__)), os.path.dirname(__file__)]
        paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        child = subprocess.run(
            [sys.executable, "-c", BUILD_PEAKS],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, child.stderr
        peak, parent_peak = map(int, child.stdout.split())
        assert 2 * peak <= parent_peak, f"build peak {peak} B, parent build peak {parent_peak} B"


class TestPrefixMonotonicity:
    @given(path_systems(), st.sampled_from([NONE, FIRST, LAST]), st.sampled_from([2, 3, 4]))
    @settings(max_examples=80, deadline=None)
    def test_prefix_violations_persist_in_full_system(self, s, constraint, k):
        # appending paths never renumbers earlier ones, so one audit of
        # the finished system sees every violation of every prefix
        full_acyclic = is_acyclic(s)[0]
        for q in range(1, len(s.paths) + 1):
            prefix = PathSystem(s.universe, s.paths[:q])
            w = find_k_bridge(prefix, k, constraint)
            if w is not None:
                assert validate_witness(s, w, constraint)
            if not is_acyclic(prefix)[0]:
                assert not full_acyclic


class TestRSet:
    def test_membership(self):
        s = PathSystem(4, ((0, 1), (2, 3), (0, 2)))
        assert r_set(s, 0, 1) == [2]

    def test_candidate_must_come_after_i3(self):
        s = PathSystem(4, ((0, 2), (0, 1), (2, 3)))
        # candidate path (0,2) sits at index 0, before i3=2
        assert r_set(s, 1, 2) == []

    def test_same_anchor_twice(self):
        s = PathSystem(4, ((0, 1), (2, 3), (0, 2)))
        assert r_set(s, 0, 0) == []

    def test_bounds(self):
        s = PathSystem(2, ((0, 1),))
        with pytest.raises(BoundsError):
            r_set(s, 0, 5)

    def test_multi_meeting_warns(self):
        s = PathSystem(5, ((0, 1, 2), (3, 4), (0, 3, 2)))
        with pytest.warns(UserWarning, match="more than one vertex"):
            r_set(s, 0, 1)

    def test_sorted_by_position_along_first_anchor(self):
        s = PathSystem(8, ((0, 1, 2), (6, 7), (2, 6), (0, 7)))
        # path 3 meets anchor 0 at node 0 (pos 0), path 2 at node 2 (pos 2)
        assert r_set(s, 0, 1) == [3, 2]


class TestVerifyROrdering:
    def test_small_sets_trivially_ordered(self):
        s = PathSystem(4, ((0, 1), (2, 3), (0, 2)))
        assert verify_r_ordering(s, 0, 1)

    def test_crossing_configuration_fails(self):
        # two candidates whose anchor meetings cross; the same system
        # carries a 4-bridge whose last arc precedes the river
        s = PathSystem(10, ((0, 1), (8, 9), (0, 9), (1, 8)))
        assert not verify_r_ordering(s, 0, 1)
        assert find_k_bridge(s, 4, LAST) is not None

    @given(path_systems())
    @settings(max_examples=40, deadline=None)
    def test_membership_is_sound(self, s):
        import warnings as warnings_mod

        for i1 in range(len(s.paths)):
            for i3 in range(len(s.paths)):
                with warnings_mod.catch_warnings():
                    warnings_mod.simplefilter("ignore")
                    members = r_set(s, i1, i3)
                assert members == sorted(set(members), key=members.index)
                set1, set3 = set(s.paths[i1]), set(s.paths[i3])
                for i2 in members:
                    assert i2 > i3 and i2 != i1
                    path2 = s.paths[i2]
                    a = next(p for p, v in enumerate(path2) if v in set1)
                    b = next(p for p, v in enumerate(path2) if v in set3)
                    assert a < b

    def test_ties_along_the_first_anchor_keep_index_order(self):
        # paths 2 and 3 both meet anchor 0 at node 0; path 3 meets anchor 1 first
        s = PathSystem(7, ((0, 1), (5, 6), (0, 6), (0, 5)))
        assert r_set(s, 0, 1) == [2, 3]

    def test_multi_meeting_warning_names_the_caller(self):
        s = PathSystem(5, ((0, 1, 2), (3, 4), (0, 3, 2)))
        with pytest.warns(UserWarning, match="more than one vertex") as record:
            r_set(s, 0, 1)
        assert [w.filename for w in record] == [__file__]


def reference_r_ordering(s: PathSystem, i1: int, i3: int) -> bool:
    """``verify_r_ordering`` as it was before it shared ``r_set``'s scan:
    a second first-meeting search per member. Kept as the reference."""
    import warnings as warnings_mod

    with warnings_mod.catch_warnings():
        warnings_mod.simplefilter("ignore")
        members = r_set(s, i1, i3)
    if len(members) > len(s.paths[i1]):
        return False
    pos1 = {v: i for i, v in enumerate(s.paths[i1])}
    pos3 = {v: i for i, v in enumerate(s.paths[i3])}
    last1 = last3 = -1
    for i2 in members:
        a = next(pos1[v] for v in s.paths[i2] if v in pos1)
        b = next(pos3[v] for v in s.paths[i2] if v in pos3)
        if a <= last1 or b < last3:
            return False
        last1, last3 = a, b
    return True


@given(path_systems(max_universe=7, max_paths=7))
@settings(max_examples=200, deadline=None)
def test_verify_r_ordering_matches_the_reference(s):
    for i1 in range(len(s.paths)):
        for i3 in range(len(s.paths)):
            assert verify_r_ordering(s, i1, i3) == reference_r_ordering(s, i1, i3)
