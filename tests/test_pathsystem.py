"""Ordered path systems: bridges, R-set diagnostics."""

from __future__ import annotations

import itertools

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
    r_set,
    reversed_system,
    validate_witness,
    verify_r_ordering,
)

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


def parent_find_k_bridge(
    s: PathSystem,
    k: int,
    order_constraint: OrderConstraint | str = OrderConstraint.NONE,
) -> BridgeWitness | None:
    """The search over full occurrence lists, with a width-2 search, the
    feeds mask at every width above 2 and a role assignment for every
    chain: the oracle for the one-owner search."""
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
            assert s.pair_index.shared == shared
            witnesses = [find_k_bridge(s, k, FIRST) for k in (2, 3, 4)]
            assert [find_k_bridge(s, k, FIRST) for k in (2, 3, 4)] == witnesses
            assert witnesses == [parent_find_k_bridge(s, k, FIRST) for k in (2, 3, 4)]
            assert len(builds) == 1
            assert s.pair_index is s.pair_index

    def test_index_groups_one_path_pairs(self):
        s = PathSystem(4, ((0, 1, 2), (0, 1), (3, 2)))
        index = s.pair_index
        assert index.sole == {0: {0: 1 << 2}, 1: {0: 1 << 2}, 3: {2: 1 << 2}}
        assert index.owner == {(0, 1): 0, (0, 2): 0, (1, 2): 0, (3, 2): 2}
        assert index.shared == {(0, 1): [0, 1]}
        assert index.after == {0: [1, 2], 1: [2], 3: [2]}
        assert index.succ == {0: 0b110, 1: 0b100, 3: 0b100}
        assert index.pred == {1: 0b1, 2: 0b1011}


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
