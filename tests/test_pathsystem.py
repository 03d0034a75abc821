"""Ordered path systems: bridges, cleaning, R-set diagnostics."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkeep.errors import BoundsError, ParameterError, ParseError
from reachkeep.pathsystem import (
    BridgeMonitor,
    BridgeWitness,
    OrderConstraint,
    PathSystem,
    clean,
    dump_path_system,
    find_k_bridge,
    is_acyclic,
    load_path_system,
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
        assert s.degree(1) == 2
        assert s.degree(4) == 0
        assert s.support() == {0, 1, 2, 3}

    def test_text_roundtrip(self):
        s = PathSystem(6, ((0, 1, 2), (5, 1)))
        assert load_path_system(dump_path_system(s)) == s

    def test_parse_error_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_path_system("universe 3\n0 x\n")


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


class TestBridgeMonitor:
    def test_detects_on_second_path(self):
        mon = BridgeMonitor((2,), NONE)
        assert mon.append((0, 1, 2)) is None
        w = mon.append((5, 1, 2))
        assert w == BridgeWitness(k=2, chain=(1, 2), river=1, arcs=(0,))
        assert mon.first_witness == w

    def test_rejects_repeating_path(self):
        mon = BridgeMonitor()
        with pytest.raises(BoundsError):
            mon.append((1, 1))

    @given(path_systems(), st.sampled_from([NONE, FIRST, LAST]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_full_scans_until_first_hit(self, s, constraint):
        mon = BridgeMonitor((2, 3, 4), constraint)
        for i in range(len(s.paths)):
            mon.append(s.paths[i])
            prefix = PathSystem(s.universe, s.paths[: i + 1])
            full_hit = any(
                find_k_bridge(prefix, k, constraint) is not None for k in (2, 3, 4)
            )
            assert (mon.first_witness is not None) == full_hit
            if full_hit:
                assert validate_witness(prefix, mon.first_witness, constraint)
                break


class TestClean:
    def test_fixed_point(self):
        s = PathSystem(6, ((0, 1, 2), (3, 4, 5)))
        assert clean(s).paths == s.paths

    def test_long_path_split(self):
        # average length 2, so the length-4 path splits in half
        s = PathSystem(8, ((0, 1, 2, 3), (4, 5), (6, 7), (0, 4), (1, 5), (2, 6)))
        out = clean(s)
        assert (0, 1) in out.paths and (2, 3) in out.paths
        assert (0, 1, 2, 3) not in out.paths

    def test_heavy_vertex_split(self):
        # vertex 0 lies on every path; copies appear as fresh ids
        s = PathSystem(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        out = clean(s)
        assert all(out.degree(v) <= 4 * s.size() / len(s.support()) for v in range(out.universe))
        assert out.universe > s.universe

    def test_empty_system_rejected(self):
        with pytest.raises(ParameterError):
            clean(PathSystem(3, ()))

    @given(path_systems(max_universe=8, max_paths=6, max_len=6))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, s):
        out = clean(s)
        d = s.size() / len(s.support())
        ell = s.size() / len(s.paths)
        for v in out.support():
            assert d / 4 <= out.degree(v) <= 4 * d
        for path in out.paths:
            assert ell / 4 <= len(path) <= 4 * ell
        assert out.size() >= s.size() / 2


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
