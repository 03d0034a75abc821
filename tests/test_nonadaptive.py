from __future__ import annotations

import hashlib
import signal
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkeep import (
    RESIDUAL,
    WHILE_LOOP,
    DirectedGraph,
    EdgeStore,
    ExtremalSurrogate,
    GrowthMode,
    InstanceFamily,
    MissingEntryError,
    ParameterError,
    PathTable,
    default_surrogate,
    generate,
    greedy_adversary_step,
    precompute_index_sensitive,
    precompute_known_p,
    reachable_set,
    select_entry,
    surrogate_monitor,
)
from reachkeep import nonadaptive
from reachkeep.oracle import reachable_pairs

CHAIN4 = DirectedGraph(4, {(0, 1), (1, 2), (2, 3)})


def linear_surrogate(slope: float) -> ExtremalSurrogate:
    return ExtremalSurrogate(fn=lambda n, p: slope * p, label=f"linear({slope})")


@st.composite
def small_dags(draw, max_n: int = 7, max_edges: int = 12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=min(len(pool), max_edges)))
    return DirectedGraph(n, edges)


def assert_one_store_per_distinct_table(tables):
    """Levels with equal content, insertion order included, share one
    entries dict and one finalized_by dict; other levels share neither."""
    for a, b in combinations(tables, 2):
        ca, cb = ((list(t.entries.items()), list(t.finalized_by.items())) for t in (a, b))
        assert (a.entries is b.entries) is (ca == cb)
        assert (a.finalized_by is b.finalized_by) is (ca == cb)


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSurrogate:
    def test_frozen_default_values(self):
        assert default_surrogate(100).evaluate(100, 1) == pytest.approx(800.0)
        assert default_surrogate(10).evaluate(10, 1) == pytest.approx(80.0)
        # 4 * (10 * 2 + 10) = 120 exceeds the cap 90
        assert default_surrogate(10).evaluate(10, 4) == pytest.approx(90.0)

    def test_cap_clamps_tiny_graphs(self):
        s = default_surrogate(2)
        assert s.cap(2) == 2
        assert s.evaluate(2, 1) == pytest.approx(2.0)
        assert s.evaluate(2, 100) == pytest.approx(2.0)

    def test_evaluate_validates_arguments(self):
        s = default_surrogate(4)
        with pytest.raises(ParameterError):
            s.evaluate(4, 0)
        with pytest.raises(ParameterError):
            s.evaluate(0, 1)

    def test_factory_validates_arguments(self):
        with pytest.raises(ParameterError):
            default_surrogate(0)
        with pytest.raises(ParameterError):
            default_surrogate(4, scale=0.0)
        with pytest.raises(ParameterError, match="scale must be finite and positive, got True"):
            default_surrogate(5, scale=True)

    def test_scale_moves_the_budget(self):
        assert default_surrogate(10, scale=1.0).evaluate(10, 4) == pytest.approx(30.0)

    def test_nan_value_is_rejected(self):
        nan = ExtremalSurrogate(fn=lambda n, p: float("nan"), label="nan")
        with pytest.raises(ParameterError):
            nan.evaluate(4, 1)
        with time_limit(10), pytest.raises(ParameterError):
            precompute_index_sensitive(CHAIN4, surrogate=nan)


class TestKnownP:
    def test_residual_only_when_threshold_is_loose(self):
        table = precompute_known_p(CHAIN4, 1)
        assert table.level == 1
        assert table.threshold == pytest.approx(12.0)
        assert set(table.finalized_by.values()) == {RESIDUAL}
        assert table.while_loop_pairs == []

    def test_greedy_phase_fires_under_a_tight_budget(self):
        table = precompute_known_p(CHAIN4, 2, surrogate=linear_surrogate(1.0))
        assert table.threshold == pytest.approx(1.0)
        assert table.while_loop_pairs == [(0, 3)]
        assert table.finalized_by[(0, 3)] == WHILE_LOOP
        assert table.finalized_by[(0, 2)] == RESIDUAL

    def test_table_covers_every_reachable_pair(self):
        table = precompute_known_p(CHAIN4, 3)
        expected = {
            (u, v) for u in range(4) for v in reachable_set(CHAIN4, u)
        }
        assert set(table.entries) == expected
        for (s, t), path in table.entries.items():
            assert path[0] == s and path[-1] == t
            for e in zip(path, path[1:]):
                assert e in CHAIN4.edges

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            precompute_known_p(CHAIN4, 0)
        with pytest.raises(ParameterError, match="p must be an integer >= 1, got 0"):
            precompute_known_p(CHAIN4, 0, linear_surrogate(1.0))

    def test_deterministic(self):
        a = precompute_known_p(CHAIN4, 2, surrogate=linear_surrogate(1.0))
        b = precompute_known_p(CHAIN4, 2, surrogate=linear_surrogate(1.0))
        assert a.entries == b.entries
        assert a.finalized_by == b.finalized_by

    def test_backwards_selector_supported(self):
        table = precompute_known_p(CHAIN4, 1, selector="bw")
        assert table.entries[(0, 3)] == (0, 1, 2, 3)

    @given(small_dags(), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_p_demands_touch_at_most_twice_the_budget(self, g, p, data):
        surrogate = default_surrogate(g.n)
        table = precompute_known_p(g, p, surrogate)
        demands = data.draw(
            st.lists(st.sampled_from(sorted(table.entries)), min_size=1, max_size=p)
        )
        touched = set()
        for pair in demands:
            touched.update(zip(table.entries[pair], table.entries[pair][1:]))
        assert len(touched) <= 2 * surrogate.evaluate(g.n, p)


class TestIndexSensitive:
    def test_doubling_levels_until_saturation(self):
        tables = precompute_index_sensitive(
            CHAIN4, surrogate=linear_surrogate(3.0), p_star=1
        )
        assert [t.level for t in tables] == [1, 2, 4]

    def test_saturated_level_is_included_once(self):
        # 3 * 6 = 18 exceeds the cap 12, so the stack stops at level 6
        tables = precompute_index_sensitive(
            CHAIN4, surrogate=linear_surrogate(3.0), p_star=3
        )
        assert [t.level for t in tables] == [3, 6]

    def test_default_surrogate_saturates_small_graphs_immediately(self):
        tables = precompute_index_sensitive(CHAIN4)
        assert [t.level for t in tables] == [4]

    def test_select_picks_least_covering_level(self):
        tables = precompute_index_sensitive(
            CHAIN4, surrogate=linear_surrogate(3.0), p_star=1
        )
        assert select_entry(tables, 0, 3, 1)[0] == 1
        assert select_entry(tables, 0, 3, 2)[0] == 2
        assert select_entry(tables, 0, 3, 3)[0] == 4
        assert select_entry(tables, 0, 3, 4)[0] == 4

    def test_select_beyond_stack_falls_back_to_top_level(self):
        tables = precompute_index_sensitive(
            CHAIN4, surrogate=linear_surrogate(3.0), p_star=1
        )
        level, path = select_entry(tables, 0, 3, 999)
        assert level == 4
        assert path[0] == 0 and path[-1] == 3

    def test_select_validates_index_and_membership(self):
        tables = precompute_index_sensitive(CHAIN4)
        with pytest.raises(ParameterError):
            select_entry(tables, 0, 3, 0)
        with pytest.raises(ParameterError):
            select_entry((), 0, 3, 1)
        with pytest.raises(MissingEntryError):
            select_entry(tables, 3, 0, 1)

    @pytest.mark.parametrize("i", [0, 2.5, 1.0, True])
    def test_select_rejects_an_index_that_is_not_a_count(self, i):
        tables = precompute_index_sensitive(CHAIN4)
        with pytest.raises(ParameterError, match=f"demand index must be an integer >= 1, got {i!r}"):
            select_entry(tables, 0, 3, i)

    @pytest.mark.parametrize("p_star", [0, 1.5, 2.0, True])
    def test_rejects_bad_base(self, p_star):
        match = f"p_star must be an integer >= 1, got {p_star!r}"
        with pytest.raises(ParameterError, match=match):
            precompute_index_sensitive(CHAIN4, p_star=p_star)
        # p_star is checked before the surrogate refuses n = 0
        with pytest.raises(ParameterError, match=match):
            precompute_index_sensitive(DirectedGraph(0, []), linear_surrogate(1.0), p_star=p_star)

    @pytest.mark.parametrize("surrogate", [None, linear_surrogate(1.0)], ids=["default", "custom"])
    @pytest.mark.parametrize("p_star", [None, 2])
    def test_empty_graph_is_refused_by_the_surrogate(self, surrogate, p_star):
        # the default surrogate refuses n = 0 when built, a custom one when evaluated
        with pytest.raises(ParameterError, match="n must be (an integer )?>= 1, got 0"):
            precompute_index_sensitive(DirectedGraph(0, []), surrogate, p_star=p_star)
        with pytest.raises(ParameterError, match="n must be (an integer )?>= 1, got 0"):
            precompute_known_p(DirectedGraph(0, []), 2, surrogate)

    def test_never_saturating_surrogate_is_rejected(self):
        # 10n = 120 stays below the cap n(n-1) = 132 at every level.
        chain12 = DirectedGraph(12, {(v, v + 1) for v in range(11)})
        flat = ExtremalSurrogate(fn=lambda n, p: 10 * n, label="flat")
        with time_limit(10), pytest.raises(ParameterError):
            precompute_index_sensitive(chain12, surrogate=flat)

    def test_levels_sharing_a_floor_share_one_store(self):
        # Thresholds 3.0, 3.0 and 3.0: one floor, three levels, one store.
        tables = precompute_index_sensitive(
            CHAIN4, surrogate=linear_surrogate(3.0), p_star=1
        )
        assert [t.level for t in tables] == [1, 2, 4]
        assert_one_store_per_distinct_table(tables)
        assert len({id(t.entries) for t in tables}) == len({id(t.finalized_by) for t in tables}) == 1

    def test_levels_with_different_content_share_no_store(self):
        g, _ = generate(InstanceFamily(kind="random-dag", n=20, seed=3, density=0.2))
        tables = precompute_index_sensitive(g, default_surrogate(g.n, 1.0))
        # stops 5, 3, 2, 1, 1, 0, and the while-loop commits before each new stop
        assert [len(t.while_loop_pairs) for t in tables] == [0, 2, 3, 8, 8, 20]
        assert_one_store_per_distinct_table(tables)
        assert len({id(t.entries) for t in tables}) == len({id(t.finalized_by) for t in tables}) == 5

    def test_stops_that_commit_nothing_share_one_store(self):
        g, _ = generate(InstanceFamily(kind="random-dag", n=30, seed=1, density=0.2))
        tables = precompute_index_sensitive(g)
        assert len({nonadaptive._stop(t.threshold) for t in tables}) == len(tables) > 1
        assert not any(t.while_loop_pairs for t in tables)
        assert all(t.entries is tables[0].entries for t in tables)
        assert all(t.finalized_by is tables[0].finalized_by for t in tables)

    @given(small_dags(), st.floats(min_value=0.1, max_value=4.0), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_one_store_per_distinct_table(self, g, slope, p_star):
        assert_one_store_per_distinct_table(
            precompute_index_sensitive(g, linear_surrogate(slope), p_star=p_star)
        )

    def test_non_adaptive_rebuild_is_identical(self):
        a = precompute_index_sensitive(CHAIN4, surrogate=linear_surrogate(3.0), p_star=1)
        b = precompute_index_sensitive(CHAIN4, surrogate=linear_surrogate(3.0), p_star=1)
        assert [t.entries for t in a] == [t.entries for t in b]

    @given(small_dags(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_level_answers_every_reachable_pair(self, g, data):
        tables = precompute_index_sensitive(g)
        pairs = sorted(tables[0].entries)
        pair = data.draw(st.sampled_from(pairs))
        i = data.draw(st.integers(min_value=1, max_value=4 * g.n))
        level, path = select_entry(tables, *pair, i)
        assert path[0] == pair[0] and path[-1] == pair[1]
        assert any(t.level == level for t in tables)


class TestSurrogateMonitor:
    def test_valid_on_a_chain(self):
        report = surrogate_monitor(CHAIN4, 3)
        assert report.valid
        assert report.final_edges == 3
        assert report.rounds == [3, 3, 3]
        assert report.budget == pytest.approx(12.0)

    def test_undershooting_surrogate_is_reported_invalid(self):
        report = surrogate_monitor(CHAIN4, 2, surrogate=linear_surrogate(0.5))
        assert not report.valid
        assert report.final_edges == 3
        assert report.budget == pytest.approx(1.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            surrogate_monitor(CHAIN4, 0)

    @pytest.mark.parametrize("p", [2.5, 1.0, True])
    def test_rejects_a_p_that_is_not_a_count(self, p):
        with pytest.raises(ParameterError, match=f"p must be an integer >= 1, got {p!r}"):
            surrogate_monitor(CHAIN4, p)

    @given(small_dags(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_default_budget_holds_on_small_dags(self, g, p):
        report = surrogate_monitor(g, p)
        assert report.valid
        assert len(report.rounds) == p
        assert report.rounds == sorted(report.rounds)


# The per-level construction the single trajectory replaced: one
# greedy_adversary_step (a fresh grow of every candidate) per while-loop
# round, and one known-budget table per level. Reference only.


def reference_adversary_step(g, h, selector, candidates):
    grow = GrowthMode(selector).grow
    best_pair, best_count = None, -1
    for pair in sorted(set(candidates)):
        path = grow(g, h, *pair)
        count = sum(1 for e in zip(path, path[1:]) if e not in h)
        if count > best_count:
            best_pair, best_count = pair, count
    return best_pair


def reference_known_p(g, p, surrogate, selector):
    grow = GrowthMode(selector).grow
    threshold = surrogate.evaluate(g.n, p) / p
    table = PathTable(level=p, threshold=threshold)
    h = EdgeStore(g.n)
    unfinalized = set(reachable_pairs(g))
    while unfinalized:
        pair = reference_adversary_step(g, h, selector, unfinalized)
        path = grow(g, h, *pair)
        count = sum(1 for e in zip(path, path[1:]) if e not in h)
        if count <= threshold:
            break
        for e in zip(path, path[1:]):
            h.add(e)
        table.entries[pair] = path
        table.finalized_by[pair] = WHILE_LOOP
        unfinalized.discard(pair)
    for pair in sorted(unfinalized):
        table.entries[pair] = grow(g, h, *pair)
        table.finalized_by[pair] = RESIDUAL
    return table


def reference_stack(g, surrogate, selector, p_star):
    tables = []
    q = p_star if p_star is not None else g.n
    while True:
        tables.append(reference_known_p(g, q, surrogate, selector))
        if surrogate.evaluate(g.n, q) >= surrogate.cap(g.n):
            return tables
        q *= 2


def reference_monitor_rounds(g, p, selector):
    grow = GrowthMode(selector).grow
    domain = reachable_pairs(g)
    h = EdgeStore(g.n)
    rounds = []
    for _ in range(p):
        pair = reference_adversary_step(g, h, selector, domain)
        path = grow(g, h, *pair)
        for e in zip(path, path[1:]):
            h.add(e)
        rounds.append(len(h))
    return rounds


class FullScanAdversary:
    """The adversary as it was before the ordered pick and the walk
    index: ``best`` takes a min over the whole cache, and ``commit``
    grows again every candidate whose path visits the tail (forwards)
    or the head (backwards) of a new edge, found by a scan of the cache.
    Kept as the reference."""

    def __init__(self, g, h, selector, candidates):
        cands = sorted({(int(s), int(t)) for s, t in candidates})
        if not cands:
            raise ParameterError("candidate set is empty")
        self.g, self.h = g, h
        mode = GrowthMode(selector)
        self._grow = mode.grow
        self._end = 0 if mode is GrowthMode.FORWARDS else 1
        self._cache = {}
        for pair in cands:
            self._regrow(pair)

    def _regrow(self, pair):
        new = []
        path = self._grow(self.g, self.h, *pair, new)
        self._cache[pair] = path, len(new), sum(1 << v for v in path)

    def __bool__(self):
        return bool(self._cache)

    def best(self):
        cache = self._cache
        pair = min(cache, key=lambda q: (-cache[q][1], q))
        path, count, _ = cache[pair]
        return pair, path, count

    def discard(self, pair):
        del self._cache[pair]

    def commit(self, path):
        touched = 0
        for e in zip(path, path[1:]):
            if self.h.add(e):
                touched |= 1 << e[self._end]
        if touched:
            for pair, (_, _, mask) in self._cache.items():
                if mask & touched:
                    self._regrow(pair)

    def remaining(self):
        return sorted((pair, path) for pair, (path, _, _) in self._cache.items())


SURROGATES = [
    default_surrogate(9),
    default_surrogate(9, scale=0.3),
    default_surrogate(9, scale=0.1),
    linear_surrogate(0.5),
    linear_surrogate(2.5),
    # Negative below level 2n, so the early levels finalize every pair
    # in the while-loop; saturates at 4p >= n(n+7).
    ExtremalSurrogate(fn=lambda n, p: 4 * p - 8 * n, label="negative-start"),
]


class TestOneTrajectory:
    @given(
        small_dags(max_n=9, max_edges=20),
        st.sampled_from(["fw", "bw"]),
        st.sampled_from(SURROGATES),
        st.sampled_from([1, 2, 3, 5, None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_stack_matches_per_level_construction(self, g, selector, surrogate, p_star):
        got = precompute_index_sensitive(g, surrogate, selector, p_star)
        want = reference_stack(g, surrogate, selector, p_star)
        assert [t.level for t in got] == [t.level for t in want]
        assert [t.threshold for t in got] == [t.threshold for t in want]
        for a, b in zip(got, want):
            assert list(a.entries.items()) == list(b.entries.items())
            assert list(a.finalized_by.items()) == list(b.finalized_by.items())

    @given(
        small_dags(max_n=9, max_edges=20),
        st.sampled_from(["fw", "bw"]),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_monitor_matches_per_round_adversary(self, g, selector, p):
        report = surrogate_monitor(g, p, default_surrogate(g.n), selector)
        assert report.rounds == reference_monitor_rounds(g, p, selector)

    @given(small_dags(max_n=9, max_edges=20), st.sampled_from(["fw", "bw"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_adversary_step_matches_fresh_grows_on_partial_h(self, g, selector, data):
        h = EdgeStore(g.n)
        for e in data.draw(st.lists(st.sampled_from(sorted(g.edges)), max_size=len(g.edges))):
            h.add(e)
        candidates = data.draw(
            st.lists(st.sampled_from(reachable_pairs(g)), min_size=1, max_size=20)
        )
        assert greedy_adversary_step(g, h, selector, candidates) == reference_adversary_step(
            g, h, selector, candidates
        )

    # Graphs of at most 9 vertices rarely grow one candidate's walk twice;
    # these mid-size DAGs do, many times over.
    @pytest.mark.parametrize("selector", ["fw", "bw"])
    @pytest.mark.parametrize("n, seed", [(60, 11), (70, 12), (80, 13)])
    def test_mid_size_tables_match_the_full_scan_adversary(self, monkeypatch, n, seed, selector):
        g, _ = generate(InstanceFamily("random-dag", n, seed, density=0.08))
        surrogate = default_surrogate(n, scale=0.3)

        def run():
            tables = precompute_index_sensitive(g, surrogate, selector)
            report = surrogate_monitor(g, n, surrogate, selector)
            return (
                [(t.level, t.threshold, list(t.entries.items()), list(t.finalized_by.items())) for t in tables],
                (report.rounds, report.final_edges),
            )

        got = run()
        monkeypatch.setattr(nonadaptive, "_GreedyAdversary", FullScanAdversary)
        want = run()
        assert got == want
        assert len(reachable_pairs(g)) > 500
        assert any(tag == WHILE_LOOP for *_, finalized_by in got[0] for _, tag in finalized_by)

    # The stack and the monitor rounds on a 300-vertex DAG, pinned by the
    # digest the code gave before the adversary kept its candidates in
    # numbered lists; scale 0.3 makes the while-loop commit pairs.
    @pytest.mark.parametrize(
        "selector, digest",
        [
            ("fw", "8dcbad39c652aaa0fe43e3eff134216d93982dd85eccd971e4d21c0ca3046c0d"),
            ("bw", "4e7f78cd8132faa6468cfb33af6b882a3d7ab0b7c7886dc11d834df08a6cff1f"),
        ],
    )
    def test_pinned_stack_and_monitor_digest(self, selector, digest):
        g, _ = generate(InstanceFamily("random-dag", 300, 38, density=0.02))
        surrogate = default_surrogate(300, scale=0.3)
        tables = precompute_index_sensitive(g, surrogate, selector)
        rounds = surrogate_monitor(g, 300, surrogate, selector).rounds
        h = hashlib.sha256()
        for t in tables:
            h.update(repr((t.level, t.threshold, list(t.entries.items()), list(t.finalized_by.items()))).encode())
        h.update(repr(rounds).encode())
        assert h.hexdigest() == digest
        assert any(tag == WHILE_LOOP for t in tables for tag in t.finalized_by.values())
