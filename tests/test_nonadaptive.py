from __future__ import annotations

import signal
from contextlib import contextmanager

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
    MissingEntryError,
    ParameterError,
    PathTable,
    default_surrogate,
    greedy_adversary_step,
    precompute_index_sensitive,
    precompute_known_p,
    reachable_set,
    select_entry,
    surrogate_monitor,
)
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

    def test_rejects_bad_base(self):
        with pytest.raises(ParameterError):
            precompute_index_sensitive(CHAIN4, p_star=0)

    def test_never_saturating_surrogate_is_rejected(self):
        # 10n = 120 stays below the cap n(n-1) = 132 at every level.
        chain12 = DirectedGraph(12, {(v, v + 1) for v in range(11)})
        flat = ExtremalSurrogate(fn=lambda n, p: 10 * n, label="flat")
        with time_limit(10), pytest.raises(ParameterError):
            precompute_index_sensitive(chain12, surrogate=flat)

    def test_levels_sharing_a_floor_are_independent_objects(self):
        # Thresholds 3.0, 3.0 and 3.0: one floor, three levels.
        tables = precompute_index_sensitive(
            CHAIN4, surrogate=linear_surrogate(3.0), p_star=1
        )
        assert [t.level for t in tables] == [1, 2, 4]
        before = [(dict(t.entries), dict(t.finalized_by)) for t in tables]
        tables[0].entries[(0, 3)] = (0, 3)
        del tables[0].entries[(1, 2)]
        tables[0].finalized_by.clear()
        assert [(t.entries, t.finalized_by) for t in tables[1:]] == before[1:]

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
