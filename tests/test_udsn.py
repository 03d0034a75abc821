from __future__ import annotations

import math
import random
import re
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkeep import (
    FIRST_T,
    HIT,
    THIN,
    TRIVIAL,
    BoundsError,
    DirectedGraph,
    IncrementalClosure,
    InfeasiblePairError,
    InstanceFamily,
    ParameterError,
    UdsnParams,
    UdsnRecord,
    UdsnSession,
    bfs_route,
    condense,
    generate,
    hit_by,
    is_thin,
    load_graph,
    reachable_set,
)
from reachkeep import udsn
from reachkeep.errors import check_count
from reachkeep.graphs import parse_pairs
from test_bfs_kernel import parent_bfs_route
from test_preserver import graphs_with_stray_pairs, outcome

CHAIN3 = DirectedGraph(3, {(0, 1), (1, 2)})


def two_chain_graph() -> DirectedGraph:
    spine = {(i, i + 1) for i in range(19)}
    side = {(20, 21), (21, 22)}
    return DirectedGraph(23, spine | side)


def scripted_session() -> UdsnSession:
    # seed 0 samples (6, 9, 10, 15): the spine is hit, the side chain is not
    g = two_chain_graph()
    return UdsnSession(g, UdsnParams(tau=2, T=1, sample_constant=0.1), seed=0)


class PerEdgeClosure(IncrementalClosure):
    """An output closure that takes a batch one ``add`` at a time."""

    __slots__ = ()

    def add_all(self, edges) -> int:
        return sum(map(self.add, edges))


def per_edge_session(g: DirectedGraph, params: UdsnParams, seed: int) -> UdsnSession:
    """A session whose output takes each route one edge at a time, as
    ``serve`` did before routes went in as one ``add_all`` batch. Kept
    as the reference."""
    session = UdsnSession(g, params, seed=seed)
    session.output = PerEdgeClosure(g.n)
    return session


def ringed_digraph(rng: random.Random) -> DirectedGraph:
    """Rings of 1 to 13 vertices, each with a few chords, joined by
    random edges that may merge some of them into larger components."""
    n = rng.randint(20, 50)
    order = rng.sample(range(n), n)
    edges = set()
    while order:
        size = rng.choice((1, 2, 3, 5, 8, 13))
        ring, order = order[:size], order[size:]
        if len(ring) > 1:
            edges |= {(u, ring[(i + 1) % len(ring)]) for i, u in enumerate(ring)}
            edges |= {tuple(rng.sample(ring, 2)) for _ in range(len(ring) // 2)}
    edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n)}
    return DirectedGraph(n, edges)


@st.composite
def digraph_with_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
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
def cyclic_digraph_with_sample(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.sets(st.sampled_from(pool), max_size=min(len(pool), 12)))
    cycle = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    edges |= {(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)}
    sample = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    return DirectedGraph(n, edges), sample


def bfs_is_thin(g: DirectedGraph, s: int, t: int, tau: int) -> bool:
    """``is_thin`` as it was before it read ``reach_mask``: two
    ``reachable_set`` sweeps. Kept as the reference."""
    check_count("tau", tau)
    between = reachable_set(g, s) & reachable_set(g, t, reverse=True)
    return len(between) <= tau


class TestParams:
    def test_defaults_scale_with_n(self):
        params = UdsnParams.defaults_for(10)
        assert params.tau == 4  # ceil(10 ** 0.6)
        assert params.T == 16  # ceil(10 ** 1.2)
        tiny = UdsnParams.defaults_for(1)
        assert tiny.tau == 1 and tiny.T == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            UdsnParams(tau=0, T=1)
        with pytest.raises(ParameterError):
            UdsnParams(tau=1, T=-1)
        with pytest.raises(ParameterError):
            UdsnParams(tau=1, T=1, sample_constant=0.0)
        with pytest.raises(ParameterError):
            UdsnParams.defaults_for(0)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("field", ["tau", "T"])
    def test_tau_and_T_must_be_integers(self, field, value):
        with pytest.raises(ParameterError, match=re.escape(f"{field} must be an integer")):
            UdsnParams(**{"tau": 2, "T": 1, field: value})

    @pytest.mark.parametrize("constant", [math.nan, math.inf])
    def test_non_finite_sample_constant_rejected(self, constant):
        with pytest.raises(ParameterError, match="finite and positive"):
            UdsnParams(tau=1, T=1, sample_constant=constant)

    def test_bool_sample_constant_rejected(self):
        with pytest.raises(ParameterError, match="sample_constant must be finite and positive, got True"):
            UdsnParams(tau=1, T=1, sample_constant=True)

    def test_sample_size_clamps_to_n(self):
        assert UdsnParams(tau=4, T=0).sample_size(10) == 10
        assert UdsnParams(tau=1, T=0).sample_size(1) == 1
        assert UdsnParams(tau=1, T=0, sample_constant=1e308).sample_size(10) == 10

    def test_sample_size_shrinks_with_tau(self):
        assert UdsnParams(tau=50, T=0).sample_size(20) == 3


class TestThinAndHit:
    def test_is_thin_counts_the_between_set(self):
        c = condense(DirectedGraph(4, {(0, 1), (1, 2), (2, 3)}))
        assert is_thin(c, 0, 3, 4)
        assert not is_thin(c, 0, 3, 3)
        assert is_thin(c, 3, 0, 1)  # empty between set

    def test_is_thin_validates_tau(self):
        with pytest.raises(ParameterError):
            is_thin(condense(CHAIN3), 0, 2, 0)

    @given(graphs_with_stray_pairs(), st.integers(-1, 9))
    @settings(max_examples=150, deadline=None)
    def test_is_thin_matches_bfs(self, case, tau):
        g, pairs = case
        c = condense(g)
        for s, t in pairs:
            got = outcome(lambda: is_thin(c, s, t, tau))
            assert got == outcome(lambda: bfs_is_thin(g, s, t, tau))

    def test_hit_by_returns_smallest_sampled_relay(self):
        c = condense(DirectedGraph(4, {(0, 1), (1, 2), (2, 3)}))
        assert hit_by(c, 0, 3, (1, 2)) == 1
        assert hit_by(c, 0, 3, (2,)) == 2
        assert hit_by(c, 3, 0, (1, 2)) is None
        assert hit_by(c, 0, 3, ()) is None

    @given(cyclic_digraph_with_sample())
    @settings(max_examples=60, deadline=None)
    def test_hit_by_matches_bfs_on_cyclic_graphs(self, case):
        g, sample = case
        c = condense(g)
        for s in range(g.n):
            for t in range(g.n):
                between = reachable_set(g, s) & reachable_set(g, t, reverse=True)
                expected = next((v for v in sample if v in between), None)
                assert hit_by(c, s, t, sample) == expected
        for s, t in ((-1, 0), (0, -1), (g.n, 0), (0, g.n)):
            with pytest.raises(BoundsError):
                hit_by(c, s, t, sample)


class TestBfsRoute:
    def test_routes_a_chain(self):
        assert bfs_route(CHAIN3, 0, 2) == ((0, 1), (1, 2))

    def test_reflexive_demand_needs_no_edges(self):
        assert bfs_route(CHAIN3, 1, 1) == ()

    def test_fewest_edges_with_smallest_head_tie_break(self):
        g = DirectedGraph(4, {(0, 1), (0, 2), (1, 3), (2, 3)})
        assert bfs_route(g, 0, 3) == ((0, 1), (1, 3))

    def test_infeasible_pair_raises(self):
        with pytest.raises(InfeasiblePairError):
            bfs_route(CHAIN3, 2, 0)

    def test_bounds_checked(self):
        with pytest.raises(BoundsError):
            bfs_route(CHAIN3, 0, 7)


class TestSessionRouting:
    def test_scripted_stream_exercises_every_route(self):
        session = scripted_session()
        routes = []
        for pair in [(0, 5), (0, 3), (0, 19), (20, 22), (20, 21)]:
            routes.append(session.serve(*pair).route)
        assert routes == [FIRST_T, TRIVIAL, HIT, THIN, TRIVIAL]

    def test_scripted_stream_details(self):
        session = scripted_session()
        session.serve(0, 5)
        session.serve(0, 3)
        hit_record = session.serve(0, 19)
        thin_record = session.serve(20, 22)
        assert session.sample == (6, 9, 10, 15)
        assert hit_record.via == 6
        assert hit_record.edges_added == 19
        assert thin_record.thin_violation
        assert session.sampling_failures == [thin_record]

    def test_scripted_summary(self):
        session = scripted_session()
        for pair in [(0, 5), (0, 3), (0, 19), (20, 22), (20, 21)]:
            session.serve(*pair)
        summary = session.summary()
        assert summary["handler_profile"] == {
            TRIVIAL: 2,
            FIRST_T: 1,
            HIT: 1,
            THIN: 1,
        }
        assert summary["nontrivial"] == 3
        assert summary["output_edges"] == 21
        assert summary["total_route_cost"] == 26
        assert summary["opt_lower_bound"] == 3
        assert summary["ratio"] == pytest.approx(7.0)
        assert summary["ratio_certified"] is False
        assert summary["sampling_failures"] == 1

    def test_hit_legs_stay_inside_the_sample(self):
        session = scripted_session()
        for pair in [(0, 5), (0, 3), (0, 19), (20, 22)]:
            session.serve(*pair)
        assert {rec.pair[1] for rec in session.fw_leg.log} <= set(session.sample)
        assert {rec.pair[0] for rec in session.bw_leg.log} <= set(session.sample)

    def test_hit_legs_meet_at_the_relay_on_a_cyclic_graph(self):
        # The golden n=60 instance: 52 of its vertices form one strong
        # component, which holds the relay of each of the 4 hit routes.
        golden = Path(__file__).resolve().parent / "golden"
        g = load_graph((golden / "scc60.txt").read_text())
        pairs = parse_pairs((golden / "scc60-pairs.txt").read_text())
        session = UdsnSession(g, UdsnParams(tau=UdsnParams.defaults_for(g.n).tau, T=10), seed=0)
        hits = [rec for rec in (session.serve(s, t) for s, t in pairs) if rec.route == HIT]
        assert len(hits) == 4
        assert len({session.condensation.component_of[rec.via] for rec in hits}) == 1
        assert [rec.pair[1] for rec in session.fw_leg.log] == [rec.via for rec in hits]
        assert [rec.pair[0] for rec in session.bw_leg.log] == [rec.via for rec in hits]
        assert [rec.pair[0] for rec in session.fw_leg.log] == [rec.pair[0] for rec in hits]
        assert [rec.pair[1] for rec in session.bw_leg.log] == [rec.pair[1] for rec in hits]
        assert {rec.via for rec in hits} <= set(session.sample)

    def test_the_output_hands_its_hub_over_on_a_random_digraph(self):
        # A later strong component of the output outgrows the first one,
        # which held the hub: the hand-over in IncrementalClosure._contract.
        g, pairs = generate(
            InstanceFamily(kind="random-digraph", n=400, seed=1, density=0.004, pairs=1600)
        )
        session = UdsnSession(g, UdsnParams(tau=UdsnParams.defaults_for(400).tau, T=40), seed=1)
        hubs = [session.output._hub]
        for s, t in pairs:
            session.serve(s, t)
            if session.output._hub != hubs[-1]:
                hubs.append(session.output._hub)
        assert hubs == [400, 1, 28]
        out = session.output_graph()
        assert all(t in reachable_set(out, s) for s, t in pairs)

    def test_served_pairs_stay_connected(self):
        session = scripted_session()
        pairs = [(0, 5), (0, 3), (0, 19), (20, 22), (20, 21)]
        for pair in pairs:
            session.serve(*pair)
        out = session.output_graph()
        for s, t in pairs:
            assert t in reachable_set(out, s)

    def test_bounds_checked(self):
        session = scripted_session()
        with pytest.raises(BoundsError):
            session.serve(0, 99)

    @given(digraph_with_pairs(), st.sampled_from((0, 1, 3)), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_trivial_exactly_when_output_already_connects(self, case, T, seed):
        g, pairs = case
        session = UdsnSession(g, UdsnParams(tau=max(1, g.n // 2), T=T), seed=seed)
        for s, t in pairs:
            connected = t in reachable_set(session.output_graph(), s)
            assert (session.serve(s, t).route == TRIVIAL) == connected

    def test_determinism(self):
        a = scripted_session()
        b = scripted_session()
        for pair in [(0, 5), (0, 3), (0, 19), (20, 22)]:
            a.serve(*pair)
            b.serve(*pair)
        assert a.sample == b.sample
        assert a.records == b.records
        assert a.output.edges == b.output.edges


class TestSampleTiming:
    def test_zero_T_draws_at_init(self):
        session = UdsnSession(CHAIN3, UdsnParams(tau=3, T=0), seed=1)
        assert session.sample is not None

    def test_sample_waits_for_the_Tth_nontrivial_serve(self):
        session = UdsnSession(CHAIN3, UdsnParams(tau=3, T=2), seed=1)
        assert session.sample is None
        session.serve(0, 0)  # trivial, does not advance the phase
        assert session.sample is None
        session.serve(0, 1)
        assert session.sample is None
        session.serve(1, 2)
        assert session.sample is not None

    @pytest.mark.parametrize("T", [0, 1])
    def test_failed_serve_leaves_the_phase_untouched(self, T):
        # T=1 fails on the firstT route, T=0 on the thin route
        session = UdsnSession(CHAIN3, UdsnParams(tau=3, T=T), seed=1)
        sample = session.sample
        with pytest.raises(InfeasiblePairError):
            session.serve(2, 0)
        assert session.nontrivial_count == 0
        assert session.records == []
        assert session.sampling_failures == []
        assert session.sample == sample


class TestAggregates:
    def test_cost_ledger_dominates_output_size(self):
        session = scripted_session()
        for pair in [(0, 5), (0, 3), (0, 19), (20, 22), (20, 21)]:
            session.serve(*pair)
        assert session.total_route_cost >= len(session.output)

    def test_lower_bound_is_zero_without_nontrivial_serves(self):
        session = UdsnSession(CHAIN3, UdsnParams(tau=3, T=0), seed=1)
        session.serve(1, 1)
        assert session.opt_lower_bound == 0
        assert session.summary()["ratio"] is None

    @given(digraph_with_pairs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_random_streams_stay_connected(self, case, seed):
        g, pairs = case
        params = UdsnParams(tau=max(1, g.n // 2), T=1)
        session = UdsnSession(g, params, seed=seed)
        for s, t in pairs:
            session.serve(s, t)
        out = session.output_graph()
        assert session.output.edges <= g.edges
        for s, t in pairs:
            assert t in reachable_set(out, s)
        assert session.total_route_cost >= len(session.output)
        assert len(session.records) == len(pairs)

    @given(digraph_with_pairs(), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_thin_violations_match_two_bfs_sweeps(self, case, tau, seed):
        # The session counts the between set on the condensation's DAG.
        g, pairs = case
        session = UdsnSession(g, UdsnParams(tau=tau, T=0, sample_constant=0.1), seed=seed)
        for s, t in pairs:
            record = session.serve(s, t)
            thick = record.route == THIN and not bfs_is_thin(g, s, t, tau)
            assert record.thin_violation == thick
        assert g._closure == [None, None] or g is session.condensation.dag

    @pytest.mark.parametrize("seed", range(12))
    def test_batch_insertion_matches_the_per_edge_session(self, seed):
        rng = random.Random(seed)
        g = ringed_digraph(rng)
        params = UdsnParams(tau=rng.choice((2, 4, g.n // 3)), T=rng.randint(1, 4), sample_constant=1.0)
        session, reference = UdsnSession(g, params, seed=seed), per_edge_session(g, params, seed)
        for _ in range(3 * g.n):
            s = rng.randrange(g.n)
            t = rng.choice(sorted(reachable_set(g, s)))
            assert session.serve(s, t) == reference.serve(s, t)
        assert session.records == reference.records
        assert session.output.edges == reference.output.edges
        for s in range(g.n):
            for t in range(g.n):
                assert session.output.reaches(s, t) == reference.output.reaches(s, t)
        assert max(map(len, condense(g).components)) >= 5
        assert any(r.route == HIT for r in session.records)


@dataclass(frozen=True)
class DataclassUdsnRecord:
    """``UdsnRecord`` as it was, a frozen dataclass. Kept as the reference."""

    index: int
    pair: tuple[int, int]
    route: str
    via: int | None
    edges_added: int
    thin_violation: bool = False


def reference_run(g: DirectedGraph, params: UdsnParams, seed: int, pairs) -> UdsnSession:
    """A session served with the dataclass records and the dict-and-deque
    route search: the serve path as it was before both changed."""
    with mock.patch.object(udsn, "UdsnRecord", DataclassUdsnRecord), mock.patch.object(
        udsn, "bfs_route", parent_bfs_route
    ):
        session = UdsnSession(g, params, seed=seed)
        for s, t in pairs:
            session.serve(s, t)
    return session


def golden_cyc_cases():
    golden = Path(__file__).resolve().parent / "golden"
    g = load_graph((golden / "cyc.txt").read_text())
    pairs = parse_pairs((golden / "cyc-pairs.txt").read_text())
    # the golden stream, then every feasible pair once in a seeded order
    rest = [(s, t) for s in range(g.n) for t in sorted(reachable_set(g, s)) if s != t]
    for seed in range(8):
        random.Random(seed).shuffle(rest)
        for T in range(4):
            # one to a few relays
            params = UdsnParams(tau=(2, 5, 12)[seed % 3], T=T, sample_constant=(0.05, 0.2, 1.0)[T % 3])
            yield g, params, seed, pairs + rest


def ringed_cases():
    for seed in range(10):
        rng = random.Random(seed)
        g = ringed_digraph(rng)
        pairs = []
        for _ in range(2 * g.n):
            s = rng.randrange(g.n)
            pairs.append((s, rng.choice(sorted(reachable_set(g, s)))))
        params = UdsnParams(tau=rng.choice((2, 4, 8)), T=rng.randint(0, 3), sample_constant=0.1)
        yield g, params, seed, pairs


class TestUdsnRecord:
    def test_fields_default_and_keywords(self):
        assert UdsnRecord._fields == (
            "index", "pair", "route", "via", "edges_added", "thin_violation"
        )
        assert UdsnRecord._field_defaults == {"thin_violation": False}
        record = UdsnRecord(index=3, pair=(1, 2), route=HIT, via=5, edges_added=4)
        assert record == UdsnRecord(3, (1, 2), HIT, 5, 4, False)
        assert record.thin_violation is False
        assert record._asdict() == {
            "index": 3, "pair": (1, 2), "route": HIT, "via": 5, "edges_added": 4,
            "thin_violation": False,
        }

    def test_immutable(self):
        record = UdsnRecord(0, (0, 1), TRIVIAL, None, 0)
        with pytest.raises(AttributeError):
            record.route = HIT
        with pytest.raises(FrozenInstanceError):  # the reference refuses too
            DataclassUdsnRecord(0, (0, 1), TRIVIAL, None, 0).route = HIT

    def test_records_and_summary_match_the_dataclass_session(self):
        routes, violations = set(), 0
        for g, params, seed, pairs in [*golden_cyc_cases(), *ringed_cases()]:
            session = UdsnSession(g, params, seed=seed)
            for s, t in pairs:
                session.serve(s, t)
            reference = reference_run(g, params, seed, pairs)
            assert len(session.records) == len(reference.records) == len(pairs)
            for got, want in zip(session.records, reference.records):
                assert type(got) is UdsnRecord and type(want) is DataclassUdsnRecord
                for name in UdsnRecord._fields:
                    assert getattr(got, name) == getattr(want, name)
                    assert type(getattr(got, name)) is type(getattr(want, name))
            assert session.summary() == reference.summary()
            assert session.output.edges == reference.output.edges
            routes |= {r.route for r in session.records}
            violations += len(session.sampling_failures)
        assert routes == {TRIVIAL, FIRST_T, HIT, THIN}  # thin ones from the ringed graphs
        assert violations > 0
