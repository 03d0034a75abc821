"""Online unit-cost directed Steiner network simulation.

Demand pairs arrive one at a time and every served pair must stay
connected by the grown output subgraph forever after. Routing splits
into four cases: pairs already connected by the current output are
free; the first T nontrivial pairs take a fewest-edges route; later
pairs that pass through a sampled relay vertex are served as two
preserver legs meeting at the smallest such relay; the rest are
checked to be tau-thin and take a fewest-edges route too.

The two relay legs share one condensation of the input graph and keep
their sink side (forwards leg) or source side (backwards leg) inside
the sample, which is what the leg size envelopes key on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasiblePairError, ParameterError, check_count, check_finite_positive
from .graphs import (
    Condensation,
    DirectedGraph,
    Edge,
    IncrementalClosure,
    bfs_parents,
    check_vertices,
    condense,
    iter_bits,
    reachable_set,  # unused here; perfbench/tracing.py wraps this binding
)
from .preserver import CondensingPreserver, GrowthMode
from .seeding import rng_for

Pair = tuple[int, int]

TRIVIAL = "trivial"
FIRST_T = "firstT"
HIT = "hit"
THIN = "thin"


@dataclass(frozen=True)
class UdsnParams:
    tau: int
    T: int
    sample_constant: float = 2.0

    def __post_init__(self) -> None:
        check_count("tau", self.tau)
        if type(self.T) is not int or self.T < 0:  # the sample waits for exactly T first-T routes
            raise ParameterError(f"T must be an integer >= 0, got {self.T!r}")
        check_finite_positive("sample_constant", self.sample_constant)

    @staticmethod
    def defaults_for(n: int) -> UdsnParams:
        check_count("n", n)
        return UdsnParams(tau=math.ceil(n**0.6), T=math.ceil(n**1.2))

    def sample_size(self, n: int) -> int:
        if n < 2:
            return n
        # Compared before ceil: a huge constant makes the float infinite.
        raw = self.sample_constant * n * math.log(n) / self.tau
        return n if raw >= n else math.ceil(raw)


def _between(cond: Condensation, s: int, t: int) -> int:
    """Bitset of the components on some s-to-t path of ``cond.graph``. A
    vertex lies on such a path exactly when its component does on the
    condensation's DAG, so this reads that DAG's closure."""
    comp = cond.component_of
    return cond.dag.reach_mask(comp[s]) & cond.dag.reach_mask(comp[t], reverse=True)


def is_thin(cond: Condensation, s: int, t: int, tau: int) -> bool:
    """True when at most tau vertices lie on some s-to-t path of
    ``cond.graph``: the members of the components ``_between`` holds."""
    check_count("tau", tau)
    check_vertices(cond.graph.n, s, t)
    members = cond.components
    return sum(len(members[c]) for c in iter_bits(_between(cond, s, t))) <= tau


def hit_by(cond: Condensation, s: int, t: int, sample: tuple[int, ...]) -> int | None:
    """First sampled vertex on some s-to-t path of ``cond.graph``, or None."""
    n = cond.graph.n
    check_vertices(n, s, t)
    comp, between = cond.component_of, _between(cond, s, t)
    for v in sample:
        if 0 <= v < n and between >> comp[v] & 1:
            return v
    return None


def bfs_route(g: DirectedGraph, s: int, t: int) -> tuple[Edge, ...]:
    """Fewest-edges route, smallest-head tie-break. It stands in for a
    real low-cost router, so the ratios it yields are not certified."""
    check_vertices(g.n, s, t)
    parent = bfs_parents(g._out, (s,), goal=t)
    if parent[t] < 0:
        raise InfeasiblePairError(f"{t} is not reachable from {s}")
    edges = []
    v = t
    while v != s:
        edges.append((parent[v], v))
        v = parent[v]
    return tuple(reversed(edges))


class UdsnRecord(NamedTuple):  # a tuple, as PairRecord: a trivial route builds just one
    index: int
    pair: Pair
    route: str
    via: int | None
    edges_added: int
    thin_violation: bool = False


class UdsnSession:
    """Serves a demand stream over a fixed digraph, growing one output
    edge set that is never shrunk."""

    def __init__(
        self, g: DirectedGraph, params: UdsnParams | None = None, seed: int = 0
    ) -> None:
        self.g = g
        self.params = params if params is not None else UdsnParams.defaults_for(g.n)
        self.seed = seed
        self.condensation: Condensation = condense(g)
        self.fw_leg = CondensingPreserver(g, GrowthMode.FORWARDS, self.condensation)
        self.bw_leg = CondensingPreserver(g, GrowthMode.BACKWARDS, self.condensation)
        self.output = IncrementalClosure(g.n)
        self.records: list[UdsnRecord] = []
        self.nontrivial_count = 0
        self.sample: tuple[int, ...] | None = None
        if self.params.T == 0:
            self._draw_sample()

    def _draw_sample(self) -> None:
        rng = rng_for(self.seed, "udsn-sample")
        size = self.params.sample_size(self.g.n)
        self.sample = tuple(sorted(rng.sample(range(self.g.n), size)))

    @property
    def sampling_failures(self) -> list[UdsnRecord]:
        return [r for r in self.records if r.thin_violation]

    def serve(self, s: int, t: int) -> UdsnRecord:
        index = len(self.records)
        # reaches checks that s and t are vertices before anything changes.
        if self.output.reaches(s, t):
            record = UdsnRecord(index, (s, t), TRIVIAL, None, 0)
            self.records.append(record)
            return record

        via = None
        violation = False
        if self.nontrivial_count < self.params.T:
            route, edges = FIRST_T, bfs_route(self.g, s, t)
        else:
            assert self.sample is not None
            via = hit_by(self.condensation, s, t, self.sample)
            if via is not None:
                route = HIT
                edges = self.fw_leg.serve_pair(s, via) + self.bw_leg.serve_pair(via, t)
            else:
                route = THIN
                violation = not is_thin(self.condensation, s, t, self.params.tau)
                edges = bfs_route(self.g, s, t)
        added = self.output.add_all(edges)
        # A hit's cost stays the legs' count: manifests hash it (ROADMAP: UDSN route cost).
        cost = len(edges) if route == HIT else added
        # The phase counter moves only once the route succeeded.
        self.nontrivial_count += 1
        record = UdsnRecord(index, (s, t), route, via, cost, thin_violation=violation)
        self.records.append(record)
        if self.nontrivial_count == self.params.T:
            self._draw_sample()
        return record

    def output_graph(self) -> DirectedGraph:
        return self.output.to_graph()

    @property
    def total_route_cost(self) -> int:
        return sum(r.edges_added for r in self.records)

    @property
    def opt_lower_bound(self) -> int:
        nontrivial = [r for r in self.records if r.route != TRIVIAL]
        terminals = {v for r in nontrivial for v in r.pair}
        p_hit = sum(r.route == HIT for r in nontrivial)
        bounds = [
            math.ceil(len(terminals) / 2),
            math.ceil(math.sqrt(self.nontrivial_count) / 2),
        ]
        if self.sample:
            bounds.append(math.ceil(p_hit / (2 * len(self.sample))))
        return max(bounds)

    def leg_reports(self) -> dict[str, dict[str, int]]:
        return {
            name: {"pairs": leg.pairs_served, "h_size": leg.h_size, "z_size": leg.z_size}
            for name, leg in (("fw", self.fw_leg), ("bw", self.bw_leg))
        }

    def summary(self) -> dict[str, object]:
        profile = {route: 0 for route in (TRIVIAL, FIRST_T, HIT, THIN)}
        for r in self.records:
            profile[r.route] += 1
        lb = self.opt_lower_bound
        out_edges = len(self.output)
        # "handler_profile" and "ratio_certified" keep their names and
        # values because recorded udsn manifests hash the summary.
        return {
            "n": self.g.n,
            "tau": self.params.tau,
            "T": self.params.T,
            "sample": list(self.sample) if self.sample is not None else None,
            "pairs_served": len(self.records),
            "nontrivial": self.nontrivial_count,
            "handler_profile": profile,
            "output_edges": out_edges,
            "total_route_cost": self.total_route_cost,
            "opt_lower_bound": lb,
            "ratio": (out_edges / lb) if lb > 0 else None,
            "ratio_certified": False,
            "sampling_failures": len(self.sampling_failures),
        }
