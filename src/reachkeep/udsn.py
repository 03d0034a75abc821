"""Online unit-cost directed Steiner network simulation.

Demand pairs arrive one at a time and every served pair must stay
connected by the grown output subgraph forever after. Routing splits
into four cases: pairs already connected by the current output are
free; the first T nontrivial pairs go to a pluggable handler; later
pairs that pass through a sampled relay vertex are served as two
preserver legs meeting at the smallest such relay; the rest are
checked to be tau-thin and sent to a second pluggable handler.

The two relay legs share one condensation of the input graph and keep
their sink side (forwards leg) or source side (backwards leg) inside
the sample, which is what the leg size envelopes key on.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import BoundsError, InfeasiblePairError, ParameterError
from .graphs import Condensation, DirectedGraph, Edge, condense, reachable_set, reaches
from .preserver import CondensingPreserver, EdgeStore, GrowthMode
from .seeding import rng_for

Pair = tuple[int, int]
Handler = Callable[[DirectedGraph, int, int], tuple[Edge, ...]]

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
        if self.tau < 1:
            raise ParameterError(f"tau must be >= 1, got {self.tau}")
        if self.T < 0:
            raise ParameterError(f"T must be >= 0, got {self.T}")
        if self.sample_constant <= 0:
            raise ParameterError(
                f"sample_constant must be positive, got {self.sample_constant}"
            )

    @staticmethod
    def defaults_for(n: int) -> UdsnParams:
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        return UdsnParams(tau=math.ceil(n**0.6), T=math.ceil(n**1.2))

    def sample_size(self, n: int) -> int:
        if n < 2:
            return n
        raw = math.ceil(self.sample_constant * n * math.log(n) / self.tau)
        return min(n, raw)


def is_thin(g: DirectedGraph, s: int, t: int, tau: int) -> bool:
    """True when at most tau vertices lie on some path from s to t."""
    if tau < 1:
        raise ParameterError(f"tau must be >= 1, got {tau}")
    between = reachable_set(g, s) & reachable_set(g, t, reverse=True)
    return len(between) <= tau


def hit_by(g: DirectedGraph, s: int, t: int, sample: tuple[int, ...]) -> int | None:
    """Smallest sampled vertex on some s-to-t path, or None."""
    forward = reachable_set(g, s)
    backward = reachable_set(g, t, reverse=True)
    for v in sample:
        if v in forward and v in backward:
            return v
    return None


def bfs_route(g: DirectedGraph, s: int, t: int) -> tuple[Edge, ...]:
    """Fewest-edges route, smallest-head tie-break. Placeholder for a
    real low-cost handler; results that lean on it are not certified."""
    if not 0 <= s < g.n or not 0 <= t < g.n:
        raise BoundsError(f"pair ({s}, {t}) out of range for n={g.n}")
    if s == t:
        return ()
    parent: dict[int, int] = {s: s}
    frontier = [s]
    while frontier and t not in parent:
        nxt = []
        for u in frontier:
            for v in g.out_neighbors(u):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if t not in parent:
        raise InfeasiblePairError(f"{t} is not reachable from {s}")
    edges = []
    v = t
    while v != s:
        edges.append((parent[v], v))
        v = parent[v]
    return tuple(reversed(edges))


def default_handlers() -> dict[str, Handler]:
    return {FIRST_T: bfs_route, THIN: bfs_route}


@dataclass(frozen=True)
class UdsnRecord:
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
        self,
        g: DirectedGraph,
        params: UdsnParams | None = None,
        seed: int = 0,
        handlers: dict[str, Handler] | None = None,
        handlers_certified: bool = False,
    ) -> None:
        self.g = g
        self.params = params if params is not None else UdsnParams.defaults_for(g.n)
        self.seed = seed
        self.handlers = handlers if handlers is not None else default_handlers()
        self.handlers_certified = handlers_certified
        for key in (FIRST_T, THIN):
            if key not in self.handlers:
                raise ParameterError(f"missing handler for route {key!r}")
        self.condensation: Condensation = condense(g)
        self.fw_leg = CondensingPreserver(g, GrowthMode.FORWARDS, self.condensation)
        self.bw_leg = CondensingPreserver(g, GrowthMode.BACKWARDS, self.condensation)
        self.output = EdgeStore(g.n)
        self.records: list[UdsnRecord] = []
        self.sampling_failures: list[UdsnRecord] = []
        self.nontrivial_count = 0
        self.sample: tuple[int, ...] | None = None
        if self.params.T == 0:
            self._draw_sample()

    def _draw_sample(self) -> None:
        rng = rng_for(self.seed, "udsn-sample")
        size = self.params.sample_size(self.g.n)
        self.sample = tuple(sorted(rng.sample(range(self.g.n), size)))

    def _apply_handler(self, route: str, s: int, t: int) -> int:
        edges = self.handlers[route](self.g, s, t)
        for e in edges:
            if e not in self.g.edges:
                raise ParameterError(f"handler for {route!r} returned edge {e} not in graph")
        added = 0
        for e in edges:
            if self.output.add(e):
                added += 1
        if not reaches(self.output, s, t):
            raise ParameterError(f"handler for {route!r} failed to connect ({s}, {t})")
        return added

    def serve(self, s: int, t: int) -> UdsnRecord:
        if not 0 <= s < self.g.n or not 0 <= t < self.g.n:
            raise BoundsError(f"pair ({s}, {t}) out of range for n={self.g.n}")
        index = len(self.records)
        if reaches(self.output, s, t):
            record = UdsnRecord(index, (s, t), TRIVIAL, None, 0)
            self.records.append(record)
            return record

        # A serve that raises must leave the phase counter alone, so the
        # counter moves only after the route succeeded.
        if self.nontrivial_count < self.params.T:
            added = self._apply_handler(FIRST_T, s, t)
            self.nontrivial_count += 1
            record = UdsnRecord(index, (s, t), FIRST_T, None, added)
            self.records.append(record)
            if self.nontrivial_count == self.params.T:
                self._draw_sample()
            return record

        assert self.sample is not None
        v = hit_by(self.g, s, t, self.sample)
        if v is not None:
            fw_new = self.fw_leg.serve_pair(s, v)
            bw_new = self.bw_leg.serve_pair(v, t)
            for e in fw_new + bw_new:
                self.output.add(e)
            self.nontrivial_count += 1
            record = UdsnRecord(index, (s, t), HIT, v, len(fw_new) + len(bw_new))
            self.records.append(record)
            return record

        violation = not is_thin(self.g, s, t, self.params.tau)
        added = self._apply_handler(THIN, s, t)
        self.nontrivial_count += 1
        record = UdsnRecord(index, (s, t), THIN, None, added, thin_violation=violation)
        self.records.append(record)
        if violation:
            self.sampling_failures.append(record)
        return record

    def output_graph(self) -> DirectedGraph:
        return self.output.to_graph()

    @property
    def total_route_cost(self) -> int:
        return sum(r.edges_added for r in self.records)

    @property
    def opt_lower_bound(self) -> int:
        terminals: set[int] = set()
        p_hit = 0
        for r in self.records:
            if r.route == TRIVIAL:
                continue
            terminals.update(r.pair)
            if r.route == HIT:
                p_hit += 1
        bounds = [
            math.ceil(len(terminals) / 2),
            math.ceil(math.sqrt(self.nontrivial_count) / 2),
        ]
        if self.sample:
            bounds.append(math.ceil(p_hit / (2 * len(self.sample))))
        return max(bounds)

    def leg_reports(self) -> dict[str, dict[str, int]]:
        return {
            "fw": {
                "pairs": self.fw_leg.pairs_served,
                "h_size": self.fw_leg.h_size,
                "z_size": self.fw_leg.z_size,
            },
            "bw": {
                "pairs": self.bw_leg.pairs_served,
                "h_size": self.bw_leg.h_size,
                "z_size": self.bw_leg.z_size,
            },
        }

    def summary(self) -> dict[str, object]:
        profile = {route: 0 for route in (TRIVIAL, FIRST_T, HIT, THIN)}
        for r in self.records:
            profile[r.route] += 1
        lb = self.opt_lower_bound
        out_edges = len(self.output)
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
            "ratio_certified": self.handlers_certified,
            "sampling_failures": len(self.sampling_failures),
        }
