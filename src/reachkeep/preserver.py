"""Online growth of sparse reachability preservers.

Pairs arrive one at a time and every edge added is kept forever. Each
pair is answered with a path grown greedily: forwards growth extends
from the source and prefers edges already in the preserver whose head
still reaches the sink, backwards growth mirrors this from the sink.
Alongside the preserver the session records one auxiliary path per
pair (the tails of the new edges plus the sink under forwards growth,
the source plus the heads of the new edges under backwards growth).
The auxiliary system is what the verification machinery audits: it
stays acyclic, its size equals the edge count plus the pair count, and
it never contains a bridge whose constrained arc precedes its river.
"""

from __future__ import annotations

import enum
import math
from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import (
    BoundsError,
    CyclicGraphError,
    InfeasiblePairError,
    ParameterError,
)
from .graphs import Condensation, DirectedGraph, Edge, condense, lift_edge, reachable_set
from .pathsystem import (
    BridgeWitness,
    OrderConstraint,
    PathSystem,
    find_k_bridge,
    is_acyclic,
)

Pair = tuple[int, int]


class GrowthMode(enum.Enum):
    FORWARDS = "fw"
    BACKWARDS = "bw"

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"unknown growth mode {value!r}")

    @property
    def constraint(self) -> OrderConstraint:
        if self is GrowthMode.FORWARDS:
            return OrderConstraint.FIRST_ARC_BEFORE_RIVER
        return OrderConstraint.LAST_ARC_BEFORE_RIVER

    @property
    def grow(self):
        """The growth rule of this mode, ``grow_forwards`` or
        ``grow_backwards``, looked up in this module at call time."""
        return grow_forwards if self is GrowthMode.FORWARDS else grow_backwards


class EdgeStore:
    """Mutable edge set with sorted adjacency, grown one edge at a time."""

    __slots__ = ("n", "edges", "_out", "_in")

    def __init__(self, n: int):
        self.n = n
        self.edges: set[Edge] = set()
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}

    def add(self, edge: Edge) -> bool:
        if edge in self.edges:
            return False
        u, v = edge
        self.edges.add(edge)
        insort(self._out.setdefault(u, []), v)
        insort(self._in.setdefault(v, []), u)
        return True

    def out_neighbors(self, u: int) -> list[int]:
        return self._out.get(u, [])

    def in_neighbors(self, v: int) -> list[int]:
        return self._in.get(v, [])

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def to_graph(self) -> DirectedGraph:
        return DirectedGraph(self.n, self.edges)


def _require_dag(g: DirectedGraph) -> None:
    if not g.is_dag:
        raise CyclicGraphError("growth requires a DAG input")


def _check_pair(g: DirectedGraph, s: int, t: int) -> None:
    for v in (s, t):
        if not (0 <= v < g.n):
            raise BoundsError(f"vertex {v} outside range 0..{g.n - 1}")


def _walk(start: int, goal: int, member, h_step, g_step) -> list[int]:
    """Greedy walk from start to goal through member: each step takes the
    first h_step neighbour in member, else the first g_step one."""
    path = [start]
    u = start
    while u != goal:
        nxt = None
        for v in h_step(u):
            if v in member:
                nxt = v
                break
        if nxt is None:
            for v in g_step(u):
                if v in member:
                    nxt = v
                    break
        assert nxt is not None, "stuck despite reachability"
        path.append(nxt)
        u = nxt
    return path


def grow_forwards(g: DirectedGraph, h, s: int, t: int) -> tuple[int, ...]:
    """Path from s to t in the DAG g. At each step an edge already in h
    whose head still reaches t wins; otherwise any g edge does. Ties go
    to the smallest head id. h must be a subgraph of g."""
    _require_dag(g)
    _check_pair(g, s, t)
    member = reachable_set(g, t, reverse=True)
    if s not in member:
        raise InfeasiblePairError(f"{t} not reachable from {s}")
    return tuple(_walk(s, t, member, h.out_neighbors, g.out_neighbors))


def grow_backwards(g: DirectedGraph, h, s: int, t: int) -> tuple[int, ...]:
    """Mirror of grow_forwards, extending from t towards s and
    preferring h edges whose tail s already reaches."""
    _require_dag(g)
    _check_pair(g, s, t)
    member = reachable_set(g, s)
    if t not in member:
        raise InfeasiblePairError(f"{t} not reachable from {s}")
    path = _walk(t, s, member, h.in_neighbors, g.in_neighbors)
    path.reverse()
    return tuple(path)


def unreachable_pairs(g: DirectedGraph, pairs: Iterable[Pair]) -> list[Pair]:
    """The pairs (s, t) whose t is not reachable from s in g, in input
    order, with one reachability sweep per distinct source."""
    reach: dict[int, frozenset[int]] = {}
    bad = []
    for s, t in pairs:
        if s not in reach:
            reach[s] = reachable_set(g, s)
        if t not in reach[s]:
            bad.append((s, t))
    return bad


@dataclass(frozen=True)
class PairRecord:
    pair: Pair
    path: tuple[int, ...]
    new_edges: tuple[Edge, ...]
    h_size: int
    z_size: int


class PreserverSession:
    """Irrevocable online session over a DAG."""

    def __init__(self, g: DirectedGraph, mode: GrowthMode | str = GrowthMode.FORWARDS):
        _require_dag(g)
        self.g = g
        self.mode = GrowthMode(mode)
        self.h = EdgeStore(g.n)
        self.z_paths: list[tuple[int, ...]] = []
        self._z_size = 0
        self.log: list[PairRecord] = []
        self.pairs_served = 0
        self.sources_seen: set[int] = set()
        self.sinks_seen: set[int] = set()

    @property
    def h_size(self) -> int:
        return len(self.h)

    @property
    def z_size(self) -> int:
        return self._z_size

    def _choose_path(self, s: int, t: int) -> tuple[int, ...]:
        return self.mode.grow(self.g, self.h, s, t)

    def serve_pair(self, s: int, t: int) -> tuple[Edge, ...]:
        """Serve one demand pair. Raises without touching any state
        when the pair is infeasible; otherwise adds the chosen path's
        missing edges to the preserver and appends one auxiliary path."""
        path = self._choose_path(s, t)
        new: list[Edge] = []
        for u, v in zip(path, path[1:]):
            if (u, v) not in self.h:
                new.append((u, v))
        for e in new:
            self.h.add(e)
        if self.mode is GrowthMode.FORWARDS:
            z_path = tuple(u for u, _ in new) + (t,)
        else:
            z_path = (s,) + tuple(v for _, v in new)
        self.z_paths.append(z_path)
        self._z_size += len(z_path)
        self.pairs_served += 1
        self.sources_seen.add(s)
        self.sinks_seen.add(t)
        self.log.append(
            PairRecord(
                pair=(s, t),
                path=path,
                new_edges=tuple(new),
                h_size=self.h_size,
                z_size=self.z_size,
            )
        )
        return tuple(new)

    def h_graph(self) -> DirectedGraph:
        return self.h.to_graph()

    def z_system(self) -> PathSystem:
        return PathSystem(self.g.n, tuple(self.z_paths))

    @property
    def restricted_side_size(self) -> int:
        """Measured size of the shared-terminal side: distinct sinks
        under forwards growth, distinct sources under backwards."""
        if self.mode is GrowthMode.FORWARDS:
            return len(self.sinks_seen)
        return len(self.sources_seen)


@dataclass
class SessionReport:
    acyclic: bool
    size_ok: bool
    expected_size: int
    actual_size: int
    bridges: dict[int, BridgeWitness | None]
    unreachable_pairs: list[Pair] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.acyclic
            and self.size_ok
            and all(w is None for w in self.bridges.values())
            and not self.unreachable_pairs
        )

    def describe(self) -> str:
        if self.ok:
            return "session audit clean"
        problems = []
        if not self.acyclic:
            problems.append("auxiliary system is cyclic")
        if not self.size_ok:
            problems.append(
                f"size identity broken: {self.actual_size} != {self.expected_size}"
            )
        for k, w in sorted(self.bridges.items()):
            if w is not None:
                problems.append(f"{k}-bridge found: {w}")
        if self.unreachable_pairs:
            problems.append(f"pairs not preserved: {self.unreachable_pairs}")
        return "; ".join(problems)


def verify_session(session: PreserverSession, ks: tuple[int, ...] = (2, 3, 4)) -> SessionReport:
    """Full audit of a finished session: auxiliary system acyclic, size
    identity exact, no mode-constrained bridge for each k, and every
    served pair reachable in the preserver. Violations are reported
    with witnesses instead of raised."""
    z = session.z_system()
    acyclic, _ = is_acyclic(z)
    expected = session.h_size + session.pairs_served
    actual = z.size()
    bridges = {
        k: find_k_bridge(z, k, session.mode.constraint) for k in ks
    }
    unreachable = unreachable_pairs(session.h_graph(), (rec.pair for rec in session.log))
    return SessionReport(
        acyclic=acyclic,
        size_ok=(expected == actual),
        expected_size=expected,
        actual_size=actual,
        bridges=bridges,
        unreachable_pairs=unreachable,
    )


def size_envelope_source_restricted(
    n: int, p: int, sigma: int, constant: float = 16.0
) -> float:
    """Edge budget for sessions whose pairs share one side among sigma
    terminals: constant * (sqrt(n * p * sigma) + n)."""
    for name, value in (("n", n), ("p", p), ("sigma", sigma)):
        if int(value) != value or value < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {value}")
    if constant <= 0:
        raise ParameterError(f"constant must be positive, got {constant}")
    return constant * (math.sqrt(n * p * sigma) + n)


class CondensingPreserver:
    """Public session for arbitrary digraphs.

    Strong components are collapsed once up front. Pairs are served on
    the component DAG; chosen DAG edges are lifted back to single
    original edges, and the first time a component appears on a chosen
    path its internal in/out trees are added so the lift is walkable.
    """

    def __init__(
        self,
        g: DirectedGraph,
        mode: GrowthMode | str = GrowthMode.FORWARDS,
        condensation: Condensation | None = None,
    ):
        self.g = g
        self.cond = condensation if condensation is not None else condense(g)
        self.inner = PreserverSession(self.cond.dag, mode)
        self.output_edges: set[Edge] = set()
        self._touched: set[int] = set()
        self.log: list[Pair] = []

    @property
    def mode(self) -> GrowthMode:
        return self.inner.mode

    @property
    def h_size(self) -> int:
        return len(self.output_edges)

    @property
    def z_size(self) -> int:
        return self.inner.z_size

    @property
    def pairs_served(self) -> int:
        return self.inner.pairs_served

    def serve_pair(self, s: int, t: int) -> tuple[Edge, ...]:
        for v in (s, t):
            if not (0 <= v < self.g.n):
                raise BoundsError(f"vertex {v} outside range 0..{self.g.n - 1}")
        cs = self.cond.component_of[s]
        ct = self.cond.component_of[t]
        try:
            new_dag_edges = self.inner.serve_pair(cs, ct)
        except InfeasiblePairError:
            raise InfeasiblePairError(f"{t} not reachable from {s}") from None
        added: list[Edge] = []
        comp_path = self.inner.log[-1].path
        for comp in comp_path:
            if comp in self._touched:
                continue
            self._touched.add(comp)
            for e in sorted(self.cond.tree_edges_of(comp)):
                if e not in self.output_edges:
                    self.output_edges.add(e)
                    added.append(e)
        for de in new_dag_edges:
            e = lift_edge(self.cond, de)
            if e not in self.output_edges:
                self.output_edges.add(e)
                added.append(e)
        self.log.append((s, t))
        return tuple(added)

    def output_graph(self) -> DirectedGraph:
        return DirectedGraph(self.g.n, self.output_edges)
