"""Online growth of sparse reachability preservers.

Pairs arrive one at a time and every edge added is kept forever. Each
pair is answered with a path grown greedily: forwards growth extends
from the source and prefers edges already in the preserver whose head
still reaches the sink, backwards growth mirrors this from the sink.
On a digraph with cycles the preserver grows on the DAG of strong
components and is lifted back to original edges. The session logs
one record per pair, and everything else it reports is read from that
log: the output edge set, and one auxiliary path per pair (the tails
of the new edges plus the sink under forwards growth, the source plus
the heads of the new edges under backwards growth). The auxiliary
system is what the verification machinery audits: it stays acyclic,
its size equals the DAG edge count plus the pair count, and it never
contains a bridge whose constrained arc precedes its river.
"""

from __future__ import annotations

import enum
import math
from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    BoundsError,
    CyclicGraphError,
    InfeasiblePairError,
    ParameterError,
    check_count,
    check_finite_positive,
)
from .graphs import (
    Condensation,
    DirectedGraph,
    Edge,
    check_vertices,
    condense,
    reachable_set,  # unused here; perfbench/tracing.py wraps this binding
)
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
    """Mutable edge set with sorted adjacency, grown one edge at a time.
    A self-loop or an edge leaving 0..n-1 is rejected."""

    __slots__ = ("n", "edges", "_out", "_in")

    def __init__(self, n: int):
        self.n = n
        self.edges: set[Edge] = set()
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}

    def add(self, edge: Edge) -> bool:
        if edge in self.edges and type(edge[0]) is int and type(edge[1]) is int:
            return False
        u, v = edge
        n = self.n
        if type(u) is not int or type(v) is not int or u == v or not (0 <= u < n and 0 <= v < n):
            raise BoundsError(f"edge ({u!r}, {v!r}) is a self-loop or outside 0..{n - 1}")
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


def _walk(start: int, goal: int, member: int, h_adj, g_adj, taken: list[Edge]) -> list[int]:
    """Greedy walk from start to goal through the vertices whose bit is
    set in member: each step takes the first such h_adj neighbour, else
    the first such g_adj one, and a step (u, v) of the second kind is
    appended to taken. h_adj is a dict that may lack a vertex, g_adj
    holds every vertex; neither is range checked, since every vertex
    visited is a bit of member."""
    path = [start]
    u = start
    while u != goal:
        for v in h_adj.get(u, ()):
            if member >> v & 1:
                break
        else:
            for v in g_adj[u]:
                if member >> v & 1:
                    taken.append((u, v))
                    break
            else:
                raise AssertionError("stuck despite reachability")
        path.append(v)
        u = v
    return path


def _grow(
    g: DirectedGraph, h: EdgeStore, s: int, t: int, new: list[Edge] | None, backwards: bool
) -> tuple[int, ...]:
    """grow_forwards, or grow_backwards when backwards. The DAG test
    reads the cached topological order once there is one, and
    check_vertices runs only once the inline range test has failed."""
    if not g._topo and not g.is_dag:
        raise CyclicGraphError("growth requires a DAG input")
    n = g.n
    if not (0 <= s < n and 0 <= t < n):
        check_vertices(n, s, t)
    member = g.reach_mask(s) if backwards else g.reach_mask(t, reverse=True)
    if not member >> (t if backwards else s) & 1:
        raise InfeasiblePairError(f"{t} not reachable from {s}")
    if not backwards:
        return tuple(_walk(s, t, member, h._out, g._out, [] if new is None else new))
    taken: list[Edge] = []
    path = _walk(t, s, member, h._in, g._in, taken)
    path.reverse()
    if new is not None:
        new.extend([(u, v) for v, u in reversed(taken)])
    return tuple(path)


def grow_forwards(
    g: DirectedGraph, h: EdgeStore, s: int, t: int, new: list[Edge] | None = None
) -> tuple[int, ...]:
    """Path from s to t in the DAG g. At each step an edge already in h
    whose head still reaches t wins; otherwise any g edge does. Ties go
    to the smallest head id. h must be a subgraph of g. The steps taken
    along a g edge are exactly the path's edges missing from h, since an
    h edge wins whenever one exists; they are appended to new, when
    given, in path order. Raises CyclicGraphError when g has a cycle,
    then BoundsError for an endpoint outside g, then
    InfeasiblePairError, and leaves new as it was on each."""
    return _grow(g, h, s, t, new, False)


def grow_backwards(
    g: DirectedGraph, h: EdgeStore, s: int, t: int, new: list[Edge] | None = None
) -> tuple[int, ...]:
    """Mirror of grow_forwards, extending from t towards s and
    preferring h edges whose tail s already reaches. The edges missing
    from h go to new, when given, in path order too; the errors are
    those of grow_forwards."""
    return _grow(g, h, s, t, new, True)


def unreachable_pairs(g: DirectedGraph, pairs: Iterable[Pair]) -> list[Pair]:
    """The pairs (s, t) whose t is not reachable from s in g, in input
    order. g may be cyclic, as the CLI's output graphs can be: each pair
    is one bit of g's forward closure (``reach_mask``). A source outside
    g raises BoundsError; a sink outside g is reported as unreachable."""
    bad = []
    for s, t in pairs:
        mask = g.reach_mask(s)
        if not (0 <= t < g.n and mask >> t & 1):
            bad.append((s, t))
    return bad


class PairRecord(NamedTuple):
    """One served pair: the demand as given, on input vertex ids; its
    grown path and the H edges it added, on component ids; and the
    output edges it added, trees included, on input vertex ids."""

    pair: Pair
    path: tuple[int, ...]
    new_edges: tuple[Edge, ...]
    added: tuple[Edge, ...]


class CondensingPreserver:
    """Irrevocable online session over any digraph.

    Strong components are collapsed once up front, and H grows on the
    component DAG, where the auxiliary paths live too. Each grown path
    is lifted to the output: every new DAG edge becomes one original
    edge, and the first path through a component adds its internal
    in/out trees so the lift is walkable. On a DAG, which is its own
    condensation, there are no trees and the lift is the identity, so
    neither is looked at.

    Serving a pair writes only H, the components still pending trees
    and one ``PairRecord`` in ``log``. The output edges, the auxiliary
    paths and their sizes are read-only views of the log.
    """

    def __init__(
        self,
        g: DirectedGraph,
        mode: GrowthMode | str = GrowthMode.FORWARDS,
        condensation: Condensation | None = None,
    ):
        if condensation is None:
            condensation = condense(g)
        elif not (condensation.graph is g or condensation.graph == g):
            raise ParameterError("condensation is of another graph")
        self.g = g
        self.cond = condensation
        self.dag = condensation.dag
        self.mode = GrowthMode(mode)
        # H and the log's paths and new edges are on component ids.
        self.h = EdgeStore(self.dag.n)
        self.log: list[PairRecord] = []
        # The components whose trees are not in the output yet.
        self._pending = set(condensation._tree_of)

    # Read only by perfbench/workloads.py; the library-counters ROADMAP item deletes it.
    inner = property(lambda self: self)

    @property
    def output_edges(self) -> set[Edge]:
        """The output edges, trees included: the union of the log's
        ``added``."""
        return {e for rec in self.log for e in rec.added}

    @property
    def h_size(self) -> int:
        """Edges in the output, trees included."""
        return len(self.output_edges)

    @property
    def z_paths(self) -> list[tuple[int, ...]]:
        """One auxiliary path per record: the tails of its new edges
        plus its sink under forwards growth, its source plus their heads
        under backwards growth."""
        if self.mode is GrowthMode.FORWARDS:
            return [tuple([u for u, _ in rec.new_edges]) + (rec.path[-1],) for rec in self.log]
        return [(rec.path[0],) + tuple([v for _, v in rec.new_edges]) for rec in self.log]

    @property
    def z_size(self) -> int:
        """|Z|: each record's auxiliary path has one vertex per new
        edge plus one."""
        return sum([len(rec.new_edges) for rec in self.log]) + len(self.log)

    pairs_served = property(lambda self: len(self.log))

    def _choose_path(self, s: int, t: int, new: list[Edge]) -> tuple[int, ...]:
        """The path serving component pair (s, t), both in range; its
        edges missing from h are appended to new in path order. One call
        of the mode's public growth function; a subclass may choose
        paths another way."""
        return self.mode.grow(self.dag, self.h, s, t, new)

    def serve_pair(self, s: int, t: int) -> tuple[Edge, ...]:
        """Serve one demand pair and return the output edges it adds.
        Raises without touching any state when a vertex is out of range
        (``check_vertices`` runs once the inline test has failed) or the
        pair is infeasible; otherwise grows one path on the component
        DAG, adds its missing edges to H, lifts it to the output (on a
        DAG the lift is the identity) and logs one record."""
        n = self.g.n
        if not (0 <= s < n and 0 <= t < n):
            check_vertices(n, s, t)
        cond = self.cond
        comp = cond.component_of
        taken: list[Edge] = []
        try:
            path = self._choose_path(comp[s], comp[t], taken)
        except InfeasiblePairError:
            raise InfeasiblePairError(f"{t} not reachable from {s}") from None
        add = self.h.add
        for e in taken:
            add(e)
        new = tuple(taken)
        if cond.dag is cond.graph:
            added = new
        else:
            # Every edge below is new to the output: tree edges stay inside
            # one component and are added once per component, and each new
            # DAG edge lifts to its own edge between two components.
            lifted: list[Edge] = []
            pending = self._pending
            if pending:
                for c in path:
                    if c in pending:
                        pending.remove(c)
                        lifted.extend(cond.tree_edges_of(c))
            lifted.extend(map(cond._lift.__getitem__, new))
            added = tuple(lifted)
        self.log.append(PairRecord((s, t), path, new, added))
        return added

    def output_graph(self) -> DirectedGraph:
        return DirectedGraph(self.g.n, self.output_edges)

    def z_system(self) -> PathSystem:
        return PathSystem(self.dag.n, tuple(self.z_paths))

    @property
    def restricted_side_size(self) -> int:
        """Measured size of the shared-terminal side: distinct sink components
        in the log under forwards growth, distinct source ones under backwards."""
        end = -1 if self.mode is GrowthMode.FORWARDS else 0
        return len({rec.path[end] for rec in self.log})


# Read only by perfbench/tracing.py, which wraps methods through this
# name; the library-counters ROADMAP item deletes it.
PreserverSession = CondensingPreserver


@dataclass
class SessionReport:
    """A session's audit. Its fields are the audit's JSON: a counter or a
    timing that must stay out of the hashed result belongs on the session."""

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


def _ascends(paths: Iterable[tuple[int, ...]], order: tuple[int, ...]) -> bool:
    """Whether every path strictly ascends in order, a permutation of
    0..len(order)-1 that holds every vertex the paths use."""
    position = [0] * len(order)
    for i, c in enumerate(order):
        position[c] = i
    for path in paths:
        last = -1
        for c in path:
            at = position[c]
            if at <= last:
                return False
            last = at
    return True


def verify_session(session: CondensingPreserver) -> SessionReport:
    """Full audit of a finished session: auxiliary system acyclic, size
    identity |Z| = |H| + p exact, no mode-constrained bridge of width 2,
    3 or 4, and every served pair reachable in H. All of it is read on
    the component DAG, where H and Z live. Violations are reported with
    witnesses instead of raised, unpreserved pairs as they were served.

    Z is acyclic when every path strictly ascends in the component DAG's
    cached topological order, one total order they all agree with; only
    when some path breaks that order does the full ``is_acyclic`` decide.
    A record whose recorded path lies in H certifies its pair. The
    others are checked against the bitset closure of H, built only when
    some record needs it."""
    z = session.z_system()
    acyclic = _ascends(z.paths, session.dag.topological_order()) or is_acyclic(z)[0]
    expected = len(session.h) + session.pairs_served
    actual = z.size()
    bridges = {k: find_k_bridge(z, k, session.mode.constraint) for k in (2, 3, 4)}
    h_edges = session.h.edges
    unsure = [r for r in session.log if not h_edges.issuperset(zip(r.path, r.path[1:]))]
    if unsure:
        h = session.h.to_graph()
        unsure = [r for r in unsure if not h.reach_mask(r.path[0]) >> r.path[-1] & 1]
    unreachable = [r.pair for r in unsure]
    return SessionReport(
        acyclic=acyclic,
        size_ok=(expected == actual),
        expected_size=expected,
        actual_size=actual,
        bridges=bridges,
        unreachable_pairs=unreachable,
    )


def _check_envelope_args(constant: float, **counts: int) -> None:
    for name, value in counts.items():
        check_count(name, value)
    check_finite_positive("constant", constant)


def size_envelope_source_restricted(
    n: int, p: int, sigma: int, constant: float = 16.0
) -> float:
    """Edge budget for sessions whose pairs share one side among sigma
    terminals: constant * (sqrt(n * p * sigma) + n)."""
    _check_envelope_args(constant, n=n, p=p, sigma=sigma)
    return constant * (math.sqrt(n * p * sigma) + n)


def size_envelope_general(n: int, p: int, constant: float) -> float:
    """Edge budget for sessions on arbitrary pairs, the abstract's bound
    for the online preserver: constant * (n^0.72 p^0.56 + n^0.6 p^0.7 + n)."""
    _check_envelope_args(constant, n=n, p=p)
    return constant * (n**0.72 * p**0.56 + n**0.6 * p**0.7 + n)
