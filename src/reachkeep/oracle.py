"""Ground-truth helpers: exhaustive optima, the greedy adversary, and
seeded instance families.

The exhaustive optimum is only meant for tiny graphs; it anchors the
online algorithms in tests. The greedy adversary repeatedly asks for
the pair whose selected path would add the most new edges, which is
the costliest stream a path-selection rule can face.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields
from heapq import heappop, heappush
from itertools import combinations

from .errors import BoundsError, InfeasiblePairError, ParameterError, SizeLimitError, check_unused
from .graphs import MAX_VERTICES, DirectedGraph, Edge, check_vertices, iter_bits
from .graphs import reachable_set  # unused here; perfbench/tracing.py wraps this binding
# grow_forwards and grow_backwards are not called here (GrowthMode.grow
# is), but perfbench/tracing.py wraps this module's binding of them. A
# walk is one call either way: its new-edge list is an argument.
from .preserver import GrowthMode, grow_backwards, grow_forwards, unreachable_pairs
from .seeding import rng_for

Pair = tuple[int, int]

EXHAUSTIVE_EDGE_LIMIT = 20
# The knobs (InstanceFamily fields with a default) each kind reads.
_KIND_KNOBS = {
    "random-dag": ("density", "pairs"),
    "random-digraph": ("density", "pairs"),
    "layered": ("density", "pairs", "layers"),
    "path-union": ("pairs", "part_length"),
    "sourcewise": ("density", "pairs", "s_size", "side"),
}
FAMILY_KINDS = tuple(_KIND_KNOBS)


def min_preserver(g: DirectedGraph, pairs: Iterable[Pair]) -> frozenset[Edge]:
    """Lexicographically smallest minimum edge set preserving every
    pair. Exhaustive, restricted to graphs with at most
    EXHAUSTIVE_EDGE_LIMIT edges.

    Edges whose removal already breaks a pair are forced into every
    solution; edges on no source-to-sink route are discarded. The
    remainder is searched by increasing cardinality, subsets in lex
    order, so the first hit is the answer.
    """
    if g.edge_count > EXHAUSTIVE_EDGE_LIMIT:
        raise SizeLimitError(
            f"exhaustive search accepts at most {EXHAUSTIVE_EDGE_LIMIT} edges, "
            f"got {g.edge_count}"
        )
    pair_list = sorted({(int(s), int(t)) for s, t in pairs})
    for s, t in pair_list:
        check_vertices(g.n, s, t)
        if not g.reach_mask(s) >> t & 1:
            raise InfeasiblePairError(f"{t} not reachable from {s}")
    if not pair_list:
        return frozenset()

    edges = g.edges
    mandatory = {e for e in edges if unreachable_pairs(DirectedGraph(g.n, edges - {e}), pair_list)}

    def useful(e: Edge) -> bool:
        return any(
            g.reach_mask(s) >> e[0] & 1 and g.reach_mask(t, reverse=True) >> e[1] & 1
            for s, t in pair_list
        )

    pool = [e for e in sorted(edges) if e not in mandatory and useful(e)]
    base = sorted(mandatory)
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            candidate = base + list(combo)
            if not unreachable_pairs(DirectedGraph(g.n, candidate), pair_list):
                return frozenset(candidate)
    raise AssertionError("unreachable: the full edge set preserves all pairs")


class _GreedyAdversary:
    """The greedy adversary over a candidate set, with one cached path
    per candidate grown against the edge set h.

    A walk reads h only at the vertices of its own path: forwards growth
    the out-lists of all but the last vertex, backwards growth the
    in-lists of all but the first. At such a vertex it takes the first
    h-neighbour that reaches the sink (forwards) or that the source
    reaches (backwards), else the first such g-neighbour. So a committed
    edge (u, v) can change a forwards walk from s to t, or its new-edge
    count, only if the walk reads u and v reaches t; a backwards walk
    only if it reads v and s reaches u. Only those walks are grown again.
    A candidate's path (None once discarded), count and goal (t forwards,
    s backwards) sit in lists by its number, its place in sorted order.
    Per vertex, an append-only list holds the numbers of the candidates
    whose walk reads it: a re-walk appends only where it did not read
    before. commit skips a stale entry, whose path is None or no longer
    reads the vertex (paths are simple), and tests the others' goals
    against the reach mask of the edge's other end. The best pick is the
    top of a heap ordered by (-count, pair).
    """

    def __init__(self, g: DirectedGraph, h, selector, candidates: Iterable[Pair]):
        pairs = set()
        for c in candidates:  # a tuple is kept, not copied
            if type(c) not in (tuple, list) or len(c) != 2 or not type(c[0]) is type(c[1]) is int:
                raise BoundsError(f"candidate {c!r} is not a pair of ints")
            pairs.add(tuple(c))
        if not pairs:
            raise ParameterError("candidate set is empty")
        self.g, self.h = g, h
        mode = GrowthMode(selector)
        self._grow = mode.grow
        # the end of an edge whose list a walk reads, and the path vertices where it reads
        self._end = int(mode is GrowthMode.BACKWARDS)
        self._reads = slice(1, None) if self._end else slice(0, -1)
        self._cands = cands = sorted(pairs)
        self._readers: list[list[int]] = [[] for _ in range(g.n)]
        self._goals = [pair[1 - self._end] for pair in cands]
        self._paths: list[tuple[int, ...] | None] = [None] * len(cands)
        self._counts, self._live = [0] * len(cands), len(cands)
        # number - count * len(cands) per candidate, a heap in the order of
        # (-count, pair); an outdated entry stays until it reaches the top
        self._heap: list[int] = []
        for i in range(len(cands)):
            self._regrow(i)

    def _regrow(self, i: int) -> None:
        new = []
        path = self._grow(self.g, self.h, *self._cands[i], new)
        old = self._paths[i]
        if old != path:
            before = () if old is None else old[self._reads]
            for v in path[self._reads]:
                if v not in before:
                    self._readers[v].append(i)
        if old is None or self._counts[i] != len(new):
            heappush(self._heap, i - len(new) * len(self._cands))
        self._paths[i], self._counts[i] = path, len(new)

    def __bool__(self) -> bool:
        return self._live > 0

    def best(self) -> tuple[Pair, tuple[int, ...], int]:
        """(pair, path, new-edge count) of the candidate adding the most new
        edges to h; ties break to the lexicographically smallest pair."""
        heap, paths, counts, size = self._heap, self._paths, self._counts, len(self._cands)
        while True:
            negated, i = divmod(heap[0], size)
            if paths[i] is not None and counts[i] == -negated:
                return self._cands[i], paths[i], counts[i]
            heappop(heap)

    def discard(self, pair: Pair) -> None:
        i = bisect_left(self._cands, pair)
        if self._cands[i : i + 1] != [pair] or self._paths[i] is None:
            raise KeyError(pair)
        self._paths[i], self._live = None, self._live - 1

    def commit(self, path: tuple[int, ...]) -> None:
        """Add path's edges to h and grow again every candidate whose
        walk a new edge can change."""
        end, goals, paths, changed = self._end, self._goals, self._paths, set()
        for e in zip(path, path[1:]):
            if self.h.add(e):
                # the live readers of u whose goal is in far; a path p does not read p[end - 1]
                u, far = e[end], self.g.reach_mask(e[1 - end], reverse=bool(end))
                changed.update(
                    i for i in self._readers[u]
                    if far >> goals[i] & 1 and (p := paths[i]) and u in p and p[end - 1] != u
                )
        for i in sorted(changed):
            self._regrow(i)

    def remaining(self) -> list[tuple[Pair, tuple[int, ...]]]:
        """Every remaining candidate with its path against h, in lexicographic order."""
        return [(pair, path) for pair, path in zip(self._cands, self._paths) if path is not None]


def greedy_adversary_step(
    g: DirectedGraph, h, selector, candidates: Iterable[Pair]
) -> Pair:
    """The candidate pair whose selected path contributes the most new
    edges on top of h; ties break to the lexicographically smallest
    pair. Candidates must be pairs of ints reachable in g."""
    return _GreedyAdversary(g, h, selector, candidates).best()[0]


@dataclass(frozen=True)
class InstanceFamily:
    """Seeded description of a graph plus demand stream.

    kind is one of FAMILY_KINDS. A knob the kind does not read must keep
    its default, so one instance never carries two descriptions; a used
    knob outside its domain is rejected, never adjusted. The same family
    always generates the same bytes.
    """

    kind: str
    n: int
    seed: int
    density: float = 0.25
    pairs: int = 10
    s_size: int = 1
    side: str = "source"
    layers: int = 0
    part_length: int = 4

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        for f in fields(self):
            if f.default is not MISSING and f.name not in _KIND_KNOBS[self.kind]:
                check_unused(self.kind, f.name, getattr(self, f.name), f.default)
        if type(self.n) is not int or not 1 <= self.n <= MAX_VERTICES:
            raise ParameterError(f"n must be in 1..{MAX_VERTICES}, got {self.n!r}")
        if type(self.pairs) is not int or self.pairs < 0:
            raise ParameterError(f"pairs must be >= 0, got {self.pairs!r}")
        if type(self.density) is bool or not (0.0 <= self.density <= 1.0):
            raise ParameterError(f"density must be in [0, 1], got {self.density}")
        if self.kind == "sourcewise":
            if self.n < 2:
                raise ParameterError("sourcewise needs n >= 2")
            if self.side not in ("source", "sink"):
                raise ParameterError(f"side must be source or sink, got {self.side!r}")
            if type(self.s_size) is not int or not 1 <= self.s_size < self.n:
                raise ParameterError(
                    f"sourcewise needs 1 <= s_size <= n-1, got s_size={self.s_size!r}, n={self.n}"
                )
        layers_ok = type(self.layers) is int and (self.layers == 0 or 2 <= self.layers <= self.n)
        if self.kind == "layered" and not layers_ok:
            raise ParameterError(
                f"layered needs layers 0 (auto) or 2..n, got layers={self.layers!r}, n={self.n}"
            )
        if self.kind == "path-union":
            if type(self.part_length) is not int or self.n < max(2, self.part_length):
                raise ParameterError(
                    f"path-union needs n >= max(2, part_length), got n={self.n}, "
                    f"part_length={self.part_length!r}"
                )
            if self.part_length < 2:
                raise ParameterError(
                    f"path-union needs part_length >= 2, got part_length={self.part_length}"
                )


def reachable_pairs(g: DirectedGraph) -> list[Pair]:
    """Every pair (u, v) with v reachable from u, reflexive pairs
    included, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in iter_bits(g.reach_mask(u))]


def _stream_from(g: DirectedGraph, count: int, rng) -> tuple[Pair, ...]:
    candidates = [(u, v) for u, v in reachable_pairs(g) if u != v] or [(0, 0)]
    return tuple(rng.choice(candidates) for _ in range(count))


def _random_dag_edges(n: int, density: float, rng) -> tuple[list[int], set[Edge]]:
    perm = rng.sample(range(n), n)
    edges: set[Edge] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.add((perm[i], perm[j]))
    if not edges and n >= 2:
        edges.add((perm[0], perm[1]))
    return perm, edges


def generate(family: InstanceFamily) -> tuple[DirectedGraph, tuple[Pair, ...]]:
    """Materialize a family: the graph and its demand stream."""
    n = family.n
    kind = family.kind
    graph_rng = rng_for(family.seed, "graph", kind)
    stream_rng = rng_for(family.seed, "stream", kind)

    if kind == "random-dag":
        _, edges = _random_dag_edges(n, family.density, graph_rng)
    elif kind == "random-digraph":
        edges = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and graph_rng.random() < family.density
        }
        if not edges and n >= 2:
            edges.add((0, 1))
    elif kind == "layered":
        layer_count = family.layers or min(n, max(2, round(math.sqrt(n))))
        layers: list[list[int]] = [[] for _ in range(layer_count)]
        for v in range(n):
            layers[v * layer_count // n].append(v)
        edges = set()
        for a, b in zip(layers, layers[1:]):
            for u in a:
                linked = False
                for v in b:
                    if graph_rng.random() < family.density:
                        edges.add((u, v))
                        linked = True
                if not linked and b:
                    edges.add((u, graph_rng.choice(b)))
    elif kind == "path-union":
        length = family.part_length
        parts = n // length
        edges = set()
        demands = []
        for part in range(parts):
            base = part * length
            for i in range(length - 1):
                edges.add((base + i, base + i + 1))
            demands.append((base, base + length - 1))
        g = DirectedGraph(n, edges)
        stream = list(demands)
        stream_rng.shuffle(stream)
        while len(stream) < family.pairs:
            stream.append(stream_rng.choice(demands))
        return g, tuple(stream)
    else:  # sourcewise; the sink side is the source side on reversed edges
        perm, edges = _random_dag_edges(n, family.density, graph_rng)
        pos = {v: i for i, v in enumerate(perm)}
        sink = family.side == "sink"  # 0 or 1: the end e[sink] of an edge e is the shared one
        turn = slice(None, None, -1 if sink else 1)  # a pair drawn source-side, in g's direction
        shared = sorted(graph_rng.sample(perm[sink : n - 1 + sink], family.s_size))
        for s in shared:
            if not any(e[sink] == s for e in edges):
                edges.add((s, perm[pos[s] + 1 - 2 * sink])[turn])
        g = DirectedGraph(n, edges)
        stream = []
        for _ in range(family.pairs):
            s = stream_rng.choice(shared)
            far = list(iter_bits(g.reach_mask(s, sink) & ~(1 << s)))  # ascending either side
            stream.append((s, stream_rng.choice(far))[turn])
        return g, tuple(stream)

    # random-dag, random-digraph and layered draw their stream alike
    g = DirectedGraph(n, edges)
    return g, _stream_from(g, family.pairs, stream_rng)
