"""Ground-truth helpers: exhaustive optima, the greedy adversary, and
seeded instance families.

The exhaustive optimum is only meant for tiny graphs; it anchors the
online algorithms in tests. The greedy adversary repeatedly asks for
the pair whose selected path would add the most new edges, which is
the costliest stream a path-selection rule can face.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields
from itertools import combinations

from .errors import InfeasiblePairError, ParameterError, SizeLimitError
from .graphs import DirectedGraph, Edge, check_vertices, iter_bits
from .graphs import reachable_set  # unused here; perfbench/tracing.py wraps this binding
# grow_forwards and grow_backwards are not called here (GrowthMode.grow
# is), but perfbench/tracing.py wraps this module's binding of them. A
# walk is one call either way: its new-edge list is an argument.
from .preserver import GrowthMode, grow_backwards, grow_forwards
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


def _preserves(n: int, edge_set: Iterable[Edge], pairs: list[Pair]) -> bool:
    h = DirectedGraph(n, edge_set)
    return all(t in iter_bits(h.reach_mask(s)) for s, t in pairs)


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

    edges_sorted = sorted(g.edges)
    mandatory = {e for e in edges_sorted if not _preserves(g.n, g.edges - {e}, pair_list)}

    def useful(e: Edge) -> bool:
        return any(
            g.reach_mask(s) >> e[0] & 1 and g.reach_mask(t, reverse=True) >> e[1] & 1
            for s, t in pair_list
        )

    pool = [e for e in edges_sorted if e not in mandatory and useful(e)]
    base = sorted(mandatory)
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            candidate = base + list(combo)
            if _preserves(g.n, candidate, pair_list):
                return frozenset(candidate)
    raise AssertionError("unreachable: the full edge set preserves all pairs")


class _GreedyAdversary:
    """The greedy adversary over a candidate set, with one cached path
    per candidate grown against the edge set h.

    A growth walk reads h only at the vertices of its own path: forwards
    growth reads the out-neighbours of each vertex, backwards growth the
    in-neighbours. So a committed path can change a cached walk, or its
    new-edge count, only if the cached path visits the tail (forwards)
    or the head (backwards) of an edge the commit added; only those
    candidates are grown again.
    """

    def __init__(self, g: DirectedGraph, h, selector, candidates: Iterable[Pair]):
        cands = sorted({(int(s), int(t)) for s, t in candidates})
        if not cands:
            raise ParameterError("candidate set is empty")
        self.g, self.h = g, h
        mode = GrowthMode(selector)
        self._grow = mode.grow
        # Index in an edge of the end whose neighbour list the walk reads.
        self._end = 0 if mode is GrowthMode.FORWARDS else 1
        # pair -> (path, new-edge count, bitmask of the path's vertices)
        self._cache: dict[Pair, tuple[tuple[int, ...], int, int]] = {}
        for pair in cands:
            self._regrow(pair)

    def _regrow(self, pair: Pair) -> None:
        new: list[Edge] = []
        path = self._grow(self.g, self.h, *pair, new)
        self._cache[pair] = path, len(new), sum(1 << v for v in path)  # a DAG walk is simple

    def __bool__(self) -> bool:
        return bool(self._cache)

    def best(self) -> tuple[Pair, tuple[int, ...], int]:
        """(pair, path, new-edge count) of the candidate adding the most
        new edges to h; ties break to the lexicographically smallest
        pair."""
        cache = self._cache
        pair = min(cache, key=lambda q: (-cache[q][1], q))
        path, count, _ = cache[pair]
        return pair, path, count

    def discard(self, pair: Pair) -> None:
        del self._cache[pair]

    def commit(self, path: tuple[int, ...]) -> None:
        """Add path's edges to h and grow again every candidate whose
        walk the new edges could change."""
        touched = 0
        for e in zip(path, path[1:]):
            if self.h.add(e):
                touched |= 1 << e[self._end]
        if touched:
            for pair, (_, _, mask) in self._cache.items():
                if mask & touched:
                    self._regrow(pair)

    def remaining(self) -> list[tuple[Pair, tuple[int, ...]]]:
        """Every remaining candidate with its path against h, in
        lexicographic order."""
        return sorted((pair, path) for pair, (path, _, _) in self._cache.items())


def greedy_adversary_step(
    g: DirectedGraph, h, selector, candidates: Iterable[Pair]
) -> Pair:
    """The candidate pair whose selected path contributes the most new
    edges on top of h; ties break to the lexicographically smallest
    pair. Candidates must be reachable in g."""
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
            value = getattr(self, f.name)
            unused = f.default is not MISSING and f.name not in _KIND_KNOBS[self.kind]
            if unused and value != f.default:
                raise ParameterError(f"{self.kind} does not use {f.name}, got {f.name}={value!r}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.pairs < 0:
            raise ParameterError(f"pairs must be >= 0, got {self.pairs}")
        if not (0.0 <= self.density <= 1.0):
            raise ParameterError(f"density must be in [0, 1], got {self.density}")
        if self.kind == "sourcewise":
            if self.n < 2:
                raise ParameterError("sourcewise needs n >= 2")
            if self.side not in ("source", "sink"):
                raise ParameterError(f"side must be source or sink, got {self.side!r}")
            if not 1 <= self.s_size < self.n:
                raise ParameterError(
                    f"sourcewise needs 1 <= s_size <= n-1, got s_size={self.s_size}, n={self.n}"
                )
        if self.kind == "layered" and self.layers != 0 and not 2 <= self.layers <= self.n:
            raise ParameterError(
                f"layered needs layers 0 (auto) or 2..n, got layers={self.layers}, n={self.n}"
            )
        if self.kind == "path-union":
            if self.n < max(2, self.part_length):
                raise ParameterError(
                    f"path-union needs n >= max(2, part_length), got n={self.n}, "
                    f"part_length={self.part_length}"
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
    candidates = [(u, v) for u, v in reachable_pairs(g) if u != v]
    if not candidates:
        candidates = [(0, 0)]
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
        g = DirectedGraph(n, edges)
        return g, _stream_from(g, family.pairs, stream_rng)

    if kind == "random-digraph":
        edges = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and graph_rng.random() < family.density
        }
        if not edges and n >= 2:
            edges.add((0, 1))
        g = DirectedGraph(n, edges)
        return g, _stream_from(g, family.pairs, stream_rng)

    if kind == "layered":
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
        g = DirectedGraph(n, edges)
        return g, _stream_from(g, family.pairs, stream_rng)

    if kind == "path-union":
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

    if kind == "sourcewise":
        perm, edges = _random_dag_edges(n, family.density, graph_rng)
        pos = {v: i for i, v in enumerate(perm)}
        if family.side == "source":
            shared = sorted(graph_rng.sample(perm[: n - 1], family.s_size))
            for s in shared:
                if not any(u == s for u, _ in edges):
                    edges.add((s, perm[pos[s] + 1]))
        else:
            shared = sorted(graph_rng.sample(perm[1:], family.s_size))
            for t in shared:
                if not any(v == t for _, v in edges):
                    edges.add((perm[pos[t] - 1], t))
        g = DirectedGraph(n, edges)
        stream = []
        for _ in range(family.pairs):
            if family.side == "source":
                s = stream_rng.choice(shared)
                targets = list(iter_bits(g.reach_mask(s) & ~(1 << s)))
                stream.append((s, stream_rng.choice(targets)))
            else:
                t = stream_rng.choice(shared)
                sources = list(iter_bits(g.reach_mask(t, reverse=True) & ~(1 << t)))
                stream.append((stream_rng.choice(sources), t))
        return g, tuple(stream)
