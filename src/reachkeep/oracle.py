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
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BoundsError,
    InfeasiblePairError,
    ParameterError,
    SizeLimitError,
)
from .graphs import DirectedGraph, Edge, reachable_set, reaches
# grow_forwards and grow_backwards are not called here (GrowthMode.grow
# is), but perfbench/tracing.py wraps this module's binding of them.
from .preserver import EdgeStore, GrowthMode, grow_backwards, grow_forwards
from .seeding import rng_for

Pair = tuple[int, int]

EXHAUSTIVE_EDGE_LIMIT = 20


def _preserves(n: int, edge_set: Iterable[Edge], pairs: list[Pair]) -> bool:
    h = EdgeStore(n)
    for e in edge_set:
        h.add(e)
    return all(reaches(h, s, t) for s, t in pairs)


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
        for v in (s, t):
            if not (0 <= v < g.n):
                raise BoundsError(f"vertex {v} outside range 0..{g.n - 1}")
        if t not in reachable_set(g, s):
            raise InfeasiblePairError(f"{t} not reachable from {s}")
    if not pair_list:
        return frozenset()

    edges_sorted = sorted(g.edges)
    mandatory = {
        e for e in edges_sorted if not _preserves(g.n, g.edges - {e}, pair_list)
    }
    src_reach = {s: reachable_set(g, s) for s in {s for s, _ in pair_list}}
    sink_reach = {
        t: reachable_set(g, t, reverse=True) for t in {t for _, t in pair_list}
    }

    def useful(e: Edge) -> bool:
        u, v = e
        return any(
            u in src_reach[s] and v in sink_reach[t] for s, t in pair_list
        )

    pool = [e for e in edges_sorted if e not in mandatory and useful(e)]
    base = sorted(mandatory)
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            candidate = base + list(combo)
            if _preserves(g.n, candidate, pair_list):
                return frozenset(candidate)
    raise AssertionError("unreachable: the full edge set preserves all pairs")


def greedy_adversary_step(
    g: DirectedGraph, h, selector, candidates: Iterable[Pair]
) -> Pair:
    """The candidate pair whose selected path contributes the most new
    edges on top of h; ties break to the lexicographically smallest
    pair. Candidates must be reachable in g."""
    cands = sorted({(int(s), int(t)) for s, t in candidates})
    if not cands:
        raise ParameterError("candidate set is empty")
    grow = GrowthMode(selector).grow
    best_pair: Pair | None = None
    best_count = -1
    for pair in cands:
        path = grow(g, h, *pair)
        count = sum(1 for e in zip(path, path[1:]) if e not in h)
        if count > best_count:
            best_pair = pair
            best_count = count
    assert best_pair is not None
    return best_pair


@dataclass(frozen=True)
class InstanceFamily:
    """Seeded description of a graph plus demand stream.

    kind is one of random-dag, random-digraph, layered, path-union,
    sourcewise. Unused knobs are ignored by kinds that do not need
    them. The same family always generates the same bytes.
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
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.pairs < 0:
            raise ParameterError(f"pairs must be >= 0, got {self.pairs}")
        if not (0.0 <= self.density <= 1.0):
            raise ParameterError(f"density must be in [0, 1], got {self.density}")


def reachable_pairs(g: DirectedGraph) -> list[Pair]:
    """Every pair (u, v) with v reachable from u, reflexive pairs
    included, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in sorted(reachable_set(g, u))]


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
        layer_count = family.layers if family.layers >= 2 else max(2, round(math.sqrt(n)))
        layer_count = min(layer_count, n)
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
        length = max(2, family.part_length)
        parts = max(1, n // length)
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
        if n < 2:
            raise ParameterError("sourcewise needs n >= 2")
        perm, edges = _random_dag_edges(n, family.density, graph_rng)
        pos = {v: i for i, v in enumerate(perm)}
        size = min(max(1, family.s_size), max(1, n - 1))
        if family.side == "source":
            shared = sorted(graph_rng.sample(perm[: n - 1], size))
            for s in shared:
                if not any(u == s for u, _ in edges):
                    edges.add((s, perm[pos[s] + 1]))
        elif family.side == "sink":
            shared = sorted(graph_rng.sample(perm[1:], size))
            for t in shared:
                if not any(v == t for _, v in edges):
                    edges.add((perm[pos[t] - 1], t))
        else:
            raise ParameterError(f"side must be source or sink, got {family.side!r}")
        g = DirectedGraph(n, edges)
        stream = []
        for _ in range(family.pairs):
            if family.side == "source":
                s = stream_rng.choice(shared)
                targets = sorted(reachable_set(g, s) - {s})
                stream.append((s, stream_rng.choice(targets)))
            else:
                t = stream_rng.choice(shared)
                sources = sorted(reachable_set(g, t, reverse=True) - {t})
                stream.append((stream_rng.choice(sources), t))
        return g, tuple(stream)

    raise ParameterError(f"unknown family kind {family.kind!r}")
