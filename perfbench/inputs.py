"""Seeded inputs for the benchmark, generated without the library.

The library's own instance families (``reachkeep.oracle.generate``) are
not used: a later change to them must not change what is measured, and
their random-digraph family draws one coin per ordered vertex pair.
Here a graph of m edges costs O(m) expected draws (rejection of
repeated or backward pairs), and stream pairs are drawn only from
reachable pairs, by rejection against a bitset transitive closure of
the component DAG.

The graph helpers below (strong components, topological order, BFS,
closure) are also what the independent output checks use, so nothing
that judges the program's output comes from the program.
"""

from __future__ import annotations

import random
from collections import deque

Edge = tuple[int, int]
Pair = tuple[int, int]


def rng_for(seed: int, label: str) -> random.Random:
    """One independent stream per (seed, label); string seeding is
    hashed with SHA-512 by ``random``, so it is stable across runs."""
    return random.Random(f"perfbench:{seed}:{label}")


def adjacency(n: int, edges) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    return out


def bfs(out: list[list[int]], root: int) -> set[int]:
    """Vertices reachable from ``root`` along ``out``, root included."""
    seen = {root}
    queue = deque([root])
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def strong_components(n: int, edges) -> list[int]:
    """Component id per vertex (Kosaraju, iterative). Ids are arbitrary
    but fixed for a given edge list."""
    out = adjacency(n, edges)
    inc = adjacency(n, ((v, u) for u, v in edges))
    seen = [False] * n
    finish: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, 0)]
        while stack:
            u, i = stack[-1]
            if i < len(out[u]):
                stack[-1] = (u, i + 1)
                w = out[u][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                stack.pop()
                finish.append(u)
    comp = [-1] * n
    count = 0
    for root in reversed(finish):
        if comp[root] != -1:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            u = stack.pop()
            for w in inc[u]:
                if comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def topological_positions(n: int, edges) -> list[int] | None:
    """Position of each vertex in a topological order (Kahn), or None
    when the graph has a cycle."""
    out = adjacency(n, edges)
    indeg = [0] * n
    for _, v in edges:
        indeg[v] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    pos = [-1] * n
    k = 0
    while queue:
        u = queue.popleft()
        pos[u] = k
        k += 1
        for w in out[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return pos if k == n else None


class Reach:
    """Reachability oracle: strong components plus a bitset closure of
    the component DAG (Python ints, filled in reverse topological
    order). Memory is (#components)^2 bits."""

    def __init__(self, n: int, edges):
        self.comp = strong_components(n, edges)
        count = max(self.comp, default=-1) + 1
        dag = {(self.comp[u], self.comp[v]) for u, v in edges}
        dag = [(a, b) for a, b in dag if a != b]
        pos = topological_positions(count, dag)
        assert pos is not None, "a component graph is acyclic"
        order = sorted(range(count), key=pos.__getitem__)
        out = adjacency(count, dag)
        desc = [0] * count
        for c in reversed(order):
            bits = 1 << c
            for d in out[c]:
                bits |= desc[d]
            desc[c] = bits
        self.desc = desc

    def reaches(self, s: int, t: int) -> bool:
        return (self.desc[self.comp[s]] >> self.comp[t]) & 1 == 1


def random_dag(rng: random.Random, n: int, m: int) -> list[Edge]:
    """m distinct edges (i, j), i < j, each drawn uniformly among such
    pairs: a random DAG whose topological order is the identity."""
    if m > n * (n - 1) // 4:
        raise ValueError("rejection sampling needs a sparse graph")
    edges: set[Edge] = set()
    while len(edges) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def random_digraph(rng: random.Random, n: int, m: int) -> list[Edge]:
    """m distinct ordered pairs u != v, each uniform."""
    if m > n * (n - 1) // 2:
        raise ValueError("rejection sampling needs a sparse graph")
    edges: set[Edge] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def uniform_pairs(rng: random.Random, reach: Reach, n: int, p: int) -> list[Pair]:
    """p pairs s != t, uniform among the pairs with t reachable from s."""
    pairs: list[Pair] = []
    while len(pairs) < p:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t and reach.reaches(s, t):
            pairs.append((s, t))
    return pairs


def wide_sources(rng: random.Random, n: int, edges, count: int) -> list[int]:
    """``count`` distinct vertices, each reaching at least n/4 others."""
    out = adjacency(n, edges)
    shared: list[int] = []
    while len(shared) < count:
        s = rng.randrange(n)
        if s not in shared and len(bfs(out, s)) > n // 4:
            shared.append(s)
    return sorted(shared)


def sourcewise_pairs(rng: random.Random, n: int, edges, shared: list[int], p: int) -> list[Pair]:
    """p pairs (s, t) of S x V: s uniform in ``shared``, t uniform among
    the vertices s reaches."""
    out = adjacency(n, edges)
    targets = {s: sorted(bfs(out, s) - {s}) for s in shared}
    pairs = []
    for _ in range(p):
        s = rng.choice(shared)
        pairs.append((s, rng.choice(targets[s])))
    return pairs


def graph_text(n: int, edges) -> str:
    """The edge-list format ``reachkeep.graphs.load_graph`` reads."""
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges])
