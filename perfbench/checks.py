"""Independent checks of the program's outputs.

Nothing here calls the library's reachability, condensation or audit
code: graphs are walked with the plain BFS and Kosaraju/Kahn helpers in
``inputs``. Every check takes plain data (edge lists, pairs, vertex
sequences), so a test can hand it a tampered output directly.

A failed check marks the demand pairs it concerns; a check on a
property of the whole output (H a subgraph of G, the size identity, a
table defect) marks every pair of the stream.
"""

from __future__ import annotations

import math

from inputs import Reach, adjacency, bfs, topological_positions


class Verdict:
    """Failed demand pairs of one served stream, with the first reason
    seen for each."""

    def __init__(self, pairs: int):
        self.pairs = pairs
        self.bad: dict[int, str] = {}
        self.whole: list[str] = []

    def pair(self, index: int, why: str) -> None:
        self.bad.setdefault(index, why)

    def all(self, why: str) -> None:
        self.whole.append(why)

    @property
    def failed(self) -> int:
        return self.pairs if self.whole else len(self.bad)

    def reasons(self, limit: int = 5, width: int = 200) -> list[str]:
        """The first ``limit`` reasons, each cut to ``width`` characters."""
        out = list(self.whole)
        out += [f"pair {i}: {why}" for i, why in sorted(self.bad.items())]
        return [why if len(why) <= width else why[: width - 3] + "..." for why in out[:limit]]


def subgraph(verdict: Verdict, g_edges, h_edges, label: str = "H") -> None:
    """H is a subset of E(G)."""
    foreign = set(h_edges) - set(g_edges)
    if foreign:
        verdict.all(f"{label} has {len(foreign)} edges not in G, e.g. {min(foreign)}")


def pairs_reachable(verdict: Verdict, n: int, h_edges, pairs) -> None:
    """Every demand pair is reachable in H (one BFS per distinct source)."""
    out = adjacency(n, h_edges)
    seen: dict[int, set[int]] = {}
    for i, (s, t) in enumerate(pairs):
        if s not in seen:
            seen[s] = bfs(out, s)
        if t not in seen[s]:
            verdict.pair(i, f"({s}, {t}) not reachable in H")


def size_identity(verdict: Verdict, z_paths, h_size: int, served: int, label: str = "Z") -> int:
    """|Z| = |H| + p, with |Z| summed here from the auxiliary paths."""
    z = sum(len(path) for path in z_paths)
    if z != h_size + served:
        verdict.all(f"|{label}| = {z} != |H| + p = {h_size} + {served}")
    return z


def increasing(verdict: Verdict, z_paths, position) -> None:
    """Every auxiliary path (path j belongs to pair j) strictly increases
    in the given topological positions."""
    for j, path in enumerate(z_paths):
        ranks = [position(v) for v in path]
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            verdict.pair(j, f"auxiliary path {path} not increasing in topological order")


def dag_positions(n: int, g_edges) -> list[int]:
    pos = topological_positions(n, g_edges)
    if pos is None:
        raise ValueError("graph is not a DAG")
    return pos


def envelope(verdict: Verdict, z: int, n: int, p: int, sigma: int) -> None:
    """|Z| <= 16 (sqrt(n p sigma) + n) for sigma shared terminals."""
    bound = 16 * (math.sqrt(n * p * sigma) + n)
    if z > bound:
        verdict.all(f"|Z| = {z} above the envelope {bound:.1f}")


def hit_relays(verdict: Verdict, reach: Reach, sample, hits) -> None:
    """``hits`` holds (stream index, s, t, relay): the relay is sampled
    and lies on an s-to-t path of G."""
    sampled = set(sample)
    for i, s, t, v in hits:
        if v not in sampled:
            verdict.pair(i, f"relay {v} of ({s}, {t}) is not in the sample")
        elif not (reach.reaches(s, v) and reach.reaches(v, t)):
            verdict.pair(i, f"relay {v} is on no path from {s} to {t}")


def tables(verdict: Verdict, n: int, g_edges, levels) -> None:
    """``levels`` holds (threshold, entries, finalized_by) per table.
    Every entry is an s-to-t walk in G, the entry set is the set of
    reachable pairs of G (reflexive pairs included), and every residual
    entry adds at most ``threshold`` edges to that level's while-loop
    edges."""
    g = set(g_edges)
    out = adjacency(n, g_edges)
    domain = {(u, v) for u in range(n) for v in bfs(out, u)}
    for k, (threshold, entries, finalized_by) in enumerate(levels):
        if set(entries) != domain:
            verdict.all(f"level {k}: entry set differs from the reachable pairs of G")
        frozen = set()
        for pair, tag in finalized_by.items():
            if tag == "while-loop":
                path = entries[pair]
                frozen.update(zip(path, path[1:]))
        for (s, t), path in entries.items():
            if path[0] != s or path[-1] != t or not all(e in g for e in zip(path, path[1:])):
                verdict.all(f"level {k}: entry ({s}, {t}) is not a walk from {s} to {t} in G")
            elif finalized_by.get((s, t)) == "residual":
                extra = sum(1 for e in zip(path, path[1:]) if e not in frozen)
                if extra > threshold:
                    verdict.all(
                        f"level {k}: residual entry ({s}, {t}) adds {extra} > {threshold:.2f} edges"
                    )


def selections(verdict: Verdict, level_sizes, entries_by_level, pairs, answers) -> None:
    """The i-th demand (1-based) is answered from the least level at or
    above i, or from the top level beyond the stack."""
    for i, ((s, t), (level, path)) in enumerate(zip(pairs, answers)):
        k = next((j for j, q in enumerate(level_sizes) if q >= i + 1), len(level_sizes) - 1)
        if level != level_sizes[k] or path != entries_by_level[k].get((s, t)):
            verdict.pair(i, f"demand {i + 1} ({s}, {t}) answered from the wrong entry")
