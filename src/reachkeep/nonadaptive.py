"""Non-adaptive path tables.

Instead of reacting to a demand stream, a path is precomputed for
every reachable pair. The known-budget variant repeatedly lets a
greedy adversary pick the pair whose selected path would add the most
new edges; while that count exceeds budget/p the pair is finalized and
its edges committed, and once nothing exceeds the threshold all
remaining pairs are finalized against the frozen edge set. Any p
demands answered from the finished table then touch at most twice the
budget in distinct edges.

The index-sensitive variant stacks known-budget tables for doubling
demand counts until the budget saturates at the complete-graph cap;
the i-th demand is answered from the smallest level covering i.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import MissingEntryError, ParameterError
from .graphs import DirectedGraph, reachable_set
from .oracle import greedy_adversary_step
from .preserver import EdgeStore, GrowthMode, grow_backwards, grow_forwards

Pair = tuple[int, int]

WHILE_LOOP = "while-loop"
RESIDUAL = "residual"


@dataclass(frozen=True)
class ExtremalSurrogate:
    """Stand-in for the worst-case preserver size at a given (n, p).
    Values are clamped to the complete-graph cap n(n-1)."""

    fn: Callable[[int, int], float]
    label: str = "custom"

    def cap(self, n: int) -> int:
        return n * (n - 1)

    def evaluate(self, n: int, p: int) -> float:
        for name, value in (("n", n), ("p", p)):
            if int(value) != value or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {value}")
        return min(float(self.fn(n, p)), float(self.cap(n)))


def default_surrogate(n: int, scale: float = 4.0) -> ExtremalSurrogate:
    """scale * (n * sqrt(p) + n), capped at n(n-1)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    return ExtremalSurrogate(
        fn=lambda n_, p_: scale * (n_ * math.sqrt(p_) + n_),
        label=f"default(scale={scale})",
    )


@dataclass
class PathTable:
    level: int
    threshold: float
    entries: dict[Pair, tuple[int, ...]] = field(default_factory=dict)
    finalized_by: dict[Pair, str] = field(default_factory=dict)

    @property
    def while_loop_pairs(self) -> list[Pair]:
        return [p for p, tag in self.finalized_by.items() if tag == WHILE_LOOP]


def _path_fn(selector):
    mode = GrowthMode(selector)
    return grow_forwards if mode is GrowthMode.FORWARDS else grow_backwards


def _domain(g: DirectedGraph) -> list[Pair]:
    pairs = []
    for u in range(g.n):
        for v in sorted(reachable_set(g, u)):
            pairs.append((u, v))
    return pairs


def precompute_known_p(
    g: DirectedGraph,
    p: int,
    surrogate: ExtremalSurrogate | None = None,
    selector: GrowthMode | str = GrowthMode.FORWARDS,
) -> PathTable:
    """Build the table for a known demand count p over all reachable
    pairs of the DAG g (reflexive pairs included)."""
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    if g.n < 1:
        raise ParameterError("graph must have at least one vertex")
    surrogate = surrogate if surrogate is not None else default_surrogate(g.n)
    path_fn = _path_fn(selector)
    threshold = surrogate.evaluate(g.n, p) / p
    table = PathTable(level=p, threshold=threshold)
    h = EdgeStore(g.n)
    unfinalized = set(_domain(g))

    while unfinalized:
        pair = greedy_adversary_step(g, h, selector, unfinalized)
        path = path_fn(g, h, *pair)
        count = sum(1 for e in zip(path, path[1:]) if e not in h)
        if count <= threshold:
            break
        for e in zip(path, path[1:]):
            h.add(e)
        table.entries[pair] = path
        table.finalized_by[pair] = WHILE_LOOP
        unfinalized.discard(pair)

    for pair in sorted(unfinalized):  # frozen residual phase
        table.entries[pair] = path_fn(g, h, *pair)
        table.finalized_by[pair] = RESIDUAL
    return table


def precompute_index_sensitive(
    g: DirectedGraph,
    surrogate: ExtremalSurrogate | None = None,
    selector: GrowthMode | str = GrowthMode.FORWARDS,
    p_star: int | None = None,
) -> tuple[PathTable, ...]:
    """Known-budget tables for doubling levels p*, 2p*, 4p*, ... up to
    and including the first level whose budget hits the cap. Beyond
    that the tables would repeat, so the stack stops there."""
    if g.n < 1:
        raise ParameterError("graph must have at least one vertex")
    base = p_star if p_star is not None else g.n
    if base < 1:
        raise ParameterError(f"p_star must be >= 1, got {base}")
    surrogate = surrogate if surrogate is not None else default_surrogate(g.n)
    tables: list[PathTable] = []
    q = base
    while True:
        tables.append(precompute_known_p(g, q, surrogate, selector))
        if surrogate.evaluate(g.n, q) >= surrogate.cap(g.n):
            break
        q *= 2
    return tuple(tables)


def select_entry(
    tables: tuple[PathTable, ...], s: int, t: int, i: int
) -> tuple[int, tuple[int, ...]]:
    """(level, path) for the i-th demand: the least level at or above
    i, or the saturated top level when i is beyond the stack."""
    if i < 1:
        raise ParameterError(f"demand index must be >= 1, got {i}")
    if not tables:
        raise ParameterError("empty table stack")
    chosen = tables[-1]
    for table in tables:
        if table.level >= i:
            chosen = table
            break
    path = chosen.entries.get((s, t))
    if path is None:
        raise MissingEntryError(f"pair ({s}, {t}) not in table for level {chosen.level}")
    return chosen.level, path


@dataclass
class MonitorReport:
    valid: bool
    final_edges: int
    budget: float
    rounds: list[int] = field(default_factory=list)


def surrogate_monitor(
    g: DirectedGraph,
    p: int,
    surrogate: ExtremalSurrogate | None = None,
    selector: GrowthMode | str = GrowthMode.FORWARDS,
) -> MonitorReport:
    """Empirical validity check of a surrogate: replay the selector
    online against the greedy adversary for p rounds and compare the
    resulting edge count with the surrogate's budget. A failure means
    the surrogate undershoots this graph, not that an algorithm broke."""
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    surrogate = surrogate if surrogate is not None else default_surrogate(g.n)
    path_fn = _path_fn(selector)
    domain = _domain(g)
    if not domain:
        return MonitorReport(valid=True, final_edges=0, budget=surrogate.evaluate(g.n, p))
    h = EdgeStore(g.n)
    rounds: list[int] = []
    for _ in range(p):
        pair = greedy_adversary_step(g, h, selector, domain)
        path = path_fn(g, h, *pair)
        for e in zip(path, path[1:]):
            h.add(e)
        rounds.append(len(h))
    budget = surrogate.evaluate(g.n, p)
    return MonitorReport(
        valid=len(h) <= budget, final_edges=len(h), budget=budget, rounds=rounds
    )
