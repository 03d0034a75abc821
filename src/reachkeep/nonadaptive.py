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

One greedy trajectory serves every level. The adversary's picks do not
depend on the threshold, so the while-loop of a level with a higher
threshold is a prefix of the while-loop of a lower one. New-edge counts
are integers >= 0, so a table depends on its threshold only through
floor(max(threshold, -1)). Each distinct table is stored once: levels
that share that floor, and floors between which the while-loop commits
nothing, share one entries and one finalized_by dict. The adversary
keeps one path per candidate in lists numbered by sorted order, picks
from a heap ordered by (-count, pair), and grows a path again only when
a committed edge (u, v) can change its walk: forwards, when the walk
reads u's out-list and v reaches the sink; backwards, when it reads v's
in-list and the source reaches u. It finds those walks in append-only
per-vertex lists of readers, skipping the stale entries.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import MissingEntryError, ParameterError, check_count, check_finite_positive
from .graphs import DirectedGraph
from .graphs import reachable_set  # unused here; perfbench/tracing.py wraps this binding
# grow_forwards, grow_backwards and greedy_adversary_step are not called here
# (_GreedyAdversary is), but perfbench/tracing.py wraps this module's binding
# of them. The adversary counts a path's new edges from its one grow call.
from .oracle import _GreedyAdversary, greedy_adversary_step, reachable_pairs
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
        check_count("n", n)
        check_count("p", p)
        value = float(self.fn(n, p))
        if math.isnan(value):
            raise ParameterError(f"surrogate {self.label!r} is NaN at n={n}, p={p}")
        return min(value, float(self.cap(n)))


def default_surrogate(n: int, scale: float = 4.0) -> ExtremalSurrogate:
    """scale * (n * sqrt(p) + n), capped at n(n-1)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    check_finite_positive("scale", scale)
    return ExtremalSurrogate(
        fn=lambda n_, p_: scale * (n_ * math.sqrt(p_) + n_),
        label=f"default(scale={scale})",
    )


@dataclass
class PathTable:
    """One level's path for every reachable pair and the phase that
    finalized it. Levels with equal content share both dicts: mutating
    one level's dicts mutates every level that shares them."""

    level: int
    threshold: float
    entries: dict[Pair, tuple[int, ...]] = field(default_factory=dict)
    finalized_by: dict[Pair, str] = field(default_factory=dict)

    @property
    def while_loop_pairs(self) -> list[Pair]:
        return [p for p, tag in self.finalized_by.items() if tag == WHILE_LOOP]


def _stop(threshold: float) -> int:
    """The while-loop stops at the first pick whose new-edge count is
    at most the threshold. Counts are integers >= 0, so that test reads
    the threshold only through this value, and thresholds with equal
    stops give equal tables."""
    return math.floor(max(threshold, -1.0))


def _build_tables(
    g: DirectedGraph, levels: list[tuple[int, float]], selector: GrowthMode | str
) -> tuple[PathTable, ...]:
    """One table per (level, threshold), all from one greedy trajectory
    over the reachable pairs of g, run through the distinct stops in
    decreasing order."""
    adversary = _GreedyAdversary(g, EdgeStore(g.n), selector, reachable_pairs(g))
    committed: dict[Pair, tuple[int, ...]] = {}
    built: dict[int, tuple[dict, dict]] = {}
    for stop in sorted({_stop(threshold) for _, threshold in levels}, reverse=True):
        size = len(committed)
        while adversary:
            pair, path, count = adversary.best()
            if count <= stop:
                break
            adversary.discard(pair)
            adversary.commit(path)
            committed[pair] = path
        if not built or len(committed) > size:  # else the previous stop's table
            entries, finalized_by = dict(committed), dict.fromkeys(committed, WHILE_LOOP)
            for pair, path in adversary.remaining():  # frozen residual phase
                entries[pair] = path
                finalized_by[pair] = RESIDUAL
        built[stop] = entries, finalized_by
    return tuple(
        PathTable(level, threshold, *built[_stop(threshold)]) for level, threshold in levels
    )


def precompute_known_p(
    g: DirectedGraph,
    p: int,
    surrogate: ExtremalSurrogate | None = None,
    selector: GrowthMode | str = GrowthMode.FORWARDS,
) -> PathTable:
    """Build the table for a known demand count p over all reachable
    pairs of the DAG g (reflexive pairs included)."""
    surrogate = surrogate if surrogate is not None else default_surrogate(g.n)
    return _build_tables(g, [(p, surrogate.evaluate(g.n, p) / p)], selector)[0]


def precompute_index_sensitive(
    g: DirectedGraph,
    surrogate: ExtremalSurrogate | None = None,
    selector: GrowthMode | str = GrowthMode.FORWARDS,
    p_star: int | None = None,
) -> tuple[PathTable, ...]:
    """Known-budget tables for doubling levels p*, 2p*, 4p*, ... up to
    and including the first level whose budget hits the cap. Beyond
    that the tables would repeat, so the stack stops there. A surrogate
    still below the cap past level sys.maxsize is rejected: no demand
    index reaches such a level."""
    if p_star is not None:
        check_count("p_star", p_star)
    surrogate = surrogate if surrogate is not None else default_surrogate(g.n)
    cap = surrogate.cap(g.n)
    levels: list[tuple[int, float]] = []
    q = p_star if p_star is not None else g.n
    while True:
        budget = surrogate.evaluate(g.n, q)
        levels.append((q, budget / q))
        if budget >= cap:
            break
        if q > sys.maxsize:
            raise ParameterError(
                f"surrogate {surrogate.label!r} stays below the cap {cap} up to level {q}"
            )
        q *= 2
    return _build_tables(g, levels, selector)


def select_entry(
    tables: tuple[PathTable, ...], s: int, t: int, i: int
) -> tuple[int, tuple[int, ...]]:
    """(level, path) for the i-th demand: the least level at or above
    i, or the saturated top level when i is beyond the stack."""
    check_count("demand index", i)
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
    check_count("p", p)
    surrogate = surrogate if surrogate is not None else default_surrogate(g.n)
    domain = reachable_pairs(g)
    if not domain:
        return MonitorReport(valid=True, final_edges=0, budget=surrogate.evaluate(g.n, p))
    h = EdgeStore(g.n)
    adversary = _GreedyAdversary(g, h, selector, domain)
    rounds: list[int] = []
    for _ in range(p):
        adversary.commit(adversary.best()[1])
        rounds.append(len(h))
    budget = surrogate.evaluate(g.n, p)
    return MonitorReport(
        valid=len(h) <= budget, final_edges=len(h), budget=budget, rounds=rounds
    )
