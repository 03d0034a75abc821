"""Ordered path systems and forbidden bridge patterns.

A path system is a universe of vertex ids plus a sequence of paths
(vertex sequences without repeats). The sequence position of a path is
its order; several checks below care about which of two paths arrived
first.

A k-bridge is a witness made of k chain vertices x_1 < ... < x_k and k
pairwise distinct paths: a river containing x_1 before x_k, and for
each consecutive chain pair an arc containing x_i before x_{i+1}.
Containment is as a subsequence, so a path (0, 9, 3) contains (0, 3).
Order constraints restrict where the river sits relative to the first
or last arc in the path sequence.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import BoundsError, ParameterError
from .graphs import DirectedGraph, check_vertex_count, check_vertices, iter_bits

Path = tuple[int, ...]


@dataclass(frozen=True)
class PathSystem:
    universe: int
    paths: tuple[Path, ...]

    def __post_init__(self):
        n = self.universe
        check_vertex_count(n)
        for idx, path in enumerate(self.paths):
            if len(path) == 0:
                raise BoundsError(f"path {idx} is empty")
            for v in path:  # ids first: in set(), True would repeat 1
                if not (type(v) is int and 0 <= v < n):
                    check_vertices(n, v)
            if len(set(path)) != len(path):
                raise BoundsError(f"path {idx} repeats a vertex: {path}")

    def size(self) -> int:
        """Total number of vertex instances across all paths."""
        return sum(len(p) for p in self.paths)

    @cached_property
    def pair_index(self) -> _PairIndex:
        """Ordered-pair index of all paths, built on first use and kept;
        every ``find_k_bridge`` call on this system reads it."""
        return _PairIndex(self.paths)


def is_acyclic(s: PathSystem) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some total vertex order agrees with every path.

    Consecutive pairs within each path induce a precedence digraph; the
    system is acyclic exactly when that digraph has a topological
    order. Returns (True, order) with a min-id-first canonical order,
    or (False, None).
    """
    precedence = DirectedGraph(s.universe, (e for p in s.paths for e in zip(p, p[1:])))
    order = precedence.topological_order()
    return order is not None, order


class OrderConstraint(enum.Enum):
    NONE = "none"
    FIRST_ARC_BEFORE_RIVER = "first_arc_before_river"
    LAST_ARC_BEFORE_RIVER = "last_arc_before_river"

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"unknown order constraint {value!r}")


@dataclass(frozen=True)
class BridgeWitness:
    k: int
    chain: tuple[int, ...]
    river: int
    arcs: tuple[int, ...]


class _PairIndex:
    """Ordered-pair index of a finished system: per-vertex masks and path
    lists, from which the per-pair facts are derived on demand.

    ``succ[a]`` masks a's successors on all paths. A vertex with a later
    vertex on one path only maps in ``one`` to that path, which holds
    every pair it starts alone. One with a later vertex on two paths or
    more maps in ``many`` to those paths, ascending; ``shared[a]`` masks
    the b whose pair with a lies on two of them or more, and ``feeds[a]``
    the vertices before one a precedes. ``owner``, ``paths_of`` and
    ``sole`` read these, finding a's position on a path with
    ``tuple.index``; a vertex in ``many`` gets a ``{b: path}`` row when
    ``owner`` first asks for it. Sweeping each path A backwards, W
    unites the successors off A of the vertices after a on A; a vertex
    in ``many`` joins ``starts[3]`` if W meets its successors off A, and
    ``starts[4]`` if W meets ``feeds[a]``. ``after`` lists the
    successors of the starts.
    """

    __slots__ = ("paths", "succ", "one", "many", "shared", "feeds", "starts", "after", "_rows")

    def __init__(self, paths: tuple[Path, ...]):
        one: dict[int, int] = {}
        many: dict[int, list[int]] = {}
        pred: dict[int, int] = {}
        # Only a vertex in many gets feeds or can be flagged, so the sweeps
        # below run from the end of each path down to the lowest such vertex.
        lowest: dict[int, int] = {}
        for idx, path in enumerate(paths):
            # a one-vertex path holds no ordered pair
            if len(path) < 2:
                continue
            earlier = 0
            for i in range(len(path) - 1):
                a, b = path[i], path[i + 1]
                earlier |= 1 << a
                pred[b] = pred[b] | earlier if b in pred else earlier
                if a in many:
                    many[a].append(idx)
                elif a in one:
                    q = one.pop(a)
                    many[a] = [q, idx]
                    j = paths[q].index(a)
                    if lowest.get(q, j) >= j:
                        lowest[q] = j
                else:
                    one[a] = idx
                    continue
                lowest.setdefault(idx, i)
        # feeds[a] unites pred over a's successors: one suffix sweep per path,
        # and pred is freed before the successor masks are built
        feeds = dict.fromkeys(many, 0)
        for q, low in lowest.items():
            path, acc = paths[q], 0
            for i in range(len(path) - 1, low, -1):
                acc |= pred[path[i]]
                if path[i - 1] in feeds:
                    feeds[path[i - 1]] |= acc
        del pred
        succ: dict[int, int] = {}
        shared: dict[int, int] = {}
        for path in paths:
            if len(path) < 2:
                continue
            later = 1 << path[-1]
            for a in path[-2::-1]:
                if a in succ:
                    both = succ[a] & later
                    if both:
                        shared[a] = shared.get(a, 0) | both
                    succ[a] |= later
                else:
                    succ[a] = later
                later |= 1 << a
        starts = {3: set(), 4: set()}
        for q, low in lowest.items():
            path = paths[q]
            # off A, only the last vertex and those in many have successors
            w = succ.get(path[-1], 0)
            later = 1 << path[-1]
            for a in reversed(path[low:-1]):
                if a in feeds:
                    # A holds alone the pairs with its later vertices that
                    # are not shared
                    off = succ[a] ^ (later & ~shared[a] if a in shared else later)
                    if w & off:
                        starts[3].add(a)
                    if w & feeds[a]:
                        starts[4].add(a)
                    w |= off
                later |= 1 << a
        self.paths, self.succ, self.one, self.many = paths, succ, one, many
        self.shared, self.feeds, self.starts = shared, feeds, starts
        self.after = {a: list(iter_bits(succ[a])) for a in starts[3] | starts[4]}
        self._rows: dict[int, dict[int, int]] = {}

    def owner(self, a: int, b: int) -> int:
        """The one path holding the pair (a, b), or -1 when two or more do."""
        q = self.one.get(a)
        return q if q is not None else self.row(a)[b]

    def row(self, a: int) -> dict[int, int]:
        """``{b: owner(a, b)}`` for a vertex in ``many``, kept once built."""
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = {}
            for q in self.many[a]:
                path = self.paths[q]
                for b in path[path.index(a) + 1 :]:
                    row[b] = -1 if b in row else q
        return row

    def paths_of(self, a: int, b: int) -> list[int]:
        """The ascending paths holding the pair (a, b)."""
        q = self.one.get(a)
        if q is not None:
            return [q]
        paths = self.paths
        return [q for q in self.many[a] if b in paths[q][paths[q].index(a) + 1 :]]

    def paths_at(self, a: int) -> Sequence[int]:
        """The ascending paths on which a has a later vertex."""
        q = self.one.get(a)
        return (q,) if q is not None else self.many.get(a, ())

    def sole(self, a: int, q: int) -> int:
        """Mask of the b whose pair with a lies on path q alone; 0 for q = -1."""
        alone = self.one.get(a)
        if alone is not None:
            return self.succ[a] if alone == q else 0
        path = self.paths[q] if q >= 0 else ()
        if a not in path:
            return 0
        mask = 0
        for b in path[path.index(a) + 1 :]:
            mask |= 1 << b
        return mask & ~self.shared.get(a, 0)


def _order_ok(constraint: OrderConstraint, arcs, river: int) -> bool:
    """Whether the river sits where the constraint wants it."""
    if constraint is OrderConstraint.FIRST_ARC_BEFORE_RIVER:
        return arcs[0] < river
    if constraint is OrderConstraint.LAST_ARC_BEFORE_RIVER:
        return arcs[-1] < river
    return True


def _assign_roles(
    hop_lists: list[list[int]],
    river_list: list[int],
    constraint: OrderConstraint,
) -> tuple[int, tuple[int, ...]] | None:
    """First valid (river, arcs) assignment, arcs explored in lex order
    and the river chosen last. Roles must be pairwise distinct, and
    every list must be ascending.

    At each arc position the search stops once as many unused
    candidates have failed as there are roles after it, plus one. The
    cut is exact: a solution through a later candidate leaves one of the
    failed ones unused by the later roles, and that one is smaller, so
    swapping it in keeps distinctness and the order constraint.
    """
    k1 = len(hop_lists)
    arcs: list[int] = []
    used: set[int] = set()

    # rec and find_k_bridge's extend get themselves as an argument: one that
    # called itself by name would be a cycle keeping the pair index alive.
    def rec(pos: int, rec) -> tuple[int, tuple[int, ...]] | None:
        if pos == k1:
            for r in river_list:
                if r not in used and _order_ok(constraint, arcs, r):
                    return r, tuple(arcs)
            return None
        tries = k1 - pos + 1
        for cand in hop_lists[pos]:
            if cand in used:
                continue
            used.add(cand)
            arcs.append(cand)
            found = rec(pos + 1, rec)
            if found is not None:
                return found
            arcs.pop()
            used.discard(cand)
            tries -= 1
            if not tries:
                break
        return None

    return rec(0, rec)


def find_k_bridge(
    s: PathSystem,
    k: int,
    order_constraint: OrderConstraint | str = OrderConstraint.NONE,
) -> BridgeWitness | None:
    """Search for a k-bridge. Returns the first witness met when chains
    are enumerated in lexicographic vertex order (restricted to chains
    whose hops occur in some path, others cannot carry a bridge), with
    the arc tuple explored in lex order and the river assigned last.
    Returns None when the system is bridge-free for this k.

    A 2-bridge is a pair held by two paths, so width 2 is read off the
    index: the smallest shared pair, its first path as the arc and its
    second as the river, with no search. Wider chains skip three kinds
    that cannot carry a witness, so the search order and the witness are
    those of the full enumeration: chains from an unflagged start (a
    witness's x_3 is in W as its second hop is off its first arc A, and
    follows x_1 off A or precedes x_4), chains where two roles (hops or
    the river) have the same one-path occurrence list [q], since both
    would have to be q, and candidates none of whose successors can be the
    next chain vertex (it must precede a vertex x_1 precedes, or for the
    last hop follow x_1), tested before any bookkeeping. In a chain with
    no shared pair each role has one path, which the candidate masks
    already keep distinct, so only the order constraint is checked.
    """
    if type(k) is not int or k not in (2, 3, 4):
        raise ParameterError(f"k must be in 2..4, got {k}")
    constraint = OrderConstraint(order_constraint)
    index = s.pair_index
    shared = index.shared
    if k == 2:
        if not shared:
            return None
        a = min(shared)
        b = (shared[a] & -shared[a]).bit_length() - 1
        arc, river = index.paths_of(a, b)[:2]
        return BridgeWitness(k=2, chain=(a, b), river=river, arcs=(arc,))
    succ = index.succ
    one, owner, sole, paths_at = index.one, index.owner, index.sole, index.paths_at

    def try_chain(chain: tuple[int, ...], hops: list[int]) -> BridgeWitness | None:
        arcs = [*hops, owner(chain[-2], chain[-1])]
        river = owner(chain[0], chain[-1])
        if river >= 0 and -1 not in arcs:
            if not _order_ok(constraint, arcs, river):
                return None
        else:
            hop_lists = [index.paths_of(chain[i], chain[i + 1]) for i in range(k - 1)]
            got = _assign_roles(hop_lists, index.paths_of(chain[0], chain[-1]), constraint)
            if got is None:
                return None
            river, arcs = got
        return BridgeWitness(k=k, chain=chain, river=river, arcs=tuple(arcs))

    def candidates(prefix: list[int], used_mask: int, hops: list[int]) -> int:
        """Bitmask of the next chain vertices after ``prefix``, which
        holds two chain vertices or more; ``hops`` holds the path of each
        of its hops, -1 for a shared one."""
        last = prefix[-1]
        alone = one.get(last)
        if alone in hops:
            return 0  # each next hop would be on that path alone
        # the mask cuts first: most candidate sets are empty after them
        to_river = len(prefix) == k - 1
        base = succ.get(last, 0) & ~used_mask & (succ[prefix[0]] if to_river else feeds)
        if alone is None:
            for q in hops:
                if base:
                    base &= ~sole(last, q)
        if not (base and to_river):
            return base
        first = prefix[0]
        for q in hops:
            base &= ~sole(first, q)
        # the last hop and the river may lie on one path alone
        for q in paths_at(last):
            if base and q in first_paths:
                base &= ~(sole(last, q) & sole(first, q))
        return base

    def extend(prefix: list[int], used_mask: int, hops: list[int], nexts, extend):
        depth = len(prefix)
        if depth == k - 1:
            for v in nexts:
                found = try_chain((*prefix, v), hops)
                if found is not None:
                    return found
            return None
        last = prefix[-1]
        # v's own next vertex must lie in cut: it feeds the river, or it
        # closes the chain and so follows x_1
        cut = succ[prefix[0]] if depth == k - 2 else feeds
        alone = one.get(last)
        row = None if alone is not None else index.row(last)
        for v in nexts:
            if not succ.get(v, 0) & cut:
                continue
            hops.append(alone if row is None else row[v])
            prefix.append(v)
            mask = used_mask | (1 << v)
            child = candidates(prefix, mask, hops)
            found = extend(prefix, mask, hops, iter_bits(child), extend) if child else None
            prefix.pop()
            hops.pop()
            if found is not None:
                return found
        return None

    for x1 in sorted(index.starts[k]):
        feeds = index.feeds[x1]
        first_paths = set(paths_at(x1))
        found = extend([x1], 1 << x1, [], index.after[x1], extend)
        if found is not None:
            return found
    return None
