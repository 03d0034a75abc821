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
import warnings
from dataclasses import dataclass
from functools import cached_property

from .errors import BoundsError, ParameterError
from .graphs import DirectedGraph, iter_bits

Path = tuple[int, ...]


@dataclass(frozen=True)
class PathSystem:
    universe: int
    paths: tuple[Path, ...]

    def __post_init__(self):
        if self.universe < 0:
            raise BoundsError(f"universe must be >= 0, got {self.universe}")
        for idx, path in enumerate(self.paths):
            if len(path) == 0:
                raise BoundsError(f"path {idx} is empty")
            if len(set(path)) != len(path):
                raise BoundsError(f"path {idx} repeats a vertex: {path}")
            for v in path:
                if not (0 <= v < self.universe):
                    raise BoundsError(
                        f"path {idx} uses vertex {v} outside 0..{self.universe - 1}"
                    )

    def size(self) -> int:
        """Total number of vertex instances across all paths."""
        return sum(len(p) for p in self.paths)

    @cached_property
    def pair_index(self) -> _PairIndex:
        """Ordered-pair index of all paths, built on first use and kept;
        every ``find_k_bridge`` call on this system reads it."""
        return _PairIndex(self.paths)


def reversed_system(s: PathSystem) -> PathSystem:
    """Reverse every path while keeping the path order. Swaps the roles
    of the first-arc and last-arc order constraints."""
    return PathSystem(s.universe, tuple(tuple(reversed(p)) for p in s.paths))


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

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "chain": list(self.chain),
            "river": self.river,
            "arcs": list(self.arcs),
        }


def _contains_before(path: Path, a: int, b: int) -> bool:
    seen_a = False
    for v in path:
        if v == a:
            seen_a = True
        elif v == b:
            return seen_a
    return False


def validate_witness(
    s: PathSystem, w: BridgeWitness, order_constraint: OrderConstraint | str = OrderConstraint.NONE
) -> bool:
    """Re-check a witness against the system it came from."""
    constraint = OrderConstraint(order_constraint)
    if w.k != len(w.chain) or w.k != len(w.arcs) + 1:
        return False
    if len(set(w.chain)) != w.k:
        return False
    roles = (w.river,) + w.arcs
    if len(set(roles)) != len(roles):
        return False
    if any(not (0 <= i < len(s.paths)) for i in roles):
        return False
    if not _contains_before(s.paths[w.river], w.chain[0], w.chain[-1]):
        return False
    for i, arc in enumerate(w.arcs):
        if not _contains_before(s.paths[arc], w.chain[i], w.chain[i + 1]):
            return False
    return _order_ok(constraint, w.arcs, w.river)


class _PairIndex:
    """Ordered-pair index of a finished system, built in one pass.

    For every ordered pair (a, b) that some path contains as a
    subsequence, ``owner[(a, b)]`` is the smallest path holding it, and
    ``shared[(a, b)]`` lists the paths holding it in ascending order
    when there are two or more. succ/pred expose the pair relation as
    bitmasks and ``after[a]`` lists a's successors in ascending order.
    ``sole[a][q]`` is the bitmask of the vertices b whose pair (a, b)
    lies on path q and on no other.
    """

    __slots__ = ("owner", "shared", "succ", "pred", "after", "sole")

    def __init__(self, paths: tuple[Path, ...]):
        owner: dict[tuple[int, int], int] = {}
        shared: dict[tuple[int, int], list[int]] = {}
        succ: dict[int, int] = {}
        pred: dict[int, int] = {}
        sole: dict[int, dict[int, int]] = {}
        for idx, path in enumerate(paths):
            earlier = 0
            for b in path:
                if earlier:
                    pred[b] = pred.get(b, 0) | earlier
                earlier |= 1 << b
            later = 0
            for i in range(len(path) - 1, -1, -1):
                a = path[i]
                if later:
                    succ[a] = succ.get(a, 0) | later
                    sole.setdefault(a, {})[idx] = later
                    for b in path[i + 1 :]:
                        q = owner.setdefault((a, b), idx)
                        if q != idx:
                            shared.setdefault((a, b), [q]).append(idx)
                later |= 1 << a
        # a shared pair is on no path alone: clear it from each of its paths
        for (a, b), qs in shared.items():
            groups = sole[a]
            for q in qs:
                groups[q] ^= 1 << b
                if not groups[q]:
                    del groups[q]
            if not groups:
                del sole[a]
        after: dict[int, list[int]] = {}
        for a, b in owner:
            after.setdefault(a, []).append(b)
        for bs in after.values():
            bs.sort()
        self.owner, self.shared, self.succ, self.pred = owner, shared, succ, pred
        self.after, self.sole = after, sole

    def paths_of(self, pair: tuple[int, int]) -> list[int]:
        """The ascending paths holding ``pair``."""
        return self.shared.get(pair) or [self.owner[pair]]


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

    def rec(pos: int) -> tuple[int, tuple[int, ...]] | None:
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
            found = rec(pos + 1)
            if found is not None:
                return found
            arcs.pop()
            used.discard(cand)
            tries -= 1
            if not tries:
                break
        return None

    return rec(0)


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
    second as the river, with no search. Wider chains skip two kinds
    that cannot carry a witness, so the search order and the witness
    are those of the full enumeration: chains where two roles (hops or
    the river) have the same one-path occurrence list [q], since both
    would have to be q, and candidates none of whose successors can be
    the next chain vertex (it must precede a vertex x_1 precedes, or
    for the last hop follow x_1), tested before any bookkeeping. In a
    chain with no shared pair each role has one path, which the
    candidate masks already keep distinct, so only the order
    constraint is checked.
    """
    if type(k) is not int or k not in (2, 3, 4):
        raise ParameterError(f"k must be in 2..4, got {k}")
    constraint = OrderConstraint(order_constraint)
    index = s.pair_index
    owner = index.owner
    shared = index.shared
    if k == 2:
        if not shared:
            return None
        pair = min(shared)
        arc, river = shared[pair][:2]
        return BridgeWitness(k=2, chain=pair, river=river, arcs=(arc,))
    succ = index.succ
    pred = index.pred
    sole = index.sole
    no_groups: dict[int, int] = {}

    def try_chain(chain: tuple[int, ...]) -> BridgeWitness | None:
        pairs = [(chain[i], chain[i + 1]) for i in range(k - 1)]
        pairs.append((chain[0], chain[-1]))
        if shared.keys().isdisjoint(pairs):
            *arcs, river = map(owner.__getitem__, pairs)
            if not _order_ok(constraint, arcs, river):
                return None
        else:
            got = _assign_roles(
                [index.paths_of(p) for p in pairs[:-1]], index.paths_of(pairs[-1]), constraint
            )
            if got is None:
                return None
            river, arcs = got
        return BridgeWitness(k=k, chain=chain, river=river, arcs=tuple(arcs))

    def candidates(prefix: list[int], used_mask: int, taken: list[int]) -> int:
        """Bitmask of the next chain vertices after ``prefix``, which
        holds two chain vertices or more; ``taken`` holds the paths of
        its one-path hops."""
        last = prefix[-1]
        base = succ.get(last, 0) & ~used_mask
        groups = sole.get(last, no_groups)
        for q in taken:
            base &= ~groups.get(q, 0)
        if len(prefix) == k - 2:
            base &= feeds
        else:
            first = prefix[0]
            base &= succ[first]
            river_groups = sole.get(first, no_groups)
            for q in taken:
                base &= ~river_groups.get(q, 0)
            # the last hop and the river may share one one-path list
            for v in iter_bits(base):
                hop, river = (last, v), (first, v)
                if hop not in shared and river not in shared and owner[hop] == owner[river]:
                    base ^= 1 << v
        return base

    def extend(prefix: list[int], used_mask: int, taken: list[int], nexts) -> BridgeWitness | None:
        depth = len(prefix)
        if depth == k - 1:
            for v in nexts:
                found = try_chain((*prefix, v))
                if found is not None:
                    return found
            return None
        last = prefix[-1]
        # v's own next vertex must lie in cut: it feeds the river, or it
        # closes the chain and so follows x_1
        cut = succ[prefix[0]] if depth == k - 2 else feeds
        for v in nexts:
            if not succ.get(v, 0) & cut:
                continue
            hop = (last, v)
            one = hop not in shared
            if one:
                taken.append(owner[hop])
            prefix.append(v)
            mask = used_mask | (1 << v)
            child = candidates(prefix, mask, taken)
            found = extend(prefix, mask, taken, iter_bits(child)) if child else None
            prefix.pop()
            if one:
                taken.pop()
            if found is not None:
                return found
        return None

    after = index.after
    for x1 in sorted(after):
        if k == 4:
            # the vertices that precede some vertex x1 precedes
            feeds = 0
            for b in after[x1]:
                feeds |= pred[b]
        found = extend([x1], 1 << x1, [], after[x1])
        if found is not None:
            return found
    return None


def _first_meeting(path2: Path, other: set[int]) -> tuple[int, int] | None:
    """Earliest (position, vertex) of path2 inside ``other``."""
    for pos, v in enumerate(path2):
        if v in other:
            return pos, v
    return None


def r_set(s: PathSystem, i1: int, i3: int) -> list[int]:
    """Indices i2 of paths after i3 that meet path i1 strictly before
    they meet path i3, sorted by where the meeting with path i1 falls
    along path i1.

    Intended for systems where any two relevant paths meet in at most
    one vertex. When a candidate meets a path in several vertices the
    earliest one along the candidate is used and a warning is issued.
    """
    p = len(s.paths)
    for name, idx in (("i1", i1), ("i3", i3)):
        if not (0 <= idx < p):
            raise BoundsError(f"{name}={idx} outside 0..{p - 1}")
    set1 = set(s.paths[i1])
    set3 = set(s.paths[i3])
    pos1 = {v: i for i, v in enumerate(s.paths[i1])}
    members: list[tuple[int, int]] = []  # (position along path i1, i2)
    warned = False
    for i2 in range(i3 + 1, p):
        if i2 == i1:
            continue
        path2 = s.paths[i2]
        meet1 = _first_meeting(path2, set1)
        meet3 = _first_meeting(path2, set3)
        if meet1 is None or meet3 is None:
            continue
        if not warned:
            common1 = sum(1 for v in path2 if v in set1)
            common3 = sum(1 for v in path2 if v in set3)
            if common1 > 1 or common3 > 1:
                warnings.warn(
                    "r_set: a candidate path meets an anchor path in more "
                    "than one vertex; using the earliest meeting",
                    stacklevel=2,
                )
                warned = True
        if meet1[0] < meet3[0]:
            members.append((pos1[meet1[1]], i2))
    members.sort()
    return [i2 for _, i2 in members]


def verify_r_ordering(s: PathSystem, i1: int, i3: int) -> bool:
    """Check the ordering law on r_set(s, i1, i3): meetings with path
    i1 strictly advance along path i1, meetings with path i3 never
    retreat along path i3, and the set is no larger than path i1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        members = r_set(s, i1, i3)
    if len(members) > len(s.paths[i1]):
        return False
    set1 = set(s.paths[i1])
    set3 = set(s.paths[i3])
    pos1 = {v: i for i, v in enumerate(s.paths[i1])}
    pos3 = {v: i for i, v in enumerate(s.paths[i3])}
    last1 = -1
    last3 = -1
    for i2 in members:
        path2 = s.paths[i2]
        meet1 = _first_meeting(path2, set1)
        meet3 = _first_meeting(path2, set3)
        assert meet1 is not None and meet3 is not None
        a = pos1[meet1[1]]
        b = pos3[meet3[1]]
        if a <= last1:
            return False
        if b < last3:
            return False
        last1 = a
        last3 = b
    return True
