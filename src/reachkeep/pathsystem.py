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
from collections import Counter
from dataclasses import dataclass
from math import ceil

from .errors import BoundsError, ParameterError, ParseError
from .graphs import DirectedGraph

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

    def degree(self, v: int) -> int:
        """Number of paths containing v."""
        if not (0 <= v < self.universe):
            raise BoundsError(f"vertex {v} outside 0..{self.universe - 1}")
        return sum(1 for p in self.paths if v in p)

    def support(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)


def reversed_system(s: PathSystem) -> PathSystem:
    """Reverse every path while keeping the path order. Swaps the roles
    of the first-arc and last-arc order constraints."""
    return PathSystem(s.universe, tuple(tuple(reversed(p)) for p in s.paths))


def load_path_system(text: str) -> PathSystem:
    universe: int | None = None
    paths: list[Path] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if universe is None:
            if parts[0] != "universe" or len(parts) != 2:
                raise ParseError("expected header 'universe <n>'", line_no)
            try:
                universe = int(parts[1])
            except ValueError:
                raise ParseError(f"bad universe {parts[1]!r}", line_no) from None
            continue
        try:
            path = tuple(int(x) for x in parts)
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", line_no) from None
        paths.append(path)
    if universe is None:
        raise ParseError("missing 'universe <n>' header", 1)
    try:
        return PathSystem(universe, tuple(paths))
    except BoundsError as exc:
        raise ParseError(str(exc)) from None


def dump_path_system(s: PathSystem) -> str:
    lines = [f"universe {s.universe}"]
    lines.extend(" ".join(str(v) for v in p) for p in s.paths)
    return "\n".join(lines) + "\n"


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "BridgeWitness":
        return cls(
            k=int(data["k"]),
            chain=tuple(int(x) for x in data["chain"]),
            river=int(data["river"]),
            arcs=tuple(int(x) for x in data["arcs"]),
        )


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
    if constraint is OrderConstraint.FIRST_ARC_BEFORE_RIVER and not w.arcs[0] < w.river:
        return False
    if constraint is OrderConstraint.LAST_ARC_BEFORE_RIVER and not w.arcs[-1] < w.river:
        return False
    return True


class _PairIndex:
    """Ordered-pair occurrence index over a path prefix.

    For every ordered pair (a, b) that some path contains as a
    subsequence, ``lists[(a, b)]`` holds the ascending path indices
    containing it, and succ/pred expose the pair relation as bitmasks.
    """

    __slots__ = ("lists", "succ", "pred", "count")

    def __init__(self):
        self.lists: dict[tuple[int, int], list[int]] = {}
        self.succ: dict[int, int] = {}
        self.pred: dict[int, int] = {}
        self.count = 0

    def add_path(self, path: Path) -> None:
        idx = self.count
        for i in range(len(path)):
            a = path[i]
            for j in range(i + 1, len(path)):
                b = path[j]
                self.lists.setdefault((a, b), []).append(idx)
                self.succ[a] = self.succ.get(a, 0) | (1 << b)
                self.pred[b] = self.pred.get(b, 0) | (1 << a)
        self.count = idx + 1


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _assign_roles(
    hop_lists: list[list[int]],
    river_list: list[int],
    constraint: OrderConstraint,
) -> tuple[int, tuple[int, ...]] | None:
    """First valid (river, arcs) assignment, arcs explored in lex order
    and the river chosen last. Roles must be pairwise distinct."""
    k1 = len(hop_lists)
    arcs: list[int] = []
    used: set[int] = set()

    def river_ok(r: int) -> bool:
        if r in used:
            return False
        if constraint is OrderConstraint.FIRST_ARC_BEFORE_RIVER:
            return arcs[0] < r
        if constraint is OrderConstraint.LAST_ARC_BEFORE_RIVER:
            return arcs[-1] < r
        return True

    def rec(pos: int) -> tuple[int, tuple[int, ...]] | None:
        if pos == k1:
            for r in river_list:
                if river_ok(r):
                    return r, tuple(arcs)
            return None
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
    """
    if k not in (2, 3, 4):
        raise ParameterError(f"k must be in 2..4, got {k}")
    constraint = OrderConstraint(order_constraint)
    index = _PairIndex()
    for p in s.paths:
        index.add_path(p)
    succ = index.succ
    lists = index.lists

    def try_chain(chain: tuple[int, ...]) -> BridgeWitness | None:
        hop_lists = [lists[(chain[i], chain[i + 1])] for i in range(k - 1)]
        river_list = lists[(chain[0], chain[-1])]
        got = _assign_roles(hop_lists, river_list, constraint)
        if got is None:
            return None
        river, arcs = got
        return BridgeWitness(k=k, chain=chain, river=river, arcs=arcs)

    def extend(prefix: list[int], used_mask: int) -> BridgeWitness | None:
        depth = len(prefix)
        last = prefix[-1]
        base = succ.get(last, 0) & ~used_mask
        if depth == k - 1:
            base &= succ.get(prefix[0], 0)
        for v in _iter_bits(base):
            prefix.append(v)
            if depth == k - 1:
                found = try_chain(tuple(prefix))
            else:
                found = extend(prefix, used_mask | (1 << v))
            prefix.pop()
            if found is not None:
                return found
        return None

    for x1 in sorted(succ):
        found = extend([x1], 1 << x1)
        if found is not None:
            return found
    return None


def _pick_distinct(cands: list[list[int]]) -> tuple[int, ...] | None:
    """System of distinct representatives over small sorted lists."""
    chosen: list[int] = []
    used: set[int] = set()

    def rec(pos: int) -> bool:
        if pos == len(cands):
            return True
        limit = len(cands) + 1
        tried = 0
        for cand in cands[pos]:
            if tried >= limit:
                break
            if cand in used:
                continue
            tried += 1
            used.add(cand)
            chosen.append(cand)
            if rec(pos + 1):
                return True
            chosen.pop()
            used.discard(cand)
        return False

    return tuple(chosen) if rec(0) else None


class BridgeMonitor:
    """Incremental bridge detection for a growing ordered system.

    Appending a path scans only witnesses that involve it. When every
    earlier prefix came back clean this is equivalent to a full scan,
    because a bridge of the extended system either existed before or
    uses the new path in one of its roles.
    """

    def __init__(
        self,
        ks: tuple[int, ...] = (2, 3, 4),
        order_constraint: OrderConstraint | str = OrderConstraint.NONE,
    ):
        for k in ks:
            if k not in (2, 3, 4):
                raise ParameterError(f"k must be in 2..4, got {k}")
        self.ks = tuple(sorted(ks))
        self.constraint = OrderConstraint(order_constraint)
        self._index = _PairIndex()
        self._first_witness: BridgeWitness | None = None

    @property
    def paths_seen(self) -> int:
        return self._index.count

    @property
    def first_witness(self) -> BridgeWitness | None:
        return self._first_witness

    def append(self, path: Path) -> BridgeWitness | None:
        """Scan for bridges involving ``path``, then integrate it."""
        if len(set(path)) != len(path):
            raise BoundsError(f"path repeats a vertex: {path}")
        pairs_t = [
            (path[i], path[j])
            for i in range(len(path))
            for j in range(i + 1, len(path))
        ]
        witness = None
        for k in self.ks:
            witness = self._scan_as_river(k, pairs_t)
            if witness is None:
                witness = self._scan_as_arc(k, pairs_t)
            if witness is not None:
                break
        self._index.add_path(path)
        if witness is not None and self._first_witness is None:
            self._first_witness = witness
        return witness

    # The new path is always the latest, so with it as the river any
    # order constraint holds automatically and every arc is older.
    def _scan_as_river(self, k: int, pairs_t) -> BridgeWitness | None:
        idx = self._index
        t = idx.count
        for x1, xk in pairs_t:
            if k == 2:
                old = idx.lists.get((x1, xk))
                if old:
                    return BridgeWitness(2, (x1, xk), t, (old[0],))
                continue
            blocked = (1 << x1) | (1 << xk)
            mids = idx.succ.get(x1, 0) & ~blocked
            if k == 3:
                mids &= idx.pred.get(xk, 0)
                for x2 in _iter_bits(mids):
                    arcs = _pick_distinct(
                        [idx.lists[(x1, x2)], idx.lists[(x2, xk)]]
                    )
                    if arcs:
                        return BridgeWitness(3, (x1, x2, xk), t, arcs)
                continue
            for x2 in _iter_bits(mids):
                third = (
                    idx.succ.get(x2, 0)
                    & idx.pred.get(xk, 0)
                    & ~(blocked | (1 << x2))
                )
                for x3 in _iter_bits(third):
                    arcs = _pick_distinct(
                        [
                            idx.lists[(x1, x2)],
                            idx.lists[(x2, x3)],
                            idx.lists[(x3, xk)],
                        ]
                    )
                    if arcs:
                        return BridgeWitness(4, (x1, x2, x3, xk), t, arcs)
        return None

    def _scan_as_arc(self, k: int, pairs_t) -> BridgeWitness | None:
        idx = self._index
        t = idx.count
        for arc_pos in range(1, k):
            if self.constraint is OrderConstraint.FIRST_ARC_BEFORE_RIVER and arc_pos == 1:
                continue  # would need the new path earlier than the river
            if self.constraint is OrderConstraint.LAST_ARC_BEFORE_RIVER and arc_pos == k - 1:
                continue
            for u, v in pairs_t:
                witness = self._complete_arc_chain(k, arc_pos, u, v, t)
                if witness is not None:
                    return witness
        return None

    def _complete_arc_chain(
        self, k: int, arc_pos: int, u: int, v: int, t: int
    ) -> BridgeWitness | None:
        idx = self._index
        left_hops = arc_pos - 1
        right_hops = k - 1 - arc_pos

        def lefts(prefix: list[int], mask: int):
            if len(prefix) == left_hops:
                yield list(reversed(prefix))
                return
            for w in _iter_bits(idx.pred.get(prefix[-1] if prefix else u, 0) & ~mask):
                prefix.append(w)
                yield from lefts(prefix, mask | (1 << w))
                prefix.pop()

        def rights(prefix: list[int], mask: int):
            if len(prefix) == right_hops:
                yield list(prefix)
                return
            for w in _iter_bits(idx.succ.get(prefix[-1] if prefix else v, 0) & ~mask):
                prefix.append(w)
                yield from rights(prefix, mask | (1 << w))
                prefix.pop()

        base_mask = (1 << u) | (1 << v)
        for left in lefts([], base_mask):
            lmask = base_mask
            for w in left:
                lmask |= 1 << w
            for right in rights([], lmask):
                chain = tuple(left) + (u, v) + tuple(right)
                witness = self._assign_with_new_arc(k, arc_pos, chain, t)
                if witness is not None:
                    return witness
        return None

    def _assign_with_new_arc(
        self, k: int, arc_pos: int, chain: tuple[int, ...], t: int
    ) -> BridgeWitness | None:
        idx = self._index
        river_list = idx.lists.get((chain[0], chain[-1]))
        if not river_list:
            return None
        other_lists: list[tuple[int, list[int]]] = []
        for j in range(1, k):
            if j == arc_pos:
                continue
            hop = idx.lists.get((chain[j - 1], chain[j]))
            if not hop:
                return None
            other_lists.append((j, hop))

        ineq_pos: int | None = None
        if self.constraint is OrderConstraint.FIRST_ARC_BEFORE_RIVER:
            ineq_pos = 1
        elif self.constraint is OrderConstraint.LAST_ARC_BEFORE_RIVER:
            ineq_pos = k - 1
        if ineq_pos == arc_pos:
            ineq_pos = None  # filtered earlier, defensive

        # Bounded complete search: the constrained arc can stay among
        # its smallest few candidates and the river among its largest
        # few; any valid assignment can be swapped into those slices
        # without breaking distinctness or the inequality.
        span = k + 1
        river_cands = river_list[-span:][::-1]
        arcs_map: dict[int, int] = {}
        used: set[int] = set()

        def rec(pos: int) -> BridgeWitness | None:
            if pos == len(other_lists):
                for r in river_cands:
                    if r in used:
                        continue
                    if ineq_pos is not None and not arcs_map[ineq_pos] < r:
                        continue
                    arcs = tuple(
                        t if j == arc_pos else arcs_map[j] for j in range(1, k)
                    )
                    return BridgeWitness(k, chain, r, arcs)
                return None
            j, hop = other_lists[pos]
            cands = hop[:span] if j == ineq_pos else hop
            tried = 0
            for cand in cands:
                if j != ineq_pos and tried >= span:
                    break
                if cand in used:
                    continue
                tried += 1
                used.add(cand)
                arcs_map[j] = cand
                found = rec(pos + 1)
                if found is not None:
                    return found
                del arcs_map[j]
                used.discard(cand)
            return None

        return rec(0)


def clean(s: PathSystem) -> PathSystem:
    """Regularize a system around its input averages.

    With d the input average degree over vertices that occur and l the
    input average path length, repeatedly: drop vertices of degree
    below d/4 and paths shorter than l/4, split vertices of degree
    above d into two copies taking alternating occurrences in path
    order, and split paths longer than l into balanced halves. The
    result keeps degrees within [d/4, 4d], lengths within [l/4, 4l],
    and at least half the original size.
    """
    if not s.paths:
        raise ParameterError("clean requires a nonempty system")
    original_size = s.size()
    paths: list[list[int]] = [list(p) for p in s.paths]
    support = {v for p in paths for v in p}
    d = original_size / len(support)
    ell = original_size / len(paths)
    next_id = s.universe

    def degrees() -> Counter:
        deg: Counter = Counter()
        for p in paths:
            for v in p:
                deg[v] += 1
        return deg

    while True:
        changed = False

        # deletion fixpoint
        while True:
            deg = degrees()
            doomed = {v for v, c in deg.items() if c < d / 4}
            step = False
            if doomed:
                paths = [[v for v in p if v not in doomed] for p in paths]
                step = True
            kept = [p for p in paths if len(p) >= ell / 4]
            if len(kept) != len(paths):
                step = True
            paths = kept
            if not step:
                break
            changed = True

        # node splits, alternating occurrences in path order
        while True:
            deg = degrees()
            heavy = sorted(v for v, c in deg.items() if c > d)
            if not heavy:
                break
            changed = True
            for v in heavy:
                copy = next_id
                next_id += 1
                occurrence = 0
                for p in paths:
                    for pos, w in enumerate(p):
                        if w == v:
                            if occurrence % 2 == 1:
                                p[pos] = copy
                            occurrence += 1

        # path splits into balanced halves, in order
        split_out: list[list[int]] = []

        def emit(q: list[int]) -> None:
            if len(q) <= ell:
                split_out.append(q)
                return
            half = ceil(len(q) / 2)
            emit(q[:half])
            emit(q[half:])

        before = len(paths)
        for p in paths:
            emit(p)
        if len(split_out) != before:
            changed = True
        paths = split_out

        if not changed:
            break

    out = PathSystem(next_id, tuple(tuple(p) for p in paths))
    deg = Counter(v for p in out.paths for v in p)
    for v, c in deg.items():
        if not (d / 4 <= c <= 4 * d):
            raise AssertionError(f"degree {c} of vertex {v} left [d/4, 4d]")
    for p in out.paths:
        if not (ell / 4 <= len(p) <= 4 * ell):
            raise AssertionError(f"length {len(p)} left [l/4, 4l]")
    if out.size() < original_size / 2:
        raise AssertionError("cleaning lost more than half the size")
    return out


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
