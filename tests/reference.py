"""Reference code the library no longer carries: the witness checker,
path-system reversal, the meeting-order diagnostics, the condensation
edge lift, the two bench grid builders ``bench_grid`` replaced, the
graph container and graph-file reader that kept a set of edge tuples,
the text reader that read every file line by line and the pair-file
reader on top of it, and the strong components search that resumed by
index. Tests import them from here."""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Sequence

from reachkeep.errors import BoundsError, MissingEntryError, ParameterError, ParseError
from reachkeep.graphs import (
    MAX_VERTICES,
    Condensation,
    DirectedGraph,
    Edge,
    bfs_parents,
)
from reachkeep.oracle import InstanceFamily
from reachkeep.pathsystem import BridgeWitness, OrderConstraint, Path, PathSystem, _order_ok
from reachkeep.preserver import GrowthMode
from reachkeep.seeding import split_seed

Row = tuple[int, int, int]  # two ids and the line number they were read from


def reversed_system(s: PathSystem) -> PathSystem:
    """Reverse every path while keeping the path order. Swaps the roles
    of the first-arc and last-arc order constraints."""
    return PathSystem(s.universe, tuple(tuple(reversed(p)) for p in s.paths))


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


def _first_meeting(path2: Path, positions: dict[int, int]) -> tuple[int, int] | None:
    """Earliest position along path2 inside an anchor path, and the
    meeting vertex's position along that anchor."""
    for pos, v in enumerate(path2):
        if v in positions:
            return pos, positions[v]
    return None


def _meetings(s: PathSystem, i1: int, i3: int) -> list[tuple[int, int, int]]:
    """(position on path i1, position on path i3, i2) for each member i2
    of r_set(s, i1, i3), in r_set's order. Warns once, on behalf of
    r_set's caller, when a candidate meets an anchor in several vertices."""
    p = len(s.paths)
    for name, idx in (("i1", i1), ("i3", i3)):
        if not (0 <= idx < p):
            raise BoundsError(f"{name}={idx} outside 0..{p - 1}")
    pos1 = {v: i for i, v in enumerate(s.paths[i1])}
    pos3 = {v: i for i, v in enumerate(s.paths[i3])}
    members: list[tuple[int, int, int]] = []
    warned = False
    for i2 in range(i3 + 1, p):
        if i2 == i1:
            continue
        path2 = s.paths[i2]
        meet1 = _first_meeting(path2, pos1)
        meet3 = _first_meeting(path2, pos3)
        if meet1 is None or meet3 is None:
            continue
        if not warned:
            common1 = sum(1 for v in path2 if v in pos1)
            common3 = sum(1 for v in path2 if v in pos3)
            if common1 > 1 or common3 > 1:
                warnings.warn(
                    "r_set: a candidate path meets an anchor path in more "
                    "than one vertex; using the earliest meeting",
                    stacklevel=3,
                )
                warned = True
        if meet1[0] < meet3[0]:
            members.append((meet1[1], meet3[1], i2))
    members.sort(key=lambda m: (m[0], m[2]))
    return members


def r_set(s: PathSystem, i1: int, i3: int) -> list[int]:
    """Indices i2 of paths after i3 that meet path i1 strictly before
    they meet path i3, sorted by where the meeting with path i1 falls
    along path i1.

    Intended for systems where any two relevant paths meet in at most
    one vertex. When a candidate meets a path in several vertices the
    earliest one along the candidate is used and a warning is issued.
    """
    return [i2 for _, _, i2 in _meetings(s, i1, i3)]


def verify_r_ordering(s: PathSystem, i1: int, i3: int) -> bool:
    """Check the ordering law on r_set(s, i1, i3): meetings with path
    i1 strictly advance along path i1, meetings with path i3 never
    retreat along path i3, and the set is no larger than path i1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        members = _meetings(s, i1, i3)
    if len(members) > len(s.paths[i1]):
        return False
    last1 = last3 = -1
    for a, b, _ in members:
        if a <= last1 or b < last3:
            return False
        last1, last3 = a, b
    return True


def lift_edge(c: Condensation, dag_edge: Edge) -> Edge:
    """Map a condensation edge back to the lexicographically smallest
    original edge crossing the same component pair. A DAG is its own
    condensation and keeps no lift table: its edges lift to themselves."""
    key = (int(dag_edge[0]), int(dag_edge[1]))
    if c.dag is c.graph and key in c.graph:
        return key
    try:
        return c._lift[key]
    except KeyError:
        raise MissingEntryError(f"no dag edge {key} in condensation") from None


def sourcewise_cells(
    ns: Iterable[int],
    s_sizes: Iterable[int],
    pair_factor: int = 20,
    seed: int = 0,
    modes: Iterable[GrowthMode | str] = (GrowthMode.FORWARDS, GrowthMode.BACKWARDS),
    density: float = 0.25,
) -> list[tuple[InstanceFamily, GrowthMode]]:
    """Shared-terminal grid: the restricted side has s_size vertices and
    the stream carries pair_factor demands per shared terminal."""
    cells = []
    for n in ns:
        for s_size in s_sizes:
            for mode in modes:
                mode = GrowthMode(mode)
                side = "sink" if mode is GrowthMode.FORWARDS else "source"
                family = InstanceFamily(
                    kind="sourcewise",
                    n=n,
                    seed=split_seed(seed, "bench", n, s_size, mode.value),
                    density=density,
                    pairs=pair_factor * s_size,
                    s_size=s_size,
                    side=side,
                )
                cells.append((family, mode))
    return cells


# The bench knobs that one kind ignores, with their defaults: s_sizes and
# pair_factor shape sourcewise sweeps only, pair_counts the other kinds.
# Another value where it is ignored would give one sweep two manifest ids.
_BENCH_KNOBS = {"s_sizes": [1, 2, 4], "pair_factor": 20, "pair_counts": [10, 50]}


def _bench_cells(params: dict, seed: int):
    kind = str(params["kind"])
    ignored = ("pair_counts",) if kind == "sourcewise" else ("s_sizes", "pair_factor")
    for key in ignored:
        if params[key] != _BENCH_KNOBS[key]:
            raise ParameterError(f"{kind} does not use {key}, got {key}={params[key]!r}")
    ns = [int(x) for x in params["ns"]]
    modes = [GrowthMode(str(m)) for m in params["modes"]]
    if kind == "sourcewise":
        return sourcewise_cells(
            ns,
            [int(x) for x in params["s_sizes"]],
            pair_factor=int(params["pair_factor"]),
            seed=seed,
            modes=modes,
            density=float(params["density"]),
        )
    cells = []
    for n in ns:
        for p in [int(x) for x in params["pair_counts"]]:
            for mode in modes:
                family = InstanceFamily(
                    kind=kind,
                    n=n,
                    seed=split_seed(seed, "bench", kind, n, p, mode.value),
                    density=float(params["density"]),
                    pairs=p,
                )
                cells.append((family, mode))
    return cells


class ReferenceGraph(DirectedGraph):
    """``DirectedGraph`` as it was built while it stored its edge set:
    a set of edge tuples first, then a sort per vertex for ``_out`` and
    ``_in``. ``edges``, ``edge_count``, ``in``, ``==`` and ``hash`` read
    that set, as they did; every other method is the library's, run on
    the adjacency built here."""

    __slots__ = ("_edges",)

    def __init__(self, n: int, edges: Iterable[Edge]):
        # type(), not isinstance(): a bool is an int
        if type(n) is not int:
            raise BoundsError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise BoundsError(f"vertex count must be >= 0, got {n}")
        if n > MAX_VERTICES:
            raise BoundsError(f"vertex count must be <= {MAX_VERTICES}, got {n}")
        edge_set = set()
        for e in edges:
            u, v = e[0], e[1]
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise BoundsError(f"edge ({u!r}, {v!r}) is not two ints in 0..{n - 1}")
            if u == v:
                raise BoundsError(f"self-loop ({u}, {v}) not allowed")
            edge_set.add((u, v))
        self.n = n
        self._ids = tuple(range(n))  # read by topological_order and condense
        self._edges = frozenset(edge_set)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            out[u].append(v)
            inc[v].append(u)
        self._out = tuple(tuple(sorted(vs)) for vs in out)
        self._in = tuple(tuple(sorted(us)) for us in inc)
        self._topo: tuple[int, ...] | None | bool = False
        self._closure: list[list[int] | None] = [None, None]

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def __contains__(self, e: Edge) -> bool:
        return tuple(e) in self._edges

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))


def reference_read_rows(text: str, header: str, rows_name: str) -> tuple[int | None, list[Row]]:
    """``read_rows`` as it was before it read ``write_rows``' own layout
    in bulk: every text goes through this line loop."""
    count: int | None = None
    rows: list[Row] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if parts[0] == header:
            if count is not None:
                raise ParseError(f"duplicate '{header}' header", line_no)
            if rows:
                raise ParseError(f"'{header}' header must come before {rows_name}", line_no)
            if len(parts) != 2:
                raise ParseError(f"header must be '{header} <count>'", line_no)
            try:
                count = int(parts[1])
            except ValueError:
                raise ParseError(f"bad count {parts[1]!r}", line_no) from None
            if count < 0:
                raise ParseError("count must be >= 0", line_no)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two ids, got {line.strip()!r}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer id in {line.strip()!r}", line_no) from None
        if a < 0 or b < 0:
            raise ParseError(f"negative id in {line.strip()!r}", line_no)
        rows.append((a, b, line_no))
    return count, rows


def reference_load_graph(text: str) -> ReferenceGraph:
    """``load_graph`` as it was when it checked every row in its own
    loop before the constructor checked them again."""
    n, rows = reference_read_rows(text, "n", "edges")
    if n is None:
        n = max((max(u, v) for u, v, _ in rows), default=-1) + 1
    for u, v, line_no in rows:
        if u >= n or v >= n:
            raise ParseError(f"edge ({u}, {v}) outside declared range n={n}", line_no)
        if u == v:
            raise ParseError(f"self-loop ({u}, {v}) not allowed", line_no)
    return ReferenceGraph(n, [(u, v) for u, v, _ in rows])


def reference_parse_pairs(text: str) -> list[tuple[int, int]]:
    """``parse_pairs`` as it was when the reader returned (a, b, line)
    rows: the header's count is checked against the number of rows."""
    count, rows = reference_read_rows(text, "p", "pairs")
    if count is not None and count != len(rows):
        raise ParseError(f"header declared {count} pairs, found {len(rows)}")
    return [(s, t) for s, t, _ in rows]


def reference_condense(g: ReferenceGraph) -> Condensation:
    """``condense`` as it was when its lift loop read ``sorted(g.edges)``;
    the component DAG is a ``ReferenceGraph``."""
    comps = parent_strong_components(g.n, g._out.__getitem__)
    if len(comps) == g.n:
        ids = tuple(range(g.n))
        return Condensation(g, ids, tuple((v,) for v in ids), g, {}, {})
    comps.sort(key=lambda c: c[0])
    component_of = [0] * g.n
    for cid, members in enumerate(comps):
        for v in members:
            component_of[v] = cid
    reps = [members[0] for members in comps]
    out_parent = bfs_parents(g._out, reps, component_of)
    in_parent = bfs_parents(g._in, reps, component_of)
    tree_of: dict[int, tuple[Edge, ...]] = {}
    for cid, members in enumerate(comps):
        if len(members) > 1:
            tree = {e for v in members[1:] for e in ((out_parent[v], v), (v, in_parent[v]))}
            tree_of[cid] = tuple(sorted(tree))
    lift: dict[Edge, Edge] = {}
    for u, v in sorted(g.edges):
        a, b = component_of[u], component_of[v]
        if a != b:
            lift.setdefault((a, b), (u, v))
    dag = ReferenceGraph(len(comps), lift)
    return Condensation(g, tuple(component_of), tuple(tuple(c) for c in comps), dag, tree_of, lift)


def parent_strong_components(n: int, step: Callable[[int], Sequence[int]]) -> list[list[int]]:
    """``graphs._strong_components`` as it was when each work item held
    a resume index into step(v), fetched again on every resume, and an
    ``on_stack`` array marked the open vertices. Kept as the oracle."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            out = step(v)
            while pi < len(out):
                w = out[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return components
