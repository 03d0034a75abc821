"""Directed graphs, reachability, and the strongly-connected reduction.

The reduction replaces an arbitrary digraph by the DAG of its strongly
connected components. Inside each component a pair of BFS trees rooted
at the minimum-id vertex (one on the component's edges, one on the
reversed edges) certifies strong connectivity, so any pair whose
endpoints fall in the same component is preserved by the trees alone
and everything else reduces to the component DAG.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .errors import BoundsError, MissingEntryError, ParseError

Edge = tuple[int, int]


class DirectedGraph:
    """Immutable digraph on vertices 0..n-1. Self-loops are rejected,
    duplicate edges collapse."""

    __slots__ = ("n", "edges", "_out", "_in", "_topo", "_topo_known")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise BoundsError(f"vertex count must be >= 0, got {n}")
        edge_set = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise BoundsError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise BoundsError(f"self-loop ({u}, {v}) not allowed")
            edge_set.add((u, v))
        self.n = n
        self.edges = frozenset(edge_set)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            out[u].append(v)
            inc[v].append(u)
        self._out = tuple(tuple(sorted(vs)) for vs in out)
        self._in = tuple(tuple(sorted(us)) for us in inc)
        self._topo: tuple[int, ...] | None = None
        self._topo_known = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return self._out[u]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._in[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def __contains__(self, e: Edge) -> bool:
        return tuple(e) in self.edges

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise BoundsError(f"vertex {v} outside range 0..{self.n - 1}")

    def topological_order(self) -> tuple[int, ...] | None:
        """Kahn's algorithm with a min-id tie break. None when cyclic."""
        if self._topo_known:
            return self._topo
        import heapq

        indeg = [0] * self.n
        for _, v in self.edges:
            indeg[v] += 1
        heap = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for w in self._out[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        self._topo = tuple(order) if len(order) == self.n else None
        self._topo_known = True
        return self._topo

    @property
    def is_dag(self) -> bool:
        return self.topological_order() is not None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, m={self.edge_count})"


def load_graph(text: str) -> DirectedGraph:
    """Parse the edge-list format.

    Optional header line ``n <count>`` pins the vertex count; otherwise
    it is one past the largest mentioned id. Each remaining line is
    ``tail head``. ``#`` starts a comment, blank lines are skipped.
    """
    declared_n: int | None = None
    raw_edges: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared_n is not None:
                raise ParseError("duplicate 'n' header", line_no)
            if raw_edges:
                raise ParseError("'n' header must come before edges", line_no)
            if len(parts) != 2:
                raise ParseError("header must be 'n <count>'", line_no)
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line_no) from None
            if declared_n < 0:
                raise ParseError("vertex count must be >= 0", line_no)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'tail head', got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", line_no) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", line_no)
        raw_edges.append((u, v, line_no))

    if declared_n is None:
        declared_n = max((max(u, v) for u, v, _ in raw_edges), default=-1) + 1
    for u, v, line_no in raw_edges:
        if u >= declared_n or v >= declared_n:
            raise ParseError(
                f"edge ({u}, {v}) outside declared range n={declared_n}", line_no
            )
        if u == v:
            raise ParseError(f"self-loop ({u}, {v}) not allowed", line_no)
    return DirectedGraph(declared_n, [(u, v) for u, v, _ in raw_edges])


def dump_graph(g: DirectedGraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def reachable_set(g: DirectedGraph, root: int, reverse: bool = False) -> frozenset[int]:
    """Vertices reachable from ``root`` (or reaching it when reverse).
    The root itself is always included."""
    if not (0 <= root < g.n):
        raise BoundsError(f"root {root} outside range 0..{g.n - 1}")
    step = g.in_neighbors if reverse else g.out_neighbors
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in step(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def reaches(g, s: int, t: int) -> bool:
    """Whether t is reachable from s in g, stopping at the first sight
    of t. g is anything with ``out_neighbors``."""
    if s == t:
        return True
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.out_neighbors(u):
                if v == t:
                    return True
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return False


class Condensation:
    """Result of collapsing strong components.

    ``dag`` lives on component ids assigned in increasing order of each
    component's minimum original vertex (so a DAG input keeps identity
    labels). ``in_tree`` and ``out_tree`` hold original edges forming,
    per non-trivial component, a BFS tree into and out of the min-id
    representative. The two trees may share edges, so they are kept
    apart; ``tree_edge_count`` is the 2(|C|-1) accounting and
    ``tree_edges`` the de-duplicated union a preserver actually adds.
    """

    __slots__ = (
        "graph",
        "component_of",
        "components",
        "representative",
        "dag",
        "in_tree",
        "out_tree",
        "_lift",
    )

    def __init__(
        self,
        graph: DirectedGraph,
        component_of: tuple[int, ...],
        components: tuple[tuple[int, ...], ...],
        dag: DirectedGraph,
        in_tree: frozenset[Edge],
        out_tree: frozenset[Edge],
        lift: dict[Edge, Edge],
    ):
        self.graph = graph
        self.component_of = component_of
        self.components = components
        self.representative = tuple(c[0] for c in components)
        self.dag = dag
        self.in_tree = in_tree
        self.out_tree = out_tree
        self._lift = lift

    @property
    def tree_edges(self) -> frozenset[Edge]:
        return self.in_tree | self.out_tree

    @property
    def tree_edge_count(self) -> int:
        return len(self.in_tree) + len(self.out_tree)

    def tree_edges_of(self, comp: int) -> frozenset[Edge]:
        members = set(self.components[comp])
        return frozenset(
            e for e in self.tree_edges if e[0] in members
        )


def _strong_components(g: DirectedGraph) -> list[list[int]]:
    # Iterative Tarjan; neighbor order is sorted so output is reproducible.
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(g.n):
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
            advanced = False
            out = g.out_neighbors(v)
            while pi < len(out):
                w = out[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
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


def _bfs_tree(
    members: list[int], rep: int, step, reverse: bool
) -> set[Edge]:
    """BFS tree over ``members`` from ``rep``; edges stored in original
    orientation. ``step`` yields neighbors inside the component."""
    member_set = set(members)
    seen = {rep}
    queue = deque([rep])
    tree: set[Edge] = set()
    while queue:
        u = queue.popleft()
        for v in step(u):
            if v in member_set and v not in seen:
                seen.add(v)
                tree.add((v, u) if reverse else (u, v))
                queue.append(v)
    if seen != member_set:
        raise AssertionError("component not internally connected")
    return tree


def condense(g: DirectedGraph) -> Condensation:
    comps = _strong_components(g)
    comps.sort(key=lambda c: c[0])
    component_of = [0] * g.n
    for cid, members in enumerate(comps):
        for v in members:
            component_of[v] = cid

    in_tree: set[Edge] = set()
    out_tree: set[Edge] = set()
    for members in comps:
        if len(members) == 1:
            continue
        rep = members[0]
        out_tree |= _bfs_tree(members, rep, g.out_neighbors, reverse=False)
        in_tree |= _bfs_tree(members, rep, g.in_neighbors, reverse=True)

    dag_edges: set[Edge] = set()
    lift: dict[Edge, Edge] = {}
    for u, v in sorted(g.edges):
        a, b = component_of[u], component_of[v]
        if a == b:
            continue
        key = (a, b)
        dag_edges.add(key)
        if key not in lift:  # sorted iteration makes this the lex-min original edge
            lift[key] = (u, v)
    dag = DirectedGraph(len(comps), dag_edges)
    return Condensation(
        g,
        tuple(component_of),
        tuple(tuple(c) for c in comps),
        dag,
        frozenset(in_tree),
        frozenset(out_tree),
        lift,
    )


def lift_edge(c: Condensation, dag_edge: Edge) -> Edge:
    """Map a condensation edge back to the lexicographically smallest
    original edge crossing the same component pair."""
    key = (int(dag_edge[0]), int(dag_edge[1]))
    try:
        return c._lift[key]
    except KeyError:
        raise MissingEntryError(f"no dag edge {key} in condensation") from None
