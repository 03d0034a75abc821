"""Directed graphs, reachability, and the strongly-connected reduction.

The reduction replaces an arbitrary digraph by the DAG of its strongly
connected components. Inside each component a pair of BFS trees rooted
at the minimum-id vertex (one on the component's edges, one on the
reversed edges) certifies strong connectivity, so any pair whose
endpoints fall in the same component is preserved by the trees alone
and everything else reduces to the component DAG.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NoReturn

from .errors import BoundsError, ParseError

Edge = tuple[int, int]
Row = tuple[int, int, int]  # two ids and the line number they were read from

# Building a graph peaks at about 81 bytes per vertex before its edges
# (a list per vertex, then tuples), so at this cap even an edgeless graph
# read from a 9-byte header stays under about 90 MB.
MAX_VERTICES = 1 << 20


class DirectedGraph:
    """Immutable digraph on vertices 0..n-1. Self-loops are rejected,
    duplicate edges collapse."""

    __slots__ = ("n", "edge_count", "_out", "_in", "_topo", "_closure")

    def __init__(self, n: int, edges: Iterable[Edge]):
        # type(), not isinstance(): a bool is an int
        if type(n) is not int:
            raise BoundsError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise BoundsError(f"vertex count must be >= 0, got {n}")
        if n > MAX_VERTICES:
            raise BoundsError(f"vertex count must be <= {MAX_VERTICES}, got {n}")
        out: list[list[int]] = [[] for _ in range(n)]
        for e in edges:  # only e[0] and e[1] are read, so a (u, v, line) row is an edge
            u, v = e[0], e[1]
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise BoundsError(f"edge ({u!r}, {v!r}) is not two ints in 0..{n - 1}")
            if u == v:
                raise BoundsError(f"self-loop ({u}, {v}) not allowed")
            out[u].append(v)
        self.n = n
        self._out = tuple(tuple(sorted(set(vs))) for vs in out)
        del out  # the head lists go before the in-lists are built
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, vs in enumerate(self._out):  # ascending tails, so each in-list comes out sorted
            for v in vs:
                inc[v].append(u)
        self._in = tuple(map(tuple, inc))
        self.edge_count = sum(map(len, self._out))
        self._topo: tuple[int, ...] | None | bool = False  # False until computed, None when cyclic
        self._closure: list[list[int] | None] = [None, None]

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built from the adjacency on each read."""
        return frozenset((u, v) for u, vs in enumerate(self._out) for v in vs)

    # The accessors sit on every search's inner loop and reach_mask on
    # every growth call, so they call check_vertices only once the
    # inline test has failed.
    def out_neighbors(self, u: int) -> tuple[int, ...]:
        if not 0 <= u < self.n:
            check_vertices(self.n, u)
        return self._out[u]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            check_vertices(self.n, v)
        return self._in[v]

    def __contains__(self, e: Edge) -> bool:
        return 0 <= e[0] < self.n and e[1] in self._out[e[0]]

    def topological_order(self) -> tuple[int, ...] | None:
        """Kahn's algorithm with a min-id tie break. None when cyclic."""
        if self._topo is not False:
            return self._topo
        indeg = list(map(len, self._in))
        heap = [v for v in range(self.n) if indeg[v] == 0]  # ascending, so a heap
        order: list[int] = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for w in self._out[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        self._topo = tuple(order) if len(order) == self.n else None
        return self._topo

    @property
    def is_dag(self) -> bool:
        return self.topological_order() is not None

    def reach_mask(self, v: int, reverse: bool = False) -> int:
        """Bitset of the vertices reachable from v (reaching v when
        reverse), v included: bit u is set for each such u. Any digraph.

        The first call per direction builds that direction's closure in
        one pass and keeps it, at most n*n/8 bytes (0.5 MB at n=2000):
        over the cached topological order on a DAG, otherwise over the
        strong components, whose members share one mask.
        ``reachable_set`` is the BFS reference."""
        if not 0 <= v < self.n:
            check_vertices(self.n, v)
        masks = self._closure[reverse]
        if masks is None:
            step = self._in if reverse else self._out
            masks = [0] * self.n
            order = self.topological_order()
            if order is not None:
                # Every neighbour on the step side comes earlier in this order.
                for u in order if reverse else reversed(order):
                    mask = 1 << u
                    for w in step[u]:
                        mask |= masks[w]
                    masks[u] = mask
            else:
                # Sinks first: step-side neighbours outside a component come earlier.
                comps = _strong_components(self.n, self._out.__getitem__)
                for comp in reversed(comps) if reverse else comps:
                    mask = 0
                    for u in comp:
                        mask |= 1 << u
                        for w in step[u]:
                            mask |= masks[w]
                    for u in comp:
                        masks[u] = mask
            self._closure[reverse] = masks
        return masks[v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectedGraph) and self._out == other._out

    def __hash__(self) -> int:
        return hash(self._out)

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, m={self.edge_count})"


def check_vertices(n: int, *vertices: int) -> None:
    """Raise BoundsError unless every vertex is in 0..n-1."""
    for v in vertices:
        if not 0 <= v < n:
            raise BoundsError(f"vertex {v} outside range 0..{n - 1}")


def read_rows(text: str, header: str, rows_name: str) -> tuple[int | None, list[Row]]:
    """Parse the text format graph and pair files share: an optional
    ``<header> <count>`` line before any row, then rows of two
    non-negative integers; ``#`` starts a comment, blank lines are
    skipped. Returns the count (None without a header) and the rows as
    (a, b, line number). ``write_rows``' own layout is read in bulk, any
    other text line by line; each failure is a ParseError with its line."""
    # (?a): ASCII digits only, and 19 of them stay far below int's digit limit
    if bulk := re.fullmatch(rf"(?a){header} (\d{{1,19}})\n(?:\d{{1,19}}[ \t]+\d{{1,19}}\n)*", text):
        ids = map(int, text.split()[2:])  # one iterator, read twice per row
        return int(bulk[1]), list(zip(ids, ids, range(2, text.count("\n") + 1)))
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


def write_rows(header: str, count: int, rows: Iterable[Edge]) -> str:
    """The text ``read_rows`` reads back: the header line, then the rows."""
    return "".join([f"{header} {count}\n"] + [f"{a} {b}\n" for a, b in rows])


def load_graph(text: str) -> DirectedGraph:
    """Parse a graph file: rows are ``tail head`` edges and the optional
    header ``n <count>`` pins the vertex count; without it the count is
    one past the largest id."""
    n, rows = read_rows(text, "n", "edges")
    if n is None:
        n = max((max(u, v) for u, v, _ in rows), default=-1) + 1
    try:
        return DirectedGraph(n, rows)
    except BoundsError:
        # The first bad row, in file order, outranks a vertex count above MAX_VERTICES.
        for u, v, line_no in rows:
            if u >= n or v >= n:
                raise ParseError(f"edge ({u}, {v}) outside declared range n={n}", line_no) from None
            if u == v:
                raise ParseError(f"self-loop ({u}, {v}) not allowed", line_no) from None
        raise


def dump_graph(g: DirectedGraph) -> str:
    return write_rows("n", g.n, sorted(g.edges))


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse a demand file: rows are ``s t`` pairs, and the optional
    header ``p <count>`` must match the number of pairs."""
    count, rows = read_rows(text, "p", "pairs")
    if count is not None and count != len(rows):
        raise ParseError(f"header declared {count} pairs, found {len(rows)}")
    return [(s, t) for s, t, _ in rows]


def format_pairs(pairs: list[tuple[int, int]]) -> str:
    return write_rows("p", len(pairs), pairs)


def bfs_parents(
    adj: Sequence[Sequence[int]],
    roots: Iterable[int],
    comp: Sequence[int] | None = None,
    goal: int | None = None,
) -> list[int]:
    """Breadth-first search from every root at once along ``adj[u]``,
    the neighbours of u; with ``comp`` (vertex -> component id), only
    along edges inside one component. Returns the parent list: the
    vertex each vertex was first reached from, a root itself, -1 when
    not reached. Without ``comp``, a ``goal`` stops the search once it
    is reached; the parents on its chain to a root are those of the
    full search. The library's one BFS, level by level in one list."""
    parent = [-1] * len(adj)
    queue = list(roots)
    for r in queue:
        parent[r] = r
    if comp is None:
        for u in queue:
            for v in adj[u]:
                if parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
                    if v == goal:
                        return parent
    else:
        for u in queue:
            c = comp[u]
            for v in adj[u]:
                if parent[v] < 0 and comp[v] == c:
                    parent[v] = u
                    queue.append(v)
    return parent


def reachable_set(g: DirectedGraph, root: int, reverse: bool = False) -> frozenset[int]:
    """Vertices reachable from ``root`` (or reaching it when reverse).
    The root itself is always included. g is anything with ``n`` and
    ``out_neighbors`` / ``in_neighbors``, an ``EdgeStore`` too. The BFS
    reference only: the library reads ``DirectedGraph.reach_mask``."""
    check_vertices(g.n, root)
    step = g.in_neighbors if reverse else g.out_neighbors
    parent = bfs_parents(list(map(step, range(g.n))), (root,))
    return frozenset(v for v, u in enumerate(parent) if u >= 0)


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IncrementalClosure:
    """Insert-only edge set on vertices 0..n-1 with its exact
    transitive closure, so ``reaches`` is at most three bit tests.

    Each strong component of the edges added so far keeps one bitset of
    the vertices it reaches and one of the vertices reaching it; a
    one-vertex component stores neither while that set is itself. Adding
    (u, v) ORs v's descendants into the ancestors of u that do not reach
    v yet, and u's ancestors into the descendants of v that u does not
    reach yet; when v already reached u, the components on the new cycle
    are contracted into one. ``add_all`` inserts a batch: each strong
    component of the batch's own edges is merged in one such step, and
    the other edges go through ``add``. At most 2*n*n/8 bytes of
    bitsets.

    The hub is the representative of the largest strong component with
    two or more vertices; there is none while every component is one
    vertex, so a DAG never has one. The hub stores its two sets whole.
    Any other stored set that holds the hub's bit may leave out what the
    hub's set of the same direction holds: its full set is ``stored |
    hub's set``. So when the hub reaches the tail of a new edge, one OR
    into the hub's descendants covers all of the hub's ancestors, and
    when the head reaches the hub, one OR into the hub's ancestors covers
    all of its descendants. A contraction with the hub on its cycle keeps
    the hub as representative. A contraction that makes another
    component strictly larger than the hub's first ORs the hub's sets
    into every stored set holding its bit, and then that component's
    representative becomes the hub."""

    __slots__ = ("n", "edges", "_comp", "_members", "_reps", "_desc", "_anc", "_hub")

    def __init__(self, n: int):
        self.n = n
        self.edges: set[Edge] = set()
        self._comp = list(range(n))  # vertex -> representative of its component
        self._members: dict[int, list[int]] = {}  # non-singleton components only
        self._reps = (1 << n) - 1  # bitset of the representatives
        self._desc: dict[int, int] = {}
        self._anc: dict[int, int] = {}
        self._hub = n  # n while there is no hub: no set holds bit n

    def _reject(self, u: int, v: int) -> NoReturn:
        raise BoundsError(f"edge ({u!r}, {v!r}) is a self-loop or outside 0..{self.n - 1}")

    def _sets(self, r: int) -> tuple[int, int]:
        """The full descendant and ancestor sets of component r."""
        hub, bit = self._hub, 1 << r
        desc, anc = self._desc.get(r, bit), self._anc.get(r, bit)
        if desc >> hub & 1:
            desc |= self._desc[hub]
        if anc >> hub & 1:
            anc |= self._anc[hub]
        return desc, anc

    def add(self, edge: Edge) -> bool:
        """Insert edge; False when it was present with the same int ends."""
        if edge in self.edges and type(edge[0]) is int and type(edge[1]) is int:
            return False
        u, v = edge
        n = self.n
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n) or u == v:
            self._reject(u, v)
        self.edges.add(edge)
        desc_a, anc_a = self._sets(self._comp[u])
        if desc_a >> v & 1:
            return True
        desc_b, anc_b = self._sets(self._comp[v])
        reps = self._reps
        # The components on a v-to-u path, u's and v's included, close a
        # cycle with the new edge; they get one bitset pair in _contract.
        cycle = desc_b & anc_a & reps if desc_b >> u & 1 else 0
        up = anc_a & ~anc_b & reps & ~cycle
        self._join(up, desc_b & ~desc_a & reps & ~cycle, desc_b, anc_a, cycle)
        return True

    def add_all(self, edges: Iterable[Edge]) -> int:
        """Insert every edge and return how many were new; the edges,
        the closure and the count are those of ``sum(map(self.add,
        edges))`` on int ids. Every edge is checked before anything
        changes, even one equal to an edge present or earlier in the batch.

        The vertices of a strong component of the batch's edges, those
        already present included, reach one another once the batch is
        in, so that component is merged in one step instead of one
        closure update per edge. Every other edge goes through ``add``."""
        batch = list(edges)
        n = self.n
        for u, v in batch:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n) or u == v:
                self._reject(u, v)
        batch = list(dict.fromkeys(batch))
        vertex = list({w for e in batch for w in e})
        rest, new = batch, 0
        # Speed rule only, since add is exact on its own: a batch with
        # fewer edges than endpoints (every firstT and thin route, most
        # hit routes) rarely closes a cycle, and the search would cost
        # more than it saves.
        if len(batch) >= len(vertex):
            local = {w: i for i, w in enumerate(vertex)}  # endpoint -> 0..k-1
            out: list[list[int]] = [[] for _ in vertex]
            for u, v in batch:
                out[local[u]].append(local[v])
            label = [0] * len(vertex)
            for i, members in enumerate(_strong_components(len(vertex), out.__getitem__)):
                if len(members) > 1:
                    self._merge([vertex[j] for j in members])
                for j in members:
                    label[j] = i
            rest = []
            for e in batch:
                if label[local[e[0]]] != label[local[e[1]]]:
                    rest.append(e)
                elif e not in self.edges:
                    self.edges.add(e)
                    new += 1
        return new + sum(map(self.add, rest))

    def _merge(self, vertices: list[int]) -> None:
        """Make the given vertices one strong component, as edges
        joining them into one cycle would."""
        comp, reps = self._comp, self._reps
        group = {comp[v] for v in vertices}
        if len(group) == 1:
            return
        desc_all = anc_all = 0
        for r in group:
            desc, anc = self._sets(r)
            desc_all |= desc
            anc_all |= anc
        cycle = desc_all & anc_all & reps
        self._join(anc_all & reps & ~cycle, desc_all & reps & ~cycle, desc_all, anc_all, cycle)

    def _join(self, up: int, down: int, desc_new: int, anc_new: int, cycle: int) -> None:
        """OR desc_new into the descendants of each component whose
        representative is a bit of up, and anc_new into the ancestors of
        each one in down; then contract the components in cycle, which
        reach desc_new and are reached from anc_new.

        When the hub is in up or in cycle, its own descendants end up
        holding desc_new, so its ancestors in up, which hold its bit, are
        left out; the same goes for down and the hub's descendants."""
        desc, anc, hub = self._desc, self._anc, self._hub
        hub_bit = 1 << hub  # in no mask while there is no hub
        # up, down and cycle share no bit, so the first pass never writes
        # the hub's set that the second pass's pre-mask reads.
        for todo, table, hub_table, new in ((up, desc, anc, desc_new), (down, anc, desc, anc_new)):
            if (todo | cycle) & hub_bit:
                todo &= ~hub_table[hub] | hub_bit
            # Inline loop: a generator over the set bits made the closure
            # updates of a cyclic-udsn pass about 15% slower.
            while todo:
                bit = todo & -todo
                r = bit.bit_length() - 1
                table[r] = table.get(r, bit) | new
                todo ^= bit
        if cycle:
            self._contract(cycle, desc_new, anc_new)

    def _contract(self, cycle: int, desc: int, anc: int) -> None:
        """Merge the components whose representatives are the bits of
        cycle into one, which reaches desc and is reached from anc (the
        unions of the members' full sets). The hub stays representative
        when it is on the cycle, the largest member otherwise; a merged
        component larger than the hub's becomes the hub."""
        members, hub = self._members, self._hub
        group = list(iter_bits(cycle))
        keep = hub if cycle >> hub & 1 else max(group, key=lambda r: len(members.get(r, ())))
        into = members.setdefault(keep, [keep])
        for r in group:
            if r == keep:
                continue
            moved = members.pop(r, [r])
            for w in moved:
                self._comp[w] = keep
            into.extend(moved)
            self._desc.pop(r, None)
            self._anc.pop(r, None)
            self._reps ^= 1 << r
        self._desc[keep] = desc
        self._anc[keep] = anc
        if len(into) > len(members.get(hub, ())):
            if hub < self.n:  # make every set that leans on the old hub whole
                for table in (self._desc, self._anc):
                    whole = table[hub]
                    for r, stored in table.items():
                        if stored >> hub & 1:
                            table[r] = stored | whole
            self._hub = keep

    def reaches(self, s: int, t: int) -> bool:
        """Whether t is reachable from s over the edges added so far."""
        # The whole cost of a trivial UDSN route, so bit tests only, with
        # check_vertices called once the inline range test has failed.
        n = self.n
        if not (0 <= s < n and 0 <= t < n):
            check_vertices(n, s, t)
        desc = self._desc.get(self._comp[s], 0)
        if s == t or desc >> t & 1:
            return True
        hub = self._hub
        return desc >> hub & 1 == 1 and self._desc[hub] >> t & 1 == 1

    def __len__(self) -> int:
        return len(self.edges)

    def to_graph(self) -> DirectedGraph:
        return DirectedGraph(self.n, self.edges)


# eq=False and repr=False: equality stays identity, the repr the default.
@dataclass(slots=True, eq=False, repr=False)
class Condensation:
    """Result of collapsing strong components.

    ``dag`` lives on component ids assigned in increasing order of each
    component's minimum original vertex, and ``_lift`` maps each of its
    edges to the lexicographically smallest original edge crossing the
    same component pair. A DAG input is its own ``dag``: one-vertex
    components with identity ids, no trees and an empty ``_lift``, as
    each edge lifts to itself. Each non-trivial component keeps the
    sorted union of two BFS trees of original edges, one into and one
    out of its min-id representative: the edges a preserver adds for it.
    The two trees may share edges; ``tree_edge_count`` is the 2(|C|-1)
    accounting.
    """

    graph: DirectedGraph
    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    dag: DirectedGraph
    _tree_of: dict[int, tuple[Edge, ...]]  # no entry for one-vertex components
    _lift: dict[Edge, Edge]
    representative: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.representative = tuple(c[0] for c in self.components)

    @property
    def tree_edge_count(self) -> int:
        return sum(2 * (len(c) - 1) for c in self.components)

    def tree_edges_of(self, comp: int) -> tuple[Edge, ...]:
        """The tree edges inside component ``comp``, in sorted order."""
        return self._tree_of.get(comp, ())


def _strong_components(n: int, step: Callable[[int], Iterable[int]]) -> list[list[int]]:
    """Strong components of the digraph on 0..n-1 whose out-neighbours
    of u are step(u), each sorted, sinks first (iterative Tarjan). With
    sorted neighbour lists the output is reproducible."""
    index = [-1] * n  # n once the vertex's component is out: above every low
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(step(root)))]  # each open vertex with its unread neighbours
        while work:
            v, rest = work[-1]
            for w in rest:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(step(w))))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                    components.append(sorted(comp))
                elif low[v] < low[work[-1][0]]:  # v is no root, so it has a parent
                    low[work[-1][0]] = low[v]
    return components


def condense(g: DirectedGraph) -> Condensation:
    if g.topological_order() is not None:
        # g is a DAG and its own condensation; growth and the audit read this order too.
        ids = tuple(range(g.n))
        return Condensation(g, ids, tuple((v,) for v in ids), g, {}, {})
    comps = _strong_components(g.n, g._out.__getitem__)
    comps.sort(key=lambda c: c[0])
    component_of = [0] * g.n
    for cid, members in enumerate(comps):
        for v in members:
            component_of[v] = cid

    # One search per direction from every representative, kept inside
    # each component: O(n + m) however many components there are.
    reps = [members[0] for members in comps]
    out_parent = bfs_parents(g._out, reps, component_of)
    in_parent = bfs_parents(g._in, reps, component_of)
    if -1 in out_parent or -1 in in_parent:
        raise AssertionError("component not internally connected")
    tree_of: dict[int, tuple[Edge, ...]] = {}
    for cid, members in enumerate(comps):
        if len(members) > 1:
            tree = {e for v in members[1:] for e in ((out_parent[v], v), (v, in_parent[v]))}
            tree_of[cid] = tuple(sorted(tree))

    lift: dict[Edge, Edge] = {}  # its keys are the dag's edges
    for u, vs in enumerate(g._out):  # ascending edges, so the lex-min original edge is kept
        for v in vs:
            if component_of[u] != component_of[v]:
                lift.setdefault((component_of[u], component_of[v]), (u, v))
    dag = DirectedGraph(len(comps), lift)
    return Condensation(g, tuple(component_of), tuple(tuple(c) for c in comps), dag, tree_of, lift)
