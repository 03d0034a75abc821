"""Reference code the library no longer carries: the witness checker,
path-system reversal, the meeting-order diagnostics, the condensation
edge lift and the two bench grid builders ``bench_grid`` replaced.
Tests import them from here."""

from __future__ import annotations

import warnings
from collections.abc import Iterable

from reachkeep.errors import BoundsError, MissingEntryError, ParameterError
from reachkeep.graphs import Condensation, Edge
from reachkeep.oracle import InstanceFamily
from reachkeep.pathsystem import BridgeWitness, OrderConstraint, Path, PathSystem, _order_ok
from reachkeep.preserver import GrowthMode
from reachkeep.seeding import split_seed


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
