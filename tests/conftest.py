from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from reachkeep import (
    BridgeMonitor,
    CondensingPreserver,
    InstanceFamily,
    PathSystem,
    generate,
    is_acyclic,
)


@dataclass
class SessionTrace:
    """One finished audited session from the shared exact suite."""

    kind: str
    n: int
    p: int
    mode: str
    regime: str  # "k4" for the full scan, "k3" for the large sizes
    z: PathSystem | None = None
    violations: list[str] = field(default_factory=list)


@dataclass
class ExactSuite:
    entries: list[SessionTrace]
    elapsed: float

    @property
    def violations(self) -> list[str]:
        return [v for e in self.entries for v in e.violations]

    def scanned_k3(self) -> list[SessionTrace]:
        return [e for e in self.entries if e.regime == "k3"]


def _drive_session(kind, n, p, seed, mode, ks, density, s_size) -> SessionTrace:
    extra = {}
    if kind == "sourcewise":
        extra = {"s_size": s_size, "side": "sink" if mode == "fw" else "source"}
    family = InstanceFamily(
        kind=kind, n=n, seed=seed, pairs=p, density=density, **extra
    )
    g, stream = generate(family)
    session = CondensingPreserver(g, mode)
    inner = session.inner
    monitor = BridgeMonitor(ks=ks, order_constraint=session.mode.constraint)
    trace = SessionTrace(kind, n, p, mode, "k4" if 4 in ks else "k3")
    tag = f"{kind} n={n} p={p} seed={seed} {mode}"
    # Acyclicity certificate: while every auxiliary path is strictly
    # increasing in one topological order of the component DAG, that
    # order agrees with the whole system. From the first path that is
    # not, the full is_acyclic runs after every pair.
    position = {v: i for i, v in enumerate(inner.g.topological_order())}
    certified = True
    # recount the paths, so the session's running z_size is not
    # checked against itself
    z_size = 0
    for idx, (s, t) in enumerate(stream):
        session.serve_pair(s, t)
        z_path = inner.z_paths[-1]
        witness = monitor.append(z_path)
        if witness is not None:
            trace.violations.append(f"{tag} pair {idx}: bridge {witness}")
        if certified:
            ranks = [position[v] for v in z_path]
            certified = all(a < b for a, b in zip(ranks, ranks[1:]))
        if not certified and not is_acyclic(inner.z_system())[0]:
            trace.violations.append(f"{tag} pair {idx}: auxiliary system cyclic")
        z_size += len(z_path)
        if z_size != inner.h_size + inner.pairs_served or inner.z_size != z_size:
            trace.violations.append(
                f"{tag} pair {idx}: size {z_size} (running {inner.z_size}) != "
                f"{inner.h_size} + {inner.pairs_served}"
            )
    trace.z = inner.z_system()
    return trace


@pytest.fixture(scope="session")
def exact_suite() -> ExactSuite:
    """200 seeded sessions with per-pair audits, shared between the
    exact-law criterion and the meeting-order diagnostics."""
    t0 = time.perf_counter()
    entries: list[SessionTrace] = []
    # full k in {2,3,4} scan at small sizes
    for kind in ("random-dag", "sourcewise"):
        for n in (12, 30, 60):
            for p in (10, 40):
                for mode in ("fw", "bw"):
                    for seed in (0, 1, 2):
                        entries.append(
                            _drive_session(
                                kind, n, p, seed, mode, (2, 3, 4),
                                density=0.25, s_size=2,
                            )
                        )
    # k in {2,3} and the size identity at the large sizes
    for kind in ("random-dag", "sourcewise"):
        for n in (120, 200):
            for p in (200, 500):
                for mode in ("fw", "bw"):
                    for seed in range(8):
                        entries.append(
                            _drive_session(
                                kind, n, p, seed, mode, (2, 3),
                                density=0.08, s_size=8,
                            )
                        )
    return ExactSuite(entries, time.perf_counter() - t0)
