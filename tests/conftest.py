from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from reachkeep import (
    CondensingPreserver,
    InstanceFamily,
    PathSystem,
    generate,
    verify_session,
)


@dataclass
class SessionTrace:
    """One finished audited session from the shared exact suite."""

    kind: str
    n: int
    p: int
    mode: str
    z: PathSystem | None = None
    violations: list[str] = field(default_factory=list)


@dataclass
class ExactSuite:
    entries: list[SessionTrace]
    elapsed: float

    @property
    def violations(self) -> list[str]:
        return [v for e in self.entries for v in e.violations]


def _drive_session(kind, n, p, seed, mode, density, s_size) -> SessionTrace:
    extra = {}
    if kind == "sourcewise":
        extra = {"s_size": s_size, "side": "sink" if mode == "fw" else "source"}
    family = InstanceFamily(
        kind=kind, n=n, seed=seed, pairs=p, density=density, **extra
    )
    g, stream = generate(family)
    session = CondensingPreserver(g, mode)
    trace = SessionTrace(kind, n, p, mode)
    tag = f"{kind} n={n} p={p} seed={seed} {mode}"
    # recount the paths, so the session's running z_size is not
    # checked against itself; the identity is not monotone in the
    # prefix, so it is checked after every pair
    z_size = 0
    seen: list[tuple[int, ...]] = []
    for idx, (s, t) in enumerate(stream):
        session.serve_pair(s, t)
        z_path = session.z_paths[-1]
        seen.append(z_path)
        z_size += len(z_path)
        if z_size != len(session.h) + session.pairs_served or session.z_size != z_size:
            trace.violations.append(
                f"{tag} pair {idx}: size {z_size} (running {session.z_size}) != "
                f"{len(session.h)} + {session.pairs_served}"
            )
    # A bridge or a cycle of a prefix stays in every longer system, as
    # long as no recorded path changed: one audit of the finished
    # session covers every prefix.
    if session.z_paths != seen:
        trace.violations.append(f"{tag}: an earlier auxiliary path changed")
    report = verify_session(session)
    if not report.ok:
        trace.violations.append(f"{tag}: {report.describe()}")
    trace.z = session.z_system()
    return trace


@pytest.fixture(scope="session")
def exact_suite() -> ExactSuite:
    """200 seeded sessions, each with a per-pair size recount and a
    full audit when it ends, shared between the exact-law criterion and
    the meeting-order diagnostics."""
    t0 = time.perf_counter()
    entries: list[SessionTrace] = []
    # small sizes
    for kind in ("random-dag", "sourcewise"):
        for n in (12, 30, 60):
            for p in (10, 40):
                for mode in ("fw", "bw"):
                    for seed in (0, 1, 2):
                        entries.append(
                            _drive_session(
                                kind, n, p, seed, mode,
                                density=0.25, s_size=2,
                            )
                        )
    # large sizes
    for kind in ("random-dag", "sourcewise"):
        for n in (120, 200):
            for p in (200, 500):
                for mode in ("fw", "bw"):
                    for seed in range(8):
                        entries.append(
                            _drive_session(
                                kind, n, p, seed, mode,
                                density=0.08, s_size=8,
                            )
                        )
    return ExactSuite(entries, time.perf_counter() - t0)
