"""Reproducibility harness.

Every CLI run can leave behind a manifest: command, parameters, seed,
and sha256 hashes of the inputs it read and the primary outputs it
produced. Wall-clock fields are informational and excluded from the
manifest identity, so a replay on different hardware verifies clean.
verify_all re-runs each manifest through a caller-supplied runner and
reports the first divergence per manifest instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ParameterError, check_finite_positive, check_unused
from .oracle import InstanceFamily, generate
from .preserver import (
    CondensingPreserver,
    GrowthMode,
    size_envelope_source_restricted,
)
from .seeding import split_seed


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_json(obj: object) -> str:
    return hash_text(canonical_json(obj))


@dataclass(frozen=True)
class RunManifest:
    command: str
    params: dict[str, object]
    seed: int
    inputs: dict[str, str]
    outputs: dict[str, str]
    wall_time: float = 0.0
    created: str = ""

    def identity_payload(self) -> dict[str, object]:
        """Everything that must replay identically. Timing and
        timestamps stay out on purpose."""
        return {k: v for k, v in asdict(self).items() if k not in ("wall_time", "created")}

    @property
    def manifest_id(self) -> str:
        return hash_json(self.identity_payload())[:16]

    def to_json_dict(self) -> dict[str, object]:
        return {**asdict(self), "id": self.manifest_id}

    @staticmethod
    def from_json_dict(d: dict[str, object]) -> RunManifest:
        given = {f.name: d[f.name] for f in fields(RunManifest) if f.name in d}
        return RunManifest(**given)  # type: ignore[arg-type]


def utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def save_manifest(manifest: RunManifest, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{manifest.manifest_id}.json"
    path.write_text(json.dumps(manifest.to_json_dict(), sort_keys=True, indent=2) + "\n")
    return path


def load_manifest(path: str | Path) -> RunManifest:
    return RunManifest.from_json_dict(json.loads(Path(path).read_text()))


Runner = Callable[[RunManifest], dict[str, str]]


@dataclass(frozen=True)
class VerificationResult:
    path: str
    manifest_id: str
    ok: bool
    reason: str | None = None


def _divergence(path: Path, stored_id: str, manifest: RunManifest, runner: Runner) -> str | None:
    """The first reason the manifest read from path fails to verify, or None."""
    if stored_id != manifest.manifest_id:
        return f"identity mismatch: stored {stored_id}, content {manifest.manifest_id}"
    if path.stem != stored_id:
        return f"file name {path.stem} != id {stored_id}"
    try:
        replayed = runner(manifest)
    except Exception as exc:
        return f"replay failed: {exc}"
    for label in sorted(set(manifest.outputs) | set(replayed)):
        want = manifest.outputs.get(label)
        got = replayed.get(label)
        if want != got:
            return (
                f"output {label!r}: recorded "
                f"{(want or 'absent')[:12]}, replayed {(got or 'absent')[:12]}"
            )
    return None


def verify_all(directory: str | Path, runner: Runner) -> list[VerificationResult]:
    """Replay every manifest in the directory. A result is recorded per
    file; a stored id that no longer matches the content counts as a
    failure, as does any output hash that replays differently. A path
    that is not a directory raises ParameterError."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ParameterError(f"manifest directory {directory} is not a directory")
    results: list[VerificationResult] = []
    for path in sorted(directory.glob("*.json")):
        try:
            raw = json.loads(path.read_text())
            manifest = RunManifest.from_json_dict(raw)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            stored_id, reason = "", f"unreadable: {exc}"
        else:
            stored_id = str(raw.get("id", ""))
            reason = _divergence(path, stored_id, manifest, runner)
        results.append(VerificationResult(str(path), stored_id, reason is None, reason))
    return results


def bench_cell(
    family: InstanceFamily,
    mode: GrowthMode | str,
    constant: float = 16.0,
) -> dict[str, object]:
    """One generated instance driven end to end, measured."""
    mode = GrowthMode(mode)
    g, stream = generate(family)
    t0 = time.perf_counter()
    session = CondensingPreserver(g, mode)
    for s, t in stream:
        session.serve_pair(s, t)
    wall = time.perf_counter() - t0
    p = session.pairs_served
    sigma = session.restricted_side_size
    envelope = None
    if p >= 1 and sigma >= 1:
        envelope = size_envelope_source_restricted(g.n, p, sigma, constant)
    return {
        "kind": family.kind,
        "n": g.n,
        "seed": family.seed,
        "mode": mode.value,
        "p": p,
        "sigma": sigma,
        "edges_h": session.h_size,
        "size_z": session.z_size,
        "envelope": envelope,
        "envelope_ratio": (session.z_size / envelope) if envelope else None,
        "wall_time": wall,
    }


def bench_sweep(
    cells: Iterable[tuple[InstanceFamily, GrowthMode | str]],
    constant: float = 16.0,
) -> list[dict[str, object]]:
    """Run every cell, capturing per-cell failures as rows rather than
    aborting the sweep. A constant that is not finite and positive is
    rejected up front."""
    check_finite_positive("constant", constant)
    rows: list[dict[str, object]] = []
    for family, mode in cells:
        try:
            rows.append(bench_cell(family, mode, constant))
        except Exception as exc:
            rows.append(
                {
                    "kind": family.kind,
                    "n": family.n,
                    "seed": family.seed,
                    "mode": GrowthMode(mode).value,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return rows


def primary_rows(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Rows with timing stripped: the part a replay must reproduce."""
    return [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]


# The bench knobs that one kind ignores, with their defaults: s_sizes and
# pair_factor shape sourcewise sweeps only, pair_counts the other kinds.
# Another value where it is ignored would give one sweep two manifest ids.
BENCH_KNOBS = {"s_sizes": (1, 2, 4), "pair_factor": 20, "pair_counts": (10, 50)}


def bench_grid(
    kind: str,
    ns: Iterable[int],
    modes: Iterable[GrowthMode | str],
    seed: int,
    density: float,
    s_sizes: Sequence[int] = BENCH_KNOBS["s_sizes"],
    pair_factor: int = BENCH_KNOBS["pair_factor"],
    pair_counts: Sequence[int] = BENCH_KNOBS["pair_counts"],
) -> list[tuple[InstanceFamily, GrowthMode]]:
    """Every cell of a bench sweep, each family built and so checked
    before any cell runs. A sourcewise grid runs n, then s_size, then
    mode: the restricted side has s_size vertices (sinks for forwards
    growth, sources for backwards) and the stream carries pair_factor
    demands per shared terminal. Other kinds run n, then pair count,
    then mode. A knob the kind ignores must keep its default."""
    given = {"s_sizes": s_sizes, "pair_factor": pair_factor, "pair_counts": pair_counts}
    for key in ("pair_counts",) if kind == "sourcewise" else ("s_sizes", "pair_factor"):
        check_unused(kind, key, given[key], BENCH_KNOBS[key])
    modes = [GrowthMode(m) for m in modes]
    sourcewise = kind == "sourcewise"
    cells = []
    for n in ns:
        for size in s_sizes if sourcewise else pair_counts:
            for mode in modes:
                if sourcewise:
                    side = "sink" if mode is GrowthMode.FORWARDS else "source"
                    labels = (n, size, mode.value)
                    knobs = {"pairs": pair_factor * size, "s_size": size, "side": side}
                else:
                    labels, knobs = (kind, n, size, mode.value), {"pairs": size}
                cell_seed = split_seed(seed, "bench", *labels)
                family = InstanceFamily(kind=kind, n=n, seed=cell_seed, density=density, **knobs)
                cells.append((family, mode))
    return cells
