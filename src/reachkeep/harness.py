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
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import ParameterError, check_finite_positive
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
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }

    @property
    def manifest_id(self) -> str:
        return hash_json(self.identity_payload())[:16]

    def to_json_dict(self) -> dict[str, object]:
        d = dict(self.identity_payload())
        d["id"] = self.manifest_id
        d["wall_time"] = self.wall_time
        d["created"] = self.created
        return d

    @staticmethod
    def from_json_dict(d: dict[str, object]) -> RunManifest:
        return RunManifest(
            command=str(d["command"]),
            params=dict(d["params"]),  # type: ignore[arg-type]
            seed=int(d["seed"]),  # type: ignore[call-overload]
            inputs=dict(d["inputs"]),  # type: ignore[arg-type]
            outputs=dict(d["outputs"]),  # type: ignore[arg-type]
            wall_time=float(d.get("wall_time", 0.0)),  # type: ignore[arg-type]
            created=str(d.get("created", "")),
        )


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
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            results.append(VerificationResult(str(path), "", False, f"unreadable: {exc}"))
            continue
        stored_id = str(raw.get("id", ""))
        if stored_id != manifest.manifest_id:
            results.append(
                VerificationResult(
                    str(path),
                    stored_id,
                    False,
                    f"identity mismatch: stored {stored_id}, content {manifest.manifest_id}",
                )
            )
            continue
        if path.stem != stored_id:
            results.append(
                VerificationResult(
                    str(path), stored_id, False, f"file name {path.stem} != id {stored_id}"
                )
            )
            continue
        try:
            replayed = runner(manifest)
        except Exception as exc:
            results.append(
                VerificationResult(str(path), stored_id, False, f"replay failed: {exc}")
            )
            continue
        reason = None
        for label in sorted(set(manifest.outputs) | set(replayed)):
            want = manifest.outputs.get(label)
            got = replayed.get(label)
            if want != got:
                reason = (
                    f"output {label!r}: recorded "
                    f"{(want or 'absent')[:12]}, replayed {(got or 'absent')[:12]}"
                )
                break
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
