from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from reachkeep import harness
from reachkeep import (
    CondensingPreserver,
    GrowthMode,
    InfeasiblePairError,
    InstanceFamily,
    ParameterError,
    RunManifest,
    bench_cell,
    bench_sweep,
    canonical_json,
    generate,
    hash_json,
    hash_text,
    load_manifest,
    primary_rows,
    reachable_set,
    rng_for,
    save_manifest,
    size_envelope_source_restricted,
    sourcewise_cells,
    verify_all,
    verify_session,
)

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def toy_outputs(params: dict) -> dict[str, str]:
    return {"value": hash_json(int(params["x"]) * 2)}


def toy_runner(manifest: RunManifest) -> dict[str, str]:
    return toy_outputs(manifest.params)


def toy_manifest(x: int, wall_time: float = 0.0) -> RunManifest:
    return RunManifest(
        command="double",
        params={"x": x},
        seed=0,
        inputs={},
        outputs=toy_outputs({"x": x}),
        wall_time=wall_time,
        created="2026-01-01T00:00:00Z",
    )


class TestHashing:
    def test_sha256_of_empty_text(self):
        assert hash_text("") == SHA256_EMPTY

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        assert hash_json({"b": 1, "a": 2}) == hash_json({"a": 2, "b": 1})


class TestRunManifest:
    def test_identity_ignores_timing_fields(self):
        a = toy_manifest(3, wall_time=0.1)
        b = toy_manifest(3, wall_time=99.9)
        assert a.manifest_id == b.manifest_id
        assert "wall_time" not in a.identity_payload()
        assert "created" not in a.identity_payload()

    def test_identity_tracks_real_fields(self):
        assert toy_manifest(3).manifest_id != toy_manifest(4).manifest_id

    def test_json_roundtrip(self):
        m = toy_manifest(5, wall_time=1.25)
        d = m.to_json_dict()
        assert d["id"] == m.manifest_id
        back = RunManifest.from_json_dict(d)
        assert back == m

    def test_save_names_file_by_id(self, tmp_path):
        m = toy_manifest(7)
        path = save_manifest(m, tmp_path)
        assert path.name == f"{m.manifest_id}.json"
        assert load_manifest(path) == m


class TestVerifyAll:
    def test_clean_directory_replays(self, tmp_path):
        for x in (1, 2, 3):
            save_manifest(toy_manifest(x), tmp_path)
        results = verify_all(tmp_path, toy_runner)
        assert len(results) == 3
        assert all(r.ok for r in results)

    def test_edited_field_breaks_identity(self, tmp_path):
        path = save_manifest(toy_manifest(1), tmp_path)
        raw = json.loads(path.read_text())
        raw["params"]["x"] = 2  # tamper without refreshing the id
        path.write_text(json.dumps(raw))
        (result,) = verify_all(tmp_path, toy_runner)
        assert not result.ok
        assert "identity mismatch" in result.reason

    def test_renamed_file_is_flagged(self, tmp_path):
        path = save_manifest(toy_manifest(1), tmp_path)
        path.rename(tmp_path / "0000000000000000.json")
        (result,) = verify_all(tmp_path, toy_runner)
        assert not result.ok
        assert "file name" in result.reason

    def test_divergent_output_is_named(self, tmp_path):
        save_manifest(toy_manifest(1), tmp_path)
        liar = lambda manifest: {"value": hash_json("something else")}  # noqa: E731
        (result,) = verify_all(tmp_path, liar)
        assert not result.ok
        assert "output 'value'" in result.reason

    def test_raising_runner_is_reported(self, tmp_path):
        save_manifest(toy_manifest(1), tmp_path)

        def broken(manifest):
            raise RuntimeError("input file went missing")

        (result,) = verify_all(tmp_path, broken)
        assert not result.ok
        assert "replay failed" in result.reason

    def test_unreadable_file_is_reported(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "empty.json").write_text("{}")
        results = verify_all(tmp_path, toy_runner)
        assert [r.ok for r in results] == [False, False]
        assert all("unreadable" in r.reason for r in results)

    def test_results_come_back_sorted_by_path(self, tmp_path):
        for x in (4, 5, 6, 7):
            save_manifest(toy_manifest(x), tmp_path)
        results = verify_all(tmp_path, toy_runner)
        paths = [r.path for r in results]
        assert paths == sorted(paths)


class TestBench:
    def test_cell_measures_one_instance(self):
        fam = InstanceFamily(
            kind="sourcewise", n=20, seed=3, pairs=10, s_size=2, side="sink"
        )
        row = bench_cell(fam, "fw")
        assert row["kind"] == "sourcewise"
        assert row["n"] == 20 and row["mode"] == "fw"
        assert row["p"] == 10
        assert row["sigma"] >= 1
        assert row["envelope_ratio"] == pytest.approx(
            row["size_z"] / row["envelope"]
        )
        assert row["wall_time"] >= 0.0

    def test_cell_without_pairs_has_no_envelope(self):
        fam = InstanceFamily(kind="random-dag", n=8, seed=1, pairs=0)
        row = bench_cell(fam, "bw")
        assert row["p"] == 0
        assert row["envelope"] is None
        assert row["envelope_ratio"] is None

    @pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf, 0.0])
    def test_constant_must_be_finite_and_positive(self, constant):
        fam = InstanceFamily(kind="random-dag", n=8, seed=1, pairs=3)
        with pytest.raises(ParameterError, match="finite and positive"):
            size_envelope_source_restricted(10, 10, 1, constant)
        with pytest.raises(ParameterError, match="finite and positive"):
            bench_cell(fam, "fw", constant)

    def test_sweep_captures_failures_as_rows(self, monkeypatch):
        # A family that cannot be generated is rejected on construction,
        # so the failing cell is injected into the generator instead.
        good = InstanceFamily(kind="random-dag", n=8, seed=1, pairs=3)
        bad = InstanceFamily(kind="sourcewise", n=8, seed=1, pairs=3)
        real = harness.generate

        def generate_or_fail(family):
            if family is bad:
                raise ParameterError("injected cell failure")
            return real(family)

        monkeypatch.setattr(harness, "generate", generate_or_fail)
        rows = bench_sweep([(good, "fw"), (bad, "fw")])
        assert "error" not in rows[0]
        assert "ParameterError" in rows[1]["error"]
        assert rows[1]["kind"] == "sourcewise"

    def test_primary_rows_strip_timing_only(self):
        fam = InstanceFamily(kind="random-dag", n=8, seed=1, pairs=3)
        rows = bench_sweep([(fam, "fw")])
        primary = primary_rows(rows)
        assert "wall_time" in rows[0]
        assert "wall_time" not in primary[0]
        assert set(rows[0]) - set(primary[0]) == {"wall_time"}

    def test_sourcewise_grid_shape(self):
        cells = sourcewise_cells(ns=[10, 20], s_sizes=[1, 2], pair_factor=5)
        assert len(cells) == 8  # 2 ns x 2 sizes x 2 modes
        seeds = set()
        for family, mode in cells:
            assert family.kind == "sourcewise"
            assert family.pairs == 5 * family.s_size
            expected_side = "sink" if mode is GrowthMode.FORWARDS else "source"
            assert family.side == expected_side
            seeds.add(family.seed)
        assert len(seeds) == 8  # every cell draws from its own stream


class FaultySession(CondensingPreserver):
    """Self-test chooser that walks random eligible edges and never
    prefers edges it already owns. Used to confirm the verifier actually
    rejects sessions that ignore the reuse rule."""

    def __init__(self, g, mode: GrowthMode | str = GrowthMode.FORWARDS, seed: int = 0):
        super().__init__(g, mode)
        self._rng = rng_for(seed, "fault-injection")

    def _choose_path(self, s: int, t: int, new: list) -> tuple[int, ...]:
        dag = self.dag
        if self.mode is GrowthMode.FORWARDS:
            member = reachable_set(dag, t, reverse=True)
            if s not in member:
                raise InfeasiblePairError(f"{t} not reachable from {s}")
            path = [s]
            while path[-1] != t:
                options = [v for v in dag.out_neighbors(path[-1]) if v in member]
                path.append(self._rng.choice(options))
        else:
            member = reachable_set(dag, s)
            if t not in member:
                raise InfeasiblePairError(f"{t} not reachable from {s}")
            path = [t]
            while path[0] != s:
                options = [u for u in dag.in_neighbors(path[0]) if u in member]
                path.insert(0, self._rng.choice(options))
        new.extend(e for e in zip(path, path[1:]) if e not in self.h)
        return tuple(path)


class TestFaultySession:
    def test_verifier_rejects_a_rule_breaking_chooser(self):
        fam = InstanceFamily(kind="random-dag", n=14, seed=0, density=0.5, pairs=14)
        g, stream = generate(fam)
        faulty = FaultySession(g, "fw", seed=0)
        for s, t in stream:
            faulty.serve_pair(s, t)
        report = verify_session(faulty)
        assert not report.ok
        assert any(w is not None for w in report.bridges.values())
        # the identity checks still hold; only the bridge rule is broken
        assert report.size_ok and report.acyclic

    def test_honest_session_on_the_same_stream_passes(self):
        fam = InstanceFamily(kind="random-dag", n=14, seed=0, density=0.5, pairs=14)
        g, stream = generate(fam)
        session = CondensingPreserver(g, "fw")
        for s, t in stream:
            session.serve_pair(s, t)
        assert verify_session(session).ok

    def test_faulty_chooser_is_deterministic(self):
        fam = InstanceFamily(kind="random-dag", n=14, seed=0, density=0.5, pairs=14)
        g, stream = generate(fam)
        a = FaultySession(g, "fw", seed=4)
        b = FaultySession(g, "fw", seed=4)
        for s, t in stream:
            a.serve_pair(s, t)
            b.serve_pair(s, t)
        assert a.z_paths == b.z_paths
