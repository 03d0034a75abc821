"""Golden manifest set: manifests, inputs and artifacts recorded once and
committed under tests/golden, one or more runs per subcommand. A change
that claims to keep every output must replay them clean and, run again
with the same commands, reproduce the same manifest ids and
byte-identical artifacts.

Paths in the manifests are relative to tests/golden. To record the set
afresh (only when an output change is intended), run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from reachkeep import verify_all
from reachkeep.cli import main as cli_main
from reachkeep.cli import replay_manifest

GOLDEN = Path(__file__).resolve().parent / "golden"

# Files each command writes through an --out-* option, by option value.
ARTIFACTS = (
    "dag.txt", "dag-pairs.txt", "cyc.txt", "cyc-pairs.txt", "fw.json", "bw.json",
    "scc60.txt", "scc60-pairs.txt",
)

STDIN_PAIRS = "p 3\n0 5\n1 7\n2 9\n"

# (argv, stdin text or None); out_dir is filled in per recording.
COMMANDS = [
    (["gen", "--kind", "random-dag", "--n", "10", "--density", "0.3",
      "--pairs", "6", "--seed", "2",
      "--out-graph", "{out}/dag.txt", "--out-pairs", "{out}/dag-pairs.txt"], None),
    (["gen", "--kind", "random-digraph", "--n", "14", "--density", "0.15",
      "--pairs", "8", "--seed", "3",
      "--out-graph", "{out}/cyc.txt", "--out-pairs", "{out}/cyc-pairs.txt"], None),
    (["gen", "--kind", "sourcewise", "--n", "12", "--s-size", "2", "--side", "sink",
      "--pairs", "5", "--seed", "4"], None),
    (["preserve", "--graph", "cyc.txt", "--pairs", "cyc-pairs.txt", "--mode", "fw",
      "--out-session", "{out}/fw.json", "--seed", "5"], None),
    (["preserve", "--graph", "dag.txt", "--pairs", "dag-pairs.txt", "--mode", "bw",
      "--out-session", "{out}/bw.json"], None),
    (["preserve", "--graph", "cyc.txt", "--pairs", "-"], STDIN_PAIRS),
    (["precompute", "--graph", "dag.txt", "--p", "4"], None),
    (["precompute", "--graph", "dag.txt", "--p-star", "2", "--scale", "0.3",
      "--mode", "bw"], None),
    (["select", "--graph", "dag.txt", "--s", "3", "--t", "0", "--index", "3",
      "--scale", "0.3"], None),
    (["udsn", "--graph", "cyc.txt", "--pairs", "cyc-pairs.txt", "--T", "3",
      "--seed", "7"], None),
    (["oracle", "--graph", "dag.txt", "--pairs", "dag-pairs.txt"], None),
    # A 52-vertex strong component: the udsn run below takes 4 hit routes,
    # each lifting that component's trees into the output in one batch.
    (["gen", "--kind", "random-digraph", "--n", "60", "--density", "0.05084745762711865",
      "--pairs", "42", "--seed", "0",
      "--out-graph", "{out}/scc60.txt", "--out-pairs", "{out}/scc60-pairs.txt"], None),
    (["udsn", "--graph", "scc60.txt", "--pairs", "scc60-pairs.txt", "--T", "10",
      "--seed", "0"], None),
    # Its first per-pair row carries the 52-vertex component's trees.
    (["preserve", "--graph", "scc60.txt", "--pairs", "scc60-pairs.txt", "--mode", "bw"], None),
    (["bench", "--ns", "12,20", "--s-sizes", "1,2", "--pair-factor", "3",
      "--seed", "8"], None),
    (["bench", "--kind", "random-dag", "--ns", "15", "--pair-counts", "5,10",
      "--modes", "fw,bw", "--density", "0.2", "--seed", "8"], None),
]


def record(manifest_dir: Path, out_dir: Path) -> list[int]:
    """Run every golden command from the golden directory, writing
    manifests to manifest_dir and --out-* files to out_dir. Returns the
    exit codes."""
    codes = []
    cwd = Path.cwd()
    stdin = sys.stdin
    os.chdir(GOLDEN)
    try:
        for argv, stdin_text in COMMANDS:
            if stdin_text is not None:
                sys.stdin = io.StringIO(stdin_text)
            argv = [a.replace("{out}", str(out_dir)) for a in argv]
            codes.append(cli_main(argv + ["--manifest-dir", str(manifest_dir)]))
            sys.stdin = stdin
    finally:
        sys.stdin = stdin
        os.chdir(cwd)
    return codes


def test_golden_manifests_replay_clean(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    results = verify_all(GOLDEN / "runs", replay_manifest)
    assert len(results) == len(COMMANDS)
    assert [(r.manifest_id, r.reason) for r in results if not r.ok] == []
    commands = {json.loads(p.read_text())["command"] for p in (GOLDEN / "runs").glob("*.json")}
    assert commands == {"gen", "preserve", "precompute", "select", "udsn", "oracle", "bench"}


def test_golden_commands_rerecord_identically(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    codes = record(tmp_path / "manifests", out_dir)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)
    golden_ids = sorted(p.stem for p in (GOLDEN / "runs").glob("*.json"))
    assert sorted(p.stem for p in (tmp_path / "manifests").glob("*.json")) == golden_ids
    for name in ARTIFACTS:
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize(
    "name, label, commands",
    [
        ("dag.txt", "graph", {"preserve", "precompute", "select", "oracle"}),
        ("cyc.txt", "graph", {"preserve", "udsn"}),
        ("cyc-pairs.txt", "pairs", {"preserve", "udsn"}),
    ],
)
def test_replay_fails_the_runs_that_read_a_changed_input(name, label, commands, tmp_path,
                                                         monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    with (golden / name).open("a") as f:
        f.write("# a comment changes the file, not what it parses to\n")
    readers = {}
    for path in (golden / "runs").glob("*.json"):
        manifest = json.loads(path.read_text())
        if manifest["command"] != "gen" and manifest["params"].get(label) == name:
            readers[manifest["id"]] = manifest["command"]
    assert set(readers.values()) == commands
    monkeypatch.chdir(golden)
    results = verify_all(golden / "runs", replay_manifest)
    assert len(results) == len(COMMANDS)
    assert {r.manifest_id: r.reason for r in results if not r.ok} == {
        run_id: f"replay failed: input {label!r} changed since the run was recorded"
        for run_id in readers
    }


def manifests_in(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


@pytest.mark.parametrize(
    "argv",
    [
        ["udsn", "--graph", "cyc.txt", "--pairs", "cyc-pairs.txt", "--T", "3", "--seed", "7"],
        ["oracle", "--graph", "dag.txt", "--pairs", "dag-pairs.txt"],
    ],
    ids=["udsn", "oracle"],
)
def test_pairs_on_stdin_match_the_pairs_file(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    pairs_file = argv[argv.index("--pairs") + 1]
    stdin_argv = [("-" if a == pairs_file else a) for a in argv]
    assert cli_main(argv + ["--manifest-dir", str(tmp_path / "file")]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO((GOLDEN / pairs_file).read_text()))
    assert cli_main(stdin_argv + ["--manifest-dir", str(tmp_path / "stdin")]) == 0
    capsys.readouterr()
    (from_file,), (from_stdin,) = manifests_in(tmp_path / "file"), manifests_in(tmp_path / "stdin")
    assert from_stdin["params"]["pairs"] == "-"
    assert from_stdin["params"]["pairs_text"] == (GOLDEN / pairs_file).read_text()
    assert from_stdin["inputs"] == from_file["inputs"]
    assert from_stdin["outputs"] == from_file["outputs"]
    for directory in ("file", "stdin"):
        results = verify_all(tmp_path / directory, replay_manifest)
        assert [(r.ok, r.reason) for r in results] == [(True, None)]


def test_graph_is_never_read_from_stdin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("n 3\n0 1\n1 2\n"))
    (tmp_path / "p.txt").write_text("0 2\n")
    code = cli_main(["preserve", "--graph", "-", "--pairs", "p.txt",
                     "--manifest-dir", str(tmp_path / "manifests")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read -: ")
    assert "Traceback" not in err


if __name__ == "__main__":
    for old in (GOLDEN / "runs").glob("*.json"):
        old.unlink()
    print(record(GOLDEN / "runs", GOLDEN), file=sys.stderr)
