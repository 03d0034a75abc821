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
import sys
from pathlib import Path

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


if __name__ == "__main__":
    for old in (GOLDEN / "runs").glob("*.json"):
        old.unlink()
    print(record(GOLDEN / "runs", GOLDEN), file=sys.stderr)
