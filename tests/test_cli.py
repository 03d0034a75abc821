"""Command-line boundary: bad input exits 2 with one ``error:`` line
and no traceback; computation-level failures exit 1."""

from __future__ import annotations

import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from reachkeep.cli import main as cli_main
from reachkeep.graphs import MAX_VERTICES


def run(argv, tmp_path, capsys) -> tuple[int, list[str]]:
    code = cli_main(argv + ["--manifest-dir", str(tmp_path / "manifests")])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[0, 1]], "mode": "fw", "pai',
        '{"n": 3, "edges": [[0, 1]], "mode": "fw"}',
        '{"n": 3, "edges": [[0, 1]], "mode": "fw", "pairs": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0]], "mode": "fw", "pairs": []}',
        '{"n": 3, "edges": [[0, 1, 2]], "mode": "fw", "pairs": []}',
        '[1, 2]',
        '{"n": 3.7, "edges": [[0, 1]], "mode": "fw", "pairs": [[0, 1]]}',
        '{"n": true, "edges": [], "mode": "fw", "pairs": [[0, 0]]}',
    ],
    ids=[
        "truncated",
        "missing-key",
        "three-element-pair",
        "one-element-edge",
        "three-element-edge",
        "not-an-object",
        "float-n",
        "boolean-n",
    ],
)
def test_malformed_session_dump_is_a_usage_error(text, tmp_path, capsys):
    dump = tmp_path / "session.json"
    dump.write_text(text)
    code, err = run(["verify", "--session", str(dump)], tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: malformed session dump")


def test_bad_bench_list_is_a_usage_error(tmp_path, capsys):
    code, err = run(["bench", "--ns", "5,x"], tmp_path, capsys)
    assert code == 2
    assert err == ["error: --ns expects comma-separated integers, got '5,x'"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ns", "12", "--s-sizes", "1", "--constant", "0"],
         "error: constant must be finite and positive, got 0.0"),
        (["--ns", "12", "--s-sizes", "1", "--constant", "-1"],
         "error: constant must be finite and positive, got -1.0"),
        (["--kind", "nope", "--ns", "5"], "error: unknown family kind 'nope'"),
        (["--ns", "1", "--s-sizes", "1"], "error: sourcewise needs n >= 2"),
        (["--kind", "path-union", "--ns", "3", "--modes", "fw", "--pair-counts", "2"],
         "error: path-union needs n >= max(2, part_length), got n=3, part_length=4"),
        (["--ns", "12", "--s-sizes", "1", "--constant", "nan"],
         "error: constant must be finite and positive, got nan"),
        (["--ns", "12", "--s-sizes", "1", "--constant", "inf"],
         "error: constant must be finite and positive, got inf"),
        (["--ns", ""], "error: --ns expects comma-separated integers, got ''"),
        (["--ns", ","], "error: --ns expects comma-separated integers, got ','"),
        (["--modes", ""], "error: --modes expects comma-separated modes, got ''"),
        # A knob the kind does not read would name one sweep twice.
        (["--kind", "random-dag", "--ns", "10", "--pair-counts", "3", "--modes", "fw",
          "--s-sizes", "3"], "error: random-dag does not use s_sizes, got s_sizes=[3]"),
        (["--kind", "layered", "--ns", "10", "--pair-factor", "5"],
         "error: layered does not use pair_factor, got pair_factor=5"),
        (["--ns", "10", "--s-sizes", "1", "--modes", "fw", "--pair-counts", "7"],
         "error: sourcewise does not use pair_counts, got pair_counts=[7]"),
    ],
    ids=[
        "constant-0", "constant-negative", "unknown-kind", "sourcewise-n1",
        "path-union-short", "constant-nan", "constant-inf", "ns-empty", "ns-comma",
        "modes-empty", "random-dag-s-sizes", "layered-pair-factor", "sourcewise-pair-counts",
    ],
)
def test_bad_bench_input_is_a_usage_error(argv, message, tmp_path, capsys):
    code, err = run(["bench", *argv], tmp_path, capsys)
    assert code == 2
    assert err == [message]
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("bad", ["graph", "pairs"])
def test_undecodable_input_file_is_a_usage_error(bad, tmp_path, capsys):
    files = {"graph": tmp_path / "g.txt", "pairs": tmp_path / "p.txt"}
    files["graph"].write_text("n 3\n0 1\n1 2\n")
    files["pairs"].write_text("0 2\n")
    files[bad].write_bytes(b"\xff0 1\n")
    code, err = run(
        ["preserve", "--graph", str(files["graph"]), "--pairs", str(files["pairs"])],
        tmp_path, capsys,
    )
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {files[bad]}: ")
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("target", ["missing", "file", "empty-dir"])
def test_verify_needs_a_manifest_directory(target, tmp_path, capsys):
    path = tmp_path / target
    if target == "file":
        path.write_text("{}")
    elif target == "empty-dir":
        path.mkdir()
    code = cli_main(["verify", "--manifest-dir", str(path), "--json"])
    captured = capsys.readouterr()
    if target == "empty-dir":
        assert code == 0
        assert json.loads(captured.out) == {"checked": 0, "failed": 0, "results": []}
    else:
        assert code == 2
        assert captured.err.splitlines() == [
            f"error: manifest directory {path} is not a directory"
        ]


def test_missing_table_entry_prints_without_quotes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    code, err = run(
        ["select", "--graph", str(graph), "--s", "2", "--t", "0", "--index", "1"],
        tmp_path, capsys,
    )
    assert code == 1
    assert err == ["error: pair (2, 0) not in table for level 3"]


@pytest.mark.parametrize("s, t, bad", [(0, 5, 5), (-1, 2, -1)])
def test_select_vertex_out_of_range_is_a_usage_error(s, t, bad, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 4\n0 1\n1 2\n")
    code, err = run(
        ["select", "--graph", str(graph), "--s", str(s), "--t", str(t), "--index", "1"],
        tmp_path, capsys,
    )
    assert code == 2
    assert err == [f"error: vertex {bad} outside range 0..3"]


def test_precompute_rejects_p_with_p_star(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    code, err = run(
        ["precompute", "--graph", str(graph), "--p", "2", "--p-star", "2"], tmp_path, capsys
    )
    assert code == 2
    assert err == ["error: --p and --p-star are mutually exclusive"]


def test_udsn_sample_constant_applies_at_default_tau_and_T(tmp_path, capsys):
    graph, pairs = tmp_path / "g.txt", tmp_path / "p.txt"
    code, _ = run(
        ["gen", "--kind", "layered", "--n", "30", "--layers", "2", "--density", "1.0",
         "--pairs", "400", "--seed", "3", "--out-graph", str(graph), "--out-pairs", str(pairs)],
        tmp_path, capsys,
    )
    assert code == 0

    def sample(*extra):
        argv = ["udsn", "--graph", str(graph), "--pairs", str(pairs), "--json", *extra]
        assert cli_main(argv + ["--manifest-dir", str(tmp_path / "manifests")]) == 0
        return json.loads(capsys.readouterr().out)["summary"]["sample"]

    # tau = ceil(30 ** 0.6) = 8 is the default, so naming it changes nothing
    small = sample("--sample-constant", "0.5")
    assert small == sample("--sample-constant", "0.5", "--tau", "8")
    assert len(small) == 7
    assert len(sample()) == 26


@pytest.mark.parametrize("constant", ["nan", "inf"])
@pytest.mark.parametrize("extra", [["--T", "0"], []], ids=["T0", "default-T"])
def test_non_finite_sample_constant_is_a_usage_error(constant, extra, tmp_path, capsys):
    graph, pairs = tmp_path / "g.txt", tmp_path / "p.txt"
    graph.write_text("n 3\n0 1\n1 2\n2 0\n")
    pairs.write_text("0 2\n")
    code, err = run(
        ["udsn", "--graph", str(graph), "--pairs", str(pairs),
         "--sample-constant", constant, *extra],
        tmp_path, capsys,
    )
    assert code == 2
    assert err == [f"error: sample_constant must be finite and positive, got {constant}"]
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["precompute", "--p", "2"], ["select", "--s", "0", "--t", "2", "--index", "1"]],
    ids=["precompute", "select"],
)
def test_non_finite_scale_is_a_usage_error(command, scale, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    code, err = run(
        [command[0], "--graph", str(graph), *command[1:], "--scale", scale], tmp_path, capsys
    )
    assert code == 2
    assert err == [f"error: scale must be finite and positive, got {scale}"]


def test_knob_the_kind_ignores_is_a_usage_error(tmp_path, capsys):
    # random-dag never reads s_size, so 0 and 1 would name one instance twice
    code, err = run(
        ["gen", "--kind", "random-dag", "--n", "10", "--pairs", "3", "--s-size", "0"],
        tmp_path, capsys,
    )
    assert code == 2
    assert err == ["error: random-dag does not use s_size, got s_size=0"]
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("g.txt", f"n {MAX_VERTICES + 1}\n"),
        ("g.txt", f"0 {MAX_VERTICES}\n"),
        ("session.json", json.dumps(
            {"n": MAX_VERTICES + 1, "edges": [[0, 1]], "mode": "fw", "pairs": [[0, 1]]}
        )),
    ],
    ids=["header", "headerless-id", "session-dump"],
)
def test_vertex_count_above_the_cap_is_a_usage_error(name, text, tmp_path, capsys):
    source, pairs = tmp_path / name, tmp_path / "p.txt"
    source.write_text(text)
    pairs.write_text("0 1\n")
    if name == "session.json":
        argv = ["verify", "--session", str(source)]
    else:
        argv = ["preserve", "--graph", str(source), "--pairs", str(pairs)]
    tracemalloc.start()
    try:
        code, err = run(argv, tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == [f"error: vertex count must be <= {MAX_VERTICES}, got {MAX_VERTICES + 1}"]
    # a graph at the cap would take over 100 MB
    assert peak < 8 << 20


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("preserve", [], "error: 0 not reachable from 2"),
        ("udsn", [], "error: 0 is not reachable from 2"),
        ("udsn", ["--T", "0"], "error: 0 is not reachable from 2"),
    ],
    ids=["preserve", "udsn", "udsn-T0"],
)
def test_infeasible_pair_is_a_usage_error(command, extra, message, tmp_path, capsys):
    graph, pairs = tmp_path / "g.txt", tmp_path / "p.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    pairs.write_text("2 0\n")
    code, err = run(
        [command, "--graph", str(graph), "--pairs", str(pairs), *extra], tmp_path, capsys
    )
    assert code == 2
    assert err == [message]
    assert not (tmp_path / "manifests").exists()


def readme_cli_lines() -> list[list[str]]:
    """The ``reachkeep ...`` commands of the README's CLI block, each
    with its continuation lines joined, without the program name."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("reachkeep ")]


def test_readme_cli_walkthrough_runs_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_lines()
    assert len(commands) >= 10
    for argv in commands:
        code = cli_main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
