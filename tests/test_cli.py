"""Command-line boundary: bad input exits 2 with one ``error:`` line
and no traceback; computation-level failures exit 1."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from reachkeep.cli import main as cli_main


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
    ],
    ids=[
        "truncated",
        "missing-key",
        "three-element-pair",
        "one-element-edge",
        "three-element-edge",
        "not-an-object",
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
         "error: constant must be positive, got 0.0"),
        (["--ns", "12", "--s-sizes", "1", "--constant", "-1"],
         "error: constant must be positive, got -1.0"),
        (["--kind", "nope", "--ns", "5"], "error: unknown family kind 'nope'"),
        (["--ns", "1", "--s-sizes", "1"], "error: sourcewise needs n >= 2"),
    ],
    ids=["constant-0", "constant-negative", "unknown-kind", "sourcewise-n1"],
)
def test_bad_bench_input_is_a_usage_error(argv, message, tmp_path, capsys):
    code, err = run(["bench", *argv], tmp_path, capsys)
    assert code == 2
    assert err == [message]
    assert not (tmp_path / "manifests").exists()


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
