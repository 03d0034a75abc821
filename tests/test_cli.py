"""Command-line boundary: bad input exits 2 with one ``error:`` line
and no traceback; computation-level failures exit 1."""

from __future__ import annotations

import json

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


def test_missing_table_entry_prints_without_quotes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    code, err = run(
        ["select", "--graph", str(graph), "--s", "2", "--t", "0", "--index", "1"],
        tmp_path, capsys,
    )
    assert code == 1
    assert err == ["error: pair (2, 0) not in table for level 3"]


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
