"""Command-line boundary: bad input exits 2 with one ``error:`` line
and no traceback; computation-level failures exit 1. Also the
per-pair rows that ``preserve`` reads from the session's log."""

from __future__ import annotations

import io
import json
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachkeep
from reachkeep import (
    BridgeWitness,
    CondensingPreserver,
    DirectedGraph,
    GrowthMode,
    ParameterError,
    RunManifest,
    SessionReport,
    canonical_json,
    save_manifest,
)
from reachkeep import MissingEntryError, ReachkeepError, bench_grid, cli
from reachkeep.cli import _serve_and_audit
from reachkeep.cli import main as cli_main
from reachkeep.graphs import MAX_VERTICES, load_graph, parse_pairs
from test_preserver import ringed_digraph_with_pairs

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv, tmp_path, capsys) -> tuple[int, list[str]]:
    code = cli_main(argv + ["--manifest-dir", str(tmp_path / "manifests")])
    return code, capsys.readouterr().err.splitlines()


def snapshot_rows(g, mode, pairs) -> list[dict]:
    """The per-pair rows of ``preserve`` as they were built before they
    were read from the session's log: serve a pair, then snapshot the
    session's running sizes. Kept as the reference."""
    session = CondensingPreserver(g, mode)
    rows = []
    for s, t in pairs:
        new = session.serve_pair(s, t)
        rows.append(
            {
                "pair": [s, t],
                "new_edges": len(new),
                "h_size": session.h_size,
                "z_size": session.z_size,
            }
        )
    return rows


@given(ringed_digraph_with_pairs(), st.sampled_from(list(GrowthMode)))
@settings(max_examples=60, deadline=None)
def test_per_pair_rows_match_the_snapshot_loop(case, mode):
    g, pairs = case
    _, rows, _, ok = _serve_and_audit(g, mode, pairs)
    assert ok
    assert rows == snapshot_rows(g, mode, pairs)


@pytest.mark.parametrize("mode", list(GrowthMode))
def test_per_pair_rows_match_the_snapshot_loop_on_a_large_component(mode):
    g = load_graph((GOLDEN / "scc60.txt").read_text())
    pairs = parse_pairs((GOLDEN / "scc60-pairs.txt").read_text())
    _, rows, _, ok = _serve_and_audit(g, mode, pairs)
    assert ok
    assert rows == snapshot_rows(g, mode, pairs)
    # The first pair adds the 52-vertex component's trees, 51 edges each.
    assert rows[0]["new_edges"] > 51


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


@pytest.mark.parametrize("errors", ["surrogateescape", "strict"])
def test_undecodable_stdin_is_a_usage_error(errors, tmp_path, monkeypatch, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe0 2\n"), encoding="utf-8", errors=errors)
    monkeypatch.setattr(sys, "stdin", stdin)
    code = cli_main(
        ["preserve", "--graph", str(graph), "--pairs", "-", "--manifest-dir", str(tmp_path / "m")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        "error: cannot read stdin: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    ]
    assert captured.out == ""
    assert not (tmp_path / "m").exists()


def test_verify_reports_a_manifest_entry_it_cannot_open(tmp_path, capsys):
    manifests = tmp_path / "manifests"
    assert run(["gen", "--kind", "random-dag", "--n", "5"], tmp_path, capsys)[0] == 0
    (manifests / "x.json").mkdir()
    code = cli_main(["verify", "--manifest-dir", str(manifests), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert (payload["checked"], payload["failed"]) == (2, 1)
    (bad,) = [r for r in payload["results"] if not r["ok"]]
    assert bad["path"] == str(manifests / "x.json")
    assert bad["reason"].startswith("unreadable: ")


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


def test_udsn_huge_sample_constant_samples_every_vertex(tmp_path, capsys):
    graph, pairs = tmp_path / "g.txt", tmp_path / "p.txt"
    graph.write_text("n 3\n0 1\n1 2\n2 0\n")
    pairs.write_text("0 2\n2 1\n")
    argv = ["udsn", "--graph", str(graph), "--pairs", str(pairs), "--T", "1",
            "--sample-constant", "1e308", "--json"]
    assert cli_main(argv + ["--manifest-dir", str(tmp_path / "manifests")]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["sample"] == [0, 1, 2]


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


def test_gen_above_the_vertex_cap_is_a_usage_error(tmp_path, capsys):
    # path-union draws a linear number of edges, so even a missing check
    # could not exhaust memory here
    argv = ["gen", "--kind", "path-union", "--n", str(MAX_VERTICES + 1)]
    tracemalloc.start()
    try:
        code, err = run(argv, tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == [f"error: n must be in 1..{MAX_VERTICES}, got {MAX_VERTICES + 1}"]
    assert peak < 8 << 20
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("kind", ["sourcewise", "random-dag"])
def test_bench_above_the_vertex_cap_is_refused_before_any_cell_runs(kind):
    # every cell's family is built, and checked, before the sweep starts
    params = {
        "kind": kind, "ns": [50, MAX_VERTICES + 1], "modes": ["fw"], "density": 0.25,
        "s_sizes": [1, 2, 4], "pair_factor": 20, "pair_counts": [10, 50],
    }
    with pytest.raises(ParameterError, match=f"got {MAX_VERTICES + 1}"):
        bench_grid(seed=0, **params)


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


EXPORTED_ERRORS = [
    getattr(reachkeep, name) for name in reachkeep.__all__
    if name != "ReachkeepError"
    and isinstance(getattr(reachkeep, name), type)
    and issubclass(getattr(reachkeep, name), ReachkeepError)
]


def test_every_error_class_is_exported():
    assert [cls.__name__ for cls in EXPORTED_ERRORS] == [
        "BoundsError", "CyclicGraphError", "InfeasiblePairError", "MissingEntryError",
        "ParameterError", "ParseError", "SizeLimitError",
    ]


@pytest.mark.parametrize("error", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_own_status(error, tmp_path, monkeypatch, capsys):
    def raising(params, seed):
        raise error("injected")

    monkeypatch.setitem(cli._COMPUTE, "oracle", raising)
    code, err = run(["oracle", "--graph", "g.txt", "--pairs", "p.txt"], tmp_path, capsys)
    # only a missing table entry is a failed check; the rest are bad input
    assert code == (1 if error is MissingEntryError else 2) == error.exit_code
    assert err == ["error: injected"]
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
def test_seed_outside_64_bits_is_a_usage_error(seed, tmp_path, capsys):
    # split_seed keeps the low 64 bits, so seed and seed + 2**64 would
    # draw the same instance under two manifest ids
    code, err = run(
        ["gen", "--kind", "random-dag", "--n", "6", "--pairs", "3", "--seed", str(seed)],
        tmp_path, capsys,
    )
    assert code == 2
    assert err == [f"error: seed must be in 0..{2**64 - 1}, got {seed}"]
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_at_either_end_of_64_bits_runs(seed, tmp_path, capsys):
    code, err = run(
        ["--seed", str(seed), "gen", "--kind", "random-dag", "--n", "6", "--pairs", "3"],
        tmp_path, capsys,
    )
    assert code == 0
    (path,) = (tmp_path / "manifests").iterdir()
    assert json.loads(path.read_text())["seed"] == seed
    assert err == [f"manifest: {path}"]


@pytest.mark.parametrize(
    "text, extra, message",
    [
        ("n 3\n0 1\n1 2\n", ["--p", "0"], "error: p must be an integer >= 1, got 0"),
        ("n 0\n", [], "error: n must be an integer >= 1, got 0"),
        ("n 0\n", ["--p", "2"], "error: n must be an integer >= 1, got 0"),
    ],
    ids=["p0", "empty-graph", "empty-graph-known-p"],
)
def test_precompute_count_checks_come_from_the_surrogate(text, extra, message, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    code, err = run(["precompute", "--graph", str(graph), *extra], tmp_path, capsys)
    assert code == 2
    assert err == [message]
    assert not (tmp_path / "manifests").exists()


@pytest.mark.parametrize("option", ["out-graph", "out-pairs", "out-session", "manifest-dir"])
def test_unwritable_output_is_a_usage_error(option, tmp_path, capsys):
    graph, pairs = tmp_path / "g.txt", tmp_path / "p.txt"
    graph.write_text("n 3\n0 1\n1 2\n")
    pairs.write_text("0 2\n")
    manifests, target = tmp_path / "manifests", str(tmp_path / "nodir" / "out.txt")
    if option in ("out-graph", "out-pairs"):
        argv = ["gen", "--kind", "random-dag", "--n", "5", f"--{option}", target]
    else:
        argv = ["preserve", "--graph", str(graph), "--pairs", str(pairs)]
        if option == "out-session":
            argv += ["--out-session", target]
        else:
            # a directory under a regular file cannot be made
            manifests = graph / "sub"
            target = str(manifests)
    code = cli_main(argv + ["--manifest-dir", str(manifests)])
    captured = capsys.readouterr()
    assert code == 2
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
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


# The audit report and manifest serializers as they were written out by
# hand, field by field, before both were read off their dataclasses.
# Kept as the reference for the JSON a failing audit and a saved
# manifest must keep.


def reference_witness_json(w: BridgeWitness) -> dict:
    return {"k": w.k, "chain": list(w.chain), "river": w.river, "arcs": list(w.arcs)}


def reference_report_json(report: SessionReport) -> dict[str, object]:
    return {
        "acyclic": report.acyclic,
        "size_ok": report.size_ok,
        "expected_size": report.expected_size,
        "actual_size": report.actual_size,
        "bridges": {
            str(k): w and reference_witness_json(w) for k, w in sorted(report.bridges.items())
        },
        "unreachable_pairs": [list(p) for p in report.unreachable_pairs],
        "ok": report.ok,
    }


def reference_manifest_json(m: RunManifest) -> dict[str, object]:
    d = dict(m.identity_payload())
    d["id"] = m.manifest_id
    d["wall_time"] = m.wall_time
    d["created"] = m.created
    return d


AUDIT_REPORTS = {
    # out of width order on purpose: the JSON sorts them
    "witness-at-each-width": SessionReport(
        acyclic=False,
        size_ok=False,
        expected_size=7,
        actual_size=9,
        bridges={
            4: BridgeWitness(4, (5, 1, 3, 0), 2, (0, 1, 3)),
            2: BridgeWitness(2, (0, 1), 0, (1,)),
            3: BridgeWitness(3, (2, 0, 1), 1, (2, 0)),
        },
    ),
    "unreachable-pairs": SessionReport(
        True, True, 4, 4, {2: None, 3: None, 4: None}, [(0, 2), (2, 1), (0, 2)]
    ),
    "clean": SessionReport(True, True, 4, 4, {2: None, 3: None, 4: None}),
}


@pytest.mark.parametrize("name", sorted(AUDIT_REPORTS))
def test_audit_report_json_matches_the_reference(name, monkeypatch):
    report = AUDIT_REPORTS[name]
    monkeypatch.setattr(cli, "verify_session", lambda session: report)
    g = DirectedGraph(3, [(0, 1), (1, 2)])
    _, _, audit, ok = _serve_and_audit(g, GrowthMode.FORWARDS, [(0, 2)])
    assert ok == report.ok == (name == "clean")
    written, reference = audit["report"], reference_report_json(report)
    assert canonical_json(written) == canonical_json(reference)
    assert json.dumps(written, sort_keys=True, indent=2) == json.dumps(
        reference, sort_keys=True, indent=2
    )


def test_saved_manifest_text_matches_the_reference(tmp_path):
    manifest = RunManifest(
        "preserve",
        {"graph": "g.txt", "pairs": "-", "pairs_text": "p 1\n0 2\n", "mode": "bw"},
        7,
        {"graph": "a" * 64, "pairs": "b" * 64},
        {"result": "c" * 64, "session": "d" * 64},
        wall_time=0.125,
        created="2026-01-02T03:04:05Z",
    )
    text = save_manifest(manifest, tmp_path).read_text()
    assert text == json.dumps(reference_manifest_json(manifest), sort_keys=True, indent=2) + "\n"
