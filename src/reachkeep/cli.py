"""Command line front end.

Exit codes: 0 success; 1 when a check fails (a session audit finds a
violation, a replay diverges) or select finds no table entry; 2 on bad
arguments or unreadable inputs, an infeasible demand pair included.

Every run except ``verify`` records a manifest under --manifest-dir;
``verify`` without arguments replays that directory and reports any
manifest whose outputs no longer reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

from .errors import ParameterError, ParseError, ReachkeepError
from .graphs import DirectedGraph, check_vertices, dump_graph, format_pairs, load_graph, parse_pairs
from .harness import (
    BENCH_KNOBS,
    RunManifest,
    bench_grid,
    bench_sweep,
    canonical_json,
    hash_json,
    hash_text,
    primary_rows,
    save_manifest,
    utc_stamp,
    verify_all,
)
from .nonadaptive import (
    PathTable,
    default_surrogate,
    precompute_index_sensitive,
    precompute_known_p,
    select_entry,
)
from .oracle import InstanceFamily, generate, min_preserver
from .preserver import CondensingPreserver, GrowthMode, unreachable_pairs, verify_session
from .seeding import MASK64
from .udsn import UdsnParams, UdsnSession

Pair = tuple[int, int]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None


def _read_stdin() -> str:
    """stdin's text, read as strictly as _read reads a file: a stream
    decoded with surrogateescape keeps an undecodable byte as a lone
    surrogate, which the round trip turns back into a decode error."""
    try:
        return sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
    except (OSError, UnicodeError) as exc:
        raise ParameterError(f"cannot read stdin: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def _inputs(params: dict, *labels: str) -> tuple[list[str], dict[str, str]]:
    """The text of each input file named in params, and each text's hash
    under its label. ``--pairs -`` is the stdin text that _params_for
    captured as params["pairs_text"]."""
    texts = [
        str(params["pairs_text"]) if label == "pairs" and params[label] == "-"
        else _read(str(params[label]))
        for label in labels
    ]
    return texts, {label: hash_text(text) for label, text in zip(labels, texts)}


def _session_dump(g: DirectedGraph, mode: GrowthMode, pairs: list[Pair]) -> dict:
    return {
        "n": g.n,
        "edges": [list(e) for e in sorted(g.edges)],
        "mode": mode.value,
        "pairs": [list(p) for p in pairs],
    }


def _table_json(table: PathTable) -> dict[str, object]:
    return {
        "level": table.level,
        "threshold": table.threshold,
        "entries": {f"{s},{t}": list(path) for (s, t), path in sorted(table.entries.items())},
        "finalized_by": {f"{s},{t}": tag for (s, t), tag in sorted(table.finalized_by.items())},
    }


# Each _compute_* function is pure in the file system sense: it reads
# the inputs named in params through _inputs, derives everything else
# from the seed, and returns (payload, input hashes, result, artifacts,
# exit code). _compute hashes the outputs for a run and for its replay.


def _graph_and_pairs(params: dict):
    (graph_text, pairs_text), inputs = _inputs(params, "graph", "pairs")
    return load_graph(graph_text), parse_pairs(pairs_text), inputs


def _serve_and_audit(g: DirectedGraph, mode: GrowthMode, pairs: list[Pair]):
    """Serve the stream with the honest algorithm, then audit the run.
    Returns the session, one row per pair read from its log, the audit's
    JSON fields and whether the audit passed."""
    session = CondensingPreserver(g, mode)
    for s, t in pairs:
        session.serve_pair(s, t)
    # Running sums: every edge a pair adds is new to the output, and a
    # pair's auxiliary path has one vertex per new H edge plus one.
    per_pair, h_size, z_size = [], 0, 0
    for rec in session.log:
        h_size += len(rec.added)
        z_size += len(rec.new_edges) + 1
        per_pair.append(
            {"pair": list(rec.pair), "new_edges": len(rec.added), "h_size": h_size, "z_size": z_size}
        )
    report = verify_session(session)
    unpreserved = unreachable_pairs(session.output_graph(), pairs)
    audit = {
        "report": {**asdict(report), "ok": report.ok},
        "unpreserved_pairs": [list(p) for p in unpreserved],
    }
    return session, per_pair, audit, report.ok and not unpreserved


def _compute_preserve(params: dict, seed: int):
    g, pairs, inputs = _graph_and_pairs(params)
    mode = GrowthMode(str(params["mode"]))
    session, per_pair, audit, ok = _serve_and_audit(g, mode, pairs)
    payload = {
        "n": g.n,
        "mode": mode.value,
        "pairs_served": session.pairs_served,
        "h_size": session.h_size,
        "z_size": session.z_size,
        "tree_edge_count": session.cond.tree_edge_count,
        "edges": [list(e) for e in sorted(session.output_edges)],
        "per_pair": per_pair,
        **audit,
    }
    dump_text = canonical_json(_session_dump(g, mode, pairs)) + "\n"
    return payload, inputs, payload, {"session": dump_text}, 0 if ok else 1


def _tables(params: dict, *vertices: int):
    """Growth mode, path tables and input hashes of precompute and select.
    The given vertices are range-checked before any table is built."""
    (graph_text,), inputs = _inputs(params, "graph")
    g = load_graph(graph_text)
    check_vertices(g.n, *vertices)
    surrogate = default_surrogate(g.n, scale=float(params["scale"]))
    mode = GrowthMode(str(params["mode"]))
    if params.get("p") is not None:
        tables = [precompute_known_p(g, int(params["p"]), surrogate, mode)]
    else:
        p_star = params["p_star"]
        tables = precompute_index_sensitive(
            g, surrogate, mode, None if p_star is None else int(p_star)
        )
    return mode, tables, inputs


def _compute_precompute(params: dict, seed: int):
    mode, tables, inputs = _tables(params)
    payload = {
        "mode": mode.value,
        "scale": params["scale"],
        "tables": [_table_json(t) for t in tables],
    }
    return payload, inputs, payload, {}, 0


def _compute_select(params: dict, seed: int):
    s, t, i = int(params["s"]), int(params["t"]), int(params["index"])
    _, tables, inputs = _tables(params, s, t)
    level, path = select_entry(tables, s, t, i)
    payload = {
        "s": s,
        "t": t,
        "index": i,
        "level": level,
        "levels": [tb.level for tb in tables],
        "path": list(path),
    }
    return payload, inputs, payload, {}, 0


def _compute_udsn(params: dict, seed: int):
    g, pairs, inputs = _graph_and_pairs(params)
    given = {k: int(params[k]) for k in ("tau", "T") if params[k] is not None}
    udsn_params = replace(
        UdsnParams.defaults_for(g.n), sample_constant=float(params["sample_constant"]), **given
    )
    session = UdsnSession(g, udsn_params, seed=seed)
    for s, t in pairs:
        session.serve(s, t)
    output = session.output_graph()
    unpreserved = unreachable_pairs(output, pairs)
    payload = {
        "summary": session.summary(),
        "legs": session.leg_reports(),
        "sampling_failure_indices": [r.index for r in session.sampling_failures],
        "output_edges": [list(e) for e in sorted(output.edges)],
        "unpreserved_pairs": [list(p) for p in unpreserved],
    }
    return payload, inputs, payload, {}, 0 if not unpreserved else 1


def _compute_oracle(params: dict, seed: int):
    g, pairs, inputs = _graph_and_pairs(params)
    best = min_preserver(g, pairs)
    payload = {
        "pairs": [list(p) for p in sorted(set(pairs))],
        "edges": [list(e) for e in sorted(best)],
        "size": len(best),
    }
    return payload, inputs, payload, {}, 0


def _compute_gen(params: dict, seed: int):
    # gen's run parameters are exactly InstanceFamily's fields but seed
    family = InstanceFamily(seed=seed, **params)
    g, stream = generate(family)
    graph_text = dump_graph(g)
    pairs_text = format_pairs(list(stream))
    payload = {
        "kind": family.kind,
        "n": g.n,
        "edge_count": g.edge_count,
        "edges": [list(e) for e in sorted(g.edges)],
        "pairs": [list(p) for p in stream],
    }
    return payload, {}, None, {"graph": graph_text, "pairs": pairs_text}, 0


def _compute_bench(params: dict, seed: int):
    grid = {k: v for k, v in params.items() if k != "constant"}
    rows = bench_sweep(bench_grid(seed=seed, **grid), constant=float(params["constant"]))
    failed = any("error" in row for row in rows)
    return {"rows": rows}, {}, primary_rows(rows), {}, 1 if failed else 0


_COMPUTE = {
    "preserve": _compute_preserve,
    "precompute": _compute_precompute,
    "select": _compute_select,
    "udsn": _compute_udsn,
    "oracle": _compute_oracle,
    "gen": _compute_gen,
    "bench": _compute_bench,
}


def _compute(command: str, params: dict, seed: int):
    """Run one command: (payload, input hashes, output hashes, artifacts,
    exit code). The result is hashed as "result" (no key when it is None)
    and each artifact under its own name."""
    payload, inputs, result, artifacts, code = _COMPUTE[command](params, seed)
    outputs = {name: hash_text(text) for name, text in artifacts.items()}
    if result is not None:
        outputs["result"] = hash_json(result)
    return payload, inputs, outputs, artifacts, code


def replay_manifest(manifest: RunManifest) -> dict[str, str]:
    """Recompute a recorded run and return its output hashes. Raises
    when an input file no longer matches what the run saw."""
    if manifest.command not in _COMPUTE:
        raise ParameterError(f"unknown command {manifest.command!r} in manifest")
    _, inputs, outputs, _, _ = _compute(manifest.command, manifest.params, manifest.seed)
    for label in sorted(set(manifest.inputs) | set(inputs)):
        if manifest.inputs.get(label) != inputs.get(label):
            raise ParameterError(f"input {label!r} changed since the run was recorded")
    return outputs


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(canonical_json(payload))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _run_command(args: argparse.Namespace, params: dict) -> int:
    if not 0 <= args.seed <= MASK64:  # split_seed keeps 64 bits, so two seeds would alias
        raise ParameterError(f"seed must be in 0..{MASK64}, got {args.seed}")
    t0 = time.perf_counter()
    payload, inputs, outputs, artifacts, code = _compute(args.command, params, args.seed)
    wall = time.perf_counter() - t0
    for name, text in artifacts.items():
        target = getattr(args, f"out_{name}", None)
        if target:
            _write(target, text)
    manifest = RunManifest(
        args.command, params, args.seed, inputs, outputs, wall_time=wall, created=utc_stamp()
    )
    try:
        path = save_manifest(manifest, args.manifest_dir)
    except OSError as exc:
        raise ParameterError(f"cannot write {args.manifest_dir}: {exc}") from None
    _emit(payload, args.json)
    print(f"manifest: {path}", file=sys.stderr)
    return code


def _load_session(path: str) -> tuple[DirectedGraph, GrowthMode, list[Pair]]:
    """Graph, mode and demand stream of a dump written by --out-session.
    Vertex counts and ids must be JSON integers and the mode a string."""
    try:
        dump = json.loads(_read(path))
        edges = [(u, v) for u, v in dump["edges"]]
        pairs = [(s, t) for s, t in dump["pairs"]]
        ids = (dump["n"], *chain(*edges, *pairs))
        # type(), not isinstance(): a bool is an int, and a float would be truncated.
        if any(type(x) is not int for x in ids) or not isinstance(dump["mode"], str):
            raise TypeError("n, edge and pair ends must be integers and mode a string")
        return DirectedGraph(dump["n"], edges), GrowthMode(dump["mode"]), pairs
    except ReachkeepError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed session dump {path}: {type(exc).__name__}: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.session:
        _, _, audit, ok = _serve_and_audit(*_load_session(args.session))
        _emit(audit, args.json)
        return 0 if ok else 1

    results = verify_all(args.manifest_dir, replay_manifest)
    payload = {
        "checked": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "results": [
            {"path": r.path, "id": r.manifest_id, "ok": r.ok, "reason": r.reason}
            for r in results
        ],
    }
    _emit(payload, args.json)
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachkeep",
        description="Online reachability preservers and their verifiers.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--manifest-dir", default="manifests", help="where run manifests are written"
    )
    parser.add_argument("--json", action="store_true", help="print one canonical JSON line")
    # The same globals are accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--manifest-dir", default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str, *files: str):
        p = sub.add_parser(name, help=help_text, parents=[common])
        for option in files:
            p.add_argument(f"--{option}", required=True)
        return p

    p = add_parser(
        "preserve", "serve a demand stream, verify, print the subgraph", "graph", "pairs"
    )
    p.add_argument("--mode", default="fw", choices=["fw", "bw"])
    p.add_argument("--out-session", default=None, help="write a replayable session dump")

    p = add_parser("precompute", "build non-adaptive path tables", "graph")
    p.add_argument("--p", type=int, default=None, help="known demand count")
    p.add_argument("--p-star", type=int, default=None, help="base level when p is unknown")
    p.add_argument("--scale", type=float, default=4.0)
    p.add_argument("--mode", default="fw", choices=["fw", "bw"])

    p = add_parser("select", "answer one demand from the doubling tables", "graph")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="1-based demand index")
    p.add_argument("--p-star", type=int, default=None)
    p.add_argument("--scale", type=float, default=4.0)
    p.add_argument("--mode", default="fw", choices=["fw", "bw"])

    p = add_parser("udsn", "simulate the online Steiner network router", "graph", "pairs")
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--sample-constant", type=float, default=2.0)

    add_parser("oracle", "exhaustive minimum preserver (small inputs)", "graph", "pairs")

    p = add_parser("gen", "generate a seeded instance")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.25)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--s-size", type=int, default=1)
    p.add_argument("--side", default="source", choices=["source", "sink"])
    p.add_argument("--layers", type=int, default=0)
    p.add_argument("--part-length", type=int, default=4)
    p.add_argument("--out-graph", default=None)
    p.add_argument("--out-pairs", default=None)

    p = add_parser("verify", "replay manifests, or re-check a session dump")
    p.add_argument("--session", default=None)

    p = add_parser("bench", "seeded sweep over generated instances")
    p.add_argument("--kind", default="sourcewise")
    p.add_argument("--ns", default="50,100")
    p.add_argument("--s-sizes", default=",".join(map(str, BENCH_KNOBS["s_sizes"])))
    p.add_argument("--pair-counts", default=",".join(map(str, BENCH_KNOBS["pair_counts"])))
    p.add_argument("--pair-factor", type=int, default=BENCH_KNOBS["pair_factor"])
    p.add_argument("--modes", default="fw,bw")
    p.add_argument("--density", type=float, default=0.25)
    p.add_argument("--constant", type=float, default=16.0)

    return parser


# Parsed options that are not run parameters: the command and seed have
# their own manifest fields, the rest only choose where output goes.
_NOT_PARAMS = {"command", "seed", "manifest_dir", "json"}


def _int_list(option: str, text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values:
        raise ParameterError(f"--{option} expects comma-separated integers, got {text!r}")
    return values


def _params_for(args: argparse.Namespace) -> dict:
    params = {
        k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and not k.startswith("out_")
    }
    if getattr(args, "pairs", None) == "-":
        # demands streamed on stdin are captured so replays see them
        params["pairs_text"] = _read_stdin()
    if args.command == "precompute" and args.p is not None and args.p_star is not None:
        raise ParameterError("--p and --p-star are mutually exclusive")
    if args.command == "bench":
        for key in ("ns", "s_sizes", "pair_counts"):
            params[key] = _int_list(key.replace("_", "-"), params[key])
        params["modes"] = [m for m in args.modes.split(",") if m]
        if not params["modes"]:
            raise ParameterError(f"--modes expects comma-separated modes, got {args.modes!r}")
    return params


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _run_command(args, _params_for(args))
    except ReachkeepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
