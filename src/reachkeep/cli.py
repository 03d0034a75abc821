"""Command line front end.

Exit codes: 0 success, 1 a computation-level failure (verification
mismatch, infeasible demand, missing table entry, surrogate monitor
tripped), 2 malformed invocation or input.

Every run except ``verify`` records a manifest under --manifest-dir;
``verify`` without arguments replays that directory and reports any
manifest whose outputs no longer reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path

from .errors import (
    BoundsError,
    CyclicGraphError,
    InfeasiblePairError,
    ParameterError,
    ParseError,
    ReachkeepError,
    SizeLimitError,
)
from .graphs import DirectedGraph, check_vertices, dump_graph, format_pairs, load_graph, parse_pairs
from .harness import (
    RunManifest,
    bench_sweep,
    canonical_json,
    hash_json,
    hash_text,
    primary_rows,
    save_manifest,
    sourcewise_cells,
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
from .preserver import (
    CondensingPreserver,
    GrowthMode,
    unreachable_pairs,
    verify_session,
)
from .seeding import split_seed
from .udsn import UdsnParams, UdsnSession

Pair = tuple[int, int]

USAGE_ERRORS = (
    ParseError,
    ParameterError,
    BoundsError,
    SizeLimitError,
    CyclicGraphError,
    InfeasiblePairError,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None


def _witness_json(w) -> dict | None:
    return None if w is None else w.to_json_dict()


def _report_json(report) -> dict[str, object]:
    return {
        "acyclic": report.acyclic,
        "size_ok": report.size_ok,
        "expected_size": report.expected_size,
        "actual_size": report.actual_size,
        "bridges": {str(k): _witness_json(w) for k, w in sorted(report.bridges.items())},
        "unreachable_pairs": [list(p) for p in report.unreachable_pairs],
        "ok": report.ok,
    }


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
        "entries": {
            f"{s},{t}": list(path) for (s, t), path in sorted(table.entries.items())
        },
        "finalized_by": {
            f"{s},{t}": tag for (s, t), tag in sorted(table.finalized_by.items())
        },
    }


# Each _compute_* function is pure in the file system sense: it reads
# the inputs named in params, derives everything else from the seed,
# and returns (payload, input_hashes, output_hashes, artifacts, exit
# code). Replay calls the same function and compares hashes.


def _pairs_text_from(params: dict) -> str:
    if str(params["pairs"]) == "-":
        return str(params["pairs_text"])
    return _read(str(params["pairs"]))


def _serve_and_audit(g: DirectedGraph, mode: GrowthMode, pairs: list[Pair]):
    """Serve the stream with the honest algorithm, then audit the run.
    Returns the session, one record per pair, the audit's JSON fields
    and whether the audit passed."""
    session = CondensingPreserver(g, mode)
    per_pair = []
    for s, t in pairs:
        new = session.serve_pair(s, t)
        per_pair.append(
            {
                "pair": [s, t],
                "new_edges": len(new),
                "h_size": session.h_size,
                "z_size": session.z_size,
            }
        )
    report = verify_session(session)
    unpreserved = unreachable_pairs(session.output_graph(), pairs)
    audit = {
        "report": _report_json(report),
        "unpreserved_pairs": [list(p) for p in unpreserved],
    }
    return session, per_pair, audit, report.ok and not unpreserved


def _compute_preserve(params: dict, seed: int):
    graph_text = _read(str(params["graph"]))
    pairs_text = _pairs_text_from(params)
    g = load_graph(graph_text)
    pairs = parse_pairs(pairs_text)
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
    inputs = {"graph": hash_text(graph_text), "pairs": hash_text(pairs_text)}
    outputs = {"result": hash_json(payload), "session": hash_text(dump_text)}
    return payload, inputs, outputs, {"session": dump_text}, 0 if ok else 1


def _compute_precompute(params: dict, seed: int):
    graph_text = _read(str(params["graph"]))
    g = load_graph(graph_text)
    surrogate = default_surrogate(g.n, scale=float(params["scale"]))
    mode = GrowthMode(str(params["mode"]))
    if params["p"] is not None:
        tables = [precompute_known_p(g, int(params["p"]), surrogate, mode)]
    else:
        p_star = params["p_star"]
        tables = precompute_index_sensitive(
            g, surrogate, mode, None if p_star is None else int(p_star)
        )
    payload = {
        "mode": mode.value,
        "scale": params["scale"],
        "tables": [_table_json(t) for t in tables],
    }
    inputs = {"graph": hash_text(graph_text)}
    outputs = {"result": hash_json(payload)}
    return payload, inputs, outputs, {}, 0


def _compute_select(params: dict, seed: int):
    graph_text = _read(str(params["graph"]))
    g = load_graph(graph_text)
    s, t, i = int(params["s"]), int(params["t"]), int(params["index"])
    check_vertices(g.n, s, t)
    surrogate = default_surrogate(g.n, scale=float(params["scale"]))
    mode = GrowthMode(str(params["mode"]))
    p_star = params["p_star"]
    tables = precompute_index_sensitive(
        g, surrogate, mode, None if p_star is None else int(p_star)
    )
    level, path = select_entry(tables, s, t, i)
    payload = {
        "s": s,
        "t": t,
        "index": i,
        "level": level,
        "levels": [tb.level for tb in tables],
        "path": list(path),
    }
    inputs = {"graph": hash_text(graph_text)}
    outputs = {"result": hash_json(payload)}
    return payload, inputs, outputs, {}, 0


def _compute_udsn(params: dict, seed: int):
    graph_text = _read(str(params["graph"]))
    pairs_text = _read(str(params["pairs"]))
    g = load_graph(graph_text)
    pairs = parse_pairs(pairs_text)
    base = UdsnParams.defaults_for(g.n)
    udsn_params = UdsnParams(
        tau=base.tau if params["tau"] is None else int(params["tau"]),
        T=base.T if params["T"] is None else int(params["T"]),
        sample_constant=float(params["sample_constant"]),
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
    inputs = {"graph": hash_text(graph_text), "pairs": hash_text(pairs_text)}
    outputs = {"result": hash_json(payload)}
    return payload, inputs, outputs, {}, 0 if not unpreserved else 1


def _compute_oracle(params: dict, seed: int):
    graph_text = _read(str(params["graph"]))
    pairs_text = _read(str(params["pairs"]))
    g = load_graph(graph_text)
    pairs = parse_pairs(pairs_text)
    best = min_preserver(g, pairs)
    payload = {
        "pairs": [list(p) for p in sorted(set(pairs))],
        "edges": [list(e) for e in sorted(best)],
        "size": len(best),
    }
    inputs = {"graph": hash_text(graph_text), "pairs": hash_text(pairs_text)}
    outputs = {"result": hash_json(payload)}
    return payload, inputs, outputs, {}, 0


def _compute_gen(params: dict, seed: int):
    family = InstanceFamily(
        kind=str(params["kind"]),
        n=int(params["n"]),
        seed=seed,
        density=float(params["density"]),
        pairs=int(params["pairs"]),
        s_size=int(params["s_size"]),
        side=str(params["side"]),
        layers=int(params["layers"]),
        part_length=int(params["part_length"]),
    )
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
    outputs = {"graph": hash_text(graph_text), "pairs": hash_text(pairs_text)}
    return payload, {}, outputs, {"graph": graph_text, "pairs": pairs_text}, 0


# The bench knobs that one kind ignores, with their defaults: s_sizes and
# pair_factor shape sourcewise sweeps only, pair_counts the other kinds.
# Another value where it is ignored would give one sweep two manifest ids.
_BENCH_KNOBS = {"s_sizes": [1, 2, 4], "pair_factor": 20, "pair_counts": [10, 50]}


def _bench_cells(params: dict, seed: int):
    kind = str(params["kind"])
    ignored = ("pair_counts",) if kind == "sourcewise" else ("s_sizes", "pair_factor")
    for key in ignored:
        if params[key] != _BENCH_KNOBS[key]:
            raise ParameterError(f"{kind} does not use {key}, got {key}={params[key]!r}")
    ns = [int(x) for x in params["ns"]]
    modes = [GrowthMode(str(m)) for m in params["modes"]]
    if kind == "sourcewise":
        return sourcewise_cells(
            ns,
            [int(x) for x in params["s_sizes"]],
            pair_factor=int(params["pair_factor"]),
            seed=seed,
            modes=modes,
            density=float(params["density"]),
        )
    cells = []
    for n in ns:
        for p in [int(x) for x in params["pair_counts"]]:
            for mode in modes:
                family = InstanceFamily(
                    kind=kind,
                    n=n,
                    seed=split_seed(seed, "bench", kind, n, p, mode.value),
                    density=float(params["density"]),
                    pairs=p,
                )
                cells.append((family, mode))
    return cells


def _compute_bench(params: dict, seed: int):
    rows = bench_sweep(_bench_cells(params, seed), constant=float(params["constant"]))
    payload = {"rows": rows}
    outputs = {"result": hash_json(primary_rows(rows))}
    failed = any("error" in row for row in rows)
    return payload, {}, outputs, {}, 1 if failed else 0


_COMPUTE = {
    "preserve": _compute_preserve,
    "precompute": _compute_precompute,
    "select": _compute_select,
    "udsn": _compute_udsn,
    "oracle": _compute_oracle,
    "gen": _compute_gen,
    "bench": _compute_bench,
}


def replay_manifest(manifest: RunManifest) -> dict[str, str]:
    """Recompute a recorded run and return its output hashes. Raises
    when an input file no longer matches what the run saw."""
    compute = _COMPUTE.get(manifest.command)
    if compute is None:
        raise ParameterError(f"unknown command {manifest.command!r} in manifest")
    payload, inputs, outputs, artifacts, code = compute(manifest.params, manifest.seed)
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
    compute = _COMPUTE[args.command]
    t0 = time.perf_counter()
    payload, inputs, outputs, artifacts, code = compute(params, args.seed)
    wall = time.perf_counter() - t0
    for option, text in artifacts.items():
        target = getattr(args, f"out_{option}", None)
        if target:
            Path(target).write_text(text)
    _emit(payload, args.json)
    manifest = RunManifest(
        command=args.command,
        params=params,
        seed=args.seed,
        inputs=inputs,
        outputs=outputs,
        wall_time=wall,
        created=utc_stamp(),
    )
    path = save_manifest(manifest, args.manifest_dir)
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
    parser.add_argument(
        "--json", action="store_true", help="print one canonical JSON line"
    )
    # The same globals are accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--manifest-dir", default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_parser("preserve", "serve a demand stream, verify, print the subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--mode", default="fw", choices=["fw", "bw"])
    p.add_argument("--out-session", default=None, help="write a replayable session dump")

    p = add_parser("precompute", "build non-adaptive path tables")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", type=int, default=None, help="known demand count")
    p.add_argument("--p-star", type=int, default=None, help="base level when p is unknown")
    p.add_argument("--scale", type=float, default=4.0)
    p.add_argument("--mode", default="fw", choices=["fw", "bw"])

    p = add_parser("select", "answer one demand from the doubling tables")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="1-based demand index")
    p.add_argument("--p-star", type=int, default=None)
    p.add_argument("--scale", type=float, default=4.0)
    p.add_argument("--mode", default="fw", choices=["fw", "bw"])

    p = add_parser("udsn", "simulate the online Steiner network router")
    p.add_argument("--graph", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--sample-constant", type=float, default=2.0)

    p = add_parser("oracle", "exhaustive minimum preserver (small inputs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--pairs", required=True)

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
    p.add_argument("--s-sizes", default="1,2,4")
    p.add_argument("--pair-counts", default="10,50")
    p.add_argument("--pair-factor", type=int, default=20)
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
    if args.command == "preserve" and args.pairs == "-":
        # demands streamed on stdin are captured so replays see them
        params["pairs_text"] = sys.stdin.read()
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
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReachkeepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
