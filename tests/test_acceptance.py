"""Ten gated checks, one per release criterion, each printing a
PASS/FAIL line even under captured output. Numbered names keep the
execution order stable."""

from __future__ import annotations

import json
import random
import time
import warnings
from pathlib import Path

from reachkeep import (
    EXHAUSTIVE_EDGE_LIMIT,
    THIN,
    CondensingPreserver,
    DirectedGraph,
    InstanceFamily,
    UdsnParams,
    UdsnSession,
    bench_sweep,
    default_surrogate,
    generate,
    is_thin,
    min_preserver,
    precompute_index_sensitive,
    precompute_known_p,
    r_set,
    reachable_set,
    reversed_system,
    select_entry,
    size_envelope_general,
    size_envelope_source_restricted,
    surrogate_monitor,
    verify_all,
    verify_r_ordering,
)
from reachkeep.cli import main as cli_main
from reachkeep.cli import replay_manifest
from reachkeep.seeding import rng_for


def emit(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_exact_session_laws(exact_suite, capsys):
    violations = exact_suite.violations
    count = len(exact_suite.entries)
    ok = not violations and count >= 200 and exact_suite.elapsed < 600
    emit(
        capsys, 1, ok,
        f"{count} sessions, {len(violations)} violations, "
        f"{exact_suite.elapsed:.1f}s",
    )
    assert count >= 200
    assert exact_suite.elapsed < 600
    assert violations == []


def test_criterion_02_shared_terminal_envelope(capsys):
    t0 = time.perf_counter()
    violations = []
    runs = 0
    for seed in (0, 1):
        for n in (50, 100, 200):
            for s_size in (1, 2, 4, 8):
                for mode in ("fw", "bw"):
                    family = InstanceFamily(
                        kind="sourcewise",
                        n=n,
                        seed=seed * 1000 + n + s_size,
                        pairs=20 * s_size,
                        s_size=s_size,
                        side="sink" if mode == "fw" else "source",
                    )
                    g, stream = generate(family)
                    session = CondensingPreserver(g, mode)
                    for s, t in stream:
                        session.serve_pair(s, t)
                    runs += 1
                    budget = size_envelope_source_restricted(
                        n, len(stream), s_size
                    )
                    if session.h_size > budget:
                        violations.append(
                            f"n={n} |S|={s_size} {mode} seed={seed}: "
                            f"{session.h_size} > {budget:.0f}"
                        )
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300
    emit(capsys, 2, ok, f"{runs} runs, {len(violations)} violations, {elapsed:.1f}s")
    assert elapsed < 300
    assert violations == []


def test_criterion_03_exhaustive_anchor(capsys):
    t0 = time.perf_counter()
    instances = []
    seed = 0
    while len(instances) < 60 and seed < 400:
        kind = "random-dag" if seed % 2 == 0 else "random-digraph"
        family = InstanceFamily(
            kind=kind, n=5 + seed % 3, seed=seed, density=0.3, pairs=4
        )
        g, stream = generate(family)
        if g.edge_count <= EXHAUSTIVE_EDGE_LIMIT:
            instances.append((g, stream))
        seed += 1
    violations = []
    for idx, (g, stream) in enumerate(instances):
        opt = min_preserver(g, stream)
        opt_graph = DirectedGraph(g.n, opt)
        for s, t in stream:
            if s != t and t not in reachable_set(opt_graph, s):
                violations.append(f"instance {idx}: optimum drops ({s}, {t})")
        for mode in ("fw", "bw"):
            session = CondensingPreserver(g, mode)
            for s, t in stream:
                session.serve_pair(s, t)
            if len(session.output_edges) < len(opt):
                violations.append(
                    f"instance {idx} {mode}: online {len(session.output_edges)} "
                    f"beat the optimum {len(opt)}"
                )
    elapsed = time.perf_counter() - t0
    ok = len(instances) >= 50 and not violations and elapsed < 300
    emit(
        capsys, 3, ok,
        f"{len(instances)} instances, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert len(instances) >= 50
    assert elapsed < 300
    assert violations == []


def test_criterion_04_cyclic_lift(capsys):
    instances = []
    seed = 0
    sizes = (10, 18, 30, 40)
    while len(instances) < 54 and seed < 400:
        family = InstanceFamily(
            kind="random-digraph",
            n=sizes[seed % len(sizes)],
            seed=seed,
            density=0.18,
            pairs=8,
        )
        g, stream = generate(family)
        if not g.is_dag:
            instances.append((g, stream))
        seed += 1
    violations = []
    for idx, (g, stream) in enumerate(instances):
        session = CondensingPreserver(g, "fw" if idx % 2 == 0 else "bw")
        for s, t in stream:
            session.serve_pair(s, t)
        out = session.output_graph()
        for s, t in stream:
            if t not in reachable_set(out, s):
                violations.append(f"instance {idx}: pair ({s}, {t}) lost")
        expected_trees = sum(
            2 * (len(c) - 1) for c in session.cond.components
        )
        if session.cond.tree_edge_count != expected_trees:
            violations.append(f"instance {idx}: tree accounting broken")
        if not session.cond.tree_edge_count < 2 * g.n:
            violations.append(f"instance {idx}: tree budget 2n exceeded")
    ok = len(instances) >= 50 and not violations
    emit(capsys, 4, ok, f"{len(instances)} cyclic instances, {len(violations)} violations")
    assert len(instances) >= 50
    assert violations == []


def test_criterion_05_known_budget_tables(capsys):
    p = 6
    valid = 0
    firings = 0
    violations = []
    seed = 0
    sizes = (16, 20, 24)
    densities = (0.2, 0.35)
    while valid < 50 and seed < 300:
        family = InstanceFamily(
            kind="random-dag",
            n=sizes[seed % len(sizes)],
            seed=seed,
            density=densities[seed % len(densities)],
            pairs=0,
        )
        g, _ = generate(family)
        seed += 1
        surrogate = default_surrogate(g.n)
        monitor = surrogate_monitor(g, p, surrogate)
        if not monitor.valid:
            firings += 1
            continue
        valid += 1
        table = precompute_known_p(g, p, surrogate)
        if not len(table.while_loop_pairs) < p:
            violations.append(f"seed {seed - 1}: greedy phase ran p times")
        budget = 2 * surrogate.evaluate(g.n, p)
        domain = sorted(table.entries)
        for j in range(10):
            rng = rng_for(seed - 1, "table-stream", j)
            touched = set()
            for _ in range(p):
                path = table.entries[rng.choice(domain)]
                touched.update(zip(path, path[1:]))
            if len(touched) > budget:
                violations.append(
                    f"seed {seed - 1} stream {j}: {len(touched)} > {budget:.0f}"
                )
    ok = valid >= 50 and not violations
    emit(
        capsys, 5, ok,
        f"{valid} monitored instances, {firings} monitor firings, "
        f"{len(violations)} violations",
    )
    assert valid >= 50
    assert violations == []


def test_criterion_06_doubling_stack(capsys):
    cases = [
        (40, 0, 0.15, None, 25),
        (40, 1, 0.15, None, 25),
        (60, 0, 0.12, 5, 25),
        (60, 1, 0.12, 5, 25),
        (50, 2, 0.15, 7, 30),
    ]
    violations = []
    for n, seed, density, p_star, p in cases:
        family = InstanceFamily(
            kind="random-dag", n=n, seed=seed, density=density, pairs=p
        )
        g, stream = generate(family)
        surrogate = default_surrogate(n)
        tables = precompute_index_sensitive(g, surrogate, p_star=p_star)
        touched = set()
        top_level = 0
        for i, (s, t) in enumerate(stream, start=1):
            level, path = select_entry(tables, s, t, i)
            top_level = max(top_level, level)
            touched.update(zip(path, path[1:]))
        budget = 2 * sum(
            surrogate.evaluate(n, table.level)
            for table in tables
            if table.level <= top_level
        )
        if len(touched) > budget:
            violations.append(f"n={n} seed={seed}: {len(touched)} > {budget:.0f}")

    # rebuilding after unrelated work must not move a single path
    family = InstanceFamily(kind="random-dag", n=40, seed=0, density=0.15, pairs=25)
    g, stream = generate(family)
    before = precompute_index_sensitive(g)
    random.seed(987654321)
    random.random()
    decoy_dag, _ = generate(
        InstanceFamily(kind="random-dag", n=30, seed=78, density=0.2, pairs=0)
    )
    precompute_index_sensitive(decoy_dag, p_star=3)
    decoy_g, decoy_stream = generate(
        InstanceFamily(kind="random-digraph", n=30, seed=77, density=0.2, pairs=20)
    )
    decoy = CondensingPreserver(decoy_g, "bw")
    for s, t in decoy_stream:
        decoy.serve_pair(s, t)
    after = precompute_index_sensitive(g)
    if [t.entries for t in before] != [t.entries for t in after]:
        violations.append("table stack depends on extraneous state")
    for i, (s, t) in enumerate(stream, start=1):
        if select_entry(before, s, t, i) != select_entry(after, s, t, i):
            violations.append(f"answer for demand {i} drifted")
            break

    ok = not violations
    emit(capsys, 6, ok, f"{len(cases)} replays, {len(violations)} violations")
    assert violations == []


def test_criterion_07_steiner_routing(capsys):
    runs = [
        (60, 0, 0.12, 40),
        (60, 1, 0.12, 40),
        (150, 0, 0.05, 50),
        (150, 1, 0.05, 50),
        (300, 0, 0.03, 60),
        (300, 1, 0.03, 60),
    ]
    violations = []
    ratios = []
    profile = {"trivial": 0, "firstT": 0, "hit": 0, "thin": 0}
    for n, seed, density, pairs in runs:
        family = InstanceFamily(
            kind="random-digraph", n=n, seed=seed, density=density, pairs=pairs
        )
        g, stream = generate(family)
        base = UdsnParams.defaults_for(n)
        params = UdsnParams(tau=base.tau, T=min(10, base.T))
        session = UdsnSession(g, params, seed=seed)
        for s, t in stream:
            session.serve(s, t)
        tag = f"n={n} seed={seed}"
        if session.sampling_failures:
            violations.append(
                f"{tag}: {len(session.sampling_failures)} sampling failures"
            )
        for record in session.records:
            profile[record.route] += 1
            if record.route == THIN and not is_thin(
                g, *record.pair, params.tau
            ):
                violations.append(f"{tag}: thick pair {record.pair} routed thin")
        out = session.output_graph()
        for s, t in stream:
            if t not in reachable_set(out, s):
                violations.append(f"{tag}: pair ({s}, {t}) unreachable in output")
        sample_size = len(session.sample) if session.sample else 0
        for leg_name, leg in (("fw", session.fw_leg), ("bw", session.bw_leg)):
            leg_pairs = leg.pairs_served
            if leg_pairs == 0 or sample_size == 0:
                continue
            budget = size_envelope_source_restricted(n, leg_pairs, sample_size)
            if leg.h_size > budget:
                violations.append(
                    f"{tag}: {leg_name} leg {leg.h_size} > {budget:.0f}"
                )
        summary = session.summary()
        if summary["ratio"] is not None:
            ratios.append(round(summary["ratio"], 2))
    ok = not violations
    emit(
        capsys, 7, ok,
        f"{len(runs)} runs, routes {profile}, uncertified ratios {ratios}, "
        f"{len(violations)} violations",
    )
    assert violations == []


def test_criterion_08_size_tripwire(capsys):
    cells = [
        (
            InstanceFamily(
                kind="random-dag", n=n, seed=seed, density=0.15, pairs=p
            ),
            mode,
        )
        for n in (40, 80, 160)
        for p in (20, 80)
        for seed in (0, 1)
        for mode in ("fw", "bw")
    ]
    rows = bench_sweep(cells)
    violations = []
    for row in rows:
        if "error" in row:
            violations.append(str(row["error"]))
            continue
        n, p = row["n"], row["p"]
        cap = size_envelope_general(n, p, 32)
        if row["edges_h"] > cap:
            violations.append(
                f"n={n} p={p} seed={row['seed']} {row['mode']}: "
                f"{row['edges_h']} > {cap:.0f}"
            )
    ok = not violations
    emit(capsys, 8, ok, f"{len(rows)} bench rows, {len(violations)} violations")
    assert violations == []


def test_criterion_09_meeting_order(exact_suite, capsys):
    checks = 0
    violations = []
    for idx, entry in enumerate(exact_suite.entries):
        system = entry.z if entry.mode == "bw" else reversed_system(entry.z)
        count = len(system.paths)
        if count < 2:
            continue
        rng = rng_for(0, "meeting-order", idx)
        budget = min(40, count * (count - 1))
        seen = set()
        while len(seen) < budget:
            i1 = rng.randrange(count)
            i3 = rng.randrange(count)
            if i1 == i3 or (i1, i3) in seen:
                continue
            seen.add((i1, i3))
            checks += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                members = r_set(system, i1, i3)
                ordered = verify_r_ordering(system, i1, i3)
            if len(members) > len(system.paths[i1]):
                violations.append(
                    f"entry {idx} ({i1},{i3}): {len(members)} members "
                    f"exceed |path {i1}|"
                )
            if not ordered:
                violations.append(f"entry {idx} ({i1},{i3}): ordering law broken")
    ok = checks > 0 and not violations
    emit(capsys, 9, ok, f"{checks} sampled pairs, {len(violations)} violations")
    assert checks > 0
    assert violations == []


def _run_cli_suite(manifest_dir: Path, artifact_dir: Path) -> None:
    g = str(artifact_dir / "g.txt")
    pr = str(artifact_dir / "p.txt")
    sess = str(artifact_dir / "session.json")
    commands = [
        [
            "gen", "--kind", "path-union", "--n", "12", "--part-length", "4",
            "--pairs", "6", "--seed", "9",
            "--out-graph", g, "--out-pairs", pr,
        ],
        [
            "preserve", "--graph", g, "--pairs", pr, "--mode", "bw",
            "--out-session", sess, "--seed", "9",
        ],
        ["precompute", "--graph", g, "--p", "4"],
        ["select", "--graph", g, "--s", "0", "--t", "3", "--index", "2"],
        ["udsn", "--graph", g, "--pairs", pr, "--T", "2", "--seed", "9"],
        ["oracle", "--graph", g, "--pairs", pr],
        [
            "bench", "--ns", "20,30", "--s-sizes", "1,2",
            "--pair-factor", "5", "--seed", "9",
        ],
    ]
    for command in commands:
        code = cli_main(command + ["--manifest-dir", str(manifest_dir)])
        assert code == 0, f"{command[0]} exited {code}"


def test_criterion_10_replay_determinism(tmp_path, capsys):
    artifact_dir = tmp_path / "artifacts"
    artifact_dir.mkdir()
    dir_one = tmp_path / "manifests-one"
    dir_two = tmp_path / "manifests-two"

    _run_cli_suite(dir_one, artifact_dir)
    first_bytes = {
        p.name: p.read_bytes() for p in sorted(artifact_dir.iterdir())
    }
    _run_cli_suite(dir_two, artifact_dir)
    second_bytes = {
        p.name: p.read_bytes() for p in sorted(artifact_dir.iterdir())
    }

    ids_one = sorted(p.stem for p in dir_one.glob("*.json"))
    ids_two = sorted(p.stem for p in dir_two.glob("*.json"))
    outputs_one = [
        json.loads(p.read_text())["outputs"] for p in sorted(dir_one.glob("*.json"))
    ]
    outputs_two = [
        json.loads(p.read_text())["outputs"] for p in sorted(dir_two.glob("*.json"))
    ]
    replays_one = verify_all(dir_one, replay_manifest)
    replays_two = verify_all(dir_two, replay_manifest)
    failures = [r for r in replays_one + replays_two if not r.ok]

    ok = (
        ids_one == ids_two
        and outputs_one == outputs_two
        and first_bytes == second_bytes
        and not failures
    )
    emit(
        capsys, 10, ok,
        f"{len(ids_one)} manifests, artifacts byte-identical: "
        f"{first_bytes == second_bytes}, replay failures: {len(failures)}",
    )
    assert ids_one == ids_two
    assert outputs_one == outputs_two
    assert first_bytes == second_bytes
    assert failures == []
