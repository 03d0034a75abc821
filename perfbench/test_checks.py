"""Self-tests of the benchmark: the independent checks reject tampered
outputs, the generator is seeded, and BENCHMARK.json matches the
metrics the runner prints.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def served(w):
    state = w.setup()
    serve = w.server(state)
    for i, (s, t) in enumerate(w.pairs):
        serve(i, s, t)
    return state


def small_dag(seed=1, **kw):
    params = dict(n=60, m=180, p=120, mode="fw")
    params.update(kw)
    return workloads.DagPreserver("dag-fw", seed, **params)


def test_honest_outputs_pass_every_check():
    for w in (
        small_dag(),
        small_dag(mode="bw", sources=3),
        workloads.CyclicUdsn("cyclic-udsn", 1, n=120, m=200, p=240, T=4),
        workloads.Tables("tables", 1, n=16, m=30, p=200, scale=0.3, mode="fw"),
    ):
        state = served(w)
        assert w.audit(state) is None
        verdict = w.check(state)
        assert verdict.failed == 0, verdict.reasons()


def test_udsn_stream_takes_hit_routes():
    w = workloads.CyclicUdsn("cyclic-udsn", 1, n=120, m=200, p=240, T=4)
    session = served(w)
    assert any(r.route == "hit" for r in session.records)


def test_dropped_preserver_edge_is_rejected():
    w = small_dag()
    session = served(w)
    full = set(session.output_edges)
    for dropped in sorted(full):
        h = full - {dropped}
        v = checks.Verdict(len(w.pairs))
        checks.pairs_reachable(v, w.n, h, w.pairs)
        if v.bad:
            break
    assert v.bad, "no single edge of H is needed by a pair"
    checks.size_identity(v, session.inner.z_paths, len(h), len(w.pairs))
    assert v.whole and v.failed == len(w.pairs)


def test_altered_table_entry_is_rejected():
    w = workloads.Tables("tables", 1, n=16, m=30, p=200, scale=0.3, mode="fw")
    state = served(w)
    g = set(w.edges)
    table = state.stack[0]
    pair = next((s, t) for (s, t) in table.entries if s != t and (s, t) not in g)
    table.entries[pair] = pair  # a two-vertex "walk" over a missing edge
    assert w.check(state).failed == len(w.pairs)


def test_residual_bound_is_checked():
    w = workloads.Tables("tables", 1, n=16, m=30, p=200, scale=0.3, mode="fw")
    state = served(w)
    levels = [(0.0, t.entries, t.finalized_by) for t in state.stack]
    v = checks.Verdict(1)
    checks.tables(v, w.n, w.edges, levels)
    assert any("residual" in why for why in v.whole)


def test_misplaced_relay_is_rejected():
    w = workloads.CyclicUdsn("cyclic-udsn", 1, n=120, m=200, p=240, T=4)
    session = served(w)
    i, s, t, v = next((r.index, *r.pair, r.via) for r in session.records if r.route == "hit")
    outside = next(x for x in range(w.n) if not w.reach.reaches(s, x))
    verdict = checks.Verdict(len(w.pairs))
    checks.hit_relays(verdict, w.reach, list(session.sample) + [outside], [(i, s, t, outside)])
    assert verdict.bad == {i: f"relay {outside} is on no path from {s} to {t}"}


def test_inputs_are_seeded_and_reachable():
    a, b, c = small_dag(seed=3), small_dag(seed=3), small_dag(seed=4)
    assert (a.edges, a.pairs) == (b.edges, b.pairs)
    assert a.pairs != c.pairs
    out = inputs.adjacency(a.n, a.edges)
    assert all(t in inputs.bfs(out, s) for s, t in a.pairs)
    sw = small_dag(mode="bw", sources=3)
    assert len({s for s, _ in sw.pairs}) == 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_runner_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dag-fw", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
