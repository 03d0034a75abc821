"""Benchmark of the reachkeep library: one workload, one seed, one run.

    python3 perfbench/run.py --workload dag-fw --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The run repeats whole rounds (set-up, the whole demand stream,
the program's audit) until ``--seconds`` have passed, with at least
three rounds, and reports medians. With ``--trace 0`` it then makes one
more pass under ``tracemalloc`` for the memory peak and prints the
end-to-end metrics. With ``--trace 1`` it alternates plain and traced
rounds and prints the per-layer metrics, including the traced rounds'
overhead over the plain ones.

Times are host-speed normalised (see ``Probe``). The outputs of the
first round are checked by the independent checks in ``checks.py``, and
every later round must produce the same output. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (demand pairs served) and ``metrics``. Raw samples go to
``perfbench/out/``. Exit code 0 when every check passed, 1 when one
failed, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
WORKLOAD_NAMES = ("dag-fw", "sourcewise-bw", "cyclic-udsn", "tables")
# A serve pass is cut into blocks of about this much serving, with a
# probe between blocks.
BLOCK_NS = 20_000_000

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "serve_us_p50": "us",
    "serve_us_p99": "us",
    "audit_s": "s",
    "h_edges": "count",
    "peak_mem_mb": "MB",
}


class Probe:
    """Host-speed probe.

    The speed of a shared virtual machine drifts by up to a factor of two
    within seconds, for every process alike, so a raw time says more
    about the host than about the program. The probe is a fixed BFS over
    a fixed random digraph (600 vertices, 2400 edges), made of the same
    Python operations as the library's reachability code. It runs next
    to every timed phase and after every ~20 ms of serving, and each
    measured time t is reported as t * REF / c, where c is the mean of
    the probes taken just before and just after it: seconds at the host
    speed at which one probe takes REF seconds. Raw times stay in the
    files under ``perfbench/out/``.
    """

    REF = 0.00024

    def __init__(self):
        edges = inputs.random_digraph(inputs.rng_for(0, "probe"), 600, 2400)
        self.out = inputs.adjacency(600, edges)
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Median of three timed BFS runs, in seconds."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            inputs.bfs(self.out, 0)
            times.append(time.perf_counter() - start)
        c = statistics.median(times)
        self.samples.append(c)
        return c


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


class Round:
    """Timings (normalised, and raw for the record) and final state of
    one round."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.passes: list[list[float]] = []  # per-pair seconds, one list per pass
        self.audit_s: list[float] = []
        self.raw: dict[str, list[float]] = {"setup_s": [], "serve_s": [], "audit_s": []}
        self.state = None
        self.problem: str | None = None

    @property
    def seconds(self) -> float:
        return sum(self.setup_s) + sum(map(sum, self.passes)) + sum(self.audit_s)


def timed_call(probe, tracer, name, fn, *args):
    """(normalised seconds, raw seconds, result) of one call."""
    before = probe()
    frame = tracer.open(name) if tracer is not None else None
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        raw = time.perf_counter() - start
        if frame is not None:
            tracer.close(frame)
    return raw * 2 * Probe.REF / (before + probe()), raw, result


def serve_pass(w, state, probe) -> tuple[list[float], float]:
    """Per-pair normalised seconds, and raw seconds, of one pass."""
    serve = w.server(state)
    clock = time.perf_counter_ns
    last = len(w.pairs) - 1
    times: list[float] = []
    block: list[int] = []
    raw_ns = spent = 0
    before = probe()
    for i, (s, t) in enumerate(w.pairs):
        start = clock()
        serve(i, s, t)
        ns = clock() - start
        block.append(ns)
        spent += ns
        if spent >= BLOCK_NS or i == last:
            after = probe()
            scale = 2e-9 * Probe.REF / (before + after)
            times.extend(x * scale for x in block)
            raw_ns += spent
            block.clear()
            before, spent = after, 0
    return times, raw_ns * 1e-9


def run_round(w, probe, repeat: bool, tracer=None) -> Round:
    """Set up, serve and audit, each ``w.*_reps`` times when ``repeat``
    and once otherwise."""
    gc.collect()
    r = Round()
    for _ in range(w.setup_reps if repeat else 1):
        dt, raw, r.state = timed_call(probe, tracer, "bench.setup", w.setup)
        r.setup_s.append(dt)
        r.raw["setup_s"].append(raw)
    for _ in range(w.serve_reps if repeat else 1):
        frame = tracer.open("bench.serve") if tracer is not None else None
        times, raw = serve_pass(w, r.state, probe)
        if frame is not None:
            tracer.close(frame)
        r.passes.append(times)
        r.raw["serve_s"].append(raw)
    for _ in range(w.audit_reps if repeat else 1):
        dt, raw, r.problem = timed_call(probe, tracer, "bench.audit", w.audit, r.state)
        r.audit_s.append(dt)
        r.raw["audit_s"].append(raw)
    return r


class Judge:
    """Keeps the first round's output for the independent checks; every
    later round must reproduce it, and every round must pass the
    program's own audit."""

    def __init__(self, w):
        self.w = w
        self.reference = None
        self.first_state = None
        self.problems: list[str] = []
        self.passes = 0
        self.verdict = None

    def add(self, r: Round) -> None:
        self.passes += len(r.passes)
        output = self.w.output(r.state)
        if self.reference is None:
            self.reference, self.first_state = output, r.state
        elif output != self.reference:
            self.problems.append("output differs from the first round")
        if r.problem is not None:
            self.problems.append(f"program audit: {r.problem}")
        r.state = None

    def finish(self):
        """Check the first round's output, outside any measured window."""
        self.verdict = self.w.check(self.first_state)
        self.first_state = None
        for why in dict.fromkeys(self.problems):
            self.verdict.all(why)
        return self.verdict

    def counts(self) -> tuple[int, int]:
        p = len(self.w.pairs)
        return p * self.passes, self.verdict.failed * self.passes


def timed_run(w, seconds: float, judge: Judge):
    probe = Probe()
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        r = run_round(w, probe, repeat=True)
        judge.add(r)
        rounds.append(r)

    gc.collect()
    tracemalloc.start()
    try:
        state = w.setup()
        serve = w.server(state)
        for i, (s, t) in enumerate(w.pairs):
            serve(i, s, t)
        w.audit(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del state, serve

    p = len(w.pairs)
    passes = [times for r in rounds for times in r.passes]
    # Every pass does the same work pair by pair, so the median over the
    # passes of one pair's time is that pair's serve time with the
    # host's short stalls filtered out; the percentiles are over pairs.
    by_index = [statistics.median(column) for column in zip(*passes)]
    per_pair = sorted(by_index)
    metrics = {
        "setup_s": statistics.median(x for r in rounds for x in r.setup_s),
        "pairs_per_s": statistics.median(p / sum(times) for times in passes),
        "serve_us_p50": percentile(per_pair, 50) * 1e6,
        "serve_us_p99": percentile(per_pair, 99) * 1e6,
        "audit_s": statistics.median(x for r in rounds for x in r.audit_s),
        "h_edges": len(judge.reference),
        "peak_mem_mb": peak / 2**20,
    }
    quarters = [sum(by_index[q * p // 4 : (q + 1) * p // 4]) / (p // 4) * 1e6 for q in range(4)]
    raw = {
        "rounds": len(rounds),
        "serve_samples_per_pass": p,
        "passes": len(passes),
        "serve_us_by_quarter": quarters,
        "probe_median_s": statistics.median(probe.samples),
        "probes": len(probe.samples),
        "setup_s": [x for r in rounds for x in r.setup_s],
        "serve_s": [sum(times) for times in passes],
        "audit_s": [x for r in rounds for x in r.audit_s],
        "raw_setup_s": [x for r in rounds for x in r.raw["setup_s"]],
        "raw_serve_s": [x for r in rounds for x in r.raw["serve_s"]],
        "raw_audit_s": [x for r in rounds for x in r.raw["audit_s"]],
    }
    return metrics, END_TO_END, raw


def traced_run(w, seconds: float, judge: Judge):
    import tracing

    probe = Probe()
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        r = run_round(w, probe, repeat=False)
        plain.append(r.seconds)
        judge.add(r)
        tracer.reset()
        tracer.install()
        first_probe = len(probe.samples)
        try:
            r = run_round(w, probe, repeat=False, tracer=tracer)
        finally:
            tracer.restore()
        traced.append(r.seconds)
        layers.append(tracer.metrics(Probe.REF / statistics.median(probe.samples[first_probe:])))
        judge.add(r)

    metrics = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            continue
        values = [m[name] for m in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                judge.problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{w.name}-spans.tsv")
    raw = {"plain_round_s": plain, "traced_round_s": traced, "spans": len(tracer.spans) // 5}
    return metrics, tracing.LAYER_METRICS, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reachkeep" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    judge = Judge(w)
    run = traced_run if args.trace else timed_run
    metrics, units, raw = run(w, args.seconds, judge)
    verdict = judge.finish()
    attempted, failed = judge.counts()

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {json.dumps(w.describe())}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6f} {unit}")
    for key, value in raw.items():
        if not isinstance(value, list) or len(value) <= 4:
            print(f"  {key}: {value}")
    for why in verdict.reasons():
        print(f"  CHECK FAILED: {why}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "inputs": w.describe(), "metrics": metrics, "raw": raw}
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = verdict.failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
