"""The benchmark tracer wraps library functions through each calling
module's own binding (``module.__dict__[name]``). A refactor that drops
such an import breaks ``perfbench/run.py --trace 1``; this test catches
it in the tier-1 suite."""

from __future__ import annotations

from pathlib import Path

from reachkeep import graphs, nonadaptive, oracle, preserver, udsn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # PreserverSession is an alias of CondensingPreserver, so its
    # serve_pair is wrapped twice; only a last-in-first-out restore puts
    # the original back.
    owners = (graphs, preserver, udsn, nonadaptive, oracle, preserver.CondensingPreserver, udsn.UdsnSession)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert preserver.CondensingPreserver.serve_pair is not before[5]["serve_pair"]
    finally:
        tracer.restore()
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        assert now.keys() == snapshot.keys(), owner
        assert [k for k in snapshot if now[k] is not snapshot[k]] == [], owner
