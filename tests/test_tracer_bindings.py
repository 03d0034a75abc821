"""The benchmark tracer wraps library functions through each calling
module's own binding (``module.__dict__[name]``). A refactor that drops
such an import breaks ``perfbench/run.py --trace 1``; this test catches
it in the tier-1 suite."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
