"""The benchmark's tracer finds every engine name it wraps, and restores it.

``perfbench/tracing.py`` rebinds module attributes by name, so renaming or
deleting one of them would otherwise surface only in a benchmark run.
"""

from pathlib import Path

import movingcavity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_install_rebinds_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer("t")
    tracer.install(movingcavity)
    saved = list(tracer._saved)
    try:
        assert saved
        for owner, attr, original in saved:
            assert callable(original)
            assert _current(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert _current(owner, attr) is original, attr
