"""The benchmark's hooks and oracles run against the engine.

``perfbench/tracing.py`` rebinds module attributes by name, and the
workloads of ``perfbench/workload.py`` read engine attributes and check
every result against an oracle, so renaming or deleting one of those names
would otherwise surface only in a benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import movingcavity
import movingcavity.cli  # noqa: F401  the tracer wraps names in cli

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


@pytest.mark.parametrize("name", ["exact-resonant", "gw-evolve", "cold-scan"])
def test_workload_oracles_pass_and_catch_corruption(name, monkeypatch, tmp_path):
    # each workload at smoke size: a clean run passes every oracle, and a
    # run whose results are corrupted fails some
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    for corrupt in (False, True):
        run = workload.WORKLOADS[name](
            np.random.default_rng(7), True, corrupt, tmp_path
        )
        for k in range(run.min_solves):
            run.solve(k, lambda f: f)
            run.check(k)
        assert run.attempted > 0
        if corrupt:
            assert run.failures
        else:
            assert run.failures == []
