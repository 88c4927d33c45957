"""Span tracing from outside the engine, and the per-layer table built from it.

Timing wrappers are installed by rebinding module attributes in the
namespace where each caller looks a function up, so nothing inside
``src/`` is edited or instrumented.  Each span records its name, start,
end, parent span and the id of the unit it belongs to: one top-level
call, that is one exact window, one CLI invocation or one cold-scan
problem.  Spans stay in memory and are written out once, when the run ends.

Nothing in a run waits on a queue, a lock or another process: every
layer runs in the one workload process, called by one closed-loop
caller.  Layers therefore have busy time and counts but no waiting time.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

# maps the (args, result) of one traced call to counter increments
Counter = Callable[[tuple, Any], Dict[str, float]]


def _no_counts(args, result):
    return {}


def _modes(args, result):
    return {"staticmodes.modes": len(result)}


def _coeff_cells(args, result):
    return {"perturb.coeff_cells": len(result.alpha) ** 2}


def _rk4(args, result):
    size = 2 * result.bands
    # 4 complex size x size products (8 size^3 real flops each) and 26 real
    # flops per entry for the scalings and sums of one RK4 step
    flops = result.step_count * (32 * size**3 + 26 * size**2)
    return {"exact1d.steps": result.step_count, "exact1d.rk4_flop_computed": flops}


def _table(args, result):
    return {"cli.rows": len(args[1]), "cli.bytes": len(result)}  # ASCII text


class Tracer:
    """Collects spans for the calls that pass through installed wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.unit = -1  # id of the current top-level call
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, counter: Counter = _no_counts):
        """Return ``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self.unit += 1
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.unit, sid, parent, name, start, end)
            for key, value in counter(args, result).items():
                self.counts[key] += value
            return result

        return traced

    def rebind(self, owner, attr: str, name: str, counter: Counter = _no_counts):
        """Replace ``owner.attr`` (module or dict) by its traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.span(name, original, counter)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.span(name, original, counter))
        self._saved.append((owner, attr, original))

    def install(self, mc) -> None:
        """Wrap every layer boundary of the ``movingcavity`` package ``mc``."""
        sm, sc, pt, ex, cli = (
            mc.staticmodes, mc.scenarios, mc.perturb, mc.exact1d, mc.cli
        )
        for owner in (sm, cli):
            self.rebind(owner, "solve_interval_modes", "staticmodes.solve", _modes)
        self.rebind(cli, "solve_box_modes", "staticmodes.solve", _modes)
        for owner in (sc, cli):
            self.rebind(owner, "build_dce", "scenarios.build")
        self.rebind(cli, "build_gw", "scenarios.build")
        for owner in (pt, cli):
            self.rebind(owner, "build_coupling_matrices", "perturb.couplings")
        self.rebind(pt, "coupling_alpha", "perturb.pair")
        self.rebind(pt, "coupling_beta", "perturb.pair")
        self.rebind(cli, "bogoliubov_perturbative", "perturb.coeff", _coeff_cells)
        self.rebind(pt, "bogoliubov_asymptotic", "perturb.coeff", _coeff_cells)
        self.rebind(pt, "find_resonances", "perturb.resonances")
        self.rebind(ex, "solve_instantaneous_basis", "exact1d.basis")
        self.rebind(ex, "assemble_vhat", "exact1d.assemble")
        self.rebind(ex, "generator_matrix", "exact1d.genmat")
        self.rebind(ex, "evolve_transformation", "exact1d.rk4", _rk4)
        self.rebind(cli, "write_table", "cli.write", _table)
        # cli.main dispatches through this dict, not the module attribute
        self.rebind(cli._COMMANDS, "evolve", "cli.evolve")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Write all spans as CSV: run, unit, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run,unit,span,parent,name,start_s,end_s\n")
            for unit, sid, parent, name, start, end in self.spans:
                handle.write(
                    f"{self.run_id},{unit},{sid},{parent},{name},"
                    f"{start:.9f},{end:.9f}\n"
                )


# Per-layer metrics: name -> unit.  Times and counts are per solve (one
# exact window, one CLI invocation, or one cold-scan batch), averaged over
# the traced solves of a run.
LAYER_METRICS = {
    "staticmodes.solve_s": "s",
    "staticmodes.calls": "count",
    "staticmodes.modes": "count",
    "scenarios.build_s": "s",
    "scenarios.calls": "count",
    "perturb.couplings_s": "s",
    "perturb.pair_calls": "count",
    "perturb.pair_us": "us",
    "perturb.coeff_s": "s",
    "perturb.coeff_calls": "count",
    "perturb.coeff_cells": "count",
    "perturb.resonances_s": "s",
    "exact1d.basis_s": "s",
    "exact1d.basis_calls": "count",
    "exact1d.basis_per_node": "count",
    "exact1d.assemble_s": "s",
    "exact1d.assemble_calls": "count",
    "exact1d.nodes_per_step": "count",
    "exact1d.genmat_s": "s",
    "exact1d.rk4_s": "s",
    "exact1d.steps": "count",
    "exact1d.rk4_flop_computed": "flop",
    "cli.write_s": "s",
    "cli.bytes": "byte",
    "cli.rows": "count",
    "cli.evolve_self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# which span names make up each layer's self time
_SELF_TIME = {
    "staticmodes.solve_s": ("staticmodes.solve",),
    "scenarios.build_s": ("scenarios.build",),
    "perturb.couplings_s": ("perturb.couplings", "perturb.pair"),
    "perturb.coeff_s": ("perturb.coeff",),
    "perturb.resonances_s": ("perturb.resonances",),
    "exact1d.basis_s": ("exact1d.basis",),
    "exact1d.assemble_s": ("exact1d.assemble",),
    "exact1d.genmat_s": ("exact1d.genmat",),
    "exact1d.rk4_s": ("exact1d.rk4",),
    "cli.write_s": ("cli.write",),
    "cli.evolve_self_s": ("cli.evolve",),
}

ROOT = "unit"


def layer_table(
    tracer: Tracer, traced_s: List[float], untraced_s: List[float]
) -> Dict[str, float]:
    """Per-solve layer metrics from the spans of ``len(traced_s)`` solves.

    ``traced_s`` and ``untraced_s`` are the solve times measured with the
    wrappers installed and removed; their medians give the overhead.
    """
    spans = [s for s in tracer.spans if s is not None]
    children = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    self_time = defaultdict(float)
    calls = defaultdict(int)
    per_node = 0
    names = {sid: name for _, sid, _, name, _, _ in spans}
    for _, sid, parent, name, start, end in spans:
        self_time[name] += end - start - children[sid]
        calls[name] += 1
        if name == "exact1d.basis" and names.get(parent) == "exact1d.assemble":
            per_node += 1
    solves = max(len(traced_s), 1)
    counts = tracer.counts
    out = {key: sum(self_time[n] for n in names_) / solves
           for key, names_ in _SELF_TIME.items()}
    out.update({
        "staticmodes.calls": calls["staticmodes.solve"] / solves,
        "staticmodes.modes": counts["staticmodes.modes"] / solves,
        "scenarios.calls": calls["scenarios.build"] / solves,
        "perturb.pair_calls": calls["perturb.pair"] / solves,
        "perturb.pair_us": (  # pair spans are leaves: self time is duration
            1e6 * self_time["perturb.pair"] / max(calls["perturb.pair"], 1)
        ),
        "perturb.coeff_calls": calls["perturb.coeff"] / solves,
        "perturb.coeff_cells": counts["perturb.coeff_cells"] / solves,
        "exact1d.basis_calls": calls["exact1d.basis"] / solves,
        "exact1d.basis_per_node": per_node / max(calls["exact1d.assemble"], 1),
        "exact1d.assemble_calls": calls["exact1d.assemble"] / solves,
        "exact1d.nodes_per_step": (
            calls["exact1d.assemble"] / max(counts["exact1d.steps"], 1)
        ),
        "exact1d.steps": counts["exact1d.steps"] / solves,
        "exact1d.rk4_flop_computed": counts["exact1d.rk4_flop_computed"] / solves,
        "cli.rows": counts["cli.rows"] / solves,
        "cli.bytes": counts["cli.bytes"] / solves,
        "trace.unattributed_s": self_time[ROOT] / solves,
    })
    out["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s)
        if traced_s and untraced_s else 0.0
    )
    return out
