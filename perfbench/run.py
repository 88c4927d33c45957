"""Benchmark of the movingcavity engine: three workloads, metrics by name.

Run one measured run of one workload from the root of a checkout:

    python3 perfbench/run.py --workload exact-resonant --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics from spans recorded around
the calls into each engine module (see ``tracing.py``).  Comment lines
starting with ``#`` describe the run; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

Self-test at tiny sizes (prints every metric; a result corrupted on the
benchmark side must count as a failure):

    python3 perfbench/run.py --smoke

Each workload runs in a fresh process (``workload.py``) with the BLAS
thread cap set in its environment, so set-up time and peak memory belong
to that workload.  Set-up is measured in ``SETUP_SAMPLES`` fresh
processes, before and after the measured one, and reported as the median.
Every reported time is scaled to reference host speed by the calibration
kernel of ``speed.py``; the process and its workload processes are pinned
to one CPU so that the kernel measures the CPU the workload runs on.
Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedSampler
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = {
    "exact-resonant": "perturbative-vs-exact cross-check; exercises the "
    "exact path (basis solves, generator, RK4), bypasses perturb and cli",
    "gw-evolve": "CLI evolve on gw-rigid with 80 modes; exercises couplings, "
    "coefficients and CSV writing, bypasses exact1d",
    "cold-scan": "many small problems, each on a fresh basis; per-basis "
    "caches miss and per-call overhead dominates",
}
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}
FIGURES = {
    "beta12_rel_dev": "ratio",
    "identity_residual": "dimensionless",
    "closed_form_dev": "ratio",
    "fail_frac": "ratio",
}
PER_LAYER = {**LAYER_METRICS, **FIGURES}

SETUP_SAMPLES = 7
SETUP_KERNELS = 20  # calibration kernels timed before and after each set-up
BLAS_THREADS = 1  # every matrix is at most 160 x 160: BLAS threads gain nothing
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class RunError(RuntimeError):
    """A run that produced no trustworthy result."""


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _spawn(argv, env, deadline, sampler):
    """Start one workload process; return (set-up seconds, remaining stdout).

    Set-up time runs from the start of the process to its READY line, so it
    covers interpreter start, imports and building the seeded inputs.  It
    is scaled to reference speed by kernels timed just before it, and just
    after it when the process exits at READY.  None is timed while the
    process runs: it shares this process's CPU, and would slow the kernels.
    """
    command = [sys.executable, str(HERE / "workload.py"), *argv]
    sampler.sample(SETUP_KERNELS)
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        end = time.perf_counter()
        if argv[-1] == "--setup-only":
            proc.wait()
            sampler.sample(SETUP_KERNELS)
        setup = sampler.at_reference(start, end)
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RunError(
            f"workload process exited with code {proc.returncode} "
            f"(time limit {TIME_LIMIT_S:.0f} s)"
        )
    return setup, rest


def run(workload, seed, seconds, trace, smoke=False, corrupt=False):
    """One measured run; returns (comment lines, result object)."""
    if not (ROOT / "src" / "movingcavity" / "__init__.py").is_file():
        raise RunError(f"engine source not found under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = _loadavg()
    nproc = _nproc()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by the workload processes
    sampler = SpeedSampler()  # sampled from this thread, never started
    cap = min(BLAS_THREADS, nproc)
    env = dict(os.environ, **{var: str(cap) for var in THREAD_VARS})
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{workload}-{os.getpid()}"
    workdir.mkdir()
    spans = OUT / f"spans-{workload}.csv"
    argv = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--workdir", str(workdir)]
    argv += ["--smoke"] * smoke + ["--corrupt"] * corrupt
    probe = argv + ["--setup-only"]
    try:
        # set-up probes before and after the measured process, so that
        # the median spans the run rather than one moment of it
        setups = [_spawn(probe, env, deadline, sampler)[0]
                  for _ in range(SETUP_SAMPLES // 2)]
        setup, out = _spawn(
            argv + ["--trace", str(trace), "--spans", str(spans)], env,
            deadline, sampler,
        )
        setups.append(setup)
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(probe, env, deadline, sampler)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("workload process printed no result")
    child = json.loads(lines[-1])

    fail_frac = child["failed"] / max(child["attempted"], 1)
    machine = dict(
        child["machine"], nproc=nproc, blas_threads=cap, pinned_cpu=cpu,
        scipy=_version("scipy"), loadavg_start=load_start,
        loadavg_end=_loadavg(),
    )
    comments = [
        f"workload {workload} (seed {seed}, {seconds} s, trace {trace}): "
        f"{WORKLOADS[workload]}",
        f"machine {json.dumps(machine, sort_keys=True)}",
        f"solves {child['solves']}, operations timed "
        f"{child['operations_timed']}, op_ms_tail is "
        f"p{child['tail_percentile']} of the operation latencies",
        f"setup_s samples {[round(s, 4) for s in setups]}",
        f"untraced solve wall times {child['solve_wall_s']} s, at reference "
        f"speed {child['solve_at_reference_s']} s; CPU times of all solves "
        f"{child['solve_cpu_s']} s",
        f"host speed: calibration kernel {SpeedSampler.__module__}.kernel "
        f"{json.dumps(child['speed'])} (reference "
        f"{1e3 * REFERENCE_S:.4g} ms)",
        "waiting: none; one process and one caller, no queue or lock, so no "
        "layer has waiting time to measure",
        f"fail_frac {fail_frac:.6g} ({child['failed']} of "
        f"{child['attempted']} operations failed)",
    ]
    comments += [f"failure: {what}" for what in child["failures"]]
    if not trace:  # a traced run reports the figures among its metrics
        comments += [
            f"{name} {value:.6g} {FIGURES[name]}"
            for name, value in child["figures"].items()
        ]
    if trace:
        values = dict(child["per_layer"], **child["figures"], fail_frac=fail_frac)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        layers = sum(v["value"] for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
        traced = layers + values["trace.unattributed_s"]
        comments.append(
            f"layer self times sum to {layers:.6g} s per solve, plus "
            f"{values['trace.unattributed_s']:.6g} s unattributed: {traced:.6g}"
            f" s of the mean traced solve time {child['traced_solve_s']:.6g} s; "
            f"spans in {spans.relative_to(ROOT)}"
        )
    else:
        values = dict(child["end_to_end"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    comments += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return comments, result


def smoke(seed: int) -> int:
    """Run every workload at tiny size; check metrics and failing oracles."""
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            comments, result = run(workload, seed, 1, trace, smoke=True)
            print("\n".join(f"# {line}" for line in comments))
            missing = set(names) - set(result["metrics"])
            if missing or not result["correct"]:
                problems.append(f"{workload} trace {trace}: missing "
                                f"{sorted(missing)}, correct {result['correct']}")
        _, result = run(workload, seed, 1, 0, smoke=True, corrupt=True)
        print(f"# {workload} with a corrupted result: {result['failed']} of "
              f"{result['attempted']} operations failed")
        if result["failed"] == 0:
            problems.append(f"{workload}: corrupted result passed its oracle")
    print("\n".join(f"# PROBLEM {p}" for p in problems) or "# smoke test passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny size")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        comments, result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print("\n".join(f"# {line}" for line in comments))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
