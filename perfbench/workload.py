"""Workload process of the movingcavity benchmark.

``run.py`` starts this script once per measured run, in a fresh process
whose BLAS thread cap is set in its environment.  The script imports the
engine from ``src/`` of the checkout, builds its inputs from ``--seed``
(the engine receives only those inputs), prints ``READY`` when set-up is
done, runs a closed loop of solves for ``--seconds`` seconds (the next
solve starts when the previous one returns; one caller, one thread),
checks every result against an oracle, and prints one JSON result line.

Workloads, and why each exists:

exact-resonant
    ``evolve_transformation`` on DCE-I (right wall only), Dirichlet,
    massless, epsilon 1e-3, drive omega_1 + omega_2, 12 bands, default
    step, over one drive period.  This is the paper's perturbative-vs-exact
    cross-check; nearly all its time is instantaneous-basis solves, the
    rest generator assembly and RK4, so it exercises the exact path and
    bypasses ``perturb`` and ``cli`` in its timed phase.  The seed draws
    each problem's length L uniformly within 2 % of pi; the drive is set
    to omega_1 + omega_2 of that L so the oracle keeps its meaning.
    Oracle: the exact |beta_12| within 5 % of the first-order value over
    the same window, computed in set-up.

gw-evolve
    ``movingcavity.cli.main(["evolve", ...])`` on ``gw-rigid``
    (Dirichlet, massless, default drive), writing CSV to a file.  One
    static basis of 80 modes is reused for 2 N^2 coupling calls and 25
    coefficient evaluations, and 160 k rows are serialised, so coupling
    caches, dense coupling arrays and CSV writing show here; ``exact1d``
    never runs.  The seed draws each box side uniformly within 3 % of
    (1.0, 1.3, 0.9) for two boxes, and solves alternate between them; the
    frequency cutoff is put midway between the 80th and 81st frequency of
    each box, so every draw has exactly 80 modes.  Oracles: |alpha| and
    |beta| in the CSV against ``GwPredictor`` harmonics integrated in
    closed form here, within 1e-8 of the largest entry; and every solve
    after the second repeats a config and must give a byte-identical CSV
    (sha256).

cold-scan
    Many small independent problems, each on a fresh basis, so per-basis
    caches miss, warm starts have no previous node, and per-call
    overhead outweighs N^2 work.  Problems alternate between two kinds.
    Perturbative: the seed draws the DCE variant, boundary condition,
    mass (0 with probability 1/4, else uniform in [0, 2]), L in
    [0.5, 5], and a resonant pair (a, b) that sets the drive to
    omega_a + omega_b, and a Gaussian envelope width; the problem runs
    ``solve_interval_modes`` (6 modes), ``build_dce``,
    ``build_coupling_matrices(resonant=True)``, ``find_resonances`` and
    ``bogoliubov_asymptotic``.  Oracles: couplings and asymptotic
    coefficients against ``DcePredictor`` within 1e-8 of the largest
    entry, and the drawn pair among the resonances found.  Cold basis:
    the seed draws the boundary condition, mass, L, the time, and wall
    motions (static with probability 1/4, else sinusoidal with speed at
    most 0.5); the problem runs one ``solve_instantaneous_basis`` (6
    bands), which covers massive and evanescent modes.  Oracles: the
    branch-sign rule (+ branch > 0, - branch < 0), and for static walls
    the frequencies of ``solve_interval_modes`` within 1e-10.

A failed oracle, an exception or a nonzero CLI exit counts as one failed
operation; a failure is never retried or redrawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import movingcavity as mc  # noqa: E402
from movingcavity import cli, exact1d, perturb, scenarios, staticmodes  # noqa: E402

from speed import SpeedSampler  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer, layer_table  # noqa: E402

if not Path(mc.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"movingcavity imported from {mc.__file__}, not {SRC}")

D = mc.BoundaryCondition.DIRICHLET
NEU = mc.BoundaryCondition.NEUMANN
EPSILON = 1e-3
FIGURES = ("beta12_rel_dev", "identity_residual", "closed_form_dev")


def _relative_gap(gap, scale):
    """``gap / scale``; an all-zero reference must be matched exactly.

    A NaN gap stays NaN, and NaN fails every ``< limit`` check.
    """
    if scale > 0:
        return float(gap / scale)
    return 0.0 if gap == 0 else math.inf


class Workload:
    """A closed loop of solves; subclasses set up inputs and check results."""

    min_solves = 1
    # op_ms_tail is the highest percentile with at least 10 operations
    # beyond it; with the few long operations of a run, the largest one
    tail_percentile = 100

    def __init__(self, rng, smoke: bool, corrupt: bool, workdir: Path):
        self.rng, self.smoke, self.corrupt = rng, smoke, corrupt
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.figures = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def figure(self, name: str, value: float) -> None:
        self.figures.setdefault(name, []).append(float(value))

    def solve(self, k: int, wrap):
        """Run solve ``k``; return the (start, end) times of its operations."""
        raise NotImplementedError

    def check(self, k: int) -> None:
        """Check the results of solve ``k`` against the oracles (untimed)."""


# ---------------------------------------------------------------------------
# exact-resonant


class ExactResonant(Workload):
    pool = 4
    min_solves = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.bands = 3 if self.smoke else 12
        self.problems = [self._problem() for _ in range(self.pool)]

    def _problem(self):
        length = math.pi * (1.0 + self.rng.uniform(-0.02, 0.02))
        params = mc.FieldParams()
        lowest = staticmodes.solve_interval_modes(
            mc.Interval(length), params, D, 2
        )
        drive = float(lowest.frequencies.sum())
        config = mc.DceConfig(
            variant=mc.DceVariant.RIGHT_ONLY, length=length, bc=D,
            epsilon=EPSILON, omega_drive=drive,
        )
        spec, trajectory, _ = scenarios.build_dce(config)
        window = 2.0 * math.pi / drive
        basis = staticmodes.solve_interval_modes(
            mc.Interval(length), params, D, self.bands
        )
        couplings = perturb.build_coupling_matrices(spec, basis, D)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", perturb.ValidityWindowWarning)
            first_order = perturb.bogoliubov_perturbative(
                couplings, basis, EPSILON, 0.0, window
            )
        return trajectory, window, abs(first_order.beta[0, 1])

    def solve(self, k, wrap):
        trajectory, window, _ = self.problems[k % self.pool]
        start = time.perf_counter()
        try:
            self.state = wrap(exact1d.evolve_transformation)(
                trajectory, mc.FieldParams(), D, 0.0, window, self.bands
            )
        except Exception as err:  # counted as a failed operation
            self.state = err
        return [(start, time.perf_counter())]

    def check(self, k):
        if isinstance(self.state, Exception):
            self.record(False, f"solve {k}: {self.state!r}")
            return
        reference = self.problems[k % self.pool][2]
        exact = abs(self.state.beta[0, 1])
        if self.corrupt:
            exact *= 1.1
        deviation = abs(exact - reference) / reference
        self.figure("beta12_rel_dev", deviation)
        self.figure(
            "identity_residual", exact1d.bogoliubov_identity_residual(self.state)
        )
        self.record(
            deviation < 0.05,
            f"solve {k}: |beta_12| exact {exact:.6e} vs first order "
            f"{reference:.6e}, deviation {deviation:.3%} > 5%",
        )


# ---------------------------------------------------------------------------
# gw-evolve


GW_SIDES = (1.0, 1.3, 0.9)
GW_DRIVE = 3.0
GW_WINDOW = (0.0, 10.0)
GW_SAMPLES = 25


def _box_modes(sides, cutoff):
    """Dirichlet box multi-indices with frequency <= cutoff, in basis order."""
    maxima = [int(cutoff * side / math.pi) for side in sides]
    modes = []
    for n in range(1, maxima[0] + 1):
        for m in range(1, maxima[1] + 1):
            for l in range(1, maxima[2] + 1):
                w = math.pi * math.sqrt(
                    (n / sides[0]) ** 2 + (m / sides[1]) ** 2
                    + (l / sides[2]) ** 2
                )
                if w <= cutoff:
                    modes.append((w, (n, m, l)))
    modes.sort()
    return modes


def _windowed_sin(amplitude, detuning, drive, times, t0):
    """Integral of exp(-i d t) a sin(drive t) over [t0, t], all pairs at once."""

    def phase(mu):
        mu = mu[None, :, :]
        t = times[:, None, None]
        small = np.abs(mu) * max(abs(t0), float(np.max(np.abs(times)))) < 1e-12
        safe = np.where(small, 1.0, mu)
        value = (np.exp(1j * safe * t) - np.exp(1j * safe * t0)) / (1j * safe)
        return np.where(small, t - t0, value)

    return amplitude * (phase(drive - detuning) - phase(-drive - detuning)) / 2j


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class GwEvolve(Workload):
    pool = 2  # solves alternate between two configs, so repeats are checked
    # four solves, each config twice, in every run: a count that varies with
    # host speed would change which solves the median and the tail pick
    min_solves = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.n_modes = 10 if self.smoke else 80
        self.configs = [self._config(i) for i in range(self.pool)]
        self.digests = {}
        self.expected = {}

    def _config(self, i):
        sides = tuple(
            base * (1.0 + self.rng.uniform(-0.03, 0.03)) for base in GW_SIDES
        )
        probe = 10.0
        while len(modes := _box_modes(sides, probe)) <= self.n_modes:
            probe *= 1.5
        cutoff = 0.5 * (modes[self.n_modes - 1][0] + modes[self.n_modes][0])
        config = {
            "scenario": "gw-rigid", "bc": "dirichlet", "mass": 0.0,
            "lx": sides[0], "ly": sides[1], "lz": sides[2],
            "frequency_cutoff": cutoff, "epsilon": EPSILON,
            "omega_drive": GW_DRIVE, "t0": GW_WINDOW[0], "tf": GW_WINDOW[1],
            "samples": GW_SAMPLES,
        }
        path = self.workdir / f"gw-config-{i}.json"
        path.write_text(json.dumps(config))
        return path, sides, cutoff

    def solve(self, k, wrap):
        self.output = self.workdir / f"gw-{k}.csv"
        argv = ["evolve", "--config", str(self.configs[k % self.pool][0]),
                "--output", str(self.output)]
        start = time.perf_counter()
        try:
            self.exit = wrap(cli.main)(argv)
        except Exception as err:  # counted as a failed operation
            self.exit = err
        return [(start, time.perf_counter())]

    def _expected(self, index):
        """Closed-form |alpha|, |beta| tables, shape (samples, N, N)."""
        if index not in self.expected:
            _, sides, cutoff = self.configs[index]
            modes = _box_modes(sides, cutoff)
            idx = [m[1] for m in modes]
            omega = np.array([m[0] for m in modes])
            predictor = scenarios.GwPredictor(scenarios.GwConfig(
                *sides, D, EPSILON, GW_DRIVE, cutoff
            ))
            a_hat = np.array([[predictor.alpha_hat(i, j).amplitude_at(GW_DRIVE)
                               for j in idx] for i in idx])
            b_hat = np.array([[predictor.beta_hat(i, j).amplitude_at(GW_DRIVE)
                               for j in idx] for i in idx])
            t0, tf = GW_WINDOW
            times = np.linspace(t0, tf, GW_SAMPLES + 1)[1:]
            alpha = EPSILON * _windowed_sin(
                a_hat, omega[:, None] - omega[None, :], GW_DRIVE, times, t0
            )
            beta = EPSILON * _windowed_sin(
                b_hat, omega[:, None] + omega[None, :], GW_DRIVE, times, t0
            )
            self.expected[index] = (times, np.abs(alpha), np.abs(beta))
        return self.expected[index]

    def _check_output(self, k, index, exit_code, output):
        """Check one CSV; return its sha256, or None when it failed."""
        if exit_code != 0:
            self.record(False, f"solve {k}: cli exit {exit_code!r}")
            return None
        digest = _sha256(output)
        table = np.loadtxt(output, delimiter=",", skiprows=1)
        output.unlink()
        times, want_alpha, want_beta = self._expected(index)
        size = want_alpha.shape[1]
        if table.shape != (len(times) * size * size, 7):
            self.record(False, f"solve {k}: table shape {table.shape}")
            return None
        if self.corrupt:
            table[np.argmax(table[:, 5]), 5] *= 1.0 + 1e-6
        got_alpha = table[:, 3].reshape(want_alpha.shape)
        got_beta = table[:, 5].reshape(want_beta.shape)
        grid_ok = (
            np.array_equal(table[:, 0].reshape(-1, size * size)[:, 0], times)
            and np.array_equal(table[:, 1], np.tile(np.repeat(
                np.arange(size), size), len(times)))
            and np.array_equal(table[:, 2], np.tile(
                np.arange(size), size * len(times)))
        )
        off = ~np.eye(size, dtype=bool)
        deviation = float(np.max([  # NaN fails the check below
            np.max(np.abs(got_alpha - want_alpha)[:, off])
            / np.max(want_alpha[:, off]),
            np.max(np.abs(got_beta - want_beta)) / np.max(want_beta),
        ]))
        self.figure("closed_form_dev", deviation)
        self.record(
            grid_ok and bool(deviation < 1e-8),
            f"solve {k}: grid ok {grid_ok}, closed-form deviation "
            f"{deviation:.3e} (limit 1e-8)",
        )
        return digest

    def check(self, k):
        index = k % self.pool
        if isinstance(self.exit, Exception):
            self.record(False, f"solve {k}: {self.exit!r}")
            return
        digest = self._check_output(k, index, self.exit, self.output)
        if digest is None:
            return
        if index not in self.digests:
            self.digests[index] = digest
            return
        self.record(
            digest == self.digests[index],
            f"solve {k}: config {index} gave sha256 {digest[:16]}, its "
            f"first solve gave {self.digests[index][:16]}",
        )


# ---------------------------------------------------------------------------
# cold-scan


class ColdScan(Workload):
    min_solves = 5  # 5 batches of 200 give 1000 latencies, so p99 has 10 beyond
    tail_percentile = 99

    def __init__(self, *args):
        super().__init__(*args)
        self.batch = 10 if self.smoke else 200
        if self.smoke:
            self.min_solves = 1
        self.problems = [self._draw(i) for i in range(self.batch)]

    def _draw(self, i):
        rng = self.rng
        bc = (D, NEU)[int(rng.integers(2))]
        mass = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 2.0))
        length = float(rng.uniform(0.5, 5.0))
        if i % 2 == 0:
            variant = list(mc.DceVariant)[int(rng.integers(3))]
            pair = tuple(int(v) for v in rng.integers(6, size=2))
            return ("perturbative", bc, mass, length, variant, pair,
                    float(rng.uniform(5.0, 20.0)))
        t = float(rng.uniform(0.0, 10.0))
        if rng.random() < 0.25:
            return ("basis", bc, mass, length, None, t,
                    mc.BoundaryTrajectory.static(-length / 2, length / 2))
        freq = float(rng.uniform(0.5, 3.0))
        amp = rng.uniform(0.0, 0.1, size=2) * length
        amp = np.minimum(amp, 0.5 / freq)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
        a1, a2, p1, p2 = float(amp[0]), float(amp[1]), float(phase[0]), float(phase[1])
        trajectory = mc.BoundaryTrajectory(
            x_minus=lambda s: -length / 2 + a1 * math.sin(freq * s + p1),
            x_plus=lambda s: length / 2 + a2 * math.sin(freq * s + p2),
            v_minus=lambda s: a1 * freq * math.cos(freq * s + p1),
            v_plus=lambda s: a2 * freq * math.cos(freq * s + p2),
        )
        return ("basis", bc, mass, length, amp, t, trajectory)

    @staticmethod
    def _perturbative(bc, mass, length, variant, pair, width):
        basis = staticmodes.solve_interval_modes(
            mc.Interval(length), mc.FieldParams(mass=mass), bc, 6
        )
        freqs = basis.frequencies
        drive = float(freqs[pair[0]] + freqs[pair[1]])
        spec, _, predictor = scenarios.build_dce(mc.DceConfig(
            variant=variant, length=length, bc=bc, epsilon=EPSILON,
            omega_drive=drive, mass=mass,
        ))
        couplings = perturb.build_coupling_matrices(spec, basis, bc, resonant=True)
        hits = perturb.find_resonances(basis, drive, 1e-9 * drive)
        envelope = mc.GaussianEnvelope(sigma=width / drive)
        coefficients = perturb.bogoliubov_asymptotic(
            couplings, basis, EPSILON, envelope
        )
        return basis, predictor, couplings, hits, envelope, coefficients

    def solve(self, k, wrap):
        spans, self.results = [], []
        for problem in self.problems:
            kind, bc, mass, length, _, arg, extra = problem
            start = time.perf_counter()
            try:
                if kind == "perturbative":
                    result = wrap(self._perturbative)(
                        bc, mass, length, problem[4], arg, extra
                    )
                else:
                    result = wrap(exact1d.solve_instantaneous_basis)(
                        extra, mc.FieldParams(mass=mass), bc, arg, 6
                    )
            except Exception as err:  # counted as a failed operation
                result = err
            spans.append((start, time.perf_counter()))
            self.results.append(result)
        return spans

    def _check_perturbative(self, problem, result):
        _, bc, mass, length, variant, pair, _ = problem
        basis, predictor, couplings, hits, envelope, coefficients = result
        drive = predictor.config.omega_drive
        index = [mode.index[0] for mode in basis.modes]
        want = {
            name: np.array([[getattr(predictor, name)(n, m).amplitude_at(drive)
                             for m in index] for n in index])
            for name in ("alpha_hat", "beta_hat")
        }
        got = {
            name: np.array([[h.amplitude_at(drive) for h in row]
                            for row in getattr(couplings, name)])
            for name in ("alpha_hat", "beta_hat")
        }
        if self.corrupt:
            largest = np.unravel_index(
                np.argmax(np.abs(got["beta_hat"])), got["beta_hat"].shape
            )
            got["beta_hat"][largest] *= 1.0 + 1e-6
        deviation = _relative_gap(
            max(np.max(np.abs(got[n] - want[n])) for n in want),
            max(np.max(np.abs(w)) for w in want.values()),
        )
        # first-order coefficients from the predicted harmonics
        freqs = basis.frequencies
        size = len(freqs)

        def transform(amplitude, detuning):
            plus = np.vectorize(envelope.transform)(drive - detuning)
            minus = np.vectorize(envelope.transform)(-drive - detuning)
            return EPSILON * amplitude * (plus - minus) / 2j

        off = ~np.eye(size, dtype=bool)
        want_alpha = transform(want["alpha_hat"], freqs[:, None] - freqs[None, :])
        want_beta = transform(want["beta_hat"], freqs[:, None] + freqs[None, :])
        # off-diagonal alpha and all of beta, relative to their largest entry
        coefficient_gap = _relative_gap(
            max(np.max(np.abs(coefficients.alpha - want_alpha)[off]),
                np.max(np.abs(coefficients.beta - want_beta))),
            max(np.max(np.abs(want_alpha[off])), np.max(np.abs(want_beta))),
        )
        deviation = float(np.max([deviation, coefficient_gap]))  # NaN fails
        found = any(
            (h.n, h.m) == pair and h.kind is perturb.ResonanceKind.PAIR_CREATION
            for h in hits
        )
        self.figure("closed_form_dev", deviation)
        return bool(deviation < 1e-8) and found, (
            f"{variant.value} {bc.value} mass {mass:.6g} L {length:.6g} "
            f"pair {pair}: closed-form deviation {deviation:.3e}, "
            f"resonance found {found}"
        )

    def _check_basis(self, problem, result):
        _, bc, mass, length, amp, t, _ = problem
        plus = np.array([mode.omega for mode in result.plus])
        minus = np.array([mode.omega for mode in result.minus])
        ok = bool(np.all(plus > 0) and np.all(minus < 0))
        detail = f"branch signs ok {ok}"
        if amp is None:
            static = staticmodes.solve_interval_modes(
                mc.Interval(length), mc.FieldParams(mass=mass), bc, 6
            ).frequencies
            if self.corrupt:
                static = static * (1.0 + 1e-6)
            gap = float(np.max(np.abs(plus - static) / static))
            ok = ok and gap < 1e-10
            detail += f", static-wall frequency gap {gap:.3e}"
        return ok, (
            f"basis {bc.value} mass {mass:.6g} L {length:.6g} t {t:.6g}: "
            + detail
        )

    def check(self, k):
        for i, (problem, result) in enumerate(zip(self.problems, self.results)):
            if isinstance(result, Exception):
                self.record(False, f"solve {k} problem {i}: {result!r}")
                continue
            checker = (
                self._check_perturbative if problem[0] == "perturbative"
                else self._check_basis
            )
            ok, detail = checker(problem, result)
            self.record(ok, f"solve {k} problem {i}: {detail}")
        self.problems = [self._draw(i) for i in range(self.batch)]


WORKLOADS = {
    "exact-resonant": ExactResonant,
    "gw-evolve": GwEvolve,
    "cold-scan": ColdScan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="CSV file for the spans of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](rng, args.smoke, args.corrupt, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    # solve times are reported at reference host speed (speed.py); span
    # times in a traced run stay raw
    sampler = SpeedSampler().start()
    solve_s = {0: [], 1: []}
    solve_spans = {0: [], 1: []}  # (start, end) of each solve, by traced
    cpu_s = []
    op_spans = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        cycle_start = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        wrap = (lambda f: f)
        if traced:
            tracer.install(mc)
            wrap = (lambda f: tracer.span(ROOT_SPAN, f))
        start, cpu_start = time.perf_counter(), time.process_time()
        ops = workload.solve(k, wrap)
        end = time.perf_counter()
        solve_s[int(traced)].append(end - start)
        solve_spans[int(traced)].append((start, end))
        cpu_s.append(time.process_time() - cpu_start)
        if traced:
            tracer.uninstall()
        else:
            op_spans.extend(ops)
        workload.check(k)
        k += 1
        now = time.perf_counter()
        if (k >= workload.min_solves
                and now + (now - cycle_start) - loop_start > args.seconds):
            break

    sampler.stop()
    untraced = solve_s[0]
    reference = {
        traced: [sampler.at_reference(*span) for span in spans]
        for traced, spans in solve_spans.items()
    }
    at_reference = reference[0]
    latencies = [sampler.at_reference(*span) for span in op_spans]
    speed = {
        "kernel_samples": len(sampler.durations),
        "solve_kernel_ms": [
            round(1e3 * sampler.kernel_s(*span), 4) for span in solve_spans[0]
        ],
    }
    end_to_end = {
        "solve_s": statistics.median(at_reference),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * float(
            np.percentile(latencies, workload.tail_percentile)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # worst closed-form deviation of the run; median of the per-solve
    # exact-path figures.  0 marks a figure the workload does not compute.
    figures = {name: 0.0 for name in FIGURES}
    for name, values in workload.figures.items():
        figures[name] = (
            float(np.max(values)) if name == "closed_form_dev"
            else statistics.median(values)
        )
    per_layer = {}
    if args.trace:
        # overhead from reference-speed solve times, so that host drift
        # between the traced and the untraced solves does not count
        per_layer = layer_table(tracer, reference[1], reference[0])
        tracer.write(args.spans)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "failures": workload.failures[:20],
        "solves": {"untraced": len(untraced), "traced": len(solve_s[1])},
        "solve_wall_s": [round(v, 4) for v in solve_s[0]],
        "solve_at_reference_s": [round(v, 4) for v in at_reference],
        "speed": speed,
        "solve_cpu_s": [round(v, 4) for v in cpu_s],
        "traced_solve_s": statistics.mean(solve_s[1]) if solve_s[1] else 0.0,
        "operations_timed": len(latencies),
        "tail_percentile": workload.tail_percentile,
        "end_to_end": end_to_end,
        "figures": figures,
        "per_layer": per_layer,
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
