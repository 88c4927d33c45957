"""End-to-end acceptance checks for the whole engine.

Each test covers one headline guarantee: closed-form regressions for the
two driving families, resonant growth laws, cross-method agreement between
the perturbative and exact evolution paths, Bogoliubov identity scaling,
static-limit sanity, spectrum positivity under boundary motion, the
integrator's convergence order, scale invariance, and convergence of the
exact path in the band count and the step.  Every test prints a single
pass/fail line with the measured figure of merit.
"""

import math
import time
import warnings

import numpy as np
import pytest

from movingcavity.cli import _envelope_trajectory
from movingcavity.core import BoundaryCondition, FieldParams
from movingcavity.exact1d import (
    BoundaryTrajectory,
    assemble_vhat,
    bogoliubov_identity_residual,
    evolve_transformation,
    generator_matrix,
    solve_instantaneous_basis,
)
from movingcavity.perturb import (
    ValidityWindowWarning,
    bogoliubov_perturbative,
    build_coupling_matrices,
    coupling_alpha,
    coupling_beta,
)
from movingcavity.scenarios import (
    DceConfig,
    DcePredictor,
    DceVariant,
    GwConfig,
    GwPredictor,
    build_dce,
    build_gw,
)
from movingcavity.staticmodes import (
    Box,
    Interval,
    orthonormality_residual,
    solve_box_modes,
    solve_interval_modes,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. closed-form regression for oscillating-wall couplings


def test_dce_closed_form_regression():
    rng = np.random.default_rng(20260826)
    start = time.time()
    worst = 0.0
    for variant in DceVariant:
        for bc in (D, N):
            for _ in range(20):
                length = rng.uniform(0.5, 5.0)
                mass = rng.uniform(0.0, 2.0)
                drive = rng.uniform(1.0, 6.0)
                config = DceConfig(
                    variant=variant, length=length, bc=bc, epsilon=1e-3,
                    omega_drive=drive, mass=mass,
                )
                spec, _, predictor = build_dce(config)
                basis = solve_interval_modes(
                    Interval(length), FieldParams(mass=mass), bc, 6
                )
                couplings = build_coupling_matrices(
                    spec, basis, bc, resonant=True
                )
                indices = [m.index[0] for m in basis.modes]
                wants_a = np.array([
                    [predictor.alpha_hat(n, m).amplitude_at(drive)
                     for m in indices] for n in indices
                ])
                wants_b = np.array([
                    [predictor.beta_hat(n, m).amplitude_at(drive)
                     for m in indices] for n in indices
                ])
                gots_a = np.array([
                    [couplings.alpha_hat[i, j].amplitude_at(drive)
                     for j in range(6)] for i in range(6)
                ])
                gots_b = np.array([
                    [couplings.beta_hat[i, j].amplitude_at(drive)
                     for j in range(6)] for i in range(6)
                ])
                scale = max(np.max(np.abs(wants_a)), np.max(np.abs(wants_b)))
                dev = max(
                    np.max(np.abs(gots_a - wants_a)),
                    np.max(np.abs(gots_b - wants_b)),
                )
                worst = max(worst, dev / scale)
    elapsed = time.time() - start
    passed = worst < 1e-8 and elapsed < 10.0
    report(
        "oscillating-wall closed-form regression", passed,
        f"worst relative deviation {worst:.2e} (limit 1e-8), "
        f"runtime {elapsed:.1f}s (limit 10s)",
    )
    assert worst < 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. closed-form regression for the standing-wave metric couplings


def test_gw_closed_form_regression():
    start = time.time()
    lengths = (1.0, 1.3, 0.9)
    cutoff = math.sqrt(sum((3 * math.pi / L) ** 2 for L in lengths)) + 0.5
    worst = 0.0
    worst_diag = 0.0
    for bc in (D, N):
        config = GwConfig(
            lx=lengths[0], ly=lengths[1], lz=lengths[2], bc=bc,
            epsilon=1e-3, omega_drive=5.0, frequency_cutoff=cutoff,
        )
        spec, predictor = build_gw(config)
        basis = solve_box_modes(
            Box(*lengths), FieldParams(), bc, frequency_cutoff=cutoff
        )
        block = [
            i for i, m in enumerate(basis.modes)
            if all(1 <= idx <= 3 for idx in m.index)
        ]
        assert len(block) == 27
        deviations_a, deviations_b, magnitudes = [], [], []
        for i in block:
            for j in block:
                idx_i = basis.modes[i].index
                idx_j = basis.modes[j].index
                want_b = predictor.beta_hat(idx_i, idx_j).amplitude_at(5.0)
                got_b = coupling_beta(
                    spec, basis, i, j, bc, resonant=True
                ).amplitude_at(5.0)
                deviations_b.append(abs(got_b - want_b))
                magnitudes.append(abs(want_b))
                if i == j:
                    worst_diag = max(worst_diag, abs(got_b), abs(want_b))
                    continue
                want_a = predictor.alpha_hat(idx_i, idx_j).amplitude_at(5.0)
                got_a = coupling_alpha(
                    spec, basis, i, j, bc, resonant=True
                ).amplitude_at(5.0)
                deviations_a.append(abs(got_a - want_a))
                magnitudes.append(abs(want_a))
        scale = max(magnitudes)
        worst = max(
            worst, max(deviations_a) / scale, max(deviations_b) / scale
        )
    elapsed = time.time() - start
    passed = worst < 1e-8 and worst_diag < 1e-10 and elapsed < 30.0
    report(
        "metric-drive closed-form regression", passed,
        f"worst relative deviation {worst:.2e} (limit 1e-8), diagonal "
        f"pair-creation {worst_diag:.2e} (limit 1e-10), "
        f"runtime {elapsed:.1f}s (limit 30s)",
    )
    assert worst < 1e-8
    assert worst_diag < 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. resonant mode-mixing growth law


def test_resonant_mode_mixing_slope():
    epsilon = 1e-3
    drive = 1.0  # difference of the two lowest interval frequencies
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=math.pi, bc=D,
        epsilon=epsilon, omega_drive=drive,
    )
    spec, _, predictor = build_dce(config)
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 4)
    couplings = build_coupling_matrices(spec, basis, D)
    window = 40.0 / drive
    times = np.linspace(0.25 * window, window, 16)
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        for t in times:
            result = bogoliubov_perturbative(
                couplings, basis, epsilon, 0.0, float(t)
            )
            values.append(abs(result.alpha[0, 1]))
    measured = np.polyfit(times, values, 1)[0]
    # at resonance the secular term grows at half the coupling amplitude
    expected = epsilon * abs(predictor.alpha_hat(1, 2).amplitude_at(drive)) / 2
    deviation = abs(measured - expected) / expected
    passed = deviation < 0.01
    report(
        "resonant mode-mixing growth", passed,
        f"slope deviation {deviation:.2%} (limit 1%)",
    )
    assert deviation < 0.01


# ---------------------------------------------------------------------------
# 4. perturbative vs exact evolution cross-check


def test_cross_method_pair_creation():
    epsilon = 1e-3
    drive = 3.0  # sum of the two lowest interval frequencies
    window = 50.0 / drive
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=math.pi, bc=D,
        epsilon=epsilon, omega_drive=drive,
    )
    spec, trajectory, _ = build_dce(config)
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 12)
    couplings = build_coupling_matrices(spec, basis, D)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        perturbative = abs(
            bogoliubov_perturbative(
                couplings, basis, epsilon, 0.0, window
            ).beta[0, 1]
        )
    start = time.time()
    state = evolve_transformation(
        trajectory, FieldParams(), D, 0.0, window, 12
    )
    elapsed = time.time() - start
    exact = abs(state.beta[0, 1])
    deviation = abs(exact - perturbative) / perturbative
    passed = deviation < 0.05 and elapsed < 120.0
    report(
        "cross-method pair creation", passed,
        f"|beta_12| exact {exact:.4e} vs perturbative {perturbative:.4e}, "
        f"deviation {deviation:.2%} (limit 5%), "
        f"runtime {elapsed:.0f}s (limit 120s)",
    )
    assert deviation < 0.05
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. Bogoliubov identity residual scales quadratically


def test_identity_residual_scaling():
    duration = 4.0
    epsilons = (1e-2, 1e-3, 1e-4)
    residuals = []
    for epsilon in epsilons:
        traj = _envelope_trajectory(math.pi, epsilon, 3.0, duration)
        state = evolve_transformation(
            traj, FieldParams(), D, 0.0, duration, 3, step=0.01
        )
        residuals.append(bogoliubov_identity_residual(state))
    slope = np.polyfit(np.log(epsilons), np.log(residuals), 1)[0]
    passed = abs(slope - 2.0) < 0.2
    report(
        "identity-residual scaling", passed,
        f"log-log slope {slope:.3f} (required 2 +/- 0.2), "
        f"residuals {[f'{r:.2e}' for r in residuals]}",
    )
    assert abs(slope - 2.0) < 0.2


# ---------------------------------------------------------------------------
# 6. static-limit sanity


def test_static_limit_consistency():
    worst_freq = 0.0
    worst_gram = 0.0
    worst_gen = 0.0
    for bc in (D, N):
        for mass in (0.0, 1.3):
            length = 2.2
            params = FieldParams(mass=mass)
            traj = BoundaryTrajectory.static(0.0, length)
            static = solve_interval_modes(Interval(length), params, bc, 6)
            inst = solve_instantaneous_basis(traj, params, bc, 0.0, 6)
            worst_freq = max(worst_freq, float(np.max(np.abs(
                np.asarray(inst.frequencies[:6]) / static.frequencies - 1.0
            ))))
            worst_gram = max(worst_gram, orthonormality_residual(static))
            vhat = assemble_vhat(traj, params, bc, 0.0, 6)
            gen = generator_matrix(vhat)
            target = 1j * np.diag(inst.frequencies)
            worst_gen = max(worst_gen, float(np.max(np.abs(gen - target))))
    passed = worst_freq < 1e-10 and worst_gram < 1e-10 and worst_gen < 1e-8
    report(
        "static-limit consistency", passed,
        f"frequency deviation {worst_freq:.2e} (limit 1e-10), "
        f"orthonormality {worst_gram:.2e} (limit 1e-10), "
        f"generator deviation {worst_gen:.2e} (limit 1e-8)",
    )
    assert worst_freq < 1e-10
    assert worst_gram < 1e-10
    assert worst_gen < 1e-8


# ---------------------------------------------------------------------------
# 7. spectrum stays away from zero under boundary motion


def test_no_zero_frequency_under_motion():
    rng = np.random.default_rng(7)
    worst_min = math.inf
    for k in range(100):
        length = rng.uniform(0.5, 5.0)
        left = rng.uniform(-2.0, 2.0)
        v_minus, v_plus = rng.uniform(-0.3, 0.3, 2)
        mass = rng.uniform(0.0, 2.0) if k % 2 else 0.0
        bc = D if k % 3 else N
        traj = BoundaryTrajectory(
            lambda t, a=left: a + v_minus * t,
            lambda t, a=left, L=length: a + L + v_plus * t,
            v_minus=lambda t, v=v_minus: v,
            v_plus=lambda t, v=v_plus: v,
        )
        basis = solve_instantaneous_basis(
            traj, FieldParams(mass=mass), bc, 0.0, 4
        )
        freqs = np.asarray(basis.frequencies)
        worst_min = min(worst_min, float(np.min(np.abs(freqs))))
        # positive and negative branches stay on their own side of zero
        assert np.all(freqs[:4] > 0.0)
        assert np.all(freqs[4:] < 0.0)
    # sweep a wall velocity through zero: the lowest root must move
    # continuously without ever reaching zero
    lowest = []
    for v in np.linspace(-0.3, 0.3, 25):
        traj = BoundaryTrajectory(
            lambda t: 0.0, lambda t, v=v: 2.0 + v * t,
            v_minus=lambda t: 0.0, v_plus=lambda t, v=v: v,
        )
        basis = solve_instantaneous_basis(traj, FieldParams(), D, 0.0, 3)
        lowest.append(basis.frequencies[0])
    lowest = np.asarray(lowest)
    no_crossing = bool(np.all(lowest > 0.0))
    max_jump = float(np.max(np.abs(np.diff(lowest))))
    passed = worst_min > 0.0 and no_crossing and max_jump < 0.05
    report(
        "no zero frequency under motion", passed,
        f"min |omega| over 100 snapshots {worst_min:.2e} (> 0 required), "
        f"velocity sweep stayed positive with max step {max_jump:.2e}",
    )
    assert worst_min > 0.0
    assert no_crossing
    assert max_jump < 0.05


# ---------------------------------------------------------------------------
# 8. integrator convergence order


def test_integrator_convergence_order():
    # the sixth-order Magnus step: halving dt divides the error by about
    # 2^6; at dt = 0.08 the errors (about 2e-10 and 3e-12) stand well
    # clear of round-off
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=math.pi, bc=D,
        epsilon=1e-3, omega_drive=3.0,
    )
    trajectory = build_dce(config).trajectory
    dt = 0.08
    results = {}
    for factor in (1, 2, 8):
        state = evolve_transformation(
            trajectory, FieldParams(), D, 0.0, 2.0, 3, step=dt / factor
        )
        results[factor] = state.U
    coarse = np.max(np.abs(results[1] - results[8]))
    fine = np.max(np.abs(results[2] - results[8]))
    ratio = float(coarse / fine)
    passed = 56.0 <= ratio <= 72.0
    report(
        "integrator convergence order", passed,
        f"error ratio on halving the step {ratio:.2f} (required 56-72); "
        f"errors {coarse:.2e} and {fine:.2e}",
    )
    assert 56.0 <= ratio <= 72.0


# ---------------------------------------------------------------------------
# 9. the exact path is scale invariant


def test_exact_path_scale_invariance():
    # a massless field has no length scale but L: with the drive at
    # omega_1 + omega_2 = 3 pi / L, the window one drive period and the
    # default step, every length must give the same figures
    figures = {}
    for length in (math.pi, 3.10):
        drive = 3.0 * math.pi / length
        config = DceConfig(
            variant=DceVariant.RIGHT_ONLY, length=length, bc=D,
            epsilon=1e-3, omega_drive=drive,
        )
        trajectory = build_dce(config).trajectory
        state = evolve_transformation(
            trajectory, FieldParams(), D, 0.0, 2.0 * math.pi / drive, 12
        )
        figures[length] = (
            abs(state.beta[0, 1]), bogoliubov_identity_residual(state)
        )
    (beta_pi, res_pi), (beta_l, res_l) = figures[math.pi], figures[3.10]
    beta_gap = abs(beta_l / beta_pi - 1.0)
    res_gap = abs(res_l / res_pi - 1.0)
    passed = beta_gap < 1e-9 and res_gap < 1e-9
    report(
        "exact-path scale invariance", passed,
        f"|beta_12| {beta_pi:.10e} vs {beta_l:.10e}, identity residual "
        f"{res_pi:.6e} vs {res_l:.6e} at L = pi and 3.10 (limit rel 1e-9)",
    )
    assert beta_l == pytest.approx(beta_pi, rel=1e-9)
    assert res_l == pytest.approx(res_pi, rel=1e-9)


# ---------------------------------------------------------------------------
# 10. the exact path converges in the band count and in the step


def test_exact_path_band_and_step_convergence():
    # a long massive resonant case: DCE-I, Dirichlet, m = 0.7,
    # epsilon 2e-2, drive omega_1 + omega_2, 25 periods, where |beta_12|
    # has grown to about 0.3; truncation to 8 or 12 bands moves it by
    # about 3e-4 relative, the default step by about 3e-8
    mass = 0.7
    drive = sum(math.sqrt(n * n + mass * mass) for n in (1, 2))
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=math.pi, bc=D,
        epsilon=2e-2, omega_drive=drive, mass=mass,
    )
    window = (
        build_dce(config).trajectory, FieldParams(mass=mass), D, 0.0,
        25 * 2.0 * math.pi / drive,
    )
    start = time.perf_counter()
    beta = {bands: abs(evolve_transformation(*window, bands).beta[0, 1])
            for bands in (8, 12)}
    omega_max = np.max(np.abs(
        solve_instantaneous_basis(*window[:4], 8).frequencies
    ))
    fine = abs(evolve_transformation(
        *window, 8, step=0.6 / omega_max / 4
    ).beta[0, 1])
    elapsed = time.perf_counter() - start
    band_gap = abs(beta[12] / beta[8] - 1.0)
    step_gap = abs(beta[8] / fine - 1.0)
    passed = band_gap < 1e-3 and step_gap < 1e-5
    report(
        "exact-path band and step convergence", passed,
        f"|beta_12| {beta[8]:.6f} at 8 bands, {beta[12]:.6f} at 12 "
        f"(rel {band_gap:.1e}, limit 1e-3); quarter step {fine:.9f} "
        f"(rel {step_gap:.1e}, limit 1e-5); {elapsed:.2f} s",
    )
    assert beta[12] == pytest.approx(beta[8], rel=1e-3)
    assert beta[8] == pytest.approx(fine, rel=1e-5)
