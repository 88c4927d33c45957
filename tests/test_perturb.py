"""Tests for first-order couplings and perturbative Bogoliubov coefficients."""

import math
import warnings

import numpy as np
import pytest

from movingcavity.core import BoundaryCondition, FieldParams
from movingcavity.perturb import (
    GaussianEnvelope,
    HarmonicSum,
    HarmonicTerm,
    PerturbationSpec,
    RaisedCosineEnvelope,
    ResonanceKind,
    UnsupportedSpecError,
    ValidityWindowWarning,
    bogoliubov_asymptotic,
    bogoliubov_perturbative,
    build_coupling_matrices,
    coupling_alpha,
    coupling_beta,
    find_resonances,
)
from movingcavity.scenarios import DceConfig, DceVariant, build_dce
from movingcavity.staticmodes import Interval, solve_interval_modes

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def dce_setup(variant=DceVariant.RIGHT_ONLY, bc=D, length=math.pi,
              mass=0.0, drive=3.0, epsilon=1e-3, count=4):
    config = DceConfig(
        variant=variant, length=length, bc=bc, epsilon=epsilon,
        omega_drive=drive, mass=mass,
    )
    spec, _, predictor = build_dce(config)
    basis = solve_interval_modes(
        Interval(length), FieldParams(mass=mass), bc, count
    )
    return spec, predictor, basis


# ---------------------------------------------------------------------------
# harmonic algebra


def test_harmonic_sum_merges_duplicate_terms():
    h = HarmonicSum.single(1.0, 2.0) + HarmonicSum.single(2.5, 2.0)
    assert len(h.terms) == 1
    assert h.amplitude_at(2.0) == pytest.approx(3.5)


def test_harmonic_sum_drops_cancelled_terms():
    h = HarmonicSum.single(1.0, 2.0) + HarmonicSum.single(-1.0, 2.0)
    assert h.is_zero()


def test_harmonic_sum_evaluates_pointwise():
    h = HarmonicSum.single(2.0, 3.0, "sin") + HarmonicSum.single(0.5, 1.0, "cos")
    t = 0.731
    assert h(t) == pytest.approx(2.0 * math.sin(3.0 * t) + 0.5 * math.cos(t))


def test_harmonic_term_rejects_bad_form():
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, 2.0, "tan")


def test_spec_rejects_nonzero_positivity_shift():
    with pytest.raises(UnsupportedSpecError):
        PerturbationSpec(epsilon=1e-3, delta_f=HarmonicSum.single(1.0, 2.0))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        PerturbationSpec(epsilon=epsilon)


def test_spec_addition_requires_matching_epsilon():
    a = PerturbationSpec(epsilon=1e-3)
    b = PerturbationSpec(epsilon=2e-3)
    with pytest.raises(ValueError):
        a + b


# ---------------------------------------------------------------------------
# couplings against the closed forms


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize(
    "variant", [DceVariant.RIGHT_ONLY, DceVariant.BREATHING, DceVariant.SHAKING]
)
def test_quadrature_matches_closed_form(variant, bc):
    spec, predictor, basis = dce_setup(variant=variant, bc=bc, length=1.7)
    drive = 3.0
    for i, mode_i in enumerate(basis.modes):
        for j, mode_j in enumerate(basis.modes):
            got = coupling_alpha(spec, basis, i, j, bc, resonant=True)
            want = predictor.alpha_hat(mode_i.index[0], mode_j.index[0])
            assert got.amplitude_at(drive) == pytest.approx(
                want.amplitude_at(drive), abs=1e-12
            )
            got_b = coupling_beta(spec, basis, i, j, bc, resonant=True)
            want_b = predictor.beta_hat(mode_i.index[0], mode_j.index[0])
            assert got_b.amplitude_at(drive) == pytest.approx(
                want_b.amplitude_at(drive), abs=1e-12
            )


def test_couplings_additive_in_spec():
    spec_a, _, basis = dce_setup(variant=DceVariant.RIGHT_ONLY)
    spec_b, _, _ = dce_setup(variant=DceVariant.BREATHING)
    combined = spec_a + spec_b
    for (i, j) in [(0, 1), (1, 2), (2, 0)]:
        separate = coupling_alpha(spec_a, basis, i, j, D) + coupling_alpha(
            spec_b, basis, i, j, D
        )
        together = coupling_alpha(combined, basis, i, j, D)
        t = 0.41
        assert together(t) == pytest.approx(separate(t), abs=1e-12)


def test_beta_symmetric_for_boundary_driving():
    spec, _, basis = dce_setup(variant=DceVariant.SHAKING, bc=N, length=2.0)
    for (i, j) in [(0, 1), (0, 2), (1, 3)]:
        b_ij = coupling_beta(spec, basis, i, j, N)
        b_ji = coupling_beta(spec, basis, j, i, N)
        t = 1.234
        assert b_ij(t) == pytest.approx(b_ji(t), abs=1e-12)


def test_coupling_matrices_shape_and_drive():
    spec, _, basis = dce_setup()
    mats = build_coupling_matrices(spec, basis, D, resonant=True)
    n = len(basis)
    assert mats.alpha_hat.shape == (n, n)
    assert mats.beta_hat.shape == (n, n)
    assert mats.drive_frequency == pytest.approx(3.0)


def test_coupling_index_bounds():
    spec, _, basis = dce_setup()
    with pytest.raises(IndexError):
        coupling_alpha(spec, basis, 0, len(basis), D)


# ---------------------------------------------------------------------------
# resonance identification


def test_resonances_integer_spectrum():
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 6)
    found = find_resonances(basis, omega_p=3.0, tolerance=1e-9)
    mixing = {(r.n, r.m) for r in found if r.kind is ResonanceKind.MODE_MIXING}
    creation = {
        (r.n, r.m) for r in found if r.kind is ResonanceKind.PAIR_CREATION
    }
    # frequencies are 1..6: mixing pairs differ by 3, creation pairs sum to 3
    assert mixing == {(3, 0), (4, 1), (5, 2)}
    assert creation == {(0, 1), (1, 0)}
    assert all(abs(r.detuning) < 1e-9 for r in found)


def test_resonances_empty_when_off_resonance():
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 4)
    assert find_resonances(basis, omega_p=0.4321, tolerance=1e-6) == ()


# ---------------------------------------------------------------------------
# perturbative window integrals against direct quadrature


def numeric_coefficient(hsum, mu, t0, tf):
    t = np.linspace(t0, tf, 40001)
    values = np.array([hsum(x) for x in t], dtype=complex)
    return np.trapezoid(np.exp(-1j * mu * t) * values, t)


def test_perturbative_matches_numeric_quadrature():
    spec, _, basis = dce_setup(length=math.pi, drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    t0, tf = 0.0, 11.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        result = bogoliubov_perturbative(mats, basis, 1e-3, t0, tf)
    freqs = basis.frequencies
    for (i, j) in [(0, 1), (1, 2), (0, 3)]:
        want_beta = 1e-3 * numeric_coefficient(
            mats.beta_hat[i, j], freqs[i] + freqs[j], t0, tf
        )
        assert result.beta[i, j] == pytest.approx(want_beta, rel=1e-5)
        want_alpha = 1e-3 * numeric_coefficient(
            mats.alpha_hat[i, j], freqs[i] - freqs[j], t0, tf
        )
        assert result.alpha[i, j] == pytest.approx(want_alpha, rel=1e-5)


def test_perturbative_alpha_diagonal_is_identity():
    spec, _, basis = dce_setup(drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        result = bogoliubov_perturbative(mats, basis, 1e-3, 0.0, 10.0)
    assert np.allclose(np.diag(result.alpha), 1.0)


def test_validity_window_warning_outside_bounds():
    spec, _, basis = dce_setup(drive=3.0, epsilon=1e-3)
    mats = build_coupling_matrices(spec, basis, D)
    with pytest.warns(ValidityWindowWarning):
        bogoliubov_perturbative(mats, basis, 1e-3, 0.0, 0.1)


def test_resonant_growth_is_linear():
    """On resonance the pair-creation coefficient grows secularly."""
    spec, predictor, basis = dce_setup(length=math.pi, drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    rate = abs(predictor.beta_hat(1, 2).amplitude_at(3.0)) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        short = bogoliubov_perturbative(mats, basis, 1e-3, 0.0, 40.0)
        long = bogoliubov_perturbative(mats, basis, 1e-3, 0.0, 80.0)
    growth = abs(long.beta[0, 1]) - abs(short.beta[0, 1])
    assert growth == pytest.approx(1e-3 * rate * 40.0, rel=0.03)


# ---------------------------------------------------------------------------
# asymptotic envelopes


def test_gaussian_transform_oracle():
    env = GaussianEnvelope(sigma=1.7)
    for mu in (0.0, 0.31, 2.2):
        t = np.linspace(-40, 40, 400001)
        want = np.trapezoid(np.exp(-t**2 / (2 * 1.7**2)) * np.exp(1j * mu * t), t)
        assert env.transform(mu) == pytest.approx(want.real, rel=1e-8, abs=1e-12)


def test_raised_cosine_transform_oracle():
    env = RaisedCosineEnvelope(duration=9.0)
    for mu in (0.0, 0.5, 1.9):
        t = np.linspace(-4.5, 4.5, 400001)
        want = np.trapezoid(
            np.cos(math.pi * t / 9.0) ** 2 * np.exp(1j * mu * t), t
        )
        assert env.transform(mu) == pytest.approx(
            complex(want).real, rel=1e-6, abs=1e-9
        )


def test_asymptotic_suppresses_off_resonant_pairs():
    spec, _, basis = dce_setup(length=math.pi, drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    result = bogoliubov_asymptotic(mats, basis, 1e-3, GaussianEnvelope(30.0))
    # omega_1 + omega_2 = 3 is resonant; omega_1 + omega_4 = 5 is far off
    assert abs(result.beta[0, 1]) > 1e-4
    assert abs(result.beta[0, 3]) < 1e-12


def test_asymptotic_requires_transform():
    spec, _, basis = dce_setup()
    mats = build_coupling_matrices(spec, basis, D)
    with pytest.raises(UnsupportedSpecError):
        bogoliubov_asymptotic(mats, basis, 1e-3, envelope=object())
