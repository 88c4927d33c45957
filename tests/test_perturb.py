"""Tests for first-order couplings and perturbative Bogoliubov coefficients."""

import cmath
import math
import warnings

import numpy as np
import pytest

from movingcavity import perturb
from movingcavity.core import BoundaryCondition, FieldParams
from movingcavity.perturb import (
    GaussianEnvelope,
    HarmonicSum,
    HarmonicTerm,
    PerturbationSpec,
    ResonanceKind,
    UnsupportedSpecError,
    ValidityWindowWarning,
    bogoliubov_asymptotic,
    bogoliubov_perturbative,
    build_coupling_matrices,
    coupling_alpha,
    coupling_beta,
    find_resonances,
    perturbative_cells,
    validity_window,
)
from movingcavity.scenarios import (
    DceConfig,
    DceVariant,
    GwConfig,
    build_dce,
    build_gw,
)
from movingcavity.staticmodes import (
    Box,
    Interval,
    axis_factors,
    axis_integrals,
    gauss_legendre,
    solve_box_modes,
    solve_interval_modes,
)

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


@pytest.mark.parametrize("name, amplitude, frequency", [
    ("amplitude", math.nan, 2.0),
    ("amplitude", complex(1.0, math.inf), 2.0),
    ("frequency", 1.0, math.nan),
    ("frequency", 1.0, math.inf),
])
def test_harmonic_term_rejects_non_finite_values(name, amplitude, frequency):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HarmonicTerm(amplitude, frequency, "sin")


def test_spec_rejects_nonzero_positivity_shift():
    # a positivity shift never contributes at first order; a spec has no
    # field for it
    with pytest.raises(TypeError, match="delta_f"):
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
# dense couplings against the per-pair reference


def quadrature_axis_tables(basis, quad_points=64):
    """Per-axis Gram and wall tables of a basis by Gauss-Legendre quadrature.

    One tuple (gram, deriv_gram, ends, end_derivs) per axis, in the layout
    of ``staticmodes.axis_integrals``.
    """
    lengths = basis.geometry.lengths
    dirichlet = basis.bc is D
    tables = []
    for axis, length in enumerate(lengths):
        half = length / 2.0
        nodes, weights = gauss_legendre(-half, half, quad_points)
        k = basis.wavenumbers[:, axis, None]
        vals, ders = axis_factors(dirichlet, k, length, nodes)
        ends, end_derivs = axis_factors(dirichlet, k, length, (-half, half))
        tables.append(
            ((vals * weights) @ vals.T, (ders * weights) @ ders.T,
             ends, end_derivs)
        )
    return tables


def reference_couplings(spec, basis, bc, resonant):
    """(N, N) lists of alpha and beta HarmonicSums, one pair at a time.

    The per-pair integrals the dense build replaces: the closed-form axis
    integrals of each pair, then its volume and face integrals.
    """
    lengths = basis.geometry.lengths
    dim = len(lengths)
    dirichlet = basis.bc is D
    index = basis.index.tolist()
    wavenumbers = basis.wavenumbers.tolist()
    norms = basis.normalization
    omega = basis.frequencies.tolist()
    xi, mass = basis.params.coupling_xi, basis.params.mass

    def gram(axis, n, m):
        # L/2 for a sin or cos factor, L for the constant k = 0 factor
        if index[n][axis] != index[m][axis]:
            return 0.0
        if wavenumbers[n][axis] > 0:
            return lengths[axis] / 2.0
        return lengths[axis]

    def deriv_gram(axis, n, m):
        if index[n][axis] != index[m][axis]:
            return 0.0
        k = wavenumbers[n][axis]
        return k * k * (lengths[axis] / 2.0)

    def walls(axis, n, col):
        # factor and derivative at -L/2 (col 0) or L/2 (col 1)
        sign = -1.0 if col == 1 and index[n][axis] % 2 else 1.0
        if dirichlet:
            return 0.0, wavenumbers[n][axis] * sign
        return sign, 0.0

    def overlap(n, m):
        prod = norms[n] * norms[m]
        for axis in range(dim):
            prod *= gram(axis, n, m)
        return prod

    def face_integrals(n, m, axis, sign):
        col = 0 if sign < 0 else 1
        scale = norms[n] * norms[m]
        tangential = 1.0
        for j in range(dim):
            if j != axis:
                tangential *= gram(j, n, m)
        (value_n, deriv_n), (value_m, deriv_m) = (
            walls(axis, n, col), walls(axis, m, col)
        )
        fn = value_n * value_m
        dn = deriv_n * deriv_m
        grad_dot = dn * tangential
        for j in range(dim):
            if j == axis:
                continue
            prod = fn * deriv_gram(j, n, m)
            for k in range(dim):
                if k != axis and k != j:
                    prod *= gram(k, n, m)
            grad_dot += prod
        grad_dot *= scale
        return scale * fn * tangential, grad_dot, scale * dn * tangential

    def bulk(n, m, sign):
        ov = overlap(n, m)
        total = HarmonicSum.zero()
        for i, coeff in enumerate(spec.delta_o_coeffs):
            total = total + coeff * (-basis.modes[n].wavenumbers[i] ** 2 * ov)
        total = total + spec.delta_r * (
            omega[n] * (omega[n] + sign * omega[m]) * ov
        )
        return total + spec.delta_r_bar * (xi * ov)

    def surface(n, m, branch):
        total = HarmonicSum.zero()
        for (axis, sign), harmonics in spec.delta_x.items():
            if harmonics.is_zero():
                continue
            value, grad_dot, normal_grad = face_integrals(n, m, axis, sign)
            if bc is D:
                total = total + harmonics * normal_grad
                continue
            for term in harmonics.terms:
                if not resonant:
                    prod = omega[n] * omega[m]
                elif branch < 0:
                    prod = 0.5 * (
                        omega[n]**2 + omega[m]**2 - term.frequency**2
                    )
                else:
                    prod = 0.5 * (
                        term.frequency**2 - omega[n]**2 - omega[m]**2
                    )
                bracket = grad_dot + (mass**2 + branch * prod) * value
                total = total + HarmonicSum.single(
                    term.amplitude * bracket, term.frequency, term.form
                )
        return total

    turn = {D: -1j, N: 1j}[bc]
    size = len(basis)
    alpha = [[bulk(n, m, -1) * 1j + surface(n, m, -1) * turn
              for m in range(size)] for n in range(size)]
    beta = [[bulk(n, m, +1) * (-1j) + surface(n, m, +1) * (-turn)
             for m in range(size)] for n in range(size)]
    return alpha, beta


def gw_setup(bc, cutoff=9.0):
    config = GwConfig(
        lx=1.0, ly=1.3, lz=0.9, bc=bc, epsilon=1e-3, omega_drive=5.0,
        frequency_cutoff=cutoff,
    )
    spec, _ = build_gw(config)
    basis = solve_box_modes(
        Box(1.0, 1.3, 0.9), FieldParams(), bc, frequency_cutoff=cutoff
    )
    return spec, basis


def mixed_setup(bc):
    """Every spec field in use, sin and cos harmonics, on a massive box."""
    def hs(*terms):
        return HarmonicSum([HarmonicTerm(*t) for t in terms])

    spec = PerturbationSpec(
        epsilon=1e-3,
        delta_o_coeffs=(hs((0.7, 2.0, "sin"), (0.2, 0.0, "cos")),
                        hs((-0.4, 2.0, "cos")), hs((0.3, 3.5, "sin"))),
        delta_r=hs((0.5, 2.0, "sin"), (-0.25, 3.5, "cos")),
        delta_r_bar=hs((1.5, 2.0, "cos")),
        delta_x={(0, -1): hs((0.1, 2.0, "sin"), (0.05, 3.5, "cos")),
                 (2, +1): hs((-0.2, 2.0, "cos"))},
        base_frequency=2.0,
    )
    basis = solve_box_modes(
        Box(1.1, 0.8, 1.3), FieldParams(mass=0.9, coupling_xi=0.2), bc,
        frequency_cutoff=10.0,
    )
    return spec, basis


def coupling_cases():
    for bc in (D, N):
        yield (bc, *gw_setup(bc))
        yield (bc, *mixed_setup(bc))
        for variant in DceVariant:
            spec, _, basis = dce_setup(
                variant=variant, bc=bc, length=1.7, mass=0.6, count=6
            )
            yield bc, spec, basis


def test_axis_integrals_match_quadrature():
    for _, _, basis in coupling_cases():
        got = axis_integrals(basis)
        want = quadrature_axis_tables(basis)
        for axis, length in enumerate(basis.geometry.lengths):
            # natural sizes: factors are at most 1, derivatives at most k
            k = max(np.max(basis.wavenumbers[:, axis]), 1.0)
            for table, size in enumerate((length, k * k * length, 1.0, k)):
                error = np.max(np.abs(got[axis][table] - want[axis][table]))
                assert error <= 1e-13 * size


@pytest.mark.parametrize("resonant", [False, True])
def test_dense_couplings_match_per_pair_reference(resonant):
    for bc, spec, basis in coupling_cases():
        mats = build_coupling_matrices(spec, basis, bc, resonant=resonant)
        want_alpha, want_beta = reference_couplings(spec, basis, bc, resonant)
        for got, want in ((mats.alpha_hat, want_alpha),
                          (mats.beta_hat, want_beta)):
            assert [[hs.terms for hs in row] for row in got] == [
                [hs.terms for hs in row] for row in want
            ]


def test_long_box_beta_matches_predictor():
    # n_y from 30 up on the long side, where 64 quadrature points were
    # 6.9e-4 off
    config = GwConfig(
        lx=1.0, ly=5.0, lz=0.9, bc=D, epsilon=1e-3, omega_drive=5.0,
        frequency_cutoff=25.0,
    )
    spec, predictor = build_gw(config)
    basis = solve_box_modes(Box(1.0, 5.0, 0.9), FieldParams(), D, 25.0)
    rows = np.flatnonzero(basis.index[:, 1] >= 30)[:40]
    assert len(rows) == 40
    basis = basis.take(rows)
    couplings = build_coupling_matrices(spec, basis, D, resonant=True)
    beta = couplings.beta[couplings.harmonics.index((5.0, "sin"))]
    index = [tuple(n) for n in basis.index.tolist()]
    want = np.array([[predictor.beta_hat(n, m).amplitude_at(5.0)
                      for m in index] for n in index])
    assert np.max(np.abs(beta - want)) < 1e-8 * np.max(np.abs(want))


def test_dense_couplings_arrays_and_views_agree():
    spec, basis = gw_setup(D)
    mats = build_coupling_matrices(spec, basis, D)
    assert mats.alpha.shape == (len(mats.harmonics), len(basis), len(basis))
    assert list(mats.harmonics) == sorted(mats.harmonics)
    h = mats.harmonics.index((5.0, "sin"))
    assert mats.beta_hat[3, 4].amplitude_at(5.0) == mats.beta[h, 3, 4]
    assert mats.alpha_hat is mats.alpha_hat  # built once
    with pytest.raises(ValueError):
        mats.alpha_hat[0, 0] = HarmonicSum.zero()


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


def reference_resonances(basis, omega_p, tolerance):
    freqs = basis.frequencies
    hits = []
    for n in range(len(freqs)):
        for m in range(len(freqs)):
            diff = freqs[n] - freqs[m] - omega_p
            if abs(diff) <= tolerance:
                hits.append((n, m, ResonanceKind.MODE_MIXING, float(diff)))
            total = freqs[n] + freqs[m] - omega_p
            if abs(total) <= tolerance:
                hits.append((n, m, ResonanceKind.PAIR_CREATION, float(total)))
    return hits


@pytest.mark.parametrize("box", [False, True])
def test_resonances_match_pairwise_loop(box):
    if box:
        _, basis = gw_setup(N, cutoff=12.0)
        drive, tolerance = 4.0, 0.3
    else:
        basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 12)
        drive, tolerance = 3.0, 1e-9
    found = find_resonances(basis, drive, tolerance)
    want = reference_resonances(basis, drive, tolerance)
    assert len(want) > 10
    got = [(r.n, r.m, r.kind, r.detuning) for r in found]
    assert got == want
    assert all(type(v) is float for *_, v in got)
    assert all(type(n) is int and type(m) is int for n, m, *_ in got)


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


def test_zero_epsilon_gives_identity_without_warning():
    spec, _, basis = dce_setup(drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = bogoliubov_perturbative(mats, basis, 0.0, 0.0, 0.1)
    assert validity_window(3.0, 0.0) is None
    assert np.array_equal(result.alpha, np.eye(len(basis)))
    assert np.array_equal(result.beta, np.zeros((len(basis), len(basis))))


def test_negative_epsilon_judged_by_its_size():
    spec, _, basis = dce_setup(drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    assert validity_window(3.0, -1e-3) == validity_window(3.0, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minus = bogoliubov_perturbative(mats, basis, -1e-3, 0.0, 10.0)
    with pytest.warns(ValidityWindowWarning):
        bogoliubov_perturbative(mats, basis, -1e-3, 0.0, 0.1)
    plus = bogoliubov_perturbative(mats, basis, 1e-3, 0.0, 10.0)
    off = ~np.eye(len(basis), dtype=bool)
    assert np.array_equal(minus.alpha[off], -plus.alpha[off])
    assert np.array_equal(minus.beta, -plus.beta)


@pytest.mark.parametrize("name, value", [
    ("t0", math.nan), ("t0", -math.inf), ("tf", math.nan), ("tf", math.inf),
    ("epsilon", math.nan), ("epsilon", math.inf),
])
def test_perturbative_rejects_non_finite_input(name, value):
    spec, _, basis = dce_setup(drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    args = {"epsilon": 1e-3, "t0": 0.0, "tf": 10.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        bogoliubov_perturbative(mats, basis, **args)


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


def reference_phase_integral(mu, t0, tf):
    if abs(mu) * max(abs(t0), abs(tf)) < 1e-12:
        return complex(tf - t0)
    return (cmath.exp(1j * mu * tf) - cmath.exp(1j * mu * t0)) / (1j * mu)


def reference_coefficients(mats, basis, epsilon, kernel):
    """First-order alpha and beta, one pair and one harmonic at a time."""
    freqs = basis.frequencies
    size = len(basis)
    alpha = np.eye(size, dtype=complex)
    beta = np.zeros((size, size), dtype=complex)
    for n in range(size):
        for m in range(size):
            for out, hat, detuning in (
                (alpha, mats.alpha_hat, freqs[n] - freqs[m]),
                (beta, mats.beta_hat, freqs[n] + freqs[m]),
            ):
                if out is alpha and n == m:
                    continue
                total = 0.0 + 0.0j
                for term in hat[n, m].terms:
                    plus = kernel(term.frequency - detuning)
                    minus = kernel(-term.frequency - detuning)
                    if term.form == "sin":
                        total += term.amplitude * (plus - minus) / 2j
                    else:
                        total += term.amplitude * (plus + minus) / 2.0
                out[n, m] = epsilon * total
    return alpha, beta


def coefficient_cases():
    # L = pi with drive 3 hits the mu -> 0 branch on exact resonances
    spec, _, basis = dce_setup(length=math.pi, drive=3.0, count=6)
    yield spec, basis, D
    spec, _, basis = dce_setup(bc=N, length=1.7, mass=0.6, count=6)
    yield spec, basis, N
    spec, basis = gw_setup(D)
    yield spec, basis, D
    spec, basis = mixed_setup(N)
    yield spec, basis, N


def test_perturbative_matches_scalar_loop_exactly():
    for spec, basis, bc in coefficient_cases():
        mats = build_coupling_matrices(spec, basis, bc)
        for t0, tf in ((0.0, 10.0), (0.3, 7.9)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWindowWarning)
                result = bogoliubov_perturbative(mats, basis, 1e-3, t0, tf)
            alpha, beta = reference_coefficients(
                mats, basis, 1e-3,
                lambda mu: reference_phase_integral(mu, t0, tf),
            )
            assert np.array_equal(result.alpha, alpha)
            assert np.array_equal(result.beta, beta)


def test_asymptotic_matches_scalar_loop():
    sigma = 4.0

    def gaussian(mu):
        return sigma * math.sqrt(2.0 * math.pi) * math.exp(
            -0.5 * (sigma * mu) ** 2
        )

    for spec, basis, bc in coefficient_cases():
        mats = build_coupling_matrices(spec, basis, bc, resonant=True)
        result = bogoliubov_asymptotic(
            mats, basis, 1e-3, GaussianEnvelope(sigma)
        )
        alpha, beta = reference_coefficients(mats, basis, 1e-3, gaussian)
        for got, want in ((result.alpha, alpha), (result.beta, beta)):
            scale = np.max(np.abs(want - np.diag(np.diag(alpha))))
            assert scale > 0
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


def cell_cases():
    for bc in (D, N):
        for variant in DceVariant:
            spec, _, basis = dce_setup(
                variant=variant, bc=bc, length=1.7, mass=0.6, count=6
            )
            yield spec, basis, bc
    spec, basis = gw_setup(D)
    yield spec, basis, D


@pytest.mark.parametrize("resonant", [False, True])
def test_cells_match_dense_coefficients(resonant):
    # gathered cells, in a shuffled order with repeats, against the dense
    # window and envelope matrices, bit for bit
    rng = np.random.default_rng(19)
    uncoupled_seen = 0
    envelopes = (GaussianEnvelope(4.0), GaussianEnvelope(9.0))
    for spec, basis, bc in cell_cases():
        mats = build_coupling_matrices(spec, basis, bc, resonant)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWindowWarning)
            window = bogoliubov_perturbative(mats, basis, 1e-3, 0.3, 7.9)
        dense = [window] + [
            bogoliubov_asymptotic(mats, basis, 1e-3, envelope)
            for envelope in envelopes
        ]
        size = len(basis)
        every = rng.permutation(np.repeat(np.arange(size * size), 2))
        coupled = np.flatnonzero(mats.coupled)
        for flat in (every, coupled, coupled[:1]):
            rows, cols = np.divmod(flat, size)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWindowWarning)
                gathered = [perturbative_cells(
                    mats, basis, 1e-3, 0.3, 7.9, rows.tolist(), cols
                )]
            gathered += [
                perturb._first_order(
                    mats, basis, 1e-3, envelope.transform, (rows, cols)
                )
                for envelope in envelopes
            ]
            for result, (alpha, beta) in zip(dense, gathered):
                assert np.array_equal(alpha, result.alpha[rows, cols])
                assert np.array_equal(beta, result.beta[rows, cols])
        # a pair with no amplitude in any harmonic evaluates to 0 (alpha 1
        # on the diagonal), and ``coupled`` is the HarmonicSum view's rule
        hats = zip(mats.alpha_hat.flat, mats.beta_hat.flat)
        assert mats.coupled.ravel().tolist() == [
            not (a.is_zero() and b.is_zero()) for a, b in hats
        ]
        off = ~mats.coupled & ~np.eye(size, dtype=bool)
        diagonal = np.diag(~mats.coupled)
        for result in dense:
            assert np.all(result.alpha[off] == 0.0)
            assert np.all(result.beta[~mats.coupled] == 0.0)
            assert np.all(np.diag(result.alpha)[diagonal] == 1.0)
        uncoupled_seen += int(np.count_nonzero(~mats.coupled))
    assert uncoupled_seen > 0


def test_cells_keep_the_window_checks():
    spec, _, basis = dce_setup(drive=3.0)
    mats = build_coupling_matrices(spec, basis, D)
    rows, cols = np.array([0, 1]), np.array([1, 1])
    with pytest.warns(ValidityWindowWarning):
        perturbative_cells(mats, basis, 1e-3, 0.0, 0.1, rows, cols)
    with pytest.raises(ValueError, match="t0 < tf"):
        perturbative_cells(mats, basis, 1e-3, 1.0, 1.0, rows, cols)
    with pytest.raises(ValueError, match="tf must be finite"):
        perturbative_cells(mats, basis, 1e-3, 0.0, math.inf, rows, cols)


# ---------------------------------------------------------------------------
# asymptotic envelopes


def test_gaussian_transform_oracle():
    env = GaussianEnvelope(sigma=1.7)
    for mu in (0.0, 0.31, 2.2):
        t = np.linspace(-40, 40, 400001)
        want = np.trapezoid(np.exp(-t**2 / (2 * 1.7**2)) * np.exp(1j * mu * t), t)
        assert env.transform(mu) == pytest.approx(want.real, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("envelope", [GaussianEnvelope])
@pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf])
def test_envelope_rejects_bad_size(envelope, size):
    with pytest.raises(ValueError, match="must be positive and finite"):
        envelope(size)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_asymptotic_rejects_non_finite_epsilon(epsilon):
    spec, _, basis = dce_setup()
    mats = build_coupling_matrices(spec, basis, D)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        bogoliubov_asymptotic(mats, basis, epsilon, GaussianEnvelope(30.0))


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
