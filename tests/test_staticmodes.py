"""Tests for the closed-form static cavity eigenbases."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movingcavity import staticmodes
from movingcavity import (
    BoundaryCondition,
    Box,
    EmptyBasisError,
    FieldParams,
    Interval,
    StaticBasis,
    orthonormality_residual,
    solve_box_modes,
    solve_interval_modes,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def test_interval_dirichlet_pi_massless_frequencies():
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 3)
    assert np.allclose(basis.frequencies, [1.0, 2.0, 3.0])
    assert [m.index for m in basis.modes] == [(1,), (2,), (3,)]


def test_interval_neumann_massless_skips_constant_mode():
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), N, 3)
    assert np.allclose(basis.frequencies, [1.0, 2.0, 3.0])
    assert basis.modes[0].index == (1,)


def test_interval_neumann_massive_keeps_constant_mode():
    basis = solve_interval_modes(Interval(1.0), FieldParams(mass=2.0), N, 2)
    assert basis.modes[0].index == (0,)
    assert basis.modes[0].frequency == pytest.approx(2.0)


@pytest.mark.parametrize("mass", [1e-170, 2.2e-313])
def test_underflowing_mass_drops_constant_mode(mass):
    # mass**2 underflows to 0: the field counts as massless
    massless = FieldParams()
    tiny = FieldParams(mass=mass)
    line = solve_interval_modes(Interval(2.2), tiny, N, 4)
    assert line.frequencies == pytest.approx(
        solve_interval_modes(Interval(2.2), massless, N, 4).frequencies,
        rel=1e-15,
    )
    box = solve_box_modes(Box(1.0, 1.3, 0.9), tiny, N, 8.0)
    reference = solve_box_modes(Box(1.0, 1.3, 0.9), massless, N, 8.0)
    assert [m.index for m in box.modes] == [m.index for m in reference.modes]
    assert np.all(box.frequencies > 0)


def test_interval_massive_ground_frequency():
    basis = solve_interval_modes(Interval(1.0), FieldParams(mass=1.0), D, 1)
    assert basis.frequencies[0] == pytest.approx(math.sqrt(math.pi**2 + 1.0))


def test_interval_invalid_count():
    with pytest.raises(ValueError):
        solve_interval_modes(Interval(1.0), FieldParams(), D, 0)


def test_box_cutoff_selects_single_ground_mode():
    basis = solve_box_modes(Box(math.pi, math.pi, math.pi), FieldParams(), D, 2.0)
    assert len(basis) == 1
    assert basis.modes[0].index == (1, 1, 1)
    assert basis.frequencies[0] == pytest.approx(math.sqrt(3.0))


def test_box_frequencies_and_ordering():
    basis = solve_box_modes(Box(math.pi, math.pi, math.pi), FieldParams(), D, 2.5)
    # sqrt(3) ground mode then the three sqrt(6) permutations in
    # lexicographic order.
    assert [m.index for m in basis.modes] == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]
    assert np.allclose(
        basis.frequencies, [math.sqrt(3.0)] + [math.sqrt(6.0)] * 3
    )
    assert np.all(np.diff(basis.frequencies) >= 0)


def test_box_neumann_massless_excludes_all_zero_index():
    basis = solve_box_modes(Box(math.pi, math.pi, math.pi), FieldParams(), N, 1.5)
    indices = [m.index for m in basis.modes]
    assert (0, 0, 0) not in indices
    assert (1, 0, 0) in indices


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_lengths_rejected(value):
    with pytest.raises(ValueError, match="length"):
        Interval(value)
    with pytest.raises(ValueError, match="ly"):
        Box(1.0, value, 1.0)


@pytest.mark.parametrize("length, bc, mass", [
    (1e-160, D, 0.0), (1e160, D, 0.0), (1e300, D, 0.0), (1e300, N, 1.0),
])
def test_squared_wavenumbers_outside_float_range_rejected(length, bc, mass):
    # k^2 of mode 1 overflows, is subnormal or is 0: a typed error naming
    # the length, not a table of inf, inexact or zero frequencies
    with pytest.raises(ValueError, match=r"Interval\(length=.* mode \(1,\)"):
        solve_interval_modes(Interval(length), FieldParams(mass=mass), bc, 3)


def test_squared_frequency_overflow_rejected():
    # k^2 and m^2 are finite but their sum is not: a typed error naming the
    # length and the mass, not an inf frequency and an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValueError,
            match=r"Interval\(length=6\.2e-154\) with mass 1\.3e\+154 .*"
            r"mode \(1,\)",
        ):
            solve_interval_modes(
                Interval(6.2e-154), FieldParams(mass=1.3e154), D, 1
            )


def test_box_squared_wavenumber_sum_is_checked_per_mode():
    # only mode (0, 1, 0) moves along the 1e160 axis, and its k^2 sum is
    # subnormal; the uniform mode's sum is 0 and stays allowed
    box, params = Box(1.0, 1e160, 1.0), FieldParams(mass=1.0)
    uniform = staticmodes._build_basis(box, params, N, np.array([[0, 0, 0]]))
    assert uniform.frequencies.tolist() == [1.0]
    with pytest.raises(ValueError, match=r"ly=1e\+160.*mode \(0, 1, 0\)"):
        staticmodes._build_basis(
            box, params, N, np.array([[0, 0, 0], [0, 1, 0]])
        )


def test_box_cutoff_below_spectrum_raises():
    with pytest.raises(EmptyBasisError):
        solve_box_modes(Box(math.pi, math.pi, math.pi), FieldParams(), D, 1.0)


def _full_grid_box_modes(geometry, params, bc, cutoff):
    """``solve_box_modes`` from the whole per-axis index grid.

    Every number up to floor(cutoff L / pi) on each axis, as the box was
    enumerated before it took the cutoff ellipsoid.
    """
    lowest = 1 if bc is D else 0
    ranges = [
        np.arange(lowest, math.floor(cutoff * length / math.pi) + 1)
        for length in geometry.lengths
    ]
    grid = np.meshgrid(*ranges, indexing="ij")
    index = np.stack(grid, axis=-1).reshape(-1, 3)
    if not (bc is N and params.mass > 0):
        index = index[index.any(axis=1)]
    return staticmodes._build_basis(geometry, params, bc, index, cutoff)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("mass", [0.0, 0.7])
def test_box_ellipsoid_enumeration_matches_the_full_grid(bc, mass):
    # the same modes, bit for bit and in the same order, on boxes whose
    # cutoff sits exactly on a mode (pi sqrt 3 and pi sqrt 14 on the unit
    # cube, 3 pi on a 2:1:1 box) and on random boxes and cutoffs
    rng = np.random.default_rng(11)
    cases = [
        ((1.0, 1.0, 1.0), math.pi * math.sqrt(3.0)),
        ((1.0, 1.0, 1.0), math.pi * math.sqrt(14.0)),
        ((2.0, 1.0, 1.0), 3.0 * math.pi),
        ((1.0, 1.3, 0.9), 25.0),
    ] + [
        (tuple(rng.uniform(0.5, 4.0, 3).tolist()), float(rng.uniform(12, 30)))
        for _ in range(12)
    ]
    params = FieldParams(mass=mass)
    for sides, cutoff in cases:
        geometry = Box(*sides)
        reference = _full_grid_box_modes(geometry, params, bc, cutoff)
        if not len(reference):  # pi sqrt 3 holds (1, 1, 1) only when massless
            with pytest.raises(EmptyBasisError):
                solve_box_modes(geometry, params, bc, cutoff)
            continue
        basis = solve_box_modes(geometry, params, bc, cutoff)
        for got, want in zip(basis._arrays(), reference._arrays()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("sides, cutoff, match", [
    # billions of modes in a long box, and more than a float's count
    ((1.0, 1.3, 1e7), 25.0, r"lz=10000000\.0\) with frequency cutoff 25\.0"),
    ((1.0, 1.3, 1e170), 25.0, r"lz=1e\+170"),
    ((1.0, 1.3, 0.9), 1e300, r"frequency cutoff 1e\+300 holds more"),
])
def test_box_with_too_many_modes_is_a_typed_error(sides, cutoff, match):
    # raised before any index row is made, naming the geometry and cutoff
    with pytest.raises(ValueError, match=match):
        solve_box_modes(Box(*sides), FieldParams(), D, cutoff)
    assert staticmodes.MAX_BOX_MODES == 1 << 20


def test_box_whose_axes_hold_no_number_is_empty():
    # a cutoff below the lowest Dirichlet number of the x axis, an axis
    # whose lowest k^2 overflows, and a last axis that no x-y pair leaves
    # room for (billions of pairs, were they enumerated)
    for geometry, cutoff in (
        (Box(1.0, 1.3, 1e170), 1e-150), (Box(1e-170, 1.3, 0.9), 25.0),
        (Box(1e4, 1e4, 1e-5), 25.0),
    ):
        with pytest.raises(EmptyBasisError, match="captures no modes"):
            solve_box_modes(geometry, FieldParams(), D, cutoff)


def _mode_values(basis, point):
    """Every mode's value (N,) and gradient (N, d) at one point."""
    factors, derivs = staticmodes.axis_factors(
        basis.bc is D, basis.wavenumbers, basis.geometry.lengths, point
    )
    axes = np.arange(factors.shape[1])
    gradient = np.stack([
        np.prod(np.where(axes == axis, derivs, factors), axis=1)
        for axis in axes
    ], axis=1)
    norms = basis.normalization
    return norms * np.prod(factors, axis=1), norms[:, None] * gradient


def test_dirichlet_center_value():
    basis = solve_interval_modes(Interval(math.pi), FieldParams(), D, 1)
    value = _mode_values(basis, [0.0])[0][0]
    assert value == pytest.approx(1.0 / math.sqrt(math.pi))


def test_dirichlet_modes_vanish_on_boundary():
    rng = np.random.default_rng(7)
    basis = solve_box_modes(Box(1.0, 1.5, 0.7), FieldParams(), D, 12.0)
    lengths = np.array([1.0, 1.5, 0.7])
    for _ in range(10):
        point = rng.uniform(-0.5, 0.5, size=3) * lengths
        axis = rng.integers(3)
        point[axis] = 0.5 * lengths[axis] * rng.choice([-1.0, 1.0])
        assert np.max(np.abs(_mode_values(basis, point)[0])) < 1e-12


def test_neumann_normal_derivative_vanishes_on_boundary():
    rng = np.random.default_rng(11)
    basis = solve_box_modes(Box(1.0, 1.5, 0.7), FieldParams(mass=1.0), N, 12.0)
    lengths = np.array([1.0, 1.5, 0.7])
    for _ in range(10):
        point = rng.uniform(-0.5, 0.5, size=3) * lengths
        axis = rng.integers(3)
        point[axis] = 0.5 * lengths[axis] * rng.choice([-1.0, 1.0])
        gradient = _mode_values(basis, point)[1]
        assert np.max(np.abs(gradient[:, axis])) < 1e-10


@pytest.mark.parametrize("dirichlet", [True, False])
def test_axis_factors_derivative_matches_centred_difference(dirichlet):
    # k = 0 included.  f''' = -k^2 f' and max |f'| = k, so the difference is
    # off by at most h^2 k^3 / 6, plus rounding: measured within
    # 2e-11 max(k, 1) above that at h = 1e-5, worst 0.96 of the bound
    length, h = 2.3, 1e-5
    k = (math.pi / length * np.arange(9))[:, None]
    x = np.linspace(-length / 2, length / 2, 41)
    derivs = staticmodes.axis_factors(dirichlet, k, length, x)[1]
    central = (
        staticmodes.axis_factors(dirichlet, k, length, x + h)[0]
        - staticmodes.axis_factors(dirichlet, k, length, x - h)[0]
    ) / (2 * h)
    bound = h * h * k**3 / 6 + 1e-10 * np.maximum(k, 1.0)
    assert np.all(np.abs(central - derivs) <= bound)
    assert np.all(derivs[0] == 0.0) and np.all(central[0] == 0.0)


def test_box_ground_mode_self_overlap():
    # Quadrature of the squared ground mode must give 1/(2 sqrt(3)).
    basis = solve_box_modes(Box(math.pi, math.pi, math.pi), FieldParams(), D, 2.0)
    mode = basis.modes[0]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x = 0.5 * math.pi * nodes
    w = 0.5 * math.pi * weights
    axis_int = np.sum(w * np.sin(x + math.pi / 2.0) ** 2)
    overlap = mode.normalization**2 * axis_int**3
    assert overlap == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-10)


def test_interval_orthonormality_residual():
    for bc in (D, N):
        basis = solve_interval_modes(Interval(2.3), FieldParams(mass=0.4), bc, 8)
        assert orthonormality_residual(basis) < 1e-12


def test_single_mode_orthonormality_residual():
    basis = solve_interval_modes(Interval(1.0), FieldParams(), D, 1)
    assert orthonormality_residual(basis) < 1e-12


@pytest.mark.parametrize("bc", [D, N])
def test_fifty_mode_interval_orthonormality_residual(bc):
    # 64 Gauss-Legendre points read 0.39 here: the point count must grow
    # with the largest quantum number
    basis = solve_interval_modes(Interval(1.0), FieldParams(mass=0.6), bc, 50)
    assert orthonormality_residual(basis) < 1e-13


def test_long_box_orthonormality_residual():
    # n_y reaches 39 on the long side, where 64 points read 0.049
    basis = solve_box_modes(Box(1.0, 5.0, 0.9), FieldParams(), D, 25.0)
    assert len(basis) == 942
    assert orthonormality_residual(basis) < 1e-13


def test_empty_basis_residual_raises():
    basis = solve_interval_modes(Interval(1.0), FieldParams(), D, 1)
    empty = StaticBasis(
        geometry=basis.geometry, bc=basis.bc, params=basis.params,
        index=np.empty((0, 1), dtype=int), wavenumbers=np.empty((0, 1)),
        frequencies=np.empty(0), normalization=np.empty(0),
    )
    with pytest.raises(EmptyBasisError):
        orthonormality_residual(empty)


@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from([D, N]),
)
@settings(max_examples=20, deadline=None)
@example(lx=1.0, ly=1.0, lz=1.0, mass=2.2e-313, bc=N)
@example(lx=2.0, ly=2.0, lz=2.0, mass=2.0, bc=D)
def test_box_orthonormality_property(lx, ly, lz, mass, bc):
    # 20 % above the wavenumber of the (1, 1, 1) mode of a cube with the
    # shortest side, lifted by the mass so that the cutoff always lies
    # above the lowest frequency and the basis is never empty
    cutoff = math.hypot(1.2 * math.pi * math.sqrt(3.0) / min(lx, ly, lz), mass)
    basis = solve_box_modes(Box(lx, ly, lz), FieldParams(mass=mass), bc, cutoff)
    assert orthonormality_residual(basis) < 1e-10
    assert np.all(basis.frequencies > 0)


def test_frequency_dispersion_relation():
    basis = solve_box_modes(Box(1.0, 2.0, 3.0), FieldParams(mass=0.7), D, 10.0)
    for mode in basis.modes:
        expected = math.sqrt(sum(k * k for k in mode.wavenumbers) + 0.49)
        assert mode.frequency == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("bc", [D, N])
def test_basis_arrays_are_read_only(bc):
    for basis in (
        solve_interval_modes(Interval(2.3), FieldParams(mass=0.4), bc, 5),
        solve_box_modes(Box(1.0, 1.3, 0.9), FieldParams(), bc, 9.0),
    ):
        dim = len(basis.geometry.lengths)
        size = len(basis)
        shapes = [(size, dim), (size, dim), (size,), (size,)]
        arrays = (
            basis.index, basis.wavenumbers, basis.frequencies,
            basis.normalization,
        )
        for array, shape in zip(arrays, shapes):
            assert array.shape == shape
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


@pytest.mark.parametrize("bc", [D, N])
def test_modes_match_arrays_as_python_numbers(bc):
    basis = solve_box_modes(Box(1.0, 1.3, 0.9), FieldParams(mass=0.7), bc, 9.0)
    assert len(basis.modes) == len(basis)
    for i, mode in enumerate(basis.modes):
        assert all(type(n) is int for n in mode.index)
        assert all(type(k) is float for k in mode.wavenumbers)
        assert type(mode.frequency) is float
        assert type(mode.normalization) is float
        assert mode.index == tuple(basis.index[i].tolist())
        assert mode.wavenumbers == tuple(basis.wavenumbers[i].tolist())
        assert mode.frequency == basis.frequencies[i]
        assert mode.normalization == basis.normalization[i]


@pytest.mark.parametrize("bc, mass, lengths", [
    (D, 0.0, (1.0, 1.3, 0.9)),
    (D, 0.0, (1.0, 1.0, 1.0)),  # cubes and squares have equal frequencies
    (N, 0.0, (1.0, 1.0, 1.0)),
    (N, 0.7, (2.0, 1.0, 1.0)),
])
def test_box_order_matches_sorted_product(bc, mass, lengths):
    cutoff = 11.0
    params = FieldParams(mass=mass)
    lowest = 1 if bc is D else 0
    maxima = [int(math.floor(cutoff * length / math.pi)) for length in lengths]
    reference = []
    for index in itertools.product(*(range(lowest, n + 1) for n in maxima)):
        if not any(index) and mass == 0.0:
            continue
        square = 0.0  # summed in axis order, as a loop of one mode would
        for n, length in zip(index, lengths):
            k = math.pi * n / length
            square += k * k
        omega = math.sqrt(square + params.mass_term)
        if omega <= cutoff:
            reference.append((omega, index))
    reference.sort()
    basis = solve_box_modes(Box(*lengths), params, bc, cutoff)
    assert [index for _, index in reference] == [m.index for m in basis.modes]
    assert [omega for omega, _ in reference] == basis.frequencies.tolist()
