"""Tests for field parameters, the zero-mode rule and the exponential."""

import math
from fractions import Fraction

import numpy as np
import pytest

from movingcavity import POSITIVITY_EPS, FieldParams, has_uniform_mode
from movingcavity.core import _THETA16, expm, positivity_shift
from movingcavity.exact1d import mode_transform_matrix


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        FieldParams(mass=-1.0)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_rejected(mass):
    with pytest.raises(ValueError):
        FieldParams(mass=mass)


@pytest.mark.parametrize("mass", [1e200, 1.4e154, np.float64(1e200)])
def test_mass_whose_square_overflows_rejected(mass):
    with pytest.raises(ValueError, match="mass squared must be finite"):
        FieldParams(mass=mass)
    assert FieldParams(mass=1.3e154).mass_term == 1.3e154**2


def test_non_finite_coupling_rejected():
    with pytest.raises(ValueError):
        FieldParams(coupling_xi=math.nan)


@pytest.mark.parametrize("mass, expected", [
    (0.0, False), (1e-170, False), (2.2e-313, False), (1e-161, True),
    (1.3, True),
])
def test_has_uniform_mode_tests_the_floating_point_mass_term(mass, expected):
    params = FieldParams(mass=mass)
    assert has_uniform_mode(params) is expected
    shift = positivity_shift(params)
    assert shift == (0.0 if expected else POSITIVITY_EPS)


def test_f_term_zero_for_massive_minimal_coupling():
    shift = positivity_shift(FieldParams(mass=0.5, coupling_xi=0.0))
    assert shift == 0.0


def test_f_term_positive_shift_for_massless_field():
    shift = positivity_shift(FieldParams(mass=0.0))
    assert shift == POSITIVITY_EPS
    assert shift > 0


def _anti_hermitian(norm, seed=24):
    """A 24 x 24 anti-Hermitian matrix of 1-norm ``norm`` and its exp."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    a = x - x.conj().T
    a *= norm / np.linalg.norm(a, 1)
    w, v = np.linalg.eigh(-1j * a)  # a = i H with H Hermitian
    return a, (v * np.exp(1j * w)) @ v.conj().T


@pytest.mark.parametrize("norm", [0.1, 1.0, 10.0, 100.0])
def test_expm_matches_eigendecomposition_on_anti_hermitian(norm):
    # norms above theta_16 = 0.82 take the scaling-and-squaring branch
    a, expected = _anti_hermitian(norm)
    assert np.max(np.abs(expm(a) - expected)) < 1e-13


def _taylor_remainder(theta):
    """sum_{k > 16} theta^k / k!, summed exactly to k = 80 (the terms past
    it are below 1e-100 for theta < 1)."""
    theta = Fraction(theta)
    remainder, term = Fraction(0), Fraction(1)
    for k in range(1, 81):
        term = term * theta / k
        if k > 16:
            remainder += term
    return remainder


def test_taylor_remainder_bound_at_theta_is_below_unit_roundoff():
    # the remainder bounds the truncation error of the degree-16 polynomial
    # on any matrix of 1-norm theta; theta is the largest norm where it is
    # at most 2^-53, to a part in 1e-9
    unit = Fraction(2) ** -53
    assert _taylor_remainder(_THETA16) < unit
    assert _taylor_remainder(_THETA16 * (1 + 1e-9)) > unit


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_expm_at_theta_matches_eigendecomposition(factor):
    # just below theta no squaring is taken, just above one
    for seed in (1, 2, 3):
        a, expected = _anti_hermitian(factor * _THETA16, seed)
        assert np.max(np.abs(expm(a) - expected)) < 2e-15


def test_expm_matches_taylor_series_on_non_normal():
    rng = np.random.default_rng(7)
    a = np.triu(rng.normal(size=(12, 12)), 1) + 0.2 * rng.normal(size=(12, 12))
    a *= 0.5 / np.linalg.norm(a, 1)
    assert np.max(np.abs(a @ a.T - a.T @ a)) > 1e-3
    expected, term = np.eye(12), np.eye(12)
    for k in range(1, 31):
        term = term @ a / k
        expected = expected + term
    assert np.max(np.abs(expm(a) - expected)) < 1e-14


@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_of_zero_is_identity(dtype):
    assert np.array_equal(expm(np.zeros((5, 5), dtype=dtype)), np.eye(5))


def test_expm_of_a_stack_matches_per_matrix_calls():
    # a zero matrix, 1-norm 0.5 (no squaring, below theta_16 = 0.82),
    # 1-norm 2 (two squarings: 2 / theta_16 = 2.4) and 1-norm 40 (six
    # squarings: 40 / theta_16 = 48.5)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 16, 16)) + 1j * rng.normal(size=(4, 16, 16))
    x[0] = 0.0
    for i, norm in ((1, 0.5), (2, 2.0), (3, 40.0)):
        x[i] *= norm / np.linalg.norm(x[i], 1)
    stack = expm(x)
    assert stack.shape == x.shape
    for a, exp_a in zip(x, stack):
        assert np.array_equal(exp_a, expm(a))
    assert np.array_equal(stack[0], np.eye(16))


def test_expm_of_a_real_stack_is_real_and_matches_the_complex_route():
    # the exact path exponentiates real Magnus exponents and moves only the
    # product to the frequency modes: M exp(A) M* = exp(M A M*), M unitary
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 16, 16))
    x = x - np.swapaxes(x, -1, -2) + 0.1 * x  # near-orthogonal exponentials
    x[0] = 0.0
    for i, norm in ((1, 0.3), (2, 2.0), (3, 40.0)):
        x[i] *= norm / np.linalg.norm(x[i], 1)
    stack = expm(x)
    assert stack.dtype == np.float64
    m = mode_transform_matrix(8)
    for a, exp_a in zip(x, stack):
        assert np.array_equal(exp_a, expm(a))
        complex_route = expm(m @ a @ m.conj().T)
        assert np.max(np.abs(m @ exp_a @ m.conj().T - complex_route)) < 1e-14


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_expm_of_a_non_finite_matrix_raises(value):
    a = np.eye(4)
    a[1, 2] = value
    message = r"non-finite matrix: 1-norm (nan|inf)"
    with pytest.raises(ValueError, match=message):
        expm(a)


def test_expm_names_the_first_non_finite_matrix_of_a_stack():
    x = np.zeros((2, 3, 5, 5))
    x[1, 2, 0, 4] = math.nan
    x[1, 1, 3, 3] = -math.inf  # the first bad matrix in stack order
    message = r"at stack index \(1, 1\): 1-norm inf"
    with pytest.raises(ValueError, match=message):
        expm(x)
