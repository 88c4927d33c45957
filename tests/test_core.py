"""Tests for field parameters and the zero-mode rule."""

import math

import pytest

from movingcavity import POSITIVITY_EPS, FieldParams, has_uniform_mode
from movingcavity.core import positivity_shift


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        FieldParams(mass=-1.0)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_rejected(mass):
    with pytest.raises(ValueError):
        FieldParams(mass=mass)


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
