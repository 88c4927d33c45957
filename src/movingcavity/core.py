"""Shared domain types: field parameters, boundary conditions, zero-mode rule.

The engine works in natural units (hbar = c = 1) on synchronous-gauge
metrics ds^2 = -dt^2 + h_ij(t) dx^i dx^j with diagonal, spatially constant
h_ij, whose slices are flat.  This module holds the field parameters, the
boundary-condition choice, the one rule that decides whether a Neumann
field keeps its uniform mode, the positivity shift of the slice operator
that follows from it, the checks that reject non-finite values and
non-positive sizes when an object is built, and the matrix exponential
shared by the integrators.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldParams",
    "has_uniform_mode",
    "positivity_shift",
    "require_finite",
    "require_positive",
    "BoundaryCondition",
    "POSITIVITY_EPS",
    "expm",
]

# Strictly positive shift used when xi*R^h + m^2 fails to be positive;
# must be negligible against any physical frequency scale.
POSITIVITY_EPS = 1e-12


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class FieldParams:
    """Rest mass and curvature coupling of the scalar field."""

    mass: float = 0.0
    coupling_xi: float = 0.0

    def __post_init__(self):
        require_finite("mass", self.mass)
        require_finite("coupling_xi", self.coupling_xi)
        if self.mass < 0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    @property
    def mass_term(self) -> float:
        """m^2 + xi R^h as evaluated in floating point.

        The shipped geometries are flat (spatially constant diagonal h), so
        the spatial scalar curvature R^h vanishes identically.
        """
        return self.coupling_xi * 0.0 + self.mass**2


def has_uniform_mode(params: FieldParams) -> bool:
    """Whether a Neumann field keeps its uniform (all-zero index) mode.

    This is the one zero-mode rule of the engine.  The uniform mode has
    frequency sqrt(m^2 + xi R^h); it is kept exactly when that term is
    positive in floating point.  Otherwise the field counts as massless:
    the mode has zero frequency, admits no positive-frequency
    quantisation and is dropped from every basis, and the slice operator
    takes the ``POSITIVITY_EPS`` shift.  "Massless" thus means m^2 + xi R^h
    is 0 in floating point, so a mass below about 1.5e-162 (whose square
    underflows to 0) counts as massless.
    """
    return params.mass_term > 0


def positivity_shift(params: FieldParams) -> float:
    """Constant F that keeps m^2 + xi R^h + F positive on every slice.

    Zero when the field has its uniform mode, else it lifts the mass term
    to ``POSITIVITY_EPS``.
    """
    if has_uniform_mode(params):
        return 0.0
    return -params.mass_term + POSITIVITY_EPS


def require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_finite(name: str, value: complex) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


# Pade-13 numerator coefficients, scaled so that the constant term is 1
# (then expm(0) is exactly the identity), and the 1-norm up to which the
# approximant is accurate to double precision (Higham 2005, table 2.3)
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
))
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of the square matrix ``a``, or of each of a stack of them.

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): each matrix of ``a``, shape
    (..., n, n), is scaled by 2^-s so that its 1-norm is at most
    theta_13, the approximant is solved from its odd and even parts, and
    the result is squared s times.  s is chosen per matrix, so a matrix
    gives the same bits alone as in a stack.  Unlike an
    eigendecomposition it is exact on defective matrices.
    """
    a = np.asarray(a)
    shape = a.shape
    a = a.reshape(-1, *shape[-2:])
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13))
    a = a / (2.0**squarings)[:, None, None]
    b = _PADE13
    eye = np.eye(shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    odd = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    even = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    result = np.linalg.solve(even - odd, even + odd)
    for i in range(int(squarings.max(initial=0))):
        more = squarings > i
        result[more] = result[more] @ result[more]
    return result.reshape(shape)
