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
        if not math.isfinite(float(self.mass) * float(self.mass)):
            raise ValueError(f"mass squared must be finite, got {self.mass}")

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


# 1/k! for k = 0 .. 16, and the 1-norm theta_16 up to which the degree-16
# Taylor polynomial is accurate to double precision: the largest theta
# whose remainder bound sum_{k > 16} theta^k/k! is at most 2^-53
_TAYLOR16 = tuple(1.0 / math.factorial(k) for k in range(17))
_THETA16 = 0.8246031916386087


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of the square matrix ``a``, or of each of a stack of them.

    Scaling and squaring on the degree-16 Taylor polynomial (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)): each matrix of ``a``,
    shape (..., n, n), is scaled by 2^-s so that its 1-norm is at most
    theta_16, where the truncation error is below 2^-53.  The polynomial
    is evaluated by Paterson-Stockmeyer, as
    B0 + A^4 (B1 + A^4 (B2 + A^4 (B3 + A^4/16!))) with each Bj cubic in
    A: A^2, A^3, A^4 and three Horner products, and no linear solve.  The
    result is squared s times.  s is chosen per matrix, so a matrix gives
    the same bits alone as in a stack.  Unlike an eigendecomposition it
    is exact on defective matrices.  Raises ``ValueError`` naming the
    stack index of the first matrix with a non-finite 1-norm.
    """
    a = np.asarray(a)
    shape = a.shape
    a = a.reshape(-1, *shape[-2:])
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    finite = np.isfinite(norm)
    if not finite.all():
        first = int(np.argmin(finite))
        index = tuple(int(i) for i in np.unravel_index(first, shape[:-2]))
        where = f" at stack index {index}" if index else ""
        raise ValueError(
            f"expm of a non-finite matrix{where}: 1-norm {norm[first]}"
        )
    squarings = np.ceil(np.log2(np.maximum(norm, _THETA16) / _THETA16))
    if squarings.any():
        a = a / (2.0**squarings)[:, None, None]
    b = _TAYLOR16
    diag = np.arange(shape[-1])
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2

    def cubic(j):
        """Bj = sum of A^i / (4j + i)! over i = 0 .. 3."""
        block = b[4 * j + 1] * a + b[4 * j + 2] * a2 + b[4 * j + 3] * a3
        block[:, diag, diag] += b[4 * j]
        return block

    result = b[16] * a4 + cubic(3)
    for j in (2, 1, 0):
        result = a4 @ result
        result += cubic(j)
    for i in range(int(squarings.max(initial=0))):
        more = squarings > i
        result[more] = result[more] @ result[more]
    return result.reshape(shape)
