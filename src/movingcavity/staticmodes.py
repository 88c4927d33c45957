"""Static eigenbases of the unperturbed cavity.

Closed-form orthonormalised eigenmodes for the 1D interval and the 3D
rectangular box centered at the origin, for Dirichlet or Neumann vanishing
boundary conditions.  Modes are normalised so that

    integral Psi_n Psi_m dV = delta_nm / (2 omega_n),

which is the convention the coupling and evolution modules rely on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import (
    BoundaryCondition,
    FieldParams,
    has_uniform_mode,
    require_positive,
)

__all__ = [
    "Interval",
    "Box",
    "StaticMode",
    "StaticBasis",
    "solve_interval_modes",
    "solve_box_modes",
    "eval_mode",
    "eval_mode_gradient",
    "orthonormality_residual",
    "gauss_legendre",
    "EmptyBasisError",
]


class EmptyBasisError(ValueError):
    """Raised when a truncation request captures no modes."""


@dataclass(frozen=True)
class Interval:
    """1D cavity [-L/2, L/2]."""

    length: float

    def __post_init__(self):
        require_positive("length", self.length)

    @property
    def lengths(self) -> Tuple[float, ...]:
        return (self.length,)


@dataclass(frozen=True)
class Box:
    """3D rectangular cavity [-Lx/2, Lx/2] x [-Ly/2, Ly/2] x [-Lz/2, Lz/2]."""

    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        for name in ("lx", "ly", "lz"):
            require_positive(name, getattr(self, name))

    @property
    def lengths(self) -> Tuple[float, ...]:
        return (self.lx, self.ly, self.lz)


@dataclass(frozen=True)
class StaticMode:
    """One closed-form eigenmode of the static cavity.

    ``parity`` holds 'sin' or 'cos' per axis; a 'cos' factor with zero
    wavenumber is the constant function 1.
    """

    index: Tuple[int, ...]
    wavenumbers: Tuple[float, ...]
    frequency: float
    normalization: float
    parity: Tuple[str, ...]
    lengths: Tuple[float, ...]


@dataclass(frozen=True)
class StaticBasis:
    geometry: object
    bc: BoundaryCondition
    params: FieldParams
    modes: Tuple[StaticMode, ...]

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([m.frequency for m in self.modes])


def _mode_norm(frequency: float, wavenumbers, lengths) -> float:
    # integral of the un-normalised product mode: L_i/2 per oscillatory
    # axis factor, L_i for a constant (k=0 Neumann) factor.
    prod = 1.0
    for k, length in zip(wavenumbers, lengths):
        prod *= length / 2.0 if k > 0 else length
    return 1.0 / math.sqrt(2.0 * frequency * prod)


def _make_mode(index, geometry, params, bc) -> StaticMode:
    lengths = geometry.lengths
    ks = tuple(math.pi * n / length for n, length in zip(index, lengths))
    omega = math.sqrt(sum(k * k for k in ks) + params.mass_term)
    parity = tuple(
        "sin" if bc is BoundaryCondition.DIRICHLET else "cos" for _ in index
    )
    return StaticMode(
        index=tuple(index),
        wavenumbers=ks,
        frequency=omega,
        normalization=_mode_norm(omega, ks, lengths),
        parity=parity,
        lengths=lengths,
    )


def solve_interval_modes(
    geometry: Interval,
    params: FieldParams,
    bc: BoundaryCondition,
    count: int,
) -> StaticBasis:
    """First ``count`` interval modes in ascending frequency.

    Dirichlet indices start at n = 1.  Neumann indices start at n = 0 for
    a massive field; the massless constant mode has zero frequency and is
    excluded.  "Massless" means m^2 + xi R^h is 0 in floating point, so a
    mass below about 1.5e-162 counts as massless (see
    ``has_uniform_mode``).
    """
    if count <= 0:
        raise ValueError(f"count must be >= 1, got {count}")
    if bc is BoundaryCondition.NEUMANN and has_uniform_mode(params):
        start = 0
    else:
        start = 1
    modes = tuple(
        _make_mode((n,), geometry, params, bc)
        for n in range(start, start + count)
    )
    return StaticBasis(geometry=geometry, bc=bc, params=params, modes=modes)


def solve_box_modes(
    geometry: Box,
    params: FieldParams,
    bc: BoundaryCondition,
    frequency_cutoff: float,
) -> StaticBasis:
    """All box modes with frequency <= cutoff, sorted by (frequency, index).

    Dirichlet quantum numbers are >= 1 per axis; Neumann numbers may be
    zero, except the all-zero index for a massless field, whose constant
    mode has zero frequency.  "Massless" means m^2 + xi R^h is 0 in
    floating point, so a mass below about 1.5e-162 counts as massless (see
    ``has_uniform_mode``).
    """
    lengths = geometry.lengths
    lowest = 1 if bc is BoundaryCondition.DIRICHLET else 0
    keep_uniform = has_uniform_mode(params)
    # Per-axis bound: k_n <= cutoff requires n <= cutoff * L / pi.
    maxima = [int(math.floor(frequency_cutoff * length / math.pi)) for length in lengths]
    candidates = []
    for index in itertools.product(*(range(lowest, nmax + 1) for nmax in maxima)):
        if not any(index) and not keep_uniform:
            continue
        mode = _make_mode(index, geometry, params, bc)
        if mode.frequency <= frequency_cutoff:
            candidates.append(mode)
    if not candidates:
        raise EmptyBasisError(
            f"frequency cutoff {frequency_cutoff} captures no modes"
        )
    candidates.sort(key=lambda m: (m.frequency, m.index))
    return StaticBasis(
        geometry=geometry, bc=bc, params=params, modes=tuple(candidates)
    )


def _axis_factor(parity: str, k: float, length: float, x):
    arg = k * (np.asarray(x, dtype=float) + length / 2.0)
    return np.sin(arg) if parity == "sin" else np.cos(arg)


def _axis_factor_deriv(parity: str, k: float, length: float, x):
    arg = k * (np.asarray(x, dtype=float) + length / 2.0)
    return k * np.cos(arg) if parity == "sin" else -k * np.sin(arg)


def eval_mode(mode: StaticMode, point) -> float:
    """Closed-form eigenfunction value at a point inside the cavity."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape[-1] != len(mode.lengths):
        raise ValueError("point dimension does not match the cavity")
    tol = 1e-12
    for x, length in zip(point, mode.lengths):
        if abs(x) > length / 2.0 + tol * length:
            raise ValueError(f"point {point} outside the cavity")
    value = mode.normalization
    for x, parity, k, length in zip(
        point, mode.parity, mode.wavenumbers, mode.lengths
    ):
        value *= _axis_factor(parity, k, length, x)
    return float(value)


def eval_mode_gradient(mode: StaticMode, point) -> np.ndarray:
    """Gradient of the eigenfunction at a point inside the cavity."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    dim = len(mode.lengths)
    factors = [
        _axis_factor(p, k, length, x)
        for x, p, k, length in zip(
            point, mode.parity, mode.wavenumbers, mode.lengths
        )
    ]
    derivs = [
        _axis_factor_deriv(p, k, length, x)
        for x, p, k, length in zip(
            point, mode.parity, mode.wavenumbers, mode.lengths
        )
    ]
    grad = np.empty(dim)
    for axis in range(dim):
        value = mode.normalization
        for j in range(dim):
            value *= derivs[j] if j == axis else factors[j]
        grad[axis] = value
    return grad


@functools.lru_cache(maxsize=32)
def _leggauss(npts: int):
    return np.polynomial.legendre.leggauss(npts)


def gauss_legendre(a: float, b: float, npts: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    nodes, weights = _leggauss(npts)
    half = 0.5 * (b - a)
    return half * nodes + 0.5 * (a + b), half * weights


def axis_value_table(basis: StaticBasis, axis: int, nodes) -> np.ndarray:
    """(n_modes, n_nodes) table of the axis factors of every mode."""
    return np.array(
        [
            _axis_factor(m.parity[axis], m.wavenumbers[axis], m.lengths[axis], nodes)
            for m in basis.modes
        ]
    )


def axis_deriv_table(basis: StaticBasis, axis: int, nodes) -> np.ndarray:
    """(n_modes, n_nodes) table of the axis-factor derivatives."""
    return np.array(
        [
            _axis_factor_deriv(
                m.parity[axis], m.wavenumbers[axis], m.lengths[axis], nodes
            )
            for m in basis.modes
        ]
    )


def overlap_matrix(basis: StaticBasis, quad_points: int = 64) -> np.ndarray:
    """Quadrature Gram matrix of mode products integral Psi_n Psi_m dV.

    Uses tensor-product Gauss-Legendre with ``quad_points`` nodes per axis,
    exploiting the separability of the closed-form modes.
    """
    lengths = basis.modes[0].lengths
    dim = len(lengths)
    gram = np.ones((len(basis), len(basis)))
    for axis in range(dim):
        nodes, weights = gauss_legendre(
            -lengths[axis] / 2.0, lengths[axis] / 2.0, quad_points
        )
        table = axis_value_table(basis, axis, nodes)
        gram *= (table * weights) @ table.T
    norms = np.array([m.normalization for m in basis.modes])
    return gram * np.outer(norms, norms)


def orthonormality_residual(basis: StaticBasis, quad_points: int = 64) -> float:
    """Max deviation of the Gram matrix from delta_nm/(2 omega_n).

    Each entry is compared on its natural scale, i.e. the residual is
    ``max |2 sqrt(omega_n omega_m) gram_nm - delta_nm|``, so the figure is
    meaningful even when the spectrum spans many orders of magnitude.
    """
    if len(basis) == 0:
        raise EmptyBasisError("basis has no modes")
    gram = overlap_matrix(basis, quad_points)
    roots = np.sqrt(basis.frequencies)
    scaled = 2.0 * np.outer(roots, roots) * gram
    return float(np.max(np.abs(scaled - np.eye(len(basis)))))
