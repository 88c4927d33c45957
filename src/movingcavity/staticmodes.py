"""Static eigenbases of the unperturbed cavity.

Closed-form orthonormalised eigenmodes for the 1D interval and the 3D
rectangular box centered at the origin, for Dirichlet or Neumann vanishing
boundary conditions.  Modes are normalised so that

    integral Psi_n Psi_m dV = delta_nm / (2 omega_n),

which is the convention the coupling and evolution modules rely on.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Tuple

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
    "orthonormality_residual",
    "gauss_legendre",
    "EmptyBasisError",
]


class EmptyBasisError(ValueError):
    """Raised when a truncation request captures no modes."""


MAX_BOX_MODES = 1 << 20  # the most modes ``solve_box_modes`` enumerates


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
    """The numbers of one static mode, row ``i`` of a ``StaticBasis``.

    A view for reading a mode's quantum numbers and frequency as Python
    numbers; ``axis_factors`` evaluates modes on the basis arrays.
    """

    index: Tuple[int, ...]
    wavenumbers: Tuple[float, ...]
    frequency: float
    normalization: float


@dataclass(frozen=True, eq=False)
class StaticBasis:
    """Closed-form eigenmodes of the static cavity, by (frequency, index).

    Mode i has the quantum numbers ``index[i]`` and wavenumbers
    ``wavenumbers[i]``, one per axis, both (N, d), and the frequency
    ``frequencies[i]`` and normalization ``normalization[i]``, both (N,).
    The constructor marks the four arrays read-only.  ``modes`` presents
    the same numbers as ``StaticMode`` objects, built on first access.
    A basis compares and hashes by identity, as arrays have no truth value.
    """

    geometry: object
    bc: BoundaryCondition
    params: FieldParams
    index: np.ndarray
    wavenumbers: np.ndarray
    frequencies: np.ndarray
    normalization: np.ndarray

    def __post_init__(self):
        for array in self._arrays():
            array.flags.writeable = False

    def _arrays(self):
        return self.index, self.wavenumbers, self.frequencies, self.normalization

    def __len__(self) -> int:
        return len(self.frequencies)

    def take(self, rows) -> "StaticBasis":
        """The basis of the modes ``rows`` of this one, in that order."""
        return StaticBasis(
            self.geometry, self.bc, self.params,
            *(array[rows] for array in self._arrays()),
        )

    @functools.cached_property
    def modes(self) -> Tuple[StaticMode, ...]:
        return tuple(
            StaticMode(tuple(n), tuple(k), omega, norm)
            for n, k, omega, norm in zip(
                *(array.tolist() for array in self._arrays())
            )
        )


def _factor_squares(k, length):
    """Integral of each squared axis factor: L/2, or L for a constant one."""
    return np.where(k > 0, length / 2.0, length)


def _build_basis(geometry, params, bc, index, cutoff=math.inf) -> StaticBasis:
    """The modes of quantum numbers ``index`` (N, d) with frequency <= cutoff.

    Each mode takes the floating-point operations of a mode built alone,
    in the same order, so its numbers do not depend on the other modes.
    A geometry where some mode's sum of squared wavenumbers is not finite,
    or is below the smallest normal float for a nonzero index, raises
    ``ValueError`` naming the geometry's fields, and so does one where
    that sum plus the squared mass overflows, naming the mass too.
    """
    lengths = geometry.lengths
    wavenumbers = math.pi * index / np.array(lengths)
    square = 0.0
    with np.errstate(over="ignore"):  # an overflow is reported below
        for k in wavenumbers.T:
            square = square + k * k
        energy = square + params.mass_term
    tiny = sys.float_info.min  # the smallest normal float
    # one pass for the common case: every sum normal and m^2 + sum finite
    if len(index) and not (square.min() >= tiny and energy.max() < math.inf):
        bad = ~np.isfinite(square) | ((square < tiny) & index.any(axis=1))
        owner, what, values = repr(geometry), "squared wavenumber sum", square
        if not bad.any():  # every sum is fine, but not every sum plus m^2
            bad, what, values = ~np.isfinite(energy), "squared frequency", energy
            owner += f" with mass {params.mass!r}"
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"{owner} puts the {what} of mode "
                f"{tuple(index[i].tolist())} outside the float range: "
                f"{float(values[i])!r}"
            )
    frequencies = np.sqrt(energy)
    # integral of the un-normalised product mode squared
    prod = 1.0
    for k, length in zip(wavenumbers.T, lengths):
        prod = prod * _factor_squares(k, length)
    normalization = 1.0 / np.sqrt(2.0 * frequencies * prod)
    keep = np.flatnonzero(frequencies <= cutoff)
    order = np.lexsort((*index[keep].T[::-1], frequencies[keep]))
    return StaticBasis(
        geometry, bc, params, index, wavenumbers, frequencies, normalization
    ).take(keep[order])


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
    index = np.arange(start, start + count)[:, None]
    return _build_basis(geometry, params, bc, index)


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
    ``has_uniform_mode``).  Axis by axis, an index takes each k = pi n / L
    that leaves room for the least k^2 of the later axes within
    cutoff^2 (1 + 1e-9), so no partial index is a dead end, and
    ``_build_basis`` then tests each mode exactly.  More than
    ``MAX_BOX_MODES`` indices raise ``ValueError`` before any is made.
    """
    lowest = 1 if bc is BoundaryCondition.DIRICHLET else 0
    steps = [math.pi * lowest / length for length in geometry.lengths]
    least = [k * k for k in steps]  # an overflow is inf, not an error
    budget = np.array([frequency_cutoff * frequency_cutoff * (1 + 1e-9)])
    index = np.zeros((1, 0), dtype=np.int64)
    for axis, length in enumerate(geometry.lengths):
        room = budget - sum(least[axis + 1 :])
        top = np.floor(np.sqrt(np.maximum(room, 0.0)) * (length / math.pi))
        counts = np.where(room >= 0.0, np.maximum(top - lowest + 1, 0.0), 0.0)
        if not counts.sum() <= MAX_BOX_MODES:
            raise ValueError(
                f"{geometry!r} with frequency cutoff {frequency_cutoff!r} "
                f"holds more than {MAX_BOX_MODES} modes"
            )
        rows = np.repeat(np.arange(len(index)), counts.astype(np.int64))
        numbers = lowest + np.arange(len(rows)) - np.searchsorted(rows, rows)
        index = np.column_stack([index[rows], numbers])
        budget = budget[rows] - (math.pi * numbers / length) ** 2
    if not has_uniform_mode(params):
        index = index[index.any(axis=1)]
    basis = _build_basis(geometry, params, bc, index, frequency_cutoff)
    if not len(basis):
        raise EmptyBasisError(
            f"frequency cutoff {frequency_cutoff} captures no modes"
        )
    return basis


def axis_factors(dirichlet: bool, wavenumbers, lengths, x):
    """Values and x-derivatives of separable axis factors at ``x``.

    The factor of wavenumber k on an axis of length L is sin(k (x + L/2))
    between Dirichlet walls and cos(k (x + L/2)) between Neumann walls; a
    Neumann factor with k = 0 is the constant 1.  The arguments broadcast
    against each other.  A mode is its normalization times the product
    of its axis factors; this is the one evaluator of static modes.
    """
    k = np.asarray(wavenumbers, dtype=float)
    arg = k * (np.asarray(x, dtype=float) + np.asarray(lengths) / 2.0)
    if dirichlet:
        return np.sin(arg), k * np.cos(arg)
    return np.cos(arg), -k * np.sin(arg)


def axis_integrals(basis: StaticBasis):
    """Closed-form integrals of the axis factors of every mode pair.

    One tuple per axis, for quantum numbers n, m and wavenumber k = n pi/L:
      gram        (N, N) integral of the product of two modes' factors,
                  delta_nm L/2, or delta_nm L for a constant factor
      deriv_gram  (N, N) the same for the x-derivatives, delta_nm k^2 L/2
      ends        (N, 2) the factors at the walls -L/2 and L/2: 0 between
                  Dirichlet walls, (1, (-1)^n) between Neumann walls
      end_derivs  (N, 2) their x-derivatives there: k (1, (-1)^n) between
                  Dirichlet walls, 0 between Neumann walls
    An entry depends on the two modes alone, and the modes sharing an
    axis's quantum number share its rows bit for bit.
    """
    axes = []
    for n, k, length in zip(basis.index.T, basis.wavenumbers.T,
                            basis.geometry.lengths):
        same = n[:, None] == n[None, :]
        gram = np.where(same, _factor_squares(k, length)[:, None], 0.0)
        deriv_gram = np.where(same, (k * k * (length / 2.0))[:, None], 0.0)
        walls = np.stack([np.ones(len(n)), np.where(n % 2, -1.0, 1.0)], -1)
        zeros = np.zeros_like(walls)
        if basis.bc is BoundaryCondition.DIRICHLET:
            axes.append((gram, deriv_gram, zeros, k[:, None] * walls))
        else:
            axes.append((gram, deriv_gram, walls, zeros))
    return axes


@functools.lru_cache(maxsize=32)
def _leggauss(npts: int):
    return np.polynomial.legendre.leggauss(npts)


def gauss_legendre(a: float, b: float, npts: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    nodes, weights = _leggauss(npts)
    half = 0.5 * (b - a)
    return half * nodes + 0.5 * (a + b), half * weights


def band_limited_points(n: int) -> int:
    """Gauss-Legendre points for products of factors up to quantum number n.

    A factor of quantum number n has wavenumber n pi/L, and Gauss-Legendre
    reaches round-off on such band-limited analytic integrands with a few
    points per band (Trefethen, SIAM Rev. 50, 67 (2008)).  4n + 16 keeps
    the axis Grams of Dirichlet and Neumann factors within 3.2e-14 of L/2
    from their closed form for L in {1, pi, 5} and n from 3 to 48.
    ``quadrature_tables``, the numerical Gram check, is its one user.
    """
    return 4 * int(n) + 16


def quadrature_tables(basis: StaticBasis):
    """Gauss-Legendre volume overlaps of every mode pair.

    ``overlap[n, m]`` is the integral of Psi_n Psi_m over the cavity, the
    product of per-axis Grams integrated with ``band_limited_points`` of
    the axis's largest quantum number: a numerical check that does not
    rest on the closed forms of ``axis_integrals``.
    """
    dirichlet = basis.bc is BoundaryCondition.DIRICHLET
    overlap = 1.0
    for n, k, length in zip(basis.index.T, basis.wavenumbers.T,
                            basis.geometry.lengths):
        half = length / 2.0
        nodes, weights = gauss_legendre(
            -half, half, band_limited_points(n.max())
        )
        vals, _ = axis_factors(dirichlet, k[:, None], length, nodes)
        overlap = overlap * ((vals * weights) @ vals.T)
    norms = basis.normalization
    return overlap * norms[:, None] * norms[None, :]


def orthonormality_residual(basis: StaticBasis) -> float:
    """Max deviation of the Gram matrix from delta_nm/(2 omega_n).

    The Gram is integrated numerically (``quadrature_tables``), so this
    checks the normalization independently of its closed form.  Each
    entry is compared on its natural scale, i.e. the residual is
    ``max |2 sqrt(omega_n omega_m) gram_nm - delta_nm|``, so the figure is
    meaningful even when the spectrum spans many orders of magnitude.
    """
    if len(basis) == 0:
        raise EmptyBasisError("basis has no modes")
    overlap = quadrature_tables(basis)
    roots = np.sqrt(basis.frequencies)
    scaled = 2.0 * np.outer(roots, roots) * overlap
    return float(np.max(np.abs(scaled - np.eye(len(basis)))))
