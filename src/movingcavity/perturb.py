"""First-order mode couplings and perturbative Bogoliubov coefficients.

Given a static eigenbasis and a small harmonic perturbation of the cavity
(boundary displacements, second-derivative operator terms, and metric trace
scalars), this module builds the first-order coupling matrices as harmonic
decompositions in time, locates resonances of the drive with the spectrum,
and evaluates the first-order Bogoliubov coefficients either over a finite
window (closed-form integrals) or asymptotically with an integrable
envelope (closed-form Fourier transforms).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import BoundaryCondition, require_positive
from .staticmodes import (
    StaticBasis,
    axis_deriv_table,
    axis_value_table,
    gauss_legendre,
)

__all__ = [
    "HarmonicTerm",
    "HarmonicSum",
    "PerturbationSpec",
    "CouplingMatrices",
    "BogoliubovMatrix",
    "Resonance",
    "ResonanceKind",
    "GaussianEnvelope",
    "RaisedCosineEnvelope",
    "UnsupportedSpecError",
    "ValidityWindowWarning",
    "coupling_alpha",
    "coupling_beta",
    "build_coupling_matrices",
    "find_resonances",
    "bogoliubov_perturbative",
    "bogoliubov_asymptotic",
]

_MERGE_TOL = 1e-15


class UnsupportedSpecError(ValueError):
    """Raised for perturbation inputs outside the supported families."""


class ValidityWindowWarning(UserWarning):
    """Emitted when a window falls outside the first-order validity range."""


@dataclass(frozen=True)
class HarmonicTerm:
    """One term amplitude * sin(frequency t) or amplitude * cos(frequency t)."""

    amplitude: complex
    frequency: float
    form: str  # "sin" or "cos"

    def __post_init__(self):
        if self.form not in ("sin", "cos"):
            raise ValueError(f"form must be 'sin' or 'cos', got {self.form}")
        if self.frequency < 0:
            raise ValueError("harmonic frequencies must be nonnegative")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        wave = np.sin(self.frequency * t) if self.form == "sin" else np.cos(
            self.frequency * t
        )
        return self.amplitude * wave


class HarmonicSum:
    """Finite sum of sin/cos harmonics with complex amplitudes.

    Canonicalised on construction: zero-frequency sine terms vanish,
    duplicate (frequency, form) pairs merge, exact-zero amplitudes drop.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[HarmonicTerm] = ()):
        merged = {}
        for term in terms:
            if not isinstance(term, HarmonicTerm):
                term = HarmonicTerm(*term)
            if term.form == "sin" and term.frequency == 0.0:
                continue
            key = (term.frequency, term.form)
            merged[key] = merged.get(key, 0.0) + complex(term.amplitude)
        self.terms = tuple(
            HarmonicTerm(amp, freq, form)
            for (freq, form), amp in sorted(merged.items())
            if amp != 0
        )

    @staticmethod
    def zero() -> "HarmonicSum":
        return HarmonicSum()

    @staticmethod
    def single(amplitude, frequency: float, form: str = "sin") -> "HarmonicSum":
        return HarmonicSum([HarmonicTerm(complex(amplitude), frequency, form)])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t, dtype=complex)
        for term in self.terms:
            total = total + term(t)
        return complex(total) if total.ndim == 0 else total

    def __add__(self, other: "HarmonicSum") -> "HarmonicSum":
        return HarmonicSum(self.terms + other.terms)

    def __mul__(self, factor) -> "HarmonicSum":
        return HarmonicSum(
            [
                HarmonicTerm(term.amplitude * factor, term.frequency, term.form)
                for term in self.terms
            ]
        )

    __rmul__ = __mul__

    def __neg__(self) -> "HarmonicSum":
        return self * (-1.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(term.amplitude) <= tol for term in self.terms)

    def amplitude_at(self, frequency: float, form: str = "sin") -> complex:
        for term in self.terms:
            if term.form == form and math.isclose(
                term.frequency, frequency, rel_tol=1e-12, abs_tol=1e-12
            ):
                return term.amplitude
        return 0.0 + 0.0j

    def __repr__(self):
        body = " + ".join(
            f"({t.amplitude}) {t.form}({t.frequency} t)" for t in self.terms
        )
        return f"HarmonicSum[{body or '0'}]"


FaceKey = Tuple[int, int]  # (axis, -1 or +1): one flat boundary face


@dataclass(frozen=True)
class PerturbationSpec:
    """Harmonic description of a small perturbation of the cavity.

    epsilon         perturbation amplitude, positive and finite
    delta_o_coeffs  per-axis harmonic coefficients c_i(t) of the extra
                    second-derivative operator sum_i c_i(t) d^2/dx_i^2
    delta_r         harmonic first-order metric trace (dimensionless)
    delta_r_bar     harmonic first-order curvature scalar (1/time^2)
    delta_x         outward boundary displacement harmonics per face,
                    keyed by (axis, sign)
    base_frequency  drive frequency when the perturbation is monochromatic
    delta_f         time-dependent positivity shift; must stay zero, since
                    it never contributes at first order
    """

    epsilon: float
    delta_o_coeffs: Tuple[HarmonicSum, ...] = ()
    delta_r: HarmonicSum = field(default_factory=HarmonicSum.zero)
    delta_r_bar: HarmonicSum = field(default_factory=HarmonicSum.zero)
    delta_x: Mapping[FaceKey, HarmonicSum] = field(default_factory=dict)
    base_frequency: Optional[float] = None
    delta_f: HarmonicSum = field(default_factory=HarmonicSum.zero)

    def __post_init__(self):
        require_positive("epsilon", self.epsilon)
        if not self.delta_f.is_zero():
            raise UnsupportedSpecError(
                "a time-dependent positivity shift never contributes at "
                "first order and is not supported; leave delta_f zero"
            )

    def __add__(self, other: "PerturbationSpec") -> "PerturbationSpec":
        if self.epsilon != other.epsilon:
            raise ValueError("can only combine specs with equal epsilon")
        na, nb = len(self.delta_o_coeffs), len(other.delta_o_coeffs)
        zeros = lambda: HarmonicSum.zero()
        coeffs = tuple(
            (self.delta_o_coeffs[i] if i < na else zeros())
            + (other.delta_o_coeffs[i] if i < nb else zeros())
            for i in range(max(na, nb))
        )
        faces = dict(self.delta_x)
        for key, hs in other.delta_x.items():
            faces[key] = faces.get(key, zeros()) + hs
        freq = self.base_frequency
        if freq is None or (
            other.base_frequency is not None and other.base_frequency != freq
        ):
            freq = None if other.base_frequency != freq else freq
        return PerturbationSpec(
            epsilon=self.epsilon,
            delta_o_coeffs=coeffs,
            delta_r=self.delta_r + other.delta_r,
            delta_r_bar=self.delta_r_bar + other.delta_r_bar,
            delta_x=faces,
            base_frequency=freq,
        )


class ResonanceKind(enum.Enum):
    MODE_MIXING = "mode-mixing"
    PAIR_CREATION = "pair-creation"


@dataclass(frozen=True)
class Resonance:
    n: int
    m: int
    kind: ResonanceKind
    detuning: float


@dataclass(frozen=True)
class CouplingMatrices:
    """First-order coupling harmonics for every mode pair of a basis."""

    alpha_hat: np.ndarray  # (N, N) object array of HarmonicSum
    beta_hat: np.ndarray  # (N, N) object array of HarmonicSum
    basis: StaticBasis
    drive_frequency: Optional[float] = None


@dataclass(frozen=True)
class BogoliubovMatrix:
    """First-order Bogoliubov coefficients over a window or asymptotically."""

    alpha: np.ndarray
    beta: np.ndarray
    epsilon_used: float
    window: Optional[Tuple[float, float]]  # None means asymptotic


# ---------------------------------------------------------------------------
# quadrature tables, cached per (basis, points)


@functools.lru_cache(maxsize=32)
def _axis_tables(basis: StaticBasis, quad_points: int):
    """Per-axis Gram matrices and endpoint tables for all modes of a basis.

    Returns (value_gram, deriv_gram, end_values, end_derivs) where the
    first two are lists of (N, N) arrays per axis and the last two are
    lists of (N, 2) arrays per axis (columns: left face, right face).
    """
    lengths = basis.modes[0].lengths
    dim = len(lengths)
    value_gram, deriv_gram, end_values, end_derivs = [], [], [], []
    for axis in range(dim):
        half = lengths[axis] / 2.0
        nodes, weights = gauss_legendre(-half, half, quad_points)
        vals = axis_value_table(basis, axis, nodes)
        ders = axis_deriv_table(basis, axis, nodes)
        value_gram.append((vals * weights) @ vals.T)
        deriv_gram.append((ders * weights) @ ders.T)
        ends = np.array([-half, half])
        end_values.append(axis_value_table(basis, axis, ends))
        end_derivs.append(axis_deriv_table(basis, axis, ends))
    return value_gram, deriv_gram, end_values, end_derivs


def _norms(basis: StaticBasis) -> np.ndarray:
    return np.array([m.normalization for m in basis.modes])


def _volume_overlap(basis, n, m, quad_points) -> float:
    value_gram, _, _, _ = _axis_tables(basis, quad_points)
    prod = 1.0
    for gram in value_gram:
        prod *= gram[n, m]
    norms = _norms(basis)
    return prod * norms[n] * norms[m]


def _face_integrals(basis, n, m, face: FaceKey, quad_points):
    """Surface integrals over one face for the pair (n, m).

    Returns (value, grad_dot, normal_grad):
      value        integral of Psi_n Psi_m over the face
      grad_dot     integral of grad(Psi_n) . grad(Psi_m) over the face
      normal_grad  integral of (n.grad Psi_n)(n.grad Psi_m) over the face
    """
    value_gram, deriv_gram, end_values, end_derivs = _axis_tables(
        basis, quad_points
    )
    axis, sign = face
    dim = len(basis.modes[0].lengths)
    col = 0 if sign < 0 else 1
    norms = _norms(basis)
    scale = norms[n] * norms[m]

    tangential = 1.0
    for j in range(dim):
        if j != axis:
            tangential *= value_gram[j][n, m]

    fn = end_values[axis][n, col] * end_values[axis][m, col]
    dn = end_derivs[axis][n, col] * end_derivs[axis][m, col]

    value = scale * fn * tangential
    normal_grad = scale * dn * tangential

    grad_dot = dn * tangential
    for j in range(dim):
        if j == axis:
            continue
        prod = fn * deriv_gram[j][n, m]
        for k in range(dim):
            if k != axis and k != j:
                prod *= value_gram[k][n, m]
        grad_dot += prod
    grad_dot *= scale
    return value, grad_dot, normal_grad


# ---------------------------------------------------------------------------
# couplings


def _check_indices(basis, *indices):
    for i in indices:
        if not 0 <= i < len(basis):
            raise IndexError(f"mode index {i} outside basis of size {len(basis)}")


def _bulk_harmonics(spec, basis, n, m, sign, quad_points) -> HarmonicSum:
    """Volume-integral harmonics of [bulk operator Psi_n] Psi_m."""
    mode_n = basis.modes[n]
    omega_n = mode_n.frequency
    omega_m = basis.modes[m].frequency
    xi = basis.params.coupling_xi
    overlap = _volume_overlap(basis, n, m, quad_points)

    total = HarmonicSum.zero()
    for i, coeff in enumerate(spec.delta_o_coeffs):
        total = total + coeff * (-mode_n.wavenumbers[i] ** 2 * overlap)
    total = total + spec.delta_r * (
        omega_n * (omega_n + sign * omega_m) * overlap
    )
    return total + spec.delta_r_bar * (xi * overlap)


def _surface_harmonics(
    spec, basis, n, m, bc, branch, resonant, quad_points
) -> HarmonicSum:
    """Surface-integral harmonics multiplying the displacement of each face.

    ``branch`` is -1 for the alpha coupling and +1 for the beta coupling:
    it fixes the sign of the omega_n omega_m product in the bracket and
    which resonance substitution applies to it.
    """
    omega_n = basis.modes[n].frequency
    omega_m = basis.modes[m].frequency
    mass = basis.params.mass
    total = HarmonicSum.zero()
    for face, harmonics in spec.delta_x.items():
        if harmonics.is_zero():
            continue
        value, grad_dot, normal_grad = _face_integrals(
            basis, n, m, face, quad_points
        )
        if bc is BoundaryCondition.DIRICHLET:
            total = total + harmonics * normal_grad
            continue
        for term in harmonics.terms:
            if resonant:
                # Resonance-targeted amplitude extraction: the product of
                # mode frequencies is remapped so that the pair oscillates
                # at the harmonic's own frequency.
                if branch < 0:
                    prod = 0.5 * (
                        omega_n**2 + omega_m**2 - term.frequency**2
                    )
                else:
                    prod = 0.5 * (
                        term.frequency**2 - omega_n**2 - omega_m**2
                    )
            else:
                prod = omega_n * omega_m
            bracket = grad_dot + (mass**2 + branch * prod) * value
            total = total + HarmonicSum.single(
                term.amplitude * bracket, term.frequency, term.form
            )
    return total


def coupling_alpha(
    spec: PerturbationSpec,
    basis: StaticBasis,
    n: int,
    m: int,
    bc: BoundaryCondition,
    resonant: bool = False,
    quad_points: int = 64,
) -> HarmonicSum:
    """Harmonic decomposition of the first-order mode-mixing coupling.

    Volume part by separable Gauss-Legendre quadrature; surface part by
    per-face quadrature with the boundary-condition-specific bracket.
    With ``resonant=True`` each displacement harmonic is remapped to its
    own resonance target before the bracket is formed.
    """
    _check_indices(basis, n, m)
    bulk = _bulk_harmonics(spec, basis, n, m, -1, quad_points)
    surface = _surface_harmonics(spec, basis, n, m, bc, -1, resonant, quad_points)
    if bc is BoundaryCondition.DIRICHLET:
        return bulk * 1j + surface * (-1j)
    return bulk * 1j + surface * 1j


def coupling_beta(
    spec: PerturbationSpec,
    basis: StaticBasis,
    n: int,
    m: int,
    bc: BoundaryCondition,
    resonant: bool = False,
    quad_points: int = 64,
) -> HarmonicSum:
    """Harmonic decomposition of the first-order pair-creation coupling."""
    _check_indices(basis, n, m)
    bulk = _bulk_harmonics(spec, basis, n, m, +1, quad_points)
    surface = _surface_harmonics(spec, basis, n, m, bc, +1, resonant, quad_points)
    if bc is BoundaryCondition.DIRICHLET:
        return bulk * (-1j) + surface * 1j
    return bulk * (-1j) + surface * (-1j)


def build_coupling_matrices(
    spec: PerturbationSpec,
    basis: StaticBasis,
    bc: BoundaryCondition,
    resonant: bool = False,
    quad_points: int = 64,
) -> CouplingMatrices:
    """Coupling harmonics for every pair of modes in the basis."""
    size = len(basis)
    alpha_hat = np.empty((size, size), dtype=object)
    beta_hat = np.empty((size, size), dtype=object)
    for n in range(size):
        for m in range(size):
            alpha_hat[n, m] = coupling_alpha(
                spec, basis, n, m, bc, resonant, quad_points
            )
            beta_hat[n, m] = coupling_beta(
                spec, basis, n, m, bc, resonant, quad_points
            )
    return CouplingMatrices(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        basis=basis,
        drive_frequency=spec.base_frequency,
    )


# ---------------------------------------------------------------------------
# resonances


def find_resonances(
    basis: StaticBasis, omega_p: float, tolerance: float
) -> Tuple[Resonance, ...]:
    """Mode pairs whose frequency sum or difference matches the drive.

    Pair creation: omega_n + omega_m close to omega_p.  Mode mixing:
    omega_n - omega_m close to omega_p (ordered pairs, positive detuning
    base).  Returns every hit with its signed detuning.
    """
    if omega_p <= 0:
        raise ValueError(f"drive frequency must be positive, got {omega_p}")
    freqs = basis.frequencies
    hits = []
    for n in range(len(freqs)):
        for m in range(len(freqs)):
            diff = freqs[n] - freqs[m] - omega_p
            if abs(diff) <= tolerance:
                hits.append(
                    Resonance(n, m, ResonanceKind.MODE_MIXING, float(diff))
                )
            total = freqs[n] + freqs[m] - omega_p
            if abs(total) <= tolerance:
                hits.append(
                    Resonance(n, m, ResonanceKind.PAIR_CREATION, float(total))
                )
    return tuple(hits)


# ---------------------------------------------------------------------------
# closed-form window integrals


def _phase_integral(mu: float, t0: float, tf: float) -> complex:
    """Integral of exp(i mu t) over [t0, tf], stable at mu -> 0."""
    if abs(mu) * max(abs(t0), abs(tf)) < 1e-12:
        return complex(tf - t0)
    return (cmath.exp(1j * mu * tf) - cmath.exp(1j * mu * t0)) / (1j * mu)


def _windowed_integral(
    harmonics: HarmonicSum, detuning: float, t0: float, tf: float
) -> complex:
    """Integral of exp(-i detuning t) * harmonics(t) over [t0, tf]."""
    total = 0.0 + 0.0j
    for term in harmonics.terms:
        plus = _phase_integral(term.frequency - detuning, t0, tf)
        minus = _phase_integral(-term.frequency - detuning, t0, tf)
        if term.form == "sin":
            total += term.amplitude * (plus - minus) / 2j
        else:
            total += term.amplitude * (plus + minus) / 2.0
    return total


def _check_validity_window(drive_frequency, epsilon, t0, tf):
    if drive_frequency is None or drive_frequency <= 0:
        return
    duration = tf - t0
    low = 5.0 / drive_frequency
    high = 0.1 / (epsilon * drive_frequency)
    if duration < low or duration > high:
        warnings.warn(
            f"window length {duration:.4g} outside the heuristic first-order "
            f"validity range [{low:.4g}, {high:.4g}] for drive frequency "
            f"{drive_frequency:.4g} and epsilon {epsilon:.4g}",
            ValidityWindowWarning,
            stacklevel=3,
        )


def bogoliubov_perturbative(
    couplings: CouplingMatrices,
    basis: StaticBasis,
    epsilon: float,
    t0: float,
    tf: float,
) -> BogoliubovMatrix:
    """First-order Bogoliubov coefficients over a finite window.

    Off-diagonal alpha and all beta entries are exact closed-form integrals
    of the coupling harmonics against the pair phase factor; the alpha
    diagonal is set to one.  A warning (never an error) flags windows
    outside the heuristic first-order validity range.
    """
    if tf <= t0:
        raise ValueError("window must satisfy t0 < tf")
    _check_validity_window(couplings.drive_frequency, epsilon, t0, tf)
    freqs = basis.frequencies
    size = len(basis)
    alpha = np.eye(size, dtype=complex)
    beta = np.zeros((size, size), dtype=complex)
    for n in range(size):
        for m in range(size):
            if n != m:
                alpha[n, m] = epsilon * _windowed_integral(
                    couplings.alpha_hat[n, m], freqs[n] - freqs[m], t0, tf
                )
            beta[n, m] = epsilon * _windowed_integral(
                couplings.beta_hat[n, m], freqs[n] + freqs[m], t0, tf
            )
    return BogoliubovMatrix(
        alpha=alpha, beta=beta, epsilon_used=epsilon, window=(t0, tf)
    )


# ---------------------------------------------------------------------------
# asymptotic coefficients with integrable envelopes


@dataclass(frozen=True)
class GaussianEnvelope:
    """Envelope exp(-t^2 / (2 sigma^2)) with closed-form transform."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, t):
        return np.exp(-np.asarray(t, dtype=float) ** 2 / (2.0 * self.sigma**2))

    def transform(self, mu: float) -> float:
        """Integral of envelope(t) exp(i mu t) over the real line."""
        return self.sigma * math.sqrt(2.0 * math.pi) * math.exp(
            -0.5 * (self.sigma * mu) ** 2
        )


@dataclass(frozen=True)
class RaisedCosineEnvelope:
    """Envelope cos^2(pi t / duration) on [-duration/2, duration/2]."""

    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= self.duration / 2.0
        return np.where(inside, np.cos(np.pi * t / self.duration) ** 2, 0.0)

    def transform(self, mu: float) -> float:
        """Integral of envelope(t) exp(i mu t) over the real line."""
        T = self.duration

        def box(u):
            # integral of exp(i u t) over [-T/2, T/2]
            if abs(u) < 1e-14:
                return T
            return 2.0 * math.sin(u * T / 2.0) / u

        w = 2.0 * math.pi / T
        return 0.5 * box(mu) + 0.25 * (box(mu + w) + box(mu - w))


def _asymptotic_integral(harmonics, detuning, envelope) -> complex:
    """Integral of exp(-i detuning t) harmonics(t) envelope(t) over the line."""
    total = 0.0 + 0.0j
    for term in harmonics.terms:
        plus = envelope.transform(term.frequency - detuning)
        minus = envelope.transform(-term.frequency - detuning)
        if term.form == "sin":
            total += term.amplitude * (plus - minus) / 2j
        else:
            total += term.amplitude * (plus + minus) / 2.0
    return total


def bogoliubov_asymptotic(
    couplings: CouplingMatrices,
    basis: StaticBasis,
    epsilon: float,
    envelope,
) -> BogoliubovMatrix:
    """Asymptotic coefficients for a perturbation switched on and off.

    The harmonic couplings are multiplied by an integrable envelope whose
    Fourier transform is known in closed form; the coefficients are the
    transforms evaluated at the pair detunings.  Pure infinite sinusoids
    (no envelope) are rejected.
    """
    if envelope is None or not hasattr(envelope, "transform"):
        raise UnsupportedSpecError(
            "asymptotic coefficients need an integrable envelope with a "
            "closed-form transform (Gaussian or raised-cosine)"
        )
    freqs = basis.frequencies
    size = len(basis)
    alpha = np.eye(size, dtype=complex)
    beta = np.zeros((size, size), dtype=complex)
    for n in range(size):
        for m in range(size):
            if n != m:
                alpha[n, m] = epsilon * _asymptotic_integral(
                    couplings.alpha_hat[n, m], freqs[n] - freqs[m], envelope
                )
            beta[n, m] = epsilon * _asymptotic_integral(
                couplings.beta_hat[n, m], freqs[n] + freqs[m], envelope
            )
    return BogoliubovMatrix(
        alpha=alpha, beta=beta, epsilon_used=epsilon, window=None
    )
