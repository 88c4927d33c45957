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

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import BoundaryCondition, require_finite, require_positive
from .staticmodes import StaticBasis, axis_integrals

__all__ = [
    "HarmonicTerm",
    "HarmonicSum",
    "PerturbationSpec",
    "CouplingMatrices",
    "BogoliubovMatrix",
    "Resonance",
    "ResonanceKind",
    "GaussianEnvelope",
    "UnsupportedSpecError",
    "ValidityWindowWarning",
    "validity_window",
    "coupling_alpha",
    "coupling_beta",
    "build_coupling_matrices",
    "find_resonances",
    "bogoliubov_perturbative",
    "perturbative_cells",
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
        require_finite("amplitude", self.amplitude)
        require_finite("frequency", self.frequency)
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

    def is_zero(self) -> bool:
        return not self.terms

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
    """

    epsilon: float
    delta_o_coeffs: Tuple[HarmonicSum, ...] = ()
    delta_r: HarmonicSum = field(default_factory=HarmonicSum.zero)
    delta_r_bar: HarmonicSum = field(default_factory=HarmonicSum.zero)
    delta_x: Mapping[FaceKey, HarmonicSum] = field(default_factory=dict)
    base_frequency: Optional[float] = None

    def __post_init__(self):
        require_positive("epsilon", self.epsilon)


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
    """First-order coupling harmonics for every mode pair of a basis.

    ``alpha[h, n, m]`` and ``beta[h, n, m]`` are the complex amplitudes of
    harmonic ``harmonics[h]``, a (frequency, form) key in ``HarmonicSum``
    order, in the mode-mixing and pair-creation coupling of the pair
    (n, m).  ``alpha_hat`` and ``beta_hat`` present the same numbers as
    read-only (N, N) object arrays of ``HarmonicSum``.  ``coupled`` marks
    the pairs with a nonzero amplitude in some harmonic.
    """

    harmonics: Tuple[Tuple[float, str], ...]
    alpha: np.ndarray  # (H, N, N) complex
    beta: np.ndarray  # (H, N, N) complex
    drive_frequency: Optional[float] = None

    @functools.cached_property
    def alpha_hat(self) -> np.ndarray:
        return _harmonic_sums(self.harmonics, self.alpha)

    @functools.cached_property
    def beta_hat(self) -> np.ndarray:
        return _harmonic_sums(self.harmonics, self.beta)

    @functools.cached_property
    def coupled(self) -> np.ndarray:
        """Read-only (N, N) bool: does the pair couple in any harmonic.

        A pair that does not has first-order alpha = beta = 0 at every
        time and under every envelope, alpha = 1 on the diagonal.
        """
        mask = np.any(self.alpha != 0, axis=0) | np.any(self.beta != 0, axis=0)
        mask.flags.writeable = False
        return mask


def _harmonic_sums(harmonics, amplitudes: np.ndarray) -> np.ndarray:
    """(N, N) object array of the HarmonicSum of each pair's amplitudes."""
    size = amplitudes.shape[1]
    per_pair = amplitudes.reshape(len(harmonics), size * size).T.tolist()
    sums = np.empty(size * size, dtype=object)
    for k, amps in enumerate(per_pair):
        sums[k] = HarmonicSum(
            [HarmonicTerm(a, freq, form)
             for a, (freq, form) in zip(amps, harmonics)]
        )
    sums = sums.reshape(size, size)
    sums.flags.writeable = False
    return sums


@dataclass(frozen=True)
class BogoliubovMatrix:
    """First-order Bogoliubov coefficients over a window or asymptotically."""

    alpha: np.ndarray
    beta: np.ndarray


# ---------------------------------------------------------------------------
# volume and face integrals for all mode pairs


def _pair_integrals(basis: StaticBasis, faces):
    """Volume overlaps and face integrals of every mode pair of a basis.

    Returns (overlap, surfaces): ``overlap[n, m]`` is the integral of
    Psi_n Psi_m over the cavity, and ``surfaces[face]`` holds three (N, N)
    arrays for each face key in ``faces``:
      value        integral of Psi_n Psi_m over the face
      grad_dot     integral of grad(Psi_n) . grad(Psi_m) over the face
      normal_grad  integral of (n.grad Psi_n)(n.grad Psi_m) over the face
    Every integral is a product of the closed-form axis integrals of
    ``axis_integrals``, taken elementwise, so an entry depends on its two
    modes alone and pairs that differ in a quantum number off the face
    axis give exactly 0.0.
    """
    axes = axis_integrals(basis)
    value_gram, deriv_gram, end_values, end_derivs = zip(*axes)
    dim = len(axes)
    scale = np.outer(basis.normalization, basis.normalization)
    overlap = scale
    for gram in value_gram:
        overlap = overlap * gram

    surfaces = {}
    for axis, sign in faces:
        col = 0 if sign < 0 else 1
        tangential = 1.0
        for j in range(dim):
            if j != axis:
                tangential = tangential * value_gram[j]
        ends_v = end_values[axis][:, col]
        ends_d = end_derivs[axis][:, col]
        fn = ends_v[:, None] * ends_v[None, :]
        dn = ends_d[:, None] * ends_d[None, :]
        grad_dot = dn * tangential
        for j in range(dim):
            if j == axis:
                continue
            prod = fn * deriv_gram[j]
            for k in range(dim):
                if k != axis and k != j:
                    prod = prod * value_gram[k]
            grad_dot = grad_dot + prod
        surfaces[axis, sign] = (
            scale * fn * tangential,
            grad_dot * scale,
            scale * dn * tangential,
        )
    return overlap, surfaces


# ---------------------------------------------------------------------------
# couplings


def _check_indices(basis, *indices):
    for i in indices:
        if not 0 <= i < len(basis):
            raise IndexError(f"mode index {i} outside basis of size {len(basis)}")


def _spec_harmonics(spec: PerturbationSpec) -> Tuple[Tuple[float, str], ...]:
    """Sorted (frequency, form) keys of every harmonic in a spec."""
    sums = list(spec.delta_o_coeffs) + [spec.delta_r, spec.delta_r_bar]
    sums += list(spec.delta_x.values())
    return tuple(
        sorted({(t.frequency, t.form) for hs in sums for t in hs.terms})
    )


def _coupling(
    spec, basis, bc, resonant, harmonics, overlap, surfaces, branch
) -> np.ndarray:
    """(H, N, N) amplitudes of the alpha (branch -1) or beta (+1) coupling.

    The bulk part is the volume integral of [bulk operator Psi_n] Psi_m.
    The surface part multiplies the displacement of each face; ``branch``
    fixes the sign of the omega_n omega_m product in its Neumann bracket
    and which resonance substitution applies to it.  Each harmonic's
    amplitude accumulates its contributions in the order ``HarmonicSum``
    merges them.
    """
    where = {key: h for h, key in enumerate(harmonics)}
    size = len(basis)
    omega = basis.frequencies
    bulk = np.zeros((len(harmonics), size, size), dtype=complex)
    for i, coeff in enumerate(spec.delta_o_coeffs):
        factor = -basis.wavenumbers[:, i, None] ** 2 * overlap
        for term in coeff.terms:
            bulk[where[term.frequency, term.form]] += term.amplitude * factor
    factor = (
        omega[:, None] * (omega[:, None] + branch * omega[None, :]) * overlap
    )
    for term in spec.delta_r.terms:
        bulk[where[term.frequency, term.form]] += term.amplitude * factor
    factor = basis.params.coupling_xi * overlap
    for term in spec.delta_r_bar.terms:
        bulk[where[term.frequency, term.form]] += term.amplitude * factor

    surface = np.zeros_like(bulk)
    dirichlet = bc is BoundaryCondition.DIRICHLET
    mass2 = basis.params.mass**2
    squares = omega**2
    for face, harmonics_x in spec.delta_x.items():
        if harmonics_x.is_zero():
            continue
        value, grad_dot, normal_grad = surfaces[face]
        for term in harmonics_x.terms:
            if dirichlet:
                bracket = normal_grad
            else:
                if not resonant:
                    prod = omega[:, None] * omega[None, :]
                elif branch < 0:
                    # Resonance-targeted amplitude extraction: the product
                    # of mode frequencies is remapped so that the pair
                    # oscillates at the harmonic's own frequency.
                    prod = 0.5 * (
                        squares[:, None] + squares[None, :] - term.frequency**2
                    )
                else:
                    prod = 0.5 * (
                        term.frequency**2 - squares[:, None] - squares[None, :]
                    )
                bracket = grad_dot + (mass2 + branch * prod) * value
            h = where[term.frequency, term.form]
            surface[h] += term.amplitude * bracket

    turn = 1j if branch < 0 else -1j
    total = np.zeros_like(bulk)
    total += bulk * turn
    total += surface * (-turn if dirichlet else turn)
    return total


def _pair_coupling(spec, basis, n, m, bc, resonant, branch):
    """The (n, m) coupling, computed on the two-mode basis of n and m."""
    _check_indices(basis, n, m)
    pair = basis.take([n, m])
    harmonics = _spec_harmonics(spec)
    overlap, surfaces = _pair_integrals(pair, spec.delta_x)
    amplitudes = _coupling(
        spec, pair, bc, resonant, harmonics, overlap, surfaces, branch
    )
    return _harmonic_sums(harmonics, amplitudes)[0, 1]


def coupling_alpha(
    spec: PerturbationSpec,
    basis: StaticBasis,
    n: int,
    m: int,
    bc: BoundaryCondition,
    resonant: bool = False,
) -> HarmonicSum:
    """Harmonic decomposition of the first-order mode-mixing coupling.

    Volume and face integrals in closed form, per axis; the surface part
    takes the boundary-condition-specific bracket.  With ``resonant=True``
    each displacement harmonic is remapped to its own resonance target
    before the bracket is formed.
    """
    return _pair_coupling(spec, basis, n, m, bc, resonant, -1)


def coupling_beta(
    spec: PerturbationSpec,
    basis: StaticBasis,
    n: int,
    m: int,
    bc: BoundaryCondition,
    resonant: bool = False,
) -> HarmonicSum:
    """Harmonic decomposition of the first-order pair-creation coupling."""
    return _pair_coupling(spec, basis, n, m, bc, resonant, +1)


def build_coupling_matrices(
    spec: PerturbationSpec,
    basis: StaticBasis,
    bc: BoundaryCondition,
    resonant: bool = False,
) -> CouplingMatrices:
    """Coupling harmonics for every pair of modes in the basis."""
    harmonics = _spec_harmonics(spec)
    overlap, surfaces = _pair_integrals(basis, spec.delta_x)
    alpha, beta = (
        _coupling(spec, basis, bc, resonant, harmonics, overlap, surfaces, b)
        for b in (-1, +1)
    )
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return CouplingMatrices(
        harmonics=harmonics,
        alpha=alpha,
        beta=beta,
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
    base).  Returns every hit with its signed detuning, ordered by n, then
    m, with mode mixing before pair creation.
    """
    if omega_p <= 0:
        raise ValueError(f"drive frequency must be positive, got {omega_p}")
    freqs = basis.frequencies
    detunings = np.stack(
        [
            (freqs[:, None] - freqs[None, :]) - omega_p,
            (freqs[:, None] + freqs[None, :]) - omega_p,
        ],
        axis=-1,
    )
    kinds = (ResonanceKind.MODE_MIXING, ResonanceKind.PAIR_CREATION)
    hits = np.nonzero(np.abs(detunings) <= tolerance)
    return tuple(
        Resonance(n, m, kinds[k], detuning)
        for n, m, k, detuning in zip(
            *(index.tolist() for index in hits), detunings[hits].tolist()
        )
    )


# ---------------------------------------------------------------------------
# closed-form window integrals


def _complex(real, imag) -> np.ndarray:
    out = np.empty(np.shape(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def _phase_integral(mu, t0: float, tf: float) -> np.ndarray:
    """Integral of exp(i mu t) over [t0, tf] for each mu, stable at mu -> 0."""
    mu = np.asarray(mu, dtype=float)
    small = np.abs(mu) * max(abs(t0), abs(tf)) < 1e-12
    mu = np.where(small, 1.0, mu)
    rise = np.exp(1j * mu * tf) - np.exp(1j * mu * t0)
    # divide by the purely imaginary 1j * mu part by part, as CPython does;
    # numpy's complex division multiplies by a reciprocal instead
    value = _complex(rise.imag / mu, -rise.real / mu)
    return np.where(small, tf - t0, value)


def _cmul(a: np.ndarray, b) -> np.ndarray:
    """Elementwise a * b with CPython's complex product.

    numpy's complex multiply fuses a multiply and an add, which changes
    the last bit; a real ``b`` counts as b + 0j, as in CPython.
    """
    b = np.asarray(b)
    return _complex(
        a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    )


def validity_window(
    drive_frequency: Optional[float], epsilon: float
) -> Optional[Tuple[float, float]]:
    """Heuristic first-order range [low, high] of window lengths.

    None when there is no drive frequency to judge by, and when epsilon is
    0, where first order is exact.  A negative epsilon counts by its size.
    """
    if drive_frequency is None or drive_frequency <= 0 or epsilon == 0:
        return None
    return 5.0 / drive_frequency, 0.1 / (abs(epsilon) * drive_frequency)


def _check_validity_window(drive_frequency, epsilon, t0, tf):
    window = validity_window(drive_frequency, epsilon)
    if window is None:
        return
    duration = tf - t0
    low, high = window
    if duration < low or duration > high:
        warnings.warn(
            f"window length {duration:.4g} outside the heuristic first-order "
            f"validity range [{low:.4g}, {high:.4g}] for drive frequency "
            f"{drive_frequency:.4g} and epsilon {epsilon:.4g}",
            ValidityWindowWarning,
            stacklevel=4,  # the caller of the public function
        )


def _window_kernel(couplings, epsilon, t0, tf):
    """The integral of exp(i mu t) over [t0, tf], as ``_first_order`` takes it.

    Rejects a non-finite or empty window, and warns (never raises) when
    the window lies outside the heuristic first-order validity range.
    """
    for name, value in (("t0", t0), ("tf", tf), ("epsilon", epsilon)):
        require_finite(name, value)
    if tf <= t0:
        raise ValueError("window must satisfy t0 < tf")
    _check_validity_window(couplings.drive_frequency, epsilon, t0, tf)
    return lambda mu: _phase_integral(mu, t0, tf)


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
    kernel = _window_kernel(couplings, epsilon, t0, tf)
    alpha, beta = _first_order(couplings, basis, epsilon, kernel)
    return BogoliubovMatrix(alpha=alpha, beta=beta)


def perturbative_cells(
    couplings: CouplingMatrices,
    basis: StaticBasis,
    epsilon: float,
    t0: float,
    tf: float,
    rows: np.ndarray,
    cols: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """First-order alpha and beta over a window at the cells (rows, cols).

    ``rows`` and ``cols`` are integer index arrays that broadcast together;
    the results take their shape and equal the entries of
    ``bogoliubov_perturbative`` at those cells bit for bit, with the same
    checks and warning.
    """
    kernel = _window_kernel(couplings, epsilon, t0, tf)
    cells = np.asarray(rows), np.asarray(cols)
    return _first_order(couplings, basis, epsilon, kernel, cells)


def _first_order(couplings, basis, epsilon, kernel, cells=None):
    """First-order alpha and beta of every pair, or at the cells (rows, cols).

    Each entry is epsilon times the integral of exp(-i detuning t) against
    the pair's coupling harmonics, where ``kernel(mu)`` gives the integral
    of exp(i mu t) against the window or the envelope for an array of mu.
    Alpha is one on the diagonal.  Without ``cells`` the results are
    (N, N) matrices, computed on views; with them, on the gathered
    entries.  Every operation is elementwise, so an entry does not depend
    on which other cells are evaluated with it.
    """
    freqs = basis.frequencies
    if cells is None:
        alpha, beta = couplings.alpha, couplings.beta
        first, second = freqs[:, None], freqs[None, :]
    else:
        rows, cols = cells
        alpha = couplings.alpha[:, rows, cols]
        beta = couplings.beta[:, rows, cols]
        first, second = freqs[rows], freqs[cols]
    coefficients = []
    for amplitudes, detuning in (
        (alpha, first - second), (beta, first + second)
    ):
        total = np.zeros(detuning.shape, dtype=complex)
        for (frequency, form), amplitude in zip(
            couplings.harmonics, amplitudes
        ):
            plus = kernel(frequency - detuning)
            minus = kernel(-frequency - detuning)
            if form == "sin":
                total += _cmul(amplitude, plus - minus) / 2j
            else:
                total += _cmul(amplitude, plus + minus) / 2.0
        coefficients.append(epsilon * total)
    alpha, beta = coefficients
    if cells is None:
        np.fill_diagonal(alpha, 1.0)
    else:
        alpha[rows == cols] = 1.0
    return alpha, beta


# ---------------------------------------------------------------------------
# asymptotic coefficients with integrable envelopes


@dataclass(frozen=True)
class GaussianEnvelope:
    """Envelope exp(-t^2 / (2 sigma^2)) with closed-form transform."""

    sigma: float

    def __post_init__(self):
        require_positive("sigma", self.sigma)

    def __call__(self, t):
        return np.exp(-np.asarray(t, dtype=float) ** 2 / (2.0 * self.sigma**2))

    def transform(self, mu):
        """Integral of envelope(t) exp(i mu t) over the real line."""
        return self.sigma * math.sqrt(2.0 * math.pi) * np.exp(
            -0.5 * (self.sigma * np.asarray(mu, dtype=float)) ** 2
        )


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
            "closed-form transform, such as GaussianEnvelope"
        )
    require_finite("epsilon", epsilon)
    alpha, beta = _first_order(couplings, basis, epsilon, envelope.transform)
    return BogoliubovMatrix(alpha=alpha, beta=beta)
