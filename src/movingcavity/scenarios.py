"""Built-in driving scenarios with closed-form coupling predictions.

Two families are provided: an interval cavity with harmonically
oscillating walls (three variants: one wall moving, both walls breathing
in counter-phase, both walls shaking in phase) and a 3D rigid box whose
x/y walls follow a monochromatic metric perturbation so that the proper
transverse lengths stay constant.  Each builder returns the perturbation
spec for the coupling pipeline, the exact boundary trajectory where one
exists, and a predictor with the closed-form resonant amplitudes used as
regression targets.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

from .core import (
    BoundaryCondition,
    FieldParams,
    has_uniform_mode,
    require_positive,
)
from .exact1d import BoundaryTrajectory
from .perturb import HarmonicSum, PerturbationSpec

__all__ = [
    "DceVariant",
    "DceConfig",
    "DcePredictor",
    "DceScenario",
    "GwConfig",
    "GwPredictor",
    "GwScenario",
    "build_dce",
    "build_gw",
    "SCENARIO_NAMES",
]


class DceVariant(enum.Enum):
    """Which walls of the interval cavity oscillate."""

    RIGHT_ONLY = "i"
    BREATHING = "ii"
    SHAKING = "iii"


@dataclass(frozen=True)
class DceConfig:
    variant: DceVariant
    length: float
    bc: BoundaryCondition
    epsilon: float
    omega_drive: float
    mass: float = 0.0

    def __post_init__(self):
        for name in ("length", "epsilon", "omega_drive"):
            require_positive(name, getattr(self, name))
        FieldParams(mass=self.mass)  # rejects a negative or non-finite mass
        if self.epsilon > 0.1:
            warnings.warn(
                f"wall displacement amplitude epsilon={self.epsilon} is not "
                "small compared to the cavity; first-order couplings are "
                "unreliable",
                stacklevel=3,
            )


def _interval_omega(n: int, length: float, mass: float) -> float:
    k = math.pi * n / length
    return math.sqrt(k * k + mass * mass)


@dataclass(frozen=True)
class DcePredictor:
    """Closed-form resonant coupling amplitudes for the oscillating walls.

    Mode indices start at 0 only for a massive Neumann field, whose uniform
    mode is in the spectrum; otherwise they start at 1.  "Massless" means
    m^2 is 0 in floating point, so a mass below about 1.5e-162 counts as
    massless (see ``has_uniform_mode``).
    """

    config: DceConfig

    def _check_index(self, n: int) -> None:
        cfg = self.config
        uniform = cfg.bc is BoundaryCondition.NEUMANN and has_uniform_mode(
            FieldParams(mass=cfg.mass)
        )
        low = 0 if uniform else 1
        if n < low:
            raise ValueError(
                f"mode index {n} not in the spectrum (lowest is {low})"
            )

    def parity_factor(self, n: int, m: int) -> float:
        sign = (-1.0) ** (n + m)
        if self.config.variant is DceVariant.RIGHT_ONLY:
            return sign
        if self.config.variant is DceVariant.BREATHING:
            return sign + 1.0
        return sign - 1.0

    def alpha_hat(self, n: int, m: int) -> HarmonicSum:
        self._check_index(n)
        self._check_index(m)
        cfg = self.config
        parity = self.parity_factor(n, m)
        k_n = math.pi * n / cfg.length
        k_m = math.pi * m / cfg.length
        w_n = _interval_omega(n, cfg.length, cfg.mass)
        w_m = _interval_omega(m, cfg.length, cfg.mass)
        if cfg.bc is BoundaryCondition.NEUMANN:
            # uniform modes carry a sqrt(2) normalisation deficit per index
            zeros = (n == 0) + (m == 0)
            amp = (
                1j
                * parity
                * (cfg.omega_drive**2 - k_n * k_n - k_m * k_m)
                / (4.0 * math.sqrt(w_n * w_m))
                * 2.0 ** (-0.5 * zeros)
            )
        else:
            amp = -1j * parity * k_n * k_m / (2.0 * math.sqrt(w_n * w_m))
        return HarmonicSum.single(amp, cfg.omega_drive, "sin")

    def beta_hat(self, n: int, m: int) -> HarmonicSum:
        return -self.alpha_hat(n, m)


class DceScenario(NamedTuple):
    spec: PerturbationSpec
    trajectory: BoundaryTrajectory
    predictor: DcePredictor


_DCE_WALL_AMPLITUDES = {
    # outward sin-amplitude of the wall displacement, in units of L/2,
    # for the (left, right) walls
    DceVariant.RIGHT_ONLY: (0.0, 1.0),
    DceVariant.BREATHING: (1.0, 1.0),
    DceVariant.SHAKING: (-1.0, 1.0),
}


def build_dce(config: DceConfig) -> DceScenario:
    """Oscillating-wall scenario: coupling spec, exact trajectory, predictor.

    The trajectory realises the harmonic wall motion exactly (walls at
    +-L[1 +- epsilon sin(drive t)]/2 according to the variant); the
    perturbation spec carries only the first-order outward displacements.
    """
    L, eps, drive = config.length, config.epsilon, config.omega_drive
    amp_left, amp_right = _DCE_WALL_AMPLITUDES[config.variant]
    half = L / 2.0
    delta_x = {
        (0, -1): HarmonicSum.single(amp_left * half, drive, "sin"),
        (0, +1): HarmonicSum.single(amp_right * half, drive, "sin"),
    }
    spec = PerturbationSpec(
        epsilon=eps, delta_x=delta_x, base_frequency=drive
    )
    # the left wall moving outward means moving in the -x direction
    x_minus = lambda t: -half * (1.0 + eps * amp_left * math.sin(drive * t))
    x_plus = lambda t: half * (1.0 + eps * amp_right * math.sin(drive * t))
    v_minus = lambda t: -half * eps * amp_left * drive * math.cos(drive * t)
    v_plus = lambda t: half * eps * amp_right * drive * math.cos(drive * t)
    a_minus = lambda t: half * eps * amp_left * drive**2 * math.sin(drive * t)
    a_plus = lambda t: -half * eps * amp_right * drive**2 * math.sin(drive * t)
    traj = BoundaryTrajectory(
        x_minus=x_minus, x_plus=x_plus, v_minus=v_minus, v_plus=v_plus,
        a_minus=a_minus, a_plus=a_plus,
    )
    return DceScenario(spec, traj, DcePredictor(config))


# ---------------------------------------------------------------------------
# rigid box in a monochromatic metric perturbation


@dataclass(frozen=True)
class GwConfig:
    lx: float
    ly: float
    lz: float
    bc: BoundaryCondition
    epsilon: float
    omega_drive: float
    frequency_cutoff: float

    def __post_init__(self):
        for name in ("lx", "ly", "lz", "epsilon", "omega_drive",
                     "frequency_cutoff"):
            require_positive(name, getattr(self, name))
        if self.epsilon > 0.1:
            warnings.warn(
                f"metric perturbation epsilon={self.epsilon} is not small; "
                "first-order couplings are unreliable",
                stacklevel=3,
            )


@dataclass(frozen=True)
class GwPredictor:
    """Closed-form resonant couplings for the rigid box, massless field."""

    config: GwConfig

    def _wavenumbers(self, idx: Tuple[int, int, int]):
        cfg = self.config
        low = 1 if cfg.bc is BoundaryCondition.DIRICHLET else 0
        if any(i < low for i in idx) or (
            cfg.bc is BoundaryCondition.NEUMANN and all(i == 0 for i in idx)
        ):
            raise ValueError(f"multi-index {idx} not in the spectrum")
        return tuple(
            math.pi * i / l for i, l in zip(idx, (cfg.lx, cfg.ly, cfg.lz))
        )

    def _omega(self, idx) -> float:
        return math.sqrt(sum(k * k for k in self._wavenumbers(idx)))

    def alpha_hat(self, idx, idxp) -> HarmonicSum:
        cfg = self.config
        n, m, l = idx
        np_, mp, lp = idxp
        kx, ky, _ = self._wavenumbers(idx)
        kxp, kyp, _ = self._wavenumbers(idxp)
        w, wp = self._omega(idx), self._omega(idxp)
        if l != lp:
            return HarmonicSum.zero()
        x_parity = (-1.0) ** (n + np_) + 1.0
        y_parity = (-1.0) ** (m + mp) + 1.0
        if cfg.bc is BoundaryCondition.DIRICHLET:
            amp = 0.0j
            if m == mp:
                amp += x_parity * kx * kxp
            if n == np_:
                amp -= y_parity * ky * kyp
            amp *= 1j / (4.0 * math.sqrt(w * wp))
        else:
            drive2 = cfg.omega_drive**2
            amp = 0.0j
            if n == np_:
                zeros = (m == 0) + (mp == 0)
                amp += (
                    y_parity
                    * (drive2 - ky * ky - kyp * kyp)
                    * 2.0 ** (-0.5 * zeros)
                )
            if m == mp:
                zeros = (n == 0) + (np_ == 0)
                amp -= (
                    x_parity
                    * (drive2 - kx * kx - kxp * kxp)
                    * 2.0 ** (-0.5 * zeros)
                )
            amp *= 1j / (8.0 * math.sqrt(w * wp))
        if amp == 0:
            return HarmonicSum.zero()
        return HarmonicSum.single(amp, cfg.omega_drive, "sin")

    def beta_metric_part(self, idx, idxp) -> HarmonicSum:
        """Pair-creation term sourced by the metric oscillation alone."""
        if idx != idxp:
            return HarmonicSum.zero()
        kx, ky, _ = self._wavenumbers(idx)
        w = self._omega(idx)
        amp = 1j * (kx * kx - ky * ky) / (2.0 * w)
        if amp == 0:
            return HarmonicSum.zero()
        return HarmonicSum.single(amp, self.config.omega_drive, "sin")

    def beta_hat(self, idx, idxp) -> HarmonicSum:
        return self.beta_metric_part(idx, idxp) + (-self.alpha_hat(idx, idxp))


class GwScenario(NamedTuple):
    spec: PerturbationSpec
    predictor: GwPredictor


def gw_boundary_position(
    config: GwConfig, axis: int, side: int, t: float
) -> float:
    """Exact rigid-wall position keeping the proper length constant."""
    s = config.epsilon * math.sin(config.omega_drive * t)
    if axis == 0:
        return side * config.lx / (2.0 * math.sqrt(1.0 + s))
    if axis == 1:
        return side * config.ly / (2.0 * math.sqrt(1.0 - s))
    return side * config.lz / 2.0


def build_gw(config: GwConfig) -> GwScenario:
    """Rigid-box scenario: coupling spec and closed-form predictor.

    The metric oscillates as (1 + eps sin) dx^2 + (1 - eps sin) dy^2; the
    x and y walls move inward/outward to keep proper lengths fixed, which
    at first order is an outward displacement -L_x sin/4 on the x faces
    and +L_y sin/4 on the y faces.
    """
    eps, drive = config.epsilon, config.omega_drive
    sin_unit = HarmonicSum.single(1.0, drive, "sin")
    delta_o = (sin_unit, -1.0 * sin_unit, HarmonicSum.zero())
    delta_x = {
        (0, -1): HarmonicSum.single(-config.lx / 4.0, drive, "sin"),
        (0, +1): HarmonicSum.single(-config.lx / 4.0, drive, "sin"),
        (1, -1): HarmonicSum.single(config.ly / 4.0, drive, "sin"),
        (1, +1): HarmonicSum.single(config.ly / 4.0, drive, "sin"),
    }
    spec = PerturbationSpec(
        epsilon=eps,
        delta_o_coeffs=delta_o,
        delta_x=delta_x,
        base_frequency=drive,
    )
    return GwScenario(spec, GwPredictor(config))


# ---------------------------------------------------------------------------
# name registry used by the command-line layer

SCENARIO_NAMES = ("dce-i", "dce-ii", "dce-iii", "gw-rigid")
