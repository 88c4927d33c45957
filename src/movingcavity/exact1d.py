"""Non-perturbative evolution of a 1+1D field with moving boundaries.

Pipeline: solve the instantaneous eigenproblem with velocity-dependent
boundary conditions at each time, assemble the generator matrix from the
eigen-solutions and their centered-difference time derivatives, and
integrate the linear transformation between instantaneous bases with
fixed-step 4th-order Runge-Kutta.  Blocks are ordered positive branch
first, then negative branch; with static start and end slices the top
blocks of the transformation are the mode-mixing and pair-creation
coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BoundaryCondition,
    FieldParams,
    has_uniform_mode,
    positivity_shift,
    require_positive,
)
from .staticmodes import gauss_legendre

__all__ = [
    "BoundaryTrajectory",
    "InstantaneousMode",
    "InstantaneousBasis",
    "TransformationState",
    "InvalidTrajectoryError",
    "SolverError",
    "StabilityError",
    "solve_instantaneous_basis",
    "assemble_vhat",
    "mode_transform_matrix",
    "generator_matrix",
    "evolve_transformation",
    "bogoliubov_identity_residual",
]


class InvalidTrajectoryError(ValueError):
    """Raised for superluminal or crossing boundary trajectories."""


class SolverError(RuntimeError):
    """Raised when eigenvalue bracketing or mode tracking fails."""


class StabilityError(RuntimeError):
    """Raised when the integration step is too large for the spectrum."""


TimeFunc = Callable[[float], float]

FD_STEP = 1e-6  # finite-difference step for wall velocities
BRACKET_DENSITY = 4  # root-scan nodes per half mode spacing


@dataclass(frozen=True)
class BoundaryTrajectory:
    """Positions of the two cavity walls as functions of time.

    Velocities may be supplied analytically; otherwise they come from
    4th-order central differences with step ``FD_STEP``.
    """

    x_minus: TimeFunc
    x_plus: TimeFunc
    v_minus: Optional[TimeFunc] = None
    v_plus: Optional[TimeFunc] = None

    @staticmethod
    def static(x_minus: float, x_plus: float) -> "BoundaryTrajectory":
        zero = lambda t: 0.0
        return BoundaryTrajectory(
            x_minus=lambda t: x_minus,
            x_plus=lambda t: x_plus,
            v_minus=zero,
            v_plus=zero,
        )

    def positions(self, t: float) -> Tuple[float, float]:
        xm, xp = float(self.x_minus(t)), float(self.x_plus(t))
        if xp <= xm:
            raise InvalidTrajectoryError(
                f"boundaries crossed at t={t}: x_-={xm}, x_+={xp}"
            )
        return xm, xp

    def velocities(self, t: float) -> Tuple[float, float]:
        h = FD_STEP

        def fd(f):
            return (
                -f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)
            ) / (12 * h)

        vm = float(self.v_minus(t)) if self.v_minus is not None else fd(self.x_minus)
        vp = float(self.v_plus(t)) if self.v_plus is not None else fd(self.x_plus)
        for v in (vm, vp):
            if abs(v) >= 1.0:
                raise InvalidTrajectoryError(
                    f"boundary speed |{v}| >= 1 at t={t}"
                )
        return vm, vp


# ---------------------------------------------------------------------------
# regular basis functions: c and s solve psi'' = -lam psi with
# c(0)=1, c'(0)=0, s(0)=0, s'(0)=1, smooth in lam through zero
# (oscillatory lam > 0, evanescent lam < 0).


def _cs(x, lam):
    """c and s at points ``x`` for spectral parameters ``lam``, broadcast."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if lam.size and lam.min() > 0:  # all oscillatory: no mask work
        k = np.sqrt(lam)
        kx = k * x
        return np.cos(kx), np.sin(kx) / k
    k = np.sqrt(np.abs(lam))
    shape = np.broadcast_shapes(x.shape, lam.shape)
    k = np.broadcast_to(k, shape)
    kx = k * x
    c = np.ones(shape)
    s = np.array(np.broadcast_to(x, shape))  # lam == 0: c = 1, s = x
    for mask, cos_f, sin_f in (
        (lam > 0, np.cos, np.sin), (lam < 0, np.cosh, np.sinh)
    ):
        mask = np.broadcast_to(mask, shape)
        c[mask] = cos_f(kx[mask])
        s[mask] = sin_f(kx[mask]) / k[mask]
    return c, s


def _mode_values(lam, a, b, x):
    """Values and x-derivatives of the modes (lam, a, b) at points ``x``."""
    lam, a, b = lam[:, None], a[:, None], b[:, None]
    c, s = _cs(np.asarray(x, dtype=float)[None, :], lam)
    return a * c + b * s, -lam * s * a + b * c


@dataclass(frozen=True)
class InstantaneousMode:
    """One eigen-solution psi(x) = a c(x) + b s(x) on [x_minus, x_plus]."""

    omega: float
    lam: float  # omega^2 - (m^2 + F): positive oscillatory, negative evanescent
    a: float
    b: float
    x_minus: float
    x_plus: float

    @property
    def evanescent(self) -> bool:
        return self.lam < 0

    def eval(self, x):
        c, s = _cs(x, self.lam)
        return self.a * c + self.b * s

    def eval_deriv(self, x):
        c, s = _cs(x, self.lam)
        return -self.a * self.lam * s + self.b * c


@dataclass(frozen=True)
class InstantaneousBasis:
    """Signed eigenpairs of the cavity at one time, both frequency branches.

    Mode i is psi_i = a[i] c(x; lam[i]) + b[i] s(x; lam[i]) with signed
    frequency omega[i]; the four read-only arrays have shape (2N,), the
    positive branch first.  ``modes``, ``plus`` and ``minus`` present the
    same numbers as ``InstantaneousMode`` objects, built on first access.
    """

    time: float
    bc: BoundaryCondition
    params: FieldParams
    f_term: float
    omega: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x_minus: float
    x_plus: float

    @property
    def bands(self) -> int:
        return len(self.omega) // 2

    @property
    def frequencies(self) -> np.ndarray:
        """All 2N signed frequencies, positive branch first."""
        return self.omega

    def values(self, x):
        """Values and x-derivatives of every mode, each (2N, len(x))."""
        return _mode_values(self.lam, self.a, self.b, x)

    @functools.cached_property
    def modes(self) -> Tuple[InstantaneousMode, ...]:
        arrays = (self.omega, self.lam, self.a, self.b)
        return tuple(
            InstantaneousMode(*row, self.x_minus, self.x_plus)
            for row in zip(*(array.tolist() for array in arrays))
        )

    @property
    def plus(self) -> Tuple[InstantaneousMode, ...]:
        return self.modes[: self.bands]

    @property
    def minus(self) -> Tuple[InstantaneousMode, ...]:
        return self.modes[self.bands :]


def _boundary_rows(omega, lam, x, v, bc):
    """Boundary-condition row (on the c and s coefficients) at walls ``x``.

    ``x`` and ``v`` are wall positions and speeds, broadcast against the
    frequencies ``omega`` and their ``lam = omega^2 - (m^2 + F)``.
    """
    c, s = _cs(x, lam)
    if bc is BoundaryCondition.NEUMANN:
        # psi'(x_e) + omega v_e psi(x_e) = 0 at both walls
        return -lam * s + omega * v * c, c + omega * v * s
    # omega psi(x_e) + v_e psi'(x_e) = 0 at both walls
    return omega * c - v * lam * s, omega * s + v * c


def _wall_rows(omegas, xm, xp, vm, vp, mass2f, bc):
    """Boundary rows of ``omegas`` at both walls, wall axis first."""
    omegas = np.asarray(omegas, dtype=float)
    lam = omegas * omegas - mass2f
    walls = (2,) + (1,) * omegas.ndim
    return _boundary_rows(
        omegas, lam, np.reshape([xm, xp], walls), np.reshape([vm, vp], walls),
        bc,
    )


def _char_det_vec(omegas, xm, xp, vm, vp, mass2f, bc):
    """Characteristic determinant evaluated on an array of frequencies."""
    r0, r1 = _wall_rows(omegas, xm, xp, vm, vp, mass2f, bc)
    return r0[0] * r1[1] - r1[0] * r0[1]


def _scan_grid(xm, xp, mass2f, bands, skip_low):
    """Ascending |omega| scan nodes covering the first ``bands`` roots.

    With ``skip_low`` the scan starts above k = pi/(2L), leaving out the
    boundary-velocity-induced solution below the first band (the massless
    uniform-mode descendant, dropped by convention); otherwise the
    evanescent window (omega^2 < m^2 + F) is scanned too so that
    near-threshold eigenvalues are bracketed.
    """
    length = xp - xm
    k_min = (
        math.pi / (2 * length)
        if skip_low
        else math.pi / (BRACKET_DENSITY * length)
    )
    k_max = math.pi * (bands + 2) / length
    n_nodes = int(BRACKET_DENSITY * (bands + 2)) + 1
    ks = np.linspace(k_min, k_max, n_nodes)
    omegas = np.sqrt(ks * ks + mass2f)
    if mass2f > 0 and not skip_low:
        kaps = np.linspace(0.0, math.sqrt(mass2f), 33)[:-1]
        evan = np.sqrt(mass2f - kaps * kaps)[::-1]
        # a subnormal m^2 + F repeats nodes, each an exact zero at omega = m
        evan = evan[np.diff(evan, prepend=0.0) > 0]
        floor = 1e-9 * math.sqrt(mass2f)
        evan = evan[evan > floor]
        omegas = np.concatenate([[floor], evan, omegas])
    return omegas


def _polish_roots(f_vec, a, b, fa, fb, max_iter=100):
    """Vectorised Anderson-Bjorck iteration on sign-change brackets.

    Raises ``SolverError`` when the roots have not converged after
    ``max_iter`` iterations.
    """
    a, b = a.copy(), b.copy()
    fa, fb = fa.copy(), fb.copy()
    prev = None
    for _ in range(max_iter):
        denom = np.where(fb != fa, fb - fa, 1.0)
        mid = b - fb * (b - a) / denom
        # closed interval: a secant step onto a root at b must stay there
        inside = (mid >= np.minimum(a, b)) & (mid <= np.maximum(a, b))
        mid = np.where(inside, mid, 0.5 * (a + b))
        fm = f_vec(mid)
        if not np.all(np.isfinite(fm)):
            raise SolverError("characteristic function returned non-finite")
        opposite = fm * fb < 0
        # same-side updates rescale fa to avoid regula-falsi stagnation
        gamma = 1.0 - np.where(fb != 0, fm / np.where(fb != 0, fb, 1.0), 0.0)
        gamma = np.where(gamma > 0, gamma, 0.5)
        a = np.where(opposite, b, a)
        fa = np.where(opposite, fb, gamma * fa)
        b, fb = mid, fm
        if prev is not None and np.all(
            (np.abs(mid - prev) <= 2e-15 * np.abs(mid)) | (fm == 0.0)
        ):
            return mid
        prev = mid
    raise SolverError(
        f"root polish did not converge in {max_iter} iterations"
    )


def _find_roots(xm, xp, vm, vp, mass2f, bc, bands, skip_low):
    """First ``bands`` roots of each branch, shape (2N,), + branch first.

    Both branches are scanned on the signed grids ``[grid, -grid]``; an
    event is an exact zero at a node or a sign change to the next node.
    """
    grid = _scan_grid(xm, xp, mass2f, bands, skip_low)
    nodes = np.stack([grid, -grid])
    values = _char_det_vec(nodes, xm, xp, vm, vp, mass2f, bc)
    exact = values == 0.0
    event = exact.copy()
    event[:, :-1] |= values[:, :-1] * values[:, 1:] < 0
    found = event.sum(axis=1)
    for row, sign in enumerate("+-"):
        if found[row] < bands:
            raise SolverError(
                f"found only {found[row]} of {bands} eigenvalues on branch "
                f"{sign}; scan window [{nodes[row, 0]:.6g}, "
                f"{nodes[row, -1]:.6g}] with {len(grid)} nodes"
            )
    rows, cols = np.nonzero(event & (np.cumsum(event, axis=1) <= bands))
    roots = nodes[rows, cols]
    bracket = ~exact[rows, cols]
    if np.any(bracket):
        r, i = rows[bracket], cols[bracket]
        roots[bracket] = _polish_roots(
            lambda w: _char_det_vec(w, xm, xp, vm, vp, mass2f, bc),
            nodes[r, i], nodes[r, i + 1], values[r, i], values[r, i + 1],
        )
    return roots


def _normalised_modes(omega, xm, xp, vm, vp, mass2f, bc, nodes, weights):
    """``lam``, ``a`` and ``b`` of the normalised, signed mode of each root."""
    lam = omega * omega - mass2f
    r0, r1 = _wall_rows(omega, xm, xp, vm, vp, mass2f, bc)
    # coefficient vector = null direction of the 2x2 boundary system,
    # taken from the better-conditioned row (left wall on a tie)
    left = r0[0] ** 2 + r1[0] ** 2 >= r0[1] ** 2 + r1[1] ** 2
    p = np.where(left, r0[0], r0[1])
    q = np.where(left, r1[0], r1[1])
    norm = np.hypot(p, q)
    if np.any(norm == 0):
        raise SolverError(
            f"degenerate boundary rows at omega={omega[norm == 0]}"
        )
    a, b = q / norm, -p / norm
    # normalisation: (m^2 + F + omega^2) int psi^2 + int psi'^2 = |omega|
    vals, dvals = _mode_values(lam, a, b, np.append(nodes, 0.5 * (xm + xp)))
    psi, dpsi = vals[:, :-1], dvals[:, :-1]
    quad = (mass2f + omega**2) * ((psi * psi) @ weights) + (
        dpsi * dpsi
    ) @ weights
    if np.any(quad <= 0):
        raise SolverError(f"non-positive norm form at omega={omega}")
    scale = np.sqrt(quad / np.abs(omega))
    # deterministic sign: positive value at the cavity midpoint, positive
    # derivative when the midpoint is a node.  The two are compared on a
    # common scale and the dominant one decides, so that a node shifted
    # by a small boundary displacement cannot flip the convention.
    val_c = np.abs(omega) * vals[:, -1]
    dval_c = dvals[:, -1]
    decider = np.where(np.abs(val_c) >= np.abs(dval_c), val_c, dval_c)
    factor = np.where(decider < 0, -1.0, 1.0) / scale
    return lam, a * factor, b * factor


def _quadrature(xm, xp, bands, quad_points):
    if quad_points is None:
        quad_points = max(64, 8 * bands)
    if quad_points < 1:
        raise ValueError(f"quad_points must be >= 1, got {quad_points}")
    return gauss_legendre(xm, xp, quad_points)


def solve_instantaneous_basis(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    bands: int,
    quad_points: Optional[int] = None,
) -> InstantaneousBasis:
    """First ``bands`` eigenpairs of each frequency branch at time t.

    The characteristic determinant couples the eigenvalue to the boundary
    rows through the wall velocities, so roots are bracketed by a sign
    scan (``BRACKET_DENSITY`` nodes per half mode spacing) and polished by
    Anderson-Bjorck iteration.  Eigenfunctions are normalised in the
    velocity-compatible quadratic form and signed by the midpoint
    convention.
    """
    if bands < 1:
        raise ValueError(f"bands must be >= 1, got {bands}")
    xm, xp = traj.positions(t)
    vm, vp = traj.velocities(t)
    f_term = positivity_shift(params)
    mass2f = params.mass_term + f_term
    # The uniform mode survives only for a massive Neumann field, where
    # "massless" means m^2 + xi R^h is 0 in floating point (a mass below
    # about 1.5e-162 counts as massless; see ``has_uniform_mode``).  In all
    # other cases the band ladder starts at k ~ pi/L and the sub-band
    # velocity-induced solution (which collapses to the excluded zero
    # frequency as v -> 0) is left out to keep both branches aligned.
    skip_low = not (
        has_uniform_mode(params) and bc is BoundaryCondition.NEUMANN
    )
    omega = _find_roots(xm, xp, vm, vp, mass2f, bc, bands, skip_low)
    nodes, weights = _quadrature(xm, xp, bands, quad_points)
    lam, a, b = _normalised_modes(
        omega, xm, xp, vm, vp, mass2f, bc, nodes, weights
    )
    for array in (omega, lam, a, b):
        array.flags.writeable = False
    return InstantaneousBasis(
        time=t,
        bc=bc,
        params=params,
        f_term=f_term,
        omega=omega,
        lam=lam,
        a=a,
        b=b,
        x_minus=xm,
        x_plus=xp,
    )


# ---------------------------------------------------------------------------
# generator assembly


def mode_transform_matrix(bands: int) -> np.ndarray:
    """Block matrix turning the real eigenbasis into frequency modes."""
    eye = np.eye(bands)
    return 0.5 * np.block(
        [[(1 - 1j) * eye, (1 + 1j) * eye], [(1 + 1j) * eye, (1 - 1j) * eye]]
    )


def _aligned_values(
    solver_args, t_side, center_vals, time_center, points, weights,
    min_overlap=0.9,
):
    """Frequencies and values on ``points`` of the basis at a neighbouring
    time, each mode signed to match its center partner.

    Modes are matched band by band; each side mode is sign-flipped to have
    positive overlap with its center partner on the quadrature nodes, the
    first ``len(weights)`` points.  A normalised overlap below
    ``min_overlap`` signals a branch crossing within the difference step.
    """
    traj, params, bc, bands, quad_points = solver_args
    side = solve_instantaneous_basis(
        traj, params, bc, t_side, bands, quad_points
    )
    vals, _ = side.values(points)
    inner = vals[:, : len(weights)]
    overlaps = np.sum(weights * inner * center_vals, axis=1)
    norms = np.sqrt(
        np.sum(weights * inner * inner, axis=1)
        * np.sum(weights * center_vals * center_vals, axis=1)
    )
    quality = np.abs(overlaps) / np.where(norms > 0, norms, 1.0)
    worst = int(np.argmin(quality))
    if norms[worst] == 0 or quality[worst] < min_overlap:
        raise SolverError(
            f"mode tracking lost for band {worst} between t={time_center}"
            f" and t={t_side}: normalised overlap {quality[worst]:.3f}"
        )
    return side.omega, np.where(overlaps < 0, -1.0, 1.0)[:, None] * vals


def assemble_vhat(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    dt_fd: float,
    bands: int,
    quad_points: Optional[int] = None,
) -> np.ndarray:
    """Real 2N x 2N generator block matrix at time t.

    Time derivatives of the eigen-solutions come from centered differences
    of sign-aligned bases at t - dt_fd and t + dt_fd; when mode tracking
    fails the step is halved a few times before giving up.  Each basis is
    evaluated once, on the quadrature nodes and both walls together.
    """
    basis = solve_instantaneous_basis(
        traj, params, bc, t, bands, quad_points
    )
    xm, xp = basis.x_minus, basis.x_plus
    vm, vp = traj.velocities(t)
    nodes, weights = _quadrature(xm, xp, bands, quad_points)
    points = np.append(nodes, [xm, xp])
    inner = len(nodes)
    solver_args = (traj, params, bc, bands, quad_points)

    vals_now, dvals_now = basis.values(points)
    psi = vals_now[:, :inner]
    step = dt_fd
    for _ in range(6):
        try:
            omega_before, before = _aligned_values(
                solver_args, t - step, psi, t, points, weights
            )
            omega_after, after = _aligned_values(
                solver_args, t + step, psi, t, points, weights
            )
            break
        except SolverError:
            step /= 2.0
    else:
        raise SolverError(
            f"mode tracking failed at t={t} even at dt_fd={step}"
        )

    size = 2 * bands
    omegas = basis.omega
    domega = (omega_after - omega_before) / (2.0 * step)
    dvals_dt = (after - before) / (2.0 * step)
    dpsi_dt = dvals_dt[:, :inner]

    # volume integrals, all pairs at once
    overlap = (psi * weights) @ psi.T  # int psi_n psi_m
    dt_overlap = (dpsi_dt * weights) @ psi.T  # int (d psi_n/dt) psi_m

    # wall values: left wall, right wall
    psi_end, dpsi_end = vals_now[:, inner:], dvals_now[:, inner:]
    dpsidt_end = dvals_dt[:, inner:]

    f_term = basis.f_term
    vb = np.array([-vm, vp])  # outward-normal wall speeds (left, right)
    total = (omegas[:, None] + omegas[None, :]) * dt_overlap
    total += (2.0 * omegas**2 + domega - f_term)[:, None] * overlap
    if bc is BoundaryCondition.NEUMANN:
        total -= (dpsidt_end * vb) @ psi_end.T
    else:
        normal_grad = dpsi_end * np.array([-1.0, 1.0])
        total += (dpsidt_end @ normal_grad.T) / omegas[None, :]
    hat_sign = np.where(np.arange(size) < bands, 1.0, -1.0)
    vhat = hat_sign[None, :] * total
    vhat[np.diag_indices(size)] -= omegas
    return vhat


def generator_matrix(vhat: np.ndarray) -> np.ndarray:
    """Complex generator M V-hat M* of the transformation equation."""
    bands = vhat.shape[0] // 2
    m = mode_transform_matrix(bands)
    return m @ vhat @ m.conj().T


# ---------------------------------------------------------------------------
# evolution


@dataclass(frozen=True)
class TransformationState:
    """Linear transformation between instantaneous bases over a window."""

    U: np.ndarray
    t_start: float
    t_current: float
    step_count: int
    bands: int
    checkpoints: Tuple[Tuple[float, np.ndarray], ...] = ()

    @property
    def alpha(self) -> np.ndarray:
        return self.U[: self.bands, : self.bands]

    @property
    def beta(self) -> np.ndarray:
        return self.U[: self.bands, self.bands :]


def bogoliubov_identity_residual(state: TransformationState) -> float:
    """Max-norm of alpha alpha^† - beta beta^† - I on the truncated block."""
    a, b = state.alpha, state.beta
    res = a @ a.conj().T - b @ b.conj().T - np.eye(state.bands)
    return float(np.max(np.abs(res)))


def _spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def evolve_transformation(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t0: float,
    tf: float,
    bands: int,
    step: Optional[float] = None,
    dt_fd: Optional[float] = None,
    quad_points: Optional[int] = None,
    checkpoint_times: Sequence[float] = (),
    absorb_phases: bool = False,
    verbose: bool = False,
) -> TransformationState:
    """Integrate the basis transformation from t0 to tf with fixed-step RK4.

    The default step targets 0.1 / omega_max; ``dt_fd`` (default step/10)
    sets the centered-difference width used inside the generator and
    should be held fixed when comparing runs at different steps.  With
    ``absorb_phases`` the free rotation of the start basis is factored out
    before integrating, which keeps the high-mode phases accurate and
    allows steps beyond 0.1 / omega_max.
    """
    for name, value in (("t0", t0), ("tf", tf)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if tf <= t0:
        raise ValueError("window must satisfy t0 < tf")
    for name, value in (("step", step), ("dt_fd", dt_fd)):
        if value is not None:
            require_positive(name, value)
    start_basis = solve_instantaneous_basis(
        traj, params, bc, t0, bands, quad_points
    )
    omega_max = float(np.max(np.abs(start_basis.frequencies)))
    if step is None:
        step = 0.1 / omega_max
    n_steps = max(1, int(math.ceil((tf - t0) / step)))
    dt = (tf - t0) / n_steps
    if dt_fd is None:
        dt_fd = dt / 10.0
    if verbose:
        import logging  # imported here so that quiet runs do not pay for it

        logging.getLogger(__name__).info(
            "integrating %d steps of dt=%.6g (guidance dt <= %.6g), "
            "dt_fd=%.6g", n_steps, dt, 0.1 / omega_max, dt_fd,
        )

    omega0 = start_basis.frequencies  # fixed phase reference

    def generator(t: float) -> np.ndarray:
        vhat = assemble_vhat(traj, params, bc, t, dt_fd, bands, quad_points)
        k = generator_matrix(vhat)
        if absorb_phases:
            phase = np.exp(1j * omega0 * (t - t0))
            k = (k - 1j * np.diag(omega0)) * np.outer(phase.conj(), phase)
        return k

    size = 2 * bands
    u = np.eye(size, dtype=complex)
    checkpoint_times = sorted(checkpoint_times)
    checkpoints = []
    next_cp = 0

    def record(t, u_now):
        nonlocal next_cp
        while next_cp < len(checkpoint_times) and checkpoint_times[
            next_cp
        ] <= t + 1e-12:
            u_out = u_now
            if absorb_phases:
                phase = np.exp(1j * omega0 * (t - t0))
                u_out = phase[:, None] * u_now
            checkpoints.append((t, u_out.copy()))
            next_cp += 1

    t = t0
    record(t, u)
    k1 = generator(t)
    for step_idx in range(n_steps):
        if step_idx == 0 or step_idx % 50 == 49:
            radius = _spectral_radius(dt * k1)
            if radius > 1.5:
                raise StabilityError(
                    f"dt * generator spectral radius {radius:.3f} > 1.5 at "
                    f"t={t:.6g}; reduce the step or the number of bands"
                )
        k2 = generator(t + dt / 2.0)
        k4 = generator(t + dt)
        d1 = k1 @ u
        d2 = k2 @ (u + 0.5 * dt * d1)
        d3 = k2 @ (u + 0.5 * dt * d2)
        d4 = k4 @ (u + dt * d3)
        u = u + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        t = t0 + (step_idx + 1) * dt
        record(t, u)
        k1 = k4  # the next step starts where this one ended
    if absorb_phases:
        phase = np.exp(1j * omega0 * (tf - t0))
        u = phase[:, None] * u
    return TransformationState(
        U=u,
        t_start=t0,
        t_current=tf,
        step_count=n_steps,
        bands=bands,
        checkpoints=tuple(checkpoints),
    )
