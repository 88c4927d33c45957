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

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BoundaryCondition,
    FieldParams,
    has_uniform_mode,
    positivity_shift,
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


@dataclass(frozen=True)
class BoundaryTrajectory:
    """Positions of the two cavity walls as functions of time.

    Velocities may be supplied analytically; otherwise they come from
    4th-order central differences with step ``fd_step``.
    """

    x_minus: TimeFunc
    x_plus: TimeFunc
    v_minus: Optional[TimeFunc] = None
    v_plus: Optional[TimeFunc] = None
    fd_step: float = 1e-6

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
        h = self.fd_step

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
    """Signed eigenpairs of the cavity at one time, both frequency branches."""

    time: float
    bc: BoundaryCondition
    params: FieldParams
    f_term: float
    plus: Tuple[InstantaneousMode, ...]
    minus: Tuple[InstantaneousMode, ...]

    @property
    def bands(self) -> int:
        return len(self.plus)

    @property
    def frequencies(self) -> np.ndarray:
        """All 2N signed frequencies, positive branch first."""
        return np.array(
            [m.omega for m in self.plus] + [m.omega for m in self.minus]
        )

    @property
    def modes(self) -> Tuple[InstantaneousMode, ...]:
        return self.plus + self.minus


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


def _char_det_vec(omegas, xm, xp, vm, vp, mass2f, bc):
    """Characteristic determinant evaluated on an array of frequencies."""
    omegas = np.asarray(omegas, dtype=float)
    lam = omegas * omegas - mass2f
    r0, r1 = _boundary_rows(
        omegas, lam, np.array([[xm], [xp]]), np.array([[vm], [vp]]), bc
    )
    return r0[0] * r1[1] - r1[0] * r0[1]


def _scan_grid(sign, xm, xp, mass2f, bands, density, skip_low):
    """Ascending-|omega| scan nodes covering the first ``bands`` roots.

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
        else math.pi / (density * length)
    )
    k_max = math.pi * (bands + 2) / length
    n_nodes = int(density * (bands + 2)) + 1
    ks = np.linspace(k_min, k_max, n_nodes)
    omegas = np.sqrt(ks * ks + mass2f)
    if mass2f > 0 and not skip_low:
        kaps = np.linspace(0.0, math.sqrt(mass2f), 33)[:-1]
        evan = np.sqrt(mass2f - kaps * kaps)[::-1]
        floor = 1e-9 * math.sqrt(mass2f)
        evan = evan[evan > floor]
        omegas = np.concatenate([[floor], evan, omegas])
    return sign * omegas


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
        inside = (mid > np.minimum(a, b)) & (mid < np.maximum(a, b))
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


def _find_branch_roots(
    sign, xm, xp, vm, vp, mass2f, bc, bands, density, skip_low
):
    nodes = _scan_grid(sign, xm, xp, mass2f, bands, density, skip_low)
    values = _char_det_vec(nodes, xm, xp, vm, vp, mass2f, bc)
    exact = values == 0.0
    crossing = np.nonzero((values[:-1] * values[1:] < 0) & ~exact[:-1])[0]
    # collect brackets and exact-node hits in ascending |omega| order
    events = sorted(
        [(i, "bracket") for i in crossing]
        + [(i, "node") for i in np.nonzero(exact)[0]]
    )[: bands]
    if len(events) < bands:
        raise SolverError(
            f"found only {len(events)} of {bands} eigenvalues on branch "
            f"{'+' if sign > 0 else '-'}; scan window [{nodes[0]:.6g}, "
            f"{nodes[-1]:.6g}] with {len(nodes)} nodes — increase the "
            "bracket density"
        )
    idx = np.array([i for i, kind in events if kind == "bracket"], dtype=int)
    f_vec = lambda w: _char_det_vec(w, xm, xp, vm, vp, mass2f, bc)
    polished = (
        _polish_roots(
            f_vec, nodes[idx], nodes[idx + 1], values[idx], values[idx + 1]
        )
        if len(idx)
        else np.empty(0)
    )
    roots, j = [], 0
    for i, kind in events:
        if kind == "node":
            roots.append(float(nodes[i]))
        else:
            roots.append(float(polished[j]))
            j += 1
    return roots


def _eval_many(modes: Sequence[InstantaneousMode], x):
    """Values and derivatives of many modes on shared points, batched."""
    lam = np.array([m.lam for m in modes])[:, None]
    a = np.array([m.a for m in modes])[:, None]
    b = np.array([m.b for m in modes])[:, None]
    c, s = _cs(np.asarray(x, dtype=float)[None, :], lam)
    return a * c + b * s, -lam * s * a + b * c


def _build_branch_modes(roots, xm, xp, vm, vp, mass2f, bc, nodes, weights):
    omegas = np.array(roots)
    lams = omegas * omegas - mass2f
    r0, r1 = _boundary_rows(
        omegas, lams, np.array([[xm], [xp]]), np.array([[vm], [vp]]), bc
    )
    # coefficient vector = null direction of the 2x2 boundary system,
    # taken from the better-conditioned row (left wall on a tie)
    left = r0[0] ** 2 + r1[0] ** 2 >= r0[1] ** 2 + r1[1] ** 2
    row0 = np.where(left, r0[0], r0[1])
    row1 = np.where(left, r1[0], r1[1])
    raw = []
    for omega, lam, p, q in zip(roots, lams, row0, row1):
        norm = math.hypot(p, q)
        if norm == 0:
            raise SolverError(f"degenerate boundary rows at omega={omega}")
        raw.append(
            InstantaneousMode(
                omega=omega,
                lam=float(lam),
                a=float(q / norm),
                b=float(-p / norm),
                x_minus=xm,
                x_plus=xp,
            )
        )
    # normalisation: (m^2 + F + omega^2) int psi^2 + int psi'^2 = |omega|
    psi, dpsi = _eval_many(raw, nodes)
    quad = (mass2f + omegas**2) * ((psi * psi) @ weights) + (
        dpsi * dpsi
    ) @ weights
    if np.any(quad <= 0):
        raise SolverError(f"non-positive norm form at omega={roots}")
    scale = np.sqrt(quad / np.abs(omegas))
    # deterministic sign: positive value at the cavity midpoint, positive
    # derivative when the midpoint is a node.  The two are compared on a
    # common scale and the dominant one decides, so that a node shifted
    # by a small boundary displacement cannot flip the convention.
    xc = 0.5 * (xm + xp)
    val_c, dval_c = _eval_many(raw, np.array([xc]))
    val_c = np.abs(omegas) * val_c[:, 0]
    dval_c = dval_c[:, 0]
    decider = np.where(np.abs(val_c) >= np.abs(dval_c), val_c, dval_c)
    factor = np.where(decider < 0, -1.0, 1.0) / scale
    return tuple(
        InstantaneousMode(
            omega=m.omega,
            lam=m.lam,
            a=m.a * f,
            b=m.b * f,
            x_minus=xm,
            x_plus=xp,
        )
        for m, f in zip(raw, factor)
    )


def solve_instantaneous_basis(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    bands: int,
    quad_points: Optional[int] = None,
    bracket_density: int = 4,
) -> InstantaneousBasis:
    """First ``bands`` eigenpairs of each frequency branch at time t.

    The characteristic determinant couples the eigenvalue to the boundary
    rows through the wall velocities, so roots are bracketed by a sign
    scan (``bracket_density`` nodes per half mode spacing) and polished by
    bisection.  Eigenfunctions are normalised in the velocity-compatible
    quadratic form and signed by the midpoint convention.
    """
    if bands < 1:
        raise ValueError(f"bands must be >= 1, got {bands}")
    xm, xp = traj.positions(t)
    vm, vp = traj.velocities(t)
    f_term = positivity_shift(params)
    mass2f = params.mass_term + f_term
    if quad_points is None:
        quad_points = max(64, 8 * bands)
    # The uniform mode survives only for a massive Neumann field, where
    # "massless" means m^2 + xi R^h is 0 in floating point (a mass below
    # about 1.5e-162 counts as massless; see ``has_uniform_mode``).  In all
    # other cases the band ladder starts at k ~ pi/L and the sub-band
    # velocity-induced solution (which collapses to the excluded zero
    # frequency as v -> 0) is left out to keep both branches aligned.
    skip_low = not (
        has_uniform_mode(params) and bc is BoundaryCondition.NEUMANN
    )
    nodes, weights = gauss_legendre(xm, xp, quad_points)
    branches = {}
    for sign in (1, -1):
        roots = _find_branch_roots(
            sign, xm, xp, vm, vp, mass2f, bc, bands, bracket_density,
            skip_low,
        )
        branches[sign] = _build_branch_modes(
            roots, xm, xp, vm, vp, mass2f, bc, nodes, weights
        )
    return InstantaneousBasis(
        time=t,
        bc=bc,
        params=params,
        f_term=f_term,
        plus=branches[1],
        minus=branches[-1],
    )


# ---------------------------------------------------------------------------
# generator assembly


def mode_transform_matrix(bands: int) -> np.ndarray:
    """Block matrix turning the real eigenbasis into frequency modes."""
    eye = np.eye(bands)
    return 0.5 * np.block(
        [[(1 - 1j) * eye, (1 + 1j) * eye], [(1 + 1j) * eye, (1 - 1j) * eye]]
    )


def _aligned_basis(
    solver_args, t_side, center_vals, time_center, nodes, weights,
    min_overlap=0.9,
):
    """Solve the basis at a neighbouring time, matched to the center basis.

    Modes are matched band by band; each side mode is sign-flipped to have
    positive overlap with its center partner.  A normalised overlap below
    ``min_overlap`` signals a branch crossing within the difference step.
    """
    traj, params, bc, bands, quad_points, density = solver_args
    side = solve_instantaneous_basis(
        traj, params, bc, t_side, bands, quad_points, density
    )
    vals, _ = _eval_many(side.modes, nodes)
    overlaps = np.sum(weights * vals * center_vals, axis=1)
    norms = np.sqrt(
        np.sum(weights * vals * vals, axis=1)
        * np.sum(weights * center_vals * center_vals, axis=1)
    )
    quality = np.abs(overlaps) / np.where(norms > 0, norms, 1.0)
    worst = int(np.argmin(quality))
    if norms[worst] == 0 or quality[worst] < min_overlap:
        raise SolverError(
            f"mode tracking lost for band {worst} between t={time_center}"
            f" and t={t_side}: normalised overlap {quality[worst]:.3f}"
        )
    aligned = [
        InstantaneousMode(
            omega=m.omega,
            lam=m.lam,
            a=-m.a,
            b=-m.b,
            x_minus=m.x_minus,
            x_plus=m.x_plus,
        )
        if overlaps[i] < 0
        else m
        for i, m in enumerate(side.modes)
    ]
    n = side.bands
    return InstantaneousBasis(
        time=side.time,
        bc=side.bc,
        params=side.params,
        f_term=side.f_term,
        plus=tuple(aligned[:n]),
        minus=tuple(aligned[n:]),
    )


def assemble_vhat(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    dt_fd: float,
    bands: int,
    quad_points: Optional[int] = None,
    bracket_density: int = 4,
    basis_now: Optional[InstantaneousBasis] = None,
) -> np.ndarray:
    """Real 2N x 2N generator block matrix at time t.

    Time derivatives of the eigen-solutions come from centered differences
    of sign-aligned bases at t - dt_fd and t + dt_fd; when mode tracking
    fails the step is halved a few times before giving up.
    """
    if quad_points is None:
        quad_points = max(64, 8 * bands)
    if basis_now is None:
        basis_now = solve_instantaneous_basis(
            traj, params, bc, t, bands, quad_points, bracket_density
        )
    xm, xp = traj.positions(t)
    vm, vp = traj.velocities(t)
    nodes, weights = gauss_legendre(xm, xp, quad_points)
    solver_args = (traj, params, bc, bands, quad_points, bracket_density)

    psi, _ = _eval_many(basis_now.modes, nodes)
    step = dt_fd
    for _ in range(6):
        try:
            before = _aligned_basis(
                solver_args, t - step, psi, t, nodes, weights
            )
            after = _aligned_basis(
                solver_args, t + step, psi, t, nodes, weights
            )
            break
        except SolverError:
            step /= 2.0
    else:
        raise SolverError(
            f"mode tracking failed at t={t} even at dt_fd={step}"
        )

    size = 2 * bands
    omegas = basis_now.frequencies
    domega = (after.frequencies - before.frequencies) / (2.0 * step)

    psi_after, _ = _eval_many(after.modes, nodes)
    psi_before, _ = _eval_many(before.modes, nodes)
    dpsi_dt = (psi_after - psi_before) / (2.0 * step)

    # volume integrals, all pairs at once
    overlap = (psi * weights) @ psi.T  # int psi_n psi_m
    dt_overlap = (dpsi_dt * weights) @ psi.T  # int (d psi_n/dt) psi_m

    ends = np.array([xm, xp])
    psi_end, dpsi_end = _eval_many(basis_now.modes, ends)
    after_end, _ = _eval_many(after.modes, ends)
    before_end, _ = _eval_many(before.modes, ends)
    dpsidt_end = (after_end - before_end) / (2.0 * step)

    f_term = basis_now.f_term
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
    bracket_density: int = 4,
    checkpoint_times: Sequence[float] = (),
    absorb_phases: bool = False,
    verbose: bool = False,
) -> TransformationState:
    """Integrate the basis transformation from t0 to tf with fixed-step RK4.

    The default step targets 0.1 / omega_max; ``dt_fd`` (default step/10)
    sets the centered-difference width used inside the generator and
    should be held fixed when comparing runs at different steps.  With
    ``absorb_phases`` the free rotation of the start basis is factored out
    before integrating, easing stiffness at large truncation.
    """
    for name, value in (("t0", t0), ("tf", tf)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if tf <= t0:
        raise ValueError("window must satisfy t0 < tf")
    start_basis = solve_instantaneous_basis(
        traj, params, bc, t0, bands, quad_points, bracket_density
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
    cache = {}

    def generator(t: float) -> np.ndarray:
        key = round(t, 12)
        if key not in cache:
            if len(cache) > 8:
                cache.clear()
            vhat = assemble_vhat(
                traj, params, bc, t, dt_fd, bands, quad_points, bracket_density
            )
            k = generator_matrix(vhat)
            if absorb_phases:
                phase = np.exp(1j * omega0 * (t - t0))
                k = (k - 1j * np.diag(omega0)) * np.outer(
                    phase.conj(), phase
                )
            cache[key] = k
        return cache[key]

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
    for step_idx in range(n_steps):
        k1 = generator(t)
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
