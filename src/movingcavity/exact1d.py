"""Non-perturbative evolution of a 1+1D field with moving boundaries.

Pipeline: solve the instantaneous eigenproblem with velocity-dependent
boundary conditions at each time, assemble the generator matrix from the
eigen-solutions and their centered-difference time derivatives, and
integrate the linear transformation between instantaneous bases with
fixed-step 4th-order Runge-Kutta.  The generator depends on t alone, so
its bases are solved and assembled in batched chunks of times ahead of
the step loop.  Blocks are ordered positive branch
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
    "solve_instantaneous_bases",
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
MIN_OVERLAP = 0.9  # normalised tracking overlap below which a node is redone
CHUNK_BYTES = 1 << 18  # one (basis time x 2N x point) array of a chunk


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
        s = np.sin(kx)
        s /= k
        return np.cos(kx), s
    # mixed regimes: each entry takes its own branch; the other branch is
    # evaluated at 0 so that cosh cannot overflow on an oscillatory entry
    k = np.sqrt(np.abs(lam))
    kx = k * x
    osc, evan = lam > 0, lam < 0
    kx_osc, kx_evan = np.where(osc, kx, 0.0), np.where(evan, kx, 0.0)
    c = np.where(osc, np.cos(kx_osc), np.cosh(kx_evan))  # lam == 0: c = 1
    s = np.where(osc, np.sin(kx_osc), np.sinh(kx_evan))
    s /= np.where(osc | evan, k, 1.0)
    return c, np.where(osc | evan, s, x)  # lam == 0: s = x


def _mode_values(lam, a, b, x, derivatives=True):
    """Values and x-derivatives of the modes (lam, a, b) at points ``x``.

    ``lam``, ``a`` and ``b`` are (..., 2N) and ``x`` is (..., P), with
    matching leading axes; the results are (..., 2N, P).  Without
    ``derivatives`` only the values are returned.  The work is done in
    place where it can be, as these arrays are the largest of a batch.
    """
    lam, a, b = lam[..., None], a[..., None], b[..., None]
    c, s = _cs(np.asarray(x, dtype=float)[..., None, :], lam)
    vals = a * c
    vals += b * s
    if not derivatives:
        return vals
    c *= b
    s *= lam * a
    c -= s
    return vals, c


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


def _wall_rows(omegas, walls, speeds, mass2f, bc):
    """Boundary rows of ``omegas`` at both walls, wall axis first.

    ``walls`` and ``speeds`` hold the (left, right) wall positions and
    speeds on their first axis; the rest broadcasts against ``omegas``.
    """
    lam = omegas * omegas - mass2f
    return _boundary_rows(omegas, lam, walls, speeds, bc)


def _char_det_vec(omegas, walls, speeds, mass2f, bc):
    """Characteristic determinant evaluated on an array of frequencies."""
    r0, r1 = _wall_rows(omegas, walls, speeds, mass2f, bc)
    return r0[0] * r1[1] - r1[0] * r0[1]


@functools.lru_cache(maxsize=8)
def _scan_fractions(bands, skip_low):
    """Scan wavenumbers in units of pi/L, ascending."""
    start = 0.5 if skip_low else 1.0 / BRACKET_DENSITY
    nodes = BRACKET_DENSITY * (bands + 2) + 1
    fractions = np.linspace(start, bands + 2, nodes)
    fractions.flags.writeable = False
    return fractions


def _scan_grid(length, mass2f, bands, skip_low):
    """Ascending |omega| scan nodes covering the first ``bands`` roots.

    One row per cavity length in the (T,) array ``length``, shape (T, G),
    and the number of leading nodes below k = pi/(2L).  With ``skip_low``
    the scan starts at k = pi/(2L), leaving out the
    boundary-velocity-induced solution below the first band (the massless
    uniform-mode descendant, dropped by convention); otherwise the
    evanescent window (omega^2 < m^2 + F) is scanned too so that
    near-threshold eigenvalues are bracketed.  The evanescent nodes depend
    on m^2 + F alone, so every row shares them.
    """
    fractions = _scan_fractions(bands, skip_low)
    ks = (np.pi / length)[:, None] * fractions
    omegas = np.sqrt(ks * ks + mass2f)
    sub_band = int(np.count_nonzero(fractions < 0.5))
    if mass2f > 0 and not skip_low:
        kaps = np.linspace(0.0, math.sqrt(mass2f), 33)[:-1]
        evan = np.sqrt(mass2f - kaps * kaps)[::-1]
        # a subnormal m^2 + F repeats nodes, each an exact zero at omega = m
        evan = evan[np.diff(evan, prepend=0.0) > 0]
        floor = 1e-9 * math.sqrt(mass2f)
        low = np.concatenate([[floor], evan[evan > floor]])
        omegas = np.concatenate(
            [np.broadcast_to(low, (len(length), len(low))), omegas], axis=1
        )
        sub_band += len(low)
    return omegas, sub_band


def _polish_roots(f_vec, a, b, fa, fb, max_iter=100, labels=None):
    """Vectorised Anderson-Bjorck iteration on sign-change brackets.

    Each root is taken at the first iterate that moves it by at most
    2e-15 relative (or hits an exact zero), so it does not depend on the
    other brackets of the batch.  Raises ``SolverError`` when some roots
    have not converged after ``max_iter`` iterations; the message names
    the ``labels`` entry (the time) of the first offending bracket when
    labels are given.
    """

    def fail(message, bad):
        if labels is not None:
            message += f" at t={labels[np.argmax(bad)]}"
        raise SolverError(message)

    a, b = a.copy(), b.copy()
    fa, fb = fa.copy(), fb.copy()
    prev = None
    roots = np.empty_like(a)
    done = np.zeros(a.shape, dtype=bool)
    for _ in range(max_iter):
        denom = np.where(fb != fa, fb - fa, 1.0)
        mid = b - fb * (b - a) / denom
        # closed interval: a secant step onto a root at b must stay there
        inside = (mid >= np.minimum(a, b)) & (mid <= np.maximum(a, b))
        mid = np.where(inside, mid, 0.5 * (a + b))
        fm = f_vec(mid)
        finite = np.isfinite(fm)
        if not finite.all():
            fail("characteristic function returned non-finite", ~finite)
        opposite = fm * fb < 0
        # same-side updates rescale fa to avoid regula-falsi stagnation
        gamma = 1.0 - np.where(fb != 0, fm / np.where(fb != 0, fb, 1.0), 0.0)
        gamma = np.where(gamma > 0, gamma, 0.5)
        a = np.where(opposite, b, a)
        fa = np.where(opposite, fb, gamma * fa)
        b, fb = mid, fm
        if prev is not None:
            settled = (np.abs(mid - prev) <= 2e-15 * np.abs(mid)) | (fm == 0.0)
            settled &= ~done
            roots[settled] = mid[settled]
            done |= settled
            if done.all():
                return roots
        prev = mid
    fail(f"root polish did not converge in {max_iter} iterations", ~done)


def _find_roots(times, walls, speeds, mass2f, bc, bands, skip_low):
    """First ``bands`` roots of each branch at each time, (T, 2N), + first.

    ``walls`` and ``speeds`` are (2, T).  Both branches of every time are
    scanned at once on the signed grids ``[grid, -grid]``; an event is an
    exact zero at a node or a sign change to the next node.  All brackets
    share one polish.
    """
    grid, sub_band = _scan_grid(walls[1] - walls[0], mass2f, bands, skip_low)
    nodes = grid[:, None, :] * np.array([[1.0], [-1.0]])  # (T, 2, G)
    values = _char_det_vec(
        nodes, walls[:, :, None, None], speeds[:, :, None, None], mass2f, bc
    )
    exact = values == 0.0
    event = exact.copy()
    event[..., :-1] |= values[..., :-1] * values[..., 1:] < 0
    # A root below k = pi/(2L) is kept only when both branches have one.
    # At a tiny mass on a moving wall the - branch root (near -1e3 m^2)
    # falls below the scan floor while the + branch root does not, which
    # would put the branches a band apart.
    if sub_band:
        paired = np.all(np.any(event[..., :sub_band], axis=2), axis=1)
        event[~paired, :, :sub_band] = False
    found = event.sum(axis=2)
    if np.any(found < bands):
        i, row = np.argwhere(found < bands)[0]  # first time, + branch first
        raise SolverError(
            f"found only {found[i, row]} of {bands} eigenvalues on branch "
            f"{'+-'[row]} at t={times[i]}; scan window "
            f"[{nodes[i, row, 0]:.6g}, {nodes[i, row, -1]:.6g}] with "
            f"{grid.shape[1]} nodes"
        )
    ts, rows, cols = np.nonzero(event & (np.cumsum(event, axis=2) <= bands))
    roots = nodes[ts, rows, cols]
    bracket = ~exact[ts, rows, cols]
    if np.any(bracket):
        t, r, i = ts[bracket], rows[bracket], cols[bracket]
        bracket_walls, bracket_speeds = walls[:, t], speeds[:, t]
        roots[bracket] = _polish_roots(
            lambda w: _char_det_vec(
                w, bracket_walls, bracket_speeds, mass2f, bc
            ),
            nodes[t, r, i], nodes[t, r, i + 1],
            values[t, r, i], values[t, r, i + 1], labels=times[t],
        )
    return roots.reshape(len(times), 2 * bands)


def _normalised_modes(times, omega, walls, speeds, mass2f, bc, nodes, weights):
    """``lam``, ``a`` and ``b`` of the normalised, signed mode of each root.

    ``omega`` is (T, 2N), ``walls`` and ``speeds`` (2, T) and the
    quadrature ``nodes`` and ``weights`` (T, Q); errors name the first
    offending time.
    """
    lam = omega * omega - mass2f
    r0, r1 = _wall_rows(
        omega, walls[:, :, None], speeds[:, :, None], mass2f, bc
    )
    # coefficient vector = null direction of the 2x2 boundary system,
    # taken from the better-conditioned row (left wall on a tie)
    left = r0[0] ** 2 + r1[0] ** 2 >= r0[1] ** 2 + r1[1] ** 2
    p = np.where(left, r0[0], r0[1])
    q = np.where(left, r1[0], r1[1])
    norm = np.hypot(p, q)
    if np.any(norm == 0):
        i = np.argmax(np.any(norm == 0, axis=1))
        raise SolverError(
            f"degenerate boundary rows at t={times[i]}, "
            f"omega={omega[i][norm[i] == 0]}"
        )
    a, b = q / norm, -p / norm
    # normalisation: (m^2 + F + omega^2) int psi^2 + int psi'^2 = |omega|
    middle = 0.5 * (walls[0] + walls[1])
    vals, dvals = _mode_values(
        lam, a, b, np.concatenate([nodes, middle[:, None]], axis=1)
    )
    psi, dpsi = vals[..., :-1], dvals[..., :-1]
    w = weights[..., None]
    quad = (mass2f + omega**2) * ((psi * psi) @ w)[..., 0] + (
        (dpsi * dpsi) @ w
    )[..., 0]
    if np.any(quad <= 0):
        i = np.argmax(np.any(quad <= 0, axis=1))
        raise SolverError(
            f"non-positive norm form at t={times[i]}, omega={omega[i]}"
        )
    scale = np.sqrt(quad / np.abs(omega))
    # deterministic sign: positive value at the cavity midpoint, positive
    # derivative when the midpoint is a node.  The two are compared on a
    # common scale and the dominant one decides, so that a node shifted
    # by a small boundary displacement cannot flip the convention.
    val_c = np.abs(omega) * vals[..., -1]
    dval_c = dvals[..., -1]
    decider = np.where(np.abs(val_c) >= np.abs(dval_c), val_c, dval_c)
    factor = np.where(decider < 0, -1.0, 1.0) / scale
    return lam, a * factor, b * factor


def _quad_count(bands, quad_points):
    """Gauss-Legendre nodes per basis: ``quad_points``, else max(64, 8N)."""
    if quad_points is None:
        return max(64, 8 * bands)
    if quad_points < 1:
        raise ValueError(f"quad_points must be >= 1, got {quad_points}")
    return quad_points


def _walls(traj, times):
    """Wall positions and wall speeds at ``times``, each (2, T), left first.

    The times are checked in order, so an invalid trajectory is reported
    at the first offending one.
    """
    rows = [traj.positions(t) + traj.velocities(t) for t in times]
    table = np.array(rows, dtype=float).reshape(len(rows), 4).T
    return table[:2], table[2:]


def solve_instantaneous_bases(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    times: Sequence[float],
    bands: int,
    quad_points: Optional[int] = None,
) -> Tuple[InstantaneousBasis, ...]:
    """First ``bands`` eigenpairs of each frequency branch at each time.

    The characteristic determinant couples the eigenvalue to the boundary
    rows through the wall velocities, so roots are bracketed by a sign
    scan (``BRACKET_DENSITY`` nodes per half mode spacing) and polished by
    Anderson-Bjorck iteration.  Eigenfunctions are normalised in the
    velocity-compatible quadratic form and signed by the midpoint
    convention.  All times share one scan on a (time x branch x node)
    array, one polish over every bracket and one normalisation pass, so
    a batch costs few numpy calls more than a single time.  Errors keep
    their types and name the first offending time in the order given.
    """
    if bands < 1:
        raise ValueError(f"bands must be >= 1, got {bands}")
    times = np.asarray(times, dtype=float).reshape(-1)
    walls, speeds = _walls(traj, times.tolist())
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
    omega = _find_roots(times, walls, speeds, mass2f, bc, bands, skip_low)
    nodes, weights = gauss_legendre(
        walls[0][:, None], walls[1][:, None], _quad_count(bands, quad_points)
    )
    lam, a, b = _normalised_modes(
        times, omega, walls, speeds, mass2f, bc, nodes, weights
    )
    for array in (omega, lam, a, b):
        array.flags.writeable = False
    return tuple(
        InstantaneousBasis(
            time=t,
            bc=bc,
            params=params,
            f_term=f_term,
            omega=omega[i],
            lam=lam[i],
            a=a[i],
            b=b[i],
            x_minus=x_minus,
            x_plus=x_plus,
        )
        for i, (t, x_minus, x_plus) in enumerate(
            zip(times.tolist(), *walls.tolist())
        )
    )


def solve_instantaneous_basis(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    bands: int,
    quad_points: Optional[int] = None,
) -> InstantaneousBasis:
    """First ``bands`` eigenpairs of each frequency branch at time t.

    The one-time case of ``solve_instantaneous_bases``.
    """
    return solve_instantaneous_bases(
        traj, params, bc, (t,), bands, quad_points
    )[0]


# ---------------------------------------------------------------------------
# generator assembly


def mode_transform_matrix(bands: int) -> np.ndarray:
    """Block matrix turning the real eigenbasis into frequency modes."""
    eye = np.eye(bands)
    return 0.5 * np.block(
        [[(1 - 1j) * eye, (1 + 1j) * eye], [(1 + 1j) * eye, (1 - 1j) * eye]]
    )


def _align(side_vals, center_psi, weights):
    """Sign-align side mode values to their center partners, in place.

    ``side_vals`` (..., 2N, P) are the modes of a neighbouring time on the
    center's points, whose first Q are the quadrature nodes with
    ``weights`` (..., Q); ``center_psi`` (..., 2N, Q) are the center modes
    there.  Each side mode is flipped to have positive overlap with its
    center partner.  Returns the normalised overlap of each pair,
    (..., 2N): below ``MIN_OVERLAP`` it signals a branch crossing within
    the difference step.
    """
    w = weights[..., None]
    inner = side_vals[..., : weights.shape[-1]]
    overlaps = ((inner * center_psi) @ w)[..., 0]
    norms = np.sqrt(
        ((inner * inner) @ w)[..., 0] * ((center_psi * center_psi) @ w)[..., 0]
    )
    side_vals *= np.where(overlaps < 0, -1.0, 1.0)[..., None]
    return np.abs(overlaps) / np.where(norms > 0, norms, 1.0)


def _vhat(omegas, omega_before, omega_after, now, before, after, step,
          weights, speeds, f_term, bc):
    """Real 2N x 2N generator blocks of C nodes, (C, 2N, 2N).

    ``omegas`` (C, 2N) are the frequencies at the nodes and
    ``omega_before``/``omega_after`` those at t -/+ ``step``; ``now`` is
    the (values, x-derivatives) pair of the nodes' modes and
    ``before``/``after`` the sign-aligned side values, each (C, 2N, Q + 2)
    on the Q quadrature nodes (``weights``, (C, Q)) and then the left and
    right walls; ``speeds`` (C, 2) are the wall velocities.
    """
    inner = weights.shape[-1]
    vals_now, dvals_now = now
    domega = (omega_after - omega_before) / (2.0 * step)
    dvals_dt = after - before
    dvals_dt /= 2.0 * step
    psi = vals_now[..., :inner]
    dpsi_dt = dvals_dt[..., :inner]
    psi_t = np.swapaxes(psi, -1, -2)
    w = weights[..., None, :]

    # volume integrals, all pairs at once
    overlap = (psi * w) @ psi_t  # int psi_n psi_m
    dt_overlap = (dpsi_dt * w) @ psi_t  # int (d psi_n/dt) psi_m

    # wall values: left wall, right wall
    psi_end, dpsi_end = vals_now[..., inner:], dvals_now[..., inner:]
    dpsidt_end = dvals_dt[..., inner:]

    total = (omegas[..., :, None] + omegas[..., None, :]) * dt_overlap
    total += (2.0 * omegas**2 + domega - f_term)[..., :, None] * overlap
    outward = np.array([-1.0, 1.0])  # outward normal (left, right)
    if bc is BoundaryCondition.NEUMANN:
        vb = (speeds * outward)[..., None, :]  # outward-normal wall speeds
        total -= (dpsidt_end * vb) @ np.swapaxes(psi_end, -1, -2)
    else:
        normal_grad = dpsi_end * outward
        total += (dpsidt_end @ np.swapaxes(normal_grad, -1, -2)) / omegas[
            ..., None, :
        ]
    size = omegas.shape[-1]
    hat_sign = np.where(np.arange(size) < size // 2, 1.0, -1.0)
    vhat = hat_sign * total
    diag = np.arange(size)
    vhat[..., diag, diag] -= omegas
    return vhat


def _chunk_vhats(traj, params, bc, times, dt_fd, bands, quad_points):
    """Generator blocks at the nodes ``times``, (C, 2N, 2N), in one pass.

    The nodes and their +-dt_fd sides are solved in one batched call and
    the blocks assembled together.  Also returns, per node, whether mode
    tracking to a side was lost (``_align``); such a node's block is not
    valid and must be redone with a smaller difference step.
    """
    basis_times = np.stack([times, times - dt_fd, times + dt_fd], axis=1)
    bases = solve_instantaneous_bases(
        traj, params, bc, basis_times.ravel(), bands, quad_points
    )
    lam, a, b, omega = (
        np.array([getattr(basis, name) for basis in bases]).reshape(
            len(times), 3, -1
        )
        for name in ("lam", "a", "b", "omega")
    )
    xm = np.array([[basis.x_minus] for basis in bases[::3]])
    xp = np.array([[basis.x_plus] for basis in bases[::3]])
    nodes, weights = gauss_legendre(xm, xp, _quad_count(bands, quad_points))
    points = np.concatenate([nodes, xm, xp], axis=1)
    now = _mode_values(lam[:, 0], a[:, 0], b[:, 0], points)
    sides = _mode_values(  # (C, 2, 2N, P): before, after
        lam[:, 1:], a[:, 1:], b[:, 1:], points[:, None], derivatives=False
    )
    quality = _align(
        sides, now[0][:, None, :, : nodes.shape[1]], weights[:, None]
    )
    lost = np.any(quality < MIN_OVERLAP, axis=(1, 2))
    speeds = np.array([traj.velocities(t) for t in times.tolist()])
    vhat = _vhat(
        omega[:, 0], omega[:, 1], omega[:, 2], now, sides[:, 0], sides[:, 1],
        dt_fd, weights, speeds, bases[0].f_term, bc,
    )
    return vhat, lost


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
    of sign-aligned bases at t - dt_fd and t + dt_fd.  This is the
    one-node call of the chunk assembly in ``evolve_transformation``,
    with a retry: when mode tracking to a side fails, or a side basis
    cannot be solved, the difference step is halved up to six times.
    """
    step = dt_fd
    for _ in range(6):
        try:
            vhat, lost = _chunk_vhats(
                traj, params, bc, np.array([float(t)]), step, bands,
                quad_points,
            )
            if not lost[0]:
                return vhat[0]
        except SolverError:
            pass
        step /= 2.0
    # a basis that cannot be solved at t itself raises its own error here
    solve_instantaneous_basis(traj, params, bc, t, bands, quad_points)
    raise SolverError(f"mode tracking failed at t={t} even at dt_fd={step}")


def generator_matrix(vhat: np.ndarray) -> np.ndarray:
    """Complex generator M V-hat M* of the transformation equation.

    ``vhat`` may carry leading node axes.
    """
    bands = vhat.shape[-1] // 2
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

    The generator depends on t alone, so its nodes (t0, then the midpoint
    and end of each step) are known in advance.  They are taken in chunks
    sized so that one (basis time x 2N x point) array stays within
    ``CHUNK_BYTES``: each chunk's nodes and their +-dt_fd sides are solved
    in one ``solve_instantaneous_bases`` call and its generator blocks
    assembled together, leaving only the 2N x 2N products of RK4 to the
    step loop.  A node whose tracking overlap to a side falls below
    ``MIN_OVERLAP`` is redone by ``assemble_vhat``, which halves the
    difference step up to six times.  A chunk whose batched solve raises
    is redone node by node in the same way, so an error surfaces with its
    type at the first offending node, as if every node were solved alone.
    With ``verbose`` the step plan and the chunk counts are logged to the
    ``movingcavity.exact1d`` logger.
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
    size = 2 * bands
    basis_bytes = size * (_quad_count(bands, quad_points) + 2) * 8
    chunk_nodes = max(1, CHUNK_BYTES // (3 * basis_bytes))
    if verbose:
        import logging  # imported here so that quiet runs do not pay for it

        log = logging.getLogger(__name__)
        log.info(
            "integrating %d steps of dt=%.6g (guidance dt <= %.6g), "
            "dt_fd=%.6g", n_steps, dt, 0.1 / omega_max, dt_fd,
        )

    omega0 = start_basis.frequencies  # fixed phase reference

    def generators(vhat, times):
        k = generator_matrix(vhat)
        if absorb_phases:
            phase = np.exp(1j * omega0 * (times - t0)[:, None])
            k = (k - 1j * np.diag(omega0)) * (
                phase.conj()[:, :, None] * phase[:, None, :]
            )
        return k

    # t0, then the midpoint and the end of each step
    starts = t0 + np.arange(n_steps) * dt
    node_times = np.empty(2 * n_steps + 1)
    node_times[0] = t0
    node_times[1::2] = starts + dt / 2.0
    node_times[2::2] = starts + dt
    batched = per_node = 0  # bases solved in batches, nodes redone alone

    def node_generators():
        nonlocal batched, per_node
        for first in range(0, len(node_times), chunk_nodes):
            times = node_times[first : first + chunk_nodes]
            try:
                vhat, lost = _chunk_vhats(
                    traj, params, bc, times, dt_fd, bands, quad_points
                )
                ks = generators(vhat, times)
                batched += 3 * len(times)
            except (SolverError, InvalidTrajectoryError):
                lost = np.ones(len(times), dtype=bool)
            for i, t in enumerate(times.tolist()):
                if lost[i]:
                    per_node += 1
                    vhat = assemble_vhat(
                        traj, params, bc, t, dt_fd, bands, quad_points
                    )
                    yield generators(vhat[None], np.array([t]))[0]
                else:
                    yield ks[i]

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
    ks = node_generators()
    k1 = next(ks)
    for step_idx in range(n_steps):
        if step_idx == 0 or step_idx % 50 == 49:
            radius = _spectral_radius(dt * k1)
            if radius > 1.5:
                raise StabilityError(
                    f"dt * generator spectral radius {radius:.3f} > 1.5 at "
                    f"t={t:.6g}; reduce the step or the number of bands"
                )
        k2 = next(ks)
        k4 = next(ks)
        d1 = k1 @ u
        d2 = k2 @ (u + 0.5 * dt * d1)
        d3 = k2 @ (u + 0.5 * dt * d2)
        d4 = k4 @ (u + dt * d3)
        u = u + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        t = t0 + (step_idx + 1) * dt
        record(t, u)
        k1 = k4  # the next step starts where this one ended
    if verbose:
        chunks = -(-len(node_times) // chunk_nodes)
        log.info(
            "%d chunks of up to %d nodes, %d bases solved in batches; "
            "%d of %d nodes fell back to per-node solves",
            chunks, chunk_nodes, batched, per_node, len(node_times),
        )
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
