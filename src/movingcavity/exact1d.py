"""Non-perturbative evolution of a 1+1D field with moving boundaries.

Pipeline: solve the instantaneous eigenproblem with velocity-dependent
boundary conditions at each time, assemble the generator matrix from the
eigen-solutions and their time derivatives, and integrate the linear
transformation between instantaneous bases with a fixed-step 4th-order
Magnus method, whose matrix exponential follows the fast free phases
exactly.  The time derivatives are exact: the roots move as
-(dD/dt)/(dD/domega) on the characteristic determinant D, which brings
in the wall accelerations, and the modes follow from the null vector of
the boundary rows and from their norm.  The generator depends on t
alone, so every node's eigenproblem is solved ahead of the step loop in
two layouts: the roots in large root batches, one sign scan and one
polish each, and the modes and generator blocks in smaller point
chunks, in one workspace per evolution, where the exponentials of
each chunk's Magnus steps are taken as one stack.  The steps run on the
real generator blocks; the unitary change to the frequency modes is
applied to the product only.  Blocks are ordered positive branch first,
then negative branch; with static start and end slices the top blocks
of the transformation are the mode-mixing and pair-creation
coefficients.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BoundaryCondition,
    FieldParams,
    expm,
    has_uniform_mode,
    positivity_shift,
    require_finite,
    require_positive,
)
from .staticmodes import band_limited_points, gauss_legendre

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
ACCEL_STEP = 1e-3  # finite-difference step for wall accelerations
LAM_SERIES_CUT = 1e-3  # |lam| x^2 below which ds/dlam takes its series
BRACKET_DENSITY = 4  # root-scan nodes per half mode spacing
CHUNK_BYTES = 1 << 18  # one array of a point chunk or of a root batch's grid

_log = logging.getLogger(__name__)


def _first_difference(f, t, h):
    """4th-order central difference of f' at t with step h."""
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (
        12 * h
    )


def _second_difference(f, t, h):
    """4th-order central difference of f'' at t with step h."""
    return (
        -f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h)
        - f(t - 2 * h)
    ) / (12 * h * h)


def _require_finite(what, values, t):
    for value in values:
        if not math.isfinite(value):
            raise InvalidTrajectoryError(f"non-finite {what} {value} at t={t}")


@dataclass(frozen=True)
class BoundaryTrajectory:
    """Positions of the two cavity walls as functions of time.

    Velocities and accelerations may be supplied analytically.  Otherwise
    velocities come from 4th-order central differences of the positions
    with step ``FD_STEP``, and accelerations from 4th-order central
    differences with step ``ACCEL_STEP``: of the velocities when those
    are supplied, else second differences of the positions.  Every value
    must be finite, and speeds below 1.
    """

    x_minus: TimeFunc
    x_plus: TimeFunc
    v_minus: Optional[TimeFunc] = None
    v_plus: Optional[TimeFunc] = None
    a_minus: Optional[TimeFunc] = None
    a_plus: Optional[TimeFunc] = None

    @staticmethod
    def static(x_minus: float, x_plus: float) -> "BoundaryTrajectory":
        zero = lambda t: 0.0
        return BoundaryTrajectory(
            x_minus=lambda t: x_minus,
            x_plus=lambda t: x_plus,
            v_minus=zero,
            v_plus=zero,
            a_minus=zero,
            a_plus=zero,
        )

    def positions(self, t: float) -> Tuple[float, float]:
        xm, xp = float(self.x_minus(t)), float(self.x_plus(t))
        _require_finite("wall position", (xm, xp), t)
        if xp <= xm:
            raise InvalidTrajectoryError(
                f"boundaries crossed at t={t}: x_-={xm}, x_+={xp}"
            )
        return xm, xp

    def velocities(self, t: float) -> Tuple[float, float]:
        def rate(x, v):
            if v is not None:
                return float(v(t))
            return _first_difference(x, t, FD_STEP)

        speeds = (
            rate(self.x_minus, self.v_minus), rate(self.x_plus, self.v_plus)
        )
        _require_finite("wall speed", speeds, t)
        for v in speeds:
            if abs(v) >= 1.0:
                raise InvalidTrajectoryError(
                    f"boundary speed |{v}| >= 1 at t={t}"
                )
        return speeds

    def accelerations(self, t: float) -> Tuple[float, float]:
        def rate(x, v, a):
            if a is not None:
                return float(a(t))
            if v is not None:
                return _first_difference(v, t, ACCEL_STEP)
            return _second_difference(x, t, ACCEL_STEP)

        accels = (
            rate(self.x_minus, self.v_minus, self.a_minus),
            rate(self.x_plus, self.v_plus, self.a_plus),
        )
        _require_finite("wall acceleration", accels, t)
        return accels


# ---------------------------------------------------------------------------
# regular basis functions: c and s solve psi'' = -lam psi with
# c(0)=1, c'(0)=0, s(0)=0, s'(0)=1, smooth in lam through zero
# (oscillatory lam > 0, evanescent lam < 0).


def _cs(x, lam, out=None):
    """c and s at points ``x`` for spectral parameters ``lam``, broadcast.

    ``out`` is a pair of float arrays of the broadcast shape that receive
    c and s; both are allocated when it is omitted.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    c_out, s_out = (None, None) if out is None else out
    if lam.size and lam.min() > 0:  # all oscillatory: no mask work
        k = np.sqrt(lam)
        # s is computed in place, in an array even for 0-d arguments
        kx = s = np.asarray(np.multiply(k, x, out=s_out))
        c = np.cos(kx, out=c_out)
        np.sin(kx, out=s)
        s /= k
        return c, s
    # mixed regimes: each entry takes its own branch and no other, so that
    # cosh cannot overflow on an oscillatory entry
    k = np.sqrt(np.abs(lam))
    osc, evan = lam > 0, lam < 0
    kx = s = np.asarray(np.multiply(k, x, out=s_out))
    c = np.empty_like(s) if c_out is None else c_out
    np.cos(kx, out=c, where=osc)
    np.cosh(kx, out=c, where=evan)
    np.sin(kx, out=s, where=osc)
    np.sinh(kx, out=s, where=evan)
    np.divide(s, k, out=s, where=osc | evan)
    rest = ~(osc | evan)  # lam == 0: c = 1, s = x
    np.copyto(c, 1.0, where=rest)
    np.copyto(s, x, where=rest)
    return c, s


def _cs_rates(x, lam, c, s, out=None, reach=None):
    """lam-derivatives of c and s from their values at ``x``, broadcast.

    dc/dlam = -x s / 2 and ds/dlam = (x c - s) / (2 lam) hold in both
    regimes.  The second cancels as lam x^2 -> 0, so a mode whose
    |lam| X^2 is below ``LAM_SERIES_CUT``, X the largest |x| along the
    last (point) axis, takes its series -x^3/6 + lam x^5/60 -
    lam^2 x^7/1680 at all its points.  ``reach`` replaces X^2 when given,
    broadcast against ``lam``.  ``out`` is a pair of arrays shaped like
    ``c`` that receive the two; both are allocated when it is omitted.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dc_out, ds_out = (None, None) if out is None else out
    dc = np.multiply(-0.5 * x, s, out=dc_out)
    ds = np.multiply(x, c, out=ds_out)
    ds -= s
    if reach is None:
        reach = np.max(x * x, axis=-1, keepdims=True)
    small = np.abs(lam) * reach < LAM_SERIES_CUT
    if not small.any():
        ds /= 2.0 * lam
        return dc, ds
    np.divide(ds, 2.0 * lam, out=ds, where=~small)
    u = lam * (x * x)
    series = x**3 * (-1.0 / 6.0 + u * (1.0 / 60.0 - u / 1680.0))
    np.copyto(ds, series, where=small)
    return dc, ds


def _combine(lam, a, b, c, s, out=None, scratch=None):
    """Values and x-derivatives of the modes a c + b s, from c and s.

    ``lam``, ``a`` and ``b`` are (..., 2N) and ``c``, ``s`` (..., 2N, P).
    ``out`` is a pair of arrays shaped like ``c`` that receive the two
    and ``scratch`` one more for the products; each is allocated when
    omitted.
    """
    lam, a, b = lam[..., None], a[..., None], b[..., None]
    vals_out, dvals_out = (None, None) if out is None else out
    vals = np.multiply(a, c, out=vals_out)
    vals += np.multiply(b, s, out=scratch)
    dvals = np.multiply(b, c, out=dvals_out)
    dvals -= np.multiply(lam * a, s, out=scratch)
    return vals, dvals


def _mode_values(lam, a, b, x):
    """Values and x-derivatives of the modes (lam, a, b) at points ``x``.

    ``lam``, ``a`` and ``b`` are (..., 2N) and ``x`` is (..., P), with
    matching leading axes; the results are (..., 2N, P).
    """
    c, s = _cs(np.asarray(x, dtype=float)[..., None, :], lam[..., None])
    return _combine(lam, a, b, c, s)


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


@dataclass(frozen=True, eq=False)
class InstantaneousBasis:
    """Signed eigenpairs of the cavity at one time, both frequency branches.

    Mode i is psi_i = a[i] c(x; lam[i]) + b[i] s(x; lam[i]) with signed
    frequency omega[i]; the four read-only arrays have shape (2N,), the
    positive branch first.  ``modes``, ``plus`` and ``minus`` present the
    same numbers as ``InstantaneousMode`` objects, built on first access.
    Bases compare and hash by identity.
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


def _boundary_rows(omega, lam, c, s, v, bc):
    """Boundary-condition row (on the c and s coefficients) at a wall.

    ``c`` and ``s`` are the basis functions at the wall and ``v`` its
    speed, broadcast against the frequencies ``omega`` and their
    ``lam = omega^2 - (m^2 + F)``.  Both conditions read
    A (c, s) + B (c', s') with c' = -lam s and s' = c.
    """
    if bc is BoundaryCondition.NEUMANN:
        # psi'(x_e) + omega v_e psi(x_e) = 0 at both walls
        return -lam * s + omega * v * c, c + omega * v * s
    # omega psi(x_e) + v_e psi'(x_e) = 0 at both walls
    return omega * c - v * lam * s, omega * s + v * c


def _boundary_rates(omega, lam, x, c, s, dc, ds, v, bc):
    """Partial derivatives of ``_boundary_rows`` by x, v and omega.

    Each is a (c, s)-coefficient pair.  ``x`` is the wall and ``dc``,
    ``ds`` the lam-derivatives of c and s there (``_cs_rates``); omega
    moves lam by d lam = 2 omega d omega.  By x the row (p, q) goes to
    (-lam q, p) under either condition, as c' = -lam s and s' = c.
    """
    p, q = _boundary_rows(omega, lam, c, s, v, bc)
    by_x = (-lam * q, p)
    # lam-derivatives of c' = -lam s and s' = c
    dc_prime, ds_prime = -0.5 * (s + x * c), dc
    two_omega = 2.0 * omega
    if bc is BoundaryCondition.NEUMANN:  # A = omega v, B = 1
        by_v = (omega * c, omega * s)
        by_omega = (
            v * c + two_omega * (dc_prime + omega * v * dc),
            v * s + two_omega * (ds_prime + omega * v * ds),
        )
    else:  # A = omega, B = v
        by_v = (-lam * s, c)
        by_omega = (
            c + two_omega * (omega * dc + v * dc_prime),
            s + two_omega * (omega * ds + v * ds_prime),
        )
    return by_x, by_v, by_omega


def _char_det(omega, length, v_minus, v_plus, mass2f, bc, lam=None,
              slope=False):
    """Characteristic determinant D = p_- q_+ - p_+ q_- of the wall rows.

    D depends on the walls only through the cavity length L = x_+ - x_-:
    the Wronskian identities c_- s_+ - s_- c_+ = s(L) and
    c_- c_+ + lam s_- s_+ = c(L) hold in every regime, so with
    dv = v_+ - v_- and lam = omega^2 - (m^2 + F)

        Dirichlet: D = (omega^2 + v_- v_+ lam) s(L) + omega dv c(L),
        Neumann:   D = (lam + omega^2 v_- v_+) s(L) - omega dv c(L).

    ``length`` and the speeds broadcast against ``omega``; ``lam`` may be
    given in any shape that broadcasts against it: c and s depend on lam
    alone, so a scan of both branches evaluates them once for the two.
    With ``slope`` the result is (D, dD/domega), the slope in closed form
    from ``_cs_rates`` with d lam = 2 omega d omega; whether s takes its
    series there is decided for each entry on its own.
    """
    square, product = omega * omega, v_minus * v_plus
    if lam is None:
        lam = square - mass2f
    c, s = _cs(length, lam)
    # D = s_term s(L) + omega gap c(L); gap is also d(omega gap)/d omega
    if bc is BoundaryCondition.NEUMANN:
        s_term, gap = lam + product * square, v_minus - v_plus
    else:
        s_term, gap = square + product * lam, v_plus - v_minus
    c_term = omega * gap
    det = s_term * s + c_term * c
    if not slope:
        return det
    # each entry is one mode at its one point: the series cut is its own
    dc, ds = _cs_rates(length, lam, c, s, reach=length * length)
    # d s_term/d omega = 2 omega (1 + v_- v_+) under either condition
    by_lam = (1.0 + product) * s + s_term * ds + c_term * dc
    return det, 2.0 * omega * by_lam + gap * c


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


def _polish_roots(f, a, b, fa, fb, max_iter=100, labels=None):
    """Vectorised safeguarded Newton iteration on sign-change brackets.

    ``f`` returns the function and its slope at an array of points.  Each
    bracket (a, b), in either order, starts at its regula-falsi point.
    Every iterate replaces the end whose value has its sign, and an exact
    zero closes the bracket onto itself.  A Newton step that leaves the
    closed bracket bisects it instead, so no root leaves its bracket.  No
    bracket may contain 0 (every ``_find_roots`` bracket lies on one side
    of it), and the bisection is in log |x|, as a root may lie orders of
    magnitude below the far end of its bracket.  A root settles at the
    next iterate once that moves by at most 2e-15 relative (|f/f'| <=
    2e-15 |x| for a Newton step, and 0 at an exact zero), so it does not
    depend on the other brackets of the batch.  Raises ``SolverError``
    when f is not finite or some roots have not converged after
    ``max_iter`` iterations; the message names the ``labels`` entry (the
    time) of the first offending bracket when labels are given.
    """

    def fail(message, bad):
        if labels is not None:
            message += f" at t={labels[np.argmax(bad)]}"
        raise SolverError(message)

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # next to an end far smaller than the other, b - fb (b - a)/(fb - fa)
    # can round past it
    x = np.clip(b - fb * (b - a) / (fb - fa), lo, hi)
    sign = np.where(a < b, np.sign(fa), np.sign(fb))  # of f at lo
    for _ in range(max_iter):
        fx, slope = f(x)
        finite = np.isfinite(fx)
        if not finite.all():
            fail("characteristic function returned non-finite", ~finite)
        # x replaces the end of its sign; an exact zero closes the bracket
        side = fx * sign
        lo = np.where(side >= 0, x, lo)
        hi = np.where(side <= 0, x, hi)
        # a zero slope gives NaN, which no bracket holds
        step = x - fx / np.where(slope != 0, slope, np.nan)
        inside = (step >= lo) & (step <= hi)
        if not inside.all():
            # no bracket holds 0, so its geometric midpoint is inside it
            mid = np.copysign(np.sqrt(np.abs(lo)) * np.sqrt(np.abs(hi)), lo)
            step = np.where(inside, step, np.clip(mid, lo, hi))
        settled = np.abs(step - x) <= 2e-15 * np.abs(x)
        if settled.all():
            return step
        # a settled bracket stays at its x, so its root is the same step
        # however many rounds the others take
        x = np.where(settled, x, step)
    fail(f"root polish did not converge in {max_iter} iterations", ~settled)


def _scan_terms(params, bc):
    """m^2 + F of the field and ``skip_low`` of its root scan.

    The uniform mode survives only for a massive Neumann field, where
    "massless" means m^2 + xi R^h is 0 in floating point (a mass below
    about 1.5e-162 counts as massless; see ``has_uniform_mode``).  In all
    other cases the band ladder starts at k ~ pi/L and the sub-band
    velocity-induced solution (which collapses to the excluded zero
    frequency as v -> 0) is left out to keep both branches aligned.
    """
    skip_low = not (
        has_uniform_mode(params) and bc is BoundaryCondition.NEUMANN
    )
    return params.mass_term + positivity_shift(params), skip_low


def _find_roots(times, walls, speeds, params, bc, bands):
    """First ``bands`` roots of each branch at each time, (T, 2N), + first.

    ``walls`` and ``speeds`` are (2, T).  The characteristic determinant
    (``_char_det``) couples the eigenvalue to the boundary rows through
    the wall velocities and sees the walls only through the cavity
    length, so the roots do not depend on where the cavity sits.  They
    are bracketed by a sign scan (``BRACKET_DENSITY`` nodes per half mode
    spacing) and polished by safeguarded Newton iteration on the
    closed-form slope.  Both branches of every time are scanned at once
    on the signed grids ``[grid, -grid]``; an event is an exact zero at a
    node or a sign change to the next node.  All brackets share one
    polish, and each root stays in its bracket.
    """
    if bands < 1:
        raise ValueError(f"bands must be >= 1, got {bands}")
    mass2f, skip_low = _scan_terms(params, bc)
    length = walls[1] - walls[0]
    grid, sub_band = _scan_grid(length, mass2f, bands, skip_low)
    nodes = grid[:, None, :] * np.array([[1.0], [-1.0]])  # (T, 2, G)
    values = _char_det(
        nodes, length[:, None, None], *speeds[:, :, None, None], mass2f, bc,
        (grid * grid - mass2f)[:, None, :],
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
    # flat indices into the (T, 2, G) arrays: time-major, + branch first
    picked = np.flatnonzero(event & (np.cumsum(event, axis=2) <= bands))
    nodes, values = nodes.reshape(-1), values.reshape(-1)
    roots = nodes[picked]
    bracket = values[picked] != 0.0
    if np.any(bracket):
        lo = picked[bracket]
        t = lo // (2 * grid.shape[1])
        bracket_length, bracket_speeds = length[t], speeds[:, t]
        roots[bracket] = _polish_roots(
            lambda w: _char_det(
                w, bracket_length, *bracket_speeds, mass2f, bc, slope=True
            ),
            nodes[lo], nodes[lo + 1], values[lo], values[lo + 1],
            labels=times[t],
        )
    return roots.reshape(len(times), 2 * bands)


def _normalised_modes(times, omega, lam, c, s, speeds, mass2f, bc, weights,
                      out=None, scratch=None):
    """Normalised, signed modes of the roots ``omega`` (T, 2N).

    ``c`` and ``s`` are (T, 2N, P) on each time's points: the Q
    quadrature nodes (``weights``, (T, Q)), the cavity midpoint, then the
    left and right walls; ``speeds`` is (2, T).  Returns ``a`` and ``b``,
    (T, 2N), the modes' values and x-derivatives on the points,
    (T, 2N, P), written into ``out`` when given (as in ``_combine``), and
    int psi^2 of each normalised mode, (T, 2N).  Errors name the first
    offending time.
    """
    r0, r1 = _boundary_rows(
        omega, lam, c[..., -2:].transpose(2, 0, 1),
        s[..., -2:].transpose(2, 0, 1), speeds[:, :, None], bc,
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
    vals, dvals = _combine(lam, a, b, c, s, out, scratch)
    inner = weights.shape[-1]
    psi, dpsi = vals[..., :inner], dvals[..., :inner]
    w = weights[..., None]
    square = None if scratch is None else scratch[..., :inner]
    norm_sq = (np.multiply(psi, psi, out=square) @ w)[..., 0]
    quad = (mass2f + omega**2) * norm_sq + (
        np.multiply(dpsi, dpsi, out=square) @ w
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
    val_c = np.abs(omega) * vals[..., inner]
    dval_c = dvals[..., inner]
    decider = np.where(np.abs(val_c) >= np.abs(dval_c), val_c, dval_c)
    factor = np.where(decider < 0, -1.0, 1.0) / scale
    vals *= factor[..., None]
    dvals *= factor[..., None]
    return a * factor, b * factor, vals, dvals, norm_sq * factor**2


def _quad_count(bands, quad_points):
    """Gauss-Legendre nodes per basis: ``quad_points``, else 4N + 16.

    The integrands are products of two of the 2N modes, whose wavenumbers
    reach about (N + 1) pi / L, so the rule is ``band_limited_points(N)``:
    every generator block stays at the round-off floor of a
    (16N + 64)-point reference.  The count depends on N alone, so every
    node of a window uses the same one.
    """
    if quad_points is None:
        return band_limited_points(bands)
    if quad_points < 1:
        raise ValueError(f"quad_points must be >= 1, got {quad_points}")
    return quad_points


def _walls(traj, times, accelerations=False):
    """Wall positions and speeds at ``times``, (2, 2, T), left wall first.

    With ``accelerations`` the wall accelerations follow as a third
    (2, T) row, (3, 2, T).  Each time is checked whole, then the next,
    so an invalid trajectory is reported at the first offending time.
    """
    rows = (
        traj.positions(t) + traj.velocities(t)
        + (traj.accelerations(t) if accelerations else ())
        for t in times
    )
    kinds = 3 if accelerations else 2
    table = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=float,
        count=2 * kinds * len(times),
    )
    return table.reshape(len(times), kinds, 2).transpose(1, 2, 0)


def _solve(params, bc, times, walls, speeds, omega, quad_points, out=None,
           scratch=None):
    """Normalised modes of the roots ``omega`` (T, 2N) at ``times`` (T,).

    The roots come from ``_find_roots`` at the same walls and speeds,
    (2, T), which a caller may have taken in batches of another layout.
    c and s are evaluated once, on each time's quadrature nodes, midpoint
    and walls, for the normalisation.  Returns the points (T, P) and
    weights (T, Q) as in ``_normalised_modes``; ``lam``, ``a`` and ``b``,
    (T, 2N); c, s and the modes' values and x-derivatives on the points,
    (T, 2N, P); and int psi^2 of each mode, (T, 2N).  ``out`` holds four
    (T, 2N, P) arrays that receive c, s and the values, and ``scratch``
    one more for the products; each is allocated when omitted.
    """
    mass2f = params.mass_term + positivity_shift(params)
    nodes, weights = gauss_legendre(
        walls[0][:, None], walls[1][:, None],
        _quad_count(omega.shape[1] // 2, quad_points),
    )
    middle = 0.5 * (walls[0] + walls[1])
    points = np.concatenate([nodes, middle[:, None], walls.T], axis=1)
    lam = omega * omega - mass2f
    cs_out, vals_out = (None, None) if out is None else (out[:2], out[2:])
    c, s = _cs(points[:, None, :], lam[..., None], cs_out)
    a, b, vals, dvals, norm_sq = _normalised_modes(
        times, omega, lam, c, s, speeds, mass2f, bc, weights, vals_out,
        scratch,
    )
    return points, weights, lam, a, b, c, s, vals, dvals, norm_sq


def solve_instantaneous_bases(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    times: Sequence[float],
    bands: int,
    quad_points: Optional[int] = None,
) -> Tuple[InstantaneousBasis, ...]:
    """First ``bands`` eigenpairs of each frequency branch at each time.

    Roots are bracketed by a sign scan and polished by safeguarded Newton
    iteration, each inside its bracket; eigenfunctions are normalised in
    the velocity-compatible quadratic form and signed by the midpoint
    convention.  All times share one scan on a (time x branch x node)
    array, one polish over every bracket and one normalisation pass, so a
    batch costs few numpy calls more than a single time.  No time
    derivative or wall acceleration is computed.  Errors keep their types
    and name the first offending time in the order given.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    walls, speeds = _walls(traj, times.tolist())
    omega = _find_roots(times, walls, speeds, params, bc, bands)
    lam, a, b = _solve(
        params, bc, times, walls, speeds, omega, quad_points
    )[2:5]
    for array in (omega, lam, a, b):
        array.flags.writeable = False
    f_term = positivity_shift(params)
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


def _mode_rates(times, omega, lam, a, b, points, c, s, vals, dvals, norm_sq,
                weights, speeds, accels, mass2f, bc, out=None, scratch=None):
    """d omega/dt, (C, 2N), and d psi/dt at fixed x on the points.

    Arrays are those of ``_solve`` and ``accels`` the wall accelerations,
    (2, C).  The roots move as d omega/dt = -(dD/dt)/(dD/domega) on the
    characteristic determinant D = p_L q_R - p_R q_L of the wall rows.
    The coefficient vector (a, b) moves across itself at the rate that
    keeps it null for both rows (a least-squares blend of the two walls,
    which agree), and along itself as the norm form
    Q = (m^2 + F + omega^2) int psi^2 + int psi'^2 = |omega| requires,
    with the walls' Leibniz terms.  ``norm_sq`` is int psi^2 of each mode.
    ``c`` and ``s`` are overwritten; ``out`` is a pair of arrays shaped
    like them that receive the lam-derivatives of c and s, and
    ``scratch`` one more for the products, each allocated when omitted.
    """
    dc, ds = _cs_rates(points[:, None, :], lam[..., None], c, s, out)
    at_walls = [
        array[..., -2:].transpose(2, 0, 1) for array in (c, s, dc, ds)
    ]
    x_w = points[:, None, -2:].transpose(2, 0, 1)
    v_w, a_w = speeds[:, :, None], accels[:, :, None]
    p, q = _boundary_rows(omega, lam, at_walls[0], at_walls[1], v_w, bc)
    by_x, by_v, by_omega = _boundary_rates(
        omega, lam, x_w, *at_walls, v_w, bc
    )
    p_t, q_t = (by_x[k] * v_w + by_v[k] * a_w for k in range(2))

    def det_rate(dp, dq):
        return dp[0] * q[1] + p[0] * dq[1] - dp[1] * q[0] - p[1] * dq[0]

    slope = det_rate(*by_omega)
    flat = ~(np.abs(slope) > 0)
    if np.any(flat):
        i = np.argmax(np.any(flat, axis=1))
        raise SolverError(f"degenerate root at t={times[i]}, omega={omega[i]}")
    domega = -det_rate(p_t, q_t) / slope
    p_t += by_omega[0] * domega
    q_t += by_omega[1] * domega
    # r . (a, b) = 0 at each wall: (r_t . v) + tau r . (-b, a) = 0
    along = p_t * a + q_t * b
    across = q * a - p * b
    tau = -np.sum(along * across, axis=0) / np.sum(across * across, axis=0)
    # psi_t at fixed x, norm held: tau (a s - b c) + lam_t (a dc + b ds)
    lam_t = 2.0 * omega * domega
    rate = c  # c and s are reused in place
    rate *= (-tau * b)[..., None]
    s *= (tau * a)[..., None]
    rate += s
    dc *= (lam_t * a)[..., None]
    ds *= (lam_t * b)[..., None]
    rate += dc
    rate += ds
    # Q_t = 2 omega omega_t int psi^2 + 4 omega^2 int psi psi_t
    #       + 2 [psi' psi_t] + sum_e n_e v_e [(mu + omega^2) psi^2 + psi'^2]
    inner = weights.shape[-1]
    w = weights[..., None]
    product = None if scratch is None else scratch[..., :inner]
    cross = (
        np.multiply(vals[..., :inner], rate[..., :inner], out=product) @ w
    )[..., 0]
    outward = np.array([-1.0, 1.0])
    psi_w, dpsi_w = vals[..., -2:], dvals[..., -2:]
    boundary = (dpsi_w * rate[..., -2:]) @ outward
    boundary *= 2.0
    density = (mass2f + omega**2)[..., None] * psi_w**2 + dpsi_w**2
    boundary += (density * (outward * speeds.T)[:, None, :]).sum(axis=-1)
    q_rate = 2.0 * omega * domega * norm_sq + 4.0 * omega**2 * cross + boundary
    kappa = domega / (2.0 * omega) - q_rate / (2.0 * np.abs(omega))
    rate += np.multiply(kappa[..., None], vals, out=scratch)
    return domega, rate


def _vhat(omegas, domega, vals, dvals, dvals_dt, weights, speeds, f_term, bc,
          scratch=None):
    """Real 2N x 2N generator blocks of C nodes, (C, 2N, 2N).

    ``omegas`` and ``domega`` (C, 2N) are the frequencies at the nodes
    and their time derivatives.  ``vals`` and ``dvals`` are the modes'
    values and x-derivatives and ``dvals_dt`` their time derivatives at
    fixed x, each (C, 2N, P) on the Q quadrature nodes (``weights``,
    (C, Q)), the midpoint and then the left and right walls; ``speeds``
    (C, 2) are the wall velocities.  ``scratch``, shaped like ``vals``,
    takes the weighted integrands; it is allocated when omitted.
    """
    inner = weights.shape[-1]
    psi = vals[..., :inner]
    dpsi_dt = dvals_dt[..., :inner]
    psi_t = np.swapaxes(psi, -1, -2)
    w = weights[..., None, :]
    product = None if scratch is None else scratch[..., :inner]

    # volume integrals, all pairs at once
    overlap = np.multiply(psi, w, out=product) @ psi_t  # int psi_n psi_m
    # int (d psi_n/dt) psi_m
    dt_overlap = np.multiply(dpsi_dt, w, out=product) @ psi_t

    # wall values: left wall, right wall
    psi_end, dpsi_end = vals[..., -2:], dvals[..., -2:]
    dpsidt_end = dvals_dt[..., -2:]

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


def _workspace(nodes, bands, quad_points):
    """Seven float (node x 2N x point) arrays for ``_chunk_vhats``, as one."""
    return np.empty(
        (7, nodes, 2 * bands, _quad_count(bands, quad_points) + 3)
    )


def _chunk_vhats(params, bc, times, walls, speeds, accels, omega,
                 quad_points, work=None):
    """Real generator blocks (C, 2N, 2N) at ``times`` (C,).

    ``walls``, ``speeds`` and ``accels`` (2, C) are the trajectory at the
    times (``_walls``) and ``omega`` (C, 2N) their roots
    (``_find_roots``).  The chunk's modes are normalised in one batched
    ``_solve``; their time derivatives come in closed form from the wall
    velocities and accelerations (``_mode_rates``).  Every (C, 2N, P)
    array of the pass is a leading slice of ``work``, a ``_workspace``
    for at least C nodes (one is allocated when omitted), so a caller
    that passes the same workspace to each chunk allocates none of them
    again.  The blocks share no memory with ``work``.
    """
    if work is None:
        work = _workspace(len(times), omega.shape[1] // 2, quad_points)
    c, s, vals, dvals, dc, ds, scratch = work[:, : len(times)]
    points, weights, lam, a, b, c, s, vals, dvals, norm_sq = _solve(
        params, bc, times, walls, speeds, omega, quad_points,
        (c, s, vals, dvals), scratch,
    )
    f_term = positivity_shift(params)
    domega, dvals_dt = _mode_rates(
        times, omega, lam, a, b, points, c, s, vals, dvals, norm_sq, weights,
        speeds, accels, params.mass_term + f_term, bc, (dc, ds), scratch,
    )
    return _vhat(
        omega, domega, vals, dvals, dvals_dt, weights, speeds.T, f_term, bc,
        scratch,
    )


def assemble_vhat(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    bands: int,
    quad_points: Optional[int] = None,
) -> np.ndarray:
    """Real 2N x 2N generator block matrix at time t.

    The one-node case of ``evolve_transformation``'s assembly: the wall
    positions, velocities and accelerations at t, its roots, one basis,
    and closed-form time derivatives of its modes.
    """
    times = np.array([float(t)])
    walls, speeds, accels = _walls(traj, times.tolist(), accelerations=True)
    omega = _find_roots(times, walls, speeds, params, bc, bands)
    return _chunk_vhats(
        params, bc, times, walls, speeds, accels, omega, quad_points
    )[0]


def generator_matrix(vhat: np.ndarray) -> np.ndarray:
    """Complex generator M V-hat M* of the transformation equation.

    ``vhat`` may carry leading node axes.  ``evolve_transformation``
    integrates V-hat itself and never forms this matrix.
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
    quad_points: Optional[int] = None,
    checkpoint_times: Sequence[float] = (),
) -> TransformationState:
    """Integrate the basis transformation from t0 to tf with 4th-order Magnus.

    Each step of length dt takes the generators K1, K2 and K3 at its
    start, midpoint and end and sets U <- exp(Omega) U with
    Omega = dt/6 (K1 + 4 K2 + K3) - dt^2/12 [K1, K3] (Iserles & Norsett,
    Phil. Trans. R. Soc. A 357, 983 (1999); Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)).  The exponential carries the free phases
    exactly, so the step only has to follow the drive; the default step
    targets 0.3 / omega_max.  dt times the generator's spectral radius
    above 1.5, checked at the first step and every 50th, raises
    ``StabilityError``; the bound also keeps Omega inside the Magnus
    convergence radius pi.  ``checkpoint_times`` must lie in [t0, tf];
    each is recorded at the nearest step end, so at most dt/2 from it.

    The generator is K = M V-hat M* with V-hat real and M
    (``mode_transform_matrix``) unitary, so Omega_K = M Omega_V M* and
    exp(Omega_K) = M exp(Omega_V) M*.  The steps therefore run on the
    real V-hat, the stability check takes the spectral radius of
    dt V-hat (the spectrum of dt K), and M U M* is formed only for each
    checkpoint and for the result.

    The generator depends on t alone, so its nodes (t0, then the midpoint
    and end of each step) are known in advance.  t0's roots are found first,
    alone: they give omega_max for the default step.  Then the wall
    positions, speeds and accelerations of every later node are evaluated
    and checked in time order.  The later nodes' roots come in root batches,
    each one ``_find_roots`` call (one sign scan and one polish over all its
    brackets) whose (node x branch x scan node) grid stays within
    ``CHUNK_BYTES``; the modes and generators come in point chunks, each of
    which keeps one (node x 2N x point) array within ``CHUNK_BYTES``.  Every
    basis has the same ``_quad_count`` points and every scan grid as many
    nodes as t0's, so both layouts depend on N, the field and
    ``quad_points`` alone.  A root batch is taken just before the first
    chunk that needs its roots, so the roots held never exceed one batch and
    one chunk, however long the window.  Each chunk takes its nodes'
    trajectory rows and roots by slice, normalises their modes in one batch
    and assembles its generator blocks together with the modes' closed-form
    time derivatives, in one ``_workspace`` that is allocated per call,
    after the first root batch, and reused by every chunk.  The Omegas of
    all the steps a chunk completes are then formed and exponentiated as one
    stack; a step that straddles a chunk boundary carries its nodes over to
    the next chunk.  Only the products U <- exp(Omega) U are left to the
    step loop, and the result does not depend on either layout to the last
    bit: the nodes of a batch or chunk do not interact, each bracket of a
    polish converges on its own, and so a batch or chunk raises exactly when
    one of its nodes would raise alone.  Errors therefore come stage by
    stage: t0's trajectory and roots, the trajectory of every later node,
    and then each root batch, followed by the chunks whose roots it
    completes with their modes, generators and stability checks.  Each
    error keeps its type and names the first offending time of the stage
    that failed.  The step plan, both layouts and the quadrature count are
    logged as one INFO line to the ``movingcavity.exact1d`` logger.
    """
    require_finite("t0", t0)
    require_finite("tf", tf)
    if tf <= t0:
        raise ValueError("window must satisfy t0 < tf")
    if step is not None:
        require_positive("step", step)
    outside = [t for t in checkpoint_times if not t0 <= t <= tf]
    if outside:
        raise ValueError(f"checkpoint_times outside [t0, tf]: {outside}")
    size = 2 * bands
    quad_count = _quad_count(bands, quad_points)
    # t0's roots set the default step
    kinematics = _walls(traj, [float(t0)], accelerations=True)
    omega0 = _find_roots(
        np.array([float(t0)]), *kinematics[:2], params, bc, bands
    )
    omega_max = float(np.max(np.abs(omega0)))
    if step is None:
        step = 0.3 / omega_max
    n_steps = max(1, int(math.ceil((tf - t0) / step)))
    dt = (tf - t0) / n_steps

    # t0, then the midpoint and the end of each step
    starts = t0 + np.arange(n_steps) * dt
    node_times = np.empty(2 * n_steps + 1)
    node_times[0] = t0
    node_times[1::2] = starts + dt / 2.0
    node_times[2::2] = starts + dt
    # a root batch's (node x branch x scan node) grid and a chunk's
    # (node x 2N x point) arrays each stay within CHUNK_BYTES; every node's
    # scan grid is as wide as t0's
    mass2f, skip_low = _scan_terms(params, bc)
    scan_width = _scan_grid(
        kinematics[0, 1] - kinematics[0, 0], mass2f, bands, skip_low
    )[0].shape[1]
    root_nodes = max(1, CHUNK_BYTES // (2 * scan_width * 8))
    chunk_nodes = max(1, CHUNK_BYTES // (size * (quad_count + 3) * 8))
    _log.info(
        "integrating %d steps of dt=%.6g (guidance dt <= %.6g); "
        "%d nodes in %d chunks of up to %d; %d quadrature points; "
        "roots in %d batches of up to %d nodes",
        n_steps, dt, 0.3 / omega_max, len(node_times),
        -(-len(node_times) // chunk_nodes), chunk_nodes, quad_count,
        -(-(len(node_times) - 1) // root_nodes), root_nodes,
    )

    # every later node's trajectory, checked in time order before any scan
    later = _walls(traj, node_times[1:].tolist(), accelerations=True)
    walls, speeds, accels = np.concatenate([kinematics, later], axis=2)

    def root_batches():
        """The later nodes' roots, one root batch at a time."""
        for first in range(1, len(node_times), root_nodes):
            batch = slice(first, first + root_nodes)
            yield _find_roots(
                node_times[batch], walls[:, batch], speeds[:, batch], params,
                bc, bands,
            )

    def check(j, vhat):
        """The stability bound at the start of step j, V-hat there."""
        if j < n_steps and (j == 0 or j % 50 == 49):
            radius = _spectral_radius(dt * vhat)
            if radius > 1.5:
                raise StabilityError(
                    f"dt * generator spectral radius {radius:.3f} > 1.5 "
                    f"at t={t0 + j * dt:.6g}; reduce the step or the "
                    f"number of bands"
                )

    m = mode_transform_matrix(bands)
    m_dagger = m.conj().T
    u = np.eye(size)  # in the real eigenbasis; M u M* in the modes
    pending = sorted(checkpoint_times, reverse=True)
    checkpoints = []

    def record(t, u_now):
        while pending and pending[-1] <= t + 0.5 * dt:
            pending.pop()
            checkpoints.append((t, m @ u_now @ m_dagger))

    record(t0, u)
    # roots found and not yet used, from node `first` on; a root batch is
    # taken when a chunk needs it, so the held roots stay within one batch
    # and one chunk however long the window
    batches = root_batches()
    found = np.concatenate([omega0, next(batches)])
    # allocated after the first root batch: in a one-batch window no scan
    # array is live beside it
    work = _workspace(chunk_nodes, bands, quad_points)
    carry = np.empty((0, size, size))
    done = 0  # steps taken
    for first in range(0, len(node_times), chunk_nodes):
        chunk = slice(first, first + chunk_nodes)
        times = node_times[chunk]
        while len(found) < len(times):
            found = np.concatenate([found, next(batches)])
        vhat = _chunk_vhats(
            params, bc, times, walls[:, chunk], speeds[:, chunk],
            accels[:, chunk], found[: len(times)], quad_points, work,
        )
        found = found[len(times) :]
        for node in range(first + first % 2, first + len(vhat), 2):
            check(node // 2, vhat[node - first])
        vhat = np.concatenate([carry, vhat])
        steps = (len(vhat) - 1) // 2  # complete steps: start, midpoint, end
        carry = vhat[2 * steps :]
        if not steps:
            continue
        k1 = vhat[0 : 2 * steps : 2]
        k2 = vhat[1 : 2 * steps : 2]
        k3 = vhat[2 : 2 * steps + 1 : 2]
        exponent = (dt / 6.0) * (k1 + 4.0 * k2 + k3)
        exponent -= (dt * dt / 12.0) * (k1 @ k3 - k3 @ k1)
        for factor in expm(exponent):
            u = factor @ u
            done += 1
            record(t0 + done * dt, u)
    return TransformationState(
        U=m @ u @ m_dagger,
        t_start=t0,
        t_current=tf,
        step_count=n_steps,
        bands=bands,
        checkpoints=tuple(checkpoints),
    )
