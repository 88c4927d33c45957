"""Non-perturbative evolution of a 1+1D field with moving boundaries.

Pipeline: solve the instantaneous eigenproblem with velocity-dependent
boundary conditions at each time, assemble the generator matrix from the
eigen-solutions and their time derivatives, and integrate the linear
transformation between instantaneous bases with a fixed-step 6th-order
Magnus method on three Gauss-Legendre nodes per step, whose matrix
exponential follows the fast free phases exactly.  The time derivatives
are exact: the roots move as -(dD/dt)/(dD/domega) on the characteristic
determinant D, which brings in the wall accelerations, and the modes
follow from the null vector of the boundary rows and from their norm.
Every mode is evaluated in z = x - (x_- + x_+)/2, centred on the cavity,
so no result depends on where the cavity sits.  c and s come from one
vectorised tangent of half the phase (``_cs``).
Everything of a node follows from c, s and their lam-derivatives at the
wall: the rows, the norms (from closed-form moments), the roots' rates,
the coefficients of d psi/dt and, by Green's identity, every overlap of
two modes in the generator.  No integral is taken on a grid.
The generator depends on t alone, so every node's eigenproblem is
solved ahead of the step loop in two layouts: the roots and the
per-node layer in large root batches, one sign scan and one polish
each, and the pair overlaps and generator blocks in smaller chunks of
whole steps, where the exponentials of each chunk's Magnus steps are
taken as one stack.
The steps run on the real generator blocks; the unitary change to the
frequency modes is applied to the product only.  Blocks are ordered
positive branch first, then negative branch; with static start and end
slices the top blocks of the transformation are the mode-mixing and
pair-creation coefficients.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
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

BRACKET_DENSITY = 4  # root-scan nodes per half mode spacing
CHUNK_BYTES = 1 << 18  # one array of a chunk or of a root batch's grid

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundaryTrajectory:
    """Positions, velocities and accelerations of the two cavity walls.

    Each field maps a float time to a float.  The accelerations are
    optional, but the generator (``assemble_vhat``,
    ``evolve_transformation``) raises ``InvalidTrajectoryError`` naming a
    missing one.  ``_walls`` evaluates and checks every field: values
    finite, walls ordered and speeds below 1.
    """

    x_minus: TimeFunc
    x_plus: TimeFunc
    v_minus: TimeFunc
    v_plus: TimeFunc
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


# ---------------------------------------------------------------------------
# regular basis functions: c and s solve psi'' = -lam psi with
# c(0)=1, c'(0)=0, s(0)=0, s'(0)=1, smooth in lam through zero
# (oscillatory lam > 0, evanescent lam < 0).


def _cs(x, lam):
    """c and s at points ``x`` for spectral parameters ``lam``, broadcast.

    c and s come from one t = tan(kx/2), k = sqrt(|lam|), as
    c = 2/(1 + t^2) - 1 and s = t (2/(1 + t^2))/k: numpy's float64 tan
    is a SIMD loop where its sin and cos are scalar on x86-64 builds, and
    it gives an entry the same bits in any array, so c and s of an entry
    do not depend on the other entries of its call.  Evanescent entries
    then take cosh and sinh of kx instead, and lam == 0 keeps c = 1 and
    takes s = x.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    oscillatory = lam.size and lam.min() > 0  # all oscillatory: no masks
    k = np.sqrt(lam if oscillatory else np.abs(lam))
    # kx/2, then t, is formed in s, in an array even for 0-d arguments,
    # and 2/(1 + t^2) in c
    t = s = np.asarray(np.multiply(0.5 * k, x))
    if not oscillatory:
        # kx, doubled exactly from kx/2; cosh and sinh take only the
        # evanescent entries, so cosh cannot overflow on an oscillatory one
        evan = lam < 0
        kx = t + t
    c = np.empty_like(s)
    np.tan(t, out=t)
    np.multiply(t, t, out=c)
    c += 1.0
    np.divide(2.0, c, out=c)
    s *= c
    c -= 1.0
    if oscillatory:
        s /= k
        return c, s
    np.cosh(kx, out=c, where=evan)
    np.sinh(kx, out=s, where=evan)
    np.divide(s, k, out=s, where=k > 0)
    np.copyto(s, x, where=k == 0)  # lam == 0, where t = 0 gave c = 1
    return c, s


def _s_series(order):
    """Horner coefficients, highest power first, of the lam-derivative of
    that ``order`` of s over x^(2 order + 1), in u = lam x^2: s is
    sum_n (-u)^n x^(2n + 1)/(2n + 1)!, and cut after n = 10 the series is
    exact to 1e-18 where |u| < 1."""
    return tuple(
        math.perm(n, order) * (-1) ** n / math.factorial(2 * n + 1)
        for n in range(10, order - 1, -1)
    )


_RATE_SERIES = _s_series(1)
_SECOND_RATE_SERIES = _s_series(2)


def _series(u, coefficients):
    """Horner sum of ``coefficients`` (highest power first) at ``u``."""
    total = np.full_like(u, coefficients[0])
    for coefficient in coefficients[1:]:
        total *= u
        total += coefficient
    return total


def _cs_rates(x, lam, c, s, reach):
    """lam-derivatives of c and s from their values at ``x``, broadcast.

    dc/dlam = -x s / 2 and ds/dlam = (x c - s) / (2 lam) hold in both
    regimes.  The second cancels as lam x^2 -> 0, so where |lam| ``reach``
    < 1 (``reach`` is x^2) it takes its series, ``_RATE_SERIES``.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    dc = np.multiply(-0.5 * x, s)
    ds = np.multiply(x, c)
    ds -= s
    u = lam * reach
    small = np.abs(u) < 1.0
    if not small.any():
        ds /= 2.0 * lam
        return dc, ds
    np.divide(ds, 2.0 * lam, out=ds, where=~small)
    np.copyto(ds, x * reach * _series(u, _RATE_SERIES), where=small)
    return dc, ds


def _second_rate(x, lam, dc, ds, reach):
    """d2s/dlam2 at ``x`` from the rates of ``_cs_rates``, broadcast:
    (x dc - 3 ds)/(2 lam), or ``_SECOND_RATE_SERIES`` where
    |lam| ``reach`` < 1.  d2c/dlam2 is -x ds/2."""
    u = lam * reach
    small = np.abs(u) < 1.0
    if not small.any():
        return (x * dc - 3.0 * ds) / (2.0 * lam)
    second = _series(u, _SECOND_RATE_SERIES) * (reach * reach * x)
    np.divide(x * dc - 3.0 * ds, 2.0 * lam, out=second, where=~small)
    return second


@dataclass(frozen=True)
class InstantaneousMode:
    """One eigen-solution psi(x) = a c(z) + b s(z) on [x_minus, x_plus].

    z = x - (x_minus + x_plus)/2 is measured from the cavity centre, so
    a = psi and b = psi' there.
    """

    omega: float
    lam: float  # omega^2 - (m^2 + F): positive oscillatory, negative evanescent
    a: float
    b: float
    x_minus: float
    x_plus: float

    @property
    def evanescent(self) -> bool:
        return self.lam < 0

    def _cs_at(self, x):
        centre = 0.5 * (self.x_minus + self.x_plus)
        return _cs(np.asarray(x, dtype=float) - centre, self.lam)

    def eval(self, x):
        c, s = self._cs_at(x)
        return self.a * c + self.b * s

    def eval_deriv(self, x):
        c, s = self._cs_at(x)
        return -self.a * self.lam * s + self.b * c


@dataclass(frozen=True, eq=False)
class InstantaneousBasis:
    """Signed eigenpairs of the cavity at one time, both frequency branches.

    Mode i is psi_i = a[i] c(z; lam[i]) + b[i] s(z; lam[i]) with signed
    frequency omega[i], where z = x - (x_minus + x_plus)/2 is measured
    from the cavity centre: a and b are the value and slope of each mode
    there.  The four read-only arrays have shape (2N,), the positive
    branch first.  ``modes``, ``plus`` and ``minus`` present the same
    numbers as ``InstantaneousMode`` objects, built on first access.
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
        centre = 0.5 * (self.x_minus + self.x_plus)
        z = np.asarray(x, dtype=float) - centre
        c, s = _cs(z[None, :], self.lam[:, None])
        lam, a, b = self.lam[:, None], self.a[:, None], self.b[:, None]
        return a * c + b * s, b * c - lam * a * s

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


def _det_walls(length, v_minus, v_plus, bc):
    """The wall constants of ``_char_det``: L, L^2 (the series reach of
    s(L)), v_- v_+, 1 + v_- v_+ and the gap, dv (Dirichlet) or -dv."""
    product, neumann = v_minus * v_plus, bc is BoundaryCondition.NEUMANN
    gap = v_minus - v_plus if neumann else v_plus - v_minus
    return length, length * length, product, 1.0 + product, gap


def _char_det(omega, walls, mass2f, bc, lam=None, slope=False):
    """Characteristic determinant D = p_- q_+ - p_+ q_- of the wall rows.

    D depends on the walls only through the cavity length L = x_+ - x_-:
    the Wronskian identities c_- s_+ - s_- c_+ = s(L) and
    c_- c_+ + lam s_- s_+ = c(L) hold in every regime, so with
    dv = v_+ - v_- and lam = omega^2 - (m^2 + F)

        Dirichlet: D = (omega^2 + v_- v_+ lam) s(L) + omega dv c(L),
        Neumann:   D = (lam + omega^2 v_- v_+) s(L) - omega dv c(L).

    ``walls`` is ``_det_walls``, whose arrays broadcast against ``omega``
    (a polish takes them once for all its rounds); ``lam`` may be
    given in any shape that broadcasts against it: c and s depend on lam
    alone, so a scan of both branches evaluates them once for the two.
    With ``slope`` the result is (D, dD/domega), the slope in closed form
    from ``_cs_rates`` with d lam = 2 omega d omega; whether s takes its
    series there is decided for each entry on its own.
    """
    length, reach, product, one_plus, gap = walls
    square = omega * omega
    if lam is None:
        lam = square - mass2f
    c, s = _cs(length, lam)
    # D = s_term s(L) + omega gap c(L)
    if bc is BoundaryCondition.NEUMANN:
        s_term = lam + product * square
    else:
        s_term = square + product * lam
    c_term = omega * gap
    det = s_term * s + c_term * c
    if not slope:
        return det
    # each entry is one mode at its one point: the series cut is its own
    dc, ds = _cs_rates(length, lam, c, s, reach)
    # d s_term/d omega = 2 omega (1 + v_- v_+) under either condition
    by_lam = one_plus * s + s_term * ds + c_term * dc
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
    bracket (a, b), in either order, starts at the regula-falsi point of
    ``fa`` and ``fb``, values at its ends with the signs of f there.
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


def _require_count(name, value, least):
    """``value`` as a Python int: it must be a Python or numpy integer
    other than a bool, and at least ``least``; anything else raises
    ``ValueError`` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)  # a small numpy integer would wrap in sizes
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _find_roots(times, walls, speeds, params, bc, bands):
    """First ``bands`` roots of each branch at each time, (T, 2N), + first.

    ``walls`` and ``speeds`` are (2, T).  The characteristic determinant
    (``_char_det``) couples the eigenvalue to the boundary rows through
    the wall velocities and sees the walls only through the cavity
    length, so the roots do not depend on where the cavity sits.  They
    are bracketed by a sign scan (``BRACKET_DENSITY`` nodes per half mode
    spacing) and polished by safeguarded Newton iteration on D/|omega|
    and its closed-form slope: below the first band D can be nearly
    quadratic in omega above a sub-band root, where Newton on D only
    halves the distance each round, and D/|omega| is nearly linear.  It
    starts at the regula-falsi point of the scan values of D: divided by
    their nodes, the value at a bracket's 1e-9 m floor would outweigh
    the other end and start the polish there.  Both branches of every
    time are scanned at once on the signed grids ``[grid, -grid]``; an
    event is an exact zero at a node or a sign change to the next node.
    All brackets share one polish, and each root stays in its bracket.
    ``bands`` must pass ``_require_count`` with least 1.
    """
    bands = _require_count("bands", bands, 1)
    mass2f, skip_low = _scan_terms(params, bc)
    length = walls[1] - walls[0]
    grid, sub_band = _scan_grid(length, mass2f, bands, skip_low)
    nodes = grid[:, None, :] * np.array([[1.0], [-1.0]])  # (T, 2, G)
    scan = _det_walls(length[:, None, None], *speeds[:, :, None, None], bc)
    values = _char_det(
        nodes, scan, mass2f, bc, (grid * grid - mass2f)[:, None, :]
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
        bracket_walls = _det_walls(length[t], *speeds[:, t], bc)

        def scaled(w):
            # D/|omega| has the signs of D and the Newton steps of D/omega
            det, slope = _char_det(w, bracket_walls, mass2f, bc, slope=True)
            size = np.abs(w)
            return det / size, (slope - det / w) / size

        roots[bracket] = _polish_roots(
            scaled, nodes[lo], nodes[lo + 1], values[lo], values[lo + 1],
            labels=times[t],
        )
    return roots.reshape(len(times), 2 * bands)


def _walls(traj, times, accelerations=False):
    """Wall positions and speeds at ``times``, (2, 2, T), left wall first.

    With ``accelerations`` the wall accelerations follow as a third
    (2, T) row, (3, 2, T), and a trajectory without ``a_minus`` or
    ``a_plus`` raises ``InvalidTrajectoryError`` naming it.  The callables
    are called at every time first, x_-, x_+, v_-, v_+ (a_-, a_+) per
    time, so an exception of their own comes before any check.  The table
    is then checked whole; only one that fails a sum and two comparisons
    goes through ``_reject_walls`` row by row, so its first bad time raises.
    """
    calls = [traj.x_minus, traj.x_plus, traj.v_minus, traj.v_plus]
    if accelerations:
        for name in ("a_minus", "a_plus"):
            if getattr(traj, name) is None:
                raise InvalidTrajectoryError(
                    f"the generator needs wall accelerations; the "
                    f"trajectory has no {name}"
                )
        calls += [traj.a_minus, traj.a_plus]
    values = [float(f(t)) for t in times for f in calls]
    table = np.array(values).reshape(len(times), len(calls) // 2, 2)
    positions, speeds = table[:, 0], table[:, 1]
    # a float sum that overflows only sends a good table to the row check
    if not (
        math.isfinite(sum(values))
        and (positions[:, 1] > positions[:, 0]).all()
        and np.abs(speeds).max(initial=0.0) < 1.0
    ):
        for t, row in zip(times, table.tolist()):
            _reject_walls(t, *row)
    return table.transpose(1, 2, 0)


def _reject_walls(t, positions, speeds, accels=()):
    """Raise the first fault of the walls at t, in the order checked."""

    def check_finite(what, values):
        for value in values:
            if not math.isfinite(value):
                raise InvalidTrajectoryError(
                    f"non-finite {what} {value} at t={t}"
                )

    check_finite("wall position", positions)
    x_minus, x_plus = positions
    if x_plus <= x_minus:
        raise InvalidTrajectoryError(
            f"boundaries crossed at t={t}: x_-={x_minus}, x_+={x_plus}"
        )
    check_finite("wall speed", speeds)
    for v in speeds:
        if abs(v) >= 1.0:
            raise InvalidTrajectoryError(f"boundary speed |{v}| >= 1 at t={t}")
    check_finite("wall acceleration", accels)


_WALL_SIDES = np.array([-1.0, 1.0])[:, None, None]  # z = -L/2, L/2 axis

# |gap| h^2 below which a pair's kernels take their mean value over lam,
# and the five-point Gauss-Legendre rule that takes it: nodes 0 and
# +-sqrt(5 +- 2 sqrt(10/7))/3 on [-1, 1], weights 128/225 and
# (322 -+ 13 sqrt(70))/900.  Both forms are at round-off on either side
_MEAN_CUT = 10.0
_MEAN_RULE = (
    np.array([-0.906179845938664, -0.5384693101056831, 0.0,
              0.5384693101056831, 0.906179845938664]),
    np.array([0.23692688505618908, 0.47862867049936647, 128.0 / 225.0,
              0.47862867049936647, 0.23692688505618908]),
)


def _wall_terms(walls, lam):
    """h = L/2 (T, 1); c, s, dc, ds at z = h; int c^2, int s^2; (T, 2N).

    ``walls`` is (2, T).  The moments over the cavity follow from Green's
    identity for psi'' = -lam psi and its lam-derivative, c even and s odd:
    int s^2 = 2 (c ds - s dc) and int c^2 = 2 c s + lam int s^2 at z = h.
    """
    half = (0.5 * (walls[1] - walls[0]))[:, None]
    c, s = _cs(half, lam)
    dc, ds = _cs_rates(half, lam, c, s, half * half)
    s_sq = 2.0 * (c * ds - s * dc)
    c_sq = 2.0 * c * s + lam * s_sq
    return half, c, s, dc, ds, c_sq, s_sq


def _node_modes(params, bc, times, walls, speeds, omega):
    """Normalised, signed modes of the roots ``omega`` (T, 2N), on no grid.

    The basis half of the per-node layer, from walls and speeds (2, T):
    psi = a c(z) + b s(z) in z = x - (x_- + x_+)/2 is the null direction of
    the boundary rows, normalised with the moments of ``_wall_terms`` (which
    it returns after lam, a and b) and signed so psi(0) = a, psi'(0) = b.
    Errors name the first offending time.
    """
    mass2f = params.mass_term + positivity_shift(params)
    lam = omega * omega - mass2f
    wall = _wall_terms(walls, lam)
    _, c_w, s_w, _, _, c_sq, s_sq = wall
    # boundary rows at z = -L/2 (c even, s odd) and z = L/2
    r0, r1 = _boundary_rows(
        omega, lam, c_w, _WALL_SIDES * s_w, speeds[:, :, None], bc
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
    a_sq, b_sq = a * a, b * b
    norm_sq = a_sq * c_sq + b_sq * s_sq
    quad = (mass2f + omega**2) * norm_sq + b_sq * c_sq + lam**2 * a_sq * s_sq
    if np.any(quad <= 0):
        i = np.argmax(np.any(quad <= 0, axis=1))
        raise SolverError(
            f"non-positive norm form at t={times[i]}, omega={omega[i]}"
        )
    # deterministic sign: positive value at the cavity centre, positive
    # derivative when the centre is a node.  The two are compared on a
    # common scale and the dominant one decides, so that a node shifted
    # by a small boundary displacement cannot flip the convention.
    value = np.abs(omega) * a
    decider = np.where(np.abs(value) >= np.abs(b), value, b)
    factor = np.where(decider < 0, -1.0, 1.0) / np.sqrt(quad / np.abs(omega))
    return lam, a * factor, b * factor, wall


def solve_instantaneous_bases(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    times: Sequence[float],
    bands: int,
) -> Tuple[InstantaneousBasis, ...]:
    """First ``bands`` eigenpairs of each frequency branch at each time.

    Roots are bracketed by a sign scan and polished by safeguarded Newton
    iteration, each inside its bracket (``_find_roots``); eigenfunctions
    are normalised in the velocity-compatible quadratic form from wall
    values alone and signed by the cavity-centre convention
    (``_node_modes``).  All times share one scan, one polish and one
    normalisation pass; no time derivative or wall acceleration is
    computed.  Errors keep their types and name the first offending time
    in the order given.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    walls, speeds = _walls(traj, times.tolist())
    omega = _find_roots(times, walls, speeds, params, bc, bands)
    lam, a, b = _node_modes(params, bc, times, walls, speeds, omega)[:3]
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
) -> InstantaneousBasis:
    """First ``bands`` eigenpairs of each frequency branch at time t.

    The one-time case of ``solve_instantaneous_bases``.
    """
    return solve_instantaneous_bases(traj, params, bc, (t,), bands)[0]


# ---------------------------------------------------------------------------
# generator assembly


def mode_transform_matrix(bands: int) -> np.ndarray:
    """Block matrix turning the real eigenbasis into frequency modes."""
    eye = np.eye(bands)
    return 0.5 * np.block(
        [[(1 - 1j) * eye, (1 + 1j) * eye], [(1 + 1j) * eye, (1 - 1j) * eye]]
    )


def _rate_moments(lam, wall):
    """int c dc and int s ds over the cavity from ``_wall_terms``, (T, 2N).

    Half the lam-derivatives of its moments: int s ds = c d2s - s d2c and
    int c dc = 2 c ds + lam int s ds at z = h (``_second_rate``)."""
    half, c, s, dc, ds = wall[:5]
    second = _second_rate(half, lam, dc, ds, half * half)
    s_ds = c * second + 0.5 * half * s * ds
    return 2.0 * c * ds + lam * s_ds, s_ds


def _row_rates(times, omega, lam, a, b, wall, speeds, accels, drift, bc):
    """d omega/dt = -(dD/dt)/(dD/domega) on the wall rows' determinant and
    the rate tau at which (a, b) turns to stay null for both rows (a
    least-squares blend), each (T, 2N).  In z the walls move at v_e less
    the ``drift`` of its origin, their mean speed."""
    half, c_w, s_w, dc_w, ds_w = wall[:5]
    # the walls z = -L/2 and L/2: c and dc even, s and ds odd
    side = _WALL_SIDES
    z_w = side * half
    v_w, a_w = speeds[:, :, None], accels[:, :, None]
    p, q = _boundary_rows(omega, lam, c_w, side * s_w, v_w, bc)
    by_x, by_v, by_omega = _boundary_rates(
        omega, lam, z_w, c_w, side * s_w, dc_w, side * ds_w, v_w, bc
    )
    shift = v_w - drift  # wall speeds in z
    p_t, q_t = (by_x[k] * shift + by_v[k] * a_w for k in range(2))

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
    return domega, tau


def _node_terms(params, bc, times, walls, speeds, accels, omega):
    """The per-node layer of the generator, (15, T, 2N), on no grid.

    Rows: omega, lam, d omega/dt, a and b of psi on c and s, the
    coefficients of d psi/dt at fixed x on c, s, dc and ds, c, s, dc and
    ds at the wall z = h (``_wall_terms``), then int s^2 and int s ds over
    the cavity (``_rate_moments``).  (a, b) turns
    as ``_row_rates`` finds and scales as the norm form
    Q = (m^2 + F + omega^2) int psi^2 + int psi'^2 = |omega| requires,
    with the walls' Leibniz terms and the moments of ``_rate_moments``; at
    fixed x, psi_t gains -v_c psi'.  Errors name the first offending time.
    """
    lam, a, b, wall = _node_modes(params, bc, times, walls, speeds, omega)
    mass2f = params.mass_term + positivity_shift(params)
    centre_speed = 0.5 * (speeds[0] + speeds[1])[:, None]
    domega, tau = _row_rates(
        times, omega, lam, a, b, wall, speeds, accels, centre_speed, bc
    )
    _, c_w, s_w, dc_w, ds_w, c_sq, s_sq = wall
    c_dc, s_ds = _rate_moments(lam, wall)
    # psi_t at fixed z, norm held: tau (a s - b c) + lam_t (a dc + b ds),
    # coefficients of c, dc (even) and s, ds (odd)
    lam_t = 2.0 * omega * domega
    on_c, on_dc, on_s, on_ds = -tau * b, lam_t * a, tau * a, lam_t * b
    cross = a * (on_c * c_sq + on_dc * c_dc) + b * (on_s * s_sq + on_ds * s_ds)
    # Q_t = 2 omega omega_t int psi^2 + 4 omega^2 int psi psi_t
    #       + 2 [psi' psi_t] + sum_e n_e (v_e - v_c) [(mu + omega^2) psi^2
    #       + psi'^2]; at z = +-L/2 each is its even part +- its odd part
    even, odd = a * c_w, b * s_w
    d_even, d_odd = b * c_w, -lam * a * s_w
    t_even, t_odd = on_c * c_w + on_dc * dc_w, on_s * s_w + on_ds * ds_w
    boundary = 4.0 * (d_even * t_odd + d_odd * t_even) + (
        (speeds[1] - speeds[0])[:, None] * (
            (mass2f + omega**2) * (even**2 + odd**2) + d_even**2 + d_odd**2
        )
    )
    norm_sq = a * a * c_sq + b * b * s_sq
    q_rate = 2.0 * omega * domega * norm_sq + 4.0 * omega**2 * cross + boundary
    kappa = domega / (2.0 * omega) - q_rate / (2.0 * np.abs(omega))
    # at fixed x, psi_t - v_c psi' with psi' = b c (even) - lam a s (odd)
    return np.stack([
        omega, lam, domega, a, b, on_c + kappa * a - centre_speed * b,
        on_s + kappa * b + centre_speed * lam * a, on_dc, on_ds,
        c_w, s_w, dc_w, ds_w, s_sq, s_ds,
    ])


def _pair_kernels(half, lam, c, s, dc, ds, s_sq, s_ds):
    """int s_n s_m and int ds_n s_m over the cavity, each (C, 2N, 2N), from
    h (C, 1), the wall values c, s, dc and ds at z = h and the moments
    int s^2 and int s ds of each mode (C, 2N), which are the diagonals.

    Green's identity for psi'' = -lam psi, c even and s odd, gives with
    gap = lam_m - lam_n: int s_n s_m = 2 (c_n s_m - s_n c_m)/gap, and its
    lam_n-derivative int ds_n s_m = (2 (dc_n s_m - ds_n c_m) + int s_n s_m)
    /gap.  Where |gap| h^2 < ``_MEAN_CUT`` the quotients cancel, and both
    take the mean value over lam from lam_n to lam_m, at lam_n + x gap for
    x on ``_MEAN_RULE``: int s_n s_m is 2 (c_n ds - s_n dc) there, and its
    lam_n-derivative adds dc_n ds - ds_n dc + (1 - x) (c_n d2s - s_n d2c);
    at gap = 0 these are the moments.  A pair and its mirror share the
    nodes.  Integration by parts gives the even pairs with no division:
    int c_n c_m = lam_m int s_n s_m + 2 s_n c_m and int dc_n c_m =
    lam_m int ds_n s_m + 2 ds_n c_m.
    """
    size = lam.shape[-1]
    diag = np.arange(size)
    gap = lam[..., None, :] - lam[..., :, None]
    gap[..., diag, diag] = np.inf  # the diagonal is the moments
    near = np.flatnonzero(np.abs(gap) < (_MEAN_CUT / (half * half))[..., None])
    right = np.stack([s, c], axis=-2)
    kss = np.stack([2.0 * c, -2.0 * s], axis=-1) @ right
    jss = np.stack([2.0 * dc, -2.0 * ds], axis=-1) @ right
    with np.errstate(divide="ignore", invalid="ignore"):  # near is replaced
        kss /= gap
        jss += kss
        jss /= gap
    kss[..., diag, diag] = s_sq
    jss[..., diag, diag] = s_ds
    node, rest = np.divmod(near, size * size)
    n, m = np.divmod(rest, size)
    upper = n < m
    if upper.any():
        # the rule's nodes on the leading axis, the pairs n < m on the last
        node, n, m, first = node[upper], n[upper], m[upper], near[upper]
        nodes, weights = _MEAN_RULE  # the weights, doubled on [0, 1]
        x = 0.5 * (1.0 + nodes)
        h = half[node, 0]
        ell = lam[node, n] + x[:, None] * gap.reshape(-1)[first]
        c_l, s_l = _cs(h, ell)
        dc_l, ds_l = _cs_rates(h, ell, c_l, s_l, h * h)
        d2s_l = _second_rate(h, ell, dc_l, ds_l, h * h)
        # the ends n and m, whose lam moves the nodes by 1 - x and x
        ends = np.stack([n, m])
        c_e, s_e, dc_e, ds_e = (f[node, ends][:, None] for f in (c, s, dc, ds))
        moved = np.array([1.0 - x, x])[..., None]
        kss_l = c_e * ds_l - s_e * dc_l
        jss_l = dc_e * ds_l - ds_e * dc_l
        # d2c = -h ds/2
        jss_l += moved * (c_e * d2s_l + 0.5 * h * s_e * ds_l)
        pairs = np.stack([first, first + (m - n) * (size - 1)])
        kss.reshape(-1)[pairs] = weights @ kss_l
        jss.reshape(-1)[pairs] = weights @ jss_l
    return kss, jss


def _rows(*blocks):
    """Blocks of rows (k, C, 2N) as one matmul operand (C, 2N, k)."""
    return np.moveaxis(np.concatenate(blocks), 0, -1)


def _columns(*blocks):
    """Blocks of rows (k, C, 2N) as one matmul operand (C, k, 2N)."""
    return np.moveaxis(np.concatenate(blocks), 0, -2)


def _pair_sums(half, terms, left, right):
    """sum_k int f_n^k g_m^k over the cavity of C nodes, (C, 2N, 2N).

    ``terms`` are the nodes' ``_node_terms`` and h is (C, 1).  Each f^k
    is alpha c + beta s + gamma dc + delta ds, with ``left`` the rows
    (alpha, beta, gamma, delta), and each g^k is mu c + nu s, with
    ``right`` the rows (mu, nu), each row (k, C, 2N).  Even x odd terms
    cancel, and with the even pairs of ``_pair_kernels`` in terms of the
    odd ones, Kss = int s_n s_m and Jss = int ds_n s_m:
    int f_n g_m = Kss (alpha_n lam_m mu_m + beta_n nu_m)
    + Jss (gamma_n lam_m mu_m + delta_n nu_m) + 2 (alpha s + gamma ds)_n
    (mu c)_m, and each sum over k of a product is one matmul.
    """
    lam, c, s, dc, ds = terms[[1, 9, 10, 11, 12]]
    kss, jss = _pair_kernels(half, lam, c, s, dc, ds, *terms[13:15])
    alpha, beta, gamma, delta = left
    mu, nu = right
    odd = _columns(lam * mu, nu)
    total = _rows(alpha, beta) @ odd
    total *= kss
    rate = _rows(gamma, delta) @ odd
    rate *= jss
    total += rate
    total += _rows(2.0 * (alpha * s + gamma * ds)) @ _columns(mu * c)
    return total


def _chunk_vhats(params, bc, walls, speeds, terms):
    """Real generator blocks (C, 2N, 2N) of a chunk of C nodes.

    From the nodes' walls and speeds (2, C) and ``_node_terms``: the
    volume terms (omega_n + omega_m) int (d psi_n/dt) psi_m
    + (2 omega_n^2 + d omega_n/dt - F) int psi_n psi_m as ``_pair_sums``,
    and the walls' terms from psi, psi' and d psi/dt at z = -+h, each its
    even part -+ its odd part.  The negative branch's columns change sign.
    """
    omegas, lam, domega, a, b, on_c, on_s, on_dc, on_ds = terms[:9]
    c_w, s_w, dc_w, ds_w = terms[9:13]
    size = omegas.shape[-1]
    sign = np.where(np.arange(size) < size // 2, 1.0, -1.0)
    half = (0.5 * (walls[1] - walls[0]))[:, None]
    p = 2.0 * omegas**2 + domega - positivity_shift(params)
    left = np.array([
        [omegas * on_c + p * a, on_c], [omegas * on_s + p * b, on_s],
        [omegas * on_dc, on_dc], [omegas * on_ds, on_ds],
    ])
    right = sign * np.array([[a, omegas * a], [b, omegas * b]])
    vhat = _pair_sums(half, terms, left, right)
    # at the walls, left first: [d psi_n/dt] times -v psi_m n (Neumann) or
    # psi_m' n / omega_m (Dirichlet), n the outward normal
    even, odd = on_c * c_w + on_dc * dc_w, on_s * s_w + on_ds * ds_w
    rate = np.array([even - odd, even + odd])
    if bc is BoundaryCondition.NEUMANN:
        even, odd = a * c_w, b * s_w
        wall = speeds[:, :, None] * np.array([even - odd, -even - odd])
    else:
        even, odd = b * c_w, -lam * a * s_w
        wall = np.array([odd - even, even + odd]) / omegas
    vhat += _rows(rate) @ _columns(sign * wall)
    diag = np.arange(size)
    vhat[..., diag, diag] -= omegas
    return vhat


def assemble_vhat(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t: float,
    bands: int,
) -> np.ndarray:
    """Real 2N x 2N generator block matrix at time t.

    The one-node case of ``evolve_transformation``'s assembly: the walls
    at t, its roots, ``_node_terms`` and ``_chunk_vhats``.
    """
    times = np.array([float(t)])
    walls, speeds, accels = _walls(traj, times.tolist(), accelerations=True)
    omega = _find_roots(times, walls, speeds, params, bc, bands)
    terms = _node_terms(params, bc, times, walls, speeds, accels, omega)
    return _chunk_vhats(params, bc, walls, speeds, terms)[0]


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


# Gauss-Legendre fractions 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of a
# step, and sqrt(15)/3, of the sixth-order Magnus step
_GAUSS_NODES = (0.1127016653792583, 0.5, 0.8872983346207417)
_SQRT15_OVER_3 = 1.2909944487358056


def _commutator(x, y):
    return x @ y - y @ x


def _magnus_exponents(vhat, dt):
    """Omega of each step whose three Gauss-node generators are ``vhat``."""
    k1, k2, k3 = vhat[0::3], vhat[1::3], vhat[2::3]
    a1 = dt * k2
    a2 = (_SQRT15_OVER_3 * dt) * (k3 - k1)
    a3 = (10.0 * dt / 3.0) * (k3 - 2.0 * k2 + k1)
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    exponent = a1 + a3 / 12.0
    exponent += _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    return exponent


def evolve_transformation(
    traj: BoundaryTrajectory,
    params: FieldParams,
    bc: BoundaryCondition,
    t0: float,
    tf: float,
    bands: int,
    step: Optional[float] = None,
    samples: int = 0,
) -> TransformationState:
    """Integrate the basis transformation from t0 to tf with 6th-order Magnus.

    Each step of length dt takes the generators K1, K2 and K3 at the
    three Gauss-Legendre nodes t + (1/2 - sqrt(15)/10) dt, t + dt/2 and
    t + (1/2 + sqrt(15)/10) dt and sets U <- exp(Omega) U with

        a1 = dt K2, a2 = sqrt(15) dt/3 (K3 - K1),
        a3 = 10 dt/3 (K3 - 2 K2 + K1),
        C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60,
        Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240

    (Blanes, Casas & Ros, BIT 40, 434 (2000); Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)).  The exponential carries the free phases
    exactly, so the step only has to follow the drive; the default step
    targets 0.6 / omega_max.  dt times the spectral radius of K2 above
    1.5, checked at the first step and every 50th, raises
    ``StabilityError``; the bound also keeps Omega inside the Magnus
    convergence radius pi.  With ``samples`` S >= 1 the step count, at
    least ceil((tf - t0)/step), is raised to the next multiple of S, so dt
    never exceeds ``step``, and M U M* is recorded in ``checkpoints`` at
    the end of each of the S equal parts of the window, the last at tf
    exactly.  ``samples`` must pass ``_require_count`` with least 0.

    The generator is K = M V-hat M* with V-hat real and M
    (``mode_transform_matrix``) unitary, so Omega_K = M Omega_V M* and
    exp(Omega_K) = M exp(Omega_V) M*.  The steps therefore run on the
    real V-hat, the stability check takes the spectral radius of
    dt V-hat (the spectrum of dt K), and M U M* is formed only for each
    sample and for the result.

    The nodes (three inside each step; t0 is not one) are known in
    advance.  t0's roots come first, alone, for omega_max; then every
    node's wall table is checked (``_walls``).  In root batches whose
    (node x branch x scan node) grid stays within ``CHUNK_BYTES``, one
    ``_find_roots`` and one ``_node_terms`` call make the per-node layer.
    Chunks of whole steps, whose two pair kernels (``_pair_kernels``)
    stay within ``CHUNK_BYTES`` unless one step exceeds it, build the
    generator blocks (``_chunk_vhats``), and a chunk's Omegas are
    exponentiated as one stack.  A root batch is taken when a chunk first
    needs it, so the terms held never exceed a batch and a chunk.  Nodes
    do not interact, so U does not depend on either layout to the last
    bit, and errors come stage by stage: t0's walls and roots, every
    node's trajectory, then each root batch with its per-node failures
    (degenerate rows, a non-positive norm form, a flat root), followed by
    the chunks it completes with their stability checks.  Each error keeps
    its type and names the first offending time of its stage.  The method,
    step plan and both layouts are logged as one INFO line to the
    ``movingcavity.exact1d`` logger.
    """
    require_finite("t0", t0)
    require_finite("tf", tf)
    if tf <= t0:
        raise ValueError("window must satisfy t0 < tf")
    if step is not None:
        require_positive("step", step)
    samples = _require_count("samples", samples, 0)
    # t0's roots set the default step
    walls0, speeds0 = _walls(traj, [float(t0)])
    omega0 = _find_roots(
        np.array([float(t0)]), walls0, speeds0, params, bc, bands
    )
    bands = omega0.shape[1] // 2  # checked, and a Python int from here on
    size = 2 * bands
    omega_max = float(np.max(np.abs(omega0)))
    if step is None:
        step = 0.6 / omega_max
    n_steps = max(1, int(math.ceil((tf - t0) / step)))
    per_sample = -(-n_steps // samples) if samples else n_steps
    n_steps = per_sample * max(samples, 1)
    dt = (tf - t0) / n_steps

    # the three Gauss nodes of each step, in time order
    starts = t0 + np.arange(n_steps) * dt
    node_times = (starts[:, None] + dt * np.array(_GAUSS_NODES)).reshape(-1)
    # a root batch's (node x branch x scan node) grid and a chunk's two
    # pair kernels (2 x node x 2N x 2N) each stay within CHUNK_BYTES, a
    # chunk holding at least one step; every node's scan grid is as wide
    # as t0's
    mass2f, skip_low = _scan_terms(params, bc)
    scan_width = _scan_grid(
        walls0[1] - walls0[0], mass2f, bands, skip_low
    )[0].shape[1]
    root_nodes = max(1, CHUNK_BYTES // (2 * scan_width * 8))
    chunk_nodes = 3 * max(1, CHUNK_BYTES // (3 * 2 * size * size * 8))
    _log.info(
        "integrating %d sixth-order Magnus steps of dt=%.6g (guidance "
        "dt <= 0.6/omega_max = %.6g)%s; %d nodes in %d chunks of up to %d; "
        "roots in %d batches of up to %d nodes",
        n_steps, dt, 0.6 / omega_max,
        f"; {samples} samples of {per_sample} steps" if samples else "",
        len(node_times),
        -(-len(node_times) // chunk_nodes), chunk_nodes,
        -(-len(node_times) // root_nodes), root_nodes,
    )

    # every node's trajectory, checked before any scan
    walls, speeds, accels = _walls(
        traj, node_times.tolist(), accelerations=True
    )

    def root_batches():
        """The nodes' ``_node_terms``, one root batch at a time."""
        for first in range(0, len(node_times), root_nodes):
            batch = slice(first, first + root_nodes)
            times, rows = node_times[batch], (walls[:, batch], speeds[:, batch])
            omega = _find_roots(times, *rows, params, bc, bands)
            yield _node_terms(params, bc, times, *rows, accels[:, batch], omega)

    def check(j, k2):
        """The stability bound of step j, V-hat at its midpoint ``k2``."""
        if j == 0 or j % 50 == 49:
            radius = _spectral_radius(dt * k2)
            if radius > 1.5:
                raise StabilityError(
                    f"dt * generator spectral radius {radius:.3f} > 1.5 "
                    f"at t={node_times[3 * j + 1]:.6g}; reduce the step or "
                    f"the number of bands"
                )

    m = mode_transform_matrix(bands)
    m_dagger = m.conj().T
    u = np.eye(size)  # in the real eigenbasis; M u M* in the modes
    checkpoints = []
    # node terms found and not yet used, from node `first` on
    batches = root_batches()
    found = next(batches)
    done = 0  # steps taken
    for first in range(0, len(node_times), chunk_nodes):
        chunk = slice(first, first + chunk_nodes)
        count = len(node_times[chunk])
        while found.shape[1] < count:
            found = np.concatenate([found, next(batches)], axis=1)
        vhat = _chunk_vhats(
            params, bc, walls[:, chunk], speeds[:, chunk], found[:, :count]
        )
        found = found[:, count:]
        for j, midpoint in enumerate(vhat[1::3], first // 3):
            check(j, midpoint)
        # the next chunk's generators are built without these held
        factors = expm(_magnus_exponents(vhat, dt))
        del vhat
        for factor in factors:
            u = factor @ u
            done += 1
            if samples and done % per_sample == 0:
                t = tf if done == n_steps else t0 + done * dt
                checkpoints.append((t, m @ u @ m_dagger))
    return TransformationState(
        U=m @ u @ m_dagger,
        t_start=t0,
        t_current=tf,
        step_count=n_steps,
        bands=bands,
        checkpoints=tuple(checkpoints),
    )
