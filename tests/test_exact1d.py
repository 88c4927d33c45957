"""Tests for instantaneous bases and exact Bogoliubov evolution."""

import logging
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movingcavity import exact1d
from movingcavity.core import BoundaryCondition, FieldParams, expm
from movingcavity.exact1d import (
    BoundaryTrajectory,
    InvalidTrajectoryError,
    SolverError,
    StabilityError,
    _char_det,
    _cs,
    _polish_roots,
    assemble_vhat,
    bogoliubov_identity_residual,
    evolve_transformation,
    generator_matrix,
    mode_transform_matrix,
    solve_instantaneous_basis,
    solve_instantaneous_bases,
)
from movingcavity.cli import _envelope_trajectory
from movingcavity.scenarios import DceConfig, DceVariant, build_dce
from movingcavity.staticmodes import (
    Interval,
    gauss_legendre,
    solve_interval_modes,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def dce_trajectory(variant=DceVariant.RIGHT_ONLY, bc=D, length=math.pi,
                   epsilon=1e-3, drive=3.0, mass=0.0):
    config = DceConfig(
        variant=variant, length=length, bc=bc, epsilon=epsilon,
        omega_drive=drive, mass=mass,
    )
    return build_dce(config).trajectory


# ---------------------------------------------------------------------------
# trajectories


def test_static_factory_reports_zero_velocity():
    traj = BoundaryTrajectory.static(-1.0, 1.0)
    assert traj.positions(3.7) == (-1.0, 1.0)
    assert traj.velocities(3.7) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_finite_difference_velocity_matches_analytic():
    exact = dce_trajectory(variant=DceVariant.BREATHING, epsilon=0.05)
    fd = BoundaryTrajectory(exact.x_minus, exact.x_plus)
    t = 0.37
    assert fd.velocities(t) == pytest.approx(exact.velocities(t), rel=1e-7)


def test_crossing_walls_rejected():
    traj = BoundaryTrajectory(lambda t: t, lambda t: 1.0 - t)
    with pytest.raises(InvalidTrajectoryError):
        traj.positions(0.6)


def test_superluminal_wall_rejected():
    traj = BoundaryTrajectory(
        lambda t: -1.0, lambda t: 1.0 + 2.0 * t,
        v_minus=lambda t: 0.0, v_plus=lambda t: 2.0,
    )
    with pytest.raises(InvalidTrajectoryError):
        traj.velocities(0.0)


def test_static_factory_reports_zero_acceleration():
    assert BoundaryTrajectory.static(-1.0, 1.0).accelerations(0.3) == (0.0, 0.0)


@pytest.mark.parametrize("name", ["dce", "envelope"])
@pytest.mark.parametrize("given", ["v", "x"])
def test_finite_difference_acceleration_matches_analytic(name, given):
    if name == "dce":
        exact = dce_trajectory(variant=DceVariant.BREATHING, epsilon=0.05)
    else:
        exact = _envelope_trajectory(math.pi, 0.05, 3.0, 4.0)
    # with velocities given they are differenced, else the positions twice
    speeds = (exact.v_minus, exact.v_plus) if given == "v" else (None, None)
    fd = BoundaryTrajectory(exact.x_minus, exact.x_plus, *speeds)
    assert exact.a_minus is not None and exact.a_plus is not None
    for t in (0.37, 1.9, 3.1):
        want = np.array(exact.accelerations(t))
        assert np.max(np.abs(np.array(fd.accelerations(t)) - want)) < 1e-7


@pytest.mark.parametrize("field, value, method", [
    ("x_plus", math.nan, "positions"),
    ("x_plus", math.inf, "positions"),
    ("x_minus", -math.inf, "positions"),
    ("v_plus", math.nan, "velocities"),
    ("a_plus", math.nan, "accelerations"),
    ("a_minus", math.inf, "accelerations"),
])
def test_non_finite_trajectory_rejected(field, value, method):
    functions = dict(
        x_minus=lambda t: 0.0, x_plus=lambda t: 1.0,
        v_minus=lambda t: 0.0, v_plus=lambda t: 0.0,
        a_minus=lambda t: 0.0, a_plus=lambda t: 0.0,
    )
    functions[field] = lambda t: value
    traj = BoundaryTrajectory(**functions)
    with pytest.raises(InvalidTrajectoryError, match=r"non-finite .* at t=0\.25"):
        getattr(traj, method)(0.25)
    # the solvers raise it too, naming the time, instead of failing a scan
    with pytest.raises(InvalidTrajectoryError, match=r"at t=0\.25"):
        assemble_vhat(traj, FieldParams(), D, 0.25, 3)
    if method != "accelerations":  # a plain basis needs no acceleration
        with pytest.raises(InvalidTrajectoryError, match=r"at t=0\.25"):
            solve_instantaneous_basis(traj, FieldParams(), D, 0.25, 3)
    else:
        solve_instantaneous_basis(traj, FieldParams(), D, 0.25, 3)


# ---------------------------------------------------------------------------
# basis functions and root polish


def test_cs_mixed_regimes_match_elementwise_evaluation():
    # one call over oscillatory, evanescent and lam == 0 entries
    lam = np.array([2.0, -1.5, 0.0, 0.3, -4.0, 0.0])[:, None]
    x = np.linspace(-1.2, 0.9, 7)[None, :]
    c, s = _cs(x, lam)
    for i in range(lam.shape[0]):
        for j in range(x.shape[1]):
            ci, si = _cs(x[0, j], lam[i, 0])
            assert c[i, j] == pytest.approx(float(ci), rel=1e-15, abs=0)
            assert s[i, j] == pytest.approx(float(si), rel=1e-15, abs=0)
    assert np.all(c[2] == 1.0) and np.all(s[2] == x[0])


@pytest.mark.parametrize("lams", [
    [2.0, 0.3, 900.0],  # all oscillatory
    [2.0, -1.5, 0.0, 0.3, -4.0, 0.0, 900.0],  # mixed
])
def test_cs_fills_given_arrays_in_both_regimes(lams):
    # kx reaches 1200 on the lam = 900 entry, where cosh would overflow
    lam = np.array(lams)[:, None]
    x = np.linspace(-1.2, 40.0, 7)[None, :]
    want = _cs(x, lam)
    out = np.full((2, len(lams), 7), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _cs(x, lam, out)
    for array, given, expected in zip(got, out, want):
        assert np.shares_memory(array, given)
        assert np.array_equal(given, expected)


def test_cs_continuous_through_zero_lam():
    x = np.linspace(-2.0, 2.0, 9)
    c0, s0 = _cs(x, 0.0)
    for lam in (1e-12, -1e-12):
        c, s = _cs(x, lam)
        assert np.max(np.abs(c - c0)) < 1e-11
        assert np.max(np.abs(s - s0)) < 1e-11


@pytest.mark.parametrize("lams", [
    [2.0, -1.5, 1e-3],  # no mode below the series cut-off
    [2.0, -1.5, 1e-3, -2e-4, 1e-9, 0.0],  # modes on both sides of it
])
def test_cs_rates_match_centred_difference_in_lam(lams):
    x = np.linspace(-1.3, 1.1, 9)[None, :]
    lam = np.array(lams)[:, None]
    c, s = _cs(x, lam)
    dc, ds = exact1d._cs_rates(x, lam, c, s)
    h = 1e-5
    (cp, sp), (cm, sm) = _cs(x, lam + h), _cs(x, lam - h)
    assert np.max(np.abs(dc - (cp - cm) / (2 * h))) < 1e-9
    assert np.max(np.abs(ds - (sp - sm) / (2 * h))) < 1e-9
    assert np.all(np.isfinite(ds))
    out = np.full((2, *c.shape), np.nan)
    exact1d._cs_rates(x, lam, c, s, out)
    assert np.array_equal(out, [dc, ds])


def _two_wall_det(omega, walls, speeds, mass2f, bc):
    """D = p_- q_+ - p_+ q_- from the boundary rows at both walls."""
    lam = omega * omega - mass2f
    c, s = _cs(walls, lam)
    p, q = exact1d._boundary_rows(omega, lam, c, s, speeds, bc)
    return p[0] * q[1] - p[1] * q[0]


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("speeds", [
    (0.0, 0.0), (0.5, -0.3), (-0.5, 0.5), (0.2, 0.45),
])
def test_char_det_matches_two_wall_form(bc, speeds):
    # m^2 + F = 2.25: |omega| 0.4 is evanescent, 1.5 is lam == 0 exactly,
    # 1.5 + 1e-7 takes the series for ds/dlam, 2.7 and 7.3 oscillate
    mass2f, length = 2.25, 2.3
    omega = np.array([0.4, 1.5, 1.5 + 1e-7, 2.7, 7.3])
    omega = np.concatenate([omega, -omega])
    lam = omega * omega - mass2f
    assert np.count_nonzero(lam == 0) == 2 and np.any(lam < 0)
    walls = np.array([[-0.8], [-0.8 + length]])
    det, slope = _char_det(omega, length, *speeds, mass2f, bc, slope=True)
    assert np.array_equal(
        det, _char_det(omega, length, *speeds, mass2f, bc)
    )
    speeds = np.array(speeds)[:, None]
    want = _two_wall_det(omega, walls, speeds, mass2f, bc)
    # every entry of a wall row is at most (1 + |omega| + |lam|)(|c| + |s|)
    c, s = _cs(walls, lam)
    scale = (1.0 + np.abs(omega) + np.abs(lam)) ** 2 * np.prod(
        np.abs(c) + np.abs(s), axis=0
    )
    assert np.all(np.abs(det - want) <= 1e-15 * scale)
    h = 1e-6
    central = (
        _char_det(omega + h, length, *speeds[:, 0], mass2f, bc)
        - _char_det(omega - h, length, *speeds[:, 0], mass2f, bc)
    ) / (2 * h)
    assert np.all(np.abs(slope - central) <= 1e-8 * (1.0 + np.abs(slope)))


def test_char_det_slope_takes_its_series_per_entry():
    # lam L^2 straddles LAM_SERIES_CUT differently for the two lengths: a
    # batch must give each entry the bits it gets alone
    mass2f = 1.0
    omega = np.sqrt(mass2f + np.array([2e-4, 2e-4, -3e-3, 1e-2]))
    length = np.array([1.0, 4.0, 0.5, 0.2])
    lam = omega * omega - mass2f
    assert len(set(np.abs(lam) * length**2 < exact1d.LAM_SERIES_CUT)) == 2
    for bc in (D, N):
        batch = _char_det(omega, length, 0.3, -0.2, mass2f, bc, slope=True)
        for i in range(len(omega)):
            alone = _char_det(
                omega[i:i + 1], length[i:i + 1], 0.3, -0.2, mass2f, bc,
                slope=True,
            )
            assert batch[0][i] == alone[0][0] and batch[1][i] == alone[1][0]


def test_polish_roots_raises_when_iterations_run_out():
    # static Dirichlet walls pi apart: roots at omega = 1, 2, ...
    det = lambda w: _char_det(w, math.pi, 0.0, 0.0, 0.0, D, slope=True)
    a, b = np.array([0.9, 1.8]), np.array([1.1, 2.3])
    fa, fb = det(a)[0], det(b)[0]
    labels = np.array([0.25, 0.75])
    with pytest.raises(
        SolverError, match=r"did not converge in 2 iterations at t=0\.25"
    ):
        _polish_roots(det, a, b, fa, fb, max_iter=2, labels=labels)
    roots = _polish_roots(det, a, b, fa, fb, max_iter=5, labels=labels)
    assert roots == pytest.approx([1.0, 2.0], rel=1e-15)

    def blind(w):
        value, slope = det(w)
        return np.where(w > 1.5, np.nan, value), slope

    with pytest.raises(SolverError, match=r"non-finite at t=0\.75"):
        _polish_roots(blind, a, b, fa, fb, labels=labels)


def test_newton_step_leaving_its_bracket_bisects():
    # atan(x - 1) on (0.5, 11) starts at the regula-falsi point 3.02, where
    # Newton jumps to -2.6: the bracket bisects (geometrically, as it does
    # not hold 0) and still converges inside
    points = []

    def f(x):
        points.append(x.copy())
        return np.arctan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)

    a, b = np.array([0.5, 0.5]), np.array([11.0, 2.0])
    roots = _polish_roots(f, a, b, *f(np.stack([a, b]))[0])
    points = np.array(points[1:])
    assert roots == pytest.approx([1.0, 1.0], rel=1e-15)
    assert np.all((points >= a) & (points <= b))
    start = points[0, 0]
    assert 2.9 < start < 3.1
    assert points[1, 0] == np.sqrt(a[0]) * np.sqrt(start)
    # an exact zero closes its bracket, even where the slope vanishes too
    cube = lambda x: ((x - 1.0) ** 3, 3.0 * (x - 1.0) ** 2)
    a, b = np.array([0.0]), np.array([2.0])
    assert _polish_roots(cube, a, b, -1.0, 1.0, max_iter=1) == 1.0


@given(
    length=st.floats(0.5, 5.0),
    v_minus=st.floats(-0.5, 0.5),
    v_plus=st.floats(-0.5, 0.5),
    mass=st.floats(0.0, 2.0),
    bc=st.sampled_from([D, N]),
)
# a sub-band root near m = 1e-30, in a bracket that reaches 0.79 (at
# L = 1) or 1.57 (at L = 0.5, where the slope at its low end is 0)
@example(length=1.0, v_minus=0.0, v_plus=1e-30, mass=1e-30, bc=N)
@example(length=0.5, v_minus=0.0, v_plus=1e-30, mass=1e-30, bc=N)
# D is nearly quadratic above these sub-band roots, so Newton on D only
# halved the distance each round and ran out of iterations
@example(length=1.0, v_minus=0.0, v_plus=1e-59, mass=1e-60, bc=N)
@example(length=1.0, v_minus=0.0, v_plus=1e-81, mass=1e-90, bc=N)
@example(length=1.0, v_minus=0.0, v_plus=1e-111, mass=1e-120, bc=N)
@settings(max_examples=30, deadline=None)
def test_polished_roots_stay_in_their_scan_brackets(length, v_minus, v_plus,
                                                     mass, bc):
    polish, brackets = exact1d._polish_roots, []

    def recording(f, a, b, fa, fb, max_iter=100, labels=None):
        roots = polish(f, a, b, fa, fb, max_iter, labels)
        brackets.extend(zip(a.tolist(), b.tolist(), roots.tolist()))
        return roots

    params = FieldParams(mass=mass)
    walls = np.array([[0.3], [0.3 + length]])
    speeds = np.array([[v_minus], [v_plus]])
    with mock.patch.object(exact1d, "_polish_roots", recording):
        omega = exact1d._find_roots(
            np.zeros(1), walls, speeds, params, bc, 4
        )[0]
    mass2f = params.mass_term + exact1d.positivity_shift(params)
    det = lambda w: float(_two_wall_det(w, walls[:, 0], speeds[:, 0],
                                        mass2f, bc))
    for lo, hi, root in brackets:
        assert min(lo, hi) <= root <= max(lo, hi)
        f_lo = det(lo)
        while True:  # scalar bisection on the two-wall form
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f_mid = det(mid)
            if f_mid == 0.0:
                lo = hi = mid
            elif (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        assert root == pytest.approx(lo, rel=1e-13)
    # each branch ascends in |omega|
    assert np.all(np.diff(omega[:4]) > 0) and np.all(np.diff(omega[4:]) < 0)


def _rounded_length(t):
    """pi + 0.05 sin t as a multiple of 2^-32: exact at every offset below."""
    return np.round((math.pi + 0.05 * np.sin(t)) * 2.0**32) / 2.0**32


def test_roots_do_not_depend_on_the_cavity_position():
    # a massive Neumann cavity scanned through its evanescent window: cosh
    # and sinh at the walls themselves overflowed far from x = 0, and so
    # did the modes, which came out NaN at 1e4.  Lengths are multiples of
    # 2^-32, so every offset below keeps them and the cavity centre exact.
    times = np.linspace(0.0, 2.0, 5)
    length = _rounded_length(times)
    speeds = np.array([np.zeros_like(times), 0.05 * np.cos(times)])
    params = FieldParams(mass=1.3)
    relative = np.arange(13) / 4.0  # points from the left wall, exact
    roots, bases, vhats = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in (0.0, 400.0, 1e3, 1e4, 1e6):
            walls = np.array([offset + 0.0 * length, offset + length])
            assert np.array_equal(walls[1] - walls[0], length)
            roots.append(exact1d._find_roots(
                times, walls, speeds, params, N, 6
            ))
            traj = BoundaryTrajectory(
                lambda t, x=offset: x,
                lambda t, x=offset: x + _rounded_length(t),
                v_minus=lambda t: 0.0, v_plus=lambda t: 0.05 * math.cos(t),
                a_minus=lambda t: 0.0, a_plus=lambda t: -0.05 * math.sin(t),
            )
            basis = solve_instantaneous_basis(traj, params, N, 0.5, 6)
            points = offset + np.append(relative, basis.x_plus - offset)
            bases.append((basis, basis.values(points)))
            vhats.append(assemble_vhat(traj, params, N, 0.5, 6))
    assert np.any(roots[0] ** 2 < 1.3**2)  # an evanescent root
    for moved in roots[1:]:
        assert np.all(np.abs(moved - roots[0]) <= 1e-14 * np.abs(roots[0]))
    (basis, values), vhat = bases[0], vhats[0]
    assert basis.minus[0].evanescent  # the mode that came out NaN
    size = np.hypot(basis.a, basis.b)
    for (moved, moved_values), moved_vhat in zip(bases[1:], vhats[1:]):
        for name in ("a", "b"):
            gap = np.abs(getattr(moved, name) - getattr(basis, name))
            assert np.all(gap <= 1e-12 * size), name
        for got, want in zip(moved_values, values):
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert np.max(np.abs(moved_vhat - vhat)) <= 1e-12 * np.max(
            np.abs(vhat)
        )


def _polish_rounds(monkeypatch):
    """Characteristic-function evaluations of each ``_polish_roots`` call."""
    polish, rounds = exact1d._polish_roots, []

    def counting(f, *args, **kwargs):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        roots = polish(counted, *args, **kwargs)
        rounds.append(calls)
        return roots

    monkeypatch.setattr(exact1d, "_polish_roots", counting)
    return rounds


def test_exact_resonant_window_polishes_in_few_rounds(monkeypatch):
    # DCE-I at 12 bands over one period of the omega_1 + omega_2 drive:
    # t0 alone, then every later node in one root batch
    rounds = _polish_rounds(monkeypatch)
    evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 2.0 * math.pi / 3.0, 12
    )
    assert len(rounds) == 2
    assert max(rounds) <= 5


def test_exact_resonant_window_folds_its_modes(monkeypatch):
    # the same window evaluates c and s of each mode once per node, at the
    # ceil(Q/2) half-grid nodes and one wall of the folded rule
    cs, shapes = exact1d._cs, []

    def counting(x, lam, out=None):
        c, s = cs(x, lam, out)
        if c.ndim == 3 and c.shape[1] == 24:  # every mode of 12 bands
            shapes.append(c.shape)
        return c, s

    monkeypatch.setattr(exact1d, "_cs", counting)
    state = evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 2.0 * math.pi / 3.0, 12
    )
    quad_count = exact1d._quad_count(12, None)
    assert {shape[2] for shape in shapes} == {-(-quad_count // 2) + 1}
    assert sum(shape[0] for shape in shapes) == 2 * state.step_count + 1


def test_cold_bases_polish_in_few_rounds(monkeypatch):
    # moving and static walls, both conditions, massive Neumann fields
    # scanned through their evanescent window
    rng = np.random.default_rng(20)
    rounds = _polish_rounds(monkeypatch)
    for k in range(48):
        bc, mass = (D, N)[k % 2], (0.0, 0.6, 1.9)[k % 3]
        length = float(rng.uniform(0.5, 5.0))
        speeds = (0.0, 0.0) if k % 4 == 0 else rng.uniform(-0.5, 0.5, 2)
        exact1d._find_roots(
            np.zeros(1), np.array([[0.0], [length]]),
            np.array(speeds, dtype=float)[:, None], FieldParams(mass=mass),
            bc, 6,
        )
    # a sub-band root at 0.57 of its bracket, whose low end is the scan
    # floor 1e-9 m: started at the regula-falsi point of D/omega, which
    # the floor outweighs, the polish began at the far end and took 16
    exact1d._find_roots(
        np.zeros(1), np.array([[-0.9146527593376951], [0.834330334120433]]),
        np.array([[0.23289922414840009], [-0.18421610800900853]]),
        FieldParams(mass=0.0011715469425472858), N, 6,
    )
    assert len(rounds) == 49
    assert max(rounds) <= 10


# ---------------------------------------------------------------------------
# instantaneous eigenproblem


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("mass", [0.0, 1e-170, 1e-161, 2.3e-162, 1.3])
def test_static_limit_matches_interval_modes(bc, mass):
    length = 2.2
    traj = BoundaryTrajectory.static(0.0, length)
    basis = solve_instantaneous_basis(traj, FieldParams(mass=mass), bc, 0.0, 6)
    static = solve_interval_modes(Interval(length), FieldParams(mass=mass), bc, 6)
    assert basis.frequencies[:6] == pytest.approx(
        static.frequencies, rel=1e-10
    )


@pytest.mark.parametrize("bc", [D, N])
def test_branch_symmetry_at_rest(bc):
    traj = BoundaryTrajectory.static(-0.7, 1.4)
    basis = solve_instantaneous_basis(traj, FieldParams(mass=0.9), bc, 0.0, 5)
    freqs = basis.frequencies
    assert freqs[5:] == pytest.approx(-freqs[:5], rel=1e-12)
    x = np.linspace(-0.7, 1.4, 33)
    for up, down in zip(basis.plus, basis.minus):
        assert up.eval(x) == pytest.approx(down.eval(x), abs=1e-10)


@pytest.mark.parametrize("bc, variant, epsilon, t, bands, mass, drive", [
    pytest.param(D, DceVariant.SHAKING, 0.05, 0.41, 5, 0.0, 3.0, id=str(D)),
    pytest.param(N, DceVariant.SHAKING, 0.05, 0.41, 5, 0.0, 3.0, id=str(N)),
    # a secant step landed exactly on a bracket end here and the polish
    # used to bisect the root away
    pytest.param(
        D, DceVariant.RIGHT_ONLY, 1e-3, 1.7293233082706765, 12, 0.0, 3.0,
        id="dce-i-12-bands-secant-on-bracket-end",
    ),
    # tiny masses on a moving Neumann wall: the - branch root near
    # -1e3 m^2 falls below the scan floor once m < 1e-12, and the + branch
    # used to keep its sub-band root alone
    *(
        pytest.param(
            N, DceVariant.RIGHT_ONLY, 1e-3, 0.3, 6, mass, 2.0,
            id=f"neumann-mass-{mass:g}",
        )
        for mass in (0.0, 1e-170, 1e-150, 1e-13, 1e-12, 1e-4)
    ),
])
def test_moving_modes_satisfy_boundary_conditions(bc, variant, epsilon, t,
                                                  bands, mass, drive):
    traj = dce_trajectory(
        variant=variant, bc=bc, epsilon=epsilon, drive=drive, mass=mass
    )
    params = FieldParams(mass=mass)
    basis = solve_instantaneous_basis(traj, params, bc, t, bands)
    xm, xp = traj.positions(t)
    vm, vp = traj.velocities(t)
    # both branches keep a sub-band root, or neither does
    sub_band = math.pi / (2 * (xp - xm))
    assert (abs(basis.plus[0].omega) < sub_band) == (
        abs(basis.minus[0].omega) < sub_band
    )
    for mode in basis.plus + basis.minus:
        w = mode.omega
        for x, v in ((xm, vm), (xp, vp)):
            psi = float(mode.eval(np.array([x]))[0])
            dpsi = float(mode.eval_deriv(np.array([x]))[0])
            if bc is D:
                residual = w * psi + v * dpsi
            else:
                residual = dpsi + w * v * psi
            assert abs(residual) < 1e-9 * max(abs(w), 1.0)


@pytest.mark.parametrize("variant, bc, mass, bands", [
    (DceVariant.RIGHT_ONLY, D, 0.0, 12),
    (DceVariant.BREATHING, N, 1.5, 6),
    (DceVariant.SHAKING, N, 0.0, 6),
    (DceVariant.RIGHT_ONLY, N, 0.7, 8),
])
def test_batched_bases_match_single_time_solves(variant, bc, mass, bands):
    traj = dce_trajectory(variant=variant, bc=bc, epsilon=0.05, mass=mass)
    params = FieldParams(mass=mass)
    times = np.linspace(0.0, 2.0, 13)
    batch = solve_instantaneous_bases(traj, params, bc, times, bands)
    assert len(batch) == len(times)
    for t, basis in zip(times, batch):
        single = solve_instantaneous_basis(traj, params, bc, t, bands)
        assert basis.time == single.time
        assert (basis.x_minus, basis.x_plus) == (single.x_minus, single.x_plus)
        for name in ("omega", "lam", "a", "b"):
            got, want = getattr(basis, name), getattr(single, name)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, name


def test_batched_solve_names_first_offending_time():
    # the walls meet at t = 1
    traj = BoundaryTrajectory(
        lambda t: 0.0, lambda t: 1.0 - t,
        v_minus=lambda t: 0.0, v_plus=lambda t: -0.5,
    )
    times = [0.2, 0.9, 1.2, 1.5]
    with pytest.raises(InvalidTrajectoryError, match=r"t=1\.2"):
        solve_instantaneous_bases(traj, FieldParams(), D, times, 3)


def test_bases_compare_and_hash_by_identity():
    traj = BoundaryTrajectory.static(0.0, 1.0)
    first, second = (
        solve_instantaneous_basis(traj, FieldParams(), D, 0.0, 3)
        for _ in range(2)
    )
    assert np.array_equal(first.omega, second.omega)
    assert first == first
    assert first != second
    assert len({first, second, first}) == 2


def test_custom_norm_orthonormality_moving():
    traj = dce_trajectory(variant=DceVariant.BREATHING, epsilon=0.05)
    t = 0.3
    params = FieldParams()
    basis = solve_instantaneous_basis(traj, params, D, t, 6)
    xm, xp = traj.positions(t)
    nodes, weights = gauss_legendre(xm, xp, 96)
    modes = basis.plus
    vals = np.array([m.eval(nodes) for m in modes])
    derivs = np.array([m.eval_deriv(nodes) for m in modes])
    omegas = np.array([m.omega for m in modes])
    gram = (np.add.outer(np.zeros(6), np.zeros(6)))
    quad0 = (vals * weights) @ vals.T
    quad1 = (derivs * weights) @ derivs.T
    gram = (basis.f_term + np.multiply.outer(omegas, omegas)) * quad0 + quad1
    target = np.diag(np.abs(omegas))
    assert np.max(np.abs(gram - target)) < 1e-10


def test_massive_neumann_contraction_has_evanescent_mode():
    # walls moving toward each other make the lowest pair evanescent
    traj = BoundaryTrajectory(
        lambda t: -1.0 + 0.2 * t, lambda t: 1.0 - 0.2 * t,
        v_minus=lambda t: 0.2, v_plus=lambda t: -0.2,
    )
    basis = solve_instantaneous_basis(traj, FieldParams(mass=1.5), N, 0.0, 4)
    lowest = basis.plus[0]
    assert abs(lowest.omega) < 1.5
    assert lowest.lam < 0
    assert lowest.evanescent
    dpsi = float(lowest.eval_deriv(np.array([1.0]))[0])
    psi = float(lowest.eval(np.array([1.0]))[0])
    assert dpsi + lowest.omega * (-0.2) * psi == pytest.approx(0.0, abs=1e-10)


def test_frequencies_never_reach_zero():
    traj = dce_trajectory(variant=DceVariant.SHAKING, epsilon=0.08)
    for t in np.linspace(0.0, 2.0, 9):
        basis = solve_instantaneous_basis(traj, FieldParams(), D, float(t), 4)
        assert np.min(np.abs(basis.frequencies)) > 0.1


# ---------------------------------------------------------------------------
# generator


def test_static_generator_is_diagonal_frequency_matrix():
    traj = BoundaryTrajectory.static(0.0, math.pi)
    vhat = assemble_vhat(traj, FieldParams(), D, 0.0, 5)
    gen = generator_matrix(vhat)
    freqs = solve_instantaneous_basis(
        traj, FieldParams(), D, 0.0, 5
    ).frequencies
    assert np.max(np.abs(gen - 1j * np.diag(freqs))) < 1e-9


def _accelerating_contraction():
    """Walls closing in and decelerating: a massive field's lowest pair
    is evanescent at t = 0 (see the test above)."""
    return BoundaryTrajectory(
        lambda t: -1.0 + 0.2 * t - 0.05 * t * t,
        lambda t: 1.0 - 0.2 * t + 0.05 * t * t,
        v_minus=lambda t: 0.2 - 0.1 * t, v_plus=lambda t: -0.2 + 0.1 * t,
        a_minus=lambda t: -0.1, a_plus=lambda t: 0.1,
    )


GENERATOR_CASES = {
    "static-dirichlet": (
        BoundaryTrajectory.static(0.0, math.pi), D, 0.0, 0.0, 5
    ),
    "static-neumann-massive": (
        BoundaryTrajectory.static(-0.7, 1.4), N, 1.3, 0.0, 5
    ),
    "moving-dirichlet": (
        dce_trajectory(variant=DceVariant.SHAKING, epsilon=0.05), D, 0.0,
        0.41, 5,
    ),
    "moving-neumann": (
        dce_trajectory(variant=DceVariant.BREATHING, bc=N, epsilon=0.05), N,
        0.0, 0.3, 5,
    ),
    "moving-dirichlet-massive": (
        dce_trajectory(epsilon=0.05, mass=0.7), D, 0.7, 1.1, 4,
    ),
    "moving-neumann-evanescent": (_accelerating_contraction(), N, 1.5, 0.0, 4),
}


def _fd_generator(traj, params, bc, t, bands, h):
    """The generator with centred differences of sign-aligned bases.

    Every integral is a full-grid Gauss-Legendre sum over the cavity of
    ``InstantaneousBasis.values``, written out here: it shares neither the
    folded rule nor the assembly with the engine.
    """
    now, before, after = solve_instantaneous_bases(
        traj, params, bc, [t, t - h, t + h], bands
    )
    xm, xp = now.x_minus, now.x_plus
    nodes, weights = gauss_legendre(
        xm, xp, exact1d._quad_count(bands, None)
    )
    points = np.concatenate([nodes, [xm, xp]])
    vals, dvals = now.values(points)
    inner = len(nodes)
    sides = []
    for side in (before, after):
        side_vals = side.values(points)[0]
        overlap = (side_vals[:, :inner] * vals[:, :inner]) @ weights
        sides.append(side_vals * np.where(overlap < 0, -1.0, 1.0)[:, None])
    domega = (after.omega - before.omega) / (2 * h)
    vals_dt = (sides[1] - sides[0]) / (2 * h)  # d psi/dt at fixed x
    omega = now.omega
    psi, psi_t = vals[:, :inner], vals_dt[:, :inner]
    total = (omega[:, None] + omega[None, :]) * ((psi_t * weights) @ psi.T)
    total += (2.0 * omega**2 + domega - now.f_term)[:, None] * (
        (psi * weights) @ psi.T
    )
    outward = np.array([-1.0, 1.0])  # left wall, right wall
    psi_t_end = vals_dt[:, inner:]
    if bc is N:
        speeds = np.array(traj.velocities(t))
        total -= (psi_t_end * outward * speeds) @ vals[:, inner:].T
    else:
        total += (psi_t_end @ (dvals[:, inner:] * outward).T) / omega[None, :]
    hat_sign = np.where(np.arange(2 * bands) < bands, 1.0, -1.0)
    return hat_sign * total - np.diag(omega), domega


@pytest.mark.parametrize("case", list(GENERATOR_CASES))
def test_analytic_generator_matches_finite_differences(case):
    traj, bc, mass, t, bands = GENERATOR_CASES[case]
    params = FieldParams(mass=mass)
    vhat = assemble_vhat(traj, params, bc, t, bands)
    scale = float(np.max(np.abs(vhat)))
    times = np.array([t])
    walls, speeds, accels = exact1d._walls(traj, [t], accelerations=True)
    omega = exact1d._find_roots(times, walls, speeds, params, bc, bands)
    z, weights, lam, a, b, cs, squares = exact1d._folded_modes(
        params, bc, times, walls, speeds, omega, None
    )
    if case.endswith("evanescent"):
        assert np.count_nonzero(lam < 0) == 1
    domega = exact1d._folded_rates(
        times, omega, lam, a, b, z, weights, cs, squares, speeds, accels,
        params.mass_term + exact1d.positivity_shift(params), bc,
    )[0][0]
    gaps = []
    for h in (1e-4, 5e-5):
        reference, fd_domega = _fd_generator(traj, params, bc, t, bands, h)
        gaps.append(float(np.max(np.abs(vhat - reference))))
        # the roots' rate against a centred difference of the roots
        assert np.max(np.abs(domega - fd_domega)) <= 1e-7 * np.max(
            np.abs(omega)
        )
    assert gaps[0] <= 1e-7 * scale
    if case.startswith("moving"):  # the O(h^2) error of the reference
        assert 3.5 < gaps[0] / gaps[1] < 4.5
    else:
        assert np.max(np.abs(domega)) == 0.0
        assert gaps[0] <= 1e-15 * scale


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("mass", [0.0, 1.5])
def test_quadrature_rule_stays_at_round_off(bc, mass):
    # the generator at 4N + 16 points against a (16N + 64)-point reference,
    # held to twice the deviation of the earlier max(64, 8N) rule
    params = FieldParams(mass=mass)
    times = np.array([0.2, 0.7, 1.3])
    for variant in (DceVariant.RIGHT_ONLY, DceVariant.BREATHING):
        traj = dce_trajectory(variant=variant, bc=bc, epsilon=0.05, mass=mass)
        for bands in (3, 12, 24):
            def vhats(quad_points):
                return np.array([
                    assemble_vhat(traj, params, bc, t, bands, quad_points)
                    for t in times
                ])

            reference = vhats(16 * bands + 64)
            scale = np.max(np.abs(reference))
            rule = np.max(np.abs(vhats(None) - reference))
            earlier = np.max(np.abs(vhats(max(64, 8 * bands)) - reference))
            assert exact1d._quad_count(bands, None) == 4 * bands + 16
            assert rule <= max(2.0 * earlier, 1e-12 * scale)
            # an odd rule folds onto a centre node of undoubled weight
            odd = np.max(np.abs(vhats(4 * bands + 17) - reference))
            assert odd <= max(2.0 * earlier, 1e-12 * scale)
    points, folded = exact1d._fold_rule(17)
    centre = gauss_legendre(-1.0, 1.0, 17)[1][8]
    assert (points[0], folded[0], folded[-1]) == (0.0, centre, 0.0)


def test_degenerate_root_rate_raises(monkeypatch):
    # a root where dD/domega vanishes has no rate: typed error, not NaN
    rates = exact1d._boundary_rates

    def flat_in_omega(*args):
        by_x, by_v, by_omega = rates(*args)
        return by_x, by_v, (0.0 * by_omega[0], 0.0 * by_omega[1])

    monkeypatch.setattr(exact1d, "_boundary_rates", flat_in_omega)
    traj = dce_trajectory(epsilon=0.05)
    with pytest.raises(SolverError, match=r"degenerate root at t=0\.3"):
        assemble_vhat(traj, FieldParams(), D, 0.3, 3)


def test_mode_transform_matrix_is_unitary():
    m = mode_transform_matrix(4)
    assert np.allclose(m @ m.conj().T, np.eye(8), atol=1e-14)


# ---------------------------------------------------------------------------
# evolution


def test_static_trajectory_gives_pure_phases():
    traj = BoundaryTrajectory.static(0.0, math.pi)
    state = evolve_transformation(traj, FieldParams(), D, 0.0, 2.0, 4)
    assert np.max(np.abs(state.beta)) < 1e-9
    freqs = solve_instantaneous_basis(
        traj, FieldParams(), D, 0.0, 4
    ).frequencies[:4]
    expected = np.diag(np.exp(1j * freqs * 2.0))
    # the Magnus step is exact for this constant generator; the bound is
    # a loose one (test_static_walls_give_exact_phases_at_default_step
    # holds it to 1e-11)
    assert np.max(np.abs(state.alpha - expected)) < 2e-5


@pytest.mark.parametrize("mass", [0.0, 1.3])
def test_static_walls_give_exact_phases_at_default_step(mass):
    traj = BoundaryTrajectory.static(0.0, math.pi)
    params = FieldParams(mass=mass)
    state = evolve_transformation(traj, params, D, 0.0, 2.0, 4)
    freqs = solve_instantaneous_basis(traj, params, D, 0.0, 4).frequencies
    expected = np.diag(np.exp(1j * freqs[:4] * 2.0))
    assert np.max(np.abs(state.alpha - expected)) < 1e-11


def test_default_step_matches_eighth_step_at_12_bands():
    # DCE-I at drive omega_1 + omega_2 = 3 over one period, epsilon 1e-2
    traj = dce_trajectory(epsilon=1e-2)
    omega_max = np.max(np.abs(
        solve_instantaneous_basis(traj, FieldParams(), D, 0.0, 12).frequencies
    ))
    window = (FieldParams(), D, 0.0, 2.0 * math.pi / 3.0, 12)
    coarse = evolve_transformation(traj, *window)
    fine = evolve_transformation(traj, *window, step=0.3 / omega_max / 8)
    assert fine.step_count == 8 * coarse.step_count
    assert np.max(np.abs(coarse.U - fine.U)) < 1e-6


def test_verbose_logs_the_step_plan_and_keeps_stdout_clean(caplog, capsys):
    traj = BoundaryTrajectory.static(0.0, math.pi)
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        evolve_transformation(traj, FieldParams(), D, 0.0, 0.2, 2, step=0.1)
    [record] = caplog.records
    assert record.name == "movingcavity.exact1d"
    assert re.fullmatch(
        r"integrating 2 steps of dt=0\.1 \(guidance dt <= [0-9.e-]+\); "
        r"5 nodes in 1 chunks of up to \d+; 24 quadrature points; "
        r"roots in 1 batches of up to \d+ nodes",
        record.getMessage(),
    )
    assert capsys.readouterr().out == ""


DCE_II = (
    dce_trajectory(variant=DceVariant.BREATHING, bc=N, mass=1.5),
    FieldParams(mass=1.5), N, 0.0, 0.5, 4,
)


def _dce_ii_window():
    """U and a checkpoint at each step end, short massive Neumann window."""
    state = evolve_transformation(
        *DCE_II, checkpoint_times=np.linspace(0.0, 0.5, 41)
    )
    return state.U, state.checkpoints


def _step_plan(traj, params, bc, t0, tf, bands):
    """dt and step count of the default plan."""
    omega_max = np.max(np.abs(
        solve_instantaneous_basis(traj, params, bc, t0, bands).frequencies
    ))
    n_steps = math.ceil((tf - t0) / (0.3 / omega_max))
    return (tf - t0) / n_steps, n_steps


def _magnus_steps(generator, t0, dt, n_steps, eye):
    """The product after each Magnus step, one generator and expm at a time."""
    us = [eye]
    k1 = generator(t0)
    for start in t0 + np.arange(n_steps) * dt:
        k2, k3 = generator(start + dt / 2.0), generator(start + dt)
        exponent = (dt / 6.0) * (k1 + 4.0 * k2 + k3)
        exponent -= (dt * dt / 12.0) * (k1 @ k3 - k3 @ k1)
        us.append(expm(exponent) @ us[-1])
        k1 = k3
    return us


def _per_step_reference(traj, params, bc, t0, tf, bands):
    """U after each step of the default plan, one node and expm at a time.

    The steps run on the real V-hat; each U is then M U M* in the
    frequency modes.
    """
    dt, n_steps = _step_plan(traj, params, bc, t0, tf, bands)
    m = mode_transform_matrix(bands)
    reals = _magnus_steps(
        lambda t: assemble_vhat(traj, params, bc, t, bands), t0, dt, n_steps,
        np.eye(2 * bands),
    )
    return dt, [m @ u @ m.conj().T for u in reals]


def _complex_per_step(traj, params, bc, t0, tf, bands):
    """The same steps on the complex generator M V-hat M* throughout."""
    dt, n_steps = _step_plan(traj, params, bc, t0, tf, bands)
    return dt, _magnus_steps(
        lambda t: generator_matrix(assemble_vhat(traj, params, bc, t, bands)),
        t0, dt, n_steps, np.eye(2 * bands, dtype=complex),
    )


def _chunk_layout(caplog):
    """(nodes, chunks, nodes per chunk) from the last evolution's log."""
    layout = re.search(
        r"(\d+) nodes in (\d+) chunks of up to (\d+)",
        caplog.records[-1].getMessage(),
    )
    return tuple(int(n) for n in layout.groups())


def _root_layout(caplog):
    """(root batches, nodes per batch) from the last evolution's log."""
    layout = re.search(
        r"roots in (\d+) batches of up to (\d+) nodes",
        caplog.records[-1].getMessage(),
    )
    return tuple(int(n) for n in layout.groups())


# bytes a node takes in DCE_II's point chunks (folded (node x 2N x 2 x
# point) array on ceil(Q/2) + 1 points) and in its root batches ((node x
# branch x scan node) grid, whose massive Neumann scan covers the
# evanescent window too)
BASIS_BYTES = 8 * 2 * (-(-exact1d._quad_count(4, None) // 2) + 1) * 8
SCAN_BYTES = 2 * exact1d._scan_grid(
    np.array([math.pi]), 1.5**2, 4, False
)[0].shape[1] * 8


def test_batched_evolution_matches_per_node_path(monkeypatch, caplog):
    dt, reference = _per_step_reference(*DCE_II)
    runs = []
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        # the default layout takes the whole window as one chunk and the
        # nodes after t0 as one root batch
        runs.append(_dce_ii_window())
        nodes, chunks, _ = _chunk_layout(caplog)
        assert (nodes, chunks) == (2 * len(reference) - 1, 1)
        assert _root_layout(caplog)[0] == 1
        assert nodes > 9
        for chunk_bytes, per_chunk, per_batch in (
            # steps 1 (nodes 2-4) and 2 (nodes 4-6) straddle chunk
            # boundaries; two root batches
            (3 * BASIS_BYTES, 3, 7),
            # chunk and root batch boundaries that rarely meet
            (5 * SCAN_BYTES, 2, 5),
            # every basis alone
            (1, 1, 1),
        ):
            monkeypatch.setattr(exact1d, "CHUNK_BYTES", chunk_bytes)
            runs.append(_dce_ii_window())
            assert _chunk_layout(caplog) == (
                nodes, -(-nodes // per_chunk), per_chunk
            )
            assert _root_layout(caplog) == (
                -(-(nodes - 1) // per_batch), per_batch
            )
    for u, checkpoints in runs:
        assert np.array_equal(u, reference[-1])
        steps = [round(t / dt) for t, _ in checkpoints]
        assert set(steps) == set(range(len(reference)))
        for step, (_, u_step) in zip(steps, checkpoints):
            assert np.array_equal(u_step, reference[step])


ORACLE_CASES = {
    "dce-i-dirichlet": (dce_trajectory(epsilon=0.05), D, 0.0),
    "dce-i-neumann": (dce_trajectory(bc=N, epsilon=0.05), N, 0.0),
    "dce-ii-dirichlet": (
        dce_trajectory(variant=DceVariant.BREATHING, epsilon=0.05), D, 0.0
    ),
    "dce-ii-neumann": (
        dce_trajectory(variant=DceVariant.BREATHING, bc=N, epsilon=0.05), N,
        0.0,
    ),
    "neumann-evanescent": (_accelerating_contraction(), N, 1.5),
}


@pytest.mark.parametrize("bands", [4, 12])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_real_basis_evolution_matches_complex_generator_steps(case, bands):
    # M is unitary, so M exp(Omega_V) M* = exp(M Omega_V M*): the real steps
    # and the complex ones differ by round-off only
    traj, bc, mass = ORACLE_CASES[case]
    params = FieldParams(mass=mass)
    window = (traj, params, bc, 0.0, 0.4, bands)
    if case == "neumann-evanescent":
        basis = solve_instantaneous_basis(traj, params, bc, 0.0, bands)
        assert np.count_nonzero(basis.lam < 0) == 1
    dt, reference = _complex_per_step(*window)
    state = evolve_transformation(
        *window, checkpoint_times=np.linspace(0.0, 0.4, len(reference))
    )
    assert state.step_count == len(reference) - 1
    assert np.max(np.abs(state.U - reference[-1])) <= 1e-13
    steps = [round(t / dt) for t, _ in state.checkpoints]
    assert set(steps) == set(range(len(reference)))
    for step, (_, u_step) in zip(steps, state.checkpoints):
        assert np.max(np.abs(u_step - reference[step])) <= 1e-13


def test_each_node_is_solved_once(monkeypatch):
    # t0's roots give the default step; every node's roots are found once
    # and its modes normalised once, whatever the layout
    find_roots, solve = exact1d._find_roots, exact1d._folded_modes
    found, solved = [], []

    def counting_roots(times, *args):
        found.extend(times.tolist())
        return find_roots(times, *args)

    def counting_solve(params, bc, times, *args):
        solved.extend(times.tolist())
        return solve(params, bc, times, *args)

    monkeypatch.setattr(exact1d, "_find_roots", counting_roots)
    monkeypatch.setattr(exact1d, "_folded_modes", counting_solve)
    for chunk_bytes in (
        exact1d.CHUNK_BYTES, 3 * BASIS_BYTES, 5 * SCAN_BYTES, 1
    ):
        monkeypatch.setattr(exact1d, "CHUNK_BYTES", chunk_bytes)
        found.clear()
        solved.clear()
        state = evolve_transformation(*DCE_II)
        for times in (found, solved):
            assert len(times) == 2 * state.step_count + 1
            assert len(set(times)) == len(times)
        assert found[0] == solved[0] == DCE_II[3]
        assert found == sorted(found) and solved == sorted(solved)


def test_evolutions_share_no_workspace():
    # each call owns its workspace: a 5-band massive Neumann evolution
    # between two 12-band ones changes nothing, and no result aliases another
    def evolve_a():
        return evolve_transformation(
            dce_trajectory(epsilon=0.05), FieldParams(), D, 0.0, 0.3, 12,
            checkpoint_times=(0.0, 0.1, 0.1, 0.3),
        )

    first = evolve_a()
    between = evolve_transformation(
        _accelerating_contraction(), FieldParams(mass=1.5), N, 0.0, 0.3, 5,
        checkpoint_times=(0.0, 0.2, 0.3),
    )
    again = evolve_a()
    assert np.array_equal(again.U, first.U)
    assert len(again.checkpoints) == len(first.checkpoints) == 4
    for (t, u), (t_again, u_again) in zip(first.checkpoints, again.checkpoints):
        assert t == t_again and np.array_equal(u, u_again)
    arrays = [
        array for state in (first, between, again)
        for array in (state.U, *(u for _, u in state.checkpoints))
    ]
    for i, array in enumerate(arrays):
        for other in arrays[i + 1 :]:
            assert not np.shares_memory(array, other)


def test_evolution_names_first_offending_time_inside_a_chunk(caplog):
    # the right wall turns superluminal at t = 0.3, node 60 of the first chunk
    traj = BoundaryTrajectory(
        lambda t: 0.0, lambda t: math.pi + 2.0 * max(t - 0.3, 0.0),
        v_minus=lambda t: 0.0, v_plus=lambda t: 2.0 if t >= 0.3 else 0.0,
    )
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        with pytest.raises(InvalidTrajectoryError, match=r"t=0\.3\b"):
            evolve_transformation(
                traj, FieldParams(), D, 0.0, 0.5, 3, step=0.01
            )
    assert _chunk_layout(caplog)[2] > 61


def test_trajectory_is_checked_before_any_root_scan(monkeypatch, caplog):
    # the right wall's acceleration turns non-finite at t = 0.1 (first seen
    # at the node t = 0.105), and a root polish fails later in the same
    # root batch: the trajectory comes first
    base = dce_trajectory(epsilon=0.05)
    traj = BoundaryTrajectory(
        base.x_minus, base.x_plus, base.v_minus, base.v_plus, base.a_minus,
        lambda t: math.nan if t >= 0.1 else base.a_plus(t),
    )
    polish = exact1d._polish_roots

    def failing_late(f_vec, a, b, fa, fb, max_iter=100, labels=None):
        if labels.max() > 0.2:
            late = labels[labels > 0.2][0]
            raise SolverError(f"root polish did not converge at t={late}")
        return polish(f_vec, a, b, fa, fb, max_iter, labels)

    monkeypatch.setattr(exact1d, "_polish_roots", failing_late)
    window = (FieldParams(), D, 0.0, 0.5, 3)
    with pytest.raises(SolverError, match=r"t=0\.2"):
        evolve_transformation(base, *window, step=0.01)
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        with pytest.raises(
            InvalidTrajectoryError, match=r"wall acceleration nan at t=0\.105"
        ):
            evolve_transformation(traj, *window, step=0.01)
    assert _root_layout(caplog)[0] == 1


def test_identity_preserved_and_checkpoints_recorded():
    # pick a window whose ends are instants of zero wall velocity: there
    # the instantaneous basis is exactly orthonormal and the Bogoliubov
    # identities hold to integrator accuracy
    traj = dce_trajectory(epsilon=1e-3, drive=3.0)
    t0, tf = math.pi / 6.0, math.pi / 2.0
    state = evolve_transformation(
        traj, FieldParams(), D, t0, tf, 4,
        checkpoint_times=(0.8, 1.2),
    )
    assert bogoliubov_identity_residual(state) < 5e-5
    times = [t for t, _ in state.checkpoints]
    assert times == pytest.approx([0.8, 1.2], abs=0.05)
    for _, u in state.checkpoints:
        assert u.shape == (8, 8)


def test_checkpoints_land_at_nearest_step_end():
    # dt = 0.1; 0.34 is nearer the end at 0.3 than at 0.4
    requested = (0.04, 0.26, 0.34, 0.96)
    state = evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 1.0, 3, step=0.1,
        checkpoint_times=requested,
    )
    times = [t for t, _ in state.checkpoints]
    assert times == pytest.approx([0.0, 0.3, 0.3, 1.0], abs=1e-12)
    for want, got in zip(requested, times):
        assert abs(got - want) <= 0.05 + 1e-12


@pytest.mark.parametrize("name, value", [
    ("t0", math.nan), ("t0", -math.inf), ("tf", math.nan), ("tf", math.inf),
])
def test_non_finite_window_rejected(name, value):
    window = {"t0": 0.0, "tf": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        evolve_transformation(
            dce_trajectory(), FieldParams(), D, window["t0"], window["tf"], 2
        )


@pytest.mark.parametrize("times", [
    (math.nan, 0.2, 0.3), (0.2, 7.0, -3.0), (0.2, math.inf), (-1e-9,),
])
def test_checkpoint_times_outside_window_rejected(times):
    with pytest.raises(ValueError, match="checkpoint_times outside"):
        evolve_transformation(
            dce_trajectory(), FieldParams(), D, 0.0, 0.5, 3,
            checkpoint_times=times,
        )


def test_checkpoints_at_window_ends_recorded():
    state = evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 0.5, 3,
        checkpoint_times=(0.5, 0.0),
    )
    (t_start, u_start), (t_end, u_end) = state.checkpoints
    assert (t_start, t_end) == (0.0, pytest.approx(0.5, abs=1e-12))
    assert np.array_equal(u_start, np.eye(6))
    assert np.array_equal(u_end, state.U)


@pytest.mark.parametrize("name, value", [
    ("step", 0.0), ("step", -0.5), ("quad_points", 0), ("bands", 0),
])
def test_bad_integration_argument_rejected(name, value):
    arguments = {"bands": 2, name: value}
    with pytest.raises(ValueError, match=name):
        evolve_transformation(
            dce_trajectory(), FieldParams(), D, 0.0, 1.0, **arguments
        )


def test_oversized_step_raises_stability_error():
    traj = dce_trajectory(epsilon=1e-3)
    with pytest.raises(StabilityError):
        evolve_transformation(traj, FieldParams(), D, 0.0, 2.0, 4, step=1.0)


def test_resonant_pair_creation_robust_to_truncation():
    traj = dce_trajectory(epsilon=1e-3, drive=3.0)
    kwargs = dict(step=0.02)
    small = evolve_transformation(traj, FieldParams(), D, 0.0, 8.0, 4, **kwargs)
    large = evolve_transformation(traj, FieldParams(), D, 0.0, 8.0, 8, **kwargs)
    b_small = abs(small.beta[0, 1])
    b_large = abs(large.beta[0, 1])
    assert b_small == pytest.approx(b_large, rel=0.01)
