"""Tests for instantaneous bases and exact Bogoliubov evolution."""

import dataclasses
import logging
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movingcavity import core, exact1d
from movingcavity.core import BoundaryCondition, FieldParams, expm
from movingcavity.exact1d import (
    BoundaryTrajectory,
    InvalidTrajectoryError,
    SolverError,
    StabilityError,
    _char_det,
    _cs,
    _det_walls,
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
    band_limited_points,
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
    walls, speeds = exact1d._walls(traj, [3.7])
    assert walls[:, 0].tolist() == [-1.0, 1.0]
    assert speeds[:, 0] == pytest.approx((0.0, 0.0), abs=1e-12)


def test_walls_whose_sum_overflows_pass_the_row_check():
    # every value finite and every row good, but the table's sum overflows:
    # the one-sum filter sends it to the row check, which passes it whole
    traj = BoundaryTrajectory.static(1e308, 1.5e308)
    walls, speeds, accels = exact1d._walls(
        traj, [0.0, 1.0], accelerations=True
    )
    assert walls.tolist() == [[1e308, 1e308], [1.5e308, 1.5e308]]
    assert speeds.tolist() == accels.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    # and an empty table passes, as no row fails
    assert exact1d._walls(traj, []).shape == (2, 2, 0)


def test_trajectory_requires_velocities():
    with pytest.raises(TypeError):
        BoundaryTrajectory(lambda t: 0.0, lambda t: 1.0)


def test_crossing_walls_rejected():
    traj = BoundaryTrajectory(
        lambda t: 0.5 * t, lambda t: 1.0 - 0.5 * t,
        v_minus=lambda t: 0.5, v_plus=lambda t: -0.5,
    )
    with pytest.raises(InvalidTrajectoryError, match=r"crossed at t=1\.2"):
        exact1d._walls(traj, [1.2])


def test_superluminal_wall_rejected():
    traj = BoundaryTrajectory(
        lambda t: -1.0, lambda t: 1.0 + 2.0 * t,
        v_minus=lambda t: 0.0, v_plus=lambda t: 2.0,
    )
    with pytest.raises(InvalidTrajectoryError, match=r"speed \|2\.0\| >= 1"):
        exact1d._walls(traj, [0.0])


def test_static_factory_reports_zero_acceleration():
    traj = BoundaryTrajectory.static(-1.0, 1.0)
    accels = exact1d._walls(traj, [0.3], accelerations=True)[2]
    assert accels[:, 0].tolist() == [0.0, 0.0]


def _pipeline_trajectories():
    """Every trajectory a pipeline builds, by name."""
    return {
        **{
            f"dce-{variant.value}": dce_trajectory(
                variant=variant, epsilon=0.05
            )
            for variant in DceVariant
        },
        "envelope": _envelope_trajectory(math.pi, 0.05, 3.0, 4.0),
        "static": BoundaryTrajectory.static(-1.0, 1.0),
    }


def test_pipeline_trajectories_supply_every_callable():
    # so no pipeline reaches the missing-acceleration error
    names = [field.name for field in dataclasses.fields(BoundaryTrajectory)]
    assert len(names) == 6
    for name, traj in _pipeline_trajectories().items():
        for field in names:
            assert callable(getattr(traj, field)), (name, field)
        exact1d._walls(traj, [0.37, 1.9], accelerations=True)


def _fourth_order_difference(f, t, h, order):
    """4th-order central difference of f' (order 1) or f'' (2) at t."""
    if order == 1:
        return (
            -f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)
        ) / (12 * h)
    return (
        -f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h)
        - f(t - 2 * h)
    ) / (12 * h * h)


@pytest.mark.parametrize("name", ["dce", "envelope"])
@pytest.mark.parametrize("given", ["v", "x"])
def test_finite_difference_acceleration_matches_analytic(name, given):
    # the supplied accelerations are the derivatives of the supplied
    # velocities ("v") and the second derivatives of the positions ("x")
    cases = [
        traj for key, traj in _pipeline_trajectories().items()
        if key.startswith(name)
    ]
    assert len(cases) == (3 if name == "dce" else 1)
    for traj in cases:
        for x, v, a in (
            (traj.x_minus, traj.v_minus, traj.a_minus),
            (traj.x_plus, traj.v_plus, traj.a_plus),
        ):
            for t in (0.37, 1.9, 3.1):
                if given == "v":
                    fd = _fourth_order_difference(v, t, 1e-3, 1)
                else:
                    fd = _fourth_order_difference(x, t, 1e-3, 2)
                assert abs(fd - a(t)) < 1e-7


@pytest.mark.parametrize("field, value, kind", [
    ("x_plus", math.nan, "positions"),
    ("x_plus", math.inf, "positions"),
    ("x_minus", -math.inf, "positions"),
    ("v_plus", math.nan, "velocities"),
    ("a_plus", math.nan, "accelerations"),
    ("a_minus", math.inf, "accelerations"),
])
def test_non_finite_trajectory_rejected(field, value, kind):
    functions = dict(
        x_minus=lambda t: 0.0, x_plus=lambda t: 1.0,
        v_minus=lambda t: 0.0, v_plus=lambda t: 0.0,
        a_minus=lambda t: 0.0, a_plus=lambda t: 0.0,
    )
    functions[field] = lambda t: value
    traj = BoundaryTrajectory(**functions)
    what = {
        "positions": "position", "velocities": "speed",
        "accelerations": "acceleration",
    }[kind]
    message = rf"non-finite wall {what} .* at t=0\.25"
    with pytest.raises(InvalidTrajectoryError, match=message):
        exact1d._walls(traj, [0.25], accelerations=True)
    # the solvers raise it too, naming the time, instead of failing a scan
    with pytest.raises(InvalidTrajectoryError, match=message):
        assemble_vhat(traj, FieldParams(), D, 0.25, 3)
    if kind != "accelerations":  # a plain basis needs no acceleration
        with pytest.raises(InvalidTrajectoryError, match=message):
            solve_instantaneous_basis(traj, FieldParams(), D, 0.25, 3)
    else:
        exact1d._walls(traj, [0.25])
        solve_instantaneous_basis(traj, FieldParams(), D, 0.25, 3)


# each fault of the wall checks, in the order they are checked at one time
WALL_FAULTS = [
    ("x_plus", math.nan, r"non-finite wall position nan"),
    ("x_minus", 2.0, r"boundaries crossed at t=0\.2: x_-=2\.0"),
    ("v_minus", math.inf, r"non-finite wall speed inf"),
    ("v_plus", -1.0, r"boundary speed \|-1\.0\| >= 1"),
    ("a_minus", math.nan, r"non-finite wall acceleration nan"),
]


@pytest.mark.parametrize("first", range(len(WALL_FAULTS)))
def test_walls_report_first_offending_time_in_check_order(first):
    # t = 0.2 carries the faults from ``first`` on, t = 0.3 every fault:
    # the earliest time is named, with its first fault in check order
    functions = dict(
        x_minus=lambda t: 0.0, x_plus=lambda t: 1.0,
        v_minus=lambda t: 0.0, v_plus=lambda t: 0.0,
        a_minus=lambda t: 0.0, a_plus=lambda t: 0.0,
    )
    for k, (field, bad, _) in enumerate(WALL_FAULTS):
        fine = functions[field]
        start = 0.2 if k >= first else 0.3
        functions[field] = (
            lambda t, fine=fine, bad=bad, start=start:
            bad if t >= start else fine(t)
        )
    traj = BoundaryTrajectory(**functions)
    pattern = WALL_FAULTS[first][2]
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    with pytest.raises(InvalidTrajectoryError, match=pattern) as error:
        exact1d._walls(traj, times, accelerations=True)
    assert "t=0.2" in str(error.value)
    # without accelerations an acceleration fault is not seen
    if first == len(WALL_FAULTS) - 1:
        pattern = r"non-finite wall position nan at t=0\.3$"
    with pytest.raises(InvalidTrajectoryError, match=pattern):
        exact1d._walls(traj, times)
    # every callable is called at every time before any check, so an
    # exception of its own at a later time comes first
    raising = dataclasses.replace(
        traj, a_plus=lambda t: 1.0 / 0.0 if t > 0.35 else 0.0
    )
    with pytest.raises(ZeroDivisionError):
        exact1d._walls(raising, times, accelerations=True)


@pytest.mark.parametrize("missing", ["a_minus", "a_plus"])
def test_missing_acceleration_is_a_typed_error(missing):
    traj = dataclasses.replace(dce_trajectory(epsilon=0.05), **{missing: None})
    window = (traj, FieldParams(), D)
    with pytest.raises(InvalidTrajectoryError, match=missing):
        evolve_transformation(*window, 0.0, 0.5, 3)
    with pytest.raises(InvalidTrajectoryError, match=missing):
        assemble_vhat(*window, 0.3, 3)
    # a plain basis solve reads no acceleration
    bases = solve_instantaneous_bases(*window, [0.0, 0.3], 3)
    assert len(bases) == 2


# ---------------------------------------------------------------------------
# basis functions and root polish


def test_cs_mixed_regimes_match_elementwise_evaluation():
    # one call over oscillatory, evanescent and lam == 0 entries: an entry's
    # c and s do not depend on the other entries of its call, so each is
    # the 0-d evaluation to the last bit
    lam = np.array([2.0, -1.5, 0.0, 0.3, -4.0, 0.0, 900.0])[:, None]
    x = np.linspace(-1.2, 0.9, 7)[None, :]
    c, s = _cs(x, lam)
    for i in range(lam.shape[0]):
        for j in range(x.shape[1]):
            ci, si = _cs(x[0, j], lam[i, 0])
            assert c[i, j] == ci and s[i, j] == si
    assert np.all(c[2] == 1.0) and np.all(s[2] == x[0])
    # so are the oscillatory rows of an all-oscillatory call
    osc = lam[:, 0] > 0
    c_osc, s_osc = _cs(x, lam[osc])
    assert np.array_equal(c_osc, c[osc]) and np.array_equal(s_osc, s[osc])


def _cs_ulps(got, want):
    """|got - want| in units in the last place of ``want``."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_cs_matches_math_sin_and_cos_up_to_1200():
    # kx from 1e-300 up to 1200, on random points and wavenumbers and
    # within one ulp of every odd multiple of pi below 1200, where the
    # half-angle tangent has its poles, and of every even one
    rng = np.random.default_rng(25)
    k = 10.0 ** rng.uniform(-3.0, 3.0, 4000)
    kx = 10.0 ** rng.uniform(-300.0, math.log10(1200.0), 4000)
    multiples = np.arange(1, 382) * math.pi
    near = np.concatenate(
        [np.nextafter(multiples, 0.0), multiples, np.nextafter(multiples, 2e3)]
    )
    lam = np.concatenate([k * k, np.ones_like(near)])
    x = np.concatenate([kx / k, near])
    c, s = _cs(x, lam)
    root = np.sqrt(lam)
    phase = root * x  # the kx that c and s see
    want_c = np.array([math.cos(v) for v in phase])
    want_s = np.array([math.sin(v) for v in phase]) / root
    assert np.max(np.abs(c - want_c)) <= 2.0**-50  # 4 ulp of 1
    assert np.max(_cs_ulps(s, want_s)) <= 4.0


@pytest.mark.parametrize("lams", [
    [2.0, 0.3, 900.0],  # all oscillatory
    [2.0, -1.5, 0.0, 0.3, -4.0, 0.0, 900.0],  # mixed
])
def test_cs_warns_in_neither_regime(lams):
    # kx reaches 1200 on the lam = 900 entry, where cosh would overflow
    lam = np.array(lams)[:, None]
    x = np.linspace(-1.2, 40.0, 7)[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, s = _cs(x, lam)
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
    assert np.all(np.abs(c[lam[:, 0] > 0]) <= 1.0)


def test_cs_continuous_through_zero_lam():
    x = np.linspace(-2.0, 2.0, 9)
    c0, s0 = _cs(x, 0.0)
    for lam in (1e-12, -1e-12):
        c, s = _cs(x, lam)
        assert np.max(np.abs(c - c0)) < 1e-11
        assert np.max(np.abs(s - s0)) < 1e-11


@pytest.mark.parametrize("lams", [
    [2.0, -1.5, 1e-3],  # |lam| x^2 on both sides of 1 along a row
    [2.0, -1.5, 1e-3, -2e-4, 1e-9, 0.0],  # and rows wholly below it
])
def test_cs_rates_match_centred_difference_in_lam(lams):
    x = np.linspace(-1.3, 1.1, 9)[None, :]
    lam = np.array(lams)[:, None]
    c, s = _cs(x, lam)
    dc, ds = exact1d._cs_rates(x, lam, c, s, x * x)
    h = 1e-5
    (cp, sp), (cm, sm) = _cs(x, lam + h), _cs(x, lam - h)
    assert np.max(np.abs(dc - (cp - cm) / (2 * h))) < 1e-9
    assert np.max(np.abs(ds - (sp - sm) / (2 * h))) < 1e-9
    assert np.all(np.isfinite(ds))


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
    fixed = _det_walls(length, *speeds, bc)
    det, slope = _char_det(omega, fixed, mass2f, bc, slope=True)
    assert np.array_equal(det, _char_det(omega, fixed, mass2f, bc))
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
        _char_det(omega + h, fixed, mass2f, bc)
        - _char_det(omega - h, fixed, mass2f, bc)
    ) / (2 * h)
    assert np.all(np.abs(slope - central) <= 1e-8 * (1.0 + np.abs(slope)))


def test_char_det_slope_takes_its_series_per_entry():
    # |lam| L^2 straddles the series cut 1 differently for the lengths: a
    # batch must give each entry the bits it gets alone
    mass2f = 4.0
    omega = np.sqrt(mass2f + np.array([0.2, 0.2, -3.0, 10.0]))
    length = np.array([1.0, 4.0, 0.5, 0.2])
    lam = omega * omega - mass2f
    assert len(set(np.abs(lam) * length**2 < 1.0)) == 2
    for bc in (D, N):
        batch = _char_det(
            omega, _det_walls(length, 0.3, -0.2, bc), mass2f, bc, slope=True
        )
        for i in range(len(omega)):
            alone = _char_det(
                omega[i:i + 1], _det_walls(length[i:i + 1], 0.3, -0.2, bc),
                mass2f, bc, slope=True,
            )
            assert batch[0][i] == alone[0][0] and batch[1][i] == alone[1][0]


def test_polish_roots_raises_when_iterations_run_out():
    # static Dirichlet walls pi apart: roots at omega = 1, 2, ...
    fixed = _det_walls(math.pi, 0.0, 0.0, D)
    det = lambda w: _char_det(w, fixed, 0.0, D, slope=True)
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
    # t0 alone, then every node in one root batch
    rounds = _polish_rounds(monkeypatch)
    evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 2.0 * math.pi / 3.0, 12
    )
    assert len(rounds) == 2
    assert max(rounds) <= 5


def test_exact_resonant_window_needs_no_sin_cos_or_solve(monkeypatch):
    # the same window takes c and s from tangents of half the phase and
    # exponentiates its Magnus steps without a linear solve
    calls = {"sin": 0, "cos": 0, "solve": 0}

    def count(module, name):
        function = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(np, "sin")
    count(np, "cos")
    count(np.linalg, "solve")
    evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 2.0 * math.pi / 3.0, 12
    )
    assert calls == {"sin": 0, "cos": 0, "solve": 0}


def test_exact_resonant_window_takes_one_expm_stack_per_chunk(
    monkeypatch, caplog
):
    # the same window: 42 sixth-order steps, one expm call on the stack of
    # each chunk's exponents, none of which needs a squaring
    stacks = []

    def recording(a):
        stacks.append(np.array(a))
        return expm(a)

    monkeypatch.setattr(exact1d, "expm", recording)
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        state = evolve_transformation(
            dce_trajectory(), FieldParams(), D, 0.0, 2.0 * math.pi / 3.0, 12
        )
    nodes, chunks, per_chunk = _chunk_layout(caplog)
    assert state.step_count == 42 and nodes == 3 * 42
    assert per_chunk % 3 == 0 and len(stacks) == chunks > 1
    assert [len(stack) for stack in stacks] == [
        len(range(first, min(first + per_chunk, nodes), 3))
        for first in range(0, nodes, per_chunk)
    ]
    norms = np.concatenate(
        [np.abs(stack).sum(axis=-2).max(axis=-1) for stack in stacks]
    )
    assert np.all(norms < core._THETA16)


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
    (xm, xp), (vm, vp) = exact1d._walls(traj, [t])[..., 0].tolist()
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
    xm, xp = traj.x_minus(t), traj.x_plus(t)
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


def _vhat_from_values(omega, domega, f_term, bc, speeds, weights, values):
    """V-hat of one node from its modes on a grid whose last two points
    are the walls, left first.

    ``values`` are psi, psi' and d psi/dt at fixed x, each (2N, P + 2);
    the P inner points carry the quadrature ``weights``.
    """
    vals, dvals, vals_dt = values
    inner = len(weights)
    psi, psi_t = vals[:, :inner], vals_dt[:, :inner]
    total = (omega[:, None] + omega[None, :]) * ((psi_t * weights) @ psi.T)
    total += (2.0 * omega**2 + domega - f_term)[:, None] * (
        (psi * weights) @ psi.T
    )
    outward = np.array([-1.0, 1.0])  # left wall, right wall
    psi_t_end = vals_dt[:, inner:]
    if bc is N:
        total -= (psi_t_end * outward * speeds) @ vals[:, inner:].T
    else:
        total += (psi_t_end @ (dvals[:, inner:] * outward).T) / omega[None, :]
    hat_sign = np.where(np.arange(len(omega)) < len(omega) // 2, 1.0, -1.0)
    return hat_sign * total - np.diag(omega)


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in x's dtype."""
    low, high = np.ones_like(x), x
    for k in range(2, n + 1):
        low, high = high, ((2 * k - 1) * x * high - (k - 1) * low) / k
    return high, n * (x * high - low) / (x * x - 1)


def _long_gauss(a, b, points):
    """Gauss-Legendre nodes and weights on [a, b] in long double: numpy's
    float64 nodes after three Newton steps on P_n in long double."""
    x = np.polynomial.legendre.leggauss(points)[0].astype(np.longdouble)
    for _ in range(3):
        value, slope = _legendre(points, x)
        x -= value / slope
    slope = _legendre(points, x)[1]
    half = (np.longdouble(b) - np.longdouble(a)) / 2
    return (np.longdouble(a) + b) / 2 + half * x, half * 2 / (
        (1 - x * x) * slope * slope
    )


def _long_values(basis, x):
    """psi and psi' of every mode at the long double points ``x``,
    (2N, len(x)), from cos and sin (cosh and sinh where lam < 0)."""
    z = x - (np.longdouble(basis.x_minus) + basis.x_plus) / 2
    lam = basis.lam.astype(np.longdouble)[:, None]
    k = np.sqrt(np.abs(lam))
    kz = k * z
    with np.errstate(all="ignore"):  # each branch is taken where it holds
        c = np.where(lam > 0, np.cos(kz), np.where(lam < 0, np.cosh(kz), 1))
        s = np.where(
            lam > 0, np.sin(kz) / k, np.where(lam < 0, np.sinh(kz) / k, z)
        )
    a, b = basis.a[:, None], basis.b[:, None]
    return a * c + b * s, b * c - lam * a * s


def _fd_generator(traj, params, bc, t, bands, h):
    """The generator with centred differences of sign-aligned bases.

    Every integral is a full-grid Gauss-Legendre sum over the cavity,
    written out here in long double: it shares neither the wall-value
    overlaps nor the assembly with the engine, and its own rounding stays
    below the engine's, so a static cavity, where the differences vanish,
    checks the engine to its round-off.
    """
    now, before, after = solve_instantaneous_bases(
        traj, params, bc, [t, t - h, t + h], bands
    )
    xm, xp = now.x_minus, now.x_plus
    nodes, weights = _long_gauss(xm, xp, band_limited_points(bands))
    points = np.concatenate([nodes, [xm, xp]])
    vals, dvals = _long_values(now, points)
    inner = len(nodes)
    sides = []
    for side in (before, after):
        side_vals = _long_values(side, points)[0]
        overlap = (side_vals[:, :inner] * vals[:, :inner]) @ weights
        sides.append(side_vals * np.where(overlap < 0, -1.0, 1.0)[:, None])
    domega = (after.omega - before.omega) / (2 * h)
    vals_dt = (sides[1] - sides[0]) / (2 * h)  # d psi/dt at fixed x
    speeds = np.array([traj.v_minus(t), traj.v_plus(t)])
    vhat = _vhat_from_values(
        now.omega, domega, now.f_term, bc, speeds, weights,
        (vals, dvals, vals_dt),
    )
    return vhat.astype(float), domega


def _node_terms_at(traj, params, bc, t, bands):
    """``_node_terms`` of the one node t, (15, 2N), walls and speeds."""
    times = np.array([float(t)])
    walls, speeds, accels = exact1d._walls(traj, [t], accelerations=True)
    omega = exact1d._find_roots(times, walls, speeds, params, bc, bands)
    terms = exact1d._node_terms(
        params, bc, times, walls, speeds, accels, omega
    )
    return terms[:, 0], walls[:, 0], speeds[:, 0]


def _grid_values(terms, half, points):
    """psi, psi' and d psi/dt of a node's modes on the ``points``
    Gauss-Legendre nodes of [-h, h] and then at -h and h, each (2N, P + 2),
    and the weights: the grid path that the wall-value overlaps replaced.

    c and s come from ``_cs``, their lam-derivatives from ``_cs_rates``.
    """
    nodes, weights = gauss_legendre(-half, half, points)
    z = np.append(nodes, [-half, half])
    lam = terms[1][:, None]
    c, s = _cs(z, lam)
    dc, ds = exact1d._cs_rates(z, lam, c, s, z * z)
    a, b, on_c, on_s, on_dc, on_ds = terms[3:9, :, None]
    rate = on_c * c + on_s * s + on_dc * dc + on_ds * ds
    return (a * c + b * s, b * c - lam * a * s, rate), weights


def _grid_vhat(traj, params, bc, t, bands, points):
    """V-hat at t with every volume integral on ``_grid_values``."""
    terms, walls, speeds = _node_terms_at(traj, params, bc, t, bands)
    half = 0.5 * (walls[1] - walls[0])
    values, weights = _grid_values(terms, half, points)
    return _vhat_from_values(
        terms[0], terms[2], exact1d.positivity_shift(params), bc, speeds,
        weights, values,
    )


@pytest.mark.parametrize("case", list(GENERATOR_CASES))
def test_analytic_generator_matches_finite_differences(case):
    traj, bc, mass, t, bands = GENERATOR_CASES[case]
    params = FieldParams(mass=mass)
    vhat = assemble_vhat(traj, params, bc, t, bands)
    scale = float(np.max(np.abs(vhat)))
    omega, lam, domega = _node_terms_at(traj, params, bc, t, bands)[0][:3]
    if case.endswith("evanescent"):
        assert np.count_nonzero(lam < 0) == 1
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


def _reference_moments(lam, half, points=160):
    """int c^2, int s^2, int c dc and int s ds over [-h, h], and scales.

    A Gauss-Legendre sum, one mode at a time, of c and s written out from
    cos and sin (cosh and sinh when lam < 0) with dc = -x s/2; ds takes a
    30-term series in u = lam x^2 where |lam| h^2 < 1 and (x c - s)/(2 lam)
    elsewhere.  Each scale is the integral of |f g|.
    """
    x, w = gauss_legendre(-half, half, points)
    k = math.sqrt(abs(lam))
    if lam > 0:
        c, s = np.cos(k * x), np.sin(k * x) / k
    elif lam < 0:
        c, s = np.cosh(k * x), np.sinh(k * x) / k
    else:
        c, s = np.ones_like(x), x
    if abs(lam) * half * half < 1.0:
        u = lam * x * x
        ds = x**3 * sum(
            n * (-u) ** (n - 1) / math.factorial(2 * n + 1) * (-1.0)
            for n in range(1, 31)
        )
    else:
        ds = (x * c - s) / (2.0 * lam)
    products = (c * c, s * s, -0.5 * x * s * c, s * ds)
    return np.array([w @ f for f in products]), np.array(
        [w @ np.abs(f) for f in products]
    )


MOMENT_BASES = {
    (D, 0.0): dce_trajectory(variant=DceVariant.BREATHING, epsilon=0.05),
    (D, 1.5): dce_trajectory(epsilon=0.05, mass=1.5),
    (N, 0.0): dce_trajectory(variant=DceVariant.SHAKING, bc=N, epsilon=0.05),
    # its lowest pair is evanescent at t = 0
    (N, 1.5): _accelerating_contraction(),
}


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("mass", [0.0, 1.5])
def test_closed_form_moments_match_quadrature(bc, mass):
    # the moments of every mode of a moving 12-band basis, and of lam = 0
    # and lam h^2 of either sign from 1e-9 to 30, on both sides of the
    # |lam| h^2 = 1 cut of the series of ds/dlam and d2s/dlam2.  Measured:
    # at most 1.9e-14 of the scale below the cut and 5.7e-14 above it
    basis = solve_instantaneous_basis(
        MOMENT_BASES[bc, mass], FieldParams(mass=mass), bc, 0.0, 12
    )
    if bc is N and mass:
        assert np.count_nonzero(basis.lam < 0) == 1
    half = 0.5 * (basis.x_plus - basis.x_minus)
    scaled = np.array(
        [0.0, 1e-9, 5e-4, 0.999e-3, 1.001e-3, 2e-3, 0.1, 0.999, 1.001, 3.0,
         30.0]
    )
    lam = np.concatenate([basis.lam, np.concatenate([scaled, -scaled[1:]])
                          / (half * half)])
    wall = exact1d._wall_terms(
        np.array([[basis.x_minus], [basis.x_plus]]), lam[None, :]
    )
    got = np.stack([*wall[5:], *exact1d._rate_moments(lam[None, :], wall)])
    for j, value in enumerate(lam):
        want, scale = _reference_moments(value, half)
        assert np.all(np.abs(got[:, 0, j] - want) <= 2e-13 * scale), value


def _synthetic_terms(lam, half, seed):
    """``_node_terms`` of one node, (15, 1, 2N), for modes of the given lam
    at h, with random coefficient rows; the wall rows and moments are the
    engine's own (``_wall_terms``, ``_rate_moments``)."""
    terms = np.empty((15, 1, len(lam)))
    rng = np.random.default_rng(seed)
    terms[:9] = rng.uniform(-1.0, 1.0, (9, 1, len(lam)))
    terms[1] = lam
    wall = exact1d._wall_terms(np.array([[-half], [half]]), terms[1])
    terms[9:13] = wall[1:5]
    terms[13] = wall[6]
    terms[14] = exact1d._rate_moments(terms[1], wall)[1]
    return terms


def _overlap_gaps(terms, half, points=160):
    """max |got - want| / scale of int psi_n psi_m and int (d psi_n/dt)
    psi_m of ``_pair_sums`` against the grid path, over all pairs; the
    scale of a pair is the grid sum of |f_n g_m|."""
    (psi, _, rate), weights = _grid_values(terms[:, 0], half, points)
    psi, rate = psi[:, :points], rate[:, :points]
    a, b = terms[3:5, None]
    zero = np.zeros_like(a)
    gaps = []
    for left, f in (((a, b, zero, zero), psi), (terms[5:9, None], rate)):
        got = exact1d._pair_sums(
            np.array([[half]]), terms, np.array(left), np.array([a, b])
        )[0]
        want = (f * weights) @ psi.T
        scale = (np.abs(f) * weights) @ np.abs(psi).T
        gaps.append(np.max(np.abs(got - want) / scale))
    return gaps


# |lam_m - lam_n| h^2 of the pairs: an exact degeneracy, near ones, one
# where the quotient would lose 1e-12 at a high band, both sides of the cut
# of the mean-value form, and far
PAIR_GAPS = (0.0, 1e-12, 1e-8, 1e-4, 2.0, 9.99, 10.01, 30.0)


@pytest.mark.parametrize("base", [2.5, 0.0, -0.004, 40.0, 400.0])
def test_pair_overlaps_match_the_grid_path(base):
    # every pair of modes with lam h^2 = base + PAIR_GAPS: lam = 0 itself,
    # pairs of opposite sign (as massive Neumann's lowest band straddles
    # lam = 0), oscillatory ones and a band as high as 12 bands reach.
    # Measured: at most 2.3e-14 of the scale, and 9.8e-14 at lam h^2 = 400
    # just above the cut
    half = 1.1
    lam = (base + np.array(PAIR_GAPS)) / (half * half)
    for seed in range(3):
        terms = _synthetic_terms(lam, half, seed)
        assert max(_overlap_gaps(terms, half)) <= 2e-13


@pytest.mark.parametrize("bc", [D, N])
def test_pair_overlaps_of_exactly_degenerate_modes(bc):
    # DCE-III shakes both walls at one speed: the cavity keeps its length
    # and its +- branch pairs share lam to the last bit.  Measured: at most
    # 1.2e-14 of the scale
    traj = dce_trajectory(variant=DceVariant.SHAKING, bc=bc, epsilon=0.05)
    terms, walls, _ = _node_terms_at(traj, FieldParams(), bc, 0.3, 6)
    assert np.array_equal(terms[1, :6], terms[1, 6:])
    half = 0.5 * (walls[1] - walls[0])
    assert max(_overlap_gaps(terms[:, None], half)) <= 5e-14


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("mass", [0.0, 1.5])
def test_quadrature_rule_stays_at_round_off(bc, mass):
    # the generator from wall values against the grid path on a
    # (16N + 64)-point reference, held to twice the deviation of the grid
    # path's own 4N + 16 rule, or to 1e-12 of the scale
    params = FieldParams(mass=mass)
    for variant in DceVariant:
        traj = dce_trajectory(variant=variant, bc=bc, epsilon=0.05, mass=mass)
        for bands in (3, 12, 24):
            for t in (0.2, 0.7, 1.3):
                window = (traj, params, bc, t, bands)
                reference = _grid_vhat(*window, 16 * bands + 64)
                scale = np.max(np.abs(reference))
                rule = np.max(np.abs(
                    _grid_vhat(*window, 4 * bands + 16) - reference
                ))
                got = assemble_vhat(traj, params, bc, t, bands)
                assert np.max(np.abs(got - reference)) <= max(
                    2.0 * rule, 1e-12 * scale
                ), (variant, bands, t)


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
    fine = evolve_transformation(traj, *window, step=0.6 / omega_max / 8)
    assert fine.step_count == 8 * coarse.step_count
    assert np.max(np.abs(coarse.U - fine.U)) < 1e-6


def test_verbose_logs_the_step_plan_and_keeps_stdout_clean(caplog, capsys):
    # without samples the plan has no split; 3 samples of the 2-step plan
    # take 3 steps of 1, and 2 samples take 2 of 1
    traj = BoundaryTrajectory.static(0.0, math.pi)
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        for samples in (0, 3, 2):
            evolve_transformation(
                traj, FieldParams(), D, 0.0, 0.2, 2, step=0.1,
                samples=samples,
            )
    assert [record.name for record in caplog.records] == [
        "movingcavity.exact1d"
    ] * 3
    for record, plan in zip(caplog.records, (
        r"2 sixth-order Magnus steps of dt=0\.1 \(guidance "
        r"dt <= 0\.6/omega_max = [0-9.e-]+\); 6 nodes",
        r"3 sixth-order Magnus steps of dt=0\.0666667 \(guidance "
        r"dt <= 0\.6/omega_max = [0-9.e-]+\); 3 samples of 1 steps; 9 nodes",
        r"2 sixth-order Magnus steps of dt=0\.1 \(guidance "
        r"dt <= 0\.6/omega_max = [0-9.e-]+\); 2 samples of 1 steps; 6 nodes",
    )):
        assert re.fullmatch(
            r"integrating " + plan + r" in 1 chunks of up to \d+; "
            r"roots in 1 batches of up to \d+ nodes",
            record.getMessage(),
        )
    assert capsys.readouterr().out == ""


DCE_II = (
    dce_trajectory(variant=DceVariant.BREATHING, bc=N, mass=1.5),
    FieldParams(mass=1.5), N, 0.0, 0.5, 4,
)


def _dce_ii_window():
    """U and a sample at each step end, short massive Neumann window."""
    state = evolve_transformation(
        *DCE_II, samples=_step_plan(*DCE_II)[1]
    )
    return state.U, state.checkpoints


def _step_plan(traj, params, bc, t0, tf, bands):
    """dt and step count of the default plan."""
    omega_max = np.max(np.abs(
        solve_instantaneous_basis(traj, params, bc, t0, bands).frequencies
    ))
    n_steps = math.ceil((tf - t0) / (0.6 / omega_max))
    return (tf - t0) / n_steps, n_steps


# the three Gauss-Legendre nodes of a step, as fractions of it
GAUSS_FRACTIONS = tuple(
    0.5 + side * math.sqrt(15.0) / 10.0 for side in (-1.0, 0.0, 1.0)
)


def _magnus_steps(generator, t0, dt, n_steps, eye):
    """The product after each sixth-order Magnus step on Gauss nodes.

    One generator and one expm at a time (Blanes, Casas & Ros, BIT 40,
    434 (2000)).
    """

    def bracket(x, y):
        return x @ y - y @ x

    us = [eye]
    for start in t0 + np.arange(n_steps) * dt:
        k1, k2, k3 = (generator(start + dt * c) for c in GAUSS_FRACTIONS)
        a1 = dt * k2
        a2 = (math.sqrt(15.0) / 3.0 * dt) * (k3 - k1)
        a3 = (10.0 * dt / 3.0) * (k3 - 2.0 * k2 + k1)
        c1 = bracket(a1, a2)
        c2 = bracket(a1, 2.0 * a3 + c1) / -60.0
        exponent = a1 + a3 / 12.0
        exponent += bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
        us.append(expm(exponent) @ us[-1])
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


# bytes a node takes in DCE_II's chunks (two (node x 2N x 2N) pair
# kernels) and in its root batches ((node x branch x scan node) grid, whose
# massive Neumann scan covers the evanescent window too)
BASIS_BYTES = 2 * 8 * 8 * 8
SCAN_BYTES = 2 * exact1d._scan_grid(
    np.array([math.pi]), 1.5**2, 4, False
)[0].shape[1] * 8


def test_batched_evolution_matches_per_node_path(monkeypatch, caplog):
    dt, reference = _per_step_reference(*DCE_II)
    runs = []
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        # the default layout takes the whole window as one chunk and
        # every node as one root batch
        runs.append(_dce_ii_window())
        nodes, chunks, _ = _chunk_layout(caplog)
        assert (nodes, chunks) == (3 * (len(reference) - 1), 1)
        assert _root_layout(caplog)[0] == 1
        # three steps or more: every layout below splits the window
        assert nodes >= 9
        for chunk_bytes, per_chunk, per_batch in (
            # two steps a chunk; the first root batch ends inside the
            # third step
            (7 * BASIS_BYTES, 6, 7),
            # two steps a chunk, every root in one batch
            (9 * SCAN_BYTES, 6, 9),
            # one step a chunk; chunk and root batch boundaries that
            # rarely meet
            (4 * SCAN_BYTES, 3, 4),
            # a chunk smaller than a step still takes one whole step;
            # every root alone
            (1, 3, 1),
        ):
            monkeypatch.setattr(exact1d, "CHUNK_BYTES", chunk_bytes)
            runs.append(_dce_ii_window())
            assert _chunk_layout(caplog) == (
                nodes, -(-nodes // per_chunk), per_chunk
            )
            assert _root_layout(caplog) == (-(-nodes // per_batch), per_batch)
    for u, checkpoints in runs:
        assert np.array_equal(u, reference[-1])
        steps = [round(t / dt) for t, _ in checkpoints]
        assert steps == list(range(1, len(reference)))
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
    state = evolve_transformation(*window, samples=len(reference) - 1)
    assert state.step_count == len(reference) - 1
    assert np.max(np.abs(state.U - reference[-1])) <= 1e-13
    steps = [round(t / dt) for t, _ in state.checkpoints]
    assert steps == list(range(1, len(reference)))
    for step, (_, u_step) in zip(steps, state.checkpoints):
        assert np.max(np.abs(u_step - reference[step])) <= 1e-13


def test_each_node_is_solved_once(monkeypatch):
    # t0's roots give the default step, and t0 is no node; every node's
    # roots are found once and its modes normalised once, whatever the
    # layout, and the per-node layer runs once per root batch, on the
    # batch's nodes, however the point chunks split them
    find_roots, solve = exact1d._find_roots, exact1d._node_modes
    found, solved = [], []

    def counting_roots(times, *args):
        found.append(times.tolist())
        return find_roots(times, *args)

    def counting_solve(params, bc, times, *args):
        solved.append(times.tolist())
        return solve(params, bc, times, *args)

    monkeypatch.setattr(exact1d, "_find_roots", counting_roots)
    monkeypatch.setattr(exact1d, "_node_modes", counting_solve)
    # the root batch sizes of test_batched_evolution_matches_per_node_path
    for chunk_bytes, per_batch in (
        (exact1d.CHUNK_BYTES, None), (7 * BASIS_BYTES, 7),
        (9 * SCAN_BYTES, 9), (4 * SCAN_BYTES, 4), (1, 1),
    ):
        monkeypatch.setattr(exact1d, "CHUNK_BYTES", chunk_bytes)
        found.clear()
        solved.clear()
        state = evolve_transformation(*DCE_II)
        assert found[0] == [DCE_II[3]]
        assert found[1:] == solved
        nodes = [t for batch in solved for t in batch]
        assert len(nodes) == 3 * state.step_count
        per_batch = per_batch or len(nodes)
        assert [len(batch) for batch in solved] == [
            len(nodes[first : first + per_batch])
            for first in range(0, len(nodes), per_batch)
        ]
        assert len(set(nodes)) == len(nodes) and nodes == sorted(nodes)
        assert DCE_II[3] < nodes[0]


def test_evolutions_share_no_workspace():
    # each call owns its arrays: a 5-band massive Neumann evolution between
    # two 12-band ones changes nothing, and no result aliases another
    def evolve_a():
        return evolve_transformation(
            dce_trajectory(epsilon=0.05), FieldParams(), D, 0.0, 0.3, 12,
            samples=4,
        )

    first = evolve_a()
    between = evolve_transformation(
        _accelerating_contraction(), FieldParams(mass=1.5), N, 0.0, 0.3, 5,
        samples=3,
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
    # the right wall turns superluminal at t = 0.3: the first node after it
    # is the first Gauss node of step 30, node 90 of the first chunk
    traj = BoundaryTrajectory(
        lambda t: 0.0, lambda t: math.pi + 2.0 * max(t - 0.3, 0.0),
        v_minus=lambda t: 0.0, v_plus=lambda t: 2.0 if t >= 0.3 else 0.0,
        a_minus=lambda t: 0.0, a_plus=lambda t: 0.0,
    )
    with caplog.at_level(logging.INFO, logger="movingcavity.exact1d"):
        with pytest.raises(
            InvalidTrajectoryError, match=r"t=0\.3011270166537\d*$"
        ):
            evolve_transformation(
                traj, FieldParams(), D, 0.0, 0.5, 3, step=0.01
            )
    assert _chunk_layout(caplog)[2] > 91


def test_trajectory_is_checked_before_any_root_scan(monkeypatch, caplog):
    # the right wall's acceleration turns non-finite at t = 0.1 (first seen
    # at the first Gauss node of step 10, t = 0.10113), and a root polish
    # fails later in the same root batch: the trajectory comes first
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
            InvalidTrajectoryError,
            match=r"wall acceleration nan at t=0\.1011270166537",
        ):
            evolve_transformation(traj, *window, step=0.01)
    assert _root_layout(caplog)[0] == 1


def test_identity_preserved_and_checkpoints_recorded():
    # pick a window whose ends are instants of zero wall velocity: there
    # the instantaneous basis is exactly orthonormal and the Bogoliubov
    # identities hold to integrator accuracy
    traj = dce_trajectory(epsilon=1e-3, drive=3.0)
    t0, tf = math.pi / 6.0, math.pi / 2.0
    state = evolve_transformation(traj, FieldParams(), D, t0, tf, 4, samples=3)
    assert bogoliubov_identity_residual(state) < 5e-5
    assert [t for t, _ in state.checkpoints] == pytest.approx(
        [t0 + (tf - t0) / 3.0, t0 + 2.0 * (tf - t0) / 3.0, tf], abs=1e-15
    )
    for _, u in state.checkpoints:
        assert u.shape == (8, 8)


@pytest.mark.parametrize("t0, tf, step, samples", [
    (0.0, 10.0, None, 25), (0.0, 1.0, 0.1, 4), (0.3, 1.7, 0.05, 7),
    (-2.5, 4.0, 0.3, 3), (0.0, 0.5, None, 1),
])
def test_samples_split_the_window_evenly(t0, tf, step, samples):
    # S samples raise the step count to the next multiple of S, so dt
    # never exceeds the step and every sample is a step end
    traj = dce_trajectory()
    window = (traj, FieldParams(), D, t0, tf, 3)
    plain = evolve_transformation(*window, step=step)
    state = evolve_transformation(*window, step=step, samples=samples)
    assert state.step_count % samples == 0
    assert state.step_count == -(-plain.step_count // samples) * samples
    times = np.array([t for t, _ in state.checkpoints])
    want = np.linspace(t0, tf, samples + 1)[1:]
    assert np.all(np.abs(times - want) <= 2.0 * np.spacing(np.abs(want)))
    assert times[-1] == tf
    assert np.array_equal(state.checkpoints[-1][1], state.U)


def test_samples_at_every_step_keep_the_plain_result():
    # a sample per step changes neither the plan nor the product
    window = (dce_trajectory(epsilon=0.05), FieldParams(), D, 0.0, 0.7, 4)
    plain = evolve_transformation(*window)
    state = evolve_transformation(*window, samples=plain.step_count)
    assert state.step_count == plain.step_count
    assert np.array_equal(state.U, plain.U)
    assert len(state.checkpoints) == plain.step_count
    assert plain.checkpoints == ()


@pytest.mark.parametrize("name, value", [
    ("t0", math.nan), ("t0", -math.inf), ("tf", math.nan), ("tf", math.inf),
])
def test_non_finite_window_rejected(name, value):
    window = {"t0": 0.0, "tf": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        evolve_transformation(
            dce_trajectory(), FieldParams(), D, window["t0"], window["tf"], 2
        )


@pytest.mark.parametrize(
    "samples", [True, np.False_, 2.0, np.float64(2.0), 2.5, "2", np.int64(-3)],
    ids=["bool", "numpy-bool", "float", "numpy-float", "fraction", "string",
         "negative-numpy-int"],
)
def test_bad_samples_rejected(samples):
    with pytest.raises(ValueError, match="samples must be"):
        evolve_transformation(
            dce_trajectory(), FieldParams(), D, 0.0, 0.5, 3, samples=samples
        )


def test_checkpoints_at_window_ends_recorded():
    # each sample ends one of the equal parts of the window; the last
    # ends the window itself, at tf exactly, with the result
    state = evolve_transformation(
        dce_trajectory(), FieldParams(), D, 0.0, 0.5, 3, samples=2
    )
    (t_mid, u_mid), (t_end, u_end) = state.checkpoints
    assert (t_mid, t_end) == (pytest.approx(0.25, abs=1e-16), 0.5)
    assert not np.array_equal(u_mid, np.eye(6))
    assert np.array_equal(u_end, state.U)


@pytest.mark.parametrize("name, value", [
    ("step", 0.0), ("step", -0.5), ("samples", -1), ("bands", 0),
])
def test_bad_integration_argument_rejected(name, value):
    arguments = {"bands": 2, name: value}
    with pytest.raises(ValueError, match=name):
        evolve_transformation(
            dce_trajectory(), FieldParams(), D, 0.0, 1.0, **arguments
        )


@pytest.mark.parametrize(
    "bands", [True, False, np.True_, 3.0, np.float64(3.0), 2.5]
)
def test_non_integer_bands_rejected(bands):
    # a bool once gave a 1-band basis, and a float a bare TypeError
    traj = dce_trajectory()
    with pytest.raises(ValueError, match="bands must be an integer"):
        solve_instantaneous_basis(traj, FieldParams(), D, 0.0, bands)
    with pytest.raises(ValueError, match="bands must be an integer"):
        evolve_transformation(traj, FieldParams(), D, 0.0, 0.5, bands)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integer_bands_accepted(kind):
    traj = dce_trajectory()
    for bands in (3, 130):  # 2 x 130 would wrap in uint8
        basis = solve_instantaneous_basis(
            traj, FieldParams(), D, 0.0, kind(bands)
        )
        plain = solve_instantaneous_basis(traj, FieldParams(), D, 0.0, bands)
        assert basis.bands == bands
        assert np.array_equal(basis.omega, plain.omega)
    state = evolve_transformation(traj, FieldParams(), D, 0.0, 0.5, kind(3))
    plain = evolve_transformation(traj, FieldParams(), D, 0.0, 0.5, 3)
    assert np.array_equal(state.U, plain.U)


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
