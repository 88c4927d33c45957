"""Tests for the prebuilt driving scenarios and their closed-form predictors."""

import math
import warnings

import numpy as np
import pytest

from movingcavity import cli
from movingcavity.core import BoundaryCondition, FieldParams
from movingcavity.perturb import coupling_alpha, coupling_beta
from movingcavity.scenarios import (
    SCENARIO_NAMES,
    DceConfig,
    DcePredictor,
    DceVariant,
    GwConfig,
    GwPredictor,
    build_dce,
    build_gw,
    gw_boundary_position,
)
from movingcavity.staticmodes import Box, Interval, solve_box_modes, solve_interval_modes

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


# ---------------------------------------------------------------------------
# cavity-driving scenarios


def test_variant_parity_selection():
    base = dict(length=math.pi, bc=D, epsilon=1e-3, omega_drive=3.0)
    breathing = DcePredictor(DceConfig(variant=DceVariant.BREATHING, **base))
    shaking = DcePredictor(DceConfig(variant=DceVariant.SHAKING, **base))
    single = DcePredictor(DceConfig(variant=DceVariant.RIGHT_ONLY, **base))
    # symmetric breathing couples only equal-parity pairs, antisymmetric
    # shaking only opposite-parity pairs, a single wall couples both
    assert breathing.parity_factor(1, 2) == 0
    assert breathing.parity_factor(1, 3) != 0
    assert shaking.parity_factor(1, 3) == 0
    assert shaking.parity_factor(1, 2) != 0
    assert single.parity_factor(1, 2) != 0
    assert single.parity_factor(1, 3) != 0


def test_trajectory_positions_and_velocities():
    config = DceConfig(
        variant=DceVariant.SHAKING, length=2.0, bc=D, epsilon=0.01,
        omega_drive=1.5,
    )
    traj = build_dce(config).trajectory
    t = 0.62
    s = math.sin(1.5 * t)
    c = 1.5 * math.cos(1.5 * t)
    xm, xp = traj.x_minus(t), traj.x_plus(t)
    # both walls shift the same way: the cavity shakes rigidly
    assert xm == pytest.approx(-1.0 + 0.01 * s)
    assert xp == pytest.approx(1.0 + 0.01 * s)
    vm, vp = traj.v_minus(t), traj.v_plus(t)
    assert vm == pytest.approx(0.01 * c)
    assert vp == pytest.approx(0.01 * c)


def test_trajectory_velocity_consistent_with_positions():
    for variant in DceVariant:
        config = DceConfig(
            variant=variant, length=math.pi, bc=N, epsilon=0.02,
            omega_drive=2.0,
        )
        traj = build_dce(config).trajectory
        t, h = 0.9, 1e-6
        for x, v in ((traj.x_minus, traj.v_minus), (traj.x_plus, traj.v_plus)):
            fd = (x(t + h) - x(t - h)) / (2 * h)
            assert v(t) == pytest.approx(fd, abs=1e-9)


def test_spec_reproduces_predictor():
    config = DceConfig(
        variant=DceVariant.BREATHING, length=1.3, bc=D, epsilon=1e-3,
        omega_drive=4.0, mass=0.8,
    )
    spec, _, predictor = build_dce(config)
    basis = solve_interval_modes(
        Interval(1.3), FieldParams(mass=0.8), D, 3
    )
    for i in range(3):
        for j in range(3):
            got = coupling_beta(spec, basis, i, j, D, resonant=True)
            want = predictor.beta_hat(i + 1, j + 1)
            assert got.amplitude_at(4.0) == pytest.approx(
                want.amplitude_at(4.0), abs=1e-12
            )


def test_predictor_rejects_invalid_indices():
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=1.0, bc=D, epsilon=1e-3,
        omega_drive=2.0,
    )
    predictor = DcePredictor(config)
    with pytest.raises(ValueError):
        predictor.alpha_hat(0, 1)


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_dce_config_non_finite_mass_rejected(mass):
    with pytest.raises(ValueError):
        DceConfig(
            variant=DceVariant.RIGHT_ONLY, length=1.0, bc=N, epsilon=1e-3,
            omega_drive=2.0, mass=mass,
        )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["length", "epsilon", "omega_drive"])
def test_dce_config_non_finite_field_rejected(name, value):
    fields = dict(
        variant=DceVariant.RIGHT_ONLY, length=1.0, bc=N, epsilon=1e-3,
        omega_drive=2.0,
    )
    fields[name] = value
    with pytest.raises(ValueError, match=name):
        DceConfig(**fields)


@pytest.mark.parametrize("mass", [0.0, 1e-170])
def test_massless_neumann_rejects_constant_mode_index(mass):
    # 1e-170 squares to 0 in floating point: the field counts as massless
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=1.0, bc=N, epsilon=1e-3,
        omega_drive=2.0, mass=mass,
    )
    predictor = DcePredictor(config)
    with pytest.raises(ValueError):
        predictor.alpha_hat(0, 1)
    assert not predictor.alpha_hat(1, 2).is_zero()


def test_massive_neumann_allows_constant_mode_index():
    config = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=1.0, bc=N, epsilon=1e-3,
        omega_drive=2.0, mass=1.1,
    )
    predictor = DcePredictor(config)
    value = predictor.beta_hat(0, 1)
    assert not value.is_zero()


def test_large_epsilon_warns():
    with pytest.warns(UserWarning):
        DceConfig(
            variant=DceVariant.RIGHT_ONLY, length=1.0, bc=D, epsilon=0.3,
            omega_drive=2.0,
        )


# ---------------------------------------------------------------------------
# standing-wave metric scenarios


def gw_config(bc=D, epsilon=1e-3, frequency_cutoff=25.0):
    return GwConfig(
        lx=1.0, ly=1.3, lz=0.9, bc=bc, epsilon=epsilon, omega_drive=5.0,
        frequency_cutoff=frequency_cutoff,
    )


@pytest.mark.parametrize("kind", ["dce", "gw"])
def test_large_epsilon_warning_points_at_the_caller(kind):
    # the warning names the line that built the config, not the
    # dataclass-generated __init__
    with pytest.warns(UserWarning, match="epsilon=0.9") as record:
        if kind == "dce":
            DceConfig(
                variant=DceVariant.RIGHT_ONLY, length=1.0, bc=D,
                epsilon=0.9, omega_drive=2.0,
            )
        else:
            GwConfig(
                lx=1.0, ly=1.3, lz=0.9, bc=D, epsilon=0.9, omega_drive=5.0,
                frequency_cutoff=25.0,
            )
    assert [warning.filename for warning in record] == [__file__]


@pytest.mark.parametrize(
    "field, value",
    [("epsilon", v) for v in (math.nan, math.inf, -math.inf)]
    + [("frequency_cutoff", v) for v in (math.nan, math.inf, -math.inf, 0.0)],
    ids=["nan", "inf", "-inf", "cutoff-nan", "cutoff-inf", "cutoff--inf",
         "cutoff-0"],
)
def test_gw_config_non_finite_epsilon_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        gw_config(**{field: value})


def test_rigid_walls_keep_proper_length_constant():
    config = gw_config()
    eps, omega = config.epsilon, config.omega_drive
    for t in np.linspace(0.0, 3.0, 7):
        s = eps * math.sin(omega * float(t))
        xp = gw_boundary_position(config, 0, +1, float(t))
        xm = gw_boundary_position(config, 0, -1, float(t))
        assert math.sqrt(1.0 + s) * (xp - xm) == pytest.approx(1.0, rel=1e-14)
        yp = gw_boundary_position(config, 1, +1, float(t))
        ym = gw_boundary_position(config, 1, -1, float(t))
        assert math.sqrt(1.0 - s) * (yp - ym) == pytest.approx(1.3, rel=1e-14)


def test_boundary_motion_linearizes_to_spec_amplitude():
    config = gw_config(epsilon=1e-6)
    spec, _ = build_gw(config)
    t = 0.23
    # exact rigid-wall position minus rest position, to first order
    exact = gw_boundary_position(config, 0, +1, t) - 0.5
    linear = config.epsilon * spec.delta_x[(0, +1)](t)
    assert exact == pytest.approx(linear, rel=1e-5)


@pytest.mark.parametrize("bc", [D, N])
def test_gw_spec_reproduces_predictor(bc):
    config = gw_config(bc=bc)
    spec, predictor = build_gw(config)
    basis = solve_box_modes(
        Box(1.0, 1.3, 0.9), FieldParams(), bc,
        frequency_cutoff=config.frequency_cutoff,
    )
    keep = [i for i, m in enumerate(basis.modes) if max(m.index) <= 3]
    for i in keep[:6]:
        for j in keep[:6]:
            idx_i = basis.modes[i].index
            idx_j = basis.modes[j].index
            got = coupling_beta(spec, basis, i, j, bc, resonant=True)
            want = predictor.beta_hat(idx_i, idx_j)
            assert got.amplitude_at(5.0) == pytest.approx(
                want.amplitude_at(5.0), abs=1e-12
            )


def test_gw_predictor_diagonal_beta_cancels():
    config = gw_config()
    predictor = GwPredictor(config)
    for idx in [(1, 1, 1), (2, 1, 3), (1, 2, 2)]:
        value = predictor.beta_hat(idx, idx)
        assert abs(value.amplitude_at(5.0)) < 1e-13


def test_gw_predictor_rejects_invalid_indices():
    predictor = GwPredictor(gw_config(bc=D))
    with pytest.raises(ValueError):
        predictor.alpha_hat((0, 1, 1), (1, 1, 1))
    neumann = GwPredictor(gw_config(bc=N))
    with pytest.raises(ValueError):
        neumann.alpha_hat((0, 0, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# registry


def test_registry_builds_every_named_scenario():
    # the command-line layer is the one resolver of scenario names
    assert set(SCENARIO_NAMES) == {"dce-i", "dce-ii", "dce-iii", "gw-rigid"}
    for name in SCENARIO_NAMES:
        config = cli.load_config(
            None, {"scenario": name, "epsilon": 1e-3, "omega_drive": 5.0}
        )
        spec, trajectory, predictor = cli._build_scenario_objects(config)
        assert spec.epsilon == 1e-3 and spec.base_frequency == 5.0
        assert (trajectory is None) == (name == "gw-rigid")
        assert isinstance(
            predictor, GwPredictor if name == "gw-rigid" else DcePredictor
        )


def test_registry_unknown_name():
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(None, {"scenario": "squeezed-vacuum"})
    assert "dce-i" in str(err.value)
