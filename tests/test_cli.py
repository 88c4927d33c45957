"""Tests for the command-line interface: dispatch, serialization, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from movingcavity import cli
from movingcavity.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
    write_table,
)
from movingcavity.core import BoundaryCondition, FieldParams
from movingcavity.exact1d import (
    bogoliubov_identity_residual,
    evolve_transformation,
)
from movingcavity.perturb import (
    ValidityWindowWarning,
    bogoliubov_perturbative,
    build_coupling_matrices,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# configuration handling


def test_defaults_without_config_file():
    config = load_config(None, {})
    assert config.scenario == "dce-i"
    assert config.length == pytest.approx(math.pi)


def test_unknown_field_is_named():
    for name in ("wavelenght", "dt_fd"):
        with pytest.raises(ConfigError) as err:
            load_config(None, {name: 1e-4})
        assert f"unknown config field(s): {name}" in str(err.value)


def test_removed_dt_fd_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, tf=0.5, bands=2, dt_fd=1e-4)
    code, out, err = run_cli(capsys, "evolve-exact", "--config", config)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "unknown config field(s): dt_fd" in err


def test_bad_value_names_field():
    with pytest.raises(ConfigError) as err:
        load_config(None, {"epsilon": "tiny"})
    assert "epsilon" in str(err.value)


@pytest.mark.parametrize("fields, name", [
    ({"epsilons": "12"}, "epsilons"),
    ({"pairs": ["12", "34"]}, "pairs"),
    ({"bands": 2.7}, "bands"),
    ({"bands": True}, "bands"),
    ({"pairs": [[1, 2, 3]]}, "pairs"),
    ({"mass": None}, "mass"),
    ({"bc": "robin"}, "bc"),
    ({"samples": -1}, "samples"),
    ({"samples": -2}, "samples"),
    ({"tolerance": -1e-9}, "tolerance"),
    ({"dt": 0.0}, "dt"),
    ({"dt": -0.1}, "dt"),
    ({"duration": 0.0}, "duration"),
    ({"duration": -6.0}, "duration"),
], ids=["string-for-float-list", "strings-for-pairs", "fractional-int",
        "bool-for-int", "triple-for-pair", "null-for-float", "unknown-bc",
        "negative-samples", "negative-samples-2", "negative-tolerance",
        "zero-dt", "negative-dt", "zero-duration", "negative-duration"])
def test_schema_rejects_bad_value_naming_field(fields, name):
    with pytest.raises(ConfigError, match=f"field '{name}'"):
        load_config(None, fields)


def test_schema_parses_integral_float_case_and_null():
    config = load_config(None, {"bands": 3.0, "bc": "Neumann", "dt": None})
    assert config.bands == 3 and isinstance(config.bands, int)
    assert config.bc is BoundaryCondition.NEUMANN
    assert config.dt is None


def test_disordered_window_rejected():
    with pytest.raises(ConfigError) as err:
        load_config(None, {"t0": 5.0, "tf": 1.0})
    assert "window" in str(err.value)


def test_malformed_json_exits_with_config_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", "--config", str(path))
    assert code == EXIT_CONFIG
    assert "config error" in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_integer_frequencies(capsys):
    code, out, _ = run_cli(capsys, "spectrum")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["index_0", "wavenumber_0", "frequency"]
    assert [float(r[2]) for r in rows] == pytest.approx([1, 2, 3, 4, 5])


@pytest.mark.parametrize("fields, name", [
    ({"length": 1e-160}, "length"), ({"length": 1e160}, "length"),
    ({"length": 1e300}, "length"), ({"mass": 1e200}, "mass"),
    # every k^2 and m^2 finite, but not their sum
    ({"mass": 1.3e154, "length": 6.2e-154, "bands": 1}, "mass"),
])
def test_spectrum_outside_float_range_is_config_error(
    fields, name, tmp_path, capsys
):
    # each once printed a wrong table (inf, inexact or zero frequencies) or
    # exited 3 on an OverflowError
    config = write_config(tmp_path, **fields)
    code, out, err = run_cli(capsys, "spectrum", "--config", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and name in err


@pytest.mark.parametrize("fields, name", [
    # no Dirichlet number fits the x axis; billions of modes in a long box
    ({"lz": 1e170, "frequency_cutoff": 1e-150}, "frequency cutoff 1e-150"),
    ({"lz": 1e7}, "lz=10000000.0"),
])
def test_spectrum_absurd_box_is_config_error(fields, name, tmp_path, capsys):
    # once numpy's bare "Maximum allowed size exceeded", or billions of
    # index rows, before the cutoff selected any mode
    config = write_config(tmp_path, scenario="gw-rigid", **fields)
    code, out, err = run_cli(capsys, "spectrum", "--config", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and name in err


def test_spectrum_box_single_mode(tmp_path, capsys):
    config = write_config(
        tmp_path, scenario="gw-rigid", lx=math.pi, ly=math.pi, lz=math.pi,
        frequency_cutoff=2.0,
    )
    code, out, _ = run_cli(
        capsys, "spectrum", "--config", config, "--format", "json"
    )
    assert code == EXIT_OK
    document = json.loads(out)
    assert len(document["data"]) == 1
    assert document["data"][0][-1] == pytest.approx(math.sqrt(3.0))


def test_spectrum_json_meta_echoes_resolved_config(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--format", "json")
    document = json.loads(out)
    assert document["meta"]["scenario"] == "dce-i"
    assert document["meta"]["bands"] == 5
    assert document["meta"]["bc"] == "dirichlet"


# ---------------------------------------------------------------------------
# resonances


def test_resonances_resonant_drive(capsys):
    code, out, _ = run_cli(capsys, "resonances")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    pairs = {(int(r[0]), int(r[1])) for r in rows if r[2] == "pair-creation"}
    assert (0, 1) in pairs


def test_resonances_irrational_drive_empty(tmp_path, capsys):
    config = write_config(tmp_path, omega_drive=math.sqrt(2), tolerance=1e-9)
    code, out, _ = run_cli(capsys, "resonances", "--config", config)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert rows == []


def test_resonances_negative_tolerance_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, tolerance=-1)
    code, out, err = run_cli(capsys, "resonances", "--config", config)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "field 'tolerance'" in err


def test_resonances_loose_tolerance_reports_detuning(tmp_path, capsys):
    config = write_config(tmp_path, omega_drive=3.2, tolerance=0.5)
    code, out, _ = run_cli(capsys, "resonances", "--config", config)
    _, rows = parse_csv(out)
    assert rows
    assert any(abs(float(r[3])) > 1e-3 for r in rows)


# ---------------------------------------------------------------------------
# perturbative evolution


def test_evolve_zero_epsilon_trivial(tmp_path, capsys):
    config = write_config(tmp_path, epsilon=0.0, samples=3, bands=3)
    code, out, _ = run_cli(capsys, "evolve", "--config", config)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    for row in rows:
        t, n, m = float(row[0]), int(row[1]), int(row[2])
        assert float(row[3]) == (1.0 if n == m else 0.0)
        assert float(row[5]) == 0.0


def test_evolve_resonant_growth_is_linear(tmp_path, capsys):
    config = write_config(
        tmp_path, samples=10, tf=40.0, bands=4, pairs=[[0, 1]]
    )
    code, out, _ = run_cli(capsys, "evolve", "--config", config)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    times = [float(r[0]) for r in rows]
    betas = [float(r[5]) for r in rows]
    # after the transient, |beta_12| grows linearly with the window length
    rate = (betas[-1] - betas[4]) / (times[-1] - times[4])
    for t, b in zip(times[4:], betas[4:]):
        assert b == pytest.approx(betas[4] + rate * (t - times[4]), rel=0.02)


def test_evolve_off_resonant_bounded(tmp_path, capsys):
    config = write_config(
        tmp_path, omega_drive=2.6, samples=20, tf=60.0, bands=4,
        pairs=[[0, 1]],
    )
    code, out, _ = run_cli(capsys, "evolve", "--config", config)
    _, rows = parse_csv(out)
    betas = [float(r[5]) for r in rows]
    assert max(betas[10:]) < 2.0 * max(betas[:10])


EVOLVE_COLUMNS = [
    "t", "n", "m", "abs_alpha", "arg_alpha", "abs_beta", "arg_beta"
]
EVOLVE_CONFIGS = {
    "defaults": {},
    "static-one-sample": {"epsilon": 0.0, "samples": 1},
    "gw-box": {"scenario": "gw-rigid", "frequency_cutoff": 12, "samples": 5},
    "dce-ii-neumann": {
        "scenario": "dce-ii", "bc": "neumann", "mass": 1.5, "bands": 6,
        "tf": 20.0, "samples": 7,
    },
    "repeated-pairs": {
        "scenario": "gw-rigid", "bc": "neumann", "frequency_cutoff": 9,
        "samples": 4, "pairs": [[3, 1], [0, 0], [3, 1]],
    },
    # uncoupled (0, 1), coupled (0, 4) and (1, 12), coupled diagonal
    # (0, 0), uncoupled diagonal (1, 1), and repeats of both kinds
    "mixed-pairs": {
        "scenario": "gw-rigid", "frequency_cutoff": 12, "samples": 3,
        "pairs": [[0, 1], [0, 4], [0, 0], [1, 1], [0, 4], [1, 12], [0, 1]],
    },
    "gw-box-static": {
        "scenario": "gw-rigid", "frequency_cutoff": 12, "epsilon": 0.0,
        "samples": 3,
    },
    "gw-massive-neumann": {
        "scenario": "gw-rigid", "bc": "neumann", "mass": 0.8,
        "frequency_cutoff": 10, "samples": 4,
    },
    # a header and no rows: CSV header only, JSON "data": []
    "no-samples": {"samples": 0},
}


def reference_evolve_rows(config):
    """evolve's table as one row list per (t, pair), built sample by sample."""
    spec = cli._build_scenario_objects(config)[0]
    basis = cli._static_basis(config)
    couplings = build_coupling_matrices(spec, basis, config.bc)
    pairs = cli._selected_pairs(config, len(basis))
    first = [n for n, _ in pairs]
    second = [m for _, m in pairs]
    times = np.linspace(config.t0, config.tf, config.samples + 1)[1:]
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        for t in times.tolist():
            if config.epsilon == 0.0:
                alpha = np.eye(len(basis), dtype=complex)
                beta = np.zeros((len(basis), len(basis)), dtype=complex)
            else:
                result = bogoliubov_perturbative(
                    couplings, basis, config.epsilon, config.t0, t
                )
                alpha, beta = result.alpha, result.beta
            rows.extend(
                [t, n, m, abs_a, arg_a, abs_b, arg_b]
                for n, m, abs_a, arg_a, abs_b, arg_b in zip(
                    first, second,
                    *cli._polar(alpha[first, second]),
                    *cli._polar(beta[first, second]),
                )
            )
    return rows


@pytest.mark.parametrize("resonant", [False, True])
def test_default_gw_box_couplings_keep_z_selection_rule(resonant):
    # no term of the gw-rigid spec acts along z, so modes whose z quantum
    # numbers differ do not couple: exactly, not to round-off
    config = load_config(None, {"scenario": "gw-rigid"})
    spec = cli._build_scenario_objects(config)[0]
    basis = cli._static_basis(config)
    couplings = build_coupling_matrices(spec, basis, config.bc, resonant)
    z = basis.index[:, 2]
    differ = z[:, None] != z[None, :]
    assert len(basis) == 231 and differ.sum() > len(basis) ** 2 / 2
    for amplitudes in (couplings.alpha, couplings.beta):
        assert np.all(amplitudes[:, differ] == 0.0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_bytes_do_not_depend_on_blas_threads(fmt, tmp_path):
    config = write_config(tmp_path, scenario="gw-rigid", samples=1)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-m", "movingcavity.cli", "evolve",
             "--config", config, "--format", fmt],
            env=env, capture_output=True, check=True,
        )
        outputs.append(result.stdout)
    assert len(outputs[0]) > 1_000_000
    assert outputs[0] == outputs[1]


def test_evolve_configs_mix_constant_and_live_cells():
    # the byte-identity cases below cover coupled and uncoupled pairs, on
    # and off the diagonal
    for name in ("gw-box", "mixed-pairs", "gw-massive-neumann"):
        config = load_config(None, dict(EVOLVE_CONFIGS[name]))
        spec = cli._build_scenario_objects(config)[0]
        basis = cli._static_basis(config)
        coupled = build_coupling_matrices(spec, basis, config.bc).coupled
        kinds = {
            (bool(coupled[n, m]), n == m)
            for n, m in cli._selected_pairs(config, len(basis))
        }
        assert len(kinds) == 4, name


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", EVOLVE_CONFIGS)
def test_evolve_bytes_match_row_table(name, fmt, tmp_path, capsys):
    fields = EVOLVE_CONFIGS[name]
    config = load_config(None, dict(fields))
    want = write_table(
        EVOLVE_COLUMNS, reference_evolve_rows(config), config.meta(), fmt,
        str(tmp_path / "reference"),
    )
    path = write_config(tmp_path, **fields)
    code, out, err = run_cli(capsys, "evolve", "--config", path,
                             "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert out == want
    table = tmp_path / "table"
    code, out, _ = run_cli(capsys, "evolve", "--config", path,
                           "--format", fmt, "--output", str(table))
    assert (code, out) == (EXIT_OK, "")
    assert table.read_bytes() == want.encode("utf-8")


def test_default_gw_box_csv_bytes_are_pinned(tmp_path, capsys):
    # the default gw-rigid box: 231 modes, 25 samples of 53361 pairs, most
    # of them uncoupled and written as constant text
    config = write_config(tmp_path, scenario="gw-rigid")
    table = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys, "evolve", "--config", config, "--output", str(table)
    )
    assert (code, out, err) == (EXIT_OK, "", "")
    digest = hashlib.sha256()
    with open(table, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    size = table.stat().st_size
    table.unlink()
    assert size == 43_116_590
    assert digest.hexdigest() == (
        "2a7b48085097f18e70b62d907af3977b19a53257a10fffac174a6d4b12fe750e"
    )


def test_evolve_first_sample_at_t0_leaves_no_output(tmp_path, capsys):
    # the first sample time t0 + (tf - t0) / 25 rounds to t0
    config = write_config(tmp_path, t0=1.0, tf=1.0000000000000002, samples=25)
    table = tmp_path / "table.csv"
    for output in (("--output", str(table)), ()):
        code, out, err = run_cli(capsys, "evolve", "--config", config, *output)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "field 'samples'" in err and "1.0000000000000002" in err
    assert not table.exists()


@pytest.mark.parametrize("command", ["spectrum", "evolve"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_is_config_error(command, target, tmp_path, capsys):
    config = write_config(tmp_path, samples=2, bands=3)
    output = str(tmp_path if target == "directory" else tmp_path / "no" / "x")
    code, out, err = run_cli(
        capsys, command, "--config", config, "--output", output
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: cannot write output '{output}': ")


@pytest.mark.parametrize("command, field", [
    ("spectrum", "bands"), ("evolve", "samples"),
    ("evolve-exact", "bands"), ("evolve-exact", "samples"),
])
def test_problem_too_large_for_memory_is_config_error(
    command, field, tmp_path, capsys
):
    # 10^17 eight-byte entries exceed a 2^48-byte address space, so the
    # allocation is refused before any memory is touched; each once left
    # cli.main with a MemoryError traceback and exit code 1
    config = write_config(tmp_path, **{field: 10**17})
    table = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys, command, "--config", config, "--output", str(table)
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and "allocate" in err
    assert not table.exists()


def test_evolve_verbose_counts_samples_outside_validity_window(
    tmp_path, capsys
):
    # window lengths 10, 20, 30, 40 against [5/3, 0.1/(1e-3 * 3)]
    config = write_config(tmp_path, samples=4, tf=40.0, bands=3)
    tables = {}
    for flags in ((), ("--verbose",)):
        code, out, err = run_cli(capsys, "evolve", "--config", config, *flags)
        assert code == EXIT_OK
        path = tmp_path / f"out{len(flags)}.csv"
        code, file_out, _ = run_cli(
            capsys, "evolve", "--config", config, "--output", str(path),
            *flags,
        )
        assert code == EXIT_OK and file_out == ""
        tables[flags] = (out, path.read_bytes(), err)
    (quiet_out, quiet_file, quiet_err), (loud_out, loud_file, loud_err) = (
        tables.values()
    )
    assert loud_out == quiet_out and loud_file == quiet_file
    assert quiet_err == ""
    assert loud_err.count("\n") == 1
    assert "1 of 4 samples outside" in loud_err
    assert "[1.66667, 33.3333]" in loud_err


# ---------------------------------------------------------------------------
# exact evolution


def test_evolve_exact_static_is_pure_phase(tmp_path, capsys):
    config = write_config(
        tmp_path, epsilon=0.0, tf=1.0, samples=2, bands=3
    )
    code, out, _ = run_cli(capsys, "evolve-exact", "--config", config)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    final_t = max(float(r[0]) for r in rows)
    for row in rows:
        if float(row[0]) != final_t:
            continue
        i, j = int(row[1]), int(row[2])
        magnitude = abs(complex(float(row[3]), float(row[4])))
        assert float(row[5]) < 1e-6
        if i == j:
            assert magnitude == pytest.approx(1.0, abs=1e-6)
        else:
            assert magnitude < 1e-6


def test_evolve_exact_rejects_box_scenario(tmp_path, capsys):
    config = write_config(tmp_path, scenario="gw-rigid")
    code, _, err = run_cli(capsys, "evolve-exact", "--config", config)
    assert code == EXIT_CONFIG
    assert "scenario" in err


def test_evolve_exact_oversized_step_exit_code(tmp_path, capsys):
    # the step fails the stability guard: evolve-exact opens its output
    # only once the evolution has returned, so nothing is left behind; one
    # sample keeps the step count at 2
    config = write_config(tmp_path, tf=2.0, bands=3, dt=1.0, samples=1)
    table = tmp_path / "table.csv"
    for output in (("--output", str(table)), ()):
        code, out, err = run_cli(
            capsys, "evolve-exact", "--config", config, *output
        )
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("stability error: ") and "dt" in err
    assert not table.exists()


EXACT_CONFIGS = {
    "defaults": {},
    "neumann-massive": {"bc": "neumann", "mass": 1.3, "bands": 4},
    "no-samples": {"samples": 0},
    "one-sample": {"samples": 1},
    "forty-samples": {"samples": 40},
}


def reference_exact_table(config, fmt):
    """evolve-exact's table built row by row: one row per entry of U."""
    trajectory = cli._build_scenario_objects(config)[1]
    state = evolve_transformation(
        trajectory, FieldParams(mass=config.mass), config.bc,
        config.t0, config.tf, config.bands, step=config.dt,
        samples=max(config.samples, 1),
    )
    rows = []
    for t, u in state.checkpoints:
        snapshot = dataclasses.replace(state, U=u)
        residual = bogoliubov_identity_residual(snapshot)
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                rows.append([float(t), i, j, complex(u[i, j]), residual])
    if fmt == "json":
        data = [[t, i, j, [z.real, z.imag], r] for t, i, j, z, r in rows]
        document = {
            "meta": config.meta(), "data": data,
            "columns": ["t", "i", "j", "U", "identity_residual"],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "i", "j", "re_U", "im_U", "identity_residual"])
    for t, i, j, z, r in rows:
        writer.writerow([f"{t:.17g}", i, j, f"{z.real:.17g}",
                         f"{z.imag:.17g}", f"{r:.17g}"])
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", EXACT_CONFIGS)
def test_evolve_exact_bytes_match_row_table(name, fmt, tmp_path, capsys):
    fields = EXACT_CONFIGS[name]
    want = reference_exact_table(load_config(None, dict(fields)), fmt)
    path = write_config(tmp_path, **fields)
    code, out, err = run_cli(capsys, "evolve-exact", "--config", path,
                             "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert out == want
    table = tmp_path / "table"
    code, out, _ = run_cli(capsys, "evolve-exact", "--config", path,
                           "--format", fmt, "--output", str(table))
    assert (code, out) == (EXIT_OK, "")
    assert table.read_bytes() == want.encode("utf-8")


def test_evolve_exact_default_samples_are_evenly_spaced(capsys):
    # 25 samples of the default window [0, 10], each a whole number of
    # steps: the 84-step default plan becomes 100 steps of 0.1
    code, out, _ = run_cli(capsys, "evolve-exact")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    times = np.array(sorted({float(row[0]) for row in rows}))
    want = np.linspace(0.0, 10.0, 26)[1:]
    assert np.all(np.abs(times - want) <= 2.0 * np.spacing(want))
    assert times[-1] == 10.0
    config = load_config(None, {})
    trajectory = cli._build_scenario_objects(config)[1]
    state = evolve_transformation(
        trajectory, FieldParams(), config.bc, 0.0, 10.0, config.bands,
        samples=25,
    )
    assert state.step_count == 100


def test_evolve_exact_no_samples_writes_the_one_sample_table(tmp_path, capsys):
    tables = []
    for samples in (0, 1):
        config = write_config(tmp_path, samples=samples)
        code, out, _ = run_cli(capsys, "evolve-exact", "--config", config)
        assert code == EXIT_OK
        tables.append(out)
    assert tables[0] == tables[1]
    assert {row[0] for row in parse_csv(tables[0])[1]} == {"10"}


def test_evolve_exact_superluminal_wall_is_config_error(tmp_path, capsys):
    # InvalidTrajectoryError is a ValueError: exit 2, not the numerical 3
    config = write_config(tmp_path, epsilon=0.9)
    with pytest.warns(UserWarning, match="epsilon=0.9 is not small"):
        code, out, err = run_cli(capsys, "evolve-exact", "--config", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: boundary speed ")


def test_evolve_exact_zero_step_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, tf=2.0, bands=3, dt=0)
    code, out, err = run_cli(capsys, "evolve-exact", "--config", config)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "step" in err


@pytest.mark.parametrize("quad_points", [0, -3])
def test_evolve_rejects_nonpositive_quad_points(tmp_path, capsys, quad_points):
    config = write_config(tmp_path, quad_points=quad_points)
    code, out, err = run_cli(capsys, "evolve", "--config", config)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "unknown config field(s): quad_points" in err


def test_evolve_rejects_quad_points_it_does_not_read(tmp_path, capsys):
    # no subcommand reads quad_points: a valid one is an unknown field too
    config = write_config(tmp_path, scenario="gw-rigid", quad_points=8)
    code, out, err = run_cli(capsys, "evolve", "--config", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: unknown config field(s): quad_points\n"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("field, value", [
    ("quad_points", 64), ("inject_error", "dce-closed-form"),
])
def test_removed_fields_are_unknown_to_every_subcommand(
    command, field, value, tmp_path, capsys
):
    config = write_config(tmp_path, **{field: value})
    table = tmp_path / "table.csv"
    for output in ((), ("--output", str(table))):
        code, out, err = run_cli(capsys, command, "--config", config, *output)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: unknown config field(s): {field}\n"
    assert not table.exists()


def assert_verbose_logs_to_stderr_only(tmp_path, capsys, command, config):
    """Quiet and --verbose runs write the same bytes; only --verbose logs."""
    tables = {}
    for flags in ((), ("--verbose",)):
        code, out, err = run_cli(capsys, command, "--config", config, *flags)
        assert code == EXIT_OK
        path = tmp_path / f"out{len(flags)}.csv"
        code, file_out, _ = run_cli(
            capsys, command, "--config", config, "--output", str(path),
            *flags,
        )
        assert code == EXIT_OK and file_out == ""
        tables[flags] = (out, path.read_bytes(), err)
    (quiet_out, quiet_file, quiet_err), (loud_out, loud_file, loud_err) = (
        tables.values()
    )
    assert loud_out == quiet_out and loud_file == quiet_file
    assert quiet_err == ""
    assert "integrating" in loud_err and " chunks of up to " in loud_err


def test_evolve_exact_verbose_logs_to_stderr_only(tmp_path, capsys):
    config = write_config(tmp_path, tf=0.5, bands=2, samples=2)
    assert_verbose_logs_to_stderr_only(tmp_path, capsys, "evolve-exact", config)


def test_epsilon_sweep_verbose_logs_to_stderr_only(tmp_path, capsys):
    config = write_config(
        tmp_path, mode="epsilon-sweep", bands=3, duration=4.0,
        epsilons=[1e-2, 1e-3],
    )
    assert_verbose_logs_to_stderr_only(tmp_path, capsys, "validate", config)


# ---------------------------------------------------------------------------
# validation


def test_validate_default_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--format", "json")
    assert code == EXIT_OK
    document = json.loads(out)
    checks = {row[0]: row[1] for row in document["data"]}
    assert set(checks) == {
        "dce-closed-form", "gw-closed-form", "orthonormality",
        "static-generator",
    }
    assert all(passed == 1 for passed in checks.values())


def test_validate_injected_error_fails_named_check(monkeypatch, capsys):
    monkeypatch.setitem(
        cli._CHECKS, "dce-closed-form", lambda config: (False, 1.0)
    )
    code, out, _ = run_cli(capsys, "validate")
    assert code == EXIT_VALIDATION
    _, rows = parse_csv(out)
    status = {row[0]: int(row[1]) for row in rows}
    assert status["dce-closed-form"] == 0
    assert status["orthonormality"] == 1


def test_validate_unknown_injected_check(tmp_path, capsys):
    # checks are no longer injected from the config
    config = write_config(tmp_path, inject_error="no-such-check")
    code, out, err = run_cli(capsys, "validate", "--config", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: unknown config field(s): inject_error\n"


def test_validate_epsilon_sweep_slope(tmp_path, capsys):
    config = write_config(
        tmp_path, mode="epsilon-sweep", bands=3, duration=4.0,
        epsilons=[1e-2, 1e-3],
    )
    code, out, _ = run_cli(capsys, "validate", "--config", config)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    slope = float(rows[0][2])
    assert abs(slope - 2.0) < 0.3


@pytest.mark.parametrize("epsilons", [
    [1e-2, math.nan], [1e-2, 0.0], [1e-2, -1e-3], [1e-2, math.inf],
    [1e-2], [1e-2, 1e-2], [],
], ids=["nan", "zero", "negative", "inf", "single", "repeated", "empty"])
def test_validate_epsilon_sweep_rejects_bad_amplitudes(
    tmp_path, capsys, epsilons
):
    config = write_config(tmp_path, mode="epsilon-sweep", epsilons=epsilons)
    code, out, err = run_cli(capsys, "validate", "--config", config)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "epsilons" in err


# ---------------------------------------------------------------------------
# serialization invariants


def test_csv_output_is_deterministic(tmp_path, capsys):
    config = write_config(tmp_path, samples=3, bands=3, tf=2.0)
    _, first, _ = run_cli(capsys, "evolve", "--config", config)
    _, second, _ = run_cli(capsys, "evolve", "--config", config)
    assert first == second


def reference_csv(columns, rows):
    """The csv-writer table: 17 significant digits per float, str otherwise."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([
            cli._fmt(item) if isinstance(item, (float, np.floating))
            else str(item)
            for item in row
        ])
    return buffer.getvalue()


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324,
           0.1, -1.5e17, 2.0 / 3.0]
TABLES = {
    "floats-and-ints": [
        [x, i, -i, y, np.float64(x), np.int64(i), np.float32(y)]
        for i, (x, y) in enumerate(zip(SPECIAL, reversed(SPECIAL)))
    ],
    "strings": [
        ["mode-mixing", 3, x] for x in SPECIAL
    ] + [["residual(eps=0.01)", 1, 0.1]],
    "quoted": [["a,b", 1, 0.5], ['say "x"', 2, 1.5], ["two\nlines", 3, 0.1],
               ["cr\r", 4, 0.2], ["", 5, 0.3]],
    "mixed-types": [[1, 2.5, "x"], [1.5, 2, "y"]],
    "bool-and-none": [[True, None, 1.0], [False, None, 2.0]],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_csv_template_matches_csv_writer(name, tmp_path):
    rows = TABLES[name]
    width = max((len(r) for r in rows), default=3)
    columns = [f"c{i}" for i in range(width)]
    out = tmp_path / "table.csv"
    text = write_table(columns, rows, {}, "csv", str(out))
    assert text == reference_csv(columns, rows)
    assert out.read_bytes() == text.encode("utf-8")


def test_json_round_trips(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    config = write_config(tmp_path, samples=2, bands=3, tf=1.0)
    code, _, _ = run_cli(
        capsys, "evolve", "--config", config,
        "--output", str(out_path), "--format", "json",
    )
    assert code == EXIT_OK
    document = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(document) == {"meta", "columns", "data"}
    assert all(len(row) == len(document["columns"]) for row in document["data"])
    assert json.loads(json.dumps(document)) == document


def test_output_file_writing(tmp_path, capsys):
    out_path = tmp_path / "spectrum.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--output", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    header, rows = parse_csv(out_path.read_text(encoding="utf-8"))
    assert header[-1] == "frequency"
    assert len(rows) == 5
