"""Command-line interface: spectra, resonances, coefficient evolution, checks.

Subcommands read a flat JSON configuration file, run one computation, and
write a table as CSV or JSON.  Output is deterministic: fixed column order
and 17 significant digits.  Complex values serialize as [re, im] pairs in
JSON and as paired re_*/im_* columns in CSV.

Exit codes: 0 success, 2 configuration error, 3 numerical or stability
error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import logging
import math
import sys
import typing
import warnings
from typing import Any, Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .core import BoundaryCondition, FieldParams
from .exact1d import (
    BoundaryTrajectory,
    SolverError,
    StabilityError,
    assemble_vhat,
    bogoliubov_identity_residual,
    evolve_transformation,
    generator_matrix,
    solve_instantaneous_basis,
)
# evolve evaluates through perturbative_cells; bogoliubov_perturbative stays
# a cli attribute for tracers that rebind it (perfbench/tracing.py)
from .perturb import (  # noqa: F401
    ValidityWindowWarning,
    build_coupling_matrices,
    bogoliubov_perturbative,
    find_resonances,
    perturbative_cells,
    validity_window,
)
from .scenarios import (
    SCENARIO_NAMES,
    DceConfig,
    DceVariant,
    GwConfig,
    build_dce,
    build_gw,
)
from .staticmodes import (
    Box,
    Interval,
    orthonormality_residual,
    solve_box_modes,
    solve_interval_modes,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

_log = logging.getLogger("movingcavity.cli")


class ConfigError(ValueError):
    """Raised for a missing, malformed, or out-of-range config field."""


# ---------------------------------------------------------------------------
# configuration


_GW_NAMES = ("gw-rigid",)


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration with defaults applied.

    The annotations are the config schema: ``load_config`` parses each
    JSON field by its type here.  ``evolve`` writes a sample at the end
    of each of ``samples`` equal parts of the window, ``evolve-exact`` at
    the end of each of max(samples, 1) parts, each a whole number of
    steps.
    """

    scenario: Literal[SCENARIO_NAMES] = "dce-i"
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET
    mass: float = 0.0
    epsilon: float = 1e-3
    omega_drive: float = 3.0
    length: float = math.pi
    lx: float = 1.0
    ly: float = 1.3
    lz: float = 0.9
    frequency_cutoff: float = 25.0
    bands: int = 5
    t0: float = 0.0
    tf: float = 10.0
    dt: Optional[float] = None
    samples: int = 25
    tolerance: float = 1e-9
    pairs: Tuple[Tuple[int, int], ...] = ()
    mode: Literal["default", "epsilon-sweep"] = "default"
    epsilons: Tuple[float, ...] = (1e-2, 3e-3, 1e-3)
    duration: float = 6.0

    def meta(self) -> Dict[str, Any]:
        return {**dataclasses.asdict(self), "bc": self.bc.value}


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _coerce(name: str, value: Any, hint: Any) -> Any:
    """Parse the JSON ``value`` of config field ``name`` as type ``hint``.

    float takes a number or numeric string and must be finite; int takes
    an integral value only; a tuple needs a JSON list; a boolean is not a
    number.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if value is None:
        if type(None) in args:
            return None
        raise ConfigError(f"field '{name}': must not be null")
    if origin is typing.Union:  # Optional[X]
        (inner,) = (arg for arg in args if arg is not type(None))
        return _coerce(name, value, inner)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"field '{name}': expected a list, got {value!r}")
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) != len(value):
            raise ConfigError(
                f"field '{name}': expected a list of length {len(kinds)}, "
                f"got {value!r}"
            )
        return tuple(_coerce(name, v, kind) for v, kind in zip(value, kinds))
    if origin is Literal:
        if value not in args:
            raise ConfigError(
                f"field '{name}': expected one of "
                f"{', '.join(map(repr, args))}, got {value!r}"
            )
        return value
    if hint is BoundaryCondition:
        try:
            return BoundaryCondition(str(value).lower())
        except ValueError:
            choices = ", ".join(repr(bc.value) for bc in BoundaryCondition)
            raise ConfigError(
                f"field '{name}': expected one of {choices}, got {value!r}"
            )
    try:
        if isinstance(value, bool):
            raise TypeError
        coerced = hint(value)
        if hint is int and coerced != float(value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"field '{name}': expected {hint.__name__}, got {value!r}"
        )
    if hint is float and not math.isfinite(coerced):
        raise ConfigError(f"field '{name}': must be finite, got {value!r}")
    return coerced


def load_config(path: Optional[str], overrides: Dict[str, Any]) -> RunConfig:
    """Read a flat JSON config file and apply command-line overrides."""
    raw: Dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a flat JSON object")
    raw.update(overrides)
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    config = RunConfig(**{
        name: _coerce(name, value, _FIELD_TYPES[name])
        for name, value in raw.items()
    })
    if config.tf <= config.t0:
        raise ConfigError(
            f"field 'window': requires t0 < tf, got [{config.t0}, {config.tf}]"
        )
    for name, bad, rule in (
        ("bands", config.bands < 1, "must be >= 1"),
        ("epsilon", config.epsilon < 0, "must be >= 0"),
        ("samples", config.samples < 0, "must be >= 0"),
        ("tolerance", config.tolerance < 0, "must be >= 0"),
        ("dt", config.dt is not None and config.dt <= 0,
         "integration step must be positive"),
        ("duration", config.duration <= 0, "must be > 0"),
    ):
        if bad:
            raise ConfigError(
                f"field '{name}': {rule}, got {getattr(config, name)}"
            )
    # the sweep fits a log-log slope: two distinct logs at least
    if len(set(config.epsilons)) < 2 or min(config.epsilons) <= 0:
        raise ConfigError(
            "field 'epsilons': expected at least two distinct finite "
            f"amplitudes > 0, got {list(config.epsilons)}"
        )
    return config


def _build_scenario_objects(config: RunConfig):
    """Scenario spec and friends for the configured scenario name."""
    if config.scenario in _GW_NAMES:
        gw = GwConfig(
            lx=config.lx, ly=config.ly, lz=config.lz, bc=config.bc,
            epsilon=max(config.epsilon, 1e-12),
            omega_drive=config.omega_drive,
            frequency_cutoff=config.frequency_cutoff,
        )
        spec, predictor = build_gw(gw)
        return spec, None, predictor
    variant = DceVariant(config.scenario.split("-", 1)[1])
    dce = DceConfig(
        variant=variant, length=config.length, bc=config.bc,
        epsilon=max(config.epsilon, 1e-12), omega_drive=config.omega_drive,
        mass=config.mass,
    )
    return build_dce(dce)


def _static_basis(config: RunConfig):
    if config.scenario in _GW_NAMES:
        return solve_box_modes(
            Box(config.lx, config.ly, config.lz),
            FieldParams(mass=config.mass), config.bc,
            frequency_cutoff=config.frequency_cutoff,
        )
    return solve_interval_modes(
        Interval(config.length), FieldParams(mass=config.mass),
        config.bc, config.bands,
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    meta: Dict[str, Any],
    fmt: str,
    output: Optional[str],
) -> str:
    """Serialize a small table to CSV or JSON; write to file or stdout."""
    if fmt == "json":
        document = {"meta": meta, "columns": list(columns), "data": rows}
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                _fmt(item) if isinstance(item, (float, np.floating))
                else str(item)
                for item in row
            ])
        text = buffer.getvalue()
    else:
        raise ConfigError(f"field 'format': expected csv or json, got {fmt!r}")
    with _open_output(output) as handle:
        handle.write(text)
    return text


def _sample_table(handle, fmt, columns, meta, keys, cells):
    """Write a sampled table's header; return its ``write`` and ``close``.

    Every sample has the same rows, at least one: row k reads t, the
    integers ``keys[k]`` and the cells ``cells[k]``.  A cell is a fixed
    float, baked into the template as text, or live: ``float``, or
    ``complex`` for a pair written as [re, im] in JSON and as re_*/im_*
    columns in CSV.  ``write(t, values)`` writes one sample's rows in one
    % call, t formatted once, the live values (Python floats, row by row)
    filling the template; ``close()`` ends the table.  The bytes are those
    of ``write_table`` on the same rows: CSV floats in %.17g, JSON floats
    in their repr, which is how ``json`` encodes a finite float.
    """
    # a live float and complex pair; the text that starts a row, separates
    # its cells and ends it; the text before the first sample, between two
    # rows, and after the last sample when there was none and when some
    if fmt == "csv":
        real, pair = "%.17g", "%.17g,%.17g"
        start, sep, end = "", ",", "\n"
        opening, between, closings = "", "", ("", "")
        kinds = (None,) * (len(columns) - len(cells[0])) + cells[0]
        handle.write(",".join(
            f"re_{name},im_{name}" if kind is complex else name
            for name, kind in zip(columns, kinds)
        ) + "\n")
    elif fmt == "json":  # json.dumps's document; sorted, data comes second
        real, pair = "%r", "[\n        %r,\n        %r\n      ]"
        start, sep, end = "[\n      ", ",\n      ", "\n    ]"
        opening, between = "[\n    ", ",\n    "
        head, _, tail = json.dumps(
            {"columns": list(columns), "data": "<data>", "meta": meta},
            indent=2, sort_keys=True,
        ).partition('"<data>"')
        closings = ("[]" + tail + "\n", "\n  ]" + tail + "\n")
        handle.write(head)
    else:
        raise ConfigError(f"field 'format': expected csv or json, got {fmt!r}")
    # one format per distinct cell pattern, not per row: it takes the keys
    # and leaves the live cells' formats, escaped here, for write's % call
    key = sep + sep.join(["%d"] * len(keys[0]))
    row = {
        pattern: key + "".join(
            sep + (pair if cell is complex else real if cell is float
                   else real % cell)
            for cell in pattern
        ).replace("%", "%%") + end + between + start
        for pattern in set(cells)
    }
    parts = [start] + [
        row[pattern] % numbers for numbers, pattern in zip(keys, cells)
    ]
    parts[-1] = parts[-1].removesuffix(between + start)
    lead = opening

    def write(t: float, values: Sequence[float]) -> None:
        nonlocal lead
        handle.write(lead)
        handle.write((real % t).join(parts) % tuple(values))
        lead = between

    def close() -> None:
        handle.write(closings[lead == between])

    return write, close


def _open_output(output: Optional[str]) -> typing.ContextManager[typing.IO]:
    """The ``--output`` file opened for writing, or stdout when it is unset.

    A file that cannot be opened is a ConfigError naming the path.
    """
    if not output:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8")
    except OSError as err:
        raise ConfigError(
            f"cannot write output '{output}': {err.strerror or err}"
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(config: RunConfig, fmt: str, output: Optional[str]) -> int:
    basis = _static_basis(config)
    axes = basis.index.shape[1]
    columns = (
        [f"index_{i}" for i in range(axes)]
        + [f"wavenumber_{i}" for i in range(axes)]
        + ["frequency"]
    )
    rows = [
        index + wavenumbers + [frequency]
        for index, wavenumbers, frequency in zip(
            basis.index.tolist(), basis.wavenumbers.tolist(),
            basis.frequencies.tolist(),
        )
    ]
    write_table(columns, rows, config.meta(), fmt, output)
    return EXIT_OK


def cmd_resonances(config: RunConfig, fmt: str, output: Optional[str]) -> int:
    basis = _static_basis(config)
    hits = find_resonances(basis, config.omega_drive, config.tolerance)
    columns = ["n", "m", "kind", "detuning"]
    rows = [[r.n, r.m, r.kind.value, float(r.detuning)] for r in hits]
    write_table(columns, rows, config.meta(), fmt, output)
    return EXIT_OK


def _selected_pairs(config: RunConfig, size: int) -> List[Tuple[int, int]]:
    if config.pairs:
        for n, m in config.pairs:
            if not (0 <= n < size and 0 <= m < size):
                raise ConfigError(
                    f"field 'pairs': index pair ({n}, {m}) outside basis "
                    f"of size {size}"
                )
        return list(config.pairs)
    return [(n, m) for n in range(size) for m in range(size)]


def _polar(values: np.ndarray) -> Tuple[List[float], List[float]]:
    """|z| and arg z of each entry, arg 0 where z is 0, as Python floats.

    The magnitude is Python's abs of each complex: numpy's array abs
    differs from it in the last bit.
    """
    phases = np.where(values != 0, np.angle(values), 0.0)
    return list(map(abs, values.tolist())), phases.tolist()


# the cells (|alpha|, arg alpha, |beta|, arg beta) of a coupled pair, live;
# an uncoupled pair has alpha = beta = 0 (alpha = 1 on the diagonal) at
# every t, fixed
_COUPLED = (float, float, float, float)
_UNCOUPLED = (0.0, 0.0, 0.0, 0.0)
_UNCOUPLED_DIAGONAL = (1.0, 0.0, 0.0, 0.0)


def _evolve_samples(config, couplings, basis, live, times, emit) -> None:
    """Call ``emit(t, values)`` at each sample time, in order.

    ``values`` holds |alpha|, arg alpha, |beta| and arg beta of each
    coupled pair of ``live`` in turn: only those cells are evaluated,
    through ``perturbative_cells``, and the entries are those of the dense
    ``bogoliubov_perturbative`` bit for bit.  Under ``--verbose`` one line
    on the ``movingcavity.cli`` logger counts the samples outside the
    first-order validity window.
    """
    rows = np.array([n for n, _ in live], dtype=int)
    cols = np.array([m for _, m in live], dtype=int)
    epsilon = config.epsilon
    values: List[float] = [0.0] * (4 * len(live))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWindowWarning)
        for t in times.tolist():
            alpha, beta = perturbative_cells(
                couplings, basis, epsilon, config.t0, t, rows, cols
            )
            for column, cells in enumerate((*_polar(alpha), *_polar(beta))):
                values[column::4] = cells
            emit(t, values)
    window = validity_window(couplings.drive_frequency, epsilon)
    if window:
        low, high = window
        durations = times - config.t0
        outside = np.count_nonzero((durations < low) | (durations > high))
        _log.info(
            "evolve: %d of %d samples outside the first-order validity "
            "window [%.6g, %.6g] of window lengths", outside, len(times),
            low, high,
        )


def cmd_evolve(config: RunConfig, fmt: str, output: Optional[str]) -> int:
    spec = _build_scenario_objects(config)[0]
    basis = _static_basis(config)
    pairs = _selected_pairs(config, len(basis))
    times = np.linspace(config.t0, config.tf, config.samples + 1)[1:]
    # the times do not decrease, so once the first sample lies past t0 no
    # sample can fail the window check after the header is written
    if times.size and not times[0] > config.t0:
        raise ConfigError(
            f"field 'samples': {config.samples} samples of the window "
            f"[{config.t0!r}, {config.tf!r}] put the first sample at t0"
        )
    couplings = build_coupling_matrices(spec, basis, config.bc)
    coupled = couplings.coupled.tolist()
    cells = [
        _COUPLED if coupled[n][m] else
        _UNCOUPLED_DIAGONAL if n == m else _UNCOUPLED
        for n, m in pairs
    ]
    live = [pair for pair, kinds in zip(pairs, cells) if kinds is _COUPLED]
    columns = ["t", "n", "m", "abs_alpha", "arg_alpha", "abs_beta", "arg_beta"]
    with _open_output(output) as handle:  # streamed, one sample at a time
        write, close = _sample_table(
            handle, fmt, columns, config.meta(), pairs, cells
        )
        _evolve_samples(config, couplings, basis, live, times, write)
        close()
    return EXIT_OK


def cmd_evolve_exact(config: RunConfig, fmt: str, output: Optional[str]) -> int:
    if config.scenario in _GW_NAMES:
        raise ConfigError(
            "field 'scenario': exact evolution supports interval scenarios "
            "only; three-dimensional scenarios have no exact path"
        )
    trajectory = _build_scenario_objects(config)[1]
    # at least one sample, so the table always ends with U(tf)
    state = evolve_transformation(
        trajectory, FieldParams(mass=config.mass), config.bc,
        config.t0, config.tf, config.bands,
        step=config.dt, samples=max(config.samples, 1),
    )
    columns = ["t", "i", "j", "U", "identity_residual"]
    keys = list(np.ndindex(state.U.shape))
    with _open_output(output) as handle:
        write, close = _sample_table(
            handle, fmt, columns, config.meta(), keys,
            [(complex, float)] * len(keys),
        )
        for t, u in state.checkpoints:
            residual = bogoliubov_identity_residual(
                dataclasses.replace(state, U=u, t_current=t)
            )
            # re U, im U and the residual of each entry, row by row
            cells = (u.real, u.imag, np.full(u.shape, residual))
            write(float(t), np.stack(cells, axis=-1).ravel().tolist())
        close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation checks


def _check_dce_closed_form(config: RunConfig) -> Tuple[bool, float]:
    dce = DceConfig(
        variant=DceVariant.RIGHT_ONLY, length=math.pi,
        bc=BoundaryCondition.DIRICHLET, epsilon=1e-3, omega_drive=3.0,
    )
    spec, _, predictor = build_dce(dce)
    basis = solve_interval_modes(
        Interval(math.pi), FieldParams(), BoundaryCondition.DIRICHLET, 4
    )
    couplings = build_coupling_matrices(
        spec, basis, BoundaryCondition.DIRICHLET, resonant=True
    )
    worst = 0.0
    for i in range(4):
        for j in range(4):
            want = predictor.beta_hat(i + 1, j + 1).amplitude_at(3.0)
            got = couplings.beta_hat[i, j].amplitude_at(3.0)
            scale = max(abs(want), 1e-30)
            worst = max(worst, abs(got - want) / scale)
    return worst < 1e-8, worst


def _check_gw_closed_form(config: RunConfig) -> Tuple[bool, float]:
    gw = GwConfig(
        lx=1.0, ly=1.3, lz=0.9, bc=BoundaryCondition.DIRICHLET,
        epsilon=1e-3, omega_drive=5.0, frequency_cutoff=12.0,
    )
    spec, predictor = build_gw(gw)
    basis = solve_box_modes(
        Box(1.0, 1.3, 0.9), FieldParams(), BoundaryCondition.DIRICHLET,
        frequency_cutoff=12.0,
    )
    keep = [i for i, m in enumerate(basis.modes) if max(m.index) <= 3][:5]
    couplings = build_coupling_matrices(
        spec, basis, BoundaryCondition.DIRICHLET, resonant=True
    )
    deviations = []
    magnitudes = []
    for i in keep:
        for j in keep:
            want = predictor.beta_hat(
                basis.modes[i].index, basis.modes[j].index
            ).amplitude_at(5.0)
            got = couplings.beta_hat[i, j].amplitude_at(5.0)
            deviations.append(abs(got - want))
            magnitudes.append(abs(want))
    # near-zero entries (parity cancellations) are judged relative to
    # the largest coupling in the block
    worst = max(deviations) / max(max(magnitudes), 1e-30)
    return worst < 1e-8, worst


def _check_orthonormality(config: RunConfig) -> Tuple[bool, float]:
    basis = solve_interval_modes(
        Interval(1.7), FieldParams(mass=0.6), config.bc, 6
    )
    residual = orthonormality_residual(basis)
    return residual < 1e-10, residual


def _check_static_generator(config: RunConfig) -> Tuple[bool, float]:
    traj = BoundaryTrajectory.static(0.0, math.pi)
    vhat = assemble_vhat(
        traj, FieldParams(), BoundaryCondition.DIRICHLET, 0.0, 4
    )
    gen = generator_matrix(vhat)
    freqs = solve_instantaneous_basis(
        traj, FieldParams(), BoundaryCondition.DIRICHLET, 0.0, 4
    ).frequencies
    deviation = float(np.max(np.abs(gen - 1j * np.diag(freqs))))
    return deviation < 1e-8, deviation


_CHECKS = {
    "dce-closed-form": _check_dce_closed_form,
    "gw-closed-form": _check_gw_closed_form,
    "orthonormality": _check_orthonormality,
    "static-generator": _check_static_generator,
}


def _envelope_trajectory(
    length: float, epsilon: float, drive: float, duration: float
) -> BoundaryTrajectory:
    """Right-wall drive with a smooth turn-on/off envelope.

    The sin^2 envelope puts the wall at rest, in its rest position, at
    both ends of the window, so the Bogoliubov identities hold there up
    to second order in the drive amplitude.
    """
    half = length / 2.0

    def envelope(t):
        return math.sin(math.pi * t / duration) ** 2

    def x_plus(t):
        return half * (1.0 + epsilon * envelope(t) * math.sin(drive * t))

    def v_plus(t):
        d_env = (
            math.pi / duration * math.sin(2.0 * math.pi * t / duration)
        )
        return half * epsilon * (
            d_env * math.sin(drive * t)
            + envelope(t) * drive * math.cos(drive * t)
        )

    def a_plus(t):
        rate = math.pi / duration
        d_env = rate * math.sin(2.0 * rate * t)
        dd_env = 2.0 * rate * rate * math.cos(2.0 * rate * t)
        return half * epsilon * (
            (dd_env - envelope(t) * drive * drive) * math.sin(drive * t)
            + 2.0 * d_env * drive * math.cos(drive * t)
        )

    return BoundaryTrajectory(
        lambda t: -half, x_plus,
        v_minus=lambda t: 0.0, v_plus=v_plus,
        a_minus=lambda t: 0.0, a_plus=a_plus,
    )


def _epsilon_sweep(config: RunConfig) -> Tuple[float, List[List[float]]]:
    """Identity residual vs drive amplitude; returns log-log slope."""
    rows = []
    # a small fixed step keeps the integrator error floor below the
    # quadratic residual signal at the smallest amplitudes
    step = config.dt if config.dt is not None else 0.01
    for epsilon in config.epsilons:
        traj = _envelope_trajectory(
            math.pi, epsilon, config.omega_drive, config.duration
        )
        state = evolve_transformation(
            traj, FieldParams(mass=config.mass), config.bc,
            0.0, config.duration, max(config.bands, 3), step=step,
        )
        rows.append([epsilon, bogoliubov_identity_residual(state)])
    logs = np.log(np.asarray(rows, dtype=float))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return slope, rows


def cmd_validate(config: RunConfig, fmt: str, output: Optional[str]) -> int:
    if config.mode == "epsilon-sweep":
        slope, samples = _epsilon_sweep(config)
        passed = abs(slope - 2.0) < 0.3
        columns = ["check", "passed", "measure"]
        rows = [["identity-residual-slope", int(passed), slope]]
        rows += [
            [f"residual(eps={eps:g})", 1, res] for eps, res in samples
        ]
        write_table(columns, rows, config.meta(), fmt, output)
        return EXIT_OK if passed else EXIT_VALIDATION
    columns = ["check", "passed", "measure"]
    rows = []
    all_passed = True
    for name, check in _CHECKS.items():
        passed, measure = check(config)
        rows.append([name, int(passed), float(measure)])
        all_passed = all_passed and passed
    write_table(columns, rows, config.meta(), fmt, output)
    return EXIT_OK if all_passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "resonances": cmd_resonances,
    "evolve": cmd_evolve,
    "evolve-exact": cmd_evolve_exact,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingcavity",
        description=(
            "Mode spectra, resonances, and Bogoliubov coefficients for a "
            "confined field with moving boundaries"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--output", default=None, help="output file path")
        cmd.add_argument(
            "--format", default="csv", choices=("csv", "json"),
            dest="fmt",
        )
        cmd.add_argument("--verbose", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.verbose:
        return _run(args)
    # the exact path logs its step plan and chunk counts at INFO, evolve
    # its validity-window count; without a handler those records go nowhere
    logger = logging.getLogger("movingcavity")
    stderr = logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(stderr)
    logger.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        logger.removeHandler(stderr)
        logger.setLevel(level)


def _run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config, {})
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    handler = _COMMANDS[args.command]
    try:
        return handler(config, args.fmt, args.output)
    except (KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as err:
        print(
            f"stability error: {err}\n"
            "hint: reduce the integration step (config field 'dt')",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (SolverError, ArithmeticError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
