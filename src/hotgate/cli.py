"""Command-line front end: truth-table, sweep, and stirap-trace experiments.

Config files are JSON with explicit unit suffixes on physical keys
(rad_per_s, _s). Exit codes: 0 success, 2 usage/config error, 3 simulation
domain error or a run too large to allocate. CSV output carries 17
significant digits so downstream convergence checks stay meaningful.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gate as gate_mod
from . import states, stirap
from .errors import SimulationError
from .hilbert import DEFAULT_N_MAX
from .operators import PhysicalParams

SWEEP_AXES = {
    "epsilon": ("gate", "epsilon"),
    "eta": ("gate", "params", "eta"),
    "omega_rad_per_s": ("gate", "params", "omega_rad_per_s"),
    "delta_rad_per_s": ("gate", "params", "delta_rad_per_s"),
    "delta_stirap_rad_per_s": ("gate", "params", "delta_stirap_rad_per_s"),
    "n_max": ("n_max",),
    "total_duration_s": ("gate", "schedule", "total_duration_s"),
    "margin": ("gate", "schedule", "margin"),
    "n_steps": ("gate", "schedule", "n_steps"),
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Parsed experiment: gate setup, phonon input, optional sweep/trace sections."""

    n_max: int
    phonon_spec: str
    gate: gate_mod.GateConfig
    sweep_axes: list
    trace_n: int
    raw: dict

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


def _require(section: dict, key: str, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in section:
        raise ConfigError(f"missing {key!r} in {where}")
    return section[key]


def _typed(value, kind: type, name: str):
    """value as a strict bool (a JSON boolean), int (an integral number: 1200.0
    passes) or float (any JSON number, never a boolean or a string)."""
    if kind is bool:
        ok, what = isinstance(value, bool), "true or false"
    elif kind is int:  # type() and not isinstance(): True is an int too
        ok = type(value) is int or isinstance(value, float) and value.is_integer()
        what = "an integer"
    else:
        ok = type(value) is int or isinstance(value, float)
        what = "a number"
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def _optional_float(section: dict, key: str):
    value = section.get(key)
    return None if value is None else _typed(value, float, key)


def _parse_params(section: dict) -> PhysicalParams:
    try:
        return PhysicalParams(
            eta=_typed(_require(section, "eta", "gate.params"), float, "eta"),
            omega=_typed(_require(section, "omega_rad_per_s", "gate.params"), float,
                         "omega_rad_per_s"),
            n_ions=_typed(section.get("n_ions", 2), int, "n_ions"),
            delta=_typed(_require(section, "delta_rad_per_s", "gate.params"), float,
                         "delta_rad_per_s"),
            delta_stirap=_typed(section.get("delta_stirap_rad_per_s", 0.0), float,
                                "delta_stirap_rad_per_s"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad physical parameters: {exc}") from exc


def _parse_envelope(section: dict, where: str) -> stirap.PulseEnvelope:
    try:
        return stirap.PulseEnvelope(
            shape=str(section.get("shape", "sin2")),
            peak_rabi=_typed(_require(section, "peak_rabi_rad_per_s", where), float,
                             "peak_rabi_rad_per_s"),
            center=_typed(_require(section, "center_s", where), float, "center_s"),
            width=_typed(_require(section, "width_s", where), float, "width_s"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad pulse envelope in {where}: {exc}") from exc


def _parse_schedule(section: dict, params: PhysicalParams) -> stirap.StirapSchedule:
    try:
        total = _typed(_require(section, "total_duration_s", "gate.schedule"), float,
                       "total_duration_s")
        if "dt_s" in section:
            ratio = total / _typed(section["dt_s"], float, "dt_s")
            n_steps = int(round(ratio))
            if abs(ratio - n_steps) > 1e-9 * max(1.0, ratio):
                raise ConfigError(f"total_duration_s is {ratio:.6g} dt_s, not a whole number")
            if "n_steps" in section:
                raise ConfigError("give either n_steps or dt_s, not both")
        else:
            n_steps = _typed(section.get("n_steps", stirap.DEFAULT_N_STEPS), int, "n_steps")
        if n_steps < 1:
            raise ConfigError(f"schedule needs n_steps >= 1, got {n_steps}")
        detuning = _optional_float(section, "detuning_rad_per_s")
        if "pump" in section or "stokes" in section:
            if "margin" in section:
                raise ConfigError("give either explicit pump/stokes envelopes or a margin")
            pump = _parse_envelope(_require(section, "pump", "gate.schedule"), "pump")
            stokes = _parse_envelope(_require(section, "stokes", "gate.schedule"), "stokes")
            return stirap.StirapSchedule(
                pump=pump,
                stokes=stokes,
                total_duration=total,
                detuning=params.delta_stirap if detuning is None else detuning,
                dt=total / n_steps,
                direction=str(section.get("direction", "up")),
            )
        return stirap.standard_schedule(
            total, params, margin=_optional_float(section, "margin"),
            pump_peak=_optional_float(section, "pump_peak_rabi_rad_per_s"),
            stokes_peak=_optional_float(section, "stokes_peak_rabi_rad_per_s"),
            direction=str(section.get("direction", "up")), n_steps=n_steps,
            detuning=detuning, shape=str(section.get("shape", "sin2")),
        )
    except (TypeError, ValueError, ArithmeticError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad schedule: {exc}") from exc


def _parse_axes(section: dict) -> list:
    axes = _require(section, "axes", "sweep")
    if not isinstance(axes, list) or not axes:
        raise ConfigError("sweep requires a non-empty 'axes' list")
    parsed = []
    for axis in axes:
        name = _require(axis, "name", "sweep axis")
        if not isinstance(name, str) or name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}; known: {sorted(SWEEP_AXES)}"
            )
        if name in (seen for seen, _ in parsed):
            raise ConfigError(f"sweep axis {name!r} is given twice")
        try:
            if "values" in axis:
                values = [_typed(v, float, "values") for v in axis["values"]]
            else:
                start = _typed(_require(axis, "start", "axis"), float, "start")
                stop = _typed(_require(axis, "stop", "axis"), float, "stop")
                steps = _typed(_require(axis, "steps", "axis"), int, "steps")
                if steps < 1:
                    raise ConfigError("steps must be >= 1")
                values = list(np.linspace(start, stop, steps))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"axis {name}: {exc}") from exc
        if not values:
            raise ConfigError(f"axis {name}: empty value range")
        parsed.append((name, values))
    return parsed


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate and build the experiment from a JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    n_max = _typed(doc.get("n_max", DEFAULT_N_MAX), int, "n_max")
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    phonon_spec = str(_require(doc, "phonon", "config"))
    gate_sec = _require(doc, "gate", "config")
    params = _parse_params(_require(gate_sec, "params", "gate"))
    mode = str(gate_sec.get("mode", "ideal"))
    schedule = None
    if mode == "stirap":
        if "schedule" not in gate_sec:
            raise ConfigError("stirap mode: schedule required")
        schedule = _parse_schedule(gate_sec["schedule"], params)
    try:
        gate_config = gate_mod.GateConfig(
            params=params,
            control=_typed(gate_sec.get("control", 0), int, "control"),
            target=_typed(gate_sec.get("target", 1), int, "target"),
            mode=mode,
            schedule=schedule,
            epsilon=_typed(gate_sec.get("epsilon", 0.0), float, "epsilon"),
            compensate_phases=_typed(gate_sec.get("compensate_phases", False), bool,
                                     "compensate_phases"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad gate section: {exc}") from exc
    sweep_axes = _parse_axes(doc["sweep"]) if "sweep" in doc else []
    trace = doc.get("trace", {})
    if not isinstance(trace, dict):
        raise ConfigError('trace must be an object such as {"n": 2}')
    trace_n = _typed(trace.get("n", 0), int, "trace.n")
    return ExperimentConfig(
        n_max=n_max, phonon_spec=phonon_spec, gate=gate_config,
        sweep_axes=sweep_axes, trace_n=trace_n, raw=doc,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _phonon_input(config: ExperimentConfig, seed: int | None):
    try:
        return states.parse_state_spec(config.phonon_spec, config.n_max, default_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc


def cmd_truth_table(config: ExperimentConfig, out: str, seed: int | None) -> int:
    phonon = _phonon_input(config, seed)
    report = gate_mod.gate_report(config.gate, phonon)
    doc = report.to_dict()
    doc["phonon"] = config.phonon_spec
    doc["n_max"] = config.n_max
    _write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"qubit_fidelity={_fmt(report.qubit_fidelity)}")
    print(f"phonon_restoration_fidelity={_fmt(report.phonon_restoration_fidelity)}")
    return 0


def _patched_raw(raw: dict, names, values) -> dict:
    doc = json.loads(json.dumps(raw))
    doc.pop("sweep", None)
    for name, value in zip(names, values):
        path = SWEEP_AXES[name]
        node = doc
        for key in path[:-1]:
            if key not in node or not isinstance(node[key], dict):
                raise ConfigError(
                    f"sweep axis {name!r} needs a {'.'.join(path[:-1])} section")
            node = node[key]
        node[path[-1]] = value  # parse_config reads n_max and n_steps as strict integers
    return doc


def _grid_point_metrics(raw: dict, names, values, seed: int | None) -> dict:
    cfg = parse_config(_patched_raw(raw, names, values))
    phonon = _phonon_input(cfg, seed)
    t0 = time.perf_counter()
    report = gate_mod.gate_report(cfg.gate, phonon)
    row = {
        "gate_fidelity": report.qubit_fidelity,
        "phonon_restoration": report.phonon_restoration_fidelity,
        "leakage": report.leakage,
    }
    if cfg.gate.mode == "stirap":
        # the build gate_report made: no second integration
        amps = stirap.transfer_amplitudes(cfg.gate.schedule, cfg.gate.params, cfg.n_max + 1)
        rungs = min(stirap.CALIBRATED_RUNGS, cfg.n_max)
        row["transfer_efficiency"] = float(np.min(np.abs(amps[:rungs]) ** 2))
    row["runtime_s"] = time.perf_counter() - t0
    return row


def cmd_sweep(config: ExperimentConfig, out: str, seed: int | None) -> int:
    if not config.sweep_axes:
        raise ConfigError("sweep requires a non-empty 'axes' list")
    names = [name for name, _ in config.sweep_axes]
    grids = [vals for _, vals in config.sweep_axes]
    points = list(product(*grids))
    rows = [_grid_point_metrics(config.raw, names, vals, seed) for vals in points]
    metric_cols = ["gate_fidelity", "phonon_restoration", "leakage"]
    if config.gate.mode == "stirap":
        metric_cols.append("transfer_efficiency")
    metric_cols.append("runtime_s")
    lines = [",".join(names + metric_cols)]
    for vals, row in zip(points, rows):
        cells = [_fmt(v) for v in vals] + [_fmt(row[c]) for c in metric_cols]
        lines.append(",".join(cells))
    _write_text(out, "\n".join(lines) + "\n")
    print(f"sweep: {len(points)} grid points -> {out}")
    return 0


def cmd_stirap_trace(config: ExperimentConfig, out: str, seed: int | None) -> int:
    if config.gate.mode != "stirap":
        raise ConfigError("stirap-trace requires gate mode 'stirap' (schedule required)")
    n = config.trace_n
    if not 0 <= n < config.n_max:
        raise ConfigError(f"trace.n = {n} outside 0..{config.n_max - 1}")
    schedule = config.gate.schedule
    params = config.gate.params
    times, amps = stirap.block_trajectory(schedule, params, n)
    pump = schedule.pump.value(times)
    sideband = stirap.sideband_rate(n, times, schedule, params)
    pops = np.abs(amps) ** 2
    lines = ["t_s,omega_pump_rad_per_s,omega_stokes_n_rad_per_s,pop_1n,pop_3n,pop_2n1"]
    for k in range(len(times)):
        lines.append(",".join(_fmt(v) for v in
                              (times[k], pump[k], sideband[k],
                               pops[k, 0], pops[k, 1], pops[k, 2])))
    _write_text(out, "\n".join(lines) + "\n")
    print(f"final_transfer_population={_fmt(pops[-1, 2])}")
    return 0


_COMMANDS = {
    "truth-table": cmd_truth_table,
    "sweep": cmd_sweep,
    "stirap-trace": cmd_stirap_trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hotgate",
        description="Simulate the four-pulse controlled-rotation gate on a hot ion string.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", required=True, help="output path ('-' for stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="default seed for the 'random' phonon family")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        config = load_config(args.config)
        return handler(config, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, MemoryError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
