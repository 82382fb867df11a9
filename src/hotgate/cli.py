"""Command-line front end: truth-table, sweep, and stirap-trace experiments.

Config files are JSON with explicit unit suffixes on physical keys
(rad_per_s, _s). The keys of each section, with their kinds and defaults, are
declared once in the tables below and read by _read; any other key exits 2.
Exit codes: 0 success, 2 usage/config error, 3 simulation domain error or a
run too large to allocate. CSV output carries 17 significant digits so
downstream convergence checks stay meaningful.
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gate as gate_mod
from . import states, stirap
from .errors import SimulationError
from .hilbert import DEFAULT_N_MAX
from .operators import PhysicalParams

# The config key of each sweep axis. omega and delta only set chi, to which the
# phase pulse is calibrated (tau = pi/chi), so no output reads them: not axes.
SWEEP_AXES = {
    "epsilon": ("gate", "epsilon"),
    "eta": ("gate", "params", "eta"),
    "delta_stirap_rad_per_s": ("gate", "params", "delta_stirap_rad_per_s"),
    "n_max": ("n_max",),
    "total_duration_s": ("gate", "schedule", "total_duration_s"),
    "margin": ("gate", "schedule", "margin"),
    "n_steps": ("gate", "schedule", "n_steps"),
}
# what only a stirap gate reads
_PASSAGE_AXES = ("eta", "delta_stirap_rad_per_s", "total_duration_s", "margin", "n_steps")

# schedule keys that are gone, each with the one spelling that replaced it
_REMOVED_SCHEDULE_KEYS = {
    "detuning_rad_per_s": "gate.params.delta_stirap_rad_per_s",
    "dt_s": "n_steps (dt = total_duration_s / n_steps)",
    "direction": "the pulse order (Stokes before pump goes up)",
    "stokes_peak_rabi_rad_per_s": "explicit pump/stokes envelopes",
}

# Every key of each config section, once: key -> (kind, default). A key whose
# default is None may be left out or given as null; any other key is refused.
_REQUIRED = object()  # the default of a key that must be given
_ROOT = {"n_max": (int, DEFAULT_N_MAX), "phonon": (str, _REQUIRED), "gate": (dict, _REQUIRED),
         "sweep": (dict, None), "trace": (dict, {})}
_GATE = {"mode": (str, "ideal"), "params": (dict, _REQUIRED), "schedule": (dict, None),
         "control": (int, 0), "target": (int, 1), "epsilon": (float, 0.0),
         "compensate_phases": (bool, False)}
_PARAMS = {"eta": (float, _REQUIRED), "omega_rad_per_s": (float, _REQUIRED),
           "delta_rad_per_s": (float, _REQUIRED), "n_ions": (int, 2),
           "delta_stirap_rad_per_s": (float, 0.0)}
_SCHEDULE = {"total_duration_s": (float, _REQUIRED), "n_steps": (int, stirap.DEFAULT_N_STEPS),
             "margin": (float, None), "pump_peak_rabi_rad_per_s": (float, None),
             "pump": (dict, None), "stokes": (dict, None)}
_ENVELOPE = {"peak_rabi_rad_per_s": (float, _REQUIRED), "center_s": (float, _REQUIRED),
             "width_s": (float, _REQUIRED)}
_SWEEP = {"axes": (list, _REQUIRED)}
_AXIS = {"name": (str, _REQUIRED), "values": (list, _REQUIRED)}
_TRACE = {"n": (int, 0)}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               dict: "an object", list: "a list"}


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


def _typed(value, kind: type, name: str):
    """value as a strict bool, int (an integral number: 1200.0 passes), float (any
    JSON number, never a boolean or a string), str, dict (JSON object) or list."""
    if kind is int:  # type() and not isinstance(): True is an int too
        ok = type(value) is int or isinstance(value, float) and value.is_integer()
    elif kind is float:
        ok = type(value) is int or isinstance(value, float)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer literal past the largest float
        raise ValueError(f"{name} is too large for a float") from None


def _read(section, table: dict, where: str) -> dict:
    """Every key of table from one config section (where: its dotted path, '' at
    the root), typed, with its default filled in; any other key is refused."""
    here = where or "config"
    section = _typed(section, dict, here)
    for key in section:
        if key in table:
            continue
        if where == "gate.schedule" and key in _REMOVED_SCHEDULE_KEYS:
            raise ValueError(f"{key} is not a schedule key; use {_REMOVED_SCHEDULE_KEYS[key]}")
        raise ValueError(f"unknown key {key!r} in {here}; known: {', '.join(table)}")
    values = {}
    for key, (kind, default) in table.items():
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"missing {key!r} in {here}")
        if value is not default:  # the declared default (and null where it is None) is valid
            value = _typed(value, kind, f"{where}.{key}" if where else key)
        values[key] = value
    return values


@contextmanager
def _config_errors(prefix: str):
    """Report a bad value met in the block as a ConfigError that starts with
    prefix; a ConfigError from a section read inside it passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _parse_envelope(section: dict, name: str) -> stirap.PulseEnvelope:
    with _config_errors(f"bad pulse envelope in {name}: "):
        e = _read(section, _ENVELOPE, f"gate.schedule.{name}")
        return stirap.PulseEnvelope(peak_rabi=e["peak_rabi_rad_per_s"], center=e["center_s"],
                                    width=e["width_s"])


def _parse_schedule(section: dict, params: PhysicalParams) -> stirap.StirapSchedule:
    with _config_errors("bad schedule: "):
        s = _read(section, _SCHEDULE, "gate.schedule")
        total, n_steps = s["total_duration_s"], s["n_steps"]
        if s["pump"] is None and s["stokes"] is None:
            return stirap.standard_schedule(
                total, params, margin=s["margin"], pump_peak=s["pump_peak_rabi_rad_per_s"],
                n_steps=n_steps)
        for key in ("margin", "pump_peak_rabi_rad_per_s"):
            if key in section:
                raise ValueError("give either explicit pump/stokes envelopes or a margin; "
                                 f"{key} belongs to the standard family they replace")
        pump, stokes = (_parse_envelope(s[name], name) for name in ("pump", "stokes"))
        return stirap.StirapSchedule(pump, stokes, total, n_steps)


def _parse_axes(section: dict, mode: str) -> list:
    axes = _read(section, _SWEEP, "sweep")["axes"]
    if not axes:
        raise ValueError("sweep requires a non-empty 'axes' list")
    parsed = []
    for i, axis in enumerate(axes):
        if isinstance(axis, dict) and axis.keys() & {"start", "stop", "steps"}:
            raise ValueError(f"axis {axis.get('name')}: list its points in 'values', "
                             "not start/stop/steps")
        axis = _read(axis, _AXIS, f"sweep.axes[{i}]")
        name = axis["name"]
        if name not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {name!r}; known: {sorted(SWEEP_AXES)}")
        if name in (seen for seen, _ in parsed):
            raise ValueError(f"sweep axis {name!r} is given twice")
        if mode == "ideal" and name in _PASSAGE_AXES:
            raise ValueError(f"sweep axis {name!r} sets the passage; ideal mode runs none")
        values = [_typed(v, float, f"axis {name}: values") for v in axis["values"]]
        if not values:
            raise ValueError(f"axis {name}: empty value range")
        parsed.append((name, values))
    return parsed


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate and build the experiment from a JSON document."""
    with _config_errors(""):
        root = _read(doc, _ROOT, "")
        if root["n_max"] < 1:
            raise ValueError("n_max must be >= 1")
        with _config_errors("bad gate section: "):
            gate = _read(root["gate"], _GATE, "gate")
            mode = gate["mode"]
            if mode not in ("ideal", "stirap"):
                raise ValueError(f"mode must be 'ideal' or 'stirap', got {mode!r}")
            if mode == "stirap" and gate["schedule"] is None:
                raise ValueError("stirap mode: schedule required")
            p = _read(gate["params"], _PARAMS, "gate.params")
            params = PhysicalParams(eta=p["eta"], omega=p["omega_rad_per_s"], n_ions=p["n_ions"],
                                    delta=p["delta_rad_per_s"],
                                    delta_stirap=p["delta_stirap_rad_per_s"])
            schedule = gate["schedule"]
            if schedule is not None:  # read in either mode, so one file can switch mode
                schedule = _parse_schedule(schedule, params)
            gate_config = gate_mod.GateConfig(
                params=params, control=gate["control"], target=gate["target"],
                schedule=schedule if mode == "stirap" else None,
                epsilon=gate["epsilon"], compensate_phases=gate["compensate_phases"],
            )
        sweep_axes = [] if root["sweep"] is None else _parse_axes(root["sweep"], mode)
        trace_n = _read(root["trace"], _TRACE, "trace")["n"]
    return ExperimentConfig(
        n_max=root["n_max"], phonon_spec=root["phonon"], gate=gate_config,
        sweep_axes=sweep_axes, trace_n=trace_n, raw=doc,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # also not UTF-8, or an integer literal too long
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)


def _phonon_input(config: ExperimentConfig, seed: int | None):
    try:
        return states.parse_state_spec(config.phonon_spec, config.n_max, default_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@contextmanager
def _output(path: str):
    """Yield the --out writer: the path is opened before any work, without
    truncation, so a failed run keeps a file that was there (removes one it made);
    the text overwrites it from the start and cuts a regular file at its end."""
    if path == "-":
        yield sys.stdout.write
        return
    made = not os.path.exists(path)
    try:
        with open(path, "w", encoding="utf-8",
                  opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
            def write(text: str):
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
            yield write
    except BaseException as exc:
        if made and os.path.exists(path):
            os.remove(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
        raise


def cmd_truth_table(config: ExperimentConfig, out: str, seed: int | None) -> int:
    with _output(out) as write:
        report = gate_mod.gate_report(config.gate, _phonon_input(config, seed))
        doc = {**report.to_dict(), "phonon": config.phonon_spec, "n_max": config.n_max}
        write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"qubit_fidelity={_fmt(report.qubit_fidelity)}")
    print(f"phonon_restoration_fidelity={_fmt(report.phonon_restoration_fidelity)}")
    return 0


def _patched_raw(raw: dict, names, values) -> dict:
    doc = json.loads(json.dumps(raw))
    doc.pop("sweep", None)
    for name, value in zip(names, values):
        path = SWEEP_AXES[name]
        node = doc
        for key in path[:-1]:  # a section parse_config read: ideal mode has no passage axes
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
    names, grids = zip(*config.sweep_axes)
    points = list(product(*grids))
    stirap_cols = ["transfer_efficiency"] if config.gate.mode == "stirap" else []
    metric_cols = ["gate_fidelity", "phonon_restoration", "leakage", *stirap_cols, "runtime_s"]
    with _output(out) as write:
        lines = [",".join([*names, *metric_cols])]
        for vals in points:
            row = _grid_point_metrics(config.raw, names, vals, seed)
            lines.append(",".join([_fmt(v) for v in vals] + [_fmt(row[c]) for c in metric_cols]))
        write("\n".join(lines) + "\n")
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
    with _output(out) as write:
        times, amps = stirap.block_trajectory(schedule, params, n)
        pump = schedule.pump.value(times)
        sideband = stirap.sideband_rate(n, times, schedule, params)
        pops = np.abs(amps) ** 2
        lines = ["t_s,omega_pump_rad_per_s,omega_stokes_n_rad_per_s,pop_1n,pop_3n,pop_2n1"]
        for k in range(len(times)):
            lines.append(",".join(_fmt(v) for v in (times[k], pump[k], sideband[k], *pops[k])))
        write("\n".join(lines) + "\n")
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
