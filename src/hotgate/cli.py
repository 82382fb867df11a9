"""Command-line front end: truth-table, sweep, and stirap-trace experiments.

Config files are JSON with explicit unit suffixes on physical keys
(rad_per_s, _s). The keys of each section, with their kinds and defaults, are
declared once in the tables below and read by _read; any other key exits 2.
Exit codes: 0 success, 2 usage/config error, 3 simulation domain error or a
run too large to allocate. CSV output carries 17 significant digits so
downstream convergence checks stay meaningful. Each command prints status
lines after its document: to stdout, or to stderr when the document goes to
stdout (--out -), which then holds the document alone.

The command line has one grammar, the argparse parser of build_parser, which
also writes every help and usage message. The documented line, COMMAND
--config PATH --out PATH, is read without it (_parse_args) to the namespace
it would give; every other line is the parser's.
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gate as gate_mod
from . import states, stirap
from .errors import SimulationError
from .hilbert import DEFAULT_N_MAX, FockSpace
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
_ENCODER = json.JSONEncoder(sort_keys=True)  # the one json.dumps(..., sort_keys=True) builds
_READ_SIZE = 1 << 16  # bytes asked of each os.read of a config
# Grid points parsed, and their passages built, ahead of their reports. Set by
# the passage cache, not tuned: each point reads one passage, so a window of
# as many points as the cache holds has none of its builds evicted before its
# point reads it, and any larger window could.
_SWEEP_WINDOW = stirap.PASSAGE_CACHE_SIZE
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


class _config_errors:
    """Report a bad value met in the block as a ConfigError that starts with
    prefix; a ConfigError from a section read inside it passes unchanged."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (TypeError, ValueError, ArithmeticError)) and not isinstance(
                exc, ConfigError):
            raise ConfigError(self.prefix + str(exc)) from exc
        return False


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
        if not 0 <= trace_n < root["n_max"]:
            raise ValueError(f"trace.n = {trace_n} outside 0..{root['n_max'] - 1}")
    return ExperimentConfig(
        n_max=root["n_max"], phonon_spec=root["phonon"], gate=gate_config,
        sweep_axes=sweep_axes, trace_n=trace_n, raw=doc,
    )


def _read_file(path: str) -> bytes:
    """The bytes of path up to end of file, also from a pipe or a device."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:
        exc.filename = path  # so a read error names the path too, e.g. a directory's
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def load_config(path: str) -> ExperimentConfig:
    try:
        text = _read_file(path).decode("utf-8")
        # the newlines of a text-mode read, so an error names the same position
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # also not UTF-8, or an integer literal too long
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)


def _phonon_input(config: ExperimentConfig, seed: int | None):
    try:  # parse_state_spec's state, a thermal one as its FockWeights
        FockSpace(config.n_max)
        build, arg = states._read_spec(config.phonon_spec, config.n_max, seed)
        return build(arg, config.n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


class _output:
    """The --out writer, as a context manager entered before any work: the path
    is opened without truncation, so a failed run keeps a file that was there
    (removes one it made, at the end of a symbolic link too); the text overwrites
    it from the start and cuts a regular file at its end. A regular file gets
    its blocks before any byte is written, so a full disk or a file size limit
    leaves it as it was. '-' writes to stdout."""

    __slots__ = ("path", "fd", "made", "size", "old_size")

    def __init__(self, path: str):
        self.path = path
        self.fd = None
        self.size = 0

    def __enter__(self):
        if self.path == "-":
            return sys.stdout.write
        # the file O_CREAT makes, which a dangling link names at its end
        self.made = None if os.path.exists(self.path) else os.path.realpath(self.path)
        try:
            self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
            st = os.fstat(self.fd)
        except OSError as exc:
            raise ConfigError(f"cannot write output {self.path}: {exc}") from exc
        # None: not a regular file (a device, a pipe), neither allocated nor cut
        self.old_size = st.st_size if stat.S_ISREG(st.st_mode) else None
        return self.write

    def write(self, text: str):
        data = memoryview(text.encode("utf-8"))
        try:
            if self.old_size is not None and data and hasattr(os, "posix_fallocate"):
                os.posix_fallocate(self.fd, self.size, len(data))
            self.size += len(data)
            while data:
                data = data[os.write(self.fd, data):]
        except OSError:
            if self.old_size is not None:  # an allocation that went through lengthened it
                os.ftruncate(self.fd, self.old_size)
            raise
        if self.old_size is not None:
            os.ftruncate(self.fd, self.size)

    def __exit__(self, kind, exc, tb):
        if self.fd is None:
            return False
        try:
            os.close(self.fd)
        except OSError as close_exc:
            if exc is None:
                exc = close_exc
        if exc is not None:
            if self.made is not None and os.path.exists(self.made):
                os.remove(self.made)
            if isinstance(exc, OSError):
                raise ConfigError(f"cannot write output {self.path}: {exc}") from exc
        return False


def _status(out: str):
    """Where a command's status lines go: stderr when the document itself goes to
    stdout (--out -), so that stdout holds the document alone; else stdout."""
    return sys.stderr if out == "-" else sys.stdout


def cmd_truth_table(config: ExperimentConfig, out: str, seed: int | None) -> int:
    with _output(out) as write:
        report = gate_mod.gate_report(config.gate, _phonon_input(config, seed))
        doc = {**report.to_dict(), "phonon": config.phonon_spec, "n_max": config.n_max}
        write(_ENCODER.encode(doc) + "\n")
    _status(out).write(f"qubit_fidelity={_fmt(report.qubit_fidelity)}\n"
                     f"phonon_restoration_fidelity={_fmt(report.phonon_restoration_fidelity)}\n")
    return 0


def _patched_raw(raw: dict, names, values) -> dict:
    """raw with each axis set to its value, without the sweep and trace sections
    (a grid point reads neither). Only the dicts on a patched path are copied,
    so raw is left as it was."""
    doc = {key: value for key, value in raw.items() if key not in ("sweep", "trace")}
    for name, value in zip(names, values):
        *sections, key = SWEEP_AXES[name]
        node = doc
        for section in sections:  # one parse_config read: ideal mode has no passage axes
            node[section] = dict(node[section])
            node = node[section]
        node[key] = value  # parse_config reads n_max and n_steps as strict integers
    return doc


def _parsed_window(raw: dict, names, window) -> list:
    """The configs of the window's leading grid points, up to the first that fails to
    parse. The first point's error is raised here; a later one's is left for the
    window it leads, so the points fail in grid order."""
    configs = [parse_config(_patched_raw(raw, names, window[0]))]
    for values in window[1:]:
        try:
            configs.append(parse_config(_patched_raw(raw, names, values)))
        except Exception:  # raised again, as the first point of the next window
            break
    return configs


def _grid_point_metrics(cfg: ExperimentConfig, seed: int | None) -> dict:
    phonon = _phonon_input(cfg, seed)
    t0 = time.perf_counter()
    report = gate_mod.gate_report(cfg.gate, phonon)
    row = {
        "gate_fidelity": report.qubit_fidelity,
        "phonon_restoration": report.phonon_restoration_fidelity,
        "leakage": report.leakage,
    }
    if cfg.gate.mode == "stirap":
        # the build gate_report read: no second integration
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
        done = 0
        while done < len(points):
            window = points[done:done + _SWEEP_WINDOW]
            configs = _parsed_window(config.raw, names, window)
            done += len(configs)
            # the passages every point of the window reads (n_max + 1 rungs), built
            # together before the first point's report
            stirap.build_passages([(cfg.gate.schedule, cfg.gate.params, cfg.n_max + 1)
                                   for cfg in configs if cfg.gate.mode == "stirap"])
            for vals, cfg in zip(window, configs):
                row = _grid_point_metrics(cfg, seed)
                cells = [_fmt(v) for v in vals] + [_fmt(row[c]) for c in metric_cols]
                lines.append(",".join(cells))
        write("\n".join(lines) + "\n")
    print(f"sweep: {len(points)} grid points -> {out}", file=_status(out))
    return 0


def cmd_stirap_trace(config: ExperimentConfig, out: str, seed: int | None) -> int:
    if config.gate.mode != "stirap":
        raise ConfigError("stirap-trace requires gate mode 'stirap' (schedule required)")
    with _config_errors(""):  # the other commands' verdict on the spec, with no state built
        states._read_spec(config.phonon_spec, config.n_max, seed)
    n = config.trace_n
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
    print(f"final_transfer_population={_fmt(pops[-1, 2])}", file=_status(out))
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
    parser.add_argument("command", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--out", required=True, help="output path ('-' for stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="default seed for the 'random' phonon family")
    return parser


_PARSER = build_parser()


def _parse_args(argv=None) -> argparse.Namespace:
    """_PARSER's namespace for argv (sys.argv[1:] if None). The documented line,
    COMMAND --config PATH --out PATH with the options in either order and no
    path that starts with '-' other than '-' itself, is read here, as argparse
    reads it; every other line, its help and its errors, is _PARSER's."""
    args = sys.argv[1:] if argv is None else argv
    if (isinstance(args, list) and len(args) == 5
            and all(type(arg) is str for arg in args) and args[0] in _COMMANDS
            and {args[1], args[3]} == {"--config", "--out"}
            and all(arg == "-" or not arg.startswith("-") for arg in args[2::2])):
        paths = {args[1]: args[2], args[3]: args[4]}
        return argparse.Namespace(command=args[0], config=paths["--config"],
                                  out=paths["--out"], seed=None)
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
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
