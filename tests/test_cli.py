import argparse
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hotgate import cli
from hotgate.operators import PhysicalParams
from hotgate import gate, states, stirap
from test_gate import integrations  # noqa: F401 - build-counting fixture
from test_stirap import shape_evaluations  # noqa: F401 - pulse-shape counting fixture

BASE_PARAMS = {
    "eta": 0.1,
    "omega_rad_per_s": 2 * np.pi * 1e5,
    "n_ions": 2,
    "delta_rad_per_s": 2 * np.pi * 1e7,
}


def ideal_doc(phonon="thermal:2.0", n_max=32, **extra):
    doc = {
        "n_max": n_max,
        "phonon": phonon,
        "gate": {"mode": "ideal", "params": dict(BASE_PARAMS)},
    }
    doc.update(extra)
    return doc


def stirap_doc(phonon="fock:0", n_max=12, margin=100.0, n_steps=1000, **extra):
    doc = {
        "n_max": n_max,
        "phonon": phonon,
        "gate": {
            "mode": "stirap",
            "params": dict(BASE_PARAMS),
            "schedule": {"total_duration_s": 1.0, "margin": margin, "n_steps": n_steps},
        },
    }
    doc.update(extra)
    return doc


def every_command_doc(phonon, n_max=8):
    """A config that each of the three commands runs on a well-formed spec."""
    return stirap_doc(phonon=phonon, n_max=n_max, n_steps=200, trace={"n": 1},
                      sweep={"axes": [{"name": "epsilon", "values": [0.0]}]})


def package_env():
    """The environment of a subprocess that imports this hotgate."""
    import hotgate

    package_root = str(Path(hotgate.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- config parsing

def test_config_round_trip():
    doc = stirap_doc(sweep={"axes": [{"name": "epsilon", "values": [0.0, 0.01]}]})
    first = cli.parse_config(doc)
    second = cli.parse_config(first.raw)
    assert first.gate == second.gate
    assert first.n_max == second.n_max
    assert first.phonon_spec == second.phonon_spec
    assert first.sweep_axes == second.sweep_axes
    assert first.trace_n == second.trace_n


def test_parse_explicit_envelopes(tmp_path, capsys):
    doc = ideal_doc()
    doc["gate"]["mode"] = "stirap"
    doc["gate"]["schedule"] = {
        "total_duration_s": 2.0,
        "n_steps": 100,
        "pump": {"peak_rabi_rad_per_s": 50.0, "center_s": 1.4, "width_s": 1.0},
        "stokes": {"peak_rabi_rad_per_s": 500.0, "center_s": 0.6, "width_s": 1.0},
    }
    config = cli.parse_config(doc)
    assert config.gate.schedule.pump.peak_rabi == 50.0
    # the detuning is a physical parameter, not a schedule key: refused, not ignored
    doc["gate"]["schedule"]["detuning_rad_per_s"] = 1.5
    code = cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert "gate.params.delta_stirap_rad_per_s" in err
    assert "Traceback" not in err


def test_parse_rejects_margin_with_envelopes():
    # every key of the standard family is refused next to explicit envelopes
    for key, value in (("margin", 50.0), ("pump_peak_rabi_rad_per_s", 7.0)):
        doc = ideal_doc()
        doc["gate"]["mode"] = "stirap"
        doc["gate"]["schedule"] = {
            "total_duration_s": 1.0,
            key: value,
            "pump": {"peak_rabi_rad_per_s": 1.0, "center_s": 0.7, "width_s": 0.5},
            "stokes": {"peak_rabi_rad_per_s": 1.0, "center_s": 0.3, "width_s": 0.5},
        }
        with pytest.raises(cli.ConfigError, match=f"{key} belongs to the standard family"):
            cli.parse_config(doc)


def envelope_doc():
    """A stirap config with explicit envelopes, a sweep and a trace: all 9 sections."""
    doc = stirap_doc(phonon="fock:1", n_max=4, trace={"n": 1},
                     sweep={"axes": [{"name": "epsilon", "values": [0.0]}]})
    doc["gate"]["schedule"] = {
        "total_duration_s": 1.0, "n_steps": 200,
        "pump": {"peak_rabi_rad_per_s": 100.0, "center_s": 0.7, "width_s": 0.5},
        "stokes": {"peak_rabi_rad_per_s": 1000.0, "center_s": 0.3, "width_s": 0.5},
    }
    return doc


SECTIONS = {
    "config": (), "gate": ("gate",), "gate.params": ("gate", "params"),
    "gate.schedule": ("gate", "schedule"), "gate.schedule.pump": ("gate", "schedule", "pump"),
    "gate.schedule.stokes": ("gate", "schedule", "stokes"), "sweep": ("sweep",),
    "sweep.axes[0]": ("sweep", "axes", 0), "trace": ("trace",),
}


@pytest.mark.parametrize("command", ["truth-table", "sweep"])
@pytest.mark.parametrize("where", sorted(SECTIONS))
def test_undeclared_key_exits_2_naming_it_and_its_section(tmp_path, capsys, where, command):
    doc = envelope_doc()
    node = doc
    for key in SECTIONS[where]:
        node = node[key]
    node["bogus"] = 1.0
    out = tmp_path / "out"
    assert cli.main([command, "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key 'bogus' in {where}; known: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("make_doc, where", [
    (lambda: stirap_doc(n_max=4, n_steps=200), "gate.schedule"),
    (envelope_doc, "gate.schedule.pump"),
], ids=["standard", "envelope"])
def test_pulse_shape_key_exits_2(tmp_path, capsys, make_doc, where):
    # sin^2 is the one envelope: a shape key is refused like any unknown key
    doc = make_doc()
    node = doc
    for key in SECTIONS[where]:
        node = node[key]
    node["shape"] = "sin2"
    out = tmp_path / "out"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key 'shape' in {where}; known: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [5, None, [1.0]])
def test_envelope_that_is_not_an_object_exits_2(tmp_path, capsys, value):
    # read as a section, not indexed: no AttributeError traceback
    doc = envelope_doc()
    doc["gate"]["schedule"]["pump"] = value
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert f"gate.schedule.pump must be an object, got {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, key", [
    (("gate", "schedule", "margin"), "margn"),
    (("gate", "epsilon"), "epsilom"),
    (("n_max",), "nmax"),
    (("gate", "schedule", "n_steps"), "n_step"),
    (("gate", "params", "delta_stirap_rad_per_s"), "delta_stirap"),
], ids=["margn", "epsilom", "nmax", "n_step", "delta_stirap"])
def test_misspelled_key_exits_2(tmp_path, capsys, path, key):
    # a misspelled key is refused, not dropped for the default
    doc = stirap_doc(phonon="fock:3", n_max=8, n_steps=200)
    node = doc
    for name in path[:-1]:
        node = node[name]
    node.pop(path[-1], None)
    node[key] = 5
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and path[-1] in err
    assert "Traceback" not in err
    assert not out.exists()


def test_null_leaves_out_a_key_without_default():
    doc = stirap_doc(sweep=None)
    doc["gate"]["schedule"]["pump_peak_rabi_rad_per_s"] = None
    config = cli.parse_config(doc)
    assert config.sweep_axes == []
    assert config.gate.schedule == cli.parse_config(stirap_doc()).gate.schedule
    doc["gate"]["epsilon"] = None  # a key with a default must be a value
    with pytest.raises(cli.ConfigError, match="gate.epsilon must be a number, got None"):
        cli.parse_config(doc)


def test_negative_delta_exits_2_naming_it(tmp_path, capsys):
    # chi = eta^2 omega^2 / (N delta) < 0 leaves the phase pulse no duration
    doc = stirap_doc(phonon="fock:1", n_max=4, n_steps=200)
    doc["gate"]["params"]["delta_rad_per_s"] = -3e7
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "delta must be > 0, got -30000000.0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [0.0, 0.013])
def test_ideal_compensated_report_reads_raw_fidelity(tmp_path, epsilon):
    # ideal passages have no round-trip phase, but a timing error leaves a
    # rung-independent one: exp(i pi eps) between the |+>_c|t> probes, which
    # the best Z rotation (phi = -pi eps / 2) splits evenly between them
    doc = ideal_doc(phonon="thermal:1.5", n_max=16)
    doc["gate"].update(epsilon=epsilon, compensate_phases=True)
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    raw, compensated = report["qubit_fidelity_raw"], report["qubit_fidelity"]
    assert raw is not None
    if epsilon == 0.0:
        assert raw == compensated
    else:
        # the two probes' infidelity sin^2(pi eps / 2) becomes 2 sin^2(pi eps / 4)
        gain = (np.sin(np.pi * epsilon / 2) ** 2 - 2 * np.sin(np.pi * epsilon / 4) ** 2) / 8
        assert compensated > raw
        assert abs(compensated - raw - gain) <= 1e-12


def test_readme_config_examples_parse():
    # a README example that the strict reader refuses would exit 2 for anyone copying it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        cli.parse_config(json.loads(block))


def test_readme_python_quick_start_runs(capsys):
    # a public name the example uses and the package no longer has would break it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert np.max(np.abs(namespace["table"] - np.diag([1.0, 1.0, 1.0, -1.0]))) <= 1e-12
    assert capsys.readouterr().out


def test_parse_params_match_library():
    config = cli.parse_config(ideal_doc())
    assert config.gate.params == PhysicalParams(
        eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)


# ---------------------------------------------------------------- truth-table command

def test_truth_table_thermal(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["truth-table", "--config", write(tmp_path, ideal_doc()),
                     "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "qubit_fidelity=1" in printed
    assert "phonon_restoration_fidelity=1" in printed
    doc = json.loads(out.read_text())
    table = np.array([[complex(re, im) for re, im in row] for row in doc["truth_table"]])
    assert np.max(np.abs(table - np.diag([1, 1, 1, -1]))) < 1e-12
    assert doc["leakage"] < 1e-12


def float_bits(value):
    """value with every float replaced by its hex spelling, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    return value


@pytest.mark.parametrize("make_doc", [ideal_doc, stirap_doc], ids=["ideal", "stirap"])
@pytest.mark.parametrize("phonon", ["fock:3", "coherent:0.8,-0.4", "thermal:0.7"],
                         ids=["fock", "coherent", "thermal-density"])
@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
def test_truth_table_writes_one_sorted_line(tmp_path, capsys, make_doc, phonon, to_stdout):
    doc = make_doc(phonon=phonon, n_max=10)
    config = write(tmp_path, doc)
    out = tmp_path / "report.json"
    texts = []
    for _ in range(2):
        assert cli.main(["truth-table", "--config", config,
                         "--out", "-" if to_stdout else str(out)]) == 0
        captured = capsys.readouterr()
        # on stdout the document alone: the two fidelity lines go to stderr
        texts.append(captured.out if to_stdout else out.read_text())
        assert (captured.err if to_stdout else captured.out).startswith("qubit_fidelity=")
    text = texts[0]
    assert texts[1] == text  # byte for byte
    assert text.endswith("}\n") and text.count("\n") == 1
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"  # compact, keys sorted
    parsed = cli.parse_config(doc)
    want = gate.gate_report(parsed.gate, states.parse_state_spec(phonon, 10))
    assert float_bits(report) == float_bits(
        {**want.to_dict(), "phonon": phonon, "n_max": 10})


@pytest.mark.parametrize("command, status", [
    ("sweep", "sweep: 2 grid points -> "),
    ("stirap-trace", "final_transfer_population="),
])
def test_stdout_is_exactly_the_document(tmp_path, capsys, command, status):
    # with --out - the status line goes to stderr, so that stdout is the text
    # the command writes to a file; with a path it stays on stdout
    doc = every_command_doc("fock:1")
    doc["sweep"]["axes"][0]["values"] = [0.0, 0.01]
    config = write(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    to_file = capsys.readouterr()
    assert cli.main([command, "--config", config, "--out", "-"]) == 0
    to_stdout = capsys.readouterr()
    assert to_file.out.startswith(status) and to_file.out.count("\n") == 1
    assert to_stdout.err.startswith(status) and to_stdout.err.count("\n") == 1
    assert to_file.err == ""
    text = to_stdout.out
    if command == "sweep":
        assert len(text.splitlines()) == 3  # the header and one line per grid point
        # runtime_s, the last column, is the one that may differ
        assert ([line.rsplit(",", 1)[0] for line in text.splitlines()]
                == [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    else:
        assert text == out.read_text()
    assert text.endswith("\n")


@pytest.mark.parametrize("path, value, message", [
    (("n_max",), "abc", "n_max"),
    (("trace",), "x", "trace"),
    (("gate", "schedule", "n_steps"), 0, "n_steps"),
    (("gate", "schedule", "dt_s"), 0.0, "bad schedule"),
    (("gate", "control"), [1], "bad gate section"),
    (("gate", "target"), None, "bad gate section"),
    (("gate", "epsilon"), [0.1], "bad gate section"),
    (("gate", "epsilon"), float("nan"), "epsilon must be finite"),
    (("gate", "params", "eta"), float("nan"), "eta must be finite"),
    (("gate", "schedule", "margin"), float("nan"), "margin must be finite"),
    (("gate", "compensate_phases"), "false", "compensate_phases must be true or false"),
    (("gate", "params", "n_ions"), 2.9, "n_ions must be an integer"),
    (("gate", "schedule", "n_steps"), 2.7, "n_steps must be an integer"),
    (("n_max",), 8.6, "n_max must be an integer"),
    (("n_max",), True, "n_max must be an integer"),
    (("gate", "control"), 0.7, "control must be an integer"),
    (("trace",), {"n": 1.5}, "trace.n must be an integer"),
    (("gate", "params", "eta"), True, "eta must be a number"),
    (("gate", "epsilon"), False, "epsilon must be a number"),
    (("gate", "schedule", "margin"), "100", "margin must be a number"),
    (("sweep",), {"axes": [{"name": "epsilon", "values": [True]}]}, "values must be a number"),
    (("gate", "schedule", "dt_s"), 0.3, "use n_steps"),
    (("gate", "schedule", "dt_s"), 5e-324, "bad schedule"),
    (("phonon",), "coherent:nan,0", "malformed state spec"),
    (("phonon",), "coherent:inf,0", "malformed state spec"),
    (("sweep",), {"axes": [{"name": "epsilon", "values": [0.0, 1.0]},
                           {"name": "epsilon", "values": [0.1]}]}, "given twice"),
    (("gate", "schedule", "dt_s"), 0.004, "use n_steps"),
    (("gate", "schedule", "dt_s"), 0.001, "use n_steps"),  # agrees with n_steps, still refused
    (("gate", "schedule", "direction"), "down", "use the pulse order"),
    (("gate", "schedule", "pump_peak_rabi_rad_per_s"), 50.0, "not both"),
    # 401-digit integer literals: JSON numbers past the largest float
    pytest.param(("gate", "params", "eta"), 10**400, "eta is too large for a float",
                 id="eta-401-digits"),
    pytest.param(("gate", "epsilon"), 10**400, "epsilon is too large for a float",
                 id="epsilon-401-digits"),
    pytest.param(("sweep",), {"axes": [{"name": "epsilon", "values": [10**400]}]},
                 "values is too large for a float", id="sweep-values-401-digits"),
    (("n_max",), 0, "n_max must be >= 1"),
    (("sweep",), {"axes": [{"name": "epsilon", "values": []}]}, "axis epsilon: empty value range"),
])
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, path, value, message):
    doc = stirap_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "r.json"
    code = cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err
    # no NaN that the config did not hold, and no --out file
    if not re.search(r"\bnan\b", repr(value), re.I):
        assert not re.search(r"\bnan\b", captured.out + captured.err, re.I)
    assert not out.exists()


@pytest.mark.parametrize("command", ["truth-table", "sweep", "stirap-trace"])
@pytest.mark.parametrize("duration, eta, peaks, setting", [
    (1e-200, 1e-200, {}, "margin = 100.0 at eta = 1e-200"),  # eta * T underflows to 0
    (1.0, 1e-320, {}, "margin = 100.0 at eta = 1e-320"),
    (1e-300, 0.1, {"margin": 1e10}, "margin = 10000000000.0 at eta = 0.1"),
    (1.0, 0.1, {"margin": None, "pump_peak_rabi_rad_per_s": 1e308}, "pump_peak = 1e+308"),
], ids=["eta-times-duration-underflows", "tiny-eta", "margin-over-duration",
        "pump-peak-over-eta"])
def test_peak_past_the_float_range_exits_2_naming_its_settings(tmp_path, capsys, command,
                                                               duration, eta, peaks, setting):
    doc = every_command_doc("fock:1")
    doc["gate"]["params"]["eta"] = eta
    schedule = doc["gate"]["schedule"]
    schedule["total_duration_s"] = duration
    schedule.update(peaks)
    code = cli.main([command, "--config", write(tmp_path, doc), "--out", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: bad schedule: {setting}")
    assert "Traceback" not in err


@pytest.mark.parametrize("path, where", [
    (("phonon",), "config"),
    (("gate", "params"), "gate"),
    (("gate", "params", "eta"), "gate.params"),
    (("gate", "schedule", "total_duration_s"), "gate.schedule"),
])
def test_missing_required_key_exits_2_naming_it(tmp_path, capsys, path, where):
    doc = stirap_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"missing {path[-1]!r} in {where}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_integral_float_keys_accepted():
    doc = stirap_doc(n_max=8.0, n_steps=300.0, trace={"n": 2.0})
    doc["gate"]["params"]["n_ions"] = 2.0
    doc["gate"]["compensate_phases"] = True
    config = cli.parse_config(doc)
    assert (config.n_max, config.trace_n, config.gate.schedule.n_steps) == (8, 2, 300)
    assert config.gate.params.n_ions == 2 and config.gate.compensate_phases is True


def test_integer_numbers_accepted_for_float_keys():
    doc = stirap_doc(margin=100, sweep={"axes": [{"name": "eta", "values": [0, 1]}]})
    doc["gate"]["params"]["eta"] = 1
    doc["gate"]["epsilon"] = 0
    doc["gate"]["schedule"]["total_duration_s"] = 1
    config = cli.parse_config(doc)
    assert config.gate.params.eta == 1.0 and type(config.gate.epsilon) is float
    assert config.gate.schedule.pump.peak_rabi == 100.0
    assert config.sweep_axes == [("eta", [0.0, 1.0])]


@pytest.mark.parametrize("key, value, replacement", [
    ("dt_s", 0.004, "n_steps"),  # divides the duration
    ("dt_s", 1e-300, "n_steps"),  # 1e300 steps
    ("direction", "up", "the pulse order"),  # agrees with the pulse order, still refused
    ("stokes_peak_rabi_rad_per_s", 500.0, "explicit pump/stokes envelopes"),
    ("detuning_rad_per_s", 50.0, "gate.params.delta_stirap_rad_per_s"),
])
def test_removed_schedule_key_exits_2_naming_its_replacement(tmp_path, capsys, key, value,
                                                              replacement):
    # the step grid is n_steps and the direction is the pulse order: one spelling each
    doc = stirap_doc(n_max=4)
    del doc["gate"]["schedule"]["n_steps"]
    doc["gate"]["schedule"][key] = value
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key} is not a schedule key; use {replacement}" in err
    assert "Traceback" not in err
    assert not out.exists()


FUZZ_DOC = {
    "n_max": 3,
    "phonon": "thermal:0.5",
    "gate": {"mode": "ideal", "control": 0, "target": 1, "epsilon": 0.0,
             "compensate_phases": False, "params": dict(BASE_PARAMS)},
    "sweep": {"axes": [{"name": "epsilon", "values": [0.0, 0.01]}]},
    "trace": {"n": 1},
}


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


FUZZ_PATHS = sorted(_key_paths(FUZZ_DOC), key=str) + [
    ("sweep", "axes", 0, key) for key in FUZZ_DOC["sweep"]["axes"][0]]
# values of the other JSON types; no large integers, which would ask for
# huge allocations
FUZZ_VALUES = st.one_of(
    st.booleans(), st.text(max_size=8), st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.floats(-3, 3).filter(lambda x: not x.is_integer()),
)


@given(path=st.sampled_from(FUZZ_PATHS), value=FUZZ_VALUES,
       command=st.sampled_from(["truth-table", "sweep"]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_config_exits_cleanly(tmp_path, capsys, path, value, command):
    doc = json.loads(json.dumps(FUZZ_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        code = cli.main([command, "--config", write(tmp_path, doc),
                         "--out", str(tmp_path / "out")])
    except Exception as exc:  # any escape is the failure under test
        pytest.fail(f"{type(exc).__name__} escaped for {path} = {value!r}: {exc}")
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_truth_table_malformed_spec(tmp_path, capsys):
    code = cli.main(["truth-table", "--config", write(tmp_path, ideal_doc(phonon="fock:")),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "fock:" in capsys.readouterr().err


def test_truth_table_missing_schedule(tmp_path, capsys):
    doc = ideal_doc()
    doc["gate"]["mode"] = "stirap"
    code = cli.main(["truth-table", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "schedule required" in capsys.readouterr().err


def test_truth_table_rejects_csv(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["truth-table", "--config", write(tmp_path, ideal_doc()),
                  "--out", str(tmp_path / "r.csv"), "--format", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, fmt", [
    ("truth-table", "json"), ("sweep", "csv"), ("stirap-trace", "csv")])
def test_format_flag_is_refused(tmp_path, capsys, command, fmt):
    # each command writes one format, so there is no flag to choose it
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", write(tmp_path, ideal_doc()),
                  "--out", str(tmp_path / "out"), "--format", fmt])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus-command"], "invalid choice: 'bogus-command'"),
    (["truth-table", "--out", "-", "--format", "json"], "unrecognized arguments: --format"),
    (["sweep"], "the following arguments are required: --out"),
], ids=["no-command", "unknown-command", "format", "missing-out"])
def test_usage_error_exits_2_without_traceback(tmp_path, capsys, argv, message):
    config = write(tmp_path, ideal_doc())
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", config])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: hotgate") and message in err
    assert "Traceback" not in err


def test_help_exits_0_and_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in ("truth-table", "sweep", "stirap-trace"))


# what a command line may hold: commands, options, abbreviations and values that
# argparse reads each in its own way, and a token that is not a string
ARGV_TOKENS = ["truth-table", "sweep", "stirap-trace", "bogus", "--config", "--out", "--seed",
               "--conf", "--config=a", "--", "-", "-h", "--help", "--format", "-5", "-x", " -x",
               "", "cfg.json", Path("cfg.json")]


@st.composite
def documented_lines(draw):
    """COMMAND OPTION PATH OPTION PATH with --config or --out for each OPTION
    (the documented line, or one option twice), half of them with one token
    replaced by any token of ARGV_TOKENS."""
    option = st.sampled_from(["--config", "--out"])
    path = st.sampled_from(["cfg.json", "-", " -x", ""])
    argv = [draw(st.sampled_from(list(cli._COMMANDS))), draw(option), draw(path), draw(option),
            draw(path)]
    if draw(st.booleans()):
        argv[draw(st.integers(0, 4))] = draw(st.sampled_from(ARGV_TOKENS))
    return argv


def parse_outcome(parse, argv):
    """What parse does with argv: its namespace, exit code or exception, and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, out.getvalue(), err.getvalue()


@given(argv=documented_lines() | st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
@settings(max_examples=500, deadline=None)
def test_parse_args_reads_every_line_as_argparse_does(argv):
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._PARSER.parse_args, argv)


def refuse_argparse(argv):
    raise AssertionError(f"argparse was asked to read {argv}")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("options", [("--config", "--out"), ("--out", "--config")])
@pytest.mark.parametrize("path", ["cfg.json", "-", " -x", ""])
def test_documented_line_does_not_reach_argparse(monkeypatch, command, options, path):
    monkeypatch.setattr(cli._PARSER, "parse_args", refuse_argparse)
    argv = [command, options[0], path, options[1], "out.json"]
    paths = {options[0]: path, options[1]: "out.json"}
    expected = argparse.Namespace(command=command, config=paths["--config"],
                                  out=paths["--out"], seed=None)
    assert cli._parse_args(argv) == expected
    monkeypatch.setattr(sys, "argv", ["hotgate", *argv])  # the console script's line
    assert cli._parse_args() == expected


@pytest.mark.parametrize("argv, phonon", [
    (["truth-table", "--out", "-", "--config", "{thermal}"], "thermal:2.0"),  # no argparse
    (["truth-table", "--config={thermal}", "--out", "-"], "thermal:2.0"),
    (["truth-table", "--config", "{random}", "--out", "-", "--seed", "3"], "random"),
], ids=["documented", "equals", "seed"])
def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch, argv, phonon):
    # the console script calls main() with no argv
    paths = {"thermal": write(tmp_path, ideal_doc()),
             "random": write(tmp_path, ideal_doc(phonon="random"), "random.json")}
    monkeypatch.setattr(sys, "argv", ["hotgate", *(arg.format(**paths) for arg in argv)])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["phonon"] == phonon


def test_out_in_missing_directory_exits_2_without_traceback(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    config = write(tmp_path, ideal_doc(phonon="fock:1", n_max=4))
    code = cli.main(["truth-table", "--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(out) in err
    assert "Traceback" not in err


def test_config_not_utf8_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"phonon": "f\xf6ck:0"}')  # Latin-1, not UTF-8
    code = cli.main(["truth-table", "--config", str(path), "--out", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err
    assert "Traceback" not in err


def test_config_not_json_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text('{"n_max": 4, "phonon": ')
    code = cli.main(["truth-table", "--config", str(path), "--out", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config {path} is not valid JSON" in err
    assert "Traceback" not in err


def test_config_integer_literal_too_long_exits_2_without_traceback(tmp_path, capsys):
    # past the digit limit of int(), which the JSON decoder raises as a plain ValueError
    path = tmp_path / "long.json"
    path.write_text('{"n_max": ' + "1" * 5000 + ', "phonon": "fock:0"}')
    code = cli.main(["truth-table", "--config", str(path), "--out", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"cannot read config {path}" in err
    assert "Traceback" not in err


def test_simulation_domain_error_exit_code(tmp_path, capsys):
    # coherent amplitude far too hot for the truncation
    code = cli.main(["truth-table", "--config",
                     write(tmp_path, ideal_doc(phonon="coherent:6.0,0.0", n_max=8)),
                     "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "discarded weight" in capsys.readouterr().err


def test_hot_coherent_input_reports_an_exact_gate(tmp_path, capsys):
    # |alpha|^2 = 900: past about 710 the unscaled amplitudes' norm overflowed
    out = tmp_path / "r.json"
    code = cli.main(["truth-table", "--config",
                     write(tmp_path, ideal_doc(phonon="coherent:30,0", n_max=3000)),
                     "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["qubit_fidelity"] == 1.0


def test_overflowing_coherent_amplitude_exits_3(tmp_path, capsys):
    # |alpha|^2 overflows to inf; the discarded weight must read 1, not nan
    code = cli.main(["truth-table", "--config",
                     write(tmp_path, ideal_doc(phonon="coherent:1e200,0", n_max=8)),
                     "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert "discarded weight" in captured.err
    assert "nan" not in captured.out


def test_unallocatable_step_count_exits_3_without_traceback(tmp_path, capsys):
    # integral, so it parses; the step grid alone would take about 71 PiB
    code = cli.main(["truth-table", "--config", write(tmp_path, stirap_doc(n_steps=1e16)),
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert "simulation error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["truth-table", "sweep", "stirap-trace"])
@pytest.mark.parametrize("detuning", [0.0, 300.0])
@pytest.mark.parametrize("key, value", [
    ("margin", 1e150), ("margin", 1e300), ("pump_peak_rabi_rad_per_s", 1e160),
    ("total_duration_s", 1e300), ("total_duration_s", 1e-300),
], ids=["margin-1e150", "margin-1e300", "pump-1e160", "duration-1e300", "duration-1e-300"])
def test_overflowing_passage_exits_3_without_nan(tmp_path, capsys, command, detuning, key,
                                                 value):
    # a step generator past the float range makes the propagator inf or nan
    doc = stirap_doc(phonon="fock:2", n_max=8, n_steps=200, trace={"n": 1},
                     sweep={"axes": [{"name": "epsilon", "values": [0.0, 0.01]}]})
    doc["gate"]["params"]["delta_stirap_rad_per_s"] = detuning
    schedule = doc["gate"]["schedule"]
    if key == "pump_peak_rabi_rad_per_s":
        del schedule["margin"]
    schedule[key] = value
    out = tmp_path / "r.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([command, "--config", write(tmp_path, doc), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "the passage propagator is not finite" in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert "nan" not in (captured.out + captured.err).lower()
    assert not out.exists()


@pytest.mark.parametrize("mode, path, value", [
    ("stirap", ("gate", "schedule", "n_steps"), 1e20),
    ("ideal", ("gate", "params", "n_ions"), 40),
    ("ideal", ("n_max",), 1e20),
    ("ideal", ("gate", "params", "n_ions"), 10000),  # 4**10000 has over 6000 digits
], ids=["n_steps-1e20", "n_ions-40", "n_max-1e20", "n_ions-10000"])
def test_oversize_run_exits_3_without_traceback(tmp_path, capsys, mode, path, value):
    # past the largest array numpy can index at all, where it raises ValueError
    doc = stirap_doc(phonon="fock:1", n_max=4)
    doc["gate"]["mode"] = mode
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "r.json"
    code = cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "than an array can hold" in captured.err
    assert "Traceback" not in captured.err
    assert "nan" not in (captured.out + captured.err).lower()
    assert not out.exists()


@pytest.mark.parametrize("n_ions", [2, 3])
def test_report_past_physical_memory_exits_3_with_its_estimate(tmp_path, capsys, monkeypatch,
                                                              n_ions):
    # refused before its register is allocated, not killed by the operating system
    doc = ideal_doc(phonon="fock:1", n_max=8)
    doc["gate"]["params"]["n_ions"] = n_ions
    config = write(tmp_path, doc)
    out = tmp_path / "r.json"
    need = 4 * 16 * 4**n_ions * 9  # four register-sized complex arrays
    monkeypatch.setattr(gate, "_PHYSICAL_MEMORY", need - 1)
    runs = []
    crot = gate.crot
    monkeypatch.setattr(gate, "crot", lambda *args: runs.append(args) or crot(*args))
    assert cli.main(["truth-table", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"a report on {n_ions} ions and 9 phonon levels needs about {need / 1e9:.3g} GB" in err
    assert f"4 x 16 B x 4^{n_ions} x 9" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert runs == []  # no register was built
    monkeypatch.setattr(gate, "_PHYSICAL_MEMORY", need)
    assert cli.main(["truth-table", "--config", config, "--out", str(out)]) == 0


def test_sweep_point_past_physical_memory_exits_3(tmp_path, capsys, monkeypatch):
    doc = ideal_doc(phonon="fock:1", n_max=8,
                    sweep={"axes": [{"name": "n_max", "values": [4, 8]}]})
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(gate, "_PHYSICAL_MEMORY", 4 * 16 * 4**2 * 5)  # fits n_max 4 only
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "a report on 2 ions and 9 phonon levels needs about" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("phonon", ["fock:1", "coherent:0.5,0", "thermal:1.0", "random:3"])
def test_oversize_n_max_exits_3_naming_it(tmp_path, capsys, phonon):
    # refused by its size, before any allocation, and not read as a malformed spec
    code = cli.main(["truth-table", "--config", write(tmp_path, ideal_doc(phonon, n_max=1e20)),
                     "--out", "-"])
    err = capsys.readouterr().err
    assert code == 3
    assert "n_max = 100000000000000000000" in err
    assert "Traceback" not in err


def test_huge_finite_epsilon_reports_finite_metrics(tmp_path, capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    for phonon, n_max in (("fock:1", 4), ("thermal:1.0", 8)):
        doc = ideal_doc(phonon=phonon, n_max=n_max)
        doc["gate"]["epsilon"] = 1e308
        out = tmp_path / "r.json"
        assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=refuse)
        metrics = [report[key] for key in ("qubit_fidelity", "phonon_restoration_fidelity",
                                           "leakage")]
        assert np.all(np.isfinite(metrics))
        assert np.all(np.isfinite(report["truth_table"]))
        assert "nan" not in capsys.readouterr().out


def test_random_family_uses_cli_seed(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg = write(tmp_path, ideal_doc(phonon="random"))
    assert cli.main(["truth-table", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert cli.main(["truth-table", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
    assert out1.read_text() == out2.read_text()


def test_random_family_requires_some_seed(tmp_path):
    cfg = write(tmp_path, ideal_doc(phonon="random"))
    assert cli.main(["truth-table", "--config", cfg, "--out", "-"]) == 2


# ---------------------------------------------------------------- sweep command

def test_sweep_epsilon_monotone(tmp_path):
    doc = ideal_doc(phonon="fock:4", n_max=16,
                    sweep={"axes": [{"name": "epsilon", "values": [0.0, 0.005, 0.01]}]})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:2] == ["epsilon", "gate_fidelity"]
    assert len(rows) == 3
    fids = [float(r["gate_fidelity"]) for r in rows]
    assert fids[0] >= fids[1] >= fids[2]
    assert [float(r["epsilon"]) for r in rows] == [0.0, 0.005, 0.01]


def test_sweep_deterministic_modulo_runtime(tmp_path):
    doc = ideal_doc(phonon="random:3", n_max=8,
                    sweep={"axes": [{"name": "epsilon", "values": [0.0, 0.005, 0.01]}]})
    cfg = write(tmp_path, doc)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        outs.append([{k: v for k, v in row.items() if k != "runtime_s"} for row in rows])
    assert outs[0] == outs[1]


def test_sweep_stirap_duration_efficiency_non_decreasing(tmp_path):
    # fixed peak rates: longer passages are more adiabatic
    doc = stirap_doc(phonon="fock:1", n_max=8, n_steps=800)
    doc["gate"]["schedule"] = {"total_duration_s": 25.0, "n_steps": 800,
                               "pump_peak_rabi_rad_per_s": 1.0}
    doc["sweep"] = {"axes": [{"name": "total_duration_s", "values": [25.0, 50.0, 100.0]}]}
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert "transfer_efficiency" in header
    effs = [float(r["transfer_efficiency"]) for r in rows]
    assert effs[0] <= effs[1] <= effs[2]
    fids = [float(r["gate_fidelity"]) for r in rows]
    assert fids[0] <= fids[1] <= fids[2]


def test_standard_family_reads_eta_and_duration_as_units(tmp_path):
    # at a fixed margin and no detuning, eta and T only rescale the standard
    # family's rates and times, so no output moves along either axis. Both axes
    # stay: they are physical for explicit envelopes and a fixed pump peak
    doc = stirap_doc(phonon="thermal:1.0", n_max=12, n_steps=2000, sweep={"axes": [
        {"name": "total_duration_s", "values": [0.5, 3.7, 1e-3, 250.0]},
        {"name": "eta", "values": [0.02, 0.3, 10.0]}]})
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    columns = ("gate_fidelity", "phonon_restoration", "leakage", "transfer_efficiency")
    values = np.array([[float(row[c]) for c in columns] for row in rows])
    assert values.shape == (12, 4)
    assert np.max(np.ptp(values, axis=0)) <= 1e-12


def test_sweep_grid_point_builds_passage_once(tmp_path, integrations):
    doc = stirap_doc(phonon="fock:1", n_max=8, n_steps=300,
                     sweep={"axes": [{"name": "margin", "values": [70.0]}]})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    assert integrations == [["up"]]


def test_sweep_integrates_once_per_step_grid(tmp_path, monkeypatch, integrations):
    doc = stirap_doc(phonon="fock:1", n_max=12, sweep={"axes": [
        {"name": "margin", "values": [90.0, 100.0, 120.0]},
        {"name": "n_steps", "values": [1200, 1800]}]})
    config = write(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert integrations == [["up"] * 3, ["up"] * 3]
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert len(integrations) == 2  # every passage cached
    # each point integrated alone writes the same rows, apart from runtime_s (last)
    stirap._PASSAGES.clear()
    gate._gate_blocks.cache_clear()
    monkeypatch.setattr(stirap, "build_passages", lambda keys: None)
    alone = tmp_path / "alone.csv"
    assert cli.main(["sweep", "--config", config, "--out", str(alone)]) == 0
    assert integrations[2:] == [["up"]] * 6
    rows = [[line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
            for path in (out, alone)]
    assert rows[0] == rows[1] and len(rows[0]) == 7


def test_sweep_samples_each_step_grid_once(tmp_path, shape_evaluations):
    # the three margins of a step grid differ in their peaks only: the two pulses
    # at the two nodes are evaluated once per grid, 2 x 2 x 2 = 8 in all, not 24
    doc = stirap_doc(phonon="fock:1", n_max=12, sweep={"axes": [
        {"name": "margin", "values": [90.0, 100.0, 120.0]},
        {"name": "n_steps", "values": [1200, 1800]}]})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    assert sorted(shape_evaluations) == [1200] * 4 + [1800] * 4
    assert len(out.read_text().splitlines()) == 7


def test_paper_regime_sweep_integrates_once_per_point(tmp_path, integrations):
    # 242 rungs: more rows than a batch holds, so each point builds its own passage
    doc = stirap_doc(phonon="thermal:10", n_max=241, n_steps=2000, sweep={"axes": [
        {"name": "margin", "values": [100.0, 300.0]}]})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    assert integrations == [["up"]] * 2
    assert len(out.read_text().splitlines()) == 3


def test_detuned_sweep_integrates_once_per_point(tmp_path, integrations):
    doc = stirap_doc(phonon="fock:1", n_max=12, n_steps=300, sweep={"axes": [
        {"name": "margin", "values": [90.0, 100.0, 120.0]}]})
    doc["gate"]["params"]["delta_stirap_rad_per_s"] = 37.0
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    assert integrations == [["up"]] * 3


def test_unallocatable_window_fails_at_its_first_point(tmp_path, capsys):
    # the window's step grids cannot be allocated, so none is built ahead; the
    # first point fails on its phonon input, before it reaches its passage
    doc = stirap_doc(phonon="fock:20", n_max=8, n_steps=1e16, sweep={"axes": [
        {"name": "margin", "values": [80.0, 90.0]}]})
    code = cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed state spec 'fock:20'" in err and "Traceback" not in err


@pytest.mark.parametrize("n_steps", [[300, 300.7], [300]])
def test_sweep_reports_the_first_failing_point(tmp_path, capsys, integrations, n_steps):
    # point 1 overflows; with [300, 300.7], point 2 would fail to parse, and
    # with [300] point 2 is batched with point 1: either way point 1 is reported
    doc = stirap_doc(phonon="fock:1", n_max=8, sweep={"axes": [
        {"name": "margin", "values": [1e300, 100.0]},
        {"name": "n_steps", "values": n_steps}]})
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "simulation error: the passage propagator is not finite" in err
    assert "n_steps must be an integer" not in err and "Traceback" not in err
    assert not out.exists()
    assert [len(call) for call in integrations] == ([1] if len(n_steps) == 2 else [2, 1])


def test_sweep_non_integral_step_count_exits_2(tmp_path, capsys):
    doc = stirap_doc(phonon="fock:1", n_max=8, n_steps=300,
                     sweep={"axes": [{"name": "n_steps", "values": [300.7]}]})
    assert cli.main(["sweep", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "n_steps must be an integer, got 300.7" in capsys.readouterr().err


def test_sweep_n_steps_axis_on_dt_s_config_exits_2(tmp_path, capsys):
    doc = stirap_doc(phonon="fock:1", n_max=8,
                     sweep={"axes": [{"name": "n_steps", "values": [100, 300]}]})
    del doc["gate"]["schedule"]["n_steps"]
    doc["gate"]["schedule"]["dt_s"] = 0.004
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    assert "dt_s is not a schedule key; use n_steps" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_delta_stirap_axis_reaches_the_passage(tmp_path):
    doc = stirap_doc(phonon="fock:1", n_max=4, n_steps=200, sweep={"axes": [
        {"name": "delta_stirap_rad_per_s", "values": [0.0, 50.0, 200.0]}]})
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len({row["gate_fidelity"] for row in rows}) == 3


def test_sweep_unwritable_out_fails_before_the_first_point(tmp_path, capsys, monkeypatch):
    reports = []
    original = cli.gate_mod.gate_report

    def counted(*args, **kwargs):
        reports.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.gate_mod, "gate_report", counted)
    doc = stirap_doc(phonon="fock:1", n_max=4, n_steps=200,
                     sweep={"axes": [{"name": "margin", "values": [80.0, 100.0]}]})
    out = tmp_path / "missing" / "s.csv"
    code = cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(out) in err and "Traceback" not in err
    assert reports == []


def test_failed_run_keeps_an_existing_out_file(tmp_path):
    # a failed run leaves a file that was already there as it was; only a file
    # the run made is removed
    doc = stirap_doc(phonon="fock:1", n_max=8,
                     sweep={"axes": [{"name": "n_steps", "values": [100.5]}]})
    out = tmp_path / "s.csv"
    out.write_text("old\n")
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    assert out.read_text() == "old\n"


def test_out_replaces_a_longer_existing_file(tmp_path):
    out = tmp_path / "t.json"
    out.write_text("x" * 100_000)
    assert cli.main(["truth-table", "--config", write(tmp_path, ideal_doc()),
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_max"] == ideal_doc()["n_max"]


@pytest.mark.parametrize("command", ["truth-table", "sweep", "stirap-trace"])
def test_out_to_a_device_is_written_and_not_truncated(tmp_path, monkeypatch, command):
    written, cut = [], []
    write_fd, ftruncate = os.write, os.ftruncate

    def counted_write(fd, data):
        written.append(len(data))
        return write_fd(fd, data)

    def counted_ftruncate(fd, size):
        cut.append(size)
        ftruncate(fd, size)

    monkeypatch.setattr(os, "write", counted_write)
    monkeypatch.setattr(os, "ftruncate", counted_ftruncate)
    config = write(tmp_path, every_command_doc("fock:1", n_max=4))
    assert cli.main([command, "--config", config, "--out", os.devnull]) == 0
    assert written and cut == []  # a character device has no end to cut
    out = tmp_path / "out.txt"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    assert cut == [out.stat().st_size]


def test_config_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    assert cli.main(["truth-table", "--config", str(tmp_path), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'" in err
    assert "Traceback" not in err


def test_config_read_through_a_pipe():
    # the document comes after more blank space than a pipe holds, so it
    # arrives only by a later read
    text = " " * 200_000 + json.dumps(ideal_doc(phonon="fock:1", n_max=4))
    result = subprocess.run(
        [sys.executable, "-m", "hotgate.cli", "truth-table", "--config", "/dev/stdin",
         "--out", "-"], input=text, env=package_env(), capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[0])["n_max"] == 4


@pytest.mark.parametrize("existing", [None, b"old\r\nbytes\x00"], ids=["new", "existing"])
def test_full_disk_exits_2_and_keeps_an_existing_out_file(tmp_path, capsys, monkeypatch,
                                                          existing):
    config = write(tmp_path, ideal_doc(phonon="fock:1", n_max=4))
    out = tmp_path / "r.json"
    if existing is not None:
        out.write_bytes(existing)

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full)
    assert cli.main(["truth-table", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write output {out}: [Errno {errno.ENOSPC}]" in err
    assert "Traceback" not in err
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("phonon, code", [("thermal:50.0", 3), ("thermal:1.0", 0)],
                         ids=["failed", "written"])
def test_out_through_a_dangling_link(tmp_path, phonon, code):
    # the file a run makes is the link's target: a failed run removes that, not the link
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    link.symlink_to(target.name)
    config = write(tmp_path, ideal_doc(phonon=phonon, n_max=8))
    assert cli.main(["truth-table", "--config", config, "--out", str(link)]) == code
    assert link.is_symlink() and os.readlink(link) == target.name
    if code:
        assert not target.exists()
    else:
        assert json.loads(target.read_text())["phonon"] == phonon


FILE_SIZE_LIMITED = """
import resource
import signal
import sys

from hotgate import cli

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (100, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="no posix_fallocate")
def test_file_size_limit_exits_2_and_keeps_an_existing_out_file(tmp_path):
    # a kernel limit of 100 bytes a file: the report is longer, so its allocation
    # fails before any byte of the old file is overwritten
    out = tmp_path / "r.json"
    out.write_bytes(b"o" * 48)
    config = write(tmp_path, ideal_doc(phonon="fock:1", n_max=4))
    result = subprocess.run(
        [sys.executable, "-c", FILE_SIZE_LIMITED, "truth-table", "--config", config,
         "--out", str(out)], env=package_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert f"cannot write output {out}: [Errno {errno.EFBIG}]" in result.stderr
    assert "Traceback" not in result.stderr
    assert out.read_bytes() == b"o" * 48


def test_sweep_empty_axes(tmp_path):
    doc = ideal_doc(sweep={"axes": []})
    assert cli.main(["sweep", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_missing_section(tmp_path):
    assert cli.main(["sweep", "--config", write(tmp_path, ideal_doc()),
                     "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_unknown_axis(tmp_path, capsys):
    doc = ideal_doc(sweep={"axes": [{"name": "bogus", "values": [1.0]}]})
    assert cli.main(["sweep", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


def test_sweep_margin_axis_needs_schedule(tmp_path):
    doc = ideal_doc(sweep={"axes": [{"name": "margin", "values": [50.0]}]})
    assert cli.main(["sweep", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "s.csv")]) == 2


def test_sweep_two_axes_lexicographic(tmp_path):
    doc = ideal_doc(phonon="fock:2", n_max=8, sweep={"axes": [
        {"name": "epsilon", "values": [0.0, 0.01]},
        {"name": "n_max", "values": [4, 8]},
    ]})
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    grid = [(float(r["epsilon"]), float(r["n_max"])) for r in rows]
    assert grid == [(0.0, 4.0), (0.0, 8.0), (0.01, 4.0), (0.01, 8.0)]


def test_sweep_point_leaves_the_loaded_config_as_it_was(tmp_path):
    # two axes in the schedule section and one in the gate section, each grid
    # point patched on the shared document
    doc = stirap_doc(phonon="coherent:0.5,-0.2", n_max=6, n_steps=200, trace={"n": 1},
                     sweep={"axes": [{"name": "margin", "values": [80.0, 120.0]},
                                     {"name": "n_steps", "values": [200, 300]},
                                     {"name": "epsilon", "values": [0.0, 0.01]}]})
    path = write(tmp_path, doc)
    config = cli.load_config(path)
    out = tmp_path / "sweep.csv"
    assert cli.cmd_sweep(config, str(out), None) == 0
    assert config.raw == json.loads(Path(path).read_text())
    _, rows = read_csv(out)
    assert len(rows) == 8
    for row in rows:
        point = json.loads(Path(path).read_text())
        del point["sweep"]
        point["gate"]["schedule"].update(margin=float(row["margin"]),
                                         n_steps=int(row["n_steps"]))
        point["gate"]["epsilon"] = float(row["epsilon"])
        parsed = cli.parse_config(point)
        stirap.passage_blocks.cache_clear()
        gate._gate_blocks.cache_clear()
        want = gate.gate_report(parsed.gate, states.parse_state_spec(parsed.phonon_spec, 6))
        got = [float(row[key]) for key in ("gate_fidelity", "phonon_restoration", "leakage")]
        assert float_bits(got) == float_bits(
            [want.qubit_fidelity, want.phonon_restoration_fidelity, want.leakage])


@pytest.mark.parametrize("name", ["omega_rad_per_s", "delta_rad_per_s"])
def test_sweep_over_a_chi_parameter_exits_2(tmp_path, capsys, name):
    # omega and delta only set chi, to which the conditional phase is
    # calibrated: no output reads them, so they are not axes
    doc = stirap_doc(phonon="fock:1", n_max=4, n_steps=200,
                     sweep={"axes": [{"name": name, "values": [1e5, 2e5]}]})
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown sweep axis {name!r}; known:" in err and "epsilon" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert len(cli.SWEEP_AXES) == 7


@pytest.mark.parametrize("form", [
    {"start": 0.0, "stop": 0.01, "steps": 2},
    {"values": [0.0], "steps": 2},
    {"start": 0.0},
])
def test_sweep_start_stop_steps_axis_exits_2_naming_values(tmp_path, capsys, form):
    doc = ideal_doc(phonon="fock:1", n_max=4, sweep={"axes": [{"name": "epsilon", **form}]})
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "axis epsilon: list its points in 'values', not start/stop/steps" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["eta", "delta_stirap_rad_per_s", "total_duration_s",
                                  "margin", "n_steps"])
def test_ideal_mode_passage_axis_exits_2(tmp_path, capsys, monkeypatch, name):
    # an ideal gate reads no passage setting, so such a sweep would write
    # identical rows; it is refused before any grid point runs, also when the
    # config carries a schedule section for switching to stirap mode
    reports = []
    monkeypatch.setattr(cli.gate_mod, "gate_report", lambda *args: reports.append(args))
    doc = stirap_doc(phonon="fock:1", n_max=4, n_steps=200,
                     sweep={"axes": [{"name": name, "values": [0.01, 0.3]}]})
    doc["gate"]["mode"] = "ideal"
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"sweep axis {name!r} sets the passage; ideal mode runs none" in err
    assert "Traceback" not in err
    assert not out.exists() and reports == []


@pytest.mark.parametrize("schedule", [
    {"total_duration_s": -1.0, "margn": 5, "n_steps": 0},
    {"total_duration_s": -1.0, "n_steps": 10},
    {"total_duration_s": 1.0, "n_steps": 0},
    {"total_duration_s": 1.0, "margin": 100.0,
     "pump": {"peak_rabi_rad_per_s": 1.0, "center_s": 0.7, "width_s": 0.5}},
], ids=["margn", "negative-duration", "no-steps", "margin-and-envelope"])
def test_ideal_mode_reads_its_schedule_section_like_stirap(tmp_path, capsys, schedule):
    # every config key is read or refused: ideal mode runs no passage, but a
    # schedule section it carries is read and refused as in stirap mode
    errors = []
    for mode in ("stirap", "ideal"):
        doc = stirap_doc(phonon="fock:1", n_max=4)
        doc["gate"].update(mode=mode, schedule=schedule)
        out = tmp_path / "r.json"
        assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[0].startswith("config error: bad schedule: ")


def test_ideal_config_with_a_schedule_section_runs(tmp_path):
    # one config file switches mode: ideal ignores the schedule section
    doc = stirap_doc(phonon="fock:1", n_max=4, n_steps=200)
    ideal = ideal_doc(phonon="fock:1", n_max=4)
    doc["gate"]["mode"] = "ideal"
    reports = []
    for d in (doc, ideal):
        out = tmp_path / "r.json"
        assert cli.main(["truth-table", "--config", write(tmp_path, d), "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------- stirap-trace command

def test_stirap_trace_columns_and_conservation(tmp_path):
    doc = stirap_doc(n_max=8, n_steps=500, trace={"n": 2})
    out = tmp_path / "trace.csv"
    assert cli.main(["stirap-trace", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t_s", "omega_pump_rad_per_s", "omega_stokes_n_rad_per_s",
                      "pop_1n", "pop_3n", "pop_2n1"]
    assert len(rows) == 501
    for row in rows:
        total = float(row["pop_1n"]) + float(row["pop_3n"]) + float(row["pop_2n1"])
        assert abs(total - 1.0) < 1e-9
    # counter-intuitive ordering: the Stokes column peaks before the pump column
    stokes = [float(r["omega_stokes_n_rad_per_s"]) for r in rows]
    pump = [float(r["omega_pump_rad_per_s"]) for r in rows]
    assert int(np.argmax(stokes)) < int(np.argmax(pump))


def test_stirap_trace_final_population_matches_efficiency(tmp_path):
    doc = stirap_doc(n_max=8, n_steps=400, trace={"n": 1})
    out = tmp_path / "trace.csv"
    assert cli.main(["stirap-trace", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    final = float(rows[-1]["pop_2n1"])
    config = cli.parse_config(doc)
    eff = abs(stirap.transfer_amplitudes(config.gate.schedule, config.gate.params, 2)[1]) ** 2
    assert abs(final - eff) < 1e-12


@pytest.mark.parametrize("command", ["sweep", "stirap-trace"])
def test_margin_schedule_down_is_refused_not_run_up(tmp_path, capsys, command):
    # a margin schedule has no 'direction' key to ignore: the key is refused,
    # and the down passage, pump first, is refused by the gate's 'up' rule
    doc = stirap_doc(n_max=8, n_steps=500, trace={"n": 2},
                     sweep={"axes": [{"name": "margin", "values": [100.0]}]})
    doc["gate"]["schedule"]["direction"] = "down"
    params = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)
    with pytest.raises(cli.ConfigError, match="use the pulse order"):
        cli._parse_schedule(doc["gate"]["schedule"], params)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    doc["gate"]["schedule"] = {
        "total_duration_s": 1.0, "n_steps": 500,
        "pump": {"peak_rabi_rad_per_s": 100.0, "center_s": 0.3, "width_s": 0.5},
        "stokes": {"peak_rabi_rad_per_s": 1000.0, "center_s": 0.7, "width_s": 0.5},
    }
    assert cli._parse_schedule(doc["gate"]["schedule"], params).direction == "down"
    assert cli.main([command, "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    assert "must be the 'up' passage" in capsys.readouterr().err
    assert not out.exists()


def test_stirap_trace_requires_stirap_mode(tmp_path):
    assert cli.main(["stirap-trace", "--config", write(tmp_path, ideal_doc()),
                     "--out", str(tmp_path / "t.csv")]) == 2


def test_stirap_trace_rejects_out_of_range_rung(tmp_path):
    doc = stirap_doc(n_max=8, trace={"n": 8})
    assert cli.main(["stirap-trace", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("command", ["truth-table", "sweep", "stirap-trace"])
@pytest.mark.parametrize("n", [8, -1])
def test_trace_rung_outside_the_ladder_exits_2_for_every_command(tmp_path, capsys, command, n):
    # one verdict per config: truth-table and sweep used to exit 0
    doc = stirap_doc(n_max=8, n_steps=200, trace={"n": n},
                     sweep={"axes": [{"name": "epsilon", "values": [0.0]}]})
    out = tmp_path / "out.txt"
    assert cli.main([command, "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"trace.n = {n} outside 0..7" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_n_max_axis_does_not_check_the_trace_rung(tmp_path):
    # a grid point reads no trace section, so a smaller n_max does not refuse it
    doc = stirap_doc(n_max=8, n_steps=200, trace={"n": 6},
                     sweep={"axes": [{"name": "n_max", "values": [4, 8]}]})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    assert [row["n_max"] for row in read_csv(out)[1]] == ["4", "8"]


@pytest.mark.parametrize("phonon, message", [
    ("fock:-1", "malformed state spec 'fock:-1'"),
    ("fock:9", "malformed state spec 'fock:9'"),  # past n_max 8
    ("thermal:-1", "malformed state spec 'thermal:-1'"),
    ("random:-3", "malformed state spec 'random:-3'"),
    ("random", "malformed state spec 'random'"),  # no --seed
    ("bogus:1", "unknown state family 'bogus' in spec 'bogus:1'"),
])
def test_malformed_spec_exits_2_alike_in_every_command(tmp_path, capsys, phonon, message):
    # stirap-trace builds no state, but it gives the other commands' verdict
    config = write(tmp_path, every_command_doc(phonon))
    for command in ("truth-table", "sweep", "stirap-trace"):
        out = tmp_path / "out.txt"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2, command
        assert capsys.readouterr().err == f"config error: {message}\n", command
        assert not out.exists()


def test_stirap_trace_builds_no_phonon_state(tmp_path, monkeypatch):
    built = []
    original = states.thermal_weights

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(states, "thermal_weights", counted)
    config = write(tmp_path, every_command_doc("thermal:1.0"))
    assert cli.main(["truth-table", "--config", config, "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == 1  # the patched constructor is the one a report builds with
    assert cli.main(["stirap-trace", "--config", config, "--out", str(tmp_path / "t.csv")]) == 0
    assert len(built) == 1


def test_hot_thermal_report_builds_no_dense_matrix(tmp_path):
    # thermal:100 at n_max 2400 needs d = 2401 levels: a d x d complex matrix
    # alone would take 92 MB, its weights take 19 kB
    config = write(tmp_path, ideal_doc(phonon="thermal:100.0", n_max=2400))
    tracemalloc.start()
    try:
        code = cli.main(["truth-table", "--config", config, "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10e6


def test_state_too_hot_for_n_max_is_found_only_where_it_is_built(tmp_path, capsys):
    # a truncation verdict (exit 3) needs the state, which the trace never builds
    config = write(tmp_path, every_command_doc("thermal:50.0"))
    for command, code in (("truth-table", 3), ("sweep", 3), ("stirap-trace", 0)):
        assert cli.main([command, "--config", config,
                         "--out", str(tmp_path / "out.txt")]) == code, command
    assert "discarded weight" in capsys.readouterr().err


@pytest.mark.parametrize("total", [0, -1])
@pytest.mark.parametrize("peak", [{"margin": 100.0}, {"pump_peak_rabi_rad_per_s": 100.0}],
                         ids=["margin", "pump-peak"])
def test_bad_duration_exits_2_naming_the_schedule_rule(tmp_path, capsys, total, peak):
    doc = stirap_doc(n_max=8, n_steps=200)
    doc["gate"]["schedule"] = {"total_duration_s": total, "n_steps": 200, **peak}
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad schedule: total_duration must be finite and > 0, got {float(total)}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, name", [("margin", "margin"),
                                       ("pump_peak_rabi_rad_per_s", "pump_peak")])
@pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
def test_bad_peak_setting_exits_2_naming_it(tmp_path, capsys, key, name, value):
    doc = stirap_doc(n_max=8, n_steps=200)
    doc["gate"]["schedule"] = {"total_duration_s": 1.0, "n_steps": 200, key: value}
    out = tmp_path / "r.json"
    assert cli.main(["truth-table", "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad schedule: {name} must be finite and >= 0, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_config_file(capsys):
    assert cli.main(["truth-table", "--config", "/nonexistent.json", "--out", "-"]) == 2


# ---------------------------------------------------------------- runtime dependencies

NO_SCIPY = """
import importlib.abc
import json
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} imported at run time")
        return None


sys.meta_path.insert(0, RefuseScipy())
from hotgate import cli

runs = json.loads(sys.argv[1])
codes = [cli.main(run) for run in runs]
assert codes == [0] * len(runs), codes
assert "scipy" not in sys.modules
print("commands run:", len(runs))
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy is the one runtime dependency: scipy is only a test oracle
    runs = []
    for phonon in ("fock:1", "coherent:0.6,-0.3", "thermal:0.5", "random:3"):
        for mode, doc in (("ideal", ideal_doc(phonon=phonon, n_max=8)),
                          ("stirap", stirap_doc(phonon=phonon, n_max=8, n_steps=200))):
            config = write(tmp_path, doc, f"{phonon.partition(':')[0]}-{mode}.json")
            runs.append(["truth-table", "--config", config,
                         "--out", str(tmp_path / "report.json")])
    config = write(tmp_path, stirap_doc(phonon="coherent:0.5,0", n_max=8, n_steps=200,
                                        sweep={"axes": [{"name": "epsilon",
                                                         "values": [0.0, 0.01]}]},
                                        trace={"n": 1}), "passage.json")
    runs.append(["sweep", "--config", config, "--out", str(tmp_path / "sweep.csv")])
    runs.append(["stirap-trace", "--config", config, "--out", str(tmp_path / "trace.csv")])
    result = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(runs)],
                            env=package_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "commands run: 10"
