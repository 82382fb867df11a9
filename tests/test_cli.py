import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hotgate import cli
from hotgate.operators import PhysicalParams
from hotgate import stirap

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
    (("gate", "schedule", "margin"), float("nan"), "peak_rabi must be finite"),
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


def test_sweep_grid_point_builds_passage_once(tmp_path, monkeypatch):
    builds = []
    original = stirap.block_propagators

    def counting(*args, **kwargs):
        builds.append(args[0].direction)
        return original(*args, **kwargs)

    monkeypatch.setattr(stirap, "block_propagators", counting)
    doc = stirap_doc(phonon="fock:1", n_max=8, n_steps=300,
                     sweep={"axes": [{"name": "margin", "values": [70.0]}]})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    assert builds == ["up"]


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
    import hotgate

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
    package_root = str(Path(hotgate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(runs)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "commands run: 10"
