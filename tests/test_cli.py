import json

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
    second = cli.parse_config(first.to_dict())
    assert first.gate == second.gate
    assert first.n_max == second.n_max
    assert first.phonon_spec == second.phonon_spec
    assert first.sweep_axes == second.sweep_axes
    assert first.trace_n == second.trace_n


def test_parse_explicit_envelopes():
    doc = ideal_doc()
    doc["gate"]["mode"] = "stirap"
    doc["gate"]["schedule"] = {
        "total_duration_s": 2.0,
        "n_steps": 100,
        "detuning_rad_per_s": 1.5,
        "pump": {"shape": "sin2", "peak_rabi_rad_per_s": 50.0, "center_s": 1.4, "width_s": 1.0},
        "stokes": {"shape": "sin2", "peak_rabi_rad_per_s": 500.0, "center_s": 0.6, "width_s": 1.0},
    }
    config = cli.parse_config(doc)
    assert config.gate.schedule.pump.peak_rabi == 50.0
    assert config.gate.schedule.detuning == 1.5


def test_parse_rejects_margin_with_envelopes():
    doc = ideal_doc()
    doc["gate"]["mode"] = "stirap"
    doc["gate"]["schedule"] = {
        "total_duration_s": 1.0,
        "margin": 50.0,
        "pump": {"peak_rabi_rad_per_s": 1.0, "center_s": 0.7, "width_s": 0.5},
        "stokes": {"peak_rabi_rad_per_s": 1.0, "center_s": 0.3, "width_s": 0.5},
    }
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)


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
    (("gate", "schedule", "dt_s"), 0.3, "not a whole number"),
    (("gate", "schedule", "dt_s"), 5e-324, "bad schedule"),
    (("phonon",), "coherent:nan,0", "malformed state spec"),
    (("phonon",), "coherent:inf,0", "malformed state spec"),
    (("sweep",), {"axes": [{"name": "epsilon", "start": 0, "stop": 1, "steps": 2},
                           {"name": "epsilon", "values": [0.1]}]}, "given twice"),
    (("gate", "schedule", "dt_s"), 0.004, "not both"),
    (("gate", "schedule", "dt_s"), 0.001, "not both"),  # agrees with n_steps, still both
    (("gate", "schedule", "direction"), "down", "must be the 'up' passage"),
    (("gate", "schedule", "pump_peak_rabi_rad_per_s"), 50.0, "not both"),
    (("gate", "schedule", "stokes_peak_rabi_rad_per_s"), 500.0, "not both"),
])
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, path, value, message):
    doc = stirap_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code = cli.main(["truth-table", "--config", write(tmp_path, doc),
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_integral_float_keys_accepted():
    doc = stirap_doc(n_max=8.0, n_steps=300.0, trace={"n": 2.0})
    doc["gate"]["params"]["n_ions"] = 2.0
    doc["gate"]["compensate_phases"] = True
    config = cli.parse_config(doc)
    assert (config.n_max, config.trace_n, config.gate.schedule.n_steps) == (8, 2, 300)
    assert config.gate.params.n_ions == 2 and config.gate.compensate_phases is True


def test_integer_numbers_accepted_for_float_keys():
    doc = stirap_doc(margin=100, sweep={"axes": [{"name": "eta", "start": 0, "stop": 1,
                                                  "steps": 2}]})
    doc["gate"]["params"]["eta"] = 1
    doc["gate"]["epsilon"] = 0
    doc["gate"]["schedule"]["total_duration_s"] = 1
    config = cli.parse_config(doc)
    assert config.gate.params.eta == 1.0 and type(config.gate.epsilon) is float
    assert config.gate.schedule.pump.peak_rabi == 100.0
    assert config.sweep_axes == [("eta", [0.0, 1.0])]


@pytest.mark.parametrize("total, dt, n_steps", [(1.0, 0.004, 250), (0.3, 0.1, 3)])
def test_dt_s_that_divides_the_duration_sets_the_steps(total, dt, n_steps):
    doc = stirap_doc()
    del doc["gate"]["schedule"]["n_steps"]
    doc["gate"]["schedule"].update(total_duration_s=total, dt_s=dt)  # 0.3 / 0.1 < 3 in floats
    assert cli.parse_config(doc).gate.schedule.n_steps == n_steps


FUZZ_DOC = {
    "n_max": 3,
    "phonon": "thermal:0.5",
    "gate": {"mode": "ideal", "control": 0, "target": 1, "epsilon": 0.0,
             "compensate_phases": False, "params": dict(BASE_PARAMS)},
    "sweep": {"axes": [{"name": "epsilon", "start": 0.0, "stop": 0.01, "steps": 2}]},
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


def test_simulation_domain_error_exit_code(tmp_path, capsys):
    # coherent amplitude far too hot for the truncation
    code = cli.main(["truth-table", "--config",
                     write(tmp_path, ideal_doc(phonon="coherent:6.0,0.0", n_max=8)),
                     "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "discarded weight" in capsys.readouterr().err


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
                    sweep={"axes": [{"name": "epsilon", "start": 0.0, "stop": 0.01, "steps": 3}]})
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
    stirap.passage_blocks.cache_clear()
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
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


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
        {"name": "eta", "values": [0.1, 0.2]},
    ]})
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--config", write(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    grid = [(float(r["epsilon"]), float(r["eta"])) for r in rows]
    assert grid == [(0.0, 0.1), (0.0, 0.2), (0.01, 0.1), (0.01, 0.2)]


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
    eff = stirap.transfer_efficiency(1, config.gate.schedule, config.gate.params)
    assert abs(final - eff) < 1e-12


@pytest.mark.parametrize("command", ["sweep", "stirap-trace"])
def test_margin_schedule_down_is_refused_not_run_up(tmp_path, capsys, command):
    # the margin family honours 'direction' as the explicit envelopes do, so
    # the gate's 'up' rule refuses it instead of running the up passage
    doc = stirap_doc(n_max=8, n_steps=500, trace={"n": 2},
                     sweep={"axes": [{"name": "margin", "values": [100.0]}]})
    doc["gate"]["schedule"]["direction"] = "down"
    params = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)
    assert cli._parse_schedule(doc["gate"]["schedule"], params).direction == "down"
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", write(tmp_path, doc), "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
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
