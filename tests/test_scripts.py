import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from test_gate import passage_builds  # noqa: F401 - build-counting fixture

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_find_stirap_schedule_defaults(tmp_path, monkeypatch, passage_builds):
    out = tmp_path / "cal.json"
    run_script(monkeypatch, "find_stirap_schedule.py", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["margin"] == 100.0
    assert doc["n_values"] == list(range(11))
    assert min(doc["efficiencies"]) >= 0.999
    # durations 20..100 are tried; the round trip reuses the last build
    assert len(passage_builds) == 5 == len(doc["history"])


def test_find_stirap_schedule_detuned(tmp_path, monkeypatch):
    # --detuning reaches the calibration only through PhysicalParams.delta_stirap
    out = tmp_path / "cal.json"
    run_script(monkeypatch, "find_stirap_schedule.py", "--detuning", "0.1",
               "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["margin"] == 100.0
    assert min(doc["efficiencies"]) >= 0.999
    # a resonant passage reads exactly pi; a detuned one picks up a dynamic phase
    assert all(phase < np.pi for phase in doc["passage_phases_rad"])


def test_timing_error_sweep_one_row_per_pair(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "timing_error_sweep.py", "--epsilons", "0", "0.01",
               "--occupations", "0", "3", "--n-max", "6", "--out", str(out))
    header, *rows = out.read_text().splitlines()
    assert header == "epsilon,n,gate_fidelity,infidelity,predicted_infidelity"
    cells = np.array([[float(c) for c in row.split(",")] for row in rows])
    assert cells[:, :2].tolist() == [[0, 0], [0, 3], [0.01, 0], [0.01, 3]]
    assert np.all(cells[:2, 2] == 1.0)
    assert cells[:, 3] == pytest.approx(cells[:, 4], abs=1e-12)
