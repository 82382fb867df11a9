"""The committed benchmark trajectory: every BENCH_*.json at the repository root.

Each file holds the benchmark harness's full result (perfbench/run.py --out)
of one or more workloads, keyed by workload name. It must carry every
end-to-end metric that BENCHMARK.json names, so that a file written by a
harness that no longer reports one is caught here.
"""
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_trajectory_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_holds_every_end_to_end_metric(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict) and doc
    for workload, result in doc.items():
        assert result["workload"] == workload
        metrics = result["metrics"]
        for name, unit in wanted.items():
            assert metrics[name]["unit"] == unit, (workload, name)
            value = metrics[name]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (workload, name)
        assert result["environment"], workload  # the machine the numbers come from
