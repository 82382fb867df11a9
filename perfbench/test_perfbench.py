"""Checks of the benchmark itself.

Work counters must repeat exactly for a fixed seed and operation count, and
the ideal-mode workload must never build a passage propagator. Neither pins
today's counts, which optimisations are meant to change.

Run from the repository root: python3 -m pytest perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
COUNTER_SUFFIXES = (".calls", ".state_calls", ".density_calls", ".rung_steps",
                    ".distinct_ratio", ".bytes_computed")


def run_bench(out: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--ops", "1", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, json.loads(out.read_text())["problems"]
    return result["metrics"]


@pytest.fixture(scope="module")
def counters(tmp_path_factory):
    """Counter metrics of two traced runs per workload, each in fresh processes."""
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = [
                {name: m["value"] for name, m in run_bench(
                    tmp_path_factory.mktemp(workload) / "result.json", workload, 1).items()
                 if name.endswith(COUNTER_SUFFIXES)}
                for _ in range(2)]
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", ["hot-stirap", "hot-ideal", "schedule-sweep"])
def test_counters_repeat_exactly(counters, workload):
    first, second = counters(workload)
    assert first and first == second


def test_hot_ideal_builds_no_passage(counters):
    first, _ = counters("hot-ideal")
    assert first["stirap.block_propagators.calls"] == 0
    assert first["stirap.passage_matrix.calls"] == 0
    assert first["gate.crot.calls"] > 0


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = run_bench(tmp_path / "result.json", "hot-ideal", 0)
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
