"""One fresh benchmark process: set up, then optionally run the timed loop.

Started by run.py, never by hand. Set-up imports hotgate from the checkout's
``src``, writes the warm-up operation's configs and runs it, then prints
``READY`` so the parent can time set-up from process start. A set-up probe
exits there; the timed session goes on to run operations in a closed loop
with one client and prints its result as one JSON line.

Every operation is a sequence of in-process ``hotgate.cli.main`` calls on
config files written before the timed region. Outputs are checked after it.

The shared host's speed differs by a third between processes and over
minutes, which no run of under a minute averages out. So a short reference
kernel runs before and after every timed operation: fixed numpy work in
this file, independent of hotgate, of the same kind as the program's (small
batched eigh/einsum steps and a dense complex matmul). An operation's scaled time is its wall
time divided by its host factor, the mean of the two reference times around
it over REFERENCE_BASE_S: the operation's wall time on a host where the
reference takes REFERENCE_BASE_S. A change to hotgate cannot move the
reference, so the scaled time still shows every change to the program.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

WARMUP_STREAM, TIMED_STREAM = 0, 1
MAX_PROBLEMS = 20
# Median reference time on a 2-vCPU Intel Xeon VM at 2.1 GHz, numpy with
# OpenBLAS on one thread: the host speed that scaled times refer to.
REFERENCE_BASE_S = 0.0125
_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((12, 3, 3)) + 1j * _REF_RNG.standard_normal((12, 3, 3))
_REF_SMALL = _REF_SMALL + _REF_SMALL.conj().transpose(0, 2, 1)
_REF_DENSE = _REF_RNG.standard_normal((160, 160)) + 1j * _REF_RNG.standard_normal((160, 160))


def reference_seconds() -> float:
    """Wall time of the fixed reference kernel (about 12 ms)."""
    t0 = time.perf_counter()
    p = np.eye(3, dtype=complex)
    for _ in range(150):
        w, v = np.linalg.eigh(_REF_SMALL)
        p = np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1e-3j * w), v.conj()) @ p
    for _ in range(4):
        _REF_DENSE @ _REF_DENSE
    return time.perf_counter() - t0


def import_hotgate(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    from hotgate import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hotgate imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    """Writes, runs and checks the operations of one workload."""

    def __init__(self, workload, seed: int, work: Path, cli):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def prepare(self, stream: int, index: int) -> list:
        calls = self.workload.calls(np.random.default_rng([self.seed, stream, index]))
        for i, call in enumerate(calls):
            (self.work / f"config{i}.json").write_text(json.dumps(call.config))
        return calls

    def execute(self, calls) -> tuple:
        """Run the calls; returns (seconds, exit codes, error text or None)."""
        codes = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for i, call in enumerate(calls):
                    codes.append(self.cli.main([
                        call.command, "--config", str(self.work / f"config{i}.json"),
                        "--out", str(self.work / call.output)]))
            error = None
        except Exception:  # an escaped exception fails the operation, not the run
            error = traceback.format_exc()
        return time.perf_counter() - t0, codes, error

    def verify(self, calls, codes, error) -> list:
        """Output texts of a successful operation, or None; counts the attempt."""
        self.attempted += 1
        problems = [error] if error else []
        problems += [f"{c.command} exited {code}" for c, code in zip(calls, codes) if code != 0]
        texts = []
        if not problems:
            for call in calls:
                try:
                    texts.append((self.work / call.output).read_text())
                    problems += self.workload.check(call, texts[-1])
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problems.append(f"unreadable {call.command} output: {exc!r}")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])
            return None
        return texts

    def run(self, stream: int, index: int):
        """Prepare, run and check one untimed operation; returns verify's result."""
        calls = self.prepare(stream, index)
        _, codes, error = self.execute(calls)
        return self.verify(calls, codes, error)


def environment() -> dict:
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "hotgate_max_workers": os.environ.get("HOTGATE_MAX_WORKERS"),
    }


def timed_loop(runner: Runner, args, tracer) -> tuple:
    """Closed loop with one client; with tracing, every other operation is traced.

    Returns the loop's samples and the output texts of its first operation.
    The reference kernel runs between operations, outside their times.
    """
    times, scaled, hosts, traced_flags, first_texts = [], [], [], [], None
    ok, scaled_busy = 0, 0.0
    start = time.perf_counter()
    ref_before = reference_seconds()
    index = 0
    while (index < args.ops) if args.ops else (time.perf_counter() - start < args.seconds):
        t0 = time.perf_counter()
        calls = runner.prepare(TIMED_STREAM, index)
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.begin(index)
        try:
            seconds, codes, error = runner.execute(calls)
        finally:
            if traced:
                tracer.end()
        texts = runner.verify(calls, codes, error)
        busy = time.perf_counter() - t0
        ref_after = reference_seconds()
        host = (ref_before + ref_after) / (2 * REFERENCE_BASE_S)
        ref_before = ref_after
        if index == 0:
            first_texts = texts
        ok += texts is not None
        times.append(seconds)
        scaled.append(seconds / host)
        scaled_busy += busy / host
        hosts.append(host)
        traced_flags.append(traced)
        index += 1
    wall = time.perf_counter() - start
    return {"times": times, "scaled_times": scaled, "host_factors": hosts,
            "traced": traced_flags, "ok_ops": ok, "wall_s": wall,
            "scaled_busy_s": scaled_busy}, first_texts


def reproducibility(runner: Runner, first_texts) -> bool:
    """Re-run the first timed operation; outputs must match apart from runtime_s."""
    texts = runner.run(TIMED_STREAM, 0)
    same = (texts is not None and first_texts is not None
            and [workloads.without_runtime(t) for t in texts]
            == [workloads.without_runtime(t) for t in first_texts])
    if not same and texts is not None:
        runner.failed += 1
        runner.problems.append("re-run of the first operation gave different output")
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True, help="warm-up operation index")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0, help="fixed operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_hotgate(Path(args.root))
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed, Path(args.work), cli)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner.run(WARMUP_STREAM, args.warmup)
    print("READY", flush=True)

    result = {}
    if not args.probe:
        result, first_texts = timed_loop(runner, args, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["reproducible"] = reproducibility(runner, first_texts)
        result["environment"] = environment()
        if tracer is not None:
            traced = [t for t, f in zip(result["scaled_times"], result["traced"]) if f]
            untraced = [t for t, f in zip(result["scaled_times"], result["traced"]) if not f]
            result["per_layer"] = tracing.per_layer(tracer)
            result["tracing"] = {
                "traced_op_p50_s": statistics.median(traced),
                "untraced_op_p50_s": statistics.median(untraced) if untraced else None,
                "traced_ops": len(traced),
                "untraced_ops": len(untraced),
            }
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
