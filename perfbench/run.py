"""hotgate benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload hot-stirap --seed 1 --seconds 30 --trace 0

Compare two result files metric by metric (ratios are NEW / BASE):

    python3 perfbench/run.py --compare BASE.json NEW.json

The run measures the program in ``src/hotgate`` of this checkout. Set-up is
timed in SETUP_SAMPLES fresh processes, from process start until the first
timed operation could begin: importing hotgate, writing one operation's
configs and one checked warm-up operation. The last of them goes on to run
the timed loop, a closed loop with one client, for --seconds. BLAS is pinned
to one thread and HOTGATE_MAX_WORKERS is unset, so this is the plain
single-threaded baseline.

op_p50_s and ops_per_s are scaled to a reference host speed: each
operation's wall time is divided by the speed of the host around it, as
a fixed reference kernel run between operations measures it (see
session.py). Set-up time and memory are reported as measured: set-up is
mostly process start and imports, which the reference does not track. The
wall times are kept in the full result (op_times_s, wall_op_p50_s,
wall_ops_per_s) next to the host factors.

With --trace 1 only the timed process is started. It wraps the layer
functions listed in tracing.py and traces every other operation; the
untraced ones give the tracing overhead.

Every metric the run reports is named in BENCHMARK.json. Human-readable
lines come first; the last line of standard output is the result as JSON.
The full result, with the environment and samples, is written to --out.

The benchmark's own tests: python3 -m pytest perfbench
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env.pop("HOTGATE_MAX_WORKERS", None)
    return env


def session(args, work: Path, warmup: int, probe: bool, deadline: float) -> tuple:
    """Start one fresh process; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "session.py"), "--root", str(ROOT), "--work", str(work),
           "--workload", args.workload, "--seed", str(args.seed), "--warmup", str(warmup),
           "--seconds", str(args.seconds), "--ops", str(args.ops), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    # unbuffered, so readline() takes nothing beyond READY from the pipe
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if line != b"READY\n":
            raise BenchError(f"session did not finish set-up (got {line!r})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError("session ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"session exited with code {proc.returncode}")
    return setup_s, json.loads(out.decode().strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)), "git_commit": commit}


def end_to_end(setups, timed, attempted: int, failed: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(timed["scaled_times"]),
        "ops_per_s": timed["ok_ops"] / timed["scaled_busy_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / attempted,
    }


def run(args, declared: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups, attempted, failed, problems = [], 0, 0, []
    try:
        for i in range(probes + 1):
            setup_s, result = session(args, work, i, i < probes, deadline)
            setups.append(setup_s)
            attempted += result["attempted"]
            failed += result["failed"]
            problems += result["problems"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    timed = result
    if args.trace:
        computed = timed["per_layer"]
    else:
        computed = end_to_end(setups, timed, attempted, failed)
    missing = sorted(set(declared) - set(computed))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {name: {"value": computed[name], "unit": unit} for name, unit in declared.items()}
    tracing = timed.get("tracing")
    if tracing and tracing["untraced_op_p50_s"] is not None:
        tracing["overhead_s"] = tracing["traced_op_p50_s"] - tracing["untraced_op_p50_s"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"setup": len(setups), "ops": len(timed["times"]),
                    "traced_ops": sum(timed["traced"])},
        "setup_s_samples": setups,
        "op_times_s": timed["times"],
        "scaled_op_times_s": timed["scaled_times"],
        "host_factors": timed["host_factors"],
        "wall_op_p50_s": statistics.median(timed["times"]),
        "wall_ops_per_s": timed["ok_ops"] / timed["wall_s"],
        "timed_wall_s": timed["wall_s"],
        "reproducible": timed["reproducible"],
        "tracing": tracing,
        "environment": {**machine(), **timed["environment"]},
        "problems": problems,
    }


def compare(base_path: str, new_path: str):
    base = json.loads(Path(base_path).read_text())["metrics"]
    new = json.loads(Path(new_path).read_text())["metrics"]
    print(f"base = {base_path}; ratio = new / base")
    print(f"{'metric':48} {'unit':>6} {'base':>14} {'new':>14} {'ratio':>8}")
    for name in list(base) + [n for n in new if n not in base]:
        b, n = base.get(name), new.get(name)
        unit = (b or n)["unit"]
        bv = b["value"] if b else None
        nv = n["value"] if n else None
        ratio = f"{nv / bv:8.4f}" if bv and nv is not None else f"{'-':>8}"
        show = [f"{v:14.6g}" if v is not None else f"{'-':>14}" for v in (bv, nv)]
        print(f"{name:48} {unit:>6} {show[0]} {show[1]} {ratio}")


def main() -> int:
    # On SIGTERM, unwind through the finally blocks that stop the session process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many timed operations instead of --seconds")
    parser.add_argument("--out", help="full result file (default .perfbench/results/...)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "hotgate" / "__init__.py").is_file():
        print(f"no hotgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        doc = run(args, declared)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else (
        ROOT / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for problem in doc["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in doc["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"full result: {out}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
