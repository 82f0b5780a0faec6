"""gridswap benchmark: time the public CLI on seeded workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop: one client makes the workload's CLI calls one
after another, in-process, with concurrency 1. Every call's output is
checked. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. failed / attempted is
the share of calls that exited non-zero, raised, or failed their check. The
workload names, metric names and units are those BENCHMARK.json declares.

An untraced run measures in WORKERS fresh processes, one after another. Each
sets up, timed from process start until its inputs are on disk and gridswap
is imported, then repeats the call sequence for its share of --seconds.
Set-up time is the median over the workers; wall time sums, over the calls,
each call's median time over all passes. Timings are rescaled to a reference
machine speed by a calibration kernel timed next to them (see
calibration.py). Worker files go under .bench_run/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKERS = 5  # fresh processes per untraced run
WORKER_GRACE_S = 100.0


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GRIDSWAP_THREADS", None)  # sweeps stay sequential
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # fixed string hashing, so set order and work repeat
    return env


class WorkerError(RuntimeError):
    pass


def _worker(args, work_dir: Path, seconds: float) -> tuple[float, str, dict]:
    """Run one worker; return (rescaled set-up seconds, inputs digest, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--dir", str(work_dir), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    killer = threading.Timer(seconds + WORKER_GRACE_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        kernel = proc.stdout.readline()
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.startswith("ready ") or not kernel.startswith("calibration "):
        raise WorkerError(f"worker for {args.workload} exited with code {code}")
    shutil.rmtree(work_dir / "inputs")
    shutil.rmtree(work_dir / "out")
    setup = calibration.rescale(setup, float(kernel.split()[1]))
    return setup, ready.split()[1], json.loads(rest[-1])


def run(args, declared: dict) -> dict:
    """An untraced run splits --seconds over WORKERS processes, one after
    another, so set-up is sampled WORKERS times and no single process's
    placement or memory layout sets the timings. A traced run uses one."""
    run_dir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workers = 1 if args.trace else WORKERS
    setups, digests, results = [], set(), []
    for k in range(workers):
        setup, digest, result = _worker(args, run_dir / f"worker{k}", args.seconds / workers)
        setups.append(setup)
        digests.add(digest)
        results.append(result)
    if len(digests) != 1:
        raise WorkerError("the same seed generated different inputs")

    if args.trace:
        table, values = declared["per_layer"], results[0]["layers"]
    else:
        per_call = [sum(times, []) for times in zip(*(r["call_times"] for r in results))]
        table, values = declared["end_to_end"], {
            "setup_s": statistics.median(setups),
            "wall_s": sum(statistics.median(times) for times in per_call),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        # a layer that did not run reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in table},
    }


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the self-test only")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "gridswap" / "__init__.py").is_file():
        print(f"bench: no gridswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, declared)
    except (WorkerError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
