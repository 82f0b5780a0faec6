"""One benchmark process: set up a workload, then measure it.

Started by run.py, never by hand. It prints "ready <inputs digest>" once the
inputs are on disk and gridswap is imported, which run.py times from process
start as set-up time, then "calibration <kernel seconds>" to rescale it. It
then repeats the workload's CLI call sequence in this process, one call after
another, for the given number of seconds and prints one JSON line with the
results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gridswap.cli  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _call(call, out: Path) -> tuple[float, bool]:
    """Run one CLI call and its output check; return (seconds, ok)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [*call.argv, "--out", str(out), "--quiet"]
    start = time.perf_counter()
    try:
        rc = gridswap.cli.main(argv)
    except (Exception, SystemExit):  # argparse reports usage errors by SystemExit
        rc = None
        traceback.print_exc()
    seconds = time.perf_counter() - start
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        call.check(out)
    except Exception as exc:  # any check error counts the call as failed
        print(f"bench: {call.subcommand} failed: {exc!r}", file=sys.stderr)
        return seconds, False
    return seconds, True


def measure(workload, out_root: Path, seconds: float, tracer=None) -> dict:
    """Repeat the call sequence for about `seconds` and return counts and timings.

    The calibration kernel runs before the first call of a pass and after
    every call; each call's time is rescaled by the mean of the kernel times
    around it. With a tracer, untraced and traced passes alternate so both
    see the same machine state.
    """
    outs = [out_root / f"{k:02d}-{c.subcommand}" for k, c in enumerate(workload.calls)]
    call_times = [[] for _ in outs]  # rescaled, untraced passes only
    walls = {False: [], True: []}  # rescaled pass totals by traced
    traced_phases = []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    # stop once another pass of average length would end past `seconds`
    while k < (2 if tracer else 1) or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        traced = tracer is not None and k % 2 == 1
        if tracer is not None:
            tracer.phase = f"pass{k}"
            tracer.install() if traced else tracer.uninstall()
            if traced:
                traced_phases.append(tracer.phase)
        wall = 0.0
        before = calibration.kernel_seconds()
        for times, call, out in zip(call_times, workload.calls, outs):
            took, ok = _call(call, out)
            after = calibration.kernel_seconds()
            took = calibration.rescale(took, (before + after) / 2)
            before = after
            wall += took
            attempted += 1
            failed += not ok
            if not traced:
                times.append(took)
        walls[traced].append(wall)
        k += 1

    result = {"attempted": attempted, "failed": failed}
    if tracer is None:
        result["call_times"] = call_times
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    tracer.phase = "reference"
    tracer.install()
    quality = {name: fn(outs) for name, fn in workload.quality.items()}
    tracer.uninstall()
    per_pass = [tracer.summarize(p) for p in traced_phases]
    layers = {
        name: statistics.median(stats.get(name, 0.0) for stats in per_pass)
        for name in set().union(*per_pass)
    }
    auctions = layers.get("ev.run_iterative_auction.calls", 0.0)
    layers["ev.converged_frac"] = layers.get("ev.converged", 0.0) / auctions if auctions else 0.0
    layers["ev.solve_social_welfare.s"] = tracer.summarize("reference").get(
        "ev.solve_social_welfare.s", 0.0)
    layers["synth.series.s"] = tracer.summarize("setup").get("synth.series.s", 0.0)
    layers["scenario.repeated_slot_share"] = workload.repeated_slot_share
    untraced = statistics.median(walls[False])
    layers["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
    layers.update(quality)
    result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--dir", type=Path, required=True, help="working directory of this process")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, args.scale, args.dir / "inputs")
    if tracer is not None:
        tracer.uninstall()
    digest = hashlib.sha256(json.dumps(workload.digests, sort_keys=True).encode()).hexdigest()
    print("ready", digest, flush=True)
    print("calibration", calibration.kernel_seconds(), flush=True)
    (args.dir / "inputs.sha256.json").write_text(json.dumps(workload.digests, indent=1) + "\n")
    result = measure(workload, args.dir / "out", args.seconds, tracer)
    if tracer is not None:
        tracer.write(args.dir / "spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
