"""Fast self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Checks that each workload emits the metrics BENCHMARK.json names, that every
metric of a layer the workload exercises is nonzero there while the
mechanism layers it bypasses read 0, that every per-layer metric is nonzero
on some workload, that sabotaged program outputs are
caught by the output checks and counted as failed calls, and that the
benchmark refuses to run without the gridswap sources. Exits 1 on failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402
from gridswap import coalition, ev, market, storage  # noqa: E402

# metric-name prefixes that must read nonzero on each workload
EXERCISED = {
    "market-week": ("cli.main.", "cli.run.", "cli.clear.", "cli.nash.",
                    "scenario.load_scenario.", "scenario.run_simulation.",
                    "market.", "games.", "synth."),
    "coalition-community": ("cli.main.", "cli.run.", "cli.shapley.", "cli.sweep.",
                            "scenario.load_scenario.", "scenario.run_simulation.",
                            "scenario.sweep.", "coalition.", "shapley_mc_err", "synth."),
    "ev-exchange": ("cli.main.", "cli.run.", "cli.ev-auction.", "cli.sweep.", "scenario.",
                    "ev.", "ev_welfare_gap"),
    "storage-ic": ("cli.main.", "cli.run.", "cli.storage-auction.", "cli.ic-check.",
                   "cli.sweep.", "scenario.", "storage."),
}
MECHANISMS = ("market.", "games.", "ev.", "ev_welfare_gap", "coalition.", "shapley_mc_err",
              "storage.")


def _bench_run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_metrics(declared: dict) -> list[str]:
    errors = []
    seen = set()  # per-layer metrics read nonzero on some workload
    for name, prefixes in EXERCISED.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench_run(name, trace)
            if proc.returncode != 0:
                errors.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{name} trace={trace}: {result['failed']} failed calls")
            if list(result["metrics"]) != [m["name"] for m in declared[section]]:
                errors.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                exercised = metric.startswith(prefixes)
                if trace == 0 and value <= 0:
                    errors.append(f"{name}: end-to-end {metric} = {value}")
                elif trace == 1 and exercised and value == 0:
                    errors.append(f"{name}: {metric} reads 0 on a workload that exercises it")
                elif trace == 1 and not exercised and metric.startswith(MECHANISMS) and value:
                    errors.append(f"{name}: {metric} = {value} on a workload that bypasses it")
                if trace == 1 and value:
                    seen.add(metric)
    never = [m["name"] for m in declared["per_layer"] if m["name"] not in seen]
    if never:
        errors.append(f"per-layer metrics that read 0 on every workload: {never}")
    return errors


def _sabotaged(module, attr, corrupt):
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        return corrupt(original(*args, **kwargs))

    return original, wrapper


# one corrupted kernel output per workload; each breaks a guarantee an output check tests
SABOTAGE = {
    "market-week": (market, "clear_double_auction", lambda c: dataclasses.replace(
        c, clearing_price=None if c.clearing_price is None else c.clearing_price + 1.0)),
    "coalition-community": (coalition, "shapley_exact", lambda a: coalition.PayoffAllocation(
        {k: 1.01 * v + 0.01 for k, v in a.payoffs.items()})),
    "ev-exchange": (ev, "run_iterative_auction", lambda r: (r[0], dataclasses.replace(
        r[1], settlement=dataclasses.replace(r[1].settlement, buyer_payments={
            k: 1.1 * v + 0.01 for k, v in r[1].settlement.buyer_payments.items()})))),
    "storage-ic": (storage, "run_storage_auction", lambda o: o if o.empty else
                   dataclasses.replace(o, auction_price=o.vickrey_price - 0.01)),
}


def check_sabotage() -> list[str]:
    errors = []
    work = ROOT / ".bench_run" / "selftest"
    for name, (module, attr, corrupt) in SABOTAGE.items():
        shutil.rmtree(work, ignore_errors=True)
        workload = workloads.build(name, 3, "tiny", work / "inputs")
        clean = worker.measure(workload, work / "out", 0)
        original, wrapper = _sabotaged(module, attr, corrupt)
        setattr(module, attr, wrapper)
        try:
            broken = worker.measure(workload, work / "out", 0)
        finally:
            setattr(module, attr, original)
        if clean["failed"] != 0 or broken["failed"] == 0:
            errors.append(f"{name}: sabotaged {attr} gave {broken['failed']} failed calls "
                          f"(clean run: {clean['failed']})")
    shutil.rmtree(work, ignore_errors=True)
    return errors


def check_refuses_without_sources() -> list[str]:
    stripped = ROOT / ".bench_run" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench_run("market-week", 0, cwd=stripped)
    shutil.rmtree(stripped)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_sabotage() + check_refuses_without_sources() + check_metrics(declared)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
