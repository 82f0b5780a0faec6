"""Per-layer spans recorded from the benchmark's own files.

The tracer swaps the public functions of each gridswap module for timing
wrappers by module attribute. Callers, the package's own modules included,
resolve those names at call time, so no repository source changes. A span is
(name, start, end, parent, phase, tag); spans stay in memory and are written
out once the run ends. Counts come from public arguments and return values
only. Per-element helpers such as ev.satisfaction and ev.discharge_cost stay
unwrapped: they run about 250k times per pass and would swamp the overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

from gridswap import cli, coalition, ev, games, market, scenario, storage, synth


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


_PRICE_RESOLUTION = inspect.signature(storage.stackelberg_price).parameters["resolution"].default


def _grid_points(args, kwargs, result):
    floor = _arg(args, kwargs, 2, "price_floor")
    cap = _arg(args, kwargs, 3, "price_cap")
    resolution = _arg(args, kwargs, 4, "resolution", _PRICE_RESOLUTION)
    return {"storage.price_grid_points": max(1, int(round((cap - floor) / resolution)) + 1)}


def _auction(args, kwargs, result):
    trace = result[1].trace
    return {"ev.iterations": trace.iterations, "ev.converged": int(trace.converged)}


# (module, function, span name or None for "<module>.<function>", count function)
_WRAPPED = [
    (cli, "main", None, None),
    (scenario, "load_scenario", None, None),
    (scenario, "run_simulation", None, None),
    (scenario, "compare_baselines", None, None),
    (scenario, "sweep", None, None),
    (market, "clear_double_auction", None, lambda a, k, r: {
        "market.orders": len(_arg(a, k, 0, "buys")) + len(_arg(a, k, 1, "sells"))}),
    (market, "settle_slot", None, None),
    (ev, "run_iterative_auction", None, _auction),
    (ev, "read_ev_population_csv", None, None),
    (ev, "welfare", None, None),
    (ev, "solve_social_welfare", None, None),
    (coalition, "shapley_exact", None, None),
    (coalition, "shapley_monte_carlo", None, lambda a, k, r: {
        "coalition.mc_permutations": _arg(a, k, 1, "sample_count")}),
    (coalition, "supplier_count_sweep", None, None),
    (storage, "run_storage_auction", None, None),
    (storage, "stackelberg_price", None, _grid_points),
    (storage, "allocate_shares", None, None),
    (storage, "check_incentive_compatibility", None, lambda a, k, r: {
        "storage.deviations_checked": r.deviations_checked}),
    (games, "find_pure_nash", None, lambda a, k, r: {
        "games.profiles": _arg(a, k, 0, "game").n_profiles}),
    (synth, "solar_series", "synth.series", None),
    (synth, "wind_series", "synth.series", None),
    (synth, "load_series", "synth.series", None),
]


class Tracer:
    """Records spans and counts while installed; `phase` labels what runs."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (phase, key) -> total
        self.phase = "setup"
        self._stack: list[int] = []
        self._swaps = []
        for module, attr, name, count in _WRAPPED:
            original = getattr(module, attr)
            name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            tag = (lambda args: args[0][0]) if (module, attr) == (cli, "main") else None
            self._swaps.append((module, attr, original, self._traced(original, name, tag, count)))

    def _traced(self, original, name, tag, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[index] = (name, start, end, parent, self.phase, tag(args) if tag else None)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[self.phase, key] += value
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._swaps:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def summarize(self, phase: str) -> dict[str, float]:
        """calls, inclusive .s and .self_s per span name, plus the phase's counts.

        A span's self time is its duration minus that of its direct children;
        cli.main spans are also summed per subcommand as cli.<subcommand>.s.
        """
        chosen = [i for i, s in enumerate(self.spans) if s is not None and s[4] == phase]
        child_time = defaultdict(float)
        for i in chosen:
            _, start, end, parent, _, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i in chosen:
            name, start, end, _, _, tag = self.spans[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            if tag is not None:
                out[f"{name.split('.')[0]}.{tag}.s"] += end - start
        for (p, key), value in self.counts.items():
            if p == phase:
                out[key] += value
        return dict(out)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
