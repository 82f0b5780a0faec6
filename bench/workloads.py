"""The four benchmark workloads: seeded inputs and their CLI call sequences.

A workload writes every input file in the formats the CLI reads and returns
the calls to make, each with its output check. The same seed gives
byte-identical files. Sizes are part of each workload's definition; the
"tiny" scale exists only for the benchmark's self-test.

Why these four: each mechanism module dominates exactly one workload and runs
zero times in at least two others, so a kernel change predicts "no change"
elsewhere. The scenario replay loop sees distinct slots in market-week and
coalition-community and one repeated slot in ev-exchange and storage-ic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from gridswap import ev, games, synth

ETA = ev.DEFAULT_ETA
P_WP, P_RP = 0.05, 0.30
# ic-check draws its own scenario family from --seed, and the pricing work of
# that family swings by about 15% between seeds, so every run uses this one
IC_CHECK_SEED = 1

SIZES = {
    "full": {
        "market-week": dict(prosumers=60, consumers=60, horizon=672, orders=20_000, strategies=40),
        "coalition-community": dict(
            prosumers=8, consumers=6, horizon=96, small=10, large=20,
            samples=50_000, max_suppliers=20,
        ),
        "ev-exchange": dict(pairs=3, horizon=96, populations=(10, 20), price_points=9),
        "storage-ic": dict(
            units=8, sfcs=4, horizon=96, auction_units=50, auction_sfcs=20,
            trials=100, sweep_points=8,
        ),
    },
    "tiny": {
        "market-week": dict(prosumers=3, consumers=3, horizon=8, orders=40, strategies=4),
        "coalition-community": dict(
            prosumers=3, consumers=2, horizon=4, small=4, large=6,
            samples=200, max_suppliers=4,
        ),
        "ev-exchange": dict(pairs=2, horizon=2, populations=(2, 3), price_points=2),
        "storage-ic": dict(
            units=3, sfcs=2, horizon=2, auction_units=4, auction_sfcs=3,
            trials=2, sweep_points=2,
        ),
    },
}


@dataclass
class Call:
    argv: list[str]  # subcommand and its inputs; --out and --quiet are added per call
    check: Callable[[Path], None]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    calls: list[Call]
    digests: dict[str, str] = field(default_factory=dict)  # input file -> sha256
    # share of the `run` scenario's slots whose mechanism input repeats an earlier slot
    repeated_slot_share: float = 0.0
    # quality metric name -> function of the per-call output directories
    quality: dict[str, Callable[[list[Path]], float]] = field(default_factory=dict)


def _cell(value) -> str:
    # under numpy 2 str(np.float64) reads "np.float64(...)", which the CLI rejects
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        self.digests: dict[str, str] = {}
        root.mkdir(parents=True, exist_ok=True)

    def text(self, name: str, text: str) -> str:
        data = text.encode()
        (self.root / name).write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return str(self.root / name)

    def csv(self, name: str, header, rows) -> str:
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        return self.text(name, "\n".join(lines) + "\n")

    def series(self, name: str, load, gen) -> str:
        rows = [(t, load[t], gen[t]) for t in range(len(load))]
        return self.csv(name, ("slot_index", "load_kwh", "gen_kwh"), rows)

    def config(self, name: str, keys: dict, agents: list[str]) -> str:
        lines = [f"{k} = {v}" for k, v in keys.items()]
        lines += [f"agent = {a}" for a in agents]
        return self.text(name, "\n".join(lines) + "\n")


def _community(w: _Writer, rng, prosumers: int, consumers: int, horizon: int):
    """Series files for a solar/wind prosumer and consumer community.

    Returns the agent declarations and the (agents x slots) net-energy matrix
    the scenario engine will replay.
    """
    decls, nets = [], []
    for k in range(prosumers + consumers):
        load = synth.load_series(rng, horizon, 15, float(rng.uniform(0.8, 1.6)))
        if k >= prosumers:
            aid, role, gen = f"c{k:03d}", "consumer", np.zeros(horizon)
        elif k % 2 == 0:
            aid, role = f"p{k:03d}", "prosumer"
            gen = synth.solar_series(rng, horizon, 15, float(rng.uniform(3.0, 6.0)))
        else:
            aid, role = f"p{k:03d}", "prosumer"
            gen = synth.wind_series(rng, horizon, 15, float(rng.uniform(1.5, 3.0)))
        decls.append(f"{aid} {role} {aid}.csv")
        w.series(f"{aid}.csv", load, gen)
        nets.append(gen - load)
    return decls, np.array(nets)


def _repeated_share(nets: np.ndarray) -> float:
    slots = nets.T
    distinct = len({tuple(row) for row in slots.tolist()})
    return (len(slots) - distinct) / len(slots)


def _scenario_keys(mechanism: str, horizon: int, seed: int) -> dict:
    return dict(mechanism=mechanism, horizon=horizon, seed=seed, p_wp=P_WP, p_rp=P_RP)


def market_week(w: _Writer, seed: int, z: dict) -> Workload:
    rng = np.random.default_rng([seed, 1])
    decls, nets = _community(w, rng, z["prosumers"], z["consumers"], z["horizon"])
    cfg = w.config("market.cfg", _scenario_keys("double_auction", z["horizon"], seed), decls)

    half = z["orders"] // 2
    limits, rows = {}, []
    for side, lo, hi in (("buy", 0.10, 0.30), ("sell", 0.05, 0.25)):
        for k in range(half):
            aid = f"{side[0]}{k:05d}"
            limits[aid] = float(rng.uniform(lo, hi))
            rows.append((aid, side, float(rng.uniform(0.1, 5.0)), limits[aid]))
    book = w.csv("book.csv", ("agent_id", "side", "quantity", "limit_price"), rows)

    # a random game with one planted equilibrium: uniform payoffs lie in
    # [0, 1), so payoff 2 at the planted profile beats every deviation
    n = z["strategies"]
    u = rng.uniform(0.0, 1.0, size=(3, n, n, n))
    planted = tuple(int(s) for s in rng.integers(0, n, size=3))
    for p in range(3):
        u[(p,) + planted] = 2.0
    # np.indices enumerates in C order, the order of u.ravel()
    idx = np.indices(u.shape).reshape(4, -1).T.tolist()
    game_rows = [(*key, value) for key, value in zip(idx, u.ravel().tolist())]
    game = w.csv("game.csv", ("player", "s0", "s1", "s2", "utility"), game_rows)

    agent_ids = [d.split()[0] for d in decls]
    return Workload(
        calls=[
            Call(["run", "--config", cfg], checks.run(agent_ids)),
            Call(["clear", "--orders", book], checks.clear(limits)),
            Call(["nash", "--game", game], checks.nash(games.FiniteGame(u), planted)),
        ],
        repeated_slot_share=_repeated_share(nets),
    )


def _instance(w: _Writer, rng, name: str, n: int) -> str:
    suppliers = n // 2
    rows = [(f"s{k}", "supplier", float(rng.uniform(0.5, 20.0))) for k in range(suppliers)]
    rows += [(f"u{k}", "user", -float(rng.uniform(0.5, 15.0))) for k in range(n - suppliers)]
    return w.csv(name, ("id", "role", "net_kwh"), rows)


def _payoffs(out: Path) -> np.ndarray:
    rows = checks.read_rows(out / "allocation.csv")
    return np.array([float(r["payoff"]) for r in rows])


def _mc_error(exact_out: Path, sampled_out: Path) -> float:
    """RMS of (phi_MC - phi_exact) over customers, relative to RMS of phi_exact."""
    exact, sampled = _payoffs(exact_out), _payoffs(sampled_out)
    return float(np.sqrt(np.mean((sampled - exact) ** 2)) / np.sqrt(np.mean(exact**2)))


def coalition_community(w: _Writer, seed: int, z: dict) -> Workload:
    rng = np.random.default_rng([seed, 2])
    decls, nets = _community(w, rng, z["prosumers"], z["consumers"], z["horizon"])
    cfg = w.config("coalition.cfg", _scenario_keys("coalition", z["horizon"], seed), decls)
    small = _instance(w, rng, "instance_small.csv", z["small"])
    large = _instance(w, rng, "instance_large.csv", z["large"])
    counts = ",".join(str(k) for k in range(2, z["max_suppliers"] + 1, 2))
    fractions = "0,0.25,0.5,0.75,1"
    sampled = ["--samples", str(z["samples"]), "--seed", str(seed)]
    agent_ids = [d.split()[0] for d in decls]
    return Workload(
        calls=[
            Call(["run", "--config", cfg], checks.run(agent_ids)),
            Call(["shapley", "--exact", "--instance", small], checks.shapley()),
            Call(["shapley", "--instance", small, *sampled], checks.shapley()),
            Call(["shapley", "--instance", large, *sampled], checks.shapley()),
            Call(
                ["sweep", "--config", cfg, "--param", "supplier_count", "--values", counts],
                checks.sweep(counts.count(",") + 1),
            ),
            Call(
                ["sweep", "--config", cfg, "--param", "solar_fraction", "--values", fractions],
                checks.sweep(fractions.count(",") + 1),
            ),
        ],
        repeated_slot_share=_repeated_share(nets),
        quality={"shapley_mc_err": lambda outs: _mc_error(outs[1], outs[2])},
    )


def _ev_population(rng, n: int, tag: str):
    """n chargers and n dischargers around a fixed base population.

    The base comes from a constant stream and the seed moves each parameter
    by at most 1%. Unrelated random populations differ in iteration and
    projection counts, and so in run time, by up to 3x; the small move keeps
    the work per pass comparable across seeds while each seed still has its
    own outputs.
    """
    base = np.random.default_rng([7, n])

    def draw(lo, hi):
        return float(base.uniform(lo, hi)) * float(1.0 + 0.01 * rng.uniform(-1.0, 1.0))

    chargers = {
        f"{tag}c{i:02d}": dict(w=draw(1.5, 3.0), c_min=draw(2.0, 6.0), c_max=draw(12.0, 20.0))
        for i in range(n)
    }
    dischargers = {
        f"{tag}d{j:02d}": dict(l1=draw(0.03, 0.08), l2=draw(0.01, 0.04), d_max=draw(14.0, 24.0))
        for j in range(n)
    }
    return chargers, dischargers


def _reference_welfare(chargers: dict, dischargers: dict) -> float:
    """Social optimum W* from the SLSQP solver, computed outside the timed region."""
    _, best = ev.solve_social_welfare(
        [ev.ChargingEV(i, **p) for i, p in chargers.items()],
        [ev.DischargingEV(j, **p) for j, p in dischargers.items()],
        ETA,
    )
    return best


def _ev_gap(scenario_pop, scenario_horizon: int, populations):
    """max over EV instances of (W* - W_auction) / |W*|.

    The `run` replays one auction every slot, so its per-slot welfare is the
    report's total utility divided by the horizon.
    """

    def gap(outs: list[Path]) -> float:
        report = checks.read_rows(outs[0] / "report.csv")
        achieved = [math.fsum(float(r["utility"]) for r in report) / scenario_horizon]
        achieved += [float(checks.read_summary(out / "summary.txt")["welfare"])
                     for out in outs[1:len(populations) + 1]]
        best = [_reference_welfare(*pop) for pop in (scenario_pop, *populations)]
        return max((w_star - w) / abs(w_star) for w, w_star in zip(achieved, best))

    return gap


def ev_exchange(w: _Writer, seed: int, z: dict) -> Workload:
    rng = np.random.default_rng([seed, 3])
    chargers, dischargers = _ev_population(rng, z["pairs"], "")
    decls = [f"{i} ev - " + " ".join(f"{k}={_cell(v)}" for k, v in p.items())
             for i, p in {**chargers, **dischargers}.items()]
    cfg = w.config("ev.cfg", _scenario_keys("ev_auction", z["horizon"], seed), decls)

    calls = [Call(["run", "--config", cfg], checks.run(list(chargers) + list(dischargers)))]
    populations = []
    for n in z["populations"]:
        ch, dis = _ev_population(rng, n, "v")
        rows = [(i, "charging", p["w"], "", "", p["c_min"], p["c_max"], "") for i, p in ch.items()]
        rows += [(j, "discharging", "", p["l1"], p["l2"], "", "", p["d_max"])
                 for j, p in dis.items()]
        path = w.csv(f"population_{n}.csv",
                     ("id", "role", "w", "l1", "l2", "c_min", "c_max", "d_max"), rows)
        calls.append(Call(["ev-auction", "--population", path], checks.ev_auction(ch, dis, ETA)))
        populations.append((ch, dis))

    prices = ",".join(_cell(0.20 + 0.05 * k) for k in range(z["price_points"]))
    calls.append(Call(
        ["sweep", "--config", cfg, "--param", "grid_price", "--values", prices],
        checks.sweep(z["price_points"]),
    ))
    return Workload(
        calls=calls,
        # agents carry parameters, not series: every slot replays one auction
        repeated_slot_share=(z["horizon"] - 1) / z["horizon"],
        quality={"ev_welfare_gap": _ev_gap((chargers, dischargers), z["horizon"], populations)},
    )


def _storage_population(rng, units: int, sfcs: int):
    """Units that all clear the Vickrey screen; SFC bids whose top two are 0.05 apart.

    The leader's price grid spans [second bid, top bid] at a fixed resolution,
    so the fixed gap keeps the pricing work per auction equal across seeds.
    """
    vickrey = float(rng.uniform(0.30, 0.34))
    bids = [vickrey + 0.05, vickrey] + [float(rng.uniform(0.15, vickrey)) for _ in range(sfcs - 2)]
    rus = [
        (f"u{k:02d}", float(rng.uniform(30.0, 60.0)), float(rng.uniform(0.02, 0.12)),
         float(rng.uniform(0.001, 0.003)))
        for k in range(units)
    ]
    sfc = [(f"f{m:02d}", float(rng.uniform(50.0, 150.0)), bids[m]) for m in range(sfcs)]
    return rus, sfc


def storage_ic(w: _Writer, seed: int, z: dict) -> Workload:
    rng = np.random.default_rng([seed, 4])
    rus, sfcs = _storage_population(rng, z["units"], z["sfcs"])
    decls = [f"{i} residential_unit - capacity={_cell(c)} reservation={_cell(r)} "
             f"reluctance={_cell(a)}" for i, c, r, a in rus]
    decls += [f"{i} sfc - requirement={_cell(q)} bid={_cell(b)}" for i, q, b in sfcs]
    cfg = w.config("storage.cfg", _scenario_keys("storage_auction", z["horizon"], seed), decls)

    big_rus, big_sfcs = _storage_population(rng, z["auction_units"], z["auction_sfcs"])
    rus_path = w.csv("units.csv", ("id", "capacity", "reservation_price", "reluctance"), big_rus)
    sfcs_path = w.csv("sfcs.csv", ("id", "requirement", "bid_price"), big_sfcs)
    totals = ",".join(str(100 * k) for k in range(1, z["sweep_points"] + 1))
    agent_ids = [r[0] for r in rus] + [s[0] for s in sfcs]
    return Workload(
        calls=[
            Call(["run", "--config", cfg], checks.run(agent_ids)),
            Call(["storage-auction", "--rus", rus_path, "--sfcs", sfcs_path],
                 checks.storage_auction(max(b for _, _, b in big_sfcs))),
            Call(["ic-check", "--trials", str(z["trials"]), "--seed", str(IC_CHECK_SEED)],
                 checks.ic_check()),
            Call(["sweep", "--config", cfg, "--param", "sfc_requirement", "--values", totals],
                 checks.sweep(z["sweep_points"])),
        ],
        repeated_slot_share=(z["horizon"] - 1) / z["horizon"],
    )


GENERATORS = {
    "market-week": market_week,
    "coalition-community": coalition_community,
    "ev-exchange": ev_exchange,
    "storage-ic": storage_ic,
}


def build(name: str, seed: int, scale: str, root: Path) -> Workload:
    """Write the workload's inputs under `root` and return its calls."""
    writer = _Writer(root)
    workload = GENERATORS[name](writer, seed, SIZES[scale][name])
    workload.digests = writer.digests
    return workload
