"""Scenario engine: config ingestion, per-slot simulation, baselines, sweeps.

A scenario names a tariff, a mechanism, a horizon of 15-minute slots, and a
set of agents with load/generation series or mechanism parameters. One replay
loop runs every mechanism slot by slot: the mechanism lists each slot's
per-agent cash and energy deltas and system totals, and the loop sums them.
EV and storage agents carry parameters, not series, so those auctions clear
once per run and their deltas repeat in every slot. The report is then
compared against feed-in-tariff, equal-distribution, and grid-hybrid
baselines where those apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coalition as co
from . import ev as evx
from . import ingest
from . import market as mk
from . import storage as st
from .errors import InputError, SchemaError
from .ingest import finite

MECHANISMS = ("double_auction", "ev_auction", "coalition", "storage_auction")
ROLES = ("consumer", "prosumer", "ev", "residential_unit", "sfc")
SWEEPABLE = ("supplier_count", "solar_fraction", "sfc_requirement", "grid_price")
# a supplier_count sweep draws one series per supplier and samples Shapley
# values over all of them, so its work grows with the count
_MAX_SUPPLIERS = 200
# Monte-Carlo Shapley work grows with the permutations sampled per coalition
_MAX_SAMPLES = 1_000_000


@dataclass(eq=False)
class AgentProfile:
    id: str
    role: str
    load: np.ndarray
    gen: np.ndarray
    params: dict = field(default_factory=dict)

    def net(self, t: int) -> float:
        return float(self.gen[t] - self.load[t])


@dataclass
class Scenario:
    agents: list[AgentProfile]
    tariff: mk.Tariff
    mechanism: str
    horizon: int
    slot_minutes: int = 15
    seed: int = 0
    options: dict = field(default_factory=dict)


@dataclass
class MetricsReport:
    per_agent: dict
    system: dict

    def agent_ids(self) -> list[str]:
        return sorted(self.per_agent)


# ---------------------------------------------------------------------------
# config ingestion


def _read_series(path: Path, horizon: int, agent_id: str):
    if not path.exists():
        raise SchemaError(f"agent {agent_id!r}: series file {path} not found")
    cols = ingest.columns(path, ints=("slot_index",), floats=("load_kwh", "gen_kwh"))
    if (
        cols is not None
        and np.array_equal(cols["slot_index"], np.arange(horizon))
        and (cols["load_kwh"] >= 0).all()
        and (cols["gen_kwh"] >= 0).all()
    ):
        return cols["load_kwh"], cols["gen_kwh"]
    loads, gens = [], []
    with ingest.table(path, ("slot_index", "load_kwh", "gen_kwh")) as table:
        for t, (slot, load, gen) in enumerate(table.rows("slot_index", "load_kwh", "gen_kwh")):
            if int(slot) != t:
                raise InputError(f"slot_index must count 0, 1, 2, ...; expected {t}, got {slot!r}")
            load, gen = finite(load), finite(gen)
            if load < 0 or gen < 0:
                raise InputError("series values must be >= 0")
            loads.append(load)
            gens.append(gen)
    if len(loads) != horizon:
        raise SchemaError(
            f"agent {agent_id!r}: series length {len(loads)} does not match "
            f"horizon {horizon} ({path})"
        )
    return np.array(loads), np.array(gens)


def load_scenario(config_path, data_dir=None) -> Scenario:
    """Read a key-value scenario config.

    Lines look like `key = value`; `#` starts a comment. Agents are declared
    as `agent = <id> <role> <series.csv|-> [name=value ...]`; series files are
    resolved against data_dir (default: the config's directory).
    """
    config_path = Path(config_path)
    if not config_path.exists():
        raise FileNotFoundError(f"config file {config_path} not found")
    base = Path(data_dir) if data_dir is not None else config_path.parent

    keys: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    agent_specs: list[tuple[int, str]] = []
    for ln, raw in enumerate(config_path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{config_path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "agent":
            agent_specs.append((ln, value))
        else:
            keys[key] = value
            key_lines[key] = ln

    where = str(config_path)

    def number(text: str, at: str) -> float:
        try:
            return finite(text)
        except ValueError as exc:
            raise SchemaError(f"{at}: {exc}") from exc

    def line(key: str) -> str:
        return f"{where}:{key_lines[key]}" if key in key_lines else where

    mechanism = keys.get("mechanism", "double_auction")
    if mechanism not in MECHANISMS:
        raise SchemaError(f"{where}: unknown mechanism {mechanism!r}")
    horizon = int(number(keys.get("horizon", "1"), line("horizon")))
    if horizon < 1:
        raise SchemaError(f"{where}: horizon must be >= 1")
    slot_minutes = int(number(keys.get("slot_minutes", "15"), line("slot_minutes")))
    seed = int(number(keys.get("seed", "0"), line("seed")))
    p_wp = number(keys.get("p_wp", "0.05"), line("p_wp"))
    p_rp = number(keys.get("p_rp", "0.30"), line("p_rp"))
    try:
        tariff = mk.Tariff(p_wp=p_wp, p_rp=p_rp)
    except InputError as exc:
        raise SchemaError(f"{where}: {exc}") from exc

    options: dict = {}
    for key in ("eta", "eps", "grid_sell_out", "grid_buy_back"):
        if key in keys:
            options[key] = number(keys[key], line(key))
    if "mc_samples" in keys:
        samples = number(keys["mc_samples"], line("mc_samples"))
        if not (samples.is_integer() and 1 <= samples <= _MAX_SAMPLES):
            raise SchemaError(
                f"{line('mc_samples')}: mc_samples must be an integer from 1 to "
                f"{_MAX_SAMPLES}, got {keys['mc_samples']}"
            )
        options["mc_samples"] = int(samples)
    if "rule" in keys:
        if keys["rule"] not in (st.PROPORTIONAL, st.EQUAL):
            raise SchemaError(f"{where}: rule must be proportional or equal")
        options["rule"] = keys["rule"]
    for key in ("buyer_margin", "seller_margin"):
        if key in keys:
            lo, _, hi = keys[key].partition(":")
            options[key] = (number(lo, line(key)), number(hi if hi else lo, line(key)))

    agents: list[AgentProfile] = []
    for ln, decl in agent_specs:
        parts = decl.split()
        if len(parts) < 3:
            raise SchemaError(
                f"{where}:{ln}: agent needs '<id> <role> <series|-> [k=v ...]'"
            )
        aid, role, series = parts[0], parts[1], parts[2]
        if role not in ROLES:
            raise SchemaError(f"{where}:{ln}: unknown role {role!r}")
        params: dict = {}
        for token in parts[3:]:
            if "=" not in token:
                raise SchemaError(f"{where}:{ln}: bad parameter token {token!r}")
            name, value = token.split("=", 1)
            params[name] = number(value, f"{where}:{ln}: agent {aid!r} {name}")
        if series == "-":
            load = np.zeros(horizon)
            gen = np.zeros(horizon)
        else:
            load, gen = _read_series(base / series, horizon, aid)
        agent = AgentProfile(aid, role, load, gen, params)
        try:
            _mechanism_agent(agent)
        except KeyError as exc:
            raise SchemaError(f"{where}:{ln}: agent {aid!r} needs parameter {exc}") from exc
        except InputError as exc:
            raise SchemaError(f"{where}:{ln}: {exc}") from exc
        agents.append(agent)

    if not agents:
        raise SchemaError(f"{where}: no agents declared")
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise SchemaError(f"{where}: duplicate agent ids")

    return Scenario(
        agents=agents,
        tariff=tariff,
        mechanism=mechanism,
        horizon=horizon,
        slot_minutes=slot_minutes,
        seed=seed,
        options=options,
    )


# ---------------------------------------------------------------------------
# slot replay
#
# Each mechanism below returns (extra, deltas, finish). `deltas(t)` lists slot
# t's outcome as (agent id, column, amount) triples, agent id None naming a
# system total; `extra` holds the starting values of the system totals the
# mechanism adds beyond the summary columns, and `finish(per_agent, system)`
# turns the sums into the summary. run_simulation applies the deltas in list
# order, so each sum adds its terms in a fixed order and the outputs are
# stable to the bit.


def _draw_margins(scenario: Scenario):
    """One (buy, sell) margin pair per agent, drawn once from the seeded rng."""
    blo, bhi = scenario.options.get("buyer_margin", (0.02, 0.10))
    slo, shi = scenario.options.get("seller_margin", (0.02, 0.10))
    rng = np.random.default_rng(scenario.seed)
    margins = {}
    for agent in sorted(scenario.agents, key=lambda a: a.id):
        margins[agent.id] = (
            float(rng.uniform(blo, bhi)),
            float(rng.uniform(slo, shi)),
        )
    return margins


def _blank_row(role: str) -> dict:
    return {
        "role": role,
        "bill": 0.0,
        "revenue": 0.0,
        "fit_bill": 0.0,
        "fit_revenue": 0.0,
        "energy_bought_kwh": 0.0,
        "energy_sold_kwh": 0.0,
        "utility": 0.0,
    }


def _double_auction(scenario: Scenario):
    tariff = scenario.tariff
    margins = _draw_margins(scenario)
    ordered = sorted(scenario.agents, key=lambda a: a.id)

    def deltas(t: int) -> list:
        buys, sells = [], []
        for agent in ordered:
            net = agent.net(t)
            bmar, smar = margins[agent.id]
            if net > 1e-12:
                sells.append(mk.Order(agent.id, mk.SELL, net, tariff.p_wp + smar, t))
            elif net < -1e-12:
                buys.append(mk.Order(agent.id, mk.BUY, -net, tariff.p_rp - bmar, t))
        clearing = mk.clear_double_auction(buys, sells)
        settle = mk.settle_slot(clearing, tariff)

        out = []
        for m in clearing.matches:
            out.append((None, "matched_kwh", m.quantity))
            out.append((m.buyer_id, "energy_bought_kwh", m.quantity))
            out.append((m.seller_id, "energy_sold_kwh", m.quantity))
        out.append((None, "grid_import_kwh", sum(clearing.residual_buys.values())))
        out.append((None, "grid_export_kwh", sum(clearing.residual_sells.values())))
        for aid, cash in settle.p2p_paid.items():
            out += [(aid, "bill", cash), (None, "buy_spend", cash)]
        for aid, cash in settle.p2p_received.items():
            out += [(aid, "revenue", cash), (None, "sell_earn", cash)]
        for aid, cash in settle.grid_charge.items():
            out += [(aid, "bill", cash), (None, "buy_spend", cash)]
            out.append((aid, "energy_bought_kwh", clearing.residual_buys[aid]))
        for aid, cash in settle.grid_credit.items():
            out += [(aid, "revenue", cash), (None, "sell_earn", cash)]
            out.append((aid, "energy_sold_kwh", clearing.residual_sells[aid]))
        for agent in scenario.agents:
            net = agent.net(t)
            if net < 0:
                out.append((agent.id, "fit_bill", -net * tariff.p_rp))
            elif net > 0:
                out.append((agent.id, "fit_revenue", net * tariff.p_wp))
        return out

    def finish(per_agent: dict, s: dict) -> None:
        buy_kwh = s["matched_kwh"] + s["grid_import_kwh"]
        sell_kwh = s["matched_kwh"] + s["grid_export_kwh"]
        buy_spend, sell_earn = s.pop("buy_spend"), s.pop("sell_earn")
        s["generation_kwh"] = float(sum(a.gen.sum() for a in scenario.agents))
        s["consumption_kwh"] = float(sum(a.load.sum() for a in scenario.agents))
        s["avg_buy_price"] = buy_spend / buy_kwh if buy_kwh > 0 else None
        s["avg_sell_price"] = sell_earn / sell_kwh if sell_kwh > 0 else None

    return {"buy_spend": 0.0, "sell_earn": 0.0}, deltas, finish


def _mechanism_agent(agent: AgentProfile):
    """The vehicle, residential unit or SFC an agent's parameters declare, else None."""
    p = agent.params
    if agent.role == "residential_unit":
        return st.ResidentialUnit(
            agent.id,
            capacity=p["capacity"],
            reservation_price=p["reservation"],
            reluctance=p["reluctance"],
        )
    if agent.role == "sfc":
        return st.SfcAgent(agent.id, requirement=p["requirement"], bid_price=p["bid"])
    if agent.role != "ev":
        return None
    if "w" in p:
        return evx.ChargingEV(
            agent.id, w=p["w"], c_min=p.get("c_min", 0.0), c_max=p.get("c_max", math.inf)
        )
    if "l1" in p or "l2" in p:
        return evx.DischargingEV(
            agent.id, l1=p.get("l1", 0.0), l2=p.get("l2", 0.0), d_max=p.get("d_max", 0.0)
        )
    raise SchemaError(
        f"ev agent {agent.id!r} needs either w (charging) or l1/l2 (discharging)"
    )


def _population(scenario: Scenario, *kinds):
    """One list per kind of the scenario's mechanism agents, each sorted by id."""
    found = [_mechanism_agent(a) for a in sorted(scenario.agents, key=lambda a: a.id)]
    return tuple([x for x in found if isinstance(x, kind)] for kind in kinds)


def _ev_auction(scenario: Scenario):
    # vehicles carry parameters, not series: every slot clears the same auction
    chargers, dischargers = _population(scenario, evx.ChargingEV, evx.DischargingEV)
    eta = float(scenario.options.get("eta", evx.DEFAULT_ETA))
    eps = float(scenario.options.get("eps", 1e-4))
    tariff = scenario.tariff
    alloc, result = evx.run_iterative_auction(chargers, dischargers, eta, eps)
    delivered = alloc.delivered_per_charger()
    sent = alloc.sent_per_discharger()

    slot = [(None, "converged_slots", result.trace.converged)]
    for i, c in enumerate(chargers):
        slot.append((c.id, "bill", result.settlement.buyer_payments[c.id]))
        slot.append((c.id, "energy_bought_kwh", float(delivered[i])))
        slot.append((c.id, "utility", evx.satisfaction(c, alloc.sent[:, i], eta)))
        slot.append((c.id, "fit_bill", tariff.p_rp * float(delivered[i])))
    for j, s in enumerate(dischargers):
        slot.append((s.id, "revenue", result.settlement.seller_receipts[s.id]))
        slot.append((s.id, "energy_sold_kwh", float(sent[j])))
        slot.append((s.id, "utility", -evx.discharge_cost(s, alloc.sent[j, :])))
        slot.append((s.id, "fit_revenue", tariff.p_wp * float(sent[j])))
    slot.append((None, "generation_kwh", float(sent.sum())))
    slot.append((None, "consumption_kwh", float(delivered.sum())))

    def finish(per_agent: dict, s: dict) -> None:
        sent_total, delivered_total = s["generation_kwh"], s["consumption_kwh"]
        s["matched_kwh"] = delivered_total
        s["loss_kwh"] = sent_total - delivered_total
        if delivered_total > 0:
            bills = sum(per_agent[c.id]["bill"] for c in chargers)
            s["avg_buy_price"] = bills / delivered_total
        if sent_total > 0:
            revenues = sum(per_agent[d.id]["revenue"] for d in dischargers)
            s["avg_sell_price"] = revenues / sent_total

    return {"converged_slots": 0}, lambda t: slot, finish


def _coalition_instance(scenario: Scenario, t: int):
    customers = []
    for agent in sorted(scenario.agents, key=lambda a: a.id):
        net = agent.net(t)
        if abs(net) < 1e-12:
            continue
        role = co.SUPPLIER if net > 0 else co.USER
        customers.append(co.Customer(agent.id, role, net))
    if not customers:
        return None
    return co.CoalitionInstance(tuple(customers), scenario.tariff)


def _coalition(scenario: Scenario):
    samples = scenario.options.get("mc_samples", 20_000)

    def deltas(t: int) -> list:
        inst = _coalition_instance(scenario, t)
        if inst is None:
            return []
        alloc = co.shapley_allocation(inst, samples, scenario.seed + t)
        out = [(None, "shapley_sampled_slots" if alloc.samples else "shapley_exact_slots", 1)]
        for c in inst.customers:
            payoff = alloc.payoffs[c.id]
            out.append((c.id, "revenue", payoff) if payoff >= 0 else (c.id, "bill", -payoff))
            fit = co.fit_payoff(c, scenario.tariff)
            out.append((c.id, "fit_revenue", fit) if fit >= 0 else (c.id, "fit_bill", -fit))
            if c.net_energy > 0:
                out.append((c.id, "energy_sold_kwh", c.net_energy))
            else:
                out.append((c.id, "energy_bought_kwh", -c.net_energy))
        supply = sum(c.net_energy for c in inst.customers if c.net_energy > 0)
        demand = sum(-c.net_energy for c in inst.customers if c.net_energy < 0)
        out.append((None, "generation_kwh", supply))
        out.append((None, "consumption_kwh", demand))
        out.append((None, "matched_kwh", min(supply, demand)))
        return out

    def finish(per_agent: dict, s: dict) -> None:
        s["grid_import_kwh"] = s["consumption_kwh"] - s["matched_kwh"]
        s["grid_export_kwh"] = s["generation_kwh"] - s["matched_kwh"]

    return {"shapley_exact_slots": 0, "shapley_sampled_slots": 0}, deltas, finish


def _storage(scenario: Scenario):
    # units and SFCs carry parameters, not series: every slot clears the same auction
    rus, sfcs = _population(scenario, st.ResidentialUnit, st.SfcAgent)
    if not rus or not sfcs:
        raise SchemaError("storage_auction needs residential_unit and sfc agents")
    out = st.run_storage_auction(rus, sfcs, scenario.options.get("rule", st.PROPORTIONAL))

    slot = []
    if not out.empty:
        for r in rus:
            share = out.shares.get(r.id, 0.0)
            sold = max(share - out.burdens.get(r.id, 0.0), 0.0)
            slot.append((r.id, "utility", out.ru_utilities.get(r.id, 0.0)))
            slot.append((r.id, "revenue", out.auction_price * sold))
            slot.append((r.id, "energy_sold_kwh", sold))
        for s in sfcs:
            got = out.sfc_allocations.get(s.id, 0.0)
            slot.append((s.id, "utility", out.sfc_utilities.get(s.id, 0.0)))
            slot.append((s.id, "bill", out.auction_price * got))
            slot.append((s.id, "energy_bought_kwh", got))
        slot.append((None, "matched_kwh", out.total_allocated()))

    return {}, lambda t: slot, lambda per_agent, s: None


_REPLAYS = {
    "double_auction": _double_auction,
    "ev_auction": _ev_auction,
    "coalition": _coalition,
    "storage_auction": _storage,
}
_ENERGY_TOTALS = (
    "matched_kwh",
    "grid_import_kwh",
    "grid_export_kwh",
    "loss_kwh",
    "generation_kwh",
    "consumption_kwh",
)


def run_simulation(scenario: Scenario) -> MetricsReport:
    """Replay the scenario's mechanism over its horizon.

    Deterministic for a given config and seed. Adds per-agent savings against
    the feed-in-tariff baseline and checks the energy accounting identity
    generation + imports = consumption + exports + losses to 1e-6 kWh.
    """
    extra, deltas, finish = _REPLAYS[scenario.mechanism](scenario)
    per_agent = {a.id: _blank_row(a.role) for a in scenario.agents}
    system = dict.fromkeys(_ENERGY_TOTALS, 0.0)
    system.update(avg_buy_price=None, avg_sell_price=None, **extra)
    for t in range(scenario.horizon):
        for aid, column, amount in deltas(t):
            (system if aid is None else per_agent[aid])[column] += amount
    finish(per_agent, system)

    for row in per_agent.values():
        p2p_cost = row["bill"] - row["revenue"]
        fit_cost = row["fit_bill"] - row["fit_revenue"]
        row["savings"] = fit_cost - p2p_cost
        row["savings_pct"] = (
            100.0 * (fit_cost - p2p_cost) / fit_cost if fit_cost > 1e-12 else None
        )

    residual = (
        system["generation_kwh"]
        + system["grid_import_kwh"]
        - system["consumption_kwh"]
        - system["grid_export_kwh"]
        - system["loss_kwh"]
    )
    system["energy_balance_residual_kwh"] = residual
    if not abs(residual) <= 1e-6:  # written so that a NaN residual fails too
        raise InputError(
            f"energy accounting identity violated by {residual:.3e} kWh"
        )
    return MetricsReport(per_agent, system)


# ---------------------------------------------------------------------------
# baselines


def compare_baselines(scenario: Scenario, report: MetricsReport):
    """Per-agent comparison of a simulated scenario against baselines.

    `report` is run_simulation's result for `scenario`. Columns that make no
    sense for the mechanism are omitted and listed in the returned notes.
    Returns (rows, notes).
    """
    notes: list[str] = []
    rows: list[dict] = []

    if scenario.mechanism in ("double_auction", "coalition"):
        notes.append("ed baseline applies to storage_auction scenarios only")
        notes.append("hybrid baseline applies to ev_auction scenarios only")
        for aid in report.agent_ids():
            r = report.per_agent[aid]
            rows.append(
                {
                    "id": aid,
                    "role": r["role"],
                    "p2p_cost": r["bill"] - r["revenue"],
                    "fit_cost": r["fit_bill"] - r["fit_revenue"],
                    "savings": r["savings"],
                    "savings_pct": r["savings_pct"],
                }
            )
        return rows, notes

    if scenario.mechanism == "ev_auction":
        notes.append("ed baseline applies to storage_auction scenarios only")
        sell_out = float(scenario.options.get("grid_sell_out", scenario.tariff.p_rp))
        buy_back = float(scenario.options.get("grid_buy_back", scenario.tariff.p_wp))
        eta_h = evx.DEFAULT_ETA_HYBRID
        for aid in report.agent_ids():
            r = report.per_agent[aid]
            if r["role"] != "ev":
                continue
            p2p_cost = r["bill"] - r["revenue"]
            if r["energy_bought_kwh"] > 0:
                # buyer may source delivered energy from the grid instead
                grid_cost = sell_out * r["energy_bought_kwh"] / eta_h
                hybrid_cost = min(r["bill"], grid_cost)
            elif r["energy_sold_kwh"] > 0:
                grid_rev = buy_back * r["energy_sold_kwh"]
                hybrid_cost = -max(r["revenue"], grid_rev)
            else:
                hybrid_cost = 0.0
            rows.append(
                {
                    "id": aid,
                    "role": "ev",
                    "p2p_cost": p2p_cost,
                    "fit_cost": r["fit_bill"] - r["fit_revenue"],
                    "hybrid_cost": hybrid_cost,
                    "savings": r["savings"],
                }
            )
        return rows, notes

    # storage_auction: equal-distribution and feed-in-tariff baselines
    notes.append("hybrid baseline applies to ev_auction scenarios only")
    rus, sfcs = _population(scenario, st.ResidentialUnit, st.SfcAgent)
    v = st.vickrey_price(sfcs)
    total_q = math.fsum(s.requirement for s in sfcs)
    per_slot_ed = {}
    per_slot_fit = {}
    for r in rus:
        ed_share = min(total_q / len(rus), r.capacity)
        per_slot_ed[r.id] = (
            (v - r.reservation_price) * ed_share
            - 0.5 * r.reluctance * ed_share**2
        )
        fit_share = st.follower_best_response(r, scenario.tariff.p_wp)
        per_slot_fit[r.id] = (
            (scenario.tariff.p_wp - r.reservation_price) * fit_share
            - 0.5 * r.reluctance * fit_share**2
        )
    for aid in report.agent_ids():
        r = report.per_agent[aid]
        if r["role"] != "residential_unit":
            continue
        rows.append(
            {
                "id": aid,
                "role": r["role"],
                "p2p_utility": r["utility"],
                "ed_utility": per_slot_ed[aid] * scenario.horizon,
                "fit_utility": per_slot_fit[aid] * scenario.horizon,
            }
        )
    return rows, notes


# ---------------------------------------------------------------------------
# parameter sweeps


def sweep(scenario: Scenario, parameter: str, values) -> list[dict]:
    """One simulation per value with a common seed, emitted as table rows.

    Sweepable parameters: supplier_count (coalition population growth, at
    most _MAX_SUPPLIERS), solar_fraction (solar vs wind generation mix),
    sfc_requirement (storage demand), grid_price (hybrid grid sell-out price).
    """
    if parameter not in SWEEPABLE:
        raise InputError(
            f"unknown sweep parameter {parameter!r}; choose one of {', '.join(SWEEPABLE)}"
        )
    values = list(values)
    if not values:
        return []

    if parameter == "supplier_count":
        for v in values:
            if not (float(v).is_integer() and v >= 1):
                raise InputError(f"supplier_count must be an integer >= 1, got {v:g}")
            if v > _MAX_SUPPLIERS:
                raise InputError(f"supplier_count must be <= {_MAX_SUPPLIERS}, got {v:g}")
        n_users = max(
            sum(1 for a in scenario.agents if a.role == "consumer"), 3
        )
        return co.supplier_count_sweep(
            scenario.seed,
            [int(v) for v in values],
            n_users=n_users,
            tariff=scenario.tariff,
            samples=scenario.options.get("mc_samples", 40_000),
        )

    if parameter == "sfc_requirement":
        rus, sfcs = _population(scenario, st.ResidentialUnit, st.SfcAgent)
        if not rus or not sfcs:
            raise InputError("sfc_requirement sweep needs a storage_auction scenario")
        return st.requirement_sweep(
            rus, sfcs, [float(v) for v in values],
            rule=scenario.options.get("rule", st.PROPORTIONAL),
        )

    if parameter == "grid_price":
        chargers, dischargers = _population(scenario, evx.ChargingEV, evx.DischargingEV)
        if not chargers or not dischargers:
            raise InputError("grid_price sweep needs an ev_auction scenario")
        eta = float(scenario.options.get("eta", evx.DEFAULT_ETA))
        alloc, result = evx.run_iterative_auction(chargers, dischargers, eta)
        sent = alloc.sent_per_discharger()
        delivered = alloc.delivered_per_charger()
        buyers = tuple(
            evx.HybridBuyer(c.id, float(delivered[i]))
            for i, c in enumerate(chargers)
            if delivered[i] > 1e-9
        )
        price = result.settlement.price or scenario.tariff.p_rp
        sellers = tuple(
            evx.HybridSeller(s.id, float(sent[j]), price * eta)
            for j, s in enumerate(dischargers)
            if sent[j] > 1e-9
        )
        sc = evx.HybridScenario(buyers, sellers)
        buy_back = float(scenario.options.get("grid_buy_back", scenario.tariff.p_wp))
        rows = []
        for row in evx.hybrid_price_sweep(sc, [float(v) for v in values], buy_back):
            rows.append(
                {
                    "grid_sell_out_price": row["grid_sell_out_price"],
                    "p2p_avg_buying_price": row["p2p"]["avg_buying_price"],
                    "hybrid_avg_buying_price": row["hybrid"]["avg_buying_price"],
                    "p2p_transmitted_kwh": row["p2p"]["transmitted_kwh"],
                    "hybrid_transmitted_kwh": row["hybrid"]["transmitted_kwh"],
                }
            )
        return rows

    # solar_fraction: vary the share of supplying agents on a solar profile
    from . import synth

    rows = []
    suppliers = [a for a in scenario.agents if a.gen.sum() > 0]
    supplier_ids = {a.id for a in suppliers}
    if not suppliers:
        raise InputError("solar_fraction sweep needs generating agents")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise InputError(f"solar_fraction must lie in [0, 1], got {v:g}")
    for v in values:
        frac = float(v)
        rng = np.random.default_rng(scenario.seed)
        agents = []
        n_solar = int(round(frac * len(suppliers)))
        solar_ids = {a.id for a in suppliers[:n_solar]}
        for a in scenario.agents:
            if a.id in supplier_ids:
                scale = float(a.gen.sum()) / max(scenario.horizon, 1) * 4.0
                gen = (
                    synth.solar_series(rng, scenario.horizon, scenario.slot_minutes, scale)
                    if a.id in solar_ids
                    else synth.wind_series(rng, scenario.horizon, scenario.slot_minutes, scale)
                )
                agents.append(AgentProfile(a.id, a.role, a.load.copy(), gen, dict(a.params)))
            else:
                agents.append(a)
        variant = Scenario(
            agents, scenario.tariff, scenario.mechanism, scenario.horizon,
            scenario.slot_minutes, scenario.seed, dict(scenario.options),
        )
        total_value = 0.0
        for t in range(variant.horizon):
            inst = _coalition_instance(variant, t)
            if inst is not None:
                total_value += co.coalition_value(inst.customers, variant.tariff)
        rows.append({"solar_fraction": frac, "community_value": total_value})
    return rows
