"""Scenario engine: config ingestion, per-slot simulation, baselines, sweeps.

A scenario names a tariff, a mechanism, a horizon of 15-minute slots, and a
set of agents with load/generation series or mechanism parameters. Each
mechanism lists the horizon's per-agent cash and energy deltas and system
totals slot by slot, and one replay sums them. The double auction clears one
slot at a time; the coalition divides all slots of one member count in one
Shapley batch. EV and storage agents carry parameters, not series, so those
auctions clear once per run and their deltas repeat in every slot. The
report is then compared against feed-in-tariff, equal-distribution, and
grid-hybrid baselines where those apply.
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
# 366 days of 5-minute slots; the replay loop runs once per slot
_MAX_HORIZON = 105_408


@dataclass(eq=False)
class AgentProfile:
    id: str
    role: str
    load: np.ndarray
    gen: np.ndarray
    params: dict = field(default_factory=dict)


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

    def integer(key: str, default: str, low: int, high: int | None = None) -> int:
        text = keys.get(key, default)
        value = number(text, line(key))
        if not (value.is_integer() and low <= value and (high is None or value <= high)):
            bound = f">= {low}" if high is None else f"from {low} to {high}"
            raise SchemaError(f"{line(key)}: {key} must be an integer {bound}, got {text}")
        return int(value)

    mechanism = keys.get("mechanism", "double_auction")
    if mechanism not in MECHANISMS:
        raise SchemaError(f"{where}: unknown mechanism {mechanism!r}")
    horizon = integer("horizon", "1", 1, _MAX_HORIZON)
    slot_minutes = integer("slot_minutes", "15", 1)
    seed = integer("seed", "0", 0)
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
    if not 0 < options.get("eta", 1.0) <= 1:
        raise SchemaError(f"{line('eta')}: eta must be in (0, 1], got {keys['eta']}")
    if not options.get("eps", 1.0) > 0:
        raise SchemaError(f"{line('eps')}: eps must be > 0, got {keys['eps']}")
    if "mc_samples" in keys:
        options["mc_samples"] = integer("mc_samples", "", 1, co.MAX_SAMPLES)
    if "rule" in keys:
        if keys["rule"] not in (st.PROPORTIONAL, st.EQUAL):
            raise SchemaError(f"{where}: rule must be proportional or equal")
        options["rule"] = keys["rule"]
    # a bid's limit is p_rp minus the buyer's margin, an ask's p_wp plus the seller's
    for key, cap in (("buyer_margin", p_rp), ("seller_margin", math.inf)):
        if key in keys:
            lo, _, hi = keys[key].partition(":")
            lo, hi = number(lo, line(key)), number(hi if hi else lo, line(key))
            if not 0 <= lo <= hi <= cap:
                bound = "0 <= lo <= hi" + (f" <= p_rp = {cap}" if cap < math.inf else "")
                raise SchemaError(f"{line(key)}: {key} lo:hi must satisfy {bound}, got {keys[key]}")
            options[key] = (lo, hi)

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
# Each mechanism below is called with the scenario and its _Cells and returns
# (stream, finish). The stream is a list of (cells, amounts) pairs of equal
# length, which list the horizon's outcome slot by slot: each cell's terms
# appear in slot order. run_simulation adds the whole stream with one
# np.add.at, which adds the terms of a repeated cell in stream order, so each
# sum adds its terms in a fixed order and the outputs are stable to the bit.
# `finish(per_agent, system)` turns the sums into the summary.

_AGENT_COLUMNS = (
    "bill",
    "revenue",
    "fit_bill",
    "fit_revenue",
    "energy_bought_kwh",
    "energy_sold_kwh",
    "utility",
)


class _Cells:
    """Where each agent's columns and each system total sit in the replay's
    array of sums: agent k's columns in scenario order, then the totals."""

    def __init__(self, agents: list[AgentProfile], totals) -> None:
        width = len(_AGENT_COLUMNS)
        self._row = {a.id: k * width for k, a in enumerate(agents)}
        self.total = {name: len(agents) * width + k for k, name in enumerate(totals)}
        self.size = len(agents) * width + len(totals)

    def column(self, column: str) -> dict[str, int]:
        """Agent id -> the cell of that agent's `column`."""
        offset = _AGENT_COLUMNS.index(column)
        return {aid: row + offset for aid, row in self._row.items()}

    def pack(self, deltas) -> tuple[np.ndarray, np.ndarray]:
        """(agent id, column, amount) triples, agent id None naming a system
        total, as the cells and amounts they add."""
        cells = [
            self.total[column] if aid is None else self._row[aid] + _AGENT_COLUMNS.index(column)
            for aid, column, _ in deltas
        ]
        return np.array(cells, dtype=np.intp), np.array([d[2] for d in deltas], dtype=float)

    def read(self, sums: np.ndarray) -> tuple[dict, dict]:
        """The sums as {agent id: {column: sum}} and {total: sum}."""
        sums = sums.tolist()
        width = len(_AGENT_COLUMNS)
        agents = {aid: dict(zip(_AGENT_COLUMNS, sums[row:row + width]))
                  for aid, row in self._row.items()}
        return agents, {name: sums[k] for name, k in self.total.items()}


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


def _net_matrix(agents) -> tuple[list[AgentProfile], np.ndarray]:
    """The agents in id order and their slots x agents net positions, generation - load."""
    ordered = sorted(agents, key=lambda a: a.id)
    return ordered, np.stack([a.gen - a.load for a in ordered], axis=1)


def _double_auction(scenario: Scenario, cells: _Cells):
    tariff = scenario.tariff
    margins = _draw_margins(scenario)
    ordered, net = _net_matrix(scenario.agents)
    ids = np.array([a.id for a in ordered], dtype=object)
    bid_limit = np.array([tariff.p_rp - margins[a.id][0] for a in ordered])
    ask_limit = np.array([tariff.p_wp + margins[a.id][1] for a in ordered])

    bill, revenue = cells.column("bill"), cells.column("revenue")
    bought, sold = cells.column("energy_bought_kwh"), cells.column("energy_sold_kwh")
    matched, buy_spend, sell_earn = (
        cells.total[name] for name in ("matched_kwh", "buy_spend", "sell_earn")
    )
    grid = [cells.total["grid_import_kwh"], cells.total["grid_export_kwh"]]
    # every slot adds each agent's feed-in-tariff bill or revenue; a zero
    # net adds +0.0 to a sum of terms >= 0, which leaves it as it is
    fit_bill, fit_revenue = cells.column("fit_bill"), cells.column("fit_revenue")
    fit_cell = np.where(
        net < 0,
        np.array([fit_bill[a.id] for a in ordered]),
        np.array([fit_revenue[a.id] for a in ordered]),
    )
    fit_amount = np.where(net < 0, -net * tariff.p_rp, np.where(net > 0, net * tariff.p_wp, 0.0))

    def deltas(t: int):
        row = net[t]
        buy, sell = row < -1e-12, row > 1e-12
        clearing = mk.clear_double_auction(
            mk.Book(ids[buy], -row[buy], bid_limit[buy]),
            mk.Book(ids[sell], row[sell], ask_limit[sell]),
        )
        settle = mk.settle_slot(clearing, tariff)

        at, amount = [], []
        for buyer, seller, qty in clearing.matches:
            at += (matched, bought[buyer], sold[seller])
            amount += (qty, qty, qty)
        at += grid
        amount += (sum(clearing.residual_buys.values()), sum(clearing.residual_sells.values()))
        for aid, cash in settle.p2p_paid.items():
            at += (bill[aid], buy_spend)
            amount += (cash, cash)
        for aid, cash in settle.p2p_received.items():
            at += (revenue[aid], sell_earn)
            amount += (cash, cash)
        for aid, cash in settle.grid_charge.items():
            at += (bill[aid], buy_spend, bought[aid])
            amount += (cash, cash, clearing.residual_buys[aid])
        for aid, cash in settle.grid_credit.items():
            at += (revenue[aid], sell_earn, sold[aid])
            amount += (cash, cash, clearing.residual_sells[aid])
        return np.concatenate((at, fit_cell[t])), np.concatenate((amount, fit_amount[t]))

    def finish(per_agent: dict, s: dict) -> None:
        buy_kwh = s["matched_kwh"] + s["grid_import_kwh"]
        sell_kwh = s["matched_kwh"] + s["grid_export_kwh"]
        buy_spend, sell_earn = s.pop("buy_spend"), s.pop("sell_earn")
        s["generation_kwh"] = float(sum(a.gen.sum() for a in scenario.agents))
        s["consumption_kwh"] = float(sum(a.load.sum() for a in scenario.agents))
        s["avg_buy_price"] = buy_spend / buy_kwh if buy_kwh > 0 else None
        s["avg_sell_price"] = sell_earn / sell_kwh if sell_kwh > 0 else None

    return [deltas(t) for t in range(scenario.horizon)], finish


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


def _ev_options(scenario: Scenario) -> tuple[float, float]:
    """The EV auction's transmission efficiency and certified-gap target."""
    return (float(scenario.options.get("eta", evx.DEFAULT_ETA)),
            float(scenario.options.get("eps", 1e-4)))


def _ev_auction(scenario: Scenario, cells: _Cells):
    # vehicles carry parameters, not series: every slot clears the same auction
    chargers, dischargers = _population(scenario, evx.ChargingEV, evx.DischargingEV)
    eta, eps = _ev_options(scenario)
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
    slot = cells.pack(slot)

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

    return [slot] * scenario.horizon, finish


def _members(net: np.ndarray) -> np.ndarray:
    """Which agents join each slot's coalition: those with |net| >= 1e-12."""
    return ~(np.abs(net) < 1e-12)


def _coalition(scenario: Scenario, cells: _Cells):
    tariff = scenario.tariff
    samples = scenario.options.get("mc_samples", 20_000)
    ordered, net = _net_matrix(scenario.agents)
    member = _members(net)
    size = member.sum(axis=1)
    payoff = np.zeros(net.shape)
    sampled = np.zeros(len(net), dtype=bool)
    # slots of one member count share one batch, their members in id order
    for n in np.unique(size[size > 0]).tolist():
        slots = np.flatnonzero(size == n)
        group = member & (size == n)[:, None]
        phi, sampled[slots] = co.shapley_payoff_rows(
            net[group].reshape(-1, n), tariff, samples, (scenario.seed + slots).tolist()
        )
        payoff[group] = phi.ravel()

    # one entry per member and slot, slot by slot and in id order within a slot
    _, agent = np.nonzero(member)
    e, pay = net[member], payoff[member]
    fit = co._net_value(e, tariff)

    def cell(column: str) -> np.ndarray:
        return np.array([cells.column(column)[a.id] for a in ordered])[agent]

    # a slot's totals add its members' nets in id order with Python's sum
    slots = np.flatnonzero(size > 0)
    supply = [sum(row) for row in np.where(member & (net > 0), net, 0.0)[slots].tolist()]
    demand = [sum(row) for row in np.where(member & (net < 0), -net, 0.0)[slots].tolist()]
    counted = np.where(sampled[slots], cells.total["shapley_sampled_slots"],
                       cells.total["shapley_exact_slots"])
    at = np.concatenate([
        np.where(pay >= 0, cell("revenue"), cell("bill")),
        np.where(fit >= 0, cell("fit_revenue"), cell("fit_bill")),
        np.where(e > 0, cell("energy_sold_kwh"), cell("energy_bought_kwh")),
        counted,
        np.repeat([cells.total[name] for name in ("generation_kwh", "consumption_kwh",
                                                  "matched_kwh")], len(slots)),
    ])
    amount = np.concatenate([
        np.where(pay >= 0, pay, -pay),
        np.where(fit >= 0, fit, -fit),
        np.where(e > 0, e, -e),
        np.ones(len(slots)),
        supply, demand, np.minimum(supply, demand),
    ])

    def finish(per_agent: dict, s: dict) -> None:
        s["grid_import_kwh"] = s["consumption_kwh"] - s["matched_kwh"]
        s["grid_export_kwh"] = s["generation_kwh"] - s["matched_kwh"]

    return [(at.astype(np.intp), amount)], finish


def _storage(scenario: Scenario, cells: _Cells):
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
    slot = cells.pack(slot)

    return [slot] * scenario.horizon, lambda per_agent, s: None


# mechanism -> (replay, the system totals it adds beyond the summary columns
# and their types)
_REPLAYS = {
    "double_auction": (_double_auction, {"buy_spend": float, "sell_earn": float}),
    "ev_auction": (_ev_auction, {"converged_slots": int}),
    "coalition": (_coalition, {"shapley_exact_slots": int, "shapley_sampled_slots": int}),
    "storage_auction": (_storage, {}),
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
    replay, extra = _REPLAYS[scenario.mechanism]
    totals = {**dict.fromkeys(_ENERGY_TOTALS, float), **extra}
    cells = _Cells(scenario.agents, totals)
    stream, finish = replay(scenario, cells)
    sums = np.zeros(cells.size)
    np.add.at(
        sums,
        np.concatenate([at for at, _ in stream]),
        np.concatenate([amount for _, amount in stream]),
    )

    agent_sums, total_sums = cells.read(sums)
    per_agent = {a.id: {"role": a.role, **agent_sums[a.id]} for a in scenario.agents}
    system = {name: kind(total_sums[name]) for name, kind in totals.items()}
    system.update(avg_buy_price=None, avg_sell_price=None)
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
        eta, eps = _ev_options(scenario)
        alloc, result = evx.run_iterative_auction(chargers, dischargers, eta, eps)
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
    if not suppliers:
        raise InputError("solar_fraction sweep needs generating agents")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise InputError(f"solar_fraction must lie in [0, 1], got {v:g}")
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    for v in values:
        frac = float(v)
        rng = np.random.default_rng(scenario.seed)
        n_solar = int(round(frac * len(suppliers)))
        solar_ids = {a.id for a in suppliers[:n_solar]}
        gens = {}
        for a in suppliers:
            scale = float(a.gen.sum()) / max(scenario.horizon, 1) * 4.0
            series = synth.solar_series if a.id in solar_ids else synth.wind_series
            gens[a.id] = series(rng, scenario.horizon, scenario.slot_minutes, scale)
        net = np.stack([gens.get(a.id, a.gen) - a.load for a in ordered], axis=1)
        # each slot's coalition as the replay forms it, valued on its pooled net
        pooled = [math.fsum(row[keep]) for row, keep in zip(net, _members(net)) if keep.any()]
        total_value = 0.0
        for value in co._net_value(np.array(pooled), scenario.tariff).tolist():
            total_value += value
        rows.append({"solar_fraction": frac, "community_value": total_value})
    return rows
