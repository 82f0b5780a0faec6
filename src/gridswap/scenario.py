"""Scenario engine: config ingestion, per-slot simulation, baselines, sweeps.

A scenario names a tariff, a mechanism, a horizon of 15-minute slots, and a
set of agents with load/generation series or mechanism parameters. Each
mechanism lists the per-agent cash and energy deltas and system totals of
any chunk of slots, slot by slot, and one replay sums the horizon chunk by
chunk. The double auction clears a chunk's slots in one merge and settles
them before the next chunk; the coalition divides a chunk's slots of one
member count in one Shapley batch. EV and storage agents carry parameters,
not series, so those auctions clear once per run and their deltas repeat in
every slot. The report is then compared against feed-in-tariff,
equal-distribution, and grid-hybrid baselines where those apply.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import coalition as co
from . import ev as evx
from . import ingest
from . import market as mk
from . import storage as st
from . import synth
from .errors import InputError, SchemaError
from .ingest import ENERGY, PRICE, finite, physical, physical_mask

# per kind of agent: what its parameters build (None for a kind that reads a
# series), and the parameters it reads in the order the constructor takes
# them, with their defaults (None: required). An ev agent that names w is
# charging, one that names l1 or l2 discharging.
_KINDS = {
    "consumer": (None, {}), "prosumer": (None, {}),
    "sfc": (st.SfcAgent, dict.fromkeys(("requirement", "bid"))),
    "residential_unit": (st.ResidentialUnit,
                         dict.fromkeys(("capacity", "reservation", "reluctance"))),
    "charging ev": (evx.ChargingEV, {"w": None, "c_min": 0.0, "c_max": math.inf}),
    "discharging ev": (evx.DischargingEV, {"l1": 0.0, "l2": 0.0, "d_max": 0.0}),
}
# about the most memory, in bytes, that one chunk of slots of a replay takes:
# a double auction's merge, SlotClearings, settlements and terms peak at 225
# to 265 bytes per agent and slot, measured with tracemalloc on 20 to 200
# agents, and the other mechanisms take less.
_CHUNK_BYTES = 1 << 25
_SLOT_ORDER_BYTES = 300


@dataclass(eq=False)
class AgentProfile:
    id: str
    role: str
    load: np.ndarray
    gen: np.ndarray
    params: InitVar[dict | None] = None
    # the vehicle, residential unit or SFC the parameters build, else None
    party: object = field(init=False, repr=False, default=None)

    def __post_init__(self, params: dict | None) -> None:
        p = params or {}
        kind = self.role
        if kind == "ev":
            kind = "charging ev" if "w" in p else "discharging ev" if "l1" in p or "l2" in p else ""
            if not kind:
                raise SchemaError(f"ev agent {self.id!r} needs either w (charging) "
                                  "or l1/l2 (discharging)")
        build, reads = _KINDS[kind]
        unread = [name for name in p if name not in reads]
        if unread:
            raise SchemaError(f"{kind} agent {self.id!r} does not read parameter {unread[0]!r} "
                              f"(it reads: {', '.join(reads) or 'none'})")
        if build is not None:  # a required parameter that is missing raises KeyError
            self.party = build(self.id, *(p[name] if default is None else p.get(name, default)
                                          for name, default in reads.items()))


@dataclass
class Scenario:
    agents: list[AgentProfile]
    tariff: mk.Tariff
    mechanism: str
    horizon: int
    slot_minutes: int = 15
    seed: int = 0
    # every option the mechanism reads; those not given take their default
    options: dict = field(default_factory=dict)
    # the config and each series file it names, in the order read, and the
    # sha256 of the bytes parsed from each
    sources: dict[Path, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        defaults = _MECHANISMS[self.mechanism].options.items()
        self.options = {**{key: row.default(self.tariff) if callable(row.default) else row.default
                           for key, row in defaults}, **self.options}


@dataclass
class MetricsReport:
    per_agent: dict
    system: dict

    def agent_ids(self) -> list[str]:
        return sorted(self.per_agent)


# ---------------------------------------------------------------------------
# config ingestion


def _read_series(path: Path, horizon: int, agent_id: str, sources: dict):
    """The series' load and gen columns."""
    if not path.is_file():
        problem = "is not a regular file" if path.exists() else "not found"
        raise SchemaError(f"agent {agent_id!r}: series file {path} {problem}")
    cols = ingest.columns(path, sources, ints=("slot_index",), floats=("load_kwh", "gen_kwh"))
    if cols is not None and np.array_equal(cols["slot_index"], np.arange(horizon)):
        load, gen = cols["load_kwh"], cols["gen_kwh"]
        if (physical_mask(load, ENERGY) & physical_mask(gen, ENERGY)).all():
            return load, gen
    loads, gens = [], []
    with ingest.table(path, ("slot_index", "load_kwh", "gen_kwh"), sources) as table:
        for t, (slot, load, gen) in enumerate(table.rows("slot_index", "load_kwh", "gen_kwh")):
            if int(slot) != t:
                raise InputError(f"slot_index must count 0, 1, 2, ...; expected {t}, got {slot!r}")
            loads.append(physical(finite(load), ENERGY, "load_kwh"))
            gens.append(physical(finite(gen), ENERGY, "gen_kwh"))
    if len(loads) != horizon:
        raise SchemaError(
            f"agent {agent_id!r}: series length {len(loads)} does not match "
            f"horizon {horizon} ({path})"
        )
    return np.array(loads), np.array(gens)


def load_scenario(config_path) -> Scenario:
    """Read a key-value scenario config.

    Lines look like `key = value`; `#` starts a comment. Agents are declared
    as `agent = <id> <role> <series.csv|-> [name=value ...]`; series files are
    resolved against the config's directory. Each key's text goes through
    its setting's parser (`SETTINGS`), and a value it refuses stops the load
    with `file:line: <key> ...`. A mechanism option or an agent role that the
    config's mechanism does not read (`_MECHANISMS`) is refused, as is a
    series file on an agent that reads parameters and a config without an
    agent of each kind its mechanism needs. The scenario's `sources`
    hold the sha256 of the config's bytes and of each series file's.
    """
    config_path = Path(config_path)
    sources: dict[Path, str] = {}
    keys: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    agent_specs: list[tuple[int, str]] = []
    for ln, raw in enumerate(ingest.read_text(config_path, sources).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{config_path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "agent":
            agent_specs.append((ln, value))
        elif key not in SETTINGS and key != "mechanism":
            raise SchemaError(f"{config_path}:{ln}: unknown key {key!r}")
        elif key in keys:
            raise SchemaError(f"{config_path}:{ln}: key {key!r} given twice "
                              f"(first on line {key_lines[key]})")
        else:
            keys[key] = value
            key_lines[key] = ln

    where = str(config_path)
    at = {key: f"{where}:{ln}" for key, ln in key_lines.items()}
    mechanism = keys.pop("mechanism", "double_auction")
    if mechanism not in MECHANISMS:
        raise SchemaError(f"{at['mechanism']}: unknown mechanism {mechanism!r}")
    roles = _MECHANISMS[mechanism].roles
    readable = {**_COMMON, **_MECHANISMS[mechanism].options}
    values = {}
    for key, text in keys.items():
        if key not in readable:
            owner = next(m for m, spec in _MECHANISMS.items() if key in spec.options)
            raise SchemaError(f"{at[key]}: {key} is read by the {owner} mechanism only, "
                              f"not by {mechanism}")
        try:
            values[key] = readable[key].parse(text)
        except ValueError as exc:
            raise SchemaError(f"{at[key]}: {key} {exc}") from exc
    common = {key: values.pop(key, row.default) for key, row in _COMMON.items()}
    horizon = common["horizon"]
    try:
        tariff = mk.Tariff(p_wp=common.pop("p_wp"), p_rp=common.pop("p_rp"))
    except InputError as exc:  # prices in the wrong order, at least one of them given
        last = max(key_lines.get(key, 0) for key in ("p_wp", "p_rp"))
        raise SchemaError(f"{where}:{last}: {exc}") from exc
    # a bid's limit is p_rp minus the buyer's margin, an ask's p_wp plus the seller's
    for key, cap in (("buyer_margin", tariff.p_rp), ("seller_margin", math.inf)):
        if key in values and not values[key][0] <= values[key][1] <= cap:
            bound = "0 <= lo <= hi" + (f" <= p_rp = {cap}" if cap < math.inf else "")
            raise SchemaError(f"{at[key]}: {key} lo:hi must satisfy {bound}, got {keys[key]}")

    agents: list[AgentProfile] = []
    for ln, decl in agent_specs:
        parts = decl.split()
        if len(parts) < 3:
            raise SchemaError(f"{where}:{ln}: agent needs '<id> <role> <series|-> [k=v ...]'")
        aid, role, series = parts[0], parts[1], parts[2]
        if not any(role in spec.roles for spec in _MECHANISMS.values()):
            raise SchemaError(f"{where}:{ln}: unknown role {role!r}")
        params: dict = {}
        for token in parts[3:]:
            if "=" not in token:
                raise SchemaError(f"{where}:{ln}: bad parameter token {token!r}")
            name, value = token.split("=", 1)
            if name in params:
                raise SchemaError(f"{where}:{ln}: agent {aid!r} parameter {name!r} given twice")
            try:
                params[name] = finite(value)
            except ValueError as exc:
                raise SchemaError(f"{where}:{ln}: agent {aid!r} {name}: {exc}") from exc
        try:
            agent = AgentProfile(aid, role, np.zeros(horizon), np.zeros(horizon), params)
        except KeyError as exc:
            raise SchemaError(f"{where}:{ln}: agent {aid!r} needs parameter {exc}") from exc
        except InputError as exc:
            raise SchemaError(f"{where}:{ln}: {exc}") from exc
        if role not in roles:
            raise SchemaError(f"{where}:{ln}: {role} agent {aid!r} is not read by the "
                              f"{mechanism} mechanism (it reads: {', '.join(roles)})")
        if series != "-":
            if agent.party is not None:
                raise SchemaError(f"{where}:{ln}: {role} agent {aid!r} reads parameters, "
                                  f"not a series; give '-' for {series!r}")
            agent.load, agent.gen = _read_series(config_path.parent / series, horizon, aid,
                                                 sources)
        agents.append(agent)

    if not agents:
        raise SchemaError(f"{where}: no agents declared")
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise SchemaError(f"{where}: duplicate agent ids")
    built = {type(a.party) for a in agents}
    for kind in _MECHANISMS[mechanism].needs:
        if _KINDS[kind][0] not in built:
            raise SchemaError(f"{where}: {mechanism} needs at least one {kind} agent")

    return Scenario(agents, tariff, mechanism, **common, options=values, sources=sources)


# ---------------------------------------------------------------------------
# slot replay
#
# Each mechanism below is called with the scenario and its _Cells and returns
# (chunk, finish). `chunk(first, stop)` lists the outcome of slots first to
# stop - 1 as (cells, amounts) arrays of equal length, in which each cell's
# terms appear in slot order. run_simulation cuts the horizon into chunks of
# slots, in order, and adds each with one np.add.at. np.add.at adds the
# terms of a repeated cell in index order, so each sum adds its terms in
# slot order however the horizon is cut, and the outputs are stable to the
# bit. `finish(per_agent, system)` turns the sums into the summary.

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

    def at(self, column: str, agents) -> np.ndarray:
        """The cell of each of `agents`' `column`, in their order."""
        offset = _AGENT_COLUMNS.index(column)
        return np.array([self._row[a.id] + offset for a in agents], dtype=np.intp)

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
    blo, bhi = scenario.options["buyer_margin"]
    slo, shi = scenario.options["seller_margin"]
    rng = np.random.default_rng(scenario.seed)
    margins = {}
    for agent in sorted(scenario.agents, key=lambda a: a.id):
        margins[agent.id] = (
            float(rng.uniform(blo, bhi)),
            float(rng.uniform(slo, shi)),
        )
    return margins


def _double_auction(scenario: Scenario, cells: _Cells):
    tariff = scenario.tariff
    margins = _draw_margins(scenario)
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    ids = np.array([a.id for a in ordered], dtype=object)
    bid_limit = np.array([tariff.p_rp - margins[a.id][0] for a in ordered])
    ask_limit = np.array([tariff.p_wp + margins[a.id][1] for a in ordered])
    index = {aid: k for k, aid in enumerate(ids.tolist())}

    bill_at, revenue_at = cells.at("bill", ordered), cells.at("revenue", ordered)
    bought_at = cells.at("energy_bought_kwh", ordered)
    sold_at = cells.at("energy_sold_kwh", ordered)
    fit_bill_at, fit_revenue_at = cells.at("fit_bill", ordered), cells.at("fit_revenue", ordered)
    matched, buy_spend, sell_earn = (
        cells.total[name] for name in ("matched_kwh", "buy_spend", "sell_earn")
    )
    grid = [cells.total["grid_import_kwh"], cells.total["grid_export_kwh"]]
    # the settlement dicts in stream order: each one's agent cell and system
    # total for its cash, and for grid trades the agent cell of the kWh
    dict_cells = ((bill_at, buy_spend, None), (revenue_at, sell_earn, None),
                  (bill_at, buy_spend, bought_at), (revenue_at, sell_earn, sold_at))

    def chunk(first: int, stop: int):
        """The terms of slots first to stop - 1, slot by slot: each slot's
        matches, its grid residuals, P2P cash paid and received in
        first-match order, grid charges and credits in merit order, then every
        agent's feed-in term.

        Each slot's settlement dicts are only gathered in bulk; every block
        of terms is then written where cumulative block sizes place it."""
        nets = np.stack([a.gen[first:stop] - a.load[first:stop] for a in ordered], axis=1)
        books = mk._clear_rows(ids, np.where(nets < -1e-12, -nets, 0.0), bid_limit,
                               ids, np.where(nets > 1e-12, nets, 0.0), ask_limit)
        # the four dicts' keys and values, slot by slot and dict by dict, each
        # dict's size, the residual kWh (grid_charge and grid_credit hold the
        # residual dicts' keys in their order) and each slot's grid totals
        payees, cash, size, left, grid_kwh = [], [], [], [], []
        for clearing in books.clearings("marginal_bid"):
            settle = mk.settle_slot(clearing, tariff)
            for paid in (settle.p2p_paid, settle.p2p_received, settle.grid_charge,
                         settle.grid_credit):
                payees += paid
                cash += paid.values()
                size.append(len(paid))
            buys, sells = clearing.residual_buys.values(), clearing.residual_sells.values()
            left += buys
            left += sells
            grid_kwh += (sum(buys), sum(sells))
        slots = len(nets)
        agent = np.fromiter(map(index.__getitem__, payees), np.intp, len(payees))
        cash = np.array(cash, dtype=float)
        size = np.array(size, dtype=np.intp).reshape(slots, 4)
        kind = np.repeat(np.tile(np.arange(4), slots), size.ravel())
        kwh = np.zeros(len(cash))  # each grid charge's or credit's residual kWh
        kwh[kind >= 2] = left

        # per slot: matches, grid totals, the four dicts, feed-in; their
        # entries take 3, 2, 2, 2, 3, 3 and one term per agent
        count = np.column_stack((np.diff(books.bounds), np.ones(slots, np.intp), size,
                                 np.ones(slots, np.intp)))
        terms = count * [3, 2, 2, 2, 3, 3, len(ordered)]
        start = np.cumsum(terms).reshape(terms.shape) - terms
        stream_at, stream_amount = np.empty(int(terms.sum()), np.intp), np.empty(int(terms.sum()))

        def lay(block: int, entry_at, entry_amount) -> None:
            """Write the block's entries, rows of (entries, terms) arrays in
            slot order, one after another from the slot's start of the block."""
            n, width = entry_at.shape
            before = np.cumsum(count[:, block]) - count[:, block]
            place = (np.repeat(start[:, block] - width * before, count[:, block])
                     + width * np.arange(n))[:, None] + np.arange(width)
            stream_at[place] = entry_at
            stream_amount[place] = entry_amount

        lay(0, np.column_stack((np.full(len(books.quantity), matched), bought_at[books.buyer],
                                sold_at[books.seller])), books.quantity[:, None])
        lay(1, np.tile(grid, (slots, 1)), np.reshape(grid_kwh, (slots, 2)))
        for k, (agent_at, total, kwh_at) in enumerate(dict_cells):
            mine = kind == k
            who, paid = agent[mine], cash[mine]
            columns, amounts = [agent_at[who], np.full(len(who), total)], [paid, paid]
            if kwh_at is not None:
                columns.append(kwh_at[who])
                amounts.append(kwh[mine])
            lay(2 + k, np.column_stack(columns), np.column_stack(amounts))
        # a zero net adds +0.0 to a sum of terms >= 0, which leaves it as it is
        lay(6, np.where(nets < 0, fit_bill_at, fit_revenue_at),
            np.where(nets < 0, -nets * tariff.p_rp, np.where(nets > 0, nets * tariff.p_wp, 0.0)))
        return stream_at, stream_amount

    def finish(per_agent: dict, s: dict) -> None:
        buy_kwh = s["matched_kwh"] + s["grid_import_kwh"]
        sell_kwh = s["matched_kwh"] + s["grid_export_kwh"]
        buy_spend, sell_earn = s.pop("buy_spend"), s.pop("sell_earn")
        s["generation_kwh"] = float(sum(a.gen.sum() for a in scenario.agents))
        s["consumption_kwh"] = float(sum(a.load.sum() for a in scenario.agents))
        s["avg_buy_price"] = buy_spend / buy_kwh if buy_kwh > 0 else None
        s["avg_sell_price"] = sell_earn / sell_kwh if sell_kwh > 0 else None

    return chunk, finish


def _population(scenario: Scenario, *kinds):
    """One list per kind of the scenario's mechanism agents, each sorted by id."""
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    return tuple([a.party for a in ordered if isinstance(a.party, kind)] for kind in kinds)


def _ev_clearing(scenario: Scenario):
    """The EV auction that every slot clears: the chargers and dischargers in
    id order, the allocation, the result, and the kWh delivered to each
    charger and sent by each discharger."""
    chargers, dischargers = _population(scenario, evx.ChargingEV, evx.DischargingEV)
    alloc, result = evx.run_iterative_auction(chargers, dischargers, scenario.options["eta"],
                                              scenario.options["eps"])
    return (chargers, dischargers, alloc, result,
            alloc.delivered_per_charger(), alloc.sent_per_discharger())


def _ev_auction(scenario: Scenario, cells: _Cells):
    # vehicles carry parameters, not series: every slot clears the same auction
    chargers, dischargers, alloc, result, delivered, sent = _ev_clearing(scenario)
    eta, tariff = scenario.options["eta"], scenario.tariff

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
        # the one auction's diagnostics, under ev-auction's names
        s["iterations"] = result.trace.iterations
        s["gap"] = result.trace.checks[-1][2]
        s["feasibility_residual"] = result.trace.residual
        sent_total, delivered_total = s["generation_kwh"], s["consumption_kwh"]
        s["matched_kwh"] = delivered_total
        s["loss_kwh"] = sent_total - delivered_total
        if delivered_total > 0:
            bills = sum(per_agent[c.id]["bill"] for c in chargers)
            s["avg_buy_price"] = bills / delivered_total
        if sent_total > 0:
            revenues = sum(per_agent[d.id]["revenue"] for d in dischargers)
            s["avg_sell_price"] = revenues / sent_total

    return _repeated(slot), finish


def _repeated(slot):
    """The chunk of a replay whose every slot lists the packed `slot`: a
    prefix of one tile of it, made at the first chunk, which is the longest."""
    at, amount = slot
    tile = [at[:0], amount[:0]]

    def chunk(first: int, stop: int):
        n = (stop - first) * len(at)
        if len(tile[0]) < n:
            tile[:] = np.tile(at, stop - first), np.tile(amount, stop - first)
        return tile[0][:n], tile[1][:n]

    return chunk


def _members(net: np.ndarray) -> np.ndarray:
    """Which agents join each slot's coalition: those with |net| >= 1e-12."""
    return ~(np.abs(net) < 1e-12)


def _coalition(scenario: Scenario, cells: _Cells):
    tariff = scenario.tariff
    samples = scenario.options["mc_samples"]
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    errors = []  # each sampled member count's largest standard error, chunk by chunk

    bill_at, revenue_at = cells.at("bill", ordered), cells.at("revenue", ordered)
    bought_at = cells.at("energy_bought_kwh", ordered)
    sold_at = cells.at("energy_sold_kwh", ordered)
    fit_bill_at, fit_revenue_at = cells.at("fit_bill", ordered), cells.at("fit_revenue", ordered)
    energy = [cells.total[name] for name in ("generation_kwh", "consumption_kwh", "matched_kwh")]

    def chunk(first: int, stop: int):
        net = np.stack([a.gen[first:stop] - a.load[first:stop] for a in ordered], axis=1)
        member = _members(net)
        size = member.sum(axis=1)
        payoff = np.zeros(net.shape)
        sampled = np.zeros(len(net), dtype=bool)
        # slots of one member count share one batch, their members in id
        # order; a sampled row is seeded by its slot's place in the horizon
        for n in np.unique(size[size > 0]).tolist():
            slots = np.flatnonzero(size == n)
            group = member & (size == n)[:, None]
            # Python ints: a seed may pass int64
            seeds = [scenario.seed + first + slot for slot in slots.tolist()]
            phi, error = co.shapley_payoff_rows(net[group].reshape(-1, n), tariff, samples, seeds)
            payoff[group] = phi.ravel()
            if error is not None:
                sampled[slots] = True
                errors.append(float(error.max()))

        # one entry per member and slot, slot by slot and in id order within a slot
        _, agent = np.nonzero(member)
        e, pay = net[member], payoff[member]
        fit = co._net_value(e, tariff)
        # a slot's totals add its members' nets in id order with Python's sum
        slots = np.flatnonzero(size > 0)
        supply = [sum(row) for row in np.where(member & (net > 0), net, 0.0)[slots].tolist()]
        demand = [sum(row) for row in np.where(member & (net < 0), -net, 0.0)[slots].tolist()]
        counted = np.where(sampled[slots], cells.total["shapley_sampled_slots"],
                           cells.total["shapley_exact_slots"])
        cells_at = np.concatenate([
            np.where(pay >= 0, revenue_at[agent], bill_at[agent]),
            np.where(fit >= 0, fit_revenue_at[agent], fit_bill_at[agent]),
            np.where(e > 0, sold_at[agent], bought_at[agent]),
            counted,
            np.repeat(energy, len(slots)),
        ]).astype(np.intp, copy=False)
        amount = np.concatenate([
            np.where(pay >= 0, pay, -pay),
            np.where(fit >= 0, fit, -fit),
            np.where(e > 0, e, -e),
            np.ones(len(slots)),
            supply, demand, np.minimum(supply, demand),
        ])
        return cells_at, amount

    def finish(per_agent: dict, s: dict) -> None:
        s["grid_import_kwh"] = s["consumption_kwh"] - s["matched_kwh"]
        s["grid_export_kwh"] = s["generation_kwh"] - s["matched_kwh"]
        # blank when no slot was sampled, or under two antithetic pairs left no spread
        s["shapley_standard_error"] = (
            max(errors) if errors and samples >= co.MIN_ERROR_SAMPLES else None)

    return chunk, finish


def _storage(scenario: Scenario, cells: _Cells):
    # units and SFCs carry parameters, not series: every slot clears the same auction
    rus, sfcs = _population(scenario, st.ResidentialUnit, st.SfcAgent)
    out = st.run_storage_auction(rus, sfcs, scenario.options["rule"])

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

    return _repeated(slot), lambda per_agent, s: None


# ---------------------------------------------------------------------------
# baselines


def _settled_baselines(scenario: Scenario, report: MetricsReport) -> list[dict]:
    """Each agent's P2P cost beside its cost under the feed-in tariff."""
    return [{"id": aid, "role": r["role"], "p2p_cost": r["bill"] - r["revenue"],
             "fit_cost": r["fit_bill"] - r["fit_revenue"], "savings": r["savings"],
             "savings_pct": r["savings_pct"]} for aid, r in sorted(report.per_agent.items())]


def _ev_baselines(scenario: Scenario, report: MetricsReport) -> list[dict]:
    """Each vehicle's costs beside the hybrid's, where a buyer may source its
    delivered energy from the grid and a seller sell to it instead."""
    sell_out, buy_back = scenario.options["grid_sell_out"], scenario.options["grid_buy_back"]
    eta_h = evx.DEFAULT_ETA_HYBRID
    rows = []
    for aid in report.agent_ids():  # load_scenario refuses any role but ev
        r = report.per_agent[aid]
        if r["energy_bought_kwh"] > 0:
            hybrid_cost = min(r["bill"], sell_out * r["energy_bought_kwh"] / eta_h)
        elif r["energy_sold_kwh"] > 0:
            hybrid_cost = -max(r["revenue"], buy_back * r["energy_sold_kwh"])
        else:
            hybrid_cost = 0.0
        rows.append({"id": aid, "role": "ev", "p2p_cost": r["bill"] - r["revenue"],
                     "fit_cost": r["fit_bill"] - r["fit_revenue"], "hybrid_cost": hybrid_cost,
                     "savings": r["savings"]})
    return rows


def _storage_baselines(scenario: Scenario, report: MetricsReport) -> list[dict]:
    """Each unit's utility in a slot from an equal share of the SFCs'
    requirement at the Vickrey price, and from its best response to the
    feed-in tariff, over the horizon."""
    rus, sfcs = _population(scenario, st.ResidentialUnit, st.SfcAgent)
    v, p_wp = st.vickrey_price(sfcs), scenario.tariff.p_wp
    total_q = math.fsum(s.requirement for s in sfcs)

    def utility(r: st.ResidentialUnit, price: float, share: float) -> float:
        return (price - r.reservation_price) * share - 0.5 * r.reluctance * share**2

    return [{"id": r.id, "role": "residential_unit",
             "p2p_utility": report.per_agent[r.id]["utility"],
             "ed_utility": utility(r, v, min(total_q / len(rus), r.capacity)) * scenario.horizon,
             "fit_utility": utility(r, p_wp, st.follower_best_response(r, p_wp))
             * scenario.horizon}
            for r in rus]


_NO_ED = "ed baseline applies to storage_auction scenarios only"
_NO_HYBRID = "hybrid baseline applies to ev_auction scenarios only"


class _Setting(NamedTuple):
    default: object  # a callable one reads the tariff
    parse: Callable  # a config key's or a flag's text -> value; a ValueError says why not


def _price_span(text: str) -> tuple[float, float]:
    """A margin's `lo:hi`, or `lo` alone for lo:lo, each a PRICE."""
    lo, _, hi = text.partition(":")
    return PRICE(lo), PRICE(hi or lo)


# the settings of every scenario, besides `mechanism`
_COMMON = {
    "horizon": _Setting(1, ingest.integer(1, 105_408)),  # 366 days of 5-minute slots
    # at most one day: the synthetic profiles place each slot at its hour of the day,
    # which a longer slot would skip, and scale kW to kWh per slot by slot_minutes / 60
    "slot_minutes": _Setting(15, ingest.integer(1, 1_440)),
    "seed": _Setting(0, ingest.integer(0)),
    "p_wp": _Setting(mk.DEFAULT_TARIFF.p_wp, PRICE),
    "p_rp": _Setting(mk.DEFAULT_TARIFF.p_rp, PRICE),
}


class _Mechanism(NamedTuple):
    roles: tuple  # the agent roles it reads
    needs: tuple  # the _KINDS it needs at least one agent of
    options: dict  # the settings it reads besides _COMMON's
    replay: Callable  # (scenario, cells) -> (chunk, finish), see "slot replay"
    totals: dict  # the system totals it adds beyond the summary columns, and their types
    baselines: Callable  # (scenario, report) -> compare_baselines' rows
    notes: tuple  # why compare_baselines omits the columns it omits


_MECHANISMS = {
    "double_auction": _Mechanism(
        ("consumer", "prosumer"), (),
        {"buyer_margin": _Setting((0.02, 0.10), _price_span),
         "seller_margin": _Setting((0.02, 0.10), _price_span)},
        _double_auction, {"buy_spend": float, "sell_earn": float},
        _settled_baselines, (_NO_ED, _NO_HYBRID)),
    "ev_auction": _Mechanism(
        ("ev",), ("charging ev", "discharging ev"),
        {"eta": _Setting(evx.DEFAULT_ETA, ingest.finite_over(0.0, 1.0)),
         "eps": _Setting(evx.DEFAULT_EPS, ingest.finite_over(0.0)),
         "grid_sell_out": _Setting(attrgetter("p_rp"), PRICE),
         "grid_buy_back": _Setting(attrgetter("p_wp"), PRICE)},
        _ev_auction, {"converged_slots": int}, _ev_baselines, (_NO_ED,)),
    "coalition": _Mechanism(
        ("consumer", "prosumer"), (),
        {"mc_samples": _Setting(co.DEFAULT_SAMPLES, ingest.integer(1, co.MAX_SAMPLES))},
        _coalition, {"shapley_exact_slots": int, "shapley_sampled_slots": int},
        _settled_baselines, (_NO_ED, _NO_HYBRID)),
    "storage_auction": _Mechanism(
        ("residential_unit", "sfc"), ("residential_unit", "sfc"),
        {"rule": _Setting(st.PROPORTIONAL, ingest.Choice((st.PROPORTIONAL, st.EQUAL)))},
        _storage, {}, _storage_baselines, (_NO_HYBRID,)),
}
MECHANISMS = tuple(_MECHANISMS)
# every config key besides `mechanism` and `agent`, and its setting; load_scenario
# refuses any other key, and the command-line flags of a setting take its parser
SETTINGS = {**_COMMON, **{k: v for spec in _MECHANISMS.values() for k, v in spec.options.items()}}
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
    spec = _MECHANISMS[scenario.mechanism]
    totals = {**dict.fromkeys(_ENERGY_TOTALS, float), **spec.totals}
    cells = _Cells(scenario.agents, totals)
    chunk, finish = spec.replay(scenario, cells)
    sums = np.zeros(cells.size)
    # a chunk's nets, merge, clearings and terms stay within about _CHUNK_BYTES
    size = max(1, _CHUNK_BYTES // (_SLOT_ORDER_BYTES * len(scenario.agents)))
    for first in range(0, scenario.horizon, size):
        np.add.at(sums, *chunk(first, min(first + size, scenario.horizon)))

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


def compare_baselines(scenario: Scenario, report: MetricsReport):
    """(rows, notes): each agent of `scenario`, whose run_simulation result is
    `report`, against its mechanism's baselines, and why the columns that
    make no sense for the mechanism are omitted."""
    spec = _MECHANISMS[scenario.mechanism]
    return spec.baselines(scenario, report), list(spec.notes)


# ---------------------------------------------------------------------------
# parameter sweeps


def _supplier_count(scenario: Scenario, counts: list) -> list[dict]:
    """A coalition drawn from the seed per count of suppliers, with the
    config's consumers (at least 3), tariff and sample count."""
    n_users = max(sum(1 for a in scenario.agents if a.role == "consumer"), 3)
    return co.supplier_count_sweep(scenario.seed, counts, n_users=n_users,
                                   tariff=scenario.tariff, samples=scenario.options["mc_samples"])


def _solar_fraction(scenario: Scenario, fractions: list) -> list[dict]:
    """The community's value with that share of its generating agents on a
    solar profile and the rest on wind."""
    suppliers = [a for a in scenario.agents if a.gen.sum() > 0]
    if not suppliers:
        raise InputError("solar_fraction sweep needs generating agents")
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    rows = []
    for frac in fractions:
        rng = np.random.default_rng(scenario.seed)
        n_solar = int(round(frac * len(suppliers)))
        solar_ids = {a.id for a in suppliers[:n_solar]}
        gens = {}
        for a in suppliers:
            # mean kWh per slot as kW
            scale = float(a.gen.sum()) / max(scenario.horizon, 1) * (60 / scenario.slot_minutes)
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


def _sfc_requirement(scenario: Scenario, totals: list) -> list[dict]:
    """The storage auction with the SFCs' requirements scaled to each total."""
    rus, sfcs = _population(scenario, st.ResidentialUnit, st.SfcAgent)
    return st.requirement_sweep(rus, sfcs, totals, rule=scenario.options["rule"])


def _grid_price(scenario: Scenario, prices: list) -> list[dict]:
    """The EV auction's energy traded directly, at the config's eta, beside
    the same energy bought through the grid at each sell-out price."""
    chargers, dischargers, _, result, delivered, sent = _ev_clearing(scenario)
    eta, buy_back = scenario.options["eta"], scenario.options["grid_buy_back"]
    buyers = tuple(evx.HybridBuyer(c.id, float(delivered[i]))
                   for i, c in enumerate(chargers) if delivered[i] > 1e-9)
    price = result.settlement.price or scenario.tariff.p_rp
    sellers = tuple(evx.HybridSeller(s.id, float(sent[j]), price * eta)
                    for j, s in enumerate(dischargers) if sent[j] > 1e-9)
    # the direct trade moves the auction's energy at the auction's eta
    p2p = evx.simulate_trading(buyers, sellers, eta)
    hybrid = [evx.simulate_trading(buyers, sellers, evx.DEFAULT_ETA_HYBRID,
                                   grid_sell_price=v, grid_buy_price=buy_back) for v in prices]
    return [{"grid_sell_out_price": v,
             "p2p_avg_buying_price": p2p["avg_buying_price"],
             "hybrid_avg_buying_price": h["avg_buying_price"],
             "p2p_transmitted_kwh": p2p["transmitted_kwh"],
             "hybrid_transmitted_kwh": h["transmitted_kwh"]}
            for v, h in zip(prices, hybrid)]


class _Sweep(NamedTuple):
    mechanisms: tuple  # the mechanisms whose scenarios it reads
    parse: Callable  # a value's text -> value; a ValueError says why not
    run: Callable  # (scenario, parsed values) -> one table row per value


# every sweep parameter and its row, whose parser reads each `sweep --values` item
SWEEPS = {
    # a supplier_count sweep draws one series per supplier and samples Shapley
    # values over all of them, so its work grows with the count
    "supplier_count": _Sweep(("coalition",), ingest.integer(1, 200), _supplier_count),
    "solar_fraction": _Sweep(("double_auction", "coalition"), ingest.Range("", 0.0, 1.0),
                             _solar_fraction),
    "sfc_requirement": _Sweep(("storage_auction",), ENERGY, _sfc_requirement),
    "grid_price": _Sweep(("ev_auction",), PRICE, _grid_price),
}


def sweep(scenario: Scenario, parameter: str, values) -> list[dict]:
    """One table row per value, every value under the scenario's seed.

    Each value is parsed, as text, by the parameter's row of SWEEPS before
    anything is drawn; a value it refuses, or a scenario of a mechanism the
    row does not name, raises InputError.
    """
    row = SWEEPS.get(parameter)
    if row is None:
        raise InputError(f"unknown sweep parameter {parameter!r}; "
                         f"choose one of {', '.join(SWEEPS)}")
    parsed = []
    for text in map(str, values):
        try:
            parsed.append(row.parse(text))
        except ValueError as exc:
            raise InputError(f"{parameter} {exc}") from exc
    if not parsed:
        return []
    if scenario.mechanism not in row.mechanisms:
        owners = " and ".join(row.mechanisms)
        raise InputError(f"{parameter} sweep is read by the {owners} mechanism"
                         f"{'s' * (len(row.mechanisms) > 1)} only, not by {scenario.mechanism}")
    return row.run(scenario, parsed)
