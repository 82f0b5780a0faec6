"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's own algorithms: volumes come from a
max-flow over half-kWh units, welfare from an assignment solver, a slot's
double-auction clearing from one row object per order and key-sorted lists,
a double-auction scenario from that clearing replayed slot by slot into
dicts, a double-auction replay's stream of terms from one settlement entry
at a time (it shares the merge with the replay, not the settlement or the
layout), a coalition scenario from one Shapley division per slot replayed
into dicts, optimal EV welfare from exhaustive grid search, Shapley values
from direct enumeration, a per-player subset loop, one in exact rational
arithmetic or the two-halves split run one instance at a time,
a sampled Shapley estimate from all its antithetic join-order pairs as
whole arrays (independent join orders in whole batches are kept as the
variance baseline),
superadditivity from all 3^N disjoint pairs, the core check from all 2^N
coalitions, the storage leader's price from a search over the whole price
grid (it shares no code with the package), a storage auction from the
scalar steps priced by that grid search (it shares the screen, the best
response and the oversupply split with `run_storage_auction`, but neither
the pricing kernel nor the batch settlement), the incentive-compatibility
report and the requirement sweep from one such auction per report or total,
the EV transfer-polytope projection from one capped-sum projection per
row and per column in each Dykstra cycle, a CSV cell's text from an
isinstance chain alone, and cyclic best-response dynamics on a finite game
(the package only enumerates equilibria; criterion 9 checks that every
profile these dynamics settle on is one of them). `compare_hybrid` is a helper, not an oracle: it runs
the package's `simulate_trading` direct and grid-assisted on one scenario.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from gridswap import coalition as co
from gridswap import ev as evx
from gridswap import market as mk
from gridswap import synth
from gridswap.errors import InputError
from gridswap.storage import (
    IcReport,
    ResidentialUnit,
    SfcAgent,
    StorageAuctionOutcome,
    allocate_shares,
    determine_participants,
    follower_best_response,
    ru_realized_utility,
)


def _units(orders, unit):
    """Expand (id, qty, price) orders into per-unit prices."""
    prices = []
    for _, qty, price in orders:
        n = int(round(qty / unit))
        prices.extend([price] * n)
    return prices


def max_crossing_volume(buys, sells, unit=0.5):
    """Maximum volume tradable at a single uniform price.

    Orders are (agent_id, quantity, limit_price) tuples. Every candidate
    price is tried exhaustively; at price p the tradable volume is
    min(demand willing to pay >= p, supply willing to accept <= p).
    """
    bid_units = _units(buys, unit)
    ask_units = _units(sells, unit)
    if not bid_units or not ask_units:
        return 0.0
    best = 0
    for p in sorted(set(bid_units) | set(ask_units)):
        demand = sum(1 for b in bid_units if b >= p)
        supply = sum(1 for a in ask_units if a <= p)
        best = max(best, min(demand, supply))
    return best * unit


def max_crossing_welfare(buys, sells, unit=0.5):
    """Maximum total (bid - ask) surplus over all unit matchings."""
    bid_units = _units(buys, unit)
    ask_units = _units(sells, unit)
    if not bid_units or not ask_units:
        return 0.0
    # pad to square with zero-value dummies; crossing-violating pairs get 0,
    # same as leaving the units unmatched
    n = max(len(bid_units), len(ask_units))
    w = np.zeros((n, n))
    for i, bp in enumerate(bid_units):
        for j, ap in enumerate(ask_units):
            if bp >= ap:
                w[i, j] = bp - ap
    r, c = linear_sum_assignment(w, maximize=True)
    return float(w[r, c].sum()) * unit


@dataclass(frozen=True)
class OrderRow:
    """One limit order as its own object, as the clearing loop reads it."""

    agent_id: str
    quantity: float
    limit_price: float


@dataclass
class LoopClearing:
    clearing_price: float | None
    matches: list  # (buyer id, seller id, quantity)
    residual_buys: dict
    residual_sells: dict
    matched_volume: float


def clear_double_auction_loop(buys, sells, pricing="marginal_bid"):
    """Merit-order clearing of (agent_id, quantity, limit_price) orders, one
    row object per order.

    Each side is a list sorted by a key of (price, agent id, submission
    index); the merge then walks both lists one order at a time, and the
    residuals are summed per agent in merit order.
    """
    bids = sorted(
        ((OrderRow(*o), k) for k, o in enumerate(buys)),
        key=lambda ok: (-ok[0].limit_price, ok[0].agent_id, ok[1]),
    )
    asks = sorted(
        ((OrderRow(*o), k) for k, o in enumerate(sells)),
        key=lambda ok: (ok[0].limit_price, ok[0].agent_id, ok[1]),
    )
    remaining_bid = [float(o.quantity) for o, _ in bids]
    remaining_ask = [float(o.quantity) for o, _ in asks]
    matches = []
    marginal_bid = marginal_ask = None
    volume = 0.0
    i = j = 0
    while i < len(bids) and j < len(asks):
        buy, ask = bids[i][0], asks[j][0]
        if buy.limit_price < ask.limit_price:
            break
        qty = min(remaining_bid[i], remaining_ask[j])
        matches.append((buy.agent_id, ask.agent_id, qty))
        marginal_bid = buy.limit_price
        marginal_ask = ask.limit_price
        volume += qty
        remaining_bid[i] -= qty
        remaining_ask[j] -= qty
        if remaining_bid[i] <= 0:
            i += 1
        if remaining_ask[j] <= 0:
            j += 1

    if not matches:
        price = None
    elif pricing == "marginal_bid":
        price = marginal_bid
    else:
        price = (marginal_bid + marginal_ask) / 2.0

    residual_buys, residual_sells = {}, {}
    for (o, _), rem in zip(bids, remaining_bid):
        if rem > 0:
            residual_buys[o.agent_id] = residual_buys.get(o.agent_id, 0.0) + rem
    for (o, _), rem in zip(asks, remaining_ask):
        if rem > 0:
            residual_sells[o.agent_id] = residual_sells.get(o.agent_id, 0.0) + rem
    return LoopClearing(price, matches, residual_buys, residual_sells, volume)


def settle_loop(clearing, tariff):
    """A `clear_double_auction_loop` clearing settled one match and one
    residual at a time: (P2P paid, P2P received, grid charge, grid credit),
    each a dict of agent id -> $ in first-entry order."""
    paid, received, charge, credit = {}, {}, {}, {}
    for buyer, seller, qty in clearing.matches:
        cash = qty * clearing.clearing_price
        paid[buyer] = paid.get(buyer, 0.0) + cash
        received[seller] = received.get(seller, 0.0) + cash
    for aid, qty in clearing.residual_buys.items():
        charge[aid] = charge.get(aid, 0.0) + qty * tariff.p_rp
    for aid, qty in clearing.residual_sells.items():
        credit[aid] = credit.get(aid, 0.0) + qty * tariff.p_wp
    return paid, received, charge, credit


def sum_left_to_right(values) -> float:
    """0.0 plus each value in turn, uncompensated (from Python 3.12 the
    builtin `sum` of floats is compensated)."""
    total = 0.0
    for value in values:
        total += value
    return total


def double_auction_replay_loop(scenario):
    """A double-auction scenario replayed one slot at a time into dicts.

    Each slot lists its outcome as (agent id or None, column, amount) triples
    and adds them to the per-agent rows or the system totals in list order.
    Orders come from the agents' scalar nets, clearing from
    `clear_double_auction_loop` and settlement from `settle_loop`. Returns
    (per_agent, system) as run_simulation reports them.
    """
    tariff = scenario.tariff
    blo, bhi = scenario.options.get("buyer_margin", (0.02, 0.10))
    slo, shi = scenario.options.get("seller_margin", (0.02, 0.10))
    rng = np.random.default_rng(scenario.seed)
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    margins = {a.id: (float(rng.uniform(blo, bhi)), float(rng.uniform(slo, shi)))
               for a in ordered}

    columns = ("bill", "revenue", "fit_bill", "fit_revenue", "energy_bought_kwh",
               "energy_sold_kwh", "utility")
    per_agent = {a.id: {"role": a.role, **dict.fromkeys(columns, 0.0)} for a in scenario.agents}
    system = dict.fromkeys(("matched_kwh", "grid_import_kwh", "grid_export_kwh", "loss_kwh",
                            "generation_kwh", "consumption_kwh", "buy_spend", "sell_earn"), 0.0)
    for t in range(scenario.horizon):
        buys, sells = [], []
        for agent in ordered:
            net = float(agent.gen[t] - agent.load[t])
            bmar, smar = margins[agent.id]
            if net > 1e-12:
                sells.append((agent.id, net, tariff.p_wp + smar))
            elif net < -1e-12:
                buys.append((agent.id, -net, tariff.p_rp - bmar))
        c = clear_double_auction_loop(buys, sells)
        paid, received, charge, credit = settle_loop(c, tariff)

        out = []
        for buyer, seller, qty in c.matches:
            out.append((None, "matched_kwh", qty))
            out.append((buyer, "energy_bought_kwh", qty))
            out.append((seller, "energy_sold_kwh", qty))
        out.append((None, "grid_import_kwh", sum_left_to_right(c.residual_buys.values())))
        out.append((None, "grid_export_kwh", sum_left_to_right(c.residual_sells.values())))
        for aid, cash in paid.items():
            out += [(aid, "bill", cash), (None, "buy_spend", cash)]
        for aid, cash in received.items():
            out += [(aid, "revenue", cash), (None, "sell_earn", cash)]
        for aid, cash in charge.items():
            out += [(aid, "bill", cash), (None, "buy_spend", cash)]
            out.append((aid, "energy_bought_kwh", c.residual_buys[aid]))
        for aid, cash in credit.items():
            out += [(aid, "revenue", cash), (None, "sell_earn", cash)]
            out.append((aid, "energy_sold_kwh", c.residual_sells[aid]))
        for agent in scenario.agents:
            net = float(agent.gen[t] - agent.load[t])
            if net < 0:
                out.append((agent.id, "fit_bill", -net * tariff.p_rp))
            elif net > 0:
                out.append((agent.id, "fit_revenue", net * tariff.p_wp))
        for aid, column, amount in out:
            (system if aid is None else per_agent[aid])[column] += amount

    buy_kwh = system["matched_kwh"] + system["grid_import_kwh"]
    sell_kwh = system["matched_kwh"] + system["grid_export_kwh"]
    buy_spend, sell_earn = system.pop("buy_spend"), system.pop("sell_earn")
    system["generation_kwh"] = float(sum(a.gen.sum() for a in scenario.agents))
    system["consumption_kwh"] = float(sum(a.load.sum() for a in scenario.agents))
    system["avg_buy_price"] = buy_spend / buy_kwh if buy_kwh > 0 else None
    system["avg_sell_price"] = sell_earn / sell_kwh if sell_kwh > 0 else None
    for row in per_agent.values():
        p2p_cost = row["bill"] - row["revenue"]
        fit_cost = row["fit_bill"] - row["fit_revenue"]
        row["savings"] = fit_cost - p2p_cost
        row["savings_pct"] = 100.0 * (fit_cost - p2p_cost) / fit_cost if fit_cost > 1e-12 else None
    system["energy_balance_residual_kwh"] = (
        system["generation_kwh"] + system["grid_import_kwh"] - system["consumption_kwh"]
        - system["grid_export_kwh"] - system["loss_kwh"]
    )
    return per_agent, system


def double_auction_stream_loop(scenario, cells, first, stop):
    """The (cells, amounts) stream of a double-auction replay's slots first
    to stop - 1, laid out one slot and one settlement entry at a time.

    It clears the slots as one merge, as the replay does, settles each slot
    with `settle_loop`, then lists each slot's terms into Python lists: the
    matches, the two grid residual totals, P2P cash paid and received, grid
    charges and credits with their kWh, then one feed-in term per agent in
    id order. `cells` is the replay's `_Cells`.
    """
    tariff = scenario.tariff
    blo, bhi = scenario.options.get("buyer_margin", (0.02, 0.10))
    slo, shi = scenario.options.get("seller_margin", (0.02, 0.10))
    rng = np.random.default_rng(scenario.seed)
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    margins = [(float(rng.uniform(blo, bhi)), float(rng.uniform(slo, shi))) for _ in ordered]
    ids = np.array([a.id for a in ordered], dtype=object)
    bid_limit = np.array([tariff.p_rp - b for b, _ in margins])
    ask_limit = np.array([tariff.p_wp + s for _, s in margins])

    def column(name):
        """Agent id -> the cell of that agent's `name` column."""
        return dict(zip(ids.tolist(), cells.at(name, ordered).tolist()))

    bill, revenue = column("bill"), column("revenue")
    bought, sold = column("energy_bought_kwh"), column("energy_sold_kwh")
    fit_bill, fit_revenue = column("fit_bill"), column("fit_revenue")
    total = cells.total

    nets = np.stack([a.gen[first:stop] - a.load[first:stop] for a in ordered], axis=1)
    books = mk._clear_rows(ids, np.where(nets < -1e-12, -nets, 0.0), bid_limit,
                           ids, np.where(nets > 1e-12, nets, 0.0), ask_limit)
    at, amount = [], []
    for t, clearing in enumerate(books.clearings("marginal_bid")):
        matches = list(zip(clearing.buyer_ids, clearing.seller_ids, clearing.quantities))
        paid, received, charge, credit = settle_loop(
            LoopClearing(clearing.clearing_price, matches, clearing.residual_buys,
                         clearing.residual_sells, clearing.matched_volume), tariff)
        for buyer, seller, qty in matches:
            at += (total["matched_kwh"], bought[buyer], sold[seller])
            amount += (qty, qty, qty)
        at += (total["grid_import_kwh"], total["grid_export_kwh"])
        amount += (sum_left_to_right(clearing.residual_buys.values()),
                   sum_left_to_right(clearing.residual_sells.values()))
        for aid, cash in paid.items():
            at += (bill[aid], total["buy_spend"])
            amount += (cash, cash)
        for aid, cash in received.items():
            at += (revenue[aid], total["sell_earn"])
            amount += (cash, cash)
        for aid, cash in charge.items():
            at += (bill[aid], total["buy_spend"], bought[aid])
            amount += (cash, cash, clearing.residual_buys[aid])
        for aid, cash in credit.items():
            at += (revenue[aid], total["sell_earn"], sold[aid])
            amount += (cash, cash, clearing.residual_sells[aid])
        for agent, net in zip(ordered, nets[t].tolist()):
            if net < 0:
                at.append(fit_bill[agent.id])
                amount.append(-net * tariff.p_rp)
            else:
                at.append(fit_revenue[agent.id])
                amount.append(net * tariff.p_wp if net > 0 else 0.0)
    return np.array(at, dtype=np.intp), np.array(amount, dtype=float)


def coalition_replay_loop(scenario):
    """A coalition scenario replayed one slot at a time into dicts.

    Each slot's coalition holds the agents with |net| >= 1e-12 in id order.
    Its payoffs come from `shapley_split_reference` up to the exact limit and
    from one seeded `shapley_monte_carlo` above it; the slot lists its outcome
    as (agent id or None, column, amount) triples added in list order. The
    largest standard error of a sampled slot is the system's
    `shapley_standard_error`. Returns (per_agent, system) as run_simulation
    reports them.
    """
    tariff = scenario.tariff
    samples = scenario.options.get("mc_samples", 20_000)
    columns = ("bill", "revenue", "fit_bill", "fit_revenue", "energy_bought_kwh",
               "energy_sold_kwh", "utility")
    per_agent = {a.id: {"role": a.role, **dict.fromkeys(columns, 0.0)} for a in scenario.agents}
    system = dict.fromkeys(("matched_kwh", "grid_import_kwh", "grid_export_kwh", "loss_kwh",
                            "generation_kwh", "consumption_kwh"), 0.0)
    system.update(shapley_exact_slots=0.0, shapley_sampled_slots=0.0)
    errors = []  # each sampled slot's largest standard error
    for t in range(scenario.horizon):
        customers = []
        for agent in sorted(scenario.agents, key=lambda a: a.id):
            net = float(agent.gen[t] - agent.load[t])
            if abs(net) < 1e-12:
                continue
            customers.append(co.Customer(agent.id, co.SUPPLIER if net > 0 else co.USER, net))
        if not customers:
            continue
        inst = co.CoalitionInstance(tuple(customers), tariff)
        if inst.n <= co._EXACT_LIMIT:
            payoffs = shapley_split_reference(inst)
            out = [(None, "shapley_exact_slots", 1)]
        else:
            alloc = co.shapley_monte_carlo(inst, samples, scenario.seed + t)
            payoffs = alloc.payoffs
            if alloc.standard_error is not None:
                errors.append(max(alloc.standard_error.values()))
            out = [(None, "shapley_sampled_slots", 1)]
        for c in inst.customers:
            payoff = payoffs[c.id]
            out.append((c.id, "revenue", payoff) if payoff >= 0 else (c.id, "bill", -payoff))
            # the feed-in tariff: surplus sold at p_wp, deficiency bought at p_rp
            fit = (tariff.p_wp if c.net_energy > 0 else tariff.p_rp) * c.net_energy
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
        for aid, column, amount in out:
            (system if aid is None else per_agent[aid])[column] += amount

    system["shapley_exact_slots"] = int(system["shapley_exact_slots"])
    system["shapley_sampled_slots"] = int(system["shapley_sampled_slots"])
    system["shapley_standard_error"] = max(errors, default=None)
    system["avg_buy_price"] = None
    system["avg_sell_price"] = None
    system["grid_import_kwh"] = system["consumption_kwh"] - system["matched_kwh"]
    system["grid_export_kwh"] = system["generation_kwh"] - system["matched_kwh"]
    for row in per_agent.values():
        p2p_cost = row["bill"] - row["revenue"]
        fit_cost = row["fit_bill"] - row["fit_revenue"]
        row["savings"] = fit_cost - p2p_cost
        row["savings_pct"] = 100.0 * (fit_cost - p2p_cost) / fit_cost if fit_cost > 1e-12 else None
    system["energy_balance_residual_kwh"] = (
        system["generation_kwh"] + system["grid_import_kwh"] - system["consumption_kwh"]
        - system["grid_export_kwh"] - system["loss_kwh"]
    )
    return per_agent, system


def solar_fraction_loop(scenario, fractions):
    """The solar_fraction sweep's rows, each slot's coalition built from
    Customers and valued by `coalition_value`, the values added slot by slot.

    Each fraction redraws the generating agents' series from the scenario
    seed: solar for the first round(fraction * suppliers), wind for the rest.
    """
    rows = []
    suppliers = [a for a in scenario.agents if a.gen.sum() > 0]
    for frac in fractions:
        rng = np.random.default_rng(scenario.seed)
        solar_ids = {a.id for a in suppliers[:int(round(frac * len(suppliers)))]}
        gens = {}
        for a in suppliers:
            # mean kWh per slot as kW
            scale = float(a.gen.sum()) / max(scenario.horizon, 1) * (60 / scenario.slot_minutes)
            draw = synth.solar_series if a.id in solar_ids else synth.wind_series
            gens[a.id] = draw(rng, scenario.horizon, scenario.slot_minutes, scale)
        total_value = 0.0
        for t in range(scenario.horizon):
            customers = []
            for agent in sorted(scenario.agents, key=lambda a: a.id):
                net = float(gens.get(agent.id, agent.gen)[t] - agent.load[t])
                if abs(net) >= 1e-12:
                    customers.append(
                        co.Customer(agent.id, co.SUPPLIER if net > 0 else co.USER, net))
            if customers:
                total_value += co.coalition_value(customers, scenario.tariff)
        rows.append({"solar_fraction": float(frac), "community_value": total_value})
    return rows


def bisect_scalar_root(f, lo, hi, iters=200):
    """Root of a monotone scalar function by plain bisection."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ev_welfare_of(d, chargers, dischargers, eta):
    """Social welfare of a sent-energy matrix d[j, i], computed directly."""
    d = np.asarray(d, dtype=float)
    total = 0.0
    for i, ev in enumerate(chargers):
        arg = eta * d[:, i].sum() - ev.c_min + 1.0
        total += ev.w * math.log(arg)
    for j, ev in enumerate(dischargers):
        total -= ev.l1 * (d[j, :] ** 2).sum() + ev.l2 * d[j, :].sum()
    return total


def ev_grid_oracle_2x2(chargers, dischargers, eta, step=0.1, refine_step=0.01):
    """Exhaustive grid search for the 2x2 EV welfare optimum.

    Pass 1 scans delivered-energy flows c[i][j] on a `step` lattice using a
    prefix-max table to absorb the discharger capacity coupling; pass 2
    re-scans a `refine_step` window around the incumbent. Returns
    (coarse_best, refined_best).
    """
    assert len(chargers) == 2 and len(dischargers) == 2
    cap = [eta * dv.d_max for dv in dischargers]  # delivered-kWh capacity per discharger

    def column_values(i, g1, g2):
        """Welfare contribution of charger i fed (x from D1, y from D2)."""
        X, Y = np.meshgrid(g1, g2, indexing="ij")
        tot = X + Y
        ev = chargers[i]
        arg = tot - ev.c_min + 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            util = ev.w * np.log(np.where(arg > 0, arg, np.nan))
        cost = (
            dischargers[0].l1 * (X / eta) ** 2
            + dischargers[0].l2 * (X / eta)
            + dischargers[1].l1 * (Y / eta) ** 2
            + dischargers[1].l2 * (Y / eta)
        )
        v = util - cost
        bad = ~((tot >= ev.c_min - 1e-12) & (tot <= ev.c_max + 1e-12)) | np.isnan(v)
        v = np.where(bad, -np.inf, v)
        return v

    def lattice_best():
        g1 = np.arange(0.0, cap[0] + step / 2, step)
        g2 = np.arange(0.0, cap[1] + step / 2, step)
        v0 = column_values(0, g1, g2)
        v1 = column_values(1, g1, g2)
        # prefix max of column 1's value over capacity budgets
        pm = np.maximum.accumulate(np.maximum.accumulate(v1, axis=0), axis=1)
        n1, n2 = len(g1), len(g2)
        best = -np.inf
        arg = (0.0, 0.0, 0.0, 0.0)
        # remaining capacity indices for every column-0 choice
        rem1 = np.floor((cap[0] - g1) / step + 1e-9).astype(int)
        rem2 = np.floor((cap[1] - g2) / step + 1e-9).astype(int)
        r1 = np.clip(rem1, 0, n1 - 1)
        r2 = np.clip(rem2, 0, n2 - 1)
        total = v0 + pm[np.ix_(r1, r2)]
        k = np.unravel_index(np.argmax(total), total.shape)
        best = total[k]
        # recover the column-1 argmax inside the budget
        sub = v1[: r1[k[0]] + 1, : r2[k[1]] + 1]
        k1 = np.unravel_index(np.argmax(sub), sub.shape)
        arg = (g1[k[0]], g2[k[1]], g1[k1[0]], g2[k1[1]])
        return best, arg

    coarse, (a, b, c, d) = lattice_best()

    def window(center, hi):
        lo = max(0.0, center - 1.5 * step)
        hi2 = min(hi, center + 1.5 * step)
        n = max(2, int(round((hi2 - lo) / refine_step)) + 1)
        return np.linspace(lo, hi2, n)

    g1a, g2a = window(a, cap[0]), window(b, cap[1])
    g1b, g2b = window(c, cap[0]), window(d, cap[1])
    v0 = column_values(0, g1a, g2a).ravel()
    v1 = column_values(1, g1b, g2b).ravel()
    xa = np.add.outer(np.repeat(g1a, len(g2a)), np.repeat(g1b, len(g2b)))
    ya = np.add.outer(np.tile(g2a, len(g1a)), np.tile(g2b, len(g1b)))
    ok = (xa <= cap[0] + 1e-12) & (ya <= cap[1] + 1e-12)
    tot = v0[:, None] + v1[None, :]
    tot = np.where(ok, tot, -np.inf)
    refined = float(tot.max())
    return float(coarse), max(float(coarse), refined)


def shapley_enumeration(ids, value_of):
    """Shapley values by direct enumeration over all join orders."""
    n = len(ids)
    phi = {i: 0.0 for i in ids}
    for perm in itertools.permutations(ids):
        running = []
        prev = 0.0
        for pid in perm:
            running.append(pid)
            v = value_of(frozenset(running))
            phi[pid] += v - prev
            prev = v
    total = math.factorial(n)
    return {i: phi[i] / total for i in ids}


def _subset_values_loop(instance):
    """v of every bitmask subset, built one mask at a time from its lowest bit."""
    energies = [c.net_energy for c in instance.customers]
    n = len(energies)
    sums = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + energies[low.bit_length() - 1]
    pwp, prp = instance.tariff.p_wp, instance.tariff.p_rp
    return pwp * np.maximum(sums, 0.0) - prp * np.maximum(-sums, 0.0)


def is_superadditive_enumeration(instance):
    """Check v(S u T) >= v(S) + v(T) - 1e-12 over every disjoint nonempty pair.

    Returns (True, None) or (False, (ids_S, ids_T)) for the first violation in
    mask order.
    """
    n = instance.n
    values = _subset_values_loop(instance)
    full = (1 << n) - 1
    ids = [c.id for c in instance.customers]
    for s_mask in range(1, full + 1):
        rest = full ^ s_mask
        t_mask = rest
        # enumerate nonempty submasks of the complement
        while t_mask:
            if values[s_mask | t_mask] < values[s_mask] + values[t_mask] - 1e-12:
                pick = lambda m: tuple(ids[k] for k in range(n) if m >> k & 1)
                return False, (pick(s_mask), pick(t_mask))
            t_mask = (t_mask - 1) & rest
    return True, None


def in_core_enumeration(allocation, instance):
    """The largest v(S) - x(S) over all 2^N - 1 nonempty coalitions, and the ids
    of the first coalition in mask order attaining it. Each x(S) is built one
    mask at a time from its lowest bit, as the values are.
    """
    n = instance.n
    values = _subset_values_loop(instance)
    x = [allocation.payoffs[c.id] for c in instance.customers]
    paid = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        paid[mask] = paid[mask ^ low] + x[low.bit_length() - 1]
    gaps = values[1:] - paid[1:]
    worst = int(np.argmax(gaps)) + 1
    ids = tuple(c.id for k, c in enumerate(instance.customers) if worst >> k & 1)
    return float(gaps[worst - 1]), ids


def shapley_exact_loop(instance):
    """Exact Shapley payoffs by id, one player at a time, its subsets added in mask order."""
    n = instance.n
    values = _subset_values_loop(instance)
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    masks = np.arange(1 << n)
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    payoffs = {}
    for i, c in enumerate(instance.customers):
        bit = 1 << i
        without = masks[masks & bit == 0]
        terms = weights[sizes[without]] * (values[without | bit] - values[without])
        # cumsum adds one term at a time, as `phi += term` from 0.0 would
        payoffs[c.id] = float(np.cumsum(np.concatenate([[0.0], terms]))[-1])
    return payoffs


def _subset_sums_1d(energies):
    """Net energy of every bitmask subset, sums[0] = 0, doubled from the last member."""
    sums = np.zeros(1)
    for e in energies[::-1]:
        sums = np.stack([sums, sums + e], -1).ravel()
    return sums


def shapley_monte_carlo_batch(instance, sample_count: int, seed: int):
    """Permutation-sampling Shapley estimate, reproducible for a given seed.

    Each sampled join order contributes the full marginal-contribution vector,
    which telescopes to v(grand coalition), so the estimate is efficient up to
    float accumulation; the residual is spread proportionally to |phi|.

    The package's kernel before antithetic pairs, kept as the variance
    baseline for them: it draws batches of 200,000 // N independent join
    orders and builds each batch's gather, prefix sums, values and marginals as
    whole arrays.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    n = instance.n
    energies = np.array([c.net_energy for c in instance.customers])
    rng = np.random.default_rng(seed)

    acc = np.zeros(n)
    done = 0
    batch = max(1, min(sample_count, 200_000 // max(n, 1)))
    while done < sample_count:
        b = min(batch, sample_count - done)
        perms = np.argsort(rng.random((b, n)), axis=1)
        # a named prefix keeps its buffer for the batch; a temporary measured ~12% slower
        prefix = np.cumsum(energies[perms], axis=1)
        vals = co._net_value(prefix, instance.tariff)
        marg = np.diff(np.concatenate([np.zeros((b, 1)), vals], axis=1), axis=1)
        np.add.at(acc, perms.ravel(), marg.ravel())
        done += b
    phi = acc / sample_count

    residual = co._net_value(energies.sum(), instance.tariff) - phi.sum()
    weight = np.abs(phi)
    if weight.sum() > 0:
        phi = phi + residual * weight / weight.sum()
    else:
        phi = phi + residual / n
    return co.PayoffAllocation({c.id: float(phi[i]) for i, c in enumerate(instance.customers)})


def shapley_antithetic_reference(instance, sample_count: int, seed: int):
    """Sampled Shapley estimate from antithetic join-order pairs, as whole
    arrays with no blocks: payoffs and standard errors (None from fewer than
    two complete pairs).

    ceil(S / 2) orders come from default_rng(seed), each with its reverse, and
    for odd S the last order alone. A reversed order's pools are the drawn
    order's full sum minus its prefix sums. Each member sums its pair sums in
    draw order from 0.0, then a lone order's marginal; the standard error is
    over the pair means.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    n, tariff = instance.n, instance.tariff
    energies = np.array([float(c.net_energy) for c in instance.customers])
    pairs = sample_count // 2
    orders = np.argsort(np.random.default_rng(seed).random(((sample_count + 1) // 2, n)), axis=1)
    prefix = np.cumsum(energies[orders], axis=1)
    forward = co._net_value(prefix, tariff)
    reverse = co._net_value(prefix[:, -1:] - prefix, tariff)
    ahead = np.concatenate([np.zeros((len(orders), 1)), forward], axis=1)
    behind = np.concatenate([forward[:, -1:], reverse], axis=1)
    margins = ahead[:, 1:] - ahead[:, :-1], behind[:, :-1] - behind[:, 1:]
    by_member = np.empty((len(orders), n))
    np.put_along_axis(by_member, orders, margins[0] + margins[1], axis=1)
    lone = np.zeros((0, n))
    if sample_count % 2:
        lone = np.empty((1, n))
        np.put_along_axis(lone, orders[-1:], margins[0][-1:], axis=1)
    # cumsum adds one term at a time, as `total += term` from 0.0 would
    zero = np.zeros((1, n))
    summed = by_member[:pairs]
    total = np.cumsum(np.concatenate([zero, summed]), axis=0)[-1]
    squares = np.cumsum(np.concatenate([zero, summed * summed]), axis=0)[-1]
    errors = None
    if pairs >= 2:
        spread = np.maximum(squares - total * total / pairs, 0.0)
        error = np.sqrt(spread / ((pairs - 1) * pairs)) / 2
        errors = {c.id: float(error[i]) for i, c in enumerate(instance.customers)}
    phi = np.cumsum(np.concatenate([zero, summed, lone]), axis=0)[-1] / sample_count

    residual = co._net_value(energies.sum(), tariff) - phi.sum()
    weight = np.abs(phi)
    if weight.sum() > 0:
        phi = phi + residual * weight / weight.sum()
    else:
        phi = phi + residual / n
    return co.PayoffAllocation(
        {c.id: float(phi[i]) for i, c in enumerate(instance.customers)}, errors)


def shapley_split_reference(instance):
    """Exact Shapley payoffs by id from the two-halves split, one instance at a time.

    The players split into two halves that meet in the middle (Horowitz &
    Sahni, JACM 1974); each half sorts the other half's subset sums, searches
    them once per subset and reads per-size prefix sums of the Shapley weights.
    """
    n = instance.n
    energies = np.array([c.net_energy for c in instance.customers])
    fact = math.factorial
    weights = np.array([fact(s) * fact(n - s - 1) / fact(n) for s in range(n)])
    gain = np.zeros(n)
    half = n // 2
    for mine, theirs in ((range(half), range(half, n)), (range(half, n), range(half))):
        z = -_subset_sums_1d(energies[list(theirs)])
        order = np.argsort(z, kind="stable")
        z = z[order]
        their_sizes = _subset_sums_1d(np.ones(len(theirs))).astype(int)[order]
        x = _subset_sums_1d(energies[list(mine)])
        sizes = _subset_sums_1d(np.ones(len(mine))).astype(int)
        # x_M + y_B > 0 for exactly the first r[M] of the sorted y_B
        r = np.searchsorted(z, x)
        lacking = np.zeros_like(x)  # g_|M|(M), read for the players outside M
        holding = np.zeros_like(x)  # g_{|M|-1}(M), read for the players in M
        for a in range(len(mine)):
            w = weights[a + their_sizes]
            count = np.concatenate(([0.0], np.cumsum(w)))
            pooled = np.concatenate(([0.0], np.cumsum(w * -z)))
            for g, size in ((lacking, a), (holding, a + 1)):
                m = sizes == size
                g[m] = pooled[r[m]] + x[m] * count[r[m]]
        for bit, i in enumerate(mine):
            # masks split as (higher bits, this bit, lower bits)
            pairs = (-1, 2, 1 << bit)
            gain[i] = np.sum(holding.reshape(pairs)[:, 1] - lacking.reshape(pairs)[:, 0])
    tariff = instance.tariff
    phi = tariff.p_rp * energies + (tariff.p_wp - tariff.p_rp) * gain
    return {c.id: float(p) for c, p in zip(instance.customers, phi)}


def shapley_exact_fraction(instance):
    """Exact Shapley payoffs by id as Fractions, over all 2^N masks.

    Every float is a dyadic rational, so the nets are integers over one
    common denominator and each subset sum, and each weighted marginal term
    scaled by N!, is an exact Python int; the tariff prices enter as the exact
    Fractions of their floats.
    """
    n = instance.n
    nets = [Fraction(c.net_energy) for c in instance.customers]
    scale = math.lcm(*(x.denominator for x in nets))
    units = [int(x * scale) for x in nets]
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + units[low.bit_length() - 1]
    sizes = [bin(mask).count("1") for mask in range(1 << n)]
    # |S|! (N - |S| - 1)! = N! times the Shapley weight of a subset S without the player
    weight = [math.factorial(s) * math.factorial(n - s - 1) for s in range(n)]
    wholesale, retail = Fraction(instance.tariff.p_wp), Fraction(instance.tariff.p_rp)
    payoffs = {}
    for i, c in enumerate(instance.customers):
        bit = 1 << i
        exported = imported = 0
        for mask in range(1 << n):
            if mask & bit:
                continue
            before, after = sums[mask], sums[mask | bit]
            w = weight[sizes[mask]]
            exported += w * (max(after, 0) - max(before, 0))
            imported += w * (max(-after, 0) - max(-before, 0))
        payoffs[c.id] = (wholesale * exported - retail * imported) / (math.factorial(n) * scale)
    return payoffs


def supply_at(rus, prices) -> np.ndarray:
    """Total shared space offered at each price (vectorized best responses)."""
    p = np.atleast_1d(np.asarray(prices, dtype=float))
    r = np.array([u.reservation_price for u in rus])
    a = np.array([u.reluctance for u in rus])
    cap = np.array([u.capacity for u in rus])
    shares = np.clip((p[:, None] - r[None, :]) / a[None, :], 0.0, cap[None, :])
    return shares.sum(axis=1)


def stackelberg_price_grid(rus, demand, price_floor, price_cap, resolution=1e-4):
    """Leader's price choice on [price_floor, price_cap].

    `demand` holds (requirement, bid) pairs for the participating SFCs. At a
    candidate price p the offered space S(p) is assigned to SFCs whose bid
    covers p, best bid first, and the leader's objective is the buyers' total
    cost saving sum((bid_m - p) * allocated_m). The lowest maximizing grid
    price is returned; S is continuous and nondecreasing, so the tie-break
    makes the result unique and deterministic.
    """
    if not rus:
        raise InputError("no participating residential units")
    if not demand or all(q <= 0 for q, _ in demand):
        raise InputError("total requirement must be > 0")
    if price_cap < price_floor:
        raise InputError(f"invalid price bounds [{price_floor}, {price_cap}]")
    n = max(1, int(round((price_cap - price_floor) / resolution)) + 1)
    grid = np.linspace(price_floor, price_cap, n)
    supply = supply_at(rus, grid)

    order = sorted(range(len(demand)), key=lambda m: (-demand[m][1], m))
    req = np.array([demand[m][0] for m in order], dtype=float)
    bid = np.array([demand[m][1] for m in order], dtype=float)
    eligible = bid[None, :] >= grid[:, None] - 1e-12
    wanted = req[None, :] * eligible
    before = np.cumsum(wanted, axis=1) - wanted
    filled = np.clip(supply[:, None] - before, 0.0, wanted)
    objective = ((bid[None, :] - grid[:, None]) * filled).sum(axis=1)
    return float(grid[int(np.argmax(objective))])


def storage_auction_reference(rus, sfcs, rule):
    """`run_storage_auction` with the leader's price from the whole-grid search.

    The participants come from `determine_participants`, the price from the
    whole-grid search, each unit's share from `follower_best_response`; SFCs
    whose bid covers the price are filled best bid first, equal bids by id,
    and `allocate_shares` splits the oversupply.
    """
    rus_in, sfcs_in, v = determine_participants(rus, sfcs)
    if not rus_in:
        return StorageAuctionOutcome(v, None, (), ())
    demand = [(s.requirement, s.bid_price) for s in sfcs_in]
    price = stackelberg_price_grid(rus_in, demand, v, max(b for _, b in demand))
    shares = [follower_best_response(r, price) for r in rus_in]
    fill = sorted(range(len(sfcs_in)), key=lambda m: (-sfcs_in[m].bid_price, sfcs_in[m].id))
    wanted = [
        sfcs_in[m].requirement if sfcs_in[m].bid_price >= price - 1e-12 else 0.0 for m in fill
    ]
    taken, burdens = allocate_shares(shares, wanted, rule, [r.reservation_price for r in rus_in])
    allocations = [0.0] * len(sfcs_in)
    for m, amount in zip(fill, taken):
        allocations[m] = amount
    return StorageAuctionOutcome(
        vickrey_price=v,
        auction_price=price,
        participating_rus=tuple(r.id for r in rus_in),
        participating_sfcs=tuple(s.id for s in sfcs_in),
        shares={r.id: x for r, x in zip(rus_in, shares)},
        sfc_allocations={s.id: a for s, a in zip(sfcs_in, allocations)},
        burdens={r.id: b for r, b in zip(rus_in, burdens)},
        ru_utilities={
            r.id: ru_realized_utility(r, price, x, b) for r, x, b in zip(rus_in, shares, burdens)
        },
        sfc_utilities={s.id: (s.bid_price - price) * a for s, a in zip(sfcs_in, allocations)},
    )


def requirement_sweep_loop(rus, sfcs, totals, rule):
    """`requirement_sweep` with one reference auction per total."""
    base = math.fsum(s.requirement for s in sfcs)
    rows = []
    for total in totals:
        scaled = [SfcAgent(s.id, s.requirement * total / base, s.bid_price) for s in sfcs]
        out = storage_auction_reference(rus, scaled, rule)
        utilities = list(out.ru_utilities.values())
        rows.append({
            "total_requirement": float(total),
            "auction_price": out.auction_price,
            "total_shared": out.total_shared(),
            "avg_ru_utility": math.fsum(utilities) / len(utilities) if utilities else 0.0,
        })
    return rows


def check_incentive_compatibility_loop(scenarios, factors=None, gain_tolerance=1e-9):
    """`check_incentive_compatibility` with one scalar reference auction per report."""
    if factors is None:
        factors = [round(0.5 + 0.05 * k, 10) for k in range(21)]
    profitable = []
    ir_violations = []
    checked = 0
    largest = None

    def record(idx, aid, param, f, gain):
        nonlocal checked, largest
        checked += 1
        if largest is None or gain > largest:
            largest = gain
        if gain > gain_tolerance:
            profitable.append((idx, aid, param, f, gain))

    for idx, sc in enumerate(scenarios):
        truthful = storage_auction_reference(list(sc.rus), list(sc.sfcs), sc.rule)
        base_ru = {
            r.id: ru_realized_utility(
                r,
                truthful.auction_price if not truthful.empty else 0.0,
                truthful.shares.get(r.id, 0.0),
                truthful.burdens.get(r.id, 0.0),
            )
            if not truthful.empty
            else 0.0
            for r in sc.rus
        }
        for aid, u in {**base_ru, **truthful.sfc_utilities}.items():
            if u < -gain_tolerance:
                ir_violations.append((idx, aid, u))

        for r in sc.rus:
            for f in factors:
                for param in ("reservation_price", "capacity"):
                    if f == 1.0:
                        continue
                    kwargs = {
                        "id": r.id,
                        "capacity": r.capacity,
                        "reservation_price": r.reservation_price,
                        "reluctance": r.reluctance,
                    }
                    kwargs[param] = kwargs[param] * f
                    reported = ResidentialUnit(**kwargs)
                    rus = [reported if x.id == r.id else x for x in sc.rus]
                    out = storage_auction_reference(rus, list(sc.sfcs), sc.rule)
                    u = 0.0
                    if not out.empty and r.id in out.shares:
                        committed = out.shares[r.id]
                        burden = out.burdens.get(r.id, 0.0)
                        # phantom capacity cannot be locked or delivered
                        locked = min(committed, r.capacity)
                        sold = min(max(committed - burden, 0.0), locked)
                        u = (
                            out.auction_price * sold
                            - r.reservation_price * locked
                            - 0.5 * r.reluctance * locked**2
                        )
                    record(idx, r.id, param, f, u - base_ru[r.id])

        for s in sc.sfcs:
            for f in factors:
                if f == 1.0:
                    continue
                sfcs = [
                    SfcAgent(x.id, x.requirement, x.bid_price * f) if x.id == s.id else x
                    for x in sc.sfcs
                ]
                out = storage_auction_reference(list(sc.rus), sfcs, sc.rule)
                u = (
                    (s.bid_price - out.auction_price) * out.sfc_allocations.get(s.id, 0.0)
                    if not out.empty
                    else 0.0
                )
                record(idx, s.id, "bid_price", f, u - truthful.sfc_utilities.get(s.id, 0.0))
    return IcReport(
        scenarios_checked=len(scenarios),
        deviations_checked=checked,
        profitable_deviations=profitable,
        ir_violations=ir_violations,
        largest_gain=largest,
    )


@dataclass(frozen=True)
class HybridScenario:
    buyers: tuple[evx.HybridBuyer, ...]
    sellers: tuple[evx.HybridSeller, ...]


def compare_hybrid(
    scenario: HybridScenario,
    grid_sell_out_price: float,
    grid_buy_back_price: float,
) -> dict:
    """Direct trading at DEFAULT_ETA versus grid-assisted trading at DEFAULT_ETA_HYBRID."""
    return {
        "grid_sell_out_price": grid_sell_out_price,
        "grid_buy_back_price": grid_buy_back_price,
        "p2p": evx.simulate_trading(scenario.buyers, scenario.sellers, evx.DEFAULT_ETA),
        "hybrid": evx.simulate_trading(
            scenario.buyers,
            scenario.sellers,
            evx.DEFAULT_ETA_HYBRID,
            grid_sell_price=grid_sell_out_price,
            grid_buy_price=grid_buy_back_price,
        ),
    }


def project_capped_sum_loop(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Euclidean projection of y onto {x >= 0, lo <= sum(x) <= hi}."""
    x = np.maximum(y, 0.0)
    total = x.sum()
    if lo - 1e-15 <= total <= hi + 1e-15:
        return x
    target = lo if total < lo else hi
    if target <= 0:
        return np.zeros_like(y)
    # x(tau) = max(y + tau, 0); actives are the largest entries
    order = np.sort(y)[::-1]
    prefix = np.cumsum(order)
    n = len(y)
    for k in range(1, n + 1):
        tau = (target - prefix[k - 1]) / k
        upper_ok = order[k - 1] + tau > 0
        lower_ok = k == n or order[k] + tau <= 1e-15
        if upper_ok and lower_ok:
            candidate = np.maximum(y + tau, 0.0)
            if abs(candidate.sum() - target) <= 1e-9 * max(1.0, target):
                return candidate
            break
    # the active-set scan can stall when target is tiny against the entries
    # (float absorption); fall back to bisection on the shift
    lo_tau, hi_tau = -float(np.max(y)) - 1.0, float(target)
    for _ in range(200):
        tau = 0.5 * (lo_tau + hi_tau)
        if np.maximum(y + tau, 0.0).sum() < target:
            lo_tau = tau
        else:
            hi_tau = tau
    return np.maximum(y + hi_tau, 0.0)


def project_feasible_loop(
    y: np.ndarray,
    row_caps: np.ndarray,
    col_lo: np.ndarray,
    col_hi: np.ndarray,
    tol: float = 1e-12,
    max_cycles: int = 3000,
) -> np.ndarray:
    """Dykstra projection onto the transfer polytope.

    Rows satisfy 0 <= sum <= row_cap (discharger capacity in sent kWh),
    columns satisfy col_lo <= sum <= col_hi (demand window in sent kWh).
    """
    x = np.asarray(y, dtype=float).copy()
    nj, ni = x.shape
    e_rows = np.zeros_like(x)
    e_cols = np.zeros_like(x)
    for _ in range(max_cycles):
        before = x.copy()
        before_er = e_rows.copy()
        before_ec = e_cols.copy()
        for j in range(nj):
            v = x[j] + e_rows[j]
            proj = project_capped_sum_loop(v, 0.0, row_caps[j])
            e_rows[j] = v - proj
            x[j] = proj
        for i in range(ni):
            v = x[:, i] + e_cols[:, i]
            proj = project_capped_sum_loop(v, col_lo[i], col_hi[i])
            e_cols[:, i] = v - proj
            x[:, i] = proj
        # the iterate alone can stall while corrections still move, so the
        # stop test must cover all of the algorithm's state
        moved = max(
            np.max(np.abs(x - before)),
            np.max(np.abs(e_rows - before_er)),
            np.max(np.abs(e_cols - before_ec)),
        )
        if moved < tol:
            break
    return x


def fmt_reference(value) -> str:
    """A CSV or summary cell's text, by isinstance checks alone."""
    if value is None:
        return ""
    if isinstance(value, np.bool_):
        return str(bool(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def best_response_iteration(game, initial_profile, max_rounds: int):
    """Cyclic best-response dynamics on a `games.FiniteGame`, lowest index on ties.

    Each round lets every player in turn switch to its best response. Returns
    (profile, converged); converged means a full round produced no change, in
    which case the profile is a pure Nash equilibrium.
    """
    if max_rounds < 1:
        raise InputError("max_rounds must be >= 1")
    profile = [int(s) for s in initial_profile]
    for _ in range(max_rounds):
        changed = False
        for n in range(game.n_players):
            row = game.utilities[n][tuple(profile[:n]) + (slice(None),) + tuple(profile[n + 1:])]
            best = int(np.argmax(row))  # argmax takes the lowest index on ties
            if row[best] > row[profile[n]]:
                profile[n] = best
                changed = True
        if not changed:
            return tuple(profile), True
    return tuple(profile), False
