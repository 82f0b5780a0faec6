"""Seeded coalition instances, the competitive core witness, and the
double auction's batch settlement read back as dicts, for the tests.

The instances are desk-scale communities of suppliers and users; the witness
is the allocation that gives the scarce market side the whole trading margin.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from gridswap import market
from gridswap.coalition import SUPPLIER, USER, CoalitionInstance, Customer, PayoffAllocation
from gridswap.market import Tariff


def random_instance(
    rng: np.random.Generator,
    n_suppliers: int,
    n_users: int,
    tariff: Tariff,
    supply_max: float = 20.0,
    demand_max: float = 15.0,
) -> CoalitionInstance:
    """Seeded desk-scale instance: supply ~ U[0, 20] kWh, demand ~ U[0, 15]."""
    customers = [
        Customer(f"s{k}", SUPPLIER, float(rng.uniform(0.0, supply_max)))
        for k in range(n_suppliers)
    ] + [
        Customer(f"u{k}", USER, -float(rng.uniform(0.0, demand_max)))
        for k in range(n_users)
    ]
    return CoalitionInstance(tuple(customers), tariff)


def balanced_instance(
    rng: np.random.Generator,
    n_suppliers: int,
    n_users: int,
    tariff: Tariff,
    supply_max: float = 20.0,
    demand_max: float = 15.0,
) -> CoalitionInstance:
    """Seeded instance with total demand scaled to equal total supply.

    Balanced markets are the regime where the exact Shapley division also sits
    in the core; unbalanced ones generally leave only the competitive
    allocation as a core witness.
    """
    supply = rng.uniform(0.5, supply_max, size=n_suppliers)
    demand = rng.uniform(0.5, demand_max, size=n_users)
    demand = demand * (supply.sum() / demand.sum())
    customers = [
        Customer(f"s{k}", SUPPLIER, float(x)) for k, x in enumerate(supply)
    ] + [Customer(f"u{k}", USER, -float(x)) for k, x in enumerate(demand)]
    return CoalitionInstance(tuple(customers), tariff)


def competitive_allocation(instance: CoalitionInstance) -> PayoffAllocation:
    """Core witness: the scarce market side captures the full trading margin.

    With long supply, internal trades settle at p_wp and users keep the whole
    retail-wholesale margin on their demand; with long demand the roles flip.
    The resulting payoff vector is efficient and blocks no coalition, so it
    witnesses that the core is nonempty whenever p_rp > p_wp. Unlike the exact
    Shapley point, which can leave the core on unbalanced markets, this holds
    on every instance.
    """
    supply = math.fsum(c.net_energy for c in instance.customers if c.net_energy > 0)
    demand = math.fsum(-c.net_energy for c in instance.customers if c.net_energy < 0)
    # long supply drives the internal price down to p_wp, long demand up to p_rp
    price = instance.tariff.p_wp if supply >= demand else instance.tariff.p_rp
    return PayoffAllocation({c.id: price * c.net_energy for c in instance.customers})


class RowSettlement(NamedTuple):
    """One row of a `market.Settlement`: each kind as {agent id: $} and each
    side's grid entries as {agent id: residual kWh}, in entry order, and the
    row's (import, export) kWh."""

    p2p_paid: dict
    p2p_received: dict
    grid_charge: dict
    grid_credit: dict
    residual_buys: dict
    residual_sells: dict
    grid_kwh: tuple


def settlement_rows(settlement: market.Settlement) -> list[RowSettlement]:
    """Each row of a batch settlement as dicts; an agent listed twice in one
    row of one kind fails the test."""
    ids = settlement.agents.tolist()
    columns = []
    kinds = settlement[1:5]
    for entries, values in [(e, e.cash) for e in kinds] + [(e, e.kwh) for e in kinds[2:]]:
        bounds = np.concatenate(([0], np.cumsum(entries.count))).tolist()
        agent, value = entries.agent.tolist(), values.tolist()
        rows = [dict(zip((ids[a] for a in agent[lo:hi]), value[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])]
        assert [len(row) for row in rows] == entries.count.tolist()
        columns.append(rows)
    columns.append([tuple(kwh) for kwh in settlement.grid_kwh.tolist()])
    return [RowSettlement(*row) for row in zip(*columns)]


def settle_book(buys, sells, tariff: Tariff, pricing: str = "marginal_bid") -> RowSettlement:
    """The package's settlement of one book of (agent id, kWh, limit price)
    buys and sells, cleared and settled as a batch of one row."""
    bids, asks = (market.Book(*zip(*orders)) if orders else market.Book([], [], [])
                  for orders in (buys, sells))
    rows = market._clear_rows(bids.agent_ids, bids.quantity[None], bids.limit_price,
                              asks.agent_ids, asks.quantity[None], asks.limit_price)
    [row] = settlement_rows(market.settle_slot(rows, tariff, pricing))
    return row
