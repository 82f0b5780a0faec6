"""Seeded coalition instances and the competitive core witness, for the tests.

The instances are desk-scale communities of suppliers and users; the witness
is the allocation that gives the scarce market side the whole trading margin.
"""

from __future__ import annotations

import math

import numpy as np

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
