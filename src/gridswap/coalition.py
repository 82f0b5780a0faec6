"""Cooperative trading game between energy suppliers and end users.

A coalition first nets out internally; whatever surplus remains is exported
at the wholesale price and any remaining deficiency is imported at the retail
price. Because retail exceeds wholesale, pooling is superadditive and trading
inside the community beats feeding the grid. Payoffs are divided by Shapley
value, exactly for small groups and by seeded permutation sampling for large
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError
from .market import Tariff

SUPPLIER = "supplier"
USER = "user"

_EXACT_LIMIT = 10
_SUPERADD_LIMIT = 12


@dataclass(frozen=True)
class Customer:
    """A community member with a signed net energy position in kWh."""

    id: str
    role: str
    net_energy: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.net_energy):
            raise InputError(f"customer {self.id!r} needs a finite net_energy")
        if self.role not in (SUPPLIER, USER):
            raise InputError(f"customer role must be 'supplier' or 'user', got {self.role!r}")
        if self.role == SUPPLIER and self.net_energy < 0:
            raise InputError(f"supplier {self.id!r} must have net_energy >= 0")
        if self.role == USER and self.net_energy > 0:
            raise InputError(f"user {self.id!r} must have net_energy <= 0")


@dataclass(frozen=True)
class CoalitionInstance:
    customers: tuple[Customer, ...]
    tariff: Tariff

    def __post_init__(self) -> None:
        if len(self.customers) < 1:
            raise InputError("a coalition instance needs at least one customer")
        ids = [c.id for c in self.customers]
        if len(set(ids)) != len(ids):
            raise InputError("customer ids must be unique")

    @property
    def n(self) -> int:
        return len(self.customers)


@dataclass
class PayoffAllocation:
    """Per-customer payoffs in $; positive means money received."""

    payoffs: dict[str, float]

    def total(self) -> float:
        return math.fsum(self.payoffs.values())


def _net_value(net: float, p_wp: float, p_rp: float) -> float:
    """Worth of a pooled net position: export surplus, import deficiency."""
    return p_wp * max(net, 0.0) - p_rp * max(-net, 0.0)


def coalition_value(subset, tariff: Tariff) -> float:
    """Value of a coalition; the empty set is worth zero by convention."""
    members = list(subset)
    if not members:
        return 0.0
    net = math.fsum(c.net_energy for c in members)
    return _net_value(net, tariff.p_wp, tariff.p_rp)


def _subset_sums(energies: np.ndarray) -> np.ndarray:
    """Net energy of every bitmask subset, sums[0] = 0."""
    n = len(energies)
    sums = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + energies[low.bit_length() - 1]
    return sums


def _subset_values(instance: CoalitionInstance) -> np.ndarray:
    energies = np.array([c.net_energy for c in instance.customers])
    sums = _subset_sums(energies)
    pwp, prp = instance.tariff.p_wp, instance.tariff.p_rp
    return pwp * np.maximum(sums, 0.0) - prp * np.maximum(-sums, 0.0)


def is_superadditive(instance: CoalitionInstance, limit: int = _SUPERADD_LIMIT):
    """Exhaustively check v(S u T) >= v(S) + v(T) for all disjoint pairs.

    Returns (True, None) or (False, (ids_S, ids_T)) for the first violation.
    Raises SizeError above `limit` players; fall back to sampling externally
    for larger instances.
    """
    n = instance.n
    if n > limit:
        raise SizeError(
            f"superadditivity enumeration needs 3^{n} pair checks; "
            f"limit is N <= {limit}, check sampled pairs instead"
        )
    values = _subset_values(instance)
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


def shapley_exact(instance: CoalitionInstance, limit: int = _EXACT_LIMIT) -> PayoffAllocation:
    """Exact Shapley allocation by subset-weighted enumeration (N <= 10)."""
    n = instance.n
    if n > limit:
        raise SizeError(f"exact Shapley is limited to N <= {limit}, got {n}")
    values = _subset_values(instance)
    fact = [math.factorial(k) for k in range(n + 1)]
    denom = fact[n]
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    phi = np.zeros(n)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                continue
            s = sizes[mask]
            weight = fact[s] * fact[n - s - 1] / denom
            phi[i] += weight * (values[mask | bit] - values[mask])
    return PayoffAllocation({c.id: float(phi[i]) for i, c in enumerate(instance.customers)})


def shapley_monte_carlo(
    instance: CoalitionInstance, sample_count: int, seed: int
) -> PayoffAllocation:
    """Permutation-sampling Shapley estimate, reproducible for a given seed.

    Each sampled join order contributes the full marginal-contribution vector,
    which telescopes to v(grand coalition), so the estimate is efficient up to
    float accumulation; the residual is spread proportionally to |phi|.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    n = instance.n
    energies = np.array([c.net_energy for c in instance.customers])
    pwp, prp = instance.tariff.p_wp, instance.tariff.p_rp
    rng = np.random.default_rng(seed)

    acc = np.zeros(n)
    done = 0
    batch = max(1, min(sample_count, 200_000 // max(n, 1)))
    while done < sample_count:
        b = min(batch, sample_count - done)
        perms = np.argsort(rng.random((b, n)), axis=1)
        prefix = np.cumsum(energies[perms], axis=1)
        vals = pwp * np.maximum(prefix, 0.0) - prp * np.maximum(-prefix, 0.0)
        marg = np.diff(np.concatenate([np.zeros((b, 1)), vals], axis=1), axis=1)
        np.add.at(acc, perms.ravel(), marg.ravel())
        done += b
    phi = acc / sample_count

    grand = _net_value(float(energies.sum()), pwp, prp)
    residual = grand - phi.sum()
    weight = np.abs(phi)
    if weight.sum() > 0:
        phi = phi + residual * weight / weight.sum()
    else:
        phi = phi + residual / n
    return PayoffAllocation({c.id: float(phi[i]) for i, c in enumerate(instance.customers)})


def shapley_allocation(
    instance: CoalitionInstance, sample_count: int, seed: int
) -> PayoffAllocation:
    """Exact Shapley division up to _EXACT_LIMIT players, seeded sampling above."""
    if instance.n <= _EXACT_LIMIT:
        return shapley_exact(instance)
    return shapley_monte_carlo(instance, sample_count, seed=seed)


def in_core(
    allocation: PayoffAllocation, instance: CoalitionInstance, limit: int = _EXACT_LIMIT
):
    """Check that no coalition can block the allocation.

    Returns (True, None) or (False, (ids, shortfall)) for the coalition with
    the largest violation. The allocation must be efficient.
    """
    n = instance.n
    if n > limit:
        raise SizeError(f"core check is limited to N <= {limit}, got {n}")
    values = _subset_values(instance)
    x = np.array([allocation.payoffs[c.id] for c in instance.customers])
    full = (1 << n) - 1
    if abs(x.sum() - values[full]) > 1e-9:
        raise InputError(
            f"allocation is not efficient: sum={x.sum():.12g} vs v(N)={values[full]:.12g}"
        )
    coalition_payoff = _subset_sums(x)
    gaps = values - coalition_payoff
    gaps[0] = -np.inf
    worst = int(np.argmax(gaps))
    if gaps[worst] > 1e-9:
        ids = tuple(
            instance.customers[k].id for k in range(n) if worst >> k & 1
        )
        return False, (ids, float(gaps[worst]))
    return True, None


@dataclass
class ImpliedPrice:
    customer_id: str
    price: float
    within_band: bool


def implied_p2p_prices(
    instance: CoalitionInstance, allocation: PayoffAllocation
) -> list[ImpliedPrice]:
    """Per-customer trading price implied by the payoff split.

    Suppliers: payoff per kWh sold. Users: cost per kWh bought. Customers with
    zero net energy carry no price. Prices outside [p_wp, p_rp] are flagged.
    """
    pwp, prp = instance.tariff.p_wp, instance.tariff.p_rp
    out = []
    for c in instance.customers:
        if c.net_energy == 0:
            continue
        x = allocation.payoffs[c.id]
        if c.net_energy > 0:
            price = x / c.net_energy
        else:
            price = -x / abs(c.net_energy)
        ok = pwp - 1e-9 <= price <= prp + 1e-9
        out.append(ImpliedPrice(c.id, price, ok))
    return out


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


def fit_payoff(customer: Customer, tariff: Tariff) -> float:
    """Feed-in-tariff payoff: sell all surplus at p_wp, buy all demand at p_rp."""
    return _net_value(customer.net_energy, tariff.p_wp, tariff.p_rp)


def revenue_vs_fit(instance: CoalitionInstance, allocation: PayoffAllocation | None = None):
    """Per-customer comparison of pooled (Shapley) payoffs against FiT.

    Returns a list of row dicts plus aggregate totals; the pooled total can
    never fall below the FiT total because the value function is superadditive.
    """
    if allocation is None:
        allocation = shapley_exact(instance)
    rows = []
    for c in instance.customers:
        p2p = allocation.payoffs[c.id]
        fit = fit_payoff(c, instance.tariff)
        rows.append(
            {
                "id": c.id,
                "role": c.role,
                "net_kwh": c.net_energy,
                "p2p_payoff": p2p,
                "fit_payoff": fit,
                "gain": p2p - fit,
            }
        )
    totals = {
        "p2p_total": math.fsum(r["p2p_payoff"] for r in rows),
        "fit_total": math.fsum(r["fit_payoff"] for r in rows),
    }
    return rows, totals


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


def supplier_count_sweep(
    seed: int,
    supplier_counts,
    n_users: int,
    tariff: Tariff,
    samples: int = 40_000,
):
    """Average supplier payoff as the supplier population grows.

    Suppliers are added incrementally to a fixed seeded population so sweep
    points share random draws; payoffs come from shapley_allocation.
    """
    counts = list(supplier_counts)
    if not counts:
        return []
    max_n = max(counts)
    # one seeded stream per member, so draws do not depend on how many
    # sweep points run together
    surpluses = np.array(
        [np.random.default_rng((seed, 1, j)).uniform(0.0, 20.0) for j in range(max_n)]
    )
    demands = np.array(
        [np.random.default_rng((seed, 2, j)).uniform(0.0, 15.0) for j in range(n_users)]
    )
    rows = []
    for k in counts:
        customers = tuple(
            [Customer(f"s{j}", SUPPLIER, float(surpluses[j])) for j in range(k)]
            + [Customer(f"u{j}", USER, -float(demands[j])) for j in range(n_users)]
        )
        alloc = shapley_allocation(CoalitionInstance(customers, tariff), samples, seed + k)
        supplier_total = math.fsum(alloc.payoffs[f"s{j}"] for j in range(k))
        supply = float(surpluses[:k].sum())
        rows.append(
            {
                "supplier_count": k,
                "avg_supplier_payoff": supplier_total / k,
                # the first supplier's payoff tracks one member's revenue as
                # the market crowds; it is free of composition noise
                "witness_supplier_payoff": alloc.payoffs["s0"],
                "supplier_price_per_kwh": supplier_total / supply if supply > 0 else 0.0,
                "total_supply": supply,
                "total_demand": float(demands.sum()),
            }
        )
    return rows
