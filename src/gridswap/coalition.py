"""Cooperative trading game between energy suppliers and end users.

A coalition first nets out internally; whatever surplus remains is exported
at the wholesale price and any remaining deficiency is imported at the retail
price. Because retail exceeds wholesale, pooling is superadditive and trading
inside the community beats feeding the grid. Payoffs are divided by Shapley
value, exactly up to _EXACT_LIMIT members and by seeded permutation sampling
above. The exact division splits the members into two halves that meet in
the middle (Horowitz & Sahni, JACM 1974) at every size: time O(N 2^(N/2)),
memory O(2^(N/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError
from .market import Tariff

SUPPLIER = "supplier"
USER = "user"

# the largest N whose core check builds its 2^N subset arrays whole
# (512 kB each at 16)
_ENUMERATION_LIMIT = 16
# the largest N whose exact Shapley call stays under 8 MB of allocations
# (7.4 MB and 0.11 s at 32 on a 2-CPU container, Python 3.11, numpy 2.4);
# sampling takes over above it
_EXACT_LIMIT = 32
# Monte-Carlo Shapley work grows with the permutations sampled; the config's
# mc_samples and the shapley --samples flag both stop here
MAX_SAMPLES = 1_000_000


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
    # permutations sampled to estimate the payoffs; 0 when they are exact
    samples: int = 0

    def total(self) -> float:
        return math.fsum(self.payoffs.values())


def _net_value(net, tariff: Tariff):
    """Worth of pooled net positions (scalar or array): export surplus, import deficiency."""
    # numpy.maximum returns its second operand on ties, so a -0.0 net keeps its sign
    return tariff.p_wp * np.maximum(0.0, net) - tariff.p_rp * np.maximum(0.0, -net)


def coalition_value(subset, tariff: Tariff) -> float:
    """Value of a coalition; the empty set is worth zero by convention."""
    members = list(subset)
    if not members:
        return 0.0
    return float(_net_value(math.fsum(c.net_energy for c in members), tariff))


def _subset_sums(energies: np.ndarray) -> np.ndarray:
    """Net energy of every bitmask subset, sums[0] = 0.

    Doubling from the last member to the first puts member k on bit k and adds
    each subset's members from its highest bit down.
    """
    sums = np.zeros(1)
    for e in energies[::-1]:
        sums = np.stack([sums, sums + e], -1).ravel()
    return sums


def is_superadditive(instance: CoalitionInstance):
    """Decide v(S u T) >= v(S) + v(T) for all disjoint pairs in closed form.

    On the pooled net x, v = min(p_wp * x, p_rp * x) when p_rp >= p_wp:
    concave and positively homogeneous, hence superadditive at any N. When
    p_rp < p_wp, v = max(p_wp * x, p_rp * x) is additive on same-sign nets and
    strictly loses when a surplus merges with a deficiency.

    Returns (True, None) or (False, ((supplier_id,), (user_id,))) naming the
    first customer with net > 0 and the first with net < 0.
    """
    if instance.tariff.p_rp >= instance.tariff.p_wp:
        return True, None
    seller = next((c.id for c in instance.customers if c.net_energy > 0), None)
    buyer = next((c.id for c in instance.customers if c.net_energy < 0), None)
    if seller is None or buyer is None:
        return True, None
    return False, ((seller,), (buyer,))


def shapley_exact(instance: CoalitionInstance) -> PayoffAllocation:
    """Exact Shapley allocation, up to _EXACT_LIMIT players, in O(2^(N/2)) memory.

    v(S) = p_rp * x_S + (p_wp - p_rp) * max(x_S, 0) on the pooled net x_S, and
    the p_rp terms sum to p_rp * e_i over the Shapley weights
    w_|S| = |S|! (N - |S| - 1)! / N!, so
    phi_i = p_rp * e_i + (p_wp - p_rp) * sum_S w_|S| [max(x_S + e_i, 0) - max(x_S, 0)]
    over S without i. The players split into two halves that meet in the
    middle. S joins a subset A of player i's half, without i, to a subset B of
    the other half, and x_A + e_i is the sum of A + i, another subset of the
    same half. So each half needs, for each of its subsets M and each size a,
    g_a(M) = sum_B w_{a+|B|} max(x_M + y_B, 0). With the y_B sorted from the
    largest down and prefix sums of w_{a+|B|} and w_{a+|B|} * y_B, one
    searchsorted of all the x_M resolves every g_a. Player i adds
    g_{|M|-1}(M) over the M holding it and subtracts g_{|M|}(M) over the M
    without it. Time O(N 2^(N/2)).
    """
    n = instance.n
    if n > _EXACT_LIMIT:
        raise SizeError(f"exact Shapley is limited to N <= {_EXACT_LIMIT}, got {n}")
    energies = np.array([c.net_energy for c in instance.customers])
    fact = math.factorial
    weights = np.array([fact(s) * fact(n - s - 1) / fact(n) for s in range(n)])
    gain = np.zeros(n)
    half = n // 2
    for mine, theirs in ((range(half), range(half, n)), (range(half, n), range(half))):
        z = -_subset_sums(energies[list(theirs)])
        order = np.argsort(z, kind="stable")
        z = z[order]
        their_sizes = _subset_sums(np.ones(len(theirs))).astype(int)[order]
        x = _subset_sums(energies[list(mine)])
        sizes = _subset_sums(np.ones(len(mine))).astype(int)
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
    return PayoffAllocation({c.id: float(p) for c, p in zip(instance.customers, phi)})


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
    rng = np.random.default_rng(seed)

    acc = np.zeros(n)
    done = 0
    batch = max(1, min(sample_count, 200_000 // max(n, 1)))
    while done < sample_count:
        b = min(batch, sample_count - done)
        perms = np.argsort(rng.random((b, n)), axis=1)
        # a named prefix keeps its buffer for the batch; a temporary measured ~12% slower
        prefix = np.cumsum(energies[perms], axis=1)
        vals = _net_value(prefix, instance.tariff)
        marg = np.diff(np.concatenate([np.zeros((b, 1)), vals], axis=1), axis=1)
        np.add.at(acc, perms.ravel(), marg.ravel())
        done += b
    phi = acc / sample_count

    residual = _net_value(energies.sum(), instance.tariff) - phi.sum()
    weight = np.abs(phi)
    if weight.sum() > 0:
        phi = phi + residual * weight / weight.sum()
    else:
        phi = phi + residual / n
    return PayoffAllocation(
        {c.id: float(phi[i]) for i, c in enumerate(instance.customers)}, sample_count
    )


def shapley_allocation(
    instance: CoalitionInstance, sample_count: int, seed: int
) -> PayoffAllocation:
    """Shapley division by the one exact-vs-sampled policy.

    shapley_exact up to _EXACT_LIMIT players; above it, a seeded estimate from
    `sample_count` sampled join orders.
    """
    if instance.n <= _EXACT_LIMIT:
        return shapley_exact(instance)
    return shapley_monte_carlo(instance, sample_count, seed=seed)


def in_core(allocation: PayoffAllocation, instance: CoalitionInstance):
    """Check that no coalition can block the allocation.

    Returns (True, None) or (False, (ids, shortfall)) for the coalition with
    the largest violation. The allocation must be efficient. All 2^N
    coalitions are enumerated, so N is limited to _ENUMERATION_LIMIT.
    """
    n = instance.n
    if n > _ENUMERATION_LIMIT:
        raise SizeError(f"core check is limited to N <= {_ENUMERATION_LIMIT}, got {n}")
    energies = np.array([c.net_energy for c in instance.customers])
    values = _net_value(_subset_sums(energies), instance.tariff)
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
    return float(_net_value(customer.net_energy, tariff))


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
