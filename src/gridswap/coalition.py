"""Cooperative trading game between energy suppliers and end users.

A coalition first nets out internally; whatever surplus remains is exported
at the wholesale price and any remaining deficiency is imported at the retail
price. Because retail exceeds wholesale, pooling is superadditive and trading
inside the community beats feeding the grid. Payoffs are divided by Shapley
value, exactly up to _EXACT_LIMIT members and by seeded permutation sampling
above. The exact division and the core check split the members into two
halves that meet in the middle (Horowitz & Sahni, JACM 1974) at every size:
time O(N 2^(N/2)), memory O(2^(N/2)). One kernel, _shapley_rows, divides a
whole batch of instances of one size at once, as a scenario's slots of one
member count; shapley_exact is one row of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError
from .market import Tariff

SUPPLIER = "supplier"
USER = "user"

# the largest N whose exact Shapley call stays under 8 MB of allocations
# (6.5 MB and 0.07 s for one row at 32 on a 2-CPU container, Python 3.11,
# numpy 2.4); sampling takes over above it, and a batch of smaller instances
# is priced in chunks no larger than one row at 32. The core check shares it.
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
    """Net energy of every bitmask subset of each row, sums[..., 0] = 0.

    Doubling from the last member to the first puts member k on bit k and adds
    each subset's members from its highest bit down.
    """
    lead = energies.shape[:-1]
    sums = np.zeros((*lead, 1))
    for k in range(energies.shape[-1] - 1, -1, -1):
        pairs = np.empty((*lead, sums.shape[-1], 2))
        pairs[..., 0] = sums
        np.add(sums, energies[..., k, None], out=pairs[..., 1])
        sums = pairs.reshape(*lead, -1)
    return sums


def _popcounts(bits: int) -> np.ndarray:
    """Members in each bitmask subset of `bits` players, in mask order."""
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        sizes = np.concatenate([sizes, sizes + 1])
    return sizes


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


def _shapley_rows(energies: np.ndarray, tariff: Tariff) -> np.ndarray:
    """Exact Shapley payoffs of every row of a rows x N matrix of net energies.

    v(S) = p_rp * x_S + (p_wp - p_rp) * max(x_S, 0) on the pooled net x_S, and
    the p_rp terms sum to p_rp * e_i over the Shapley weights
    w_|S| = |S|! (N - |S| - 1)! / N!, so
    phi_i = p_rp * e_i + (p_wp - p_rp) * sum_S w_|S| [max(x_S + e_i, 0) - max(x_S, 0)]
    over S without i. The players split into two halves that meet in the
    middle (Horowitz & Sahni, JACM 1974). S joins a subset A of player i's
    half, without i, to a subset B of the other half, and x_A + e_i is the sum
    of A + i, another subset of the same half. So each half needs, for each of
    its subsets M and each size a, g_a(M) = sum_B w_{a+|B|} max(x_M + y_B, 0).
    With the y_B sorted from the largest down, r(M) of them have x_M + y_B > 0,
    and prefix sums of w_{a+|B|} and w_{a+|B|} * y_B resolve every g_a. Player
    i adds g_{|M|-1}(M) over the M holding it and subtracts g_{|M|}(M) over the
    M without it. Time O(N 2^(N/2)) per row, memory O(2^(N/2)) per row.

    Every step runs once for all rows along the last axis, so each row's
    floats are those of a one-row call.
    """
    rows, n = energies.shape
    fact = math.factorial
    weights = np.array([fact(s) * fact(n - s - 1) / fact(n) for s in range(n)])
    half = n // 2
    low, high = _subset_sums(energies[:, :half]), _subset_sums(energies[:, half:])
    n_low, n_high = low.shape[1], high.shape[1]
    # One stable sort per row ranks the high sums, in reverse mask order,
    # against the negated low sums; a tie puts the high sum first. A low sum's
    # high sums after it are those y with x + y > 0, and a high sum's low sums
    # before it those x with x + y > 0, so one sort ranks both halves. Among
    # the high sums it reads largest first with ties in mask order, and among
    # the negated low sums the low sums largest first, ties in mask order.
    perm = np.argsort(np.concatenate([high[:, ::-1], -low], axis=1), axis=1, kind="stable")
    is_low = perm >= n_high
    lows_before = np.cumsum(is_low, axis=1, dtype=np.int32)
    highs_after = np.arange(n_high - 1, -n_low - 1, -1, dtype=np.int32) + lows_before
    low_order = perm[is_low].reshape(rows, n_low) - n_high
    high_rising = n_high - 1 - perm[~is_low].reshape(rows, n_high)
    # each array goes as soon as it is read, so one row at 32 members stays under 8 MB
    del perm
    low_rank = _scatter(low_order, highs_after[is_low].reshape(rows, n_low))
    high_rank = _scatter(high_rising, lows_before[~is_low].reshape(rows, n_high))
    del is_low, lows_before, highs_after
    high_order = high_rising[:, ::-1]
    low_sizes, high_sizes = _popcounts(half), _popcounts(n - half)
    high_down, high_down_sizes = _take(high, high_order), high_sizes[high_order]
    low_down, low_down_sizes = _take(low, low_order), low_sizes[low_order]
    del low_order, high_rising, high_order
    gain = np.empty((rows, n))
    gain[:, :half] = _half_gains(low, low_sizes, low_rank, high_down, high_down_sizes, weights)
    del low, low_rank, high_down
    gain[:, half:] = _half_gains(high, high_sizes, high_rank, low_down, low_down_sizes, weights)
    return tariff.p_rp * energies + (tariff.p_wp - tariff.p_rp) * gain


def _take(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[r, index[r, k]] for every row r, by flat index."""
    offsets = np.arange(0, values.size, values.shape[1])[:, None]
    return values.ravel()[index + offsets]


def _scatter(index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[r, index[r, k]] = values[r, k] for every row r, by flat index."""
    out = np.empty(values.shape, dtype=values.dtype)
    offsets = np.arange(0, out.size, out.shape[1])[:, None]
    out.ravel()[index + offsets] = values
    return out


def _half_gains(x, sizes, rank, y, their_sizes, weights) -> np.ndarray:
    """Each player of one half's sum over S of w_|S| [max(x_S + e_i, 0) - max(x_S, 0)].

    x holds the half's subset sums in mask order and sizes their member
    counts; rank counts the other half's sums y (sorted from the largest down,
    with member counts their_sizes) that give x + y > 0. The masks of size a
    and a + 1 read size a's prefix sums in one gather: g_a for the first,
    g_{|M|-1} for the second.
    """
    rows, width = x.shape
    bits = width.bit_length() - 1
    by_size = np.argsort(sizes, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(sizes, minlength=bits + 1))])
    span = y.shape[1] + 1
    # prefix sums of w_{a+|B|} and of w_{a+|B|} y_B, each from a leading 0,
    # read by flat index: row r's count at r * 2 * span + rank, its pooled
    # sum span further on
    prefix = np.zeros((rows, 2, span))
    flat, both = prefix.ravel(), prefix[:, :, 1:]
    weight, pooled = both[:, 0], both[:, 1]
    offsets = np.arange(0, rows * 2 * span, 2 * span)[:, None]
    lacking = np.zeros((rows, width))  # g_|M|(M), read for the players outside M
    holding = np.zeros((rows, width))  # g_{|M|-1}(M), read for the players in M
    for a in range(bits):
        # every index is in range; "clip" writes straight into the buffer
        np.take(weights, a + their_sizes, out=weight, mode="clip")
        np.multiply(weight, y, out=pooled)
        np.cumsum(both, axis=2, out=both)
        cols = by_size[start[a]:start[a + 2]]
        index = np.take(rank, cols, axis=1) + offsets
        g = flat[index + span] + np.take(x, cols, axis=1) * flat[index]
        split = start[a + 1] - start[a]
        lacking[:, cols[:split]] = g[:, :split]
        holding[:, cols[split:]] = g[:, split:]
        del index, g
    del prefix, flat, weight, pooled, both
    gains = np.empty((rows, bits))
    for bit in range(bits):
        # masks split as (higher bits, this bit, lower bits); the difference is
        # C-contiguous, so each row sums in the order a one-row call sums it
        pairs = (rows, -1, 2, 1 << bit)
        diff = holding.reshape(pairs)[:, :, 1] - lacking.reshape(pairs)[:, :, 0]
        gains[:, bit] = diff.reshape(rows, -1).sum(axis=1)
    return gains


def shapley_exact(instance: CoalitionInstance) -> PayoffAllocation:
    """Exact Shapley allocation, up to _EXACT_LIMIT players, in O(2^(N/2)) memory:
    one row of _shapley_rows."""
    n = instance.n
    if n > _EXACT_LIMIT:
        raise SizeError(f"exact Shapley is limited to N <= {_EXACT_LIMIT}, got {n}")
    energies = np.array([[c.net_energy for c in instance.customers]])
    phi = _shapley_rows(energies, instance.tariff)[0]
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
    return PayoffAllocation({c.id: float(phi[i]) for i, c in enumerate(instance.customers)})


def shapley_payoff_rows(
    energies: np.ndarray, tariff: Tariff, sample_count: int, seeds
) -> tuple[np.ndarray, bool]:
    """Shapley payoffs of every row of a rows x N matrix of net energies, and
    whether they were sampled: the one exact-vs-sampled policy.

    Up to _EXACT_LIMIT members the rows go through _shapley_rows in chunks of
    at most 2^16 / 2^ceil(N/2) rows, so no temporary outgrows a one-row call
    at _EXACT_LIMIT members. Above it, row r is estimated from `sample_count`
    join orders seeded by seeds[r].
    """
    rows, n = energies.shape
    if n <= _EXACT_LIMIT:
        chunk = 1 << (16 - (n + 1) // 2)
        parts = [_shapley_rows(energies[i:i + chunk], tariff) for i in range(0, rows, chunk)]
        return np.concatenate(parts), False
    ids = [f"m{k}" for k in range(n)]
    payoffs = []
    for row, seed in zip(energies.tolist(), seeds):
        customers = tuple(Customer(i, SUPPLIER if e > 0 else USER, e) for i, e in zip(ids, row))
        alloc = shapley_monte_carlo(CoalitionInstance(customers, tariff), sample_count, seed)
        payoffs.append([alloc.payoffs[i] for i in ids])
    return np.array(payoffs).reshape(rows, n), True


def _core_gap(x: np.ndarray, energies: np.ndarray, tariff: Tariff) -> tuple[float, int]:
    """The largest v(S) - x(S) over nonempty S, and the mask of one S attaining it.

    As p_rp > p_wp, v(S) - x(S) = min(alpha_S, beta_S) with the additive
    alpha = p_wp * e - x and beta = p_rp * e - x. S joins subsets A and B of
    the two halves of _shapley_rows; A's best B is on the Pareto frontier of
    the (alpha_B, beta_B), where alpha_B - beta_B rises, next to beta_A - alpha_A.
    """
    half = len(x) // 2
    terms = np.stack([tariff.p_wp * energies - x, tariff.p_rp * energies - x])
    alpha_a, beta_a = _subset_sums(terms[:, :half])
    alpha_b, beta_b = _subset_sums(terms[:, half:])
    # by alpha falling (beta falling on ties), each frontier beta tops all before it
    order = np.lexsort((-beta_b, -alpha_b))
    beta = beta_b[order]
    front = order[np.concatenate([[True], beta[1:] > np.maximum.accumulate(beta)[:-1]])][::-1]
    at = np.searchsorted(alpha_b[front] - beta_b[front], beta_a[1:] - alpha_a[1:])
    partner = front[np.clip([at - 1, at], 0, len(front) - 1)]
    gaps = np.minimum(alpha_a[1:] + alpha_b[partner], beta_a[1:] + beta_b[partner])
    masks = np.arange(1, len(alpha_a)) | partner << half
    # the empty A pairs with every nonempty B
    gaps = np.append(gaps, np.minimum(alpha_b, beta_b)[1:])
    masks = np.append(masks, np.arange(1, len(alpha_b)) << half)
    worst = int(np.argmax(gaps))
    return float(gaps[worst]), int(masks[worst])


def _core_tolerance(instance: CoalitionInstance) -> float:
    """1e-9, or 64 N ulps of p_rp * sum |e| when the nets make that larger."""
    scale = instance.tariff.p_rp * math.fsum(abs(c.net_energy) for c in instance.customers)
    return max(1e-9, 64 * instance.n * np.finfo(float).eps * scale)


def in_core(allocation: PayoffAllocation, instance: CoalitionInstance):
    """Check that no coalition can block the allocation.

    Returns (True, None) or (False, (ids, shortfall)) for the coalition with
    the largest violation, by _core_gap. The allocation must be efficient.
    Both checks allow _core_tolerance, and N is limited to _EXACT_LIMIT.
    """
    if instance.n > _EXACT_LIMIT:
        raise SizeError(f"core check is limited to N <= {_EXACT_LIMIT}, got {instance.n}")
    energies = np.array([c.net_energy for c in instance.customers])
    x = np.array([allocation.payoffs[c.id] for c in instance.customers])
    tol = _core_tolerance(instance)
    total, grand = math.fsum(x), coalition_value(instance.customers, instance.tariff)
    if abs(total - grand) > tol:
        raise InputError(f"allocation is not efficient: sum={total:.12g} vs v(N)={grand:.12g}")
    shortfall, mask = _core_gap(x, energies, instance.tariff)
    if shortfall <= tol:
        return True, None
    ids = tuple(c.id for k, c in enumerate(instance.customers) if mask >> k & 1)
    return False, (ids, shortfall)


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


def supplier_count_sweep(
    seed: int,
    supplier_counts,
    n_users: int,
    tariff: Tariff,
    samples: int = 40_000,
):
    """Average supplier payoff as the supplier population grows.

    Suppliers are added incrementally to a fixed seeded population so sweep
    points share random draws; payoffs come from shapley_payoff_rows.
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
        energies = np.concatenate([surpluses[:k], -demands])[None]
        phi = shapley_payoff_rows(energies, tariff, samples, [seed + k])[0][0].tolist()
        supplier_total = math.fsum(phi[:k])
        supply = float(surpluses[:k].sum())
        rows.append(
            {
                "supplier_count": k,
                "avg_supplier_payoff": supplier_total / k,
                # the first supplier's payoff tracks one member's revenue as
                # the market crowds; it is free of composition noise
                "witness_supplier_payoff": phi[0],
                "supplier_price_per_kwh": supplier_total / supply if supply > 0 else 0.0,
                "total_supply": supply,
                "total_demand": float(demands.sum()),
            }
        )
    return rows
