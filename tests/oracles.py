"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's own algorithms: volumes come from a
max-flow over half-kWh units, welfare from an assignment solver, optimal EV
welfare from exhaustive grid search, Shapley values from direct enumeration,
a per-player subset loop or one in exact rational arithmetic,
superadditivity from all 3^N disjoint pairs, the storage leader's price from
a search over the whole price grid (it shares only the vectorized supply
curve `supply_at` with the package), the incentive-compatibility report from
one full `run_storage_auction` per misreport, and the EV transfer-polytope
projection from one capped-sum projection per row and per column in each
Dykstra cycle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from gridswap.errors import InputError
from gridswap.storage import (
    IcReport,
    ResidentialUnit,
    SfcAgent,
    ru_realized_utility,
    run_storage_auction,
    supply_at,
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


def shapley_exact_loop(instance):
    """Exact Shapley payoffs by id, one player and one subset at a time."""
    n = instance.n
    # plain floats: the same IEEE arithmetic as numpy scalars, without their overhead
    values = _subset_values_loop(instance).tolist()
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    sizes = [bin(mask).count("1") for mask in range(1 << n)]
    phi = [0.0] * n
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                continue
            phi[i] += weights[sizes[mask]] * (values[mask | bit] - values[mask])
    return {c.id: phi[i] for i, c in enumerate(instance.customers)}


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


def check_incentive_compatibility_loop(scenarios, factors=None, gain_tolerance=1e-9):
    """`check_incentive_compatibility` with one full auction run per misreport."""
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
        truthful = run_storage_auction(list(sc.rus), list(sc.sfcs), sc.rule)
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
                    out = run_storage_auction(rus, list(sc.sfcs), sc.rule)
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
                out = run_storage_auction(list(sc.rus), sfcs, sc.rule)
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
