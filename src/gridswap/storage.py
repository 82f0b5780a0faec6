"""Storage-space sharing auction between residential units and SFCs.

Shared facility controllers bid for storage space; residential units lease
theirs out. A determination rule screens participants around the Vickrey
price (second-highest bid), the auction price comes from a leader-follower
game (the auctioneer picks the price, units respond with the space they
share), and any oversupply burden is split proportionally to reservation
prices or equally with a waterfall.

A residential unit that commits space `a` and sells `a - burden` of it
realizes utility p*(a - burden) - r*a - (alpha/2)*a^2: revenue accrues only
on space actually taken, while the reservation value and the quadratic
inconvenience are sunk on the full commitment.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

PROPORTIONAL = "proportional"
EQUAL = "equal"

_PRICE_RESOLUTION = 1e-4


@dataclass(frozen=True)
class ResidentialUnit:
    """A storage owner: shareable capacity, reservation price, reluctance."""

    id: str
    capacity: float
    reservation_price: float
    reluctance: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.capacity, self.reservation_price, self.reluctance))):
            raise InputError(
                f"RU {self.id!r} needs finite capacity, reservation price and reluctance"
            )
        if self.capacity < 0:
            raise InputError(f"RU {self.id!r} capacity must be >= 0")
        if self.reluctance <= 0:
            raise InputError(f"RU {self.id!r} reluctance must be > 0")
        if self.reservation_price < 0:
            raise InputError(f"RU {self.id!r} reservation price must be >= 0")


@dataclass(frozen=True)
class SfcAgent:
    """A shared facility controller needing storage space."""

    id: str
    requirement: float
    bid_price: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.requirement) and math.isfinite(self.bid_price)):
            raise InputError(f"SFC {self.id!r} needs finite requirement and bid")
        if self.requirement <= 0:
            raise InputError(f"SFC {self.id!r} requirement must be > 0")
        if self.bid_price < 0:
            raise InputError(f"SFC {self.id!r} bid must be >= 0")


@dataclass
class StorageAuctionOutcome:
    vickrey_price: float | None
    auction_price: float | None
    participating_rus: tuple[str, ...]
    participating_sfcs: tuple[str, ...]
    shares: dict[str, float] = field(default_factory=dict)
    sfc_allocations: dict[str, float] = field(default_factory=dict)
    burdens: dict[str, float] = field(default_factory=dict)
    ru_utilities: dict[str, float] = field(default_factory=dict)
    sfc_utilities: dict[str, float] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return self.auction_price is None

    def total_shared(self) -> float:
        return math.fsum(self.shares.values())

    def total_allocated(self) -> float:
        return math.fsum(self.sfc_allocations.values())

    def total_burden(self) -> float:
        return math.fsum(self.burdens.values())


def vickrey_price(sfcs: list[SfcAgent]) -> float:
    """Second-highest bid; degenerates to the single bid when alone."""
    if not sfcs:
        raise InputError("at least one SFC bid is required")
    bids = sorted((s.bid_price for s in sfcs), reverse=True)
    return bids[1] if len(bids) > 1 else bids[0]


def determine_participants(rus: list[ResidentialUnit], sfcs: list[SfcAgent]):
    """Screen participants around the Vickrey price.

    Units asking no more than the Vickrey price are in; SFCs stay in when
    their bid covers the cheapest participating reservation. Returns
    (participating_rus, participating_sfcs, vickrey_price); both lists are
    empty when no unit qualifies.
    """
    if not rus:
        raise InputError("at least one residential unit is required")
    v = vickrey_price(sfcs)
    rus_in = [r for r in rus if r.reservation_price <= v]
    if not rus_in:
        return [], [], v
    floor = min(r.reservation_price for r in rus_in)
    sfcs_in = [s for s in sfcs if s.bid_price >= floor]
    return rus_in, sfcs_in, v


def follower_best_response(ru: ResidentialUnit, price: float) -> float:
    """Space the unit shares at a posted price: clamp((p - r)/alpha, 0, A)."""
    if price < 0:
        raise InputError("price must be >= 0")
    # min/max, not np.clip: the same value and signed zero without numpy's per-call cost
    return float(min(max((price - ru.reservation_price) / ru.reluctance, 0.0), ru.capacity))


def supply_at(rus: list[ResidentialUnit], prices) -> np.ndarray:
    """Total shared space offered at each price (vectorized best responses)."""
    p = np.atleast_1d(np.asarray(prices, dtype=float))
    r = np.array([u.reservation_price for u in rus])
    a = np.array([u.reluctance for u in rus])
    cap = np.array([u.capacity for u in rus])
    shares = np.clip((p[:, None] - r[None, :]) / a[None, :], 0.0, cap[None, :])
    return shares.sum(axis=1)


def stackelberg_price(
    rus: list[ResidentialUnit],
    demand: list[tuple[float, float]],
    price_floor: float,
    price_cap: float,
    resolution: float = _PRICE_RESOLUTION,
) -> float:
    """Leader's price choice: the lowest maximizing price on a grid over [price_floor, price_cap].

    `demand` holds (requirement, bid) pairs for the participating SFCs. At a
    candidate price p the offered space S(p) is assigned to SFCs whose bid
    covers p, best bid first, and the leader's objective is the buyers' total
    cost saving sum((bid_m - p) * allocated_m).

    Grid contract: the candidates are numpy.linspace(price_floor, price_cap, n)
    with n = round((price_cap - price_floor) / resolution) + 1, and the result
    is the lowest of them whose objective, computed in float64 as an array over
    the whole grid would compute it, is largest. S is continuous and
    nondecreasing, so the tie-break makes the result unique and deterministic.

    The grid is never built. S is piecewise linear, so between its kinks, the
    bids and the prices where S crosses a cumulative requirement the objective
    is one concave quadratic (linear where S is flat). Pieces are visited best
    continuous maximum first; each is snapped to the grid points around its
    maximizer, and the search stops once no remaining piece can beat the best
    grid value found. For R units and M SFCs, building and sorting the pieces
    costs O((R+M) log(R+M)) and each grid point evaluated O(R+M); usually one
    or two pieces, a handful of grid points, are evaluated. No cost depends on
    the bids or on the resolution.
    """
    if not rus:
        raise InputError("no participating residential units")
    if not demand or all(q <= 0 for q, _ in demand):
        raise InputError("total requirement must be > 0")
    if any(q < 0 for q, _ in demand):
        raise InputError("requirements must be >= 0")
    if price_cap < price_floor:
        raise InputError(f"invalid price bounds [{price_floor}, {price_cap}]")
    n = max(1, int(round((price_cap - price_floor) / resolution)) + 1)
    delta = price_cap - price_floor
    step = delta / (n - 1) if n > 1 else delta

    def price(i: int) -> float:
        """The i-th point of numpy.linspace(price_floor, price_cap, n)."""
        return price_cap if 0 < i == n - 1 else i * step + price_floor

    if n == 1:
        return price(0)
    units = [(u.reservation_price, u.reluctance, u.capacity) for u in rus]
    ranked = sorted(demand, key=lambda d: -d[1])  # stable: equal bids keep their order
    reqs = [float(q) for q, _ in ranked]
    bids = [float(b) for _, b in ranked]
    pieces = sorted(_pieces(units, reqs, bids, price_floor, price_cap), key=lambda t: -t[0])
    # covers rounding in the float objective and in the pieces' maxima
    slack = 1e-9 * (abs(price_floor) + abs(price_cap) + max(map(abs, bids))) * (
        math.fsum(reqs) + math.fsum(cap for *_, cap in units)
    )
    best_i, best = -1, -math.inf
    seen = set()
    for top, x in pieces:
        if top < best - slack:
            break
        # the grid points either side of x, and one more each way for rounding in x
        below = int((x - price_floor) / step)
        for i in range(max(below - 1, 0), min(below + 3, n)):
            if i not in seen:
                seen.add(i)
                value = _saving(price(i), units, reqs, bids)
                if value > best or (value == best and i < best_i):
                    best_i, best = i, value
    return price(best_i)


def _saving(p: float, units, reqs: list[float], bids: list[float]) -> float:
    """The leader's objective at price p, with the float64 operations of its array form.

    `units` holds (reservation, reluctance, capacity) per unit in input
    order; `reqs` and `bids` are in descending bid order.
    """
    shares = []
    for r, a, cap in units:
        x = (p - r) / a
        x = x if x > 0.0 else 0.0
        shares.append(x if x < cap else cap)
    space = _array_sum(shares)
    cutoff = p - 1e-12
    cum = 0.0
    terms = []
    for q, b in zip(reqs, bids):
        wanted = q if b >= cutoff else 0.0
        cum += wanted
        x = space - (cum - wanted)
        x = x if x > 0.0 else 0.0
        terms.append((b - p) * (x if x < wanted else wanted))
    return _array_sum(terms)


def _pieces(units, reqs: list[float], bids: list[float], lo: float, hi: float):
    """Yield (maximum, maximizer) of the objective on each piece of [lo, hi].

    A piece is an interval on which the supply S(p) = s0 + s1*p is linear, the
    eligible SFCs (the first m in bid order) are fixed, and so is the SFC j
    being partly filled. There the objective is
    sum_{i<j} (b_i - p)*q_i + (b_j - p)*(S(p) - Q_j), with Q_j the requirement
    of the first j SFCs: concave, with its vertex at (b_j - s0/s1) / 2.
    """
    filled, paid = [0.0], [0.0]  # Q_j and sum_{i<j} b_i*q_i
    for q, b in zip(reqs, bids):
        filled.append(filled[-1] + q)
        paid.append(paid[-1] + b * q)
    # an SFC stays eligible up to its bid plus the 1e-12 slack of `_saving`
    leave = sorted(b + 1e-12 for b in bids)
    # (price, +1 where a unit starts sharing or -1 where it is full,
    #  reluctance, reservation, capacity it adds from there on)
    kinks = sorted(
        [(r, 1, a, r, 0.0) for r, a, cap in units if cap > 0]
        + [(r + a * cap, -1, a, r, cap) for r, a, cap in units if cap > 0]
    )
    inner = [x for x in leave if lo < x < hi] + [x for x, *_ in kinks if lo < x < hi]
    cuts = sorted({lo, hi, *inner})
    # S(p) = sat + lin1*p - lin0, with `active` units in their linear part
    sat = lin0 = lin1 = 0.0
    active = k = 0
    for u, v in zip(cuts, cuts[1:]):
        while k < len(kinks) and kinks[k][0] <= u:
            _, sign, a, r, cap = kinks[k]
            active += sign
            lin1 += sign / a
            lin0 += sign * r / a
            sat += cap
            k += 1
        if not active:
            lin0 = lin1 = 0.0
        s0, s1 = sat - lin0, lin1
        m = len(bids) - bisect.bisect_right(leave, u)
        # split [u, v] where S crosses a cumulative requirement
        j = bisect.bisect_right(filled, s0 + s1 * u, 0, m + 1) - 1
        last = bisect.bisect_right(filled, s0 + s1 * v, 0, m + 1) - 1 if s1 > 0 else j
        start = u
        while True:
            end = min(max((filled[j + 1] - s0) / s1, start), v) if j < last else v
            if j < m:
                b, q = bids[j], filled[j]
                x = min(max((b - s0 / s1) / 2, start), end) if s1 > 0 else start
                yield paid[j] - x * q + (b - x) * (s0 + s1 * x - q), x
            else:  # every eligible SFC is full: linear, decreasing
                yield paid[m] - start * filled[m], start
            if j == last:
                break
            start = end
            j += 1


def _array_sum(values: list[float]) -> float:
    """Sum floats in the order numpy's float64 sum along a contiguous axis uses.

    That is pairwise summation: fewer than 8 values are added left to right,
    up to 128 through eight interleaved partial sums, and longer runs are
    split in two at a multiple of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[tail:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _array_sum(values[:half]) + _array_sum(values[half:])


def allocate_shares(
    shares: list[float],
    requirements: list[float],
    rule: str,
    reservations: list[float] | None = None,
):
    """Distribute shared space to requirements and oversupply back to units.

    Requirements are filled in the order given (callers pass descending bid
    order) from the pooled shares. Unsold space is the oversupply burden:
    `proportional` splits it by reservation price, `equal` splits it evenly;
    both cap a unit's burden at its own share and redistribute any excess
    until feasible.
    """
    if rule not in (PROPORTIONAL, EQUAL):
        raise InputError(f"allocation rule must be 'proportional' or 'equal', got {rule!r}")
    shares = [float(s) for s in shares]
    requirements = [float(q) for q in requirements]
    if any(s < 0 for s in shares) or any(q < 0 for q in requirements):
        raise InputError("shares and requirements must be nonnegative")
    if rule == PROPORTIONAL:
        if reservations is None:
            raise InputError("proportional allocation needs reservation prices")
        if len(reservations) != len(shares):
            raise InputError("one reservation price per share is required")

    total_supply = math.fsum(shares)
    allocations = []
    left = total_supply
    for q in requirements:
        take = min(q, left)
        allocations.append(take)
        left -= take

    unsold = max(total_supply - math.fsum(allocations), 0.0)
    burdens = [0.0] * len(shares)
    if unsold > 1e-12:
        if rule == EQUAL:
            weights = [1.0] * len(shares)
        else:
            weights = list(reservations)
            if math.fsum(weights) <= 0:
                weights = [1.0] * len(shares)
        remaining = unsold
        open_units = [k for k in range(len(shares)) if shares[k] > 0]
        # waterfall: assign by weight, cap at the unit's own share, repeat
        while remaining > 1e-12 and open_units:
            wsum = math.fsum(weights[k] for k in open_units)
            if wsum <= 0:
                share_each = remaining / len(open_units)
                step = {k: share_each for k in open_units}
            else:
                step = {k: remaining * weights[k] / wsum for k in open_units}
            next_open = []
            for k in open_units:
                room = shares[k] - burdens[k]
                add = min(step[k], room)
                burdens[k] += add
                remaining -= add
                if burdens[k] < shares[k] - 1e-12:
                    next_open.append(k)
            if next_open == open_units:
                break
            open_units = next_open
    return allocations, burdens


def ru_realized_utility(
    ru: ResidentialUnit, price: float, committed: float, burden: float
) -> float:
    """Utility of committing `committed` kWh and selling all but `burden`."""
    sold = max(committed - burden, 0.0)
    return (
        price * sold
        - ru.reservation_price * committed
        - 0.5 * ru.reluctance * committed**2
    )


def run_storage_auction(
    rus: list[ResidentialUnit],
    sfcs: list[SfcAgent],
    rule: str = PROPORTIONAL,
) -> StorageAuctionOutcome:
    """Full auction: determination, leader-follower pricing, allocation.

    SFCs whose bid falls below the auction price take nothing (no buyer is
    ever forced to trade at a loss); the rest are filled in descending bid
    order.
    """
    rus_in, sfcs_in, v = determine_participants(rus, sfcs)
    if not rus_in or not sfcs_in:
        return StorageAuctionOutcome(
            vickrey_price=v,
            auction_price=None,
            participating_rus=tuple(r.id for r in rus_in),
            participating_sfcs=tuple(s.id for s in sfcs_in),
        )

    cap = max(s.bid_price for s in sfcs_in)
    demand = [(s.requirement, s.bid_price) for s in sfcs_in]
    price = stackelberg_price(rus_in, demand, v, cap)

    shares = {r.id: follower_best_response(r, price) for r in rus_in}

    eligible = sorted(
        (s for s in sfcs_in if s.bid_price >= price - 1e-12),
        key=lambda s: (-s.bid_price, s.id),
    )
    share_list = [shares[r.id] for r in rus_in]
    allocations, burdens = allocate_shares(
        share_list,
        [s.requirement for s in eligible],
        rule,
        reservations=[r.reservation_price for r in rus_in],
    )

    sfc_allocations = {s.id: 0.0 for s in sfcs_in}
    sfc_allocations.update({s.id: a for s, a in zip(eligible, allocations)})
    burden_map = {r.id: b for r, b in zip(rus_in, burdens)}

    ru_utils = {
        r.id: ru_realized_utility(r, price, shares[r.id], burden_map[r.id])
        for r in rus_in
    }
    sfc_utils = {
        s.id: (s.bid_price - price) * sfc_allocations[s.id] for s in sfcs_in
    }

    return StorageAuctionOutcome(
        vickrey_price=v,
        auction_price=price,
        participating_rus=tuple(r.id for r in rus_in),
        participating_sfcs=tuple(s.id for s in sfcs_in),
        shares=shares,
        sfc_allocations=sfc_allocations,
        burdens=burden_map,
        ru_utilities=ru_utils,
        sfc_utilities=sfc_utils,
    )


def requirement_sweep(
    rus: list[ResidentialUnit],
    sfcs: list[SfcAgent],
    totals,
    rule: str = PROPORTIONAL,
):
    """Re-run the auction with SFC requirements scaled to each total."""
    base = math.fsum(s.requirement for s in sfcs)
    rows = []
    for total in totals:
        scaled = [
            SfcAgent(s.id, s.requirement * total / base, s.bid_price) for s in sfcs
        ]
        out = run_storage_auction(rus, scaled, rule)
        avg = (
            math.fsum(out.ru_utilities.values()) / len(out.ru_utilities)
            if out.ru_utilities
            else 0.0
        )
        rows.append(
            {
                "total_requirement": float(total),
                "auction_price": out.auction_price,
                "total_shared": out.total_shared(),
                "avg_ru_utility": avg,
            }
        )
    return rows


@dataclass(frozen=True)
class StorageScenario:
    rus: tuple[ResidentialUnit, ...]
    sfcs: tuple[SfcAgent, ...]
    rule: str = PROPORTIONAL


@dataclass
class IcReport:
    scenarios_checked: int
    deviations_checked: int
    profitable_deviations: list
    ir_violations: list

    @property
    def clean(self) -> bool:
        return not self.profitable_deviations and not self.ir_violations


def _ru_deviation_utility(
    scenario: StorageScenario, ru: ResidentialUnit, reported: ResidentialUnit, rule: str
) -> float:
    """Realized utility of `ru` when the auction sees `reported` instead."""
    rus = [reported if r.id == ru.id else r for r in scenario.rus]
    out = run_storage_auction(rus, list(scenario.sfcs), rule)
    if out.empty or ru.id not in out.shares:
        return 0.0
    committed = out.shares[ru.id]
    burden = out.burdens.get(ru.id, 0.0)
    # phantom capacity cannot be locked or delivered
    locked = min(committed, ru.capacity)
    sold = min(max(committed - burden, 0.0), locked)
    return (
        out.auction_price * sold
        - ru.reservation_price * locked
        - 0.5 * ru.reluctance * locked**2
    )


def check_incentive_compatibility(
    scenarios: list[StorageScenario],
    factors=None,
    gain_tolerance: float = 1e-9,
) -> IcReport:
    """Search unilateral misreports for profitable deviations.

    Every RU's reservation price and capacity, and every SFC's bid, is scaled
    through the multiplicative factor grid (default 0.5..1.5 step 0.05); the
    auction is re-run and realized utilities are compared against truthful
    play. Individual rationality of the truthful outcome is checked as well.
    """
    if factors is None:
        factors = [round(0.5 + 0.05 * k, 10) for k in range(21)]
    profitable = []
    ir_violations = []
    checked = 0
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
                    u = _ru_deviation_utility(sc, r, ResidentialUnit(**kwargs), sc.rule)
                    checked += 1
                    gain = u - base_ru[r.id]
                    if gain > gain_tolerance:
                        profitable.append((idx, r.id, param, f, gain))

        for s in sc.sfcs:
            for f in factors:
                if f == 1.0:
                    continue
                sfcs = [
                    SfcAgent(x.id, x.requirement, x.bid_price * f)
                    if x.id == s.id
                    else x
                    for x in sc.sfcs
                ]
                out = run_storage_auction(list(sc.rus), sfcs, sc.rule)
                checked += 1
                u = (
                    (s.bid_price - out.auction_price) * out.sfc_allocations.get(s.id, 0.0)
                    if not out.empty
                    else 0.0
                )
                gain = u - truthful.sfc_utilities.get(s.id, 0.0)
                if gain > gain_tolerance:
                    profitable.append((idx, s.id, "bid_price", f, gain))
    return IcReport(
        scenarios_checked=len(scenarios),
        deviations_checked=checked,
        profitable_deviations=profitable,
        ir_violations=ir_violations,
    )


def make_ic_scenarios(count: int, seed: int, rule: str = PROPORTIONAL):
    """Seeded scenario family on which truthful reporting is a best response.

    Supply is deliberately price-inelastic here: every unit is capacity
    clamped at the Vickrey floor with margin covering the whole misreport
    grid, and each SFC alone can absorb all offered space. The price then
    pins to the Vickrey price no matter what any single agent reports, which
    is the regime where the mechanism's incentive-compatibility claim holds;
    with price-sensitive supply a unit can profit by overstating its
    reservation price (see tests for a demonstration).
    """
    rng = np.random.default_rng(seed)
    scenarios = []
    for k in range(count):
        n_sfc = int(rng.integers(2, 4))
        bids = np.sort(rng.uniform(0.25, 0.40, n_sfc))[::-1]
        v = bids[1]
        n_ru = int(rng.integers(2, 5))
        rus = []
        for j in range(n_ru):
            alpha = float(rng.uniform(0.0008, 0.0015))
            cap = float(rng.uniform(30.0, 60.0))
            r_hi = (v - 1.6 * alpha * cap) / 1.5 - 0.01
            r = float(rng.uniform(0.02, max(r_hi, 0.021)))
            rus.append(ResidentialUnit(f"ru{j}", cap, r, alpha))
        total_cap = sum(r.capacity for r in rus)
        sfcs = [
            SfcAgent(f"sfc{m}", float(rng.uniform(1.6, 2.5)) * total_cap, float(bids[m]))
            for m in range(n_sfc)
        ]
        scenarios.append(StorageScenario(tuple(rus), tuple(sfcs), rule))
    return scenarios
