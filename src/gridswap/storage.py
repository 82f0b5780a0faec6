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

One whole-array kernel, `_stackelberg_rows`, prices a batch of auctions of
one shape without building their price grids, in O((R+M) log(R+M)) per
auction for R units and M SFCs. A closed-form screen comes first: where
every unit already shares its whole capacity at the lowest grid price p0
and no SFC filled there bids below p0, supply is flat above p0 and each
buyer's saving only falls as the price rises, so p0 is the price and no
search runs; every auction of the `make_ic_scenarios` family but a few is
of that kind. `run_storage_auction` chains the one-row steps
(`stackelberg_price` is one row of that kernel); `_auctions` screens,
prices and settles a batch of whole auctions, one row per total for
`requirement_sweep` and, for the incentive-compatibility search, the
truthful report and every misreport of every scenario of one (units, SFCs,
rule) group. Each stage is cut by its own footprint per row against
`_CHUNK_BYTES`: `_auctions` screens and settles chunks of rows of at most
8 * (24 + 12 R + 15 M) bytes each, `_stackelberg_rows` hands the rows the
screen leaves to the search in sub-chunks of 8 * (88 + 64 R + 30 M) bytes
each, and the incentive search splits a group whose arrays would pass the
bound. So a screened row, as nearly every row of the incentive search is,
does not pay for the search's temporaries. The search scales reports by the
fixed grid `_FACTORS` and reads gains back as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .ingest import ENERGY, PRICE, QUADRATIC, physical

PROPORTIONAL = "proportional"
EQUAL = "equal"

_PRICE_RESOLUTION = 1e-4
# grid indices stay exact in float64
_MAX_GRID_POINTS = 2**53
# about the most memory, in bytes, that one screen-and-settle chunk of
# `_auctions`, one search sub-chunk of `_stackelberg_rows`, one chunk of
# `_objective` grid points or the arrays of one incentive-search batch take;
# each sizes its rows from its own footprint, measured with tracemalloc
_CHUNK_BYTES = 1 << 20
# the incentive search's misreport factors, 0.5 to 1.5 in steps of 0.05 without
# 1.0, and the gain or individual-rationality shortfall it counts
_FACTORS = tuple(round(0.5 + 0.05 * k, 10) for k in range(21) if k != 10)
_GAIN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ResidentialUnit:
    """A storage owner: shareable capacity, reservation price, reluctance."""

    id: str
    capacity: float
    reservation_price: float
    reluctance: float

    def __post_init__(self) -> None:
        physical(self.capacity, ENERGY, "RU {!r} capacity", self.id)
        physical(self.reservation_price, PRICE, "RU {!r} reservation price", self.id)
        physical(self.reluctance, QUADRATIC, "RU {!r} reluctance", self.id)
        if self.reluctance == 0:
            raise InputError(f"RU {self.id!r} reluctance must be > 0")


@dataclass(frozen=True)
class SfcAgent:
    """A shared facility controller needing storage space."""

    id: str
    requirement: float
    bid_price: float

    def __post_init__(self) -> None:
        physical(self.requirement, ENERGY, "SFC {!r} requirement", self.id)
        physical(self.bid_price, PRICE, "SFC {!r} bid", self.id)
        if self.requirement == 0:
            raise InputError(f"SFC {self.id!r} requirement must be > 0")


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
    v, rus_in, sfcs_in = _screen(
        np.array([[r.reservation_price for r in rus]]), np.array([[s.bid_price for s in sfcs]])
    )
    return (
        [r for r, k in zip(rus, rus_in[0]) if k],
        [s for s, k in zip(sfcs, sfcs_in[0]) if k],
        float(v[0]),
    )


def _screen(reservations: np.ndarray, bids: np.ndarray):
    """`determine_participants` of each row: (Vickrey prices, unit mask, SFC mask).

    `reservations` is (D, R) and `bids` is (D, M), both in input order.
    """
    if not reservations.shape[1]:
        raise InputError("at least one residential unit is required")
    if not bids.shape[1]:
        raise InputError("at least one SFC bid is required")
    ranked = np.sort(bids, axis=1)
    v = ranked[:, -2] if bids.shape[1] > 1 else ranked[:, -1]
    rus_in = reservations <= v[:, None]
    floor = np.where(rus_in, reservations, np.inf).min(axis=1)
    return v, rus_in, bids >= floor[:, None]


def follower_best_response(ru: ResidentialUnit, price: float) -> float:
    """Space the unit shares at a posted price: clamp((p - r)/alpha, 0, A)."""
    if price < 0:
        raise InputError("price must be >= 0")
    # min/max, not np.clip: the same value and signed zero without numpy's per-call cost
    return float(min(max((price - ru.reservation_price) / ru.reluctance, 0.0), ru.capacity))


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

    The inputs are validated here and priced as one row of the whole-array
    kernel `_stackelberg_rows`, which never builds the grid: for R units and M
    SFCs it costs O((R+M) log(R+M)), whatever the bids and the resolution.
    """
    if not rus:
        raise InputError("no participating residential units")
    if not demand or all(q <= 0 for q, _ in demand):
        raise InputError("total requirement must be > 0")
    if any(q < 0 for q, _ in demand):
        raise InputError("requirements must be >= 0")
    if price_cap < price_floor:
        raise InputError(f"invalid price bounds [{price_floor}, {price_cap}]")
    if (price_cap - price_floor) / resolution >= _MAX_GRID_POINTS:
        raise InputError(f"bounds [{price_floor}, {price_cap}] span too many grid points")
    units = np.array([[u.reservation_price, u.reluctance, u.capacity] for u in rus]).T[:, None]
    sfcs = np.array(demand, dtype=float).T[:, None]
    bounds = np.array([[price_floor], [price_cap]], dtype=float)
    return float(_stackelberg_rows(*units, *sfcs, *bounds, resolution)[0])


def _stackelberg_rows(res, rel, cap, reqs, bids, lo, hi, resolution=_PRICE_RESOLUTION,
                      searched=None):
    """`stackelberg_price` of each row of a batch of auctions that share one shape.

    `res`, `rel` and `cap` are (B, R) arrays of the participating units'
    reservation prices, reluctances and capacities in input order; `reqs` and
    `bids` are (B, M) arrays of the SFCs' requirements and bids; `lo` and `hi`
    hold each row's price bounds. Nothing is validated. Where `searched` is
    given, a boolean array of B, the rows that the search prices are set in it.

    Memory: the screen's temporaries grow with B*(R+M), so callers bound B.
    The search takes its rows in sub-chunks of `_CHUNK_BYTES` over its own
    footprint, 8 * (88 + 64 R + 30 M) bytes per row, so a sub-chunk's
    temporaries stay under about `_CHUNK_BYTES` whatever B is.

    The grid is never built. First a closed-form screen prices a row at its
    grid point 0, p0, when (a) every unit has (p0 - r)/alpha >= A, and (b) no
    SFC with a nonzero fill at p0 (as `_objective` fills them) bids below p0.
    At every grid point p >= p0 then:
    - each unit's clamp is monotone, so by (a) it gives A (a zero of either
      sign where A is zero), and S(p) is the same float sum;
    - the eligible SFCs are a prefix of the bid order that only shrinks, so
      the fills of those still eligible are the same floats, each term
      (b - p)*f can only fall as p rises, and by (b) no term that drops out
      (to a zero) was negative;
    - numpy's pairwise sum is monotone in each term.
    So p0, the lowest grid point, is the lowest maximizer.

    The other rows are searched (`_grid_maximizers`). S is piecewise linear,
    so between its kinks, the bid exits and the prices where S crosses a
    cumulative requirement the objective is one concave quadratic (linear
    where S is flat). The pieces of all rows are listed as flat ragged arrays,
    each with its continuous maximum. The grid points around each row's best
    piece are evaluated first; then, in one more call, those around every
    piece whose maximum can still reach that row's best grid value. Listing
    and sorting the pieces costs O((R+M) log(R+M)) per row and each grid point
    evaluated O(R+M); no temporary is sized by units or SFCs times pieces.
    """
    n = np.round((hi - lo) / resolution).astype(np.int64) + 1
    step = (hi - lo) / np.maximum(n - 1, 1)
    # grid point 0, as `_objective` evaluates it: the price of a one-point grid
    # and of a row that passes the screen
    prices = 0 * step + lo
    # best bid first; equal bids keep their order
    rank = np.argsort(-bids, axis=1, kind="stable")
    rows = np.arange(len(lo))[:, None]
    reqs, bids = reqs[rows, rank], bids[rows, rank]
    # the screen: (a), then (b)
    p0 = prices[:, None]
    flat = ((p0 - res) / rel >= cap).all(axis=1)
    flat &= ~((bids < p0) & (_fills(p0, res, rel, cap, reqs, bids) != 0)).any(axis=1)
    live = np.flatnonzero((n > 1) & ~flat)
    if searched is not None:
        searched[live] = True
    # the search's temporaries peak at under 8 * (88 + 64 R + 30 M) bytes per
    # row, measured on rows of 1 to 50 units and 1 to 20 SFCs
    size = max(1, _CHUNK_BYTES // (8 * (88 + 64 * res.shape[1] + 30 * bids.shape[1])))
    batch = (res, rel, cap, reqs, bids, lo, hi, n, step)
    for k in range(0, len(live), size):
        some = live[k:k + size]
        prices[some] = _grid_maximizers(*(x[some] if len(some) < len(lo) else x for x in batch))
    return prices


def _grid_maximizers(res, rel, cap, reqs, bids, lo, hi, n, step):
    """`_stackelberg_rows` for rows whose grid has n > 1 points, SFCs in bid order."""
    B = len(lo)
    # the pieces' temporaries are gone before any grid point is evaluated
    row, x, top = _pieces(res, rel, cap, reqs, bids, lo, hi)

    # the grid points around each row's best piece; per row, the lowest of
    # largest value
    units, sfcs = np.array([res, rel, cap]), np.array([reqs, bids])
    grid = np.array([lo, hi, step, n - 1])
    below = ((x - lo[row]) / step[row]).astype(np.int64)  # the grid point at or below x
    best = np.lexsort((-top, row))[np.searchsorted(row, np.arange(B))]
    at_i = _window(below[best], n)
    value = _objective(np.arange(B), at_i, units, sfcs, grid)
    first = np.argmax(value, axis=1)
    at_i, value = at_i[np.arange(B), first], value[np.arange(B), first]
    # then around every other piece that can still reach that value; the
    # slack covers rounding in the float objective and in the pieces' maxima
    slack = 1e-9 * (np.abs(lo) + np.abs(hi) + np.abs(bids).max(axis=1)) * (
        reqs.sum(axis=1) + cap.sum(axis=1)
    )
    others = np.flatnonzero((top >= (value - slack)[row]) & (below != below[best][row]))
    if len(others):
        more_i = _window(below[others], n[row[others]])
        more = _objective(row[others], more_i, units, sfcs, grid)
        at_row = np.concatenate([np.arange(B), np.repeat(row[others], 4)])
        at_i, value = np.concatenate([at_i, more_i.ravel()]), np.concatenate([value, more.ravel()])
        order = np.lexsort((at_i, -value, at_row))
        at_i = at_i[order][np.searchsorted(at_row[order], np.arange(B))]
    return _grid_price(at_i, *grid)


def _pieces(res, rel, cap, reqs, bids, lo, hi):
    """Every row's pieces, as flat arrays (row, x, top): each piece's row, and
    the continuous maximizer x of the objective on it and its value there.

    `reqs` and `bids` are in bid order, best first.
    """
    B, R = res.shape
    M = bids.shape[1]
    rows = np.arange(B)[:, None]
    # Q_j, the requirement of the first j SFCs, and sum_{i<j} b_i*q_i
    sums = np.zeros((2, B, M + 1))
    np.cumsum(np.array([reqs, bids * reqs]), axis=2, out=sums[:, :, 1:])
    filled, paid = sums
    # an SFC stays eligible up to its bid plus the 1e-12 slack of the objective
    leave = bids[:, ::-1] + 1e-12

    # S(p) = sat + lin1*p - lin0. Its kinks, sorted as the tuples (price, sign,
    # reluctance, reservation, capacity added): sign +1 where a unit starts
    # sharing, -1 where it is full. Units without capacity have none.
    ones, zeros = np.ones((B, R)), np.zeros((B, R))
    keys = np.concatenate(
        [np.array([zeros, res, rel, ones, res]),
         np.array([cap, res, rel, -ones, res + rel * cap])],
        axis=2,
    )
    keys[4][np.concatenate([cap, cap], axis=1) <= 0] = np.inf
    added, r, a, sign, at = keys[:, rows, np.lexsort(keys, axis=-1)]
    # (active units, lin1, lin0, sat) after the first k kinks, summed in that order
    running = np.zeros((4, B, 2 * R + 1))
    np.cumsum(np.array([sign, sign / a, sign * r / a, added]), axis=2, out=running[:, :, 1:])

    # the cuts are the bounds and the kinks and bid exits between them. Each
    # item is sorted twice, once to be counted and once as a cut; the stable
    # sort puts the counted copy of an equal value first, so a cut's cumsum
    # counts the kinks and the exits at or below it
    items = np.concatenate([at, leave, lo[:, None], hi[:, None]], axis=1)
    W = items.shape[1]
    order = np.argsort(np.concatenate([items, items], axis=1), axis=1, kind="stable")
    is_cut = order >= W
    counted = np.array([order < 2 * R, (order >= 2 * R) & (order < 2 * R + M)])
    counted = np.cumsum(counted, axis=2)[:, is_cut].reshape(2, B, W)
    cuts = items[rows, order[is_cut].reshape(B, W) - W]
    keep = (cuts >= lo[:, None]) & (cuts <= hi[:, None])
    keep[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    row, col = np.nonzero(keep)
    seg = np.flatnonzero(row[:-1] == row[1:])  # a segment [u, v] per two consecutive cuts
    row, u, v = row[seg], cuts[row[seg], col[seg]], cuts[row[seg + 1], col[seg + 1]]
    k, exits = counted[:, row, col[seg]]
    m = M - exits  # SFCs past the m-th are priced out
    active, lin1, lin0, sat = running[:, row, k]
    # S(p) = s0 + s1*p on the segment, exactly flat where no unit is in its linear part
    s1 = np.where(active == 0, 0.0, lin1)
    s0 = np.where(active == 0, sat, sat - lin0)

    # split each segment where S crosses a cumulative requirement: on piece j
    # the first j SFCs are full and SFC j is partly filled (none is, at j = m)
    reach = _count_at_most(
        filled, np.concatenate([row, row]), np.concatenate([s0 + s1 * u, s0 + s1 * v])
    )
    slope = s1 > 0
    j0 = np.maximum(np.minimum(reach[:len(row)], m + 1), 1) - 1
    last = np.where(slope, np.maximum(np.minimum(reach[len(row):], m + 1) - 1, j0), j0)
    count = last - j0 + 1
    piece = np.repeat(np.arange(len(row)), count)
    j = np.arange(len(piece)) - np.repeat(np.cumsum(count) - count - j0, count)
    row, u, v, s0, s1, m, slope, j0, last = (
        x[piece] for x in (row, u, v, s0, s1, m, slope, j0, last)
    )
    rise = np.where(slope, s1, 1.0)

    def crossing(i):
        """Where S reaches Q_{i+1} on the segment, clamped to it."""
        return np.minimum(np.maximum((filled[row, np.minimum(i + 1, M)] - s0) / rise, u), v)

    start = np.where(j > j0, crossing(np.maximum(j - 1, 0)), u)
    end = np.where(j < last, crossing(j), v)
    # on piece j the objective is sum_{i<j} (b_i - p)*q_i + (b_j - p)*(S(p) - Q_j),
    # with its vertex at (b_j - s0/s1) / 2; at j = m it is linear and decreasing
    partial = j < m
    b, q, base = bids[row, np.minimum(j, M - 1)], filled[row, j], paid[row, j]
    x = np.where(partial & slope, np.minimum(np.maximum((b - s0 / rise) / 2, start), end), start)
    top = np.where(partial, base - x * q + (b - x) * (s0 + s1 * x - q), base - x * q)
    return row, x, top


def _count_at_most(table, row, x):
    """Per query q, how many entries of the sorted row table[row[q]] are <= x[q]."""
    B, W = table.shape
    # the stable sort puts table entries before queries of equal row and value
    order = np.lexsort((np.concatenate([table.ravel(), x]),
                        np.concatenate([np.repeat(np.arange(B), W), row])))
    query = np.flatnonzero(order >= B * W)
    count = np.empty(len(x), dtype=np.int64)
    count[order[query] - B * W] = query - np.arange(len(x)) - row[order[query] - B * W] * W
    return count


def _window(below, n):
    """The grid points either side of a point x, from the one at or below it,
    and one more each way for rounding in x, clipped to the n points of the
    grid: one row of four per x."""
    return np.minimum(np.maximum(below[:, None] + np.arange(-1, 3), 0), n[:, None] - 1)


def _objective(row, i, units, sfcs, grid):
    """The leader's objective at grid points i[k, :] of row[k], as over the whole grid.

    `units` stacks the rows' reservations, reluctances and capacities in
    input order, `sfcs` their requirements and bids in bid order, and `grid`
    their floors, caps, steps and last grid indices. Units and SFCs lie
    along a contiguous last axis, so every sum takes numpy's own pairwise
    order; np.minimum(np.maximum(x, lo), hi) is np.clip(x, lo, hi), signed
    zeros included.
    """
    out = np.empty(i.shape)
    # a grid point's temporaries take about six floats per unit and nine per SFC
    point = 8 * (6 * units.shape[2] + 9 * sfcs.shape[2] + 4)
    size = max(1, _CHUNK_BYTES // (point * i.shape[1]))
    for k in range(0, len(i), size):
        rk = np.repeat(row[k:k + size], i.shape[1])
        p = _grid_price(i[k:k + size].ravel(), *grid[:, rk])[:, None]
        res, rel, cap = units[:, rk]
        reqs, bids = sfcs[:, rk]
        filled = _fills(p, res, rel, cap, reqs, bids)
        out[k:k + size] = ((bids - p) * filled).sum(axis=1).reshape(-1, i.shape[1])
    return out


def _fills(p, res, rel, cap, reqs, bids):
    """Each SFC's fill at its row's price p[:, 0]: the units' offers, summed,
    fill the SFCs whose bid covers p, in bid order."""
    space = np.minimum(np.maximum((p - res) / rel, 0.0), cap).sum(axis=1)
    wanted = np.where(bids >= p - 1e-12, reqs, 0.0)
    before = np.cumsum(wanted, axis=1) - wanted
    return np.minimum(np.maximum(space[:, None] - before, 0.0), wanted)


def _grid_price(i, lo, hi, step, last):
    """The i-th point of numpy.linspace(lo, hi, last + 1), for last >= 1."""
    return np.where(i == last, hi, i * step + lo)


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
    _check_rule(rule)
    shares = [float(s) for s in shares]
    requirements = [float(q) for q in requirements]
    # NaN fails both comparisons
    if not all(0 <= x < math.inf for x in (*shares, *requirements)):
        raise InputError("shares and requirements must be finite and nonnegative")
    if rule == PROPORTIONAL:
        if reservations is None:
            raise InputError("proportional allocation needs reservation prices")
        if len(reservations) != len(shares):
            raise InputError("one reservation price per share is required")
    if reservations is not None and not all(map(math.isfinite, reservations)):
        raise InputError("reservation prices must be finite")
    taken, burdens = _allocate(
        np.array(shares).reshape(1, -1),
        np.array(requirements).reshape(1, -1),
        rule,
        None if reservations is None else [list(reservations)],
    )
    return taken[0].tolist(), burdens[0].tolist()


def _check_rule(rule: str) -> None:
    if rule not in (PROPORTIONAL, EQUAL):
        raise InputError(f"allocation rule must be 'proportional' or 'equal', got {rule!r}")


def _allocate(shares: np.ndarray, wanted: np.ndarray, rule: str, reservations):
    """`allocate_shares` of each row of `shares` and `wanted`, on valid inputs.

    A row of `wanted` holds the requirements in fill order. Each row's sums
    are math.fsum, and each element's min, max and arithmetic are those of
    the scalar loop: np.minimum(y, x) is min(x, y), ties and signed zeros
    included.
    """
    total = _fsum_rows(shares)
    taken = np.empty_like(wanted)
    left = total
    for k in range(wanted.shape[1]):
        taken[:, k] = np.minimum(left, wanted[:, k])
        left = left - taken[:, k]
    unsold = np.maximum(0.0, total - _fsum_rows(taken))
    burdens = np.zeros_like(shares)
    for g in np.flatnonzero(unsold > 1e-12).tolist():
        weights = None if reservations is None else reservations[g]
        burdens[g] = _waterfall(shares[g].tolist(), float(unsold[g]), rule, weights)
    return taken, burdens


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows go to fsum
def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a (rows, k) float array, bit for bit.

    Knuth's TwoSum runs down the columns: a running sum s, each step's exact
    error added into lo, and the errors of those additions summed in absolute
    value into slack. The exact sum then lies within slack of r + f, where
    r = s + lo and f is that add's exact error (Ogita, Rump and Oishi 2005).
    Where slack is 0, r is the IEEE rounding of the exact sum; elsewhere r
    stands when |f| plus slack, raised past its own rounding, is under half
    the gap from r to its neighbour towards zero. Every other row goes to
    math.fsum: rows not so certified, rows summing to a zero (whose sign is
    fsum's) and rows whose sum of |x| reaches 2**1021, non-finite ones
    included, as fsum's partials, which stay under about twice that sum, can
    overflow there. A single row, as one settlement has, goes to math.fsum
    at once: it is faster than the k column passes.
    """
    rows, k = x.shape
    if rows == 1:
        return np.array([math.fsum(x[0].tolist())])
    s = x[:, 0] if k else np.zeros(rows)
    lo = slack = np.zeros(rows)
    mass = np.abs(s)
    for j in range(1, k):
        mass = mass + np.abs(x[:, j])
        s, e = _two_sum(s, x[:, j])
        lo, e = _two_sum(lo, e)
        slack = slack + np.abs(e)
    r, f = _two_sum(s, lo)
    gap = np.abs(r - np.nextafter(r, 0))
    sure = (slack == 0) | (np.abs(f) + slack * (1 + 2 * k * 2.0**-52) < gap / 2)
    sure &= (r != 0) & (mass < 2.0**1021)
    hard = np.flatnonzero(~sure)
    if len(hard):
        r[hard] = [math.fsum(row) for row in x[hard].tolist()]
    return r


def _two_sum(a, b):
    """Knuth's TwoSum: a + b rounded, and its exact error."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _waterfall(shares: list[float], unsold: float, rule: str, reservations) -> list[float]:
    """Each unit's oversupply burden: `unsold` split by weight, capped at the unit's share."""
    if rule == EQUAL:
        weights = [1.0] * len(shares)
    else:
        weights = [float(w) for w in reservations]
        if math.fsum(weights) <= 0:
            weights = [1.0] * len(shares)
        elif max(weights) < 0.5:
            # scaled up by a power of two, so a tiny reservation's share cannot
            # underflow; elsewhere each product is the same float, scaled
            shift = -math.frexp(max(weights))[1]
            weights = [math.ldexp(w, shift) for w in weights]
    burdens = [0.0] * len(shares)
    remaining = unsold
    open_units = [k for k in range(len(shares)) if shares[k] > 0]
    # assign by weight, cap at the unit's own share, repeat
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
    return burdens


def _auctions(res, rel, cap, reqs, bids, tie, rule: str):
    """Screen, price and settle each row of a batch of whole auctions.

    `res`, `rel` and `cap` are (D, R) arrays of the units' reservation prices,
    reluctances and capacities, and `reqs`, `bids` and `tie` (D, M) arrays of
    the SFCs' requirements, bids and ranks among equal bids, all in input
    order. Rows where some unit passes `_screen` are priced with one
    `_stackelberg_rows` call per chunk of rows of one participating (units,
    SFCs) shape, and settled as `run_storage_auction` settles them, bit for
    bit. A chunk holds `_CHUNK_BYTES` over the footprint of a row that the
    floor screen prices and that is then settled, 8 * (24 + 12 R + 15 M)
    bytes, so its screen and settlement stay under about `_CHUNK_BYTES`; the
    rows the screen leaves are searched in sub-chunks under the same bound
    (`_stackelberg_rows`).

    Returns (rus_in, sfcs_in, price, searched, committed, burden, bought):
    each row's participation masks, price (NaN where no unit qualifies) and
    whether the grid search priced it past the floor screen, and each unit's
    committed space and burden and each SFC's allocation at input positions,
    0.0 for nonparticipants.
    """
    _check_rule(rule)
    v, rus_in, sfcs_in = _screen(res, bids)
    # each row's price cap, a bid: with one at most 1.5 ingest.PRICE (misreported),
    # the grid [v, top] holds far fewer than _MAX_GRID_POINTS
    top = np.where(sfcs_in, bids, -np.inf).max(axis=1)
    # the top bid covers the cheapest qualifying reservation, so an SFC
    # participates wherever a unit does
    priced = rus_in.any(axis=1)
    price = np.full(len(v), np.nan)
    searched = np.zeros(len(v), dtype=bool)
    committed, burden = np.zeros((2, *res.shape))
    bought = np.zeros(bids.shape)
    M = bids.shape[1]
    shape = rus_in.sum(axis=1) * (M + 1) + sfcs_in.sum(axis=1)
    for key in np.unique(shape[priced]).tolist():
        n_ru, n_sfc = divmod(key, M + 1)
        same = np.flatnonzero(priced & (shape == key))
        # a screened and settled row peaks at under 8 * (24 + 12 R + 15 M)
        # bytes, measured on rows of 1 to 50 units and 1 to 20 SFCs
        size = max(1, _CHUNK_BYTES // (8 * (24 + 12 * n_ru + 15 * n_sfc)))
        for g in (same[k:k + size] for k in range(0, len(same), size)):
            ru_at, sfc_at = np.nonzero(rus_in[g]), np.nonzero(sfcs_in[g])
            r, a, c = (x[g][ru_at].reshape(len(g), n_ru) for x in (res, rel, cap))
            q, b, t = (x[g][sfc_at].reshape(len(g), n_sfc) for x in (reqs, bids, tie))
            found = np.zeros(len(g), dtype=bool)
            p = _stackelberg_rows(r, a, c, q, b, v[g], top[g], _PRICE_RESOLUTION, found)[:, None]
            searched[g] = found
            shares = np.minimum(c, np.maximum(0.0, (p - r) / a))
            rows = np.arange(len(g))[:, None]
            fill = np.lexsort((t, -b), axis=1)
            wanted = np.where(b[rows, fill] >= p - 1e-12, q[rows, fill], 0.0)
            taken, burdens = _allocate(shares, wanted, rule, r)
            price[g] = p[:, 0]
            unit_col = ru_at[1].reshape(len(g), n_ru)
            committed[g[:, None], unit_col], burden[g[:, None], unit_col] = shares, burdens
            bought[g[:, None], sfc_at[1].reshape(len(g), n_sfc)[rows, fill]] = taken
    return rus_in, sfcs_in, price, searched, committed, burden, bought


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
    order, equal bids by id.
    """
    _check_rule(rule)
    rus_in, sfcs_in, v = determine_participants(rus, sfcs)
    if not rus_in:
        return StorageAuctionOutcome(v, None, (), ())
    demand = [(s.requirement, s.bid_price) for s in sfcs_in]
    price = stackelberg_price(rus_in, demand, v, max(b for _, b in demand))
    shares = [follower_best_response(r, price) for r in rus_in]
    fill = sorted(range(len(sfcs_in)), key=lambda m: (-sfcs_in[m].bid_price, sfcs_in[m].id))
    wanted = [demand[m][0] if demand[m][1] >= price - 1e-12 else 0.0 for m in fill]
    taken, burdens = allocate_shares(shares, wanted, rule, [r.reservation_price for r in rus_in])
    allocations = [a for _, a in sorted(zip(fill, taken))]  # back in input order
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


def requirement_sweep(
    rus: list[ResidentialUnit],
    sfcs: list[SfcAgent],
    totals,
    rule: str = PROPORTIONAL,
):
    """Re-run the auction with SFC requirements scaled to each total, one `_auctions` row each."""
    base = math.fsum(s.requirement for s in sfcs)
    totals = [physical(float(total), ENERGY, "sfc_requirement total") for total in totals]
    reqs = [[SfcAgent(s.id, s.requirement * total / base, s.bid_price).requirement for s in sfcs]
            for total in totals]
    units = np.reshape([[r.reservation_price, r.reluctance, r.capacity] for r in rus], (-1, 3)).T
    tie = np.unique([s.id for s in sfcs], return_inverse=True)[1]
    res, rel, cap, bids, tie = (np.broadcast_to(x, (len(totals), len(x)))
                                for x in (*units, [s.bid_price for s in sfcs], tie))
    rus_in, _, price, _, committed, burden, _ = _auctions(
        res, rel, cap, np.reshape(reqs, bids.shape), bids, tie, rule
    )
    rows = []
    for d, (total, p) in enumerate(zip(totals, price.tolist())):
        units_in = [(r, x, b) for r, x, b, k in zip(
            rus, committed[d].tolist(), burden[d].tolist(), rus_in[d].tolist()) if k]
        utilities = [ru_realized_utility(r, p, x, b) for r, x, b in units_in]
        rows.append({
            "total_requirement": total,
            "auction_price": p if units_in else None,
            "total_shared": math.fsum(x for _, x, _ in units_in),
            "avg_ru_utility": math.fsum(utilities) / len(utilities) if utilities else 0.0,
        })
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
    # the largest gain over all deviations, also below the tolerance; None when none was checked
    largest_gain: float | None
    # how the report was found, so outside its equality and repr: the auctions
    # priced (a report that screens its own unit out runs none), and how many
    # of them the grid searched past the floor screen
    auctions_priced: int = field(default=0, compare=False, repr=False)
    auctions_searched: int = field(default=0, compare=False, repr=False)

    @property
    def clean(self) -> bool:
        return not self.profitable_deviations and not self.ir_violations


def _report_utilities(batch: list[StorageScenario], rule: str):
    """Each agent's utility under truthful reports, and each misreport's gain.

    The scenarios of `batch` share one (units, SFCs) shape and `rule`. Each
    has a truthful row and then its misreport rows: unit by unit, factor by
    factor, over the reservation price and then the capacity; then SFC by SFC
    over the bid. A unit that its own report screens out realizes nothing,
    and no auction runs for that row; every other row of every scenario is
    one auction of one `_auctions` batch. Every agent's utility is taken at
    its true costs.

    Returns (truthful, gains, labels, priced, searched): per scenario, the
    units' and then the SFCs' truthful utilities in input order, and per
    misreport row the deviator's utility less its truthful one; `labels` holds
    each row's deviator, counted over the units and then the SFCs, its
    parameter and its factor; then the counts of auctions priced and searched.
    """
    S, R, M, F = len(batch), len(batch[0].rus), len(batch[0].sfcs), len(_FACTORS)
    units = np.array([[(r.reservation_price, r.reluctance, r.capacity) for r in sc.rus]
                      for sc in batch]).reshape(S, R, 3)
    sfcs = np.array([[(s.requirement, s.bid_price) for s in sc.sfcs]
                     for sc in batch]).reshape(S, M, 2)
    # a unit's reports keep the truthful bids, so its screen is at the truthful Vickrey price
    v, _, _ = _screen(units[:, :, 0], sfcs[:, :, 1])
    # fill order of equal bids: ranks over the whole batch's ids keep each
    # scenario's own order
    tie = np.unique([s.id for sc in batch for s in sc.sfcs], return_inverse=True)[1].reshape(S, M)
    # per row of a scenario, what is misreported (0 nothing, 1 a reservation
    # price, 2 a capacity, 3 a bid), by which unit or SFC, and by which factor
    kind = np.concatenate([[0], np.tile([1, 2], R * F), np.full(M * F, 3)])
    who = np.concatenate([[0], np.repeat(np.arange(R), 2 * F), np.repeat(np.arange(M), F)])
    scale = np.concatenate([[1.0], np.tile(np.repeat(_FACTORS, 2), R), np.tile(_FACTORS, M)])
    agent = np.where(kind == 3, R + who, who)
    labels = (agent[1:], np.array(["reservation_price", "capacity", "bid_price"])[kind[1:] - 1],
              scale[1:])
    unit_row = (kind == 1) | (kind == 2)
    asked = units[:, np.where(unit_row, who, 0), 0] * np.where(kind == 1, scale, 1.0)
    # the priced rows: each one's scenario and its row within the scenario
    sc_of, d = np.nonzero(~unit_row | (asked <= v[:, None]))
    kind, who, scale = kind[d], who[d], scale[d]
    res, cap, bids = units[sc_of, :, 0], units[sc_of, :, 2], sfcs[sc_of, :, 1]
    for reported, k in ((res, 1), (cap, 2), (bids, 3)):
        sel = kind == k
        reported[sel, who[sel]] *= scale[sel]

    # (batch row, agent) pairs: every agent in each truthful row, the deviator
    # in every other row
    first, dev = np.flatnonzero(d == 0), np.flatnonzero(d > 0)
    at = np.concatenate([np.repeat(first, R + M), dev])
    col = np.concatenate([np.tile(np.arange(R + M), S), agent[d[dev]]])
    _, sfcs_in, price, searched, committed, burden, bought = _auctions(
        res, units[sc_of, :, 1], cap, sfcs[sc_of, :, 0], bids, tie[sc_of], rule
    )
    p, unit = price[at], col < R
    i, c = at[unit], col[unit]
    true = units[sc_of[i], c]
    # a unit realizes its true costs on what it can deliver: phantom capacity
    # cannot be locked
    locked = np.minimum(true[:, 2], committed[i, c])
    sold = np.minimum(locked, np.maximum(0.0, committed[i, c] - burden[i, c]))
    squared = np.array([x**2 for x in locked.tolist()])  # Python's pow, as in the scalar formula
    utility = np.empty(len(at))
    utility[unit] = p[unit] * sold - true[:, 0] * locked - 0.5 * true[:, 1] * squared
    i, c = at[~unit], col[~unit] - R
    utility[~unit] = (sfcs[sc_of[i], c, 1] - p[~unit]) * bought[i, c]
    utility[np.isnan(p)] = 0.0  # no unit qualified, so no auction ran
    truthful = utility[:S * (R + M)].reshape(S, R + M)
    # an SFC the truthful report screens out realizes 0.0, not (bid - price) * 0.0 = -0.0
    truthful[:, R:][~sfcs_in[first]] = 0.0
    misreports = np.zeros((S, len(unit_row) - 1))
    misreports[sc_of[dev], d[dev] - 1] = utility[S * (R + M):]
    priced = int(np.count_nonzero(~np.isnan(price)))
    return truthful, misreports - truthful[:, agent[1:]], labels, priced, int(searched.sum())


def check_incentive_compatibility(scenarios: list[StorageScenario]) -> IcReport:
    """Search unilateral misreports for profitable deviations.

    Every RU's reservation price and capacity, and every SFC's bid, is scaled
    by each factor of the fixed grid `_FACTORS`; the auction is re-run and
    realized utilities are compared against truthful play. A gain above
    `_GAIN_TOLERANCE` is a profitable deviation, and a truthful utility below
    minus that tolerance breaks individual rationality. The report also keeps
    the largest gain found, even below the tolerance: the first of equal
    maxima in scenario and row order.

    Every scenario's rule is checked before any auction is priced. The
    scenarios are then grouped by (units, SFCs, rule), and the truthful
    reports and misreports of a whole group are screened, priced and settled
    as one `_auctions` batch (`_report_utilities`), or of a run of its
    scenarios where the group's arrays would pass `_CHUNK_BYTES`. The report
    is read back from all the scenarios' truthful utilities and gains at
    once, in scenario order, and equals that of one full auction per report,
    bit for bit.
    """
    groups: dict[tuple, list[int]] = {}
    for idx, sc in enumerate(scenarios):
        _check_rule(sc.rule)
        groups.setdefault((len(sc.rus), len(sc.sfcs), sc.rule), []).append(idx)
    # each scenario's (truthful, gains, labels): rows of its batch's arrays
    reports = [None] * len(scenarios)
    priced = searched = 0
    for (R, M, rule), members in groups.items():
        # a batch's own arrays take under 8 * (40 + 5 (R + M)) bytes per report
        # row, measured on scenarios of 2 to 80 units and 2 to 20 SFCs
        rows = 1 + (2 * R + M) * len(_FACTORS)
        size = max(1, _CHUNK_BYTES // (8 * rows * (40 + 5 * (R + M))))
        for batch in (members[k:k + size] for k in range(0, len(members), size)):
            truthful, gains, labels, n_priced, n_searched = _report_utilities(
                [scenarios[i] for i in batch], rule)
            priced += n_priced
            searched += n_searched
            for idx, base, gain in zip(batch, truthful, gains):
                reports[idx] = base, gain, labels
    # all scenarios' truthful utilities, and all their gains, in scenario order,
    # and where each scenario's run of them starts
    base = np.concatenate([np.empty(0), *(b for b, _, _ in reports)])
    gains = np.concatenate([np.empty(0), *(g for _, g, _ in reports)])
    base_at = np.cumsum([0, *(len(b) for b, _, _ in reports)])
    gain_at = np.cumsum([0, *(len(g) for _, g, _ in reports)])

    def located(values, starts, found):
        """(scenario, position within it, value) of each entry `found`, in order."""
        idx = np.searchsorted(starts, found, side="right") - 1
        return zip(idx.tolist(), (found - starts[idx]).tolist(), values[found].tolist())

    def ids(idx):
        return [a.id for a in (*scenarios[idx].rus, *scenarios[idx].sfcs)]

    ir_violations = [(idx, ids(idx)[a], u) for idx, a, u in
                     located(base, base_at, np.flatnonzero(base < -_GAIN_TOLERANCE))]
    profitable = []
    for idx, row, gain in located(gains, gain_at, np.flatnonzero(gains > _GAIN_TOLERANCE)):
        agent, param, factor = (x[row].item() for x in reports[idx][2])
        profitable.append((idx, ids(idx)[agent], param, factor, gain))
    return IcReport(
        scenarios_checked=len(scenarios),
        deviations_checked=gains.size,
        profitable_deviations=profitable,
        ir_violations=ir_violations,
        largest_gain=float(gains[gains.argmax()]) if gains.size else None,
        auctions_priced=priced,
        auctions_searched=searched,
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
