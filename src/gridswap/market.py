"""Uniform-price double auction for one trading slot.

Buy and sell limit orders for the same 15-minute slot are matched by merit
order: highest bids are served first from the cheapest asks, quantities may
split. All matched energy trades at one clearing price; whatever does not
clear falls back to the grid tariff at settlement.

A slot's book is two `Book`s, bids and asks, each a set of columns (agent
ids, quantities, limit prices) in submission order. One merge clears every
book: `_clear_rows` takes many books as rows over shared order columns,
sorts each side once by price, then agent id, then column, and steps all
crossing books together, one match per book per step, until one book is
left, which it finishes one order at a time. `clear_double_auction` is one
row of it; a double-auction scenario clears its slots as the rows.

A cleared slot holds its fills as columns (buyer ids, seller ids, kWh) in
the order the merge made them, which `clear` reads as they are.
`settle_slot` settles every book of a merge at once, as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .ingest import ENERGY, PRICE, physical, physical_mask


@dataclass(frozen=True)
class Tariff:
    """Grid prices in $/kWh: export at p_wp, import at p_rp."""

    p_wp: float
    p_rp: float

    def __post_init__(self) -> None:
        physical(self.p_wp, PRICE, "wholesale price p_wp")
        physical(self.p_rp, PRICE, "retail price p_rp")
        if not self.p_rp > self.p_wp:
            raise InputError(
                f"retail price must exceed wholesale price, got p_rp={self.p_rp} <= p_wp={self.p_wp}"
            )


# the prices of a config that sets no p_wp or p_rp, and of `shapley` without --p-wp or --p-rp
DEFAULT_TARIFF = Tariff(p_wp=0.05, p_rp=0.30)


def check_order(quantity: float, limit_price: float) -> None:
    """Raise InputError unless the order's quantity is in the ENERGY range
    and > 0 and its limit price in the PRICE range."""
    physical(quantity, ENERGY, "order quantity")
    physical(limit_price, PRICE, "limit price")
    if quantity == 0:
        raise InputError(f"order quantity must be > 0, got {quantity}")


class Book:
    """One side of a slot's order book, held as columns.

    Order k asks for `quantity[k]` kWh at up to (a bid) or at least (an ask)
    `limit_price[k]` $/kWh on behalf of `agent_ids[k]`; k is its submission
    index. Which side a book is follows from the argument it is passed as.
    The constructor raises `check_order`'s error for the first order that
    fails it.
    """

    __slots__ = ("agent_ids", "quantity", "limit_price")

    def __init__(self, agent_ids, quantity, limit_price) -> None:
        self.agent_ids = np.asarray(agent_ids, dtype=object)
        self.quantity = np.asarray(quantity, dtype=np.float64)
        self.limit_price = np.asarray(limit_price, dtype=np.float64)
        if not len(self.agent_ids) == len(self.quantity) == len(self.limit_price):
            raise InputError("order book columns differ in length")
        bad = ~((self.quantity > 0) & physical_mask(self.quantity, ENERGY)
                & physical_mask(self.limit_price, PRICE))
        if bad.any():
            k = int(bad.argmax())
            check_order(float(self.quantity[k]), float(self.limit_price[k]))

    def __len__(self) -> int:
        return len(self.quantity)


@dataclass
class SlotClearing:
    """Result of clearing one slot's order book.

    Its fills are three parallel columns in the order the merge made them:
    fill k moved `quantities[k]` kWh from `seller_ids[k]` to `buyer_ids[k]`.
    """

    clearing_price: float | None
    buyer_ids: list[str]
    seller_ids: list[str]
    quantities: list[float]
    residual_buys: dict[str, float]
    residual_sells: dict[str, float]
    matched_volume: float = 0.0


class Entries(NamedTuple):
    """One kind of settlement entry over a batch of books, in row order and,
    within a row, in the order its agents were first seen: row r has
    `count[r]` entries, and entry k moves `cash[k]` $ for agent `agent[k]`,
    an index into `Settlement.agents`. A grid entry also gives the agent's
    residual kWh, `kwh[k]`; a P2P entry's `kwh` is None."""

    count: np.ndarray
    agent: np.ndarray
    cash: np.ndarray
    kwh: np.ndarray | None


class Settlement(NamedTuple):
    """The cash flows, all in $, of a batch of cleared books: the batch's
    agent ids in sorted order, one `Entries` per kind of flow, and each
    row's grid kWh."""

    agents: np.ndarray
    p2p_paid: Entries
    p2p_received: Entries
    grid_charge: Entries
    grid_credit: Entries
    grid_kwh: np.ndarray  # each row's (import, export) kWh, shape (rows, 2)


def clear_double_auction(
    buys: Book,
    sells: Book,
    pricing: str = "marginal_bid",
) -> SlotClearing:
    """Clear one slot's closed order book by merit-order dispatch.

    Bids are served from the highest price down, asks from the lowest up,
    splitting quantities until the best remaining bid no longer covers the
    best remaining ask. The uniform clearing price is the limit price of the
    lowest-priced bid that received any allocation; `pricing="midpoint"`
    instead averages the marginal allocated bid and ask (sensitivity runs).

    Ties on price break by agent id, then submission index, so the result is
    invariant to shuffling the input books.
    """
    rows = _clear_rows(buys.agent_ids, buys.quantity[None], buys.limit_price,
                       sells.agent_ids, sells.quantity[None], sells.limit_price)
    return next(rows.clearings(pricing))


def _clear_rows(bid_ids, bid_qty, bid_limit, ask_ids, ask_qty, ask_limit) -> _Rows:
    """Clear many books at once, one per row.

    Each column is an order with a fixed agent id (`*_ids`) and limit price
    (`*_limit`); row r of `*_qty` gives each column's kWh in book r, 0 for
    "no order in this book". Each side is sorted once by price, then id,
    then column. All books that still cross step together, one match per
    book per step, with the IEEE operations of a one-book merge in the same
    order per book, so no fill differs by an ulp from clearing each book
    alone. Once one book is left it is finished one order at a time.
    """
    # lexsort is stable, so orders equal on (price, id) keep column order
    bids = _pack(bid_qty, bid_limit, np.lexsort((bid_ids, -bid_limit)), -math.inf)
    asks = _pack(ask_qty, ask_limit, np.lexsort((ask_ids, ask_limit)), math.inf)
    (_, bid_rest, bid_price), (_, ask_rest, ask_price) = bids, asks
    i = np.zeros(len(bid_rest), dtype=np.intp)
    j = np.zeros(len(bid_rest), dtype=np.intp)
    volume = np.zeros(len(bid_rest))
    # each step's (books, bid positions, ask positions, kWh)
    steps = [(i[:0], i[:0], i[:0], volume[:0])]
    live = np.flatnonzero(bid_price[:, 0] >= ask_price[:, 0])
    while len(live) > 1:
        at_bid, at_ask = i[live], j[live]
        bid, ask = bid_rest[live, at_bid], ask_rest[live, at_ask]
        qty = np.minimum(bid, ask)
        steps.append((live, at_bid, at_ask, qty))
        volume[live] += qty
        bid_rest[live, at_bid] = bid = bid - qty
        ask_rest[live, at_ask] = ask = ask - qty
        i[live] = at_bid = at_bid + (bid <= 0)
        j[live] = at_ask = at_ask + (ask <= 0)
        live = live[bid_price[live, at_bid] >= ask_price[live, at_ask]]
    for r in live.tolist():
        steps.append(_merge(r, i, j, bids, asks, volume))
    return _Rows(bids, asks, steps, volume, (bid_ids, ask_ids), (bid_limit, ask_limit))


def _pack(qty: np.ndarray, limit: np.ndarray, order: np.ndarray, pad: float):
    """One side of a batch of books, each row's live orders (kWh > 0) packed
    to the left in merit `order`.

    Returns (column, rest, price): each packed order's column, kWh and limit
    price. Every row ends in at least one dead slot, of 0 kWh and price
    `pad`, an infinity no order on the other side crosses, so a merge stops
    there without a bounds check.
    """
    rows, cols = qty.shape
    ranked = np.zeros((rows, cols + 1))
    ranked[:, :cols] = qty[:, order]
    live = ranked > 0
    width = int(live.sum(axis=1).max(initial=0)) + 1
    at = np.argsort(~live, axis=1, kind="stable")[:, :width]
    price = np.where(np.take_along_axis(live, at, axis=1), np.append(limit[order], pad)[at], pad)
    return np.append(order, 0)[at], np.take_along_axis(ranked, at, axis=1), price


def _merge(r: int, i, j, bids, asks, volume):
    """Finish book r one order at a time from the positions `i[r]`, `j[r]`
    and the kWh left where the lockstep stopped; returns its matches as one
    more step."""
    (_, bid_rest, bid_price), (_, ask_rest, ask_price) = bids, asks
    remaining_bid, remaining_ask = bid_rest[r].tolist(), ask_rest[r].tolist()
    bid_prices, ask_prices = bid_price[r].tolist(), ask_price[r].tolist()
    b, a, v = int(i[r]), int(j[r]), float(volume[r])
    at_bid: list[int] = []
    at_ask: list[int] = []
    fills: list[float] = []
    add_bid, add_ask, add_fill = at_bid.append, at_ask.append, fills.append
    # the current bid's and ask's kWh left; each is stored back, and the next
    # read, only once it is used up
    bid, ask = remaining_bid[b], remaining_ask[a]
    while bid_prices[b] >= ask_prices[a]:
        qty = ask if ask < bid else bid  # min(bid, ask)
        add_bid(b)
        add_ask(a)
        add_fill(qty)
        v += qty
        bid -= qty
        ask -= qty
        if bid <= 0:
            remaining_bid[b] = bid
            b += 1
            bid = remaining_bid[b]
        if ask <= 0:
            remaining_ask[a] = ask
            a += 1
            ask = remaining_ask[a]
    remaining_bid[b], remaining_ask[a] = bid, ask
    bid_rest[r], ask_rest[r], volume[r] = remaining_bid, remaining_ask, v
    return (np.full(len(fills), r), np.array(at_bid, dtype=np.intp),
            np.array(at_ask, dtype=np.intp), np.array(fills))


class _Rows:
    """Books cleared together by `_clear_rows`.

    Book r's matches are `buyer`, `seller` and `quantity` over
    [bounds[r], bounds[r + 1]), in the order the merge made them; `buyer`
    and `seller` name order columns. `volume` is each book's matched kWh,
    added in that order.
    """

    def __init__(self, bids, asks, steps, volume, ids, limits) -> None:
        book, at_bid, at_ask, qty = (np.concatenate(x) for x in zip(*steps))
        # stable, so each book's matches keep their step order
        order = np.argsort(book, kind="stable")
        book = book[order]
        self.bounds = np.searchsorted(book, np.arange(len(volume) + 1))
        self.buyer = bids[0][book, at_bid[order]]
        self.seller = asks[0][book, at_ask[order]]
        self.quantity = qty[order]
        self.volume = volume
        self._left = [_left(column, rest) for column, rest, _ in (bids, asks)]
        self._ids, self._limits = ids, limits

    def prices(self, pricing: str) -> np.ndarray:
        """Each book's uniform clearing price, NaN for a book without fills:
        the limit price of the last, marginal, bid allocated, or with
        `pricing="midpoint"` its mean with the last ask's."""
        if pricing not in ("marginal_bid", "midpoint"):
            raise InputError(f"unknown pricing rule {pricing!r}")
        (bid_limit, ask_limit), end = self._limits, self.bounds[1:]
        filled = end > self.bounds[:-1]
        price = np.full(len(end), math.nan)
        bid = bid_limit[self.buyer[end[filled] - 1]]
        price[filled] = bid if pricing == "marginal_bid" else (
            bid + ask_limit[self.seller[end[filled] - 1]]) / 2.0
        return price

    def clearings(self, pricing: str):
        """Yield each book's SlotClearing, in row order, its fills as slices
        of the match columns."""
        prices = self.prices(pricing).tolist()
        bid_ids, ask_ids = self._ids
        buyers, sellers = bid_ids[self.buyer].tolist(), ask_ids[self.seller].tolist()
        quantity, bounds = self.quantity.tolist(), self.bounds.tolist()
        # each side's orders with kWh left: (bounds, ids, kWh) as lists
        (bid_at, *bids_left), (ask_at, *asks_left) = [
            (at.tolist(), ids[column].tolist(), rest.tolist())
            for ids, (at, column, rest) in zip(self._ids, self._left)
        ]
        for r, volume in enumerate(self.volume.tolist()):
            start, end = bounds[r], bounds[r + 1]
            yield SlotClearing(
                clearing_price=prices[r] if end > start else None,
                buyer_ids=buyers[start:end],
                seller_ids=sellers[start:end],
                quantities=quantity[start:end],
                residual_buys=_residuals(*(x[bid_at[r]:bid_at[r + 1]] for x in bids_left)),
                residual_sells=_residuals(*(x[ask_at[r]:ask_at[r + 1]] for x in asks_left)),
                matched_volume=volume,
            )


def _left(column: np.ndarray, rest: np.ndarray):
    """The orders of one packed side with kWh left, in merit order book by
    book: (bounds, column, kWh), book r's over [bounds[r], bounds[r + 1])."""
    book, at = np.nonzero(rest > 0)
    return np.searchsorted(book, np.arange(len(rest) + 1)), column[book, at], rest[book, at]


def _residuals(ids: list[str], remaining: list[float]) -> dict[str, float]:
    """Each agent's unmatched kWh, summed in merit order, from the orders
    with kWh left (every one > 0, so `0.0 + rem` is `rem` and distinct ids
    need no sum)."""
    out = dict(zip(ids, remaining))
    if len(out) < len(ids):
        out = {}
        for aid, rem in zip(ids, remaining):
            out[aid] = out.get(aid, 0.0) + rem
    return out


def settle_slot(rows: _Rows, tariff: Tariff, pricing: str = "marginal_bid") -> Settlement:
    """Settle every row of a batch of books cleared by `_clear_rows`: matched
    energy at the row's clearing price, residual buys from the grid at p_rp,
    residual sells to the grid at p_wp.

    An agent's P2P cash is 0.0 plus each of its fills' kWh times the price,
    added in merge order; its grid cash is its residual kWh, 0.0 plus each of
    its orders' kWh left in merit order, times the tariff, plus 0.0. A row's
    import and export kWh add its grid entries' kWh in entry order."""
    bid_ids, ask_ids = rows._ids
    ids = np.concatenate((bid_ids, ask_ids))
    # searchsorted, not np.unique's return_inverse: that calls np.cumsum, and
    # ndarray.cumsum looks up np.add.accumulate by a new name string on each
    # call, some of which Python's type attribute cache keeps alive
    agents = np.unique(ids)
    code = np.searchsorted(agents, ids)
    bid_code, ask_code = code[:len(bid_ids)], code[len(bid_ids):]
    books = len(rows.volume)

    def entries(bounds, agent, amount):
        """Row r's terms [bounds[r], bounds[r + 1]) grouped by agent: each
        group's count per row, agent and amount, summed in term order."""
        row = np.repeat(np.arange(books), np.diff(bounds))
        key = row * len(agents) + agent
        term = np.arange(len(key))
        group = np.full(books * len(agents), len(key))
        np.minimum.at(group, key, term)
        # a group opens at its first term, so the groups come in row order and,
        # within a row, in the order their agents are first seen
        opens = group[key] == term
        n = np.count_nonzero(opens)
        group[key[opens]] = np.arange(n)
        return np.bincount(row[opens], minlength=books), agent[opens], _sums(group[key], amount, n)

    cash = rows.quantity * np.repeat(rows.prices(pricing), np.diff(rows.bounds))
    paid = Entries(*entries(rows.bounds, bid_code[rows.buyer], cash), None)
    received = Entries(*entries(rows.bounds, ask_code[rows.seller], cash), None)
    grid, kwh = [], []
    for (bounds, column, rest), side, tariff_price in zip(
            rows._left, (bid_code, ask_code), (tariff.p_rp, tariff.p_wp)):
        count, agent, left = entries(bounds, side[column], rest)
        grid.append(Entries(count, agent, left * tariff_price + 0.0, left))
        kwh.append(_sums(np.repeat(np.arange(books), count), left, books))
    return Settlement(agents, paid, received, *grid, np.column_stack(kwh))


def _sums(index: np.ndarray, amount: np.ndarray, n: int) -> np.ndarray:
    """n sums: sum k is 0.0 plus each amount[i] with index[i] == k, added
    one after another in i order."""
    out = np.zeros(n)
    np.add.at(out, index, amount)
    return out
