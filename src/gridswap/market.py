"""Uniform-price double auction for one trading slot.

Buy and sell limit orders for the same 15-minute slot are matched by merit
order: highest bids are served first from the cheapest asks, quantities may
split. All matched energy trades at one clearing price; whatever does not
clear falls back to the grid tariff at settlement.

A slot's book is two `Book`s, bids and asks, each a set of columns (agent
ids, quantities, limit prices) in submission order. Each side is sorted once
by price, then agent id, then submission index; the matching itself walks
the two sorted sides one order at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Tariff:
    """Grid prices in $/kWh: export at p_wp, import at p_rp."""

    p_wp: float
    p_rp: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_wp) and math.isfinite(self.p_rp)):
            raise InputError("tariff prices must be finite")
        if self.p_wp < 0:
            raise InputError(f"wholesale price must be >= 0, got {self.p_wp}")
        if not self.p_rp > self.p_wp:
            raise InputError(
                f"retail price must exceed wholesale price, got p_rp={self.p_rp} <= p_wp={self.p_wp}"
            )


def check_order(quantity: float, limit_price: float) -> None:
    """Raise InputError unless the order's quantity is finite and > 0 and its
    limit price finite and >= 0."""
    if not (math.isfinite(quantity) and quantity > 0):
        raise InputError(f"order quantity must be > 0, got {quantity}")
    if not (math.isfinite(limit_price) and limit_price >= 0):
        raise InputError(f"limit price must be finite and >= 0, got {limit_price}")


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
        # written so that NaN fails too
        bad = ~((self.quantity > 0) & (self.quantity < math.inf)
                & (self.limit_price >= 0) & (self.limit_price < math.inf))
        if bad.any():
            k = int(bad.argmax())
            check_order(float(self.quantity[k]), float(self.limit_price[k]))

    def __len__(self) -> int:
        return len(self.quantity)


class Match(NamedTuple):
    buyer_id: str
    seller_id: str
    quantity: float


@dataclass
class SlotClearing:
    """Result of clearing one slot's order book."""

    clearing_price: float | None
    matches: list[Match]
    residual_buys: dict[str, float]
    residual_sells: dict[str, float]
    matched_volume: float = 0.0
    # limit prices of the marginal allocated bid/ask, kept for midpoint pricing
    marginal_bid: float | None = None
    marginal_ask: float | None = None


@dataclass
class Settlement:
    """Per-agent cash flows for one cleared slot, all in $."""

    p2p_paid: dict[str, float] = field(default_factory=dict)
    p2p_received: dict[str, float] = field(default_factory=dict)
    grid_charge: dict[str, float] = field(default_factory=dict)
    grid_credit: dict[str, float] = field(default_factory=dict)

    def total_paid(self) -> float:
        return sum(self.p2p_paid.values())

    def total_received(self) -> float:
        return sum(self.p2p_received.values())


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
    if pricing not in ("marginal_bid", "midpoint"):
        raise InputError(f"unknown pricing rule {pricing!r}")

    # lexsort is stable, so orders equal on (price, id) keep submission order
    bids = np.lexsort((buys.agent_ids, -buys.limit_price))
    asks = np.lexsort((sells.agent_ids, sells.limit_price))
    bid_ids = buys.agent_ids[bids].tolist()
    ask_ids = sells.agent_ids[asks].tolist()
    bid_prices = buys.limit_price[bids].tolist()
    ask_prices = sells.limit_price[asks].tolist()
    # the merge subtracts one fill at a time from Python floats; a merge on
    # cumulative sums would move fills by ulps
    remaining_bid = buys.quantity[bids].tolist()
    remaining_ask = sells.quantity[asks].tolist()
    matches: list[Match] = []
    marginal_bid: float | None = None
    marginal_ask: float | None = None
    volume = 0.0

    i = j = 0
    n_bids, n_asks = len(bid_ids), len(ask_ids)
    while i < n_bids and j < n_asks and bid_prices[i] >= ask_prices[j]:
        bid, ask = remaining_bid[i], remaining_ask[j]
        qty = min(bid, ask)
        matches.append(Match(bid_ids[i], ask_ids[j], qty))
        marginal_bid = bid_prices[i]
        marginal_ask = ask_prices[j]
        volume += qty
        remaining_bid[i] = bid = bid - qty
        remaining_ask[j] = ask = ask - qty
        if bid <= 0:
            i += 1
        if ask <= 0:
            j += 1

    if not matches:
        price: float | None = None
    elif pricing == "marginal_bid":
        price = marginal_bid
    else:
        price = (marginal_bid + marginal_ask) / 2.0

    return SlotClearing(
        clearing_price=price,
        matches=matches,
        residual_buys=_residuals(bid_ids, remaining_bid),
        residual_sells=_residuals(ask_ids, remaining_ask),
        matched_volume=volume,
        marginal_bid=marginal_bid,
        marginal_ask=marginal_ask,
    )


def _residuals(ids: list[str], remaining: list[float]) -> dict[str, float]:
    """Each agent's unmatched kWh, summed in merit order."""
    out: dict[str, float] = {}
    for aid, rem in zip(ids, remaining):
        if rem > 0:
            out[aid] = out.get(aid, 0.0) + rem
    return out


def settle_slot(clearing: SlotClearing, tariff: Tariff) -> Settlement:
    """Settle a cleared slot: matched energy at the clearing price, residual
    buys from the grid at p_rp, residual sells to the grid at p_wp."""
    s = Settlement()
    price = clearing.clearing_price
    for m in clearing.matches:
        cash = m.quantity * price
        s.p2p_paid[m.buyer_id] = s.p2p_paid.get(m.buyer_id, 0.0) + cash
        s.p2p_received[m.seller_id] = s.p2p_received.get(m.seller_id, 0.0) + cash
    for agent, qty in clearing.residual_buys.items():
        s.grid_charge[agent] = s.grid_charge.get(agent, 0.0) + qty * tariff.p_rp
    for agent, qty in clearing.residual_sells.items():
        s.grid_credit[agent] = s.grid_credit.get(agent, 0.0) + qty * tariff.p_wp
    return s
