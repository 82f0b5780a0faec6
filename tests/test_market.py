"""Double-auction clearing and settlement tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridswap.errors import InputError
from gridswap import market
from gridswap.market import Book, Tariff, clear_double_auction, settle_slot

from oracles import (clear_double_auction_loop, max_crossing_volume, max_crossing_welfare,
                     settle_loop)


def book(orders):
    """A Book of (agent_id, quantity, limit_price) orders in submission order."""
    ids, quantities, prices = zip(*orders) if orders else ((), (), ())
    return Book(ids, quantities, prices)


def clear(buys, sells, pricing="marginal_bid"):
    return clear_double_auction(book(buys), book(sells), pricing)


class TestTariff:
    def test_valid(self):
        t = Tariff(p_wp=0.05, p_rp=0.30)
        assert t.p_rp > t.p_wp

    def test_rejects_equal_prices(self):
        with pytest.raises(InputError):
            Tariff(p_wp=0.10, p_rp=0.10)

    def test_rejects_negative_wholesale(self):
        with pytest.raises(InputError):
            Tariff(p_wp=-0.01, p_rp=0.10)


class TestClearing:
    def test_single_crossing_pair(self):
        # one bid above one ask: everything trades at the only allocated bid
        c = clear([("B1", 5, 0.20)], [("S1", 5, 0.10)])
        assert c.clearing_price == 0.20
        assert c.quantities == [5]
        assert c.residual_buys == {} and c.residual_sells == {}

    def test_merit_order_split(self):
        # B1 takes 3, B2 takes the leftover 1; B2 is the marginal allocated bid
        c = clear(
            [("B1", 3, 0.25), ("B2", 3, 0.15)], [("S1", 4, 0.10)]
        )
        assert c.clearing_price == 0.15
        got = set(zip(c.buyer_ids, c.quantities))
        assert got == {("B1", 3), ("B2", 1)}
        assert c.residual_buys == {"B2": 2}

    def test_merit_order_split_against_welfare_oracle(self):
        buys = [("B1", 3.0, 0.25), ("B2", 3.0, 0.15)]
        sells = [("S1", 4.0, 0.10)]
        c = clear(buys, sells)
        assert c.matched_volume == max_crossing_volume(buys, sells, unit=0.5)
        welfare = sum(
            (dict((b[0], b[2]) for b in buys)[buyer] - 0.10) * quantity
            for buyer, quantity in zip(c.buyer_ids, c.quantities)
        )
        assert welfare == pytest.approx(max_crossing_welfare(buys, sells, unit=0.5))

    def test_no_crossing(self):
        c = clear([("B1", 5, 0.08)], [("S1", 5, 0.10)])
        assert c.clearing_price is None
        assert c.quantities == []
        assert c.residual_buys == {"B1": 5}
        assert c.residual_sells == {"S1": 5}

    def test_empty_book_is_valid(self):
        c = clear([], [])
        assert c.clearing_price is None and c.quantities == []

    def test_one_sided_book(self):
        c = clear([], [("S1", 2, 0.10)])
        assert c.quantities == [] and c.residual_sells == {"S1": 2}

    def test_midpoint_pricing(self):
        c = clear(
            [("B1", 5, 0.20)], [("S1", 5, 0.10)], pricing="midpoint"
        )
        assert c.clearing_price == pytest.approx(0.15)

    def test_no_crossing_left_after_clearing(self):
        c = clear(
            [("B1", 2, 0.30), ("B2", 2, 0.18), ("B3", 2, 0.12)],
            [("S1", 3, 0.10), ("S2", 3, 0.16)],
        )
        ask_prices = {"S1": 0.10, "S2": 0.16}
        bid_prices = {"B1": 0.30, "B2": 0.18, "B3": 0.12}
        for b in c.residual_buys:
            for s in c.residual_sells:
                assert bid_prices[b] < ask_prices[s]

    def test_individual_rationality(self):
        buys = [("B1", 2, 0.30), ("B2", 4, 0.22)]
        sells = [("S1", 3, 0.05), ("S2", 3, 0.20)]
        c = clear(buys, sells)
        bid_prices = {"B1": 0.30, "B2": 0.22}
        ask_prices = {"S1": 0.05, "S2": 0.20}
        for buyer, seller in zip(c.buyer_ids, c.seller_ids):
            assert bid_prices[buyer] >= c.clearing_price >= ask_prices[seller]


order_lists = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=0,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(buys=order_lists, sells=order_lists, shuffle_seed=st.integers(0, 2**16))
def test_permutation_invariance(buys, sells, shuffle_seed):
    """Shuffling order submission changes nothing observable."""
    import random

    b = [(f"B{a}", q, p / 100.0) for a, q, p in buys]
    s = [(f"S{a}", q, p / 100.0) for a, q, p in sells]
    base = clear(b, s)

    rng = random.Random(shuffle_seed)
    b2, s2 = list(b), list(s)
    rng.shuffle(b2)
    rng.shuffle(s2)
    other = clear(b2, s2)

    assert base.clearing_price == other.clearing_price
    assert base.matched_volume == pytest.approx(other.matched_volume)
    assert base.residual_buys == other.residual_buys
    assert base.residual_sells == other.residual_sells
    # match multiset agrees on per-pair totals
    def pair_totals(clearing):
        tot = {}
        for buyer, seller, quantity in zip(clearing.buyer_ids, clearing.seller_ids,
                                           clearing.quantities):
            tot[buyer, seller] = tot.get((buyer, seller), 0.0) + quantity
        return tot

    assert pair_totals(base) == pytest.approx(pair_totals(other))


class TestBook:
    @pytest.mark.parametrize(
        "quantity, price, message",
        [
            (0.0, 0.1, "order quantity must be > 0, got 0.0"),
            (-2.0, -1.0, "order quantity must lie in [0, 1e+09] kWh, got -2.0"),
            (math.nan, 0.1, "order quantity must lie in [0, 1e+09] kWh, got nan"),
            (math.inf, 0.1, "order quantity must lie in [0, 1e+09] kWh, got inf"),
            (math.nextafter(1e9, math.inf), 0.1,
             "order quantity must lie in [0, 1e+09] kWh, got 1000000000.0000001"),
            (1.0, -0.1, "limit price must lie in [0, 1000] $/kWh, got -0.1"),
            (1.0, math.nan, "limit price must lie in [0, 1000] $/kWh, got nan"),
            (1.0, math.nextafter(1e3, math.inf),
             "limit price must lie in [0, 1000] $/kWh, got 1000.0000000000001"),
        ],
    )
    def test_first_bad_order_reported(self, quantity, price, message):
        orders = [("ok", 1.0, 0.2), ("bad", quantity, price), ("late", -5.0, -5.0)]
        with pytest.raises(InputError) as exc:
            book(orders)
        assert str(exc.value) == message

    def test_orders_at_the_bounds_accepted(self):
        assert len(book([("a", 1e9, 1e3), ("b", 5e-324, 5e-324), ("c", 1.0, 0.0)])) == 3

    def test_columns_must_match_in_length(self):
        with pytest.raises(InputError):
            Book(["a", "b"], [1.0], [0.1, 0.2])

    def test_length_counts_orders(self):
        assert len(book([("a", 1.0, 0.1), ("a", 2.0, 0.1)])) == 2 and len(book([])) == 0


# a small id alphabet and a coarse price grid, so ids repeat and prices tie
_ORDERS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "ab", "B", ""]),
        st.sampled_from([0.5, 1.0, 2.5]) | st.floats(1e-3, 10.0),
        st.sampled_from([-0.0, 0.0, 0.05, 0.1, 0.15, 0.2]) | st.floats(0.0, 1.0),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(buys=_ORDERS, sells=_ORDERS, pricing=st.sampled_from(["marginal_bid", "midpoint"]))
@example(buys=[], sells=[], pricing="marginal_bid")
@example(buys=[("a", 1.0, 0.2)], sells=[], pricing="midpoint")
@example(buys=[], sells=[("a", 1.0, 0.2)], pricing="marginal_bid")
@example(buys=[("b", 1.0, 0.2), ("a", 1.0, 0.2), ("b", 0.5, 0.2)],
         sells=[("a", 0.7, 0.1), ("a", 2.0, 0.1)], pricing="midpoint")
def test_columns_equal_the_row_loop(buys, sells, pricing):
    """The column kernel clears every book bit for bit as the per-order loop does."""
    assert_same_clearing(clear(buys, sells, pricing),
                         clear_double_auction_loop(buys, sells, pricing))


def assert_same_clearing(got, want):
    assert repr(list(zip(got.buyer_ids, got.seller_ids, got.quantities))) == repr(want.matches)
    for name in ("clearing_price", "matched_volume", "residual_buys", "residual_sells"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def clear_rows(bids, asks, bid_qty, ask_qty, pricing="marginal_bid"):
    """Every row's SlotClearing from one `_clear_rows` call; `bids` and `asks`
    are the (agent id, limit price) columns, `*_qty` one list per book."""
    def side(columns, qty):
        ids = np.array([aid for aid, _ in columns], dtype=object)
        limit = np.array([price for _, price in columns], dtype=float)
        return ids, np.array(qty, dtype=float).reshape(len(qty), len(columns)), limit

    return list(market._clear_rows(*side(bids, bid_qty), *side(asks, ask_qty)).clearings(pricing))


def row_orders(columns, qty):
    """A book row's orders as (agent id, kWh, limit price) in column order."""
    return [(aid, q, price) for (aid, price), q in zip(columns, qty) if q > 0]


# a small id alphabet and a coarse price grid, so ids repeat and prices tie;
# a kWh of 0 leaves the column out of that book
_COLUMNS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "ab", "B", ""]),
              st.sampled_from([-0.0, 0.0, 0.05, 0.1, 0.15, 0.2]) | st.floats(0.0, 1.0)),
    max_size=6,
)
_KWH = st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(1e-3, 10.0)


@st.composite
def _books(draw):
    bids, asks = draw(_COLUMNS), draw(_COLUMNS)
    rows = draw(st.integers(1, 8))
    bid_qty = draw(st.lists(st.lists(_KWH, min_size=len(bids), max_size=len(bids)),
                            min_size=rows, max_size=rows))
    ask_qty = draw(st.lists(st.lists(_KWH, min_size=len(asks), max_size=len(asks)),
                            min_size=rows, max_size=rows))
    return bids, asks, bid_qty, ask_qty


@settings(max_examples=200, deadline=None, derandomize=True)
@given(books=_books(), pricing=st.sampled_from(["marginal_bid", "midpoint"]))
@example(books=([], [], [[]], [[]]), pricing="marginal_bid")
@example(books=([("a", 0.2)], [("b", 0.3)], [[1.0], [0.0]], [[1.0], [2.0]]), pricing="midpoint")
@example(books=([("b", 0.2), ("a", -0.0), ("b", 0.2)], [("a", 0.0), ("a", 0.1)],
                [[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                [[0.7, 2.0], [0.7, 2.0], [0.0, 0.0]]),
         pricing="midpoint")
def test_rows_equal_the_row_loop(books, pricing):
    """Many books cleared in one kernel call equal the per-order loop book by book."""
    bids, asks, bid_qty, ask_qty = books
    got = clear_rows(bids, asks, bid_qty, ask_qty, pricing)
    assert len(got) == len(bid_qty)
    for clearing, bq, aq in zip(got, bid_qty, ask_qty):
        want = clear_double_auction_loop(row_orders(bids, bq), row_orders(asks, aq), pricing)
        assert_same_clearing(clearing, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(books=_books(), pricing=st.sampled_from(["marginal_bid", "midpoint"]))
@example(books=([("a", 0.2)], [("b", 0.1)], [[1.0]], [[2.0]]), pricing="midpoint")
@example(books=([("b", 0.2), ("a", -0.0), ("b", 0.2)], [("a", 0.0), ("a", 0.1)],
                [[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                [[0.7, 2.0], [0.7, 2.0], [0.0, 0.0]]),
         pricing="marginal_bid")
def test_settlement_equals_the_match_loop(books, pricing):
    """settle_slot on every row the kernel clears equals the per-match loop
    on the per-order loop's clearing: same dicts, same key order, same bits."""
    bids, asks, bid_qty, ask_qty = books
    tariff = Tariff(0.05, 0.30)
    for clearing, bq, aq in zip(clear_rows(bids, asks, bid_qty, ask_qty, pricing),
                                bid_qty, ask_qty):
        s = settle_slot(clearing, tariff)
        want = clear_double_auction_loop(row_orders(bids, bq), row_orders(asks, aq), pricing)
        assert repr((s.p2p_paid, s.p2p_received, s.grid_charge, s.grid_credit)) == repr(
            settle_loop(want, tariff))


def test_scalar_tail_takes_over_mid_book(monkeypatch):
    """Book 0 clears in one step; book 1 has made one lockstep match when it is
    left alone, and the one-order-at-a-time merge finishes it from there."""
    bids = [("b1", 0.30), ("b2", 0.25), ("b3", 0.20)]
    asks = [("s1", 0.05), ("s2", 0.10), ("s3", 0.15)]
    bid_qty = [[1.0, 0.0, 0.0], [0.3, 1.1, 2.0]]
    ask_qty = [[0.0, 1.0, 0.0], [0.7, 0.9, 1.6]]
    tails = []
    merge = market._merge

    def recorded(r, i, j, *args):
        tails.append((r, int(i[r]), int(j[r])))
        return merge(r, i, j, *args)

    monkeypatch.setattr(market, "_merge", recorded)
    got = clear_rows(bids, asks, bid_qty, ask_qty)
    assert tails == [(1, 1, 0)]
    assert len(got[0].quantities) == 1 and len(got[1].quantities) == 5
    for clearing, bq, aq in zip(got, bid_qty, ask_qty):
        assert_same_clearing(clearing, clear_double_auction_loop(row_orders(bids, bq),
                                                                 row_orders(asks, aq)))


def test_repeated_id_leftovers_sum_in_merit_order():
    """Book 0 leaves agent b three bids whose kWh add to another float in
    column order than in merit order, and agent s two asks; book 1's ids are
    distinct. Each leftover is the merit-order sum."""
    bids = [("b", 0.10), ("b", 0.20), ("a", 0.25), ("b", 0.30)]
    asks = [("s", 0.40), ("s", 0.35), ("t", 0.05)]
    bid_qty = [[5e-17, 5e-17, 0.5, 1.0], [0.0, 0.7, 0.5, 0.0]]
    ask_qty = [[0.5, 0.125, 0.25], [0.5, 0.0, 0.25]]
    got = clear_rows(bids, asks, bid_qty, ask_qty)
    # b's 0.75 kWh left at 0.30 comes first, and each 5e-17 alone is under half its ulp
    assert 0.75 + 5e-17 + 5e-17 != 5e-17 + 5e-17 + 0.75
    assert repr(got[0].residual_buys) == repr({"b": 0.75 + 5e-17 + 5e-17, "a": 0.5})
    assert repr(got[0].residual_sells) == repr({"s": 0.125 + 0.5})
    assert repr(got[1].residual_buys) == repr({"a": 0.25, "b": 0.7})
    assert repr(got[1].residual_sells) == repr({"s": 0.5})
    for clearing, bq, aq in zip(got, bid_qty, ask_qty):
        assert_same_clearing(clearing, clear_double_auction_loop(row_orders(bids, bq),
                                                                 row_orders(asks, aq)))


class TestSettlement:
    def test_matched_energy_at_clearing_price(self):
        c = clear([("B1", 4, 0.15)], [("S1", 4, 0.10)])
        assert c.clearing_price == 0.15
        s = settle_slot(c, Tariff(0.05, 0.30))
        assert s.p2p_paid["B1"] == pytest.approx(0.60)
        assert s.p2p_received["S1"] == pytest.approx(0.60)

    def test_residual_buy_charged_at_retail(self):
        c = clear([("B1", 2, 0.08)], [])
        s = settle_slot(c, Tariff(0.05, 0.30))
        assert s.grid_charge["B1"] == pytest.approx(0.60)

    def test_residual_sell_credited_at_wholesale(self):
        c = clear([], [("S1", 3, 0.10)])
        s = settle_slot(c, Tariff(0.05, 0.30))
        assert s.grid_credit["S1"] == pytest.approx(0.15)

    def test_budget_balance(self):
        c = clear(
            [("B1", 2.5, 0.30), ("B2", 4, 0.22), ("B3", 1, 0.02)],
            [("S1", 3, 0.05), ("S2", 3.5, 0.20)],
        )
        s = settle_slot(c, Tariff(0.01, 0.40))
        assert sum(s.p2p_paid.values()) == pytest.approx(sum(s.p2p_received.values()), abs=1e-12)


def test_oracle_equivalence_small_books():
    """Greedy merit-order volume equals exhaustive max crossing volume."""
    import random

    rng = random.Random(11)
    for _ in range(60):
        nb, ns = rng.randint(0, 3), rng.randint(0, 3)
        buys = [(f"B{k}", rng.randint(1, 8) * 0.5, rng.randint(1, 64) / 128.0) for k in range(nb)]
        sells = [(f"S{k}", rng.randint(1, 8) * 0.5, rng.randint(1, 64) / 128.0) for k in range(ns)]
        c = clear(buys, sells)
        assert c.matched_volume == pytest.approx(max_crossing_volume(buys, sells, unit=0.5))


class TestFillColumns:
    def test_fills_are_columns_in_merge_order(self):
        c = clear([("B1", 3, 0.25), ("B2", 3, 0.15)], [("S1", 4, 0.10), ("S2", 1, 0.12)])
        assert (c.buyer_ids, c.seller_ids, c.quantities) == (
            ["B1", "B2", "B2"], ["S1", "S1", "S2"], [3.0, 1.0, 1.0])
