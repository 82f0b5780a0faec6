"""Storage-sharing auction: determination, pricing, allocation, incentives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from oracles import (
    check_incentive_compatibility_loop,
    requirement_sweep_loop,
    stackelberg_price_grid,
    storage_auction_reference,
    supply_at,
)

from gridswap import storage
from gridswap.errors import InputError
from gridswap.storage import (
    EQUAL,
    PROPORTIONAL,
    ResidentialUnit,
    SfcAgent,
    StorageScenario,
    allocate_shares,
    check_incentive_compatibility,
    determine_participants,
    follower_best_response,
    make_ic_scenarios,
    requirement_sweep,
    run_storage_auction,
    stackelberg_price,
    vickrey_price,
)


def ru(rid, cap, res, alpha):
    return ResidentialUnit(rid, cap, res, alpha)


def sfc(sid, req, bid):
    return SfcAgent(sid, req, bid)


class TestDetermination:
    def test_vickrey_is_second_highest(self):
        sfcs = [sfc("a", 100, 0.30), sfc("b", 100, 0.25), sfc("c", 100, 0.20)]
        assert vickrey_price(sfcs) == 0.25

    def test_single_bid_degenerates(self):
        assert vickrey_price([sfc("a", 100, 0.30)]) == 0.30

    def test_reservation_threshold(self):
        rus = [ru("r1", 50, 0.10, 0.01), ru("r2", 50, 0.24, 0.01), ru("r3", 50, 0.28, 0.01)]
        sfcs = [sfc("a", 100, 0.30), sfc("b", 100, 0.25)]
        rus_in, sfcs_in, v = determine_participants(rus, sfcs)
        assert v == 0.25
        assert [r.id for r in rus_in] == ["r1", "r2"]
        assert len(sfcs_in) == 2

    def test_no_qualifying_ru(self):
        rus = [ru("r1", 50, 0.50, 0.01)]
        sfcs = [sfc("a", 100, 0.30), sfc("b", 100, 0.25)]
        rus_in, sfcs_in, v = determine_participants(rus, sfcs)
        assert rus_in == [] and sfcs_in == []
        out = run_storage_auction(rus, sfcs)
        assert out.empty and out.vickrey_price == 0.25


class TestFollowerBestResponse:
    def test_zero_margin_shares_nothing(self):
        unit = ru("r", 40, 0.20, 0.01)
        assert follower_best_response(unit, 0.20) == 0.0

    @pytest.mark.parametrize("reservation, price", [(0.20, 0.20), (0.0, -0.0)])
    def test_at_the_reservation_price_keeps_the_sign_of_zero(self, reservation, price):
        # np.clip's signed zero: +0.0 from p - r == 0, -0.0 from a price of -0.0 at r == 0
        unit = ru("r", 40, reservation, 0.01)
        share = follower_best_response(unit, price)
        reference = float(np.clip((price - reservation) / 0.01, 0.0, 40))
        assert share == reference == 0.0
        sign = math.copysign(1.0, price)
        assert math.copysign(1.0, share) == math.copysign(1.0, reference) == sign

    def test_large_price_clamps_at_capacity(self):
        unit = ru("r", 40, 0.20, 0.01)
        assert follower_best_response(unit, 10.0) == 40.0

    def test_half_capacity_point_matches_grid_search(self):
        unit = ru("r", 40, 0.20, 0.01)
        p = 0.20 + 0.01 * 40 / 2
        a = follower_best_response(unit, p)
        assert a == pytest.approx(20.0)
        grid = np.linspace(0, 40, 40001)
        util = (p - 0.20) * grid - 0.5 * 0.01 * grid**2
        assert a == pytest.approx(grid[np.argmax(util)], abs=1e-3)

    def test_supply_curve_nondecreasing(self):
        rus = [ru("a", 30, 0.10, 0.004), ru("b", 50, 0.15, 0.002)]
        prices = np.linspace(0.0, 0.6, 500)
        s = supply_at(rus, prices)
        assert np.all(np.diff(s) >= -1e-12)


class TestStackelbergPrice:
    def test_abundant_supply_floors_price(self):
        # S(v) already exceeds Q, so raising the price only costs the SFCs
        rus = [ru("a", 500, 0.01, 0.0001)]
        p = stackelberg_price(rus, [(100.0, 0.35)], price_floor=0.20, price_cap=0.40)
        assert p == pytest.approx(0.20)

    def test_inert_supply_ties_to_floor(self):
        # reluctance so large the unit never shares: flat objective, lowest p wins
        rus = [ru("a", 10, 0.35, 1e9)]
        p = stackelberg_price(rus, [(50.0, 0.35)], 0.20, 0.40)
        assert p == pytest.approx(0.20)

    def test_matches_finer_grid_oracle(self):
        # scalar re-derivation of the savings objective on a 10x finer grid
        rus = [ru("a", 60, 0.22, 0.0009), ru("b", 45, 0.18, 0.0014)]
        demand = [(100.0, 0.40), (50.0, 0.22)]
        lo, hi = 0.20, 0.40
        p = stackelberg_price(rus, demand, lo, hi)

        def savings(price):
            space = float(supply_at(rus, [price])[0])
            total = 0.0
            for q, b in sorted(demand, key=lambda t: -t[1]):
                if b < price:
                    continue
                take = min(q, space)
                total += (b - price) * take
                space -= take
            return total

        grid = np.linspace(lo, hi, int(round((hi - lo) / 1e-5)) + 1)
        oracle = max(grid, key=lambda x: (savings(float(x)), -x))
        assert p == pytest.approx(oracle, abs=2e-4)

    def test_price_bounds_validated(self):
        with pytest.raises(InputError):
            stackelberg_price([ru("a", 10, 0.1, 0.01)], [(10.0, 0.3)], 0.4, 0.2)
        with pytest.raises(InputError):
            stackelberg_price([ru("a", 10, 0.1, 0.01)], [(10.0, 0.3), (-5.0, 0.2)], 0.2, 0.3)


def _pricing_case(rng):
    """One random pricing instance.

    About a third draw reservations, bids and requirements from two-value
    pools, so they repeat; some units have no capacity or never share, and
    some price ranges are a single point.
    """
    units, sfcs = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    res = rng.uniform(0.0, 0.4, units)
    alpha = np.where(rng.random(units) < 0.1, 1e9, 10 ** rng.uniform(-4, 0, units))
    cap = np.where(rng.random(units) < 0.15, 0.0, rng.uniform(1, 100, units))
    bids = rng.uniform(0.05, 0.5, sfcs)
    reqs = rng.uniform(1, 200, sfcs)
    if rng.random() < 0.35:
        res = rng.choice(res[:2], units)
        bids = rng.choice(bids[:2], sfcs)
        reqs = rng.choice(reqs[:2], sfcs)
    rus = [ru(f"r{k}", float(cap[k]), float(res[k]), float(alpha[k])) for k in range(units)]
    demand = [(float(q), float(b)) for q, b in zip(reqs, bids)]
    ranked = sorted(bids)
    if sfcs > 1 and rng.random() < 0.7:
        floor = float(ranked[-2])
    else:
        floor = float(rng.uniform(0.0, ranked[-1]))
    return rus, demand, floor, floor if rng.random() < 0.05 else float(ranked[-1])


def _record_priced_rows(monkeypatch):
    """Record each row the pricing kernel prices, as stackelberg_price arguments and price."""
    rows = []
    kernel = storage._stackelberg_rows

    def record(res, rel, cap, reqs, bids, lo, hi, *rest):
        prices = kernel(res, rel, cap, reqs, bids, lo, hi, *rest)
        for b, price in enumerate(prices.tolist()):
            units = [ru(f"r{k}", *unit) for k, unit in enumerate(zip(cap[b], res[b], rel[b]))]
            demand = list(zip(reqs[b].tolist(), bids[b].tolist()))
            rows.append(((units, demand, float(lo[b]), float(hi[b])), price))
        return prices

    monkeypatch.setattr(storage, "_stackelberg_rows", record)
    return rows


class TestGridFreePrice:
    """stackelberg_price returns exactly the full-grid search's price."""

    def test_equals_grid_oracle_random(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            args = _pricing_case(rng)
            assert stackelberg_price(*args) == stackelberg_price_grid(*args), args

    def test_equals_grid_oracle_on_ic_check_calls(self, monkeypatch):
        rows = _record_priced_rows(monkeypatch)
        assert check_incentive_compatibility(make_ic_scenarios(20, 1)).clean
        assert len(rows) > 3000
        for args, price in rows:
            assert price == stackelberg_price_grid(*args), args

    def test_midpoint_ties_follow_the_array_rounding(self):
        # units sharing one reservation r put the vertex at (bid + r) / 2; here
        # it lies halfway between two grid points, so they tie in exact
        # arithmetic and only float64 rounding, in numpy's order of summation
        # over 8 or more units, picks the returned one
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = 2 * (0.2 + (int(rng.integers(10, 900)) + 0.5) * 1e-4) - 0.4
            alphas = rng.choice([0.0007, 0.001, 0.002, 0.003], int(rng.integers(8, 20)))
            rus = [ru(f"r{k}", 1e4, r, float(a)) for k, a in enumerate(alphas)]
            args = (rus, [(1e7, 0.4), (10.0, 0.2)], 0.2, 0.4)
            assert stackelberg_price(*args) == stackelberg_price_grid(*args), args

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        units=hst.lists(
            hst.tuples(
                hst.sampled_from([0.0, 10.0, 40.0]) | hst.floats(0.0, 100.0),
                hst.sampled_from([0.0, 0.1, 0.2, 0.25]) | hst.floats(0.0, 0.4),
                hst.sampled_from([1e-4, 1e-3, 1e9]) | hst.floats(1e-4, 1.0),
            ),
            min_size=1,
            max_size=5,
        ),
        demand=hst.lists(
            hst.tuples(
                hst.sampled_from([50.0, 100.0]) | hst.floats(1.0, 200.0),
                hst.sampled_from([0.2, 0.25, 0.3]) | hst.floats(0.0, 0.5),
            ),
            min_size=1,
            max_size=4,
        ),
        lift=hst.floats(0.0, 1.0),
    )
    def test_equals_grid_oracle_hypothesis(self, units, demand, lift):
        rus = [ru(f"r{k}", *unit) for k, unit in enumerate(units)]
        bids = sorted(b for _, b in demand)
        floor = bids[-2] if len(bids) > 1 else bids[-1] * lift
        args = (rus, demand, floor, bids[-1])
        assert stackelberg_price(*args) == stackelberg_price_grid(*args)

    def test_work_does_not_grow_with_the_bid(self):
        # a top bid of 100 spans about 1e6 grid points; the grid search
        # allocates tens of MB here. The unit fills up at 0.80, inside the range.
        rus = [ru("a", 60, 0.20, 0.01)]
        demand = [(80.0, 100.0), (50.0, 0.25)]
        tracemalloc.start()
        try:
            p = stackelberg_price(rus, demand, 0.25, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert p == stackelberg_price_grid(rus, demand, 0.25, 100.0)


def _count_searched(mp):
    """Patch `mp` to record the (rows, units) shape of each batch that the
    pricing kernel's screen leaves to `_grid_maximizers`."""
    searched = []
    search = storage._grid_maximizers

    def record(res, *rest):
        searched.append(res.shape)
        return search(res, *rest)

    mp.setattr(storage, "_grid_maximizers", record)
    return searched


def _same_price(got, want):
    """`==`, and the same sign of zero."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _floor_edge_cases():
    """(name, stackelberg_price arguments, screened): rows at the edge of the
    kernel's screen, most of them on the grid [0.3, 0.35]."""
    lo, hi = 0.3, 0.35
    p0 = float(np.linspace(lo, hi, 2)[0])  # the grid's lowest point

    def full(rid, res, alpha, short=False):
        # exactly full at p0, or one ulp short of it
        cap = (p0 - res) / alpha
        return ru(rid, float(np.nextafter(cap, np.inf)) if short else cap, res, alpha)

    units = [full("a", 0.1, 0.002), full("b", 0.27, 0.0013), full("c", 0.0, 0.7)]
    under = p0 - 5e-13
    return [
        ("every unit full", (units, [(1e4, 0.35), (50.0, 0.3)], lo, hi), True),
        ("one unit an ulp short", ([*units[:2], full("c", 0.0, 0.7, short=True)],
                                   [(1e4, 0.35), (50.0, 0.3)], lo, hi), False),
        ("units without capacity", ([*units, ru("z", 0.0, 0.1, 0.01), ru("y", 0.0, p0, 0.01)],
                                    [(1e4, 0.35)], lo, hi), True),
        ("no capacity at all", ([ru("z", 0.0, 0.1, 0.01), ru("y", 0.0, p0, 0.01)],
                                [(50.0, 0.35), (50.0, 0.3)], lo, hi), True),
        ("no capacity, asking above the floor", ([*units, ru("z", 0.0, 0.31, 0.01)],
                                                 [(1e4, 0.35)], lo, hi), False),
        ("bid under the floor, filled", (units, [(1.0, 0.35), (1e4, under)], lo, hi), False),
        ("bid under the floor, alone", (units, [(10.0, under)], lo, lo + 1e-3), False),
        ("bid under the floor, unfilled", (units, [(1e4, 0.35), (10.0, p0 - 1e-12)], lo, hi), True),
        ("floor -0.0", ([ru("z", 0.0, 0.0, 0.01), ru("y", 0.0, 0.0, 3.0)],
                        [(10.0, 0.01), (10.0, -0.0)], -0.0, 0.01), True),
    ]


class TestFloorScreen:
    """A row whose units are all full at the grid's lowest point is priced there
    with no search, and only when that is the full-grid search's price."""

    @pytest.mark.parametrize("name, args, screened",
                             _floor_edge_cases(), ids=[c[0] for c in _floor_edge_cases()])
    def test_edge_corpus(self, monkeypatch, name, args, screened):
        searched = _count_searched(monkeypatch)
        price = stackelberg_price(*args)
        assert _same_price(price, stackelberg_price_grid(*args)), args
        assert (not searched) == screened

    def test_bid_under_the_floor_moves_the_price(self):
        # the lone buyer's term is negative at the floor and zero one grid point up
        (_, args, _), = (c for c in _floor_edge_cases() if c[0] == "bid under the floor, alone")
        assert stackelberg_price(*args) == stackelberg_price_grid(*args) > args[2]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        floor=hst.sampled_from([-0.0, 0.0, 0.25, 0.3]) | hst.floats(0.0, 0.4),
        span=hst.sampled_from([0.0, 1e-4, 3e-4, 0.05]),
        units=hst.lists(
            hst.tuples(
                hst.sampled_from(["full", "ulp short", "no capacity", "free"]),
                # the reservation's distance under the floor
                hst.sampled_from([0.0, 0.1]) | hst.floats(-0.05, 0.4),
                hst.sampled_from([1e-3, 0.7]) | hst.floats(1e-4, 1.0),
                hst.floats(0.0, 100.0),
            ),
            min_size=1,
            max_size=9,
        ),
        demand=hst.lists(
            hst.tuples(
                hst.sampled_from([1.0, 1e4]) | hst.floats(0.1, 500.0),
                # the bid's distance under the floor
                hst.sampled_from([0.0, 5e-13, 1e-12, -1e-3, -0.05]) | hst.floats(-0.1, 1e-12),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_equals_grid_oracle_at_the_edge(self, floor, span, units, demand):
        hi = floor + span
        p0 = float(np.linspace(floor, hi, 2)[0])
        rus, full = [], True
        for k, (kind, under, alpha, free) in enumerate(units):
            res = max(p0 - under, 0.0)
            cap = {"full": max((p0 - res) / alpha, 0.0), "no capacity": 0.0, "free": free}.get(
                kind, float(np.nextafter(max((p0 - res) / alpha, 0.0), np.inf)))
            rus.append(ru(f"r{k}", cap, res, alpha))
            full &= kind in ("full", "no capacity") and res <= p0
        demand = [(q, max(p0 - under, 0.0)) for q, under in demand]
        with pytest.MonkeyPatch.context() as mp:
            searched = _count_searched(mp)
            price = stackelberg_price(rus, demand, floor, hi)
        assert _same_price(price, stackelberg_price_grid(rus, demand, floor, hi))
        if full and all(b >= p0 for _, b in demand):
            assert not searched


class TestAllocateShares:
    def test_exact_balance_no_burden(self):
        alloc, burden = allocate_shares([10, 4], [8, 6], EQUAL)
        assert sum(alloc) == pytest.approx(14.0)
        assert burden == [0.0, 0.0]

    def test_identical_units_equal_rule(self):
        alloc, burden = allocate_shares([10, 10], [12], EQUAL)
        assert burden[0] == pytest.approx(burden[1]) == pytest.approx(4.0)

    def test_proportional_by_reservation(self):
        # unsold 6 kWh split 0.1 : 0.3
        alloc, burden = allocate_shares([10, 10], [14], PROPORTIONAL, reservations=[0.1, 0.3])
        assert burden[0] == pytest.approx(1.5)
        assert burden[1] == pytest.approx(4.5)

    def test_equal_rule_waterfall(self):
        # equal split of 9 would exceed the 2 kWh share; excess rolls over
        alloc, burden = allocate_shares([2, 20], [13], EQUAL)
        assert burden[0] == pytest.approx(2.0)
        assert burden[1] == pytest.approx(7.0)
        assert sum(burden) == pytest.approx(9.0)

    def test_requirements_filled_in_given_order(self):
        alloc, _ = allocate_shares([10], [6, 6], EQUAL)
        assert alloc == [6.0, 4.0]

    def test_subnormal_reservation_still_carries_the_burden(self):
        # remaining * 5e-324 underflowed to 0 and left the 1e-9 kWh unsold unplaced
        alloc, burden = allocate_shares([0.0, 0.0, 1e-9], [5e-324], PROPORTIONAL,
                                        reservations=[0.0, 0.0, 5e-324])
        assert alloc == [5e-324] and burden == [0.0, 0.0, 1e-9 - 5e-324]

    def test_negative_inputs_rejected(self):
        with pytest.raises(InputError):
            allocate_shares([-1], [5], EQUAL)
        with pytest.raises(InputError):
            allocate_shares([1], [5], "magic")

    def test_burden_conservation_random(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            shares = list(rng.uniform(0, 30, int(rng.integers(1, 5))))
            reqs = list(rng.uniform(0, 25, int(rng.integers(1, 4))))
            rule = EQUAL if rng.random() < 0.5 else PROPORTIONAL
            alloc, burden = allocate_shares(
                shares, reqs, rule, reservations=list(rng.uniform(0.01, 0.5, len(shares)))
            )
            unsold = max(sum(shares) - sum(reqs), 0.0)
            assert sum(burden) == pytest.approx(min(unsold, sum(shares)), abs=1e-9)
            for s, b in zip(shares, burden):
                assert -1e-12 <= b <= s + 1e-9


# element strategies for the row-sum kernel, one kind per array or two mixed
_SUMMANDS = {
    # magnitudes over the binades from 2**-60 to 2**60, either sign
    "binades": hst.builds(math.ldexp, hst.floats(-1, 1), hst.integers(-60, 60)),
    # integers past 2**53: two addends in one binade round to even half the time
    "ties": hst.one_of(hst.integers(-2**55, 2**55), hst.integers(-3, 3)).map(float),
    "subnormals": hst.builds(math.ldexp, hst.integers(-2**53, 2**53), hst.integers(-1126, -1000)),
    "zeros": hst.sampled_from([0.0, -0.0]),
    # non-finite values, and values whose partial sums can overflow
    "overflow": hst.one_of(
        hst.sampled_from([math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                          -1.7976931348623157e308]),
        hst.builds(math.ldexp, hst.floats(-1, 1), hst.integers(968, 1023))),
}


# rows that test the kernel's rounding, overflow and signed zeros
_EDGE_ROWS = [
    # the running sum stays finite, but fsum's partials overflow on max + 2**970
    [-(1.7976931348623157e308 - 2.0**971), 2.0**970, 1.7976931348623157e308],
    [1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308],
    [math.inf, 1.0, -math.inf],
    [2.0**53, 1.0],  # a tie: fsum rounds to even
    [2.0**53, 1.0, 2.0**-60],
    # r = s + lo ties to 1.5, while the exact sum lies above the tie
    [1.5, 2.0**-53, 2.0**-106],
    [1e16, 1.0, -1e16, 2.0**-70],
    [-0.0, -0.0],
    [0.0, -0.0],
    [5e-324, -5e-324, 5e-324],
]


def _fsum_or_error(row):
    try:
        return math.fsum(row)
    except (OverflowError, ValueError) as exc:
        return exc


def _assert_kernel_is_fsum(x):
    """`_fsum_rows(x)` is math.fsum of each row, bit for bit, or raises what fsum
    raises first in row order."""
    want = [_fsum_or_error(row) for row in x.tolist()]
    error = next((w for w in want if isinstance(w, Exception)), None)
    if error is not None:
        with pytest.raises(type(error)) as info:
            storage._fsum_rows(x)
        assert str(info.value) == str(error)
    else:
        got = storage._fsum_rows(x)
        assert got.view(np.int64).tolist() == np.array(want).reshape(-1).view(np.int64).tolist()


class TestFsumRows:
    @settings(max_examples=400, deadline=None)
    @given(hst.data())
    def test_equals_fsum_hypothesis(self, data):
        kinds = data.draw(hst.lists(hst.sampled_from(sorted(_SUMMANDS)), min_size=1, max_size=2))
        k = data.draw(hst.integers(0, 7))
        values = hst.one_of(*(_SUMMANDS[kind] for kind in kinds))
        rows = data.draw(hst.lists(hst.lists(values, min_size=k, max_size=k), max_size=6))
        _assert_kernel_is_fsum(np.array(rows, dtype=float).reshape(len(rows), k))

    @pytest.mark.parametrize("row", _EDGE_ROWS)
    def test_edge_rows(self, row):
        _assert_kernel_is_fsum(np.array([row, [1.0] * len(row)]))

    @pytest.mark.parametrize("row", [*_EDGE_ROWS, [], [-0.0], [math.nan, 1.0], [-math.inf],
                                     [math.inf, math.inf], [1.0] * 50])
    def test_one_row_is_fsum(self, row, monkeypatch):
        # a single row, signed zeros and fsum's errors included, skips the column passes
        monkeypatch.setattr(storage, "_two_sum", None)
        _assert_kernel_is_fsum(np.array([row], dtype=float).reshape(1, len(row)))

    def test_settlement_rows_need_no_fallback(self, monkeypatch):
        # every sum that `ic-check --trials 100 --seed 1` settles in an array of
        # several rows is certified in the arrays; a one-row array goes to fsum
        calls, single, fsum, kernel = [], [], math.fsum, storage._fsum_rows

        def counted(x):
            if len(x) == 1:
                single.append(x[0].tolist())
            return kernel(x)

        monkeypatch.setattr(storage.math, "fsum", lambda row: calls.append(row) or fsum(row))
        monkeypatch.setattr(storage, "_fsum_rows", counted)
        report = check_incentive_compatibility(make_ic_scenarios(100, 1))
        monkeypatch.undo()
        assert report.clean and calls == single


class TestRunStorageAuction:
    def _standard(self):
        rus = [ru("r1", 60, 0.10, 0.002), ru("r2", 60, 0.12, 0.003)]
        sfcs = [sfc("a", 120, 0.35), sfc("b", 80, 0.28)]
        return rus, sfcs

    def test_price_within_bounds(self):
        rus, sfcs = self._standard()
        out = run_storage_auction(rus, sfcs)
        assert out.vickrey_price <= out.auction_price <= 0.35

    def test_symmetric_units_symmetric_outcome(self):
        rus = [ru("r1", 50, 0.10, 0.002), ru("r2", 50, 0.10, 0.002)]
        sfcs = [sfc("a", 40, 0.30), sfc("b", 40, 0.25)]
        out = run_storage_auction(rus, sfcs, rule=EQUAL)
        assert out.shares["r1"] == pytest.approx(out.shares["r2"])
        assert out.burdens["r1"] == pytest.approx(out.burdens["r2"])
        assert out.ru_utilities["r1"] == pytest.approx(out.ru_utilities["r2"])

    def test_deterministic(self):
        rus, sfcs = self._standard()
        a = run_storage_auction(rus, sfcs)
        b = run_storage_auction(rus, sfcs)
        assert a == b

    def test_allocation_accounting(self):
        rus, sfcs = self._standard()
        out = run_storage_auction(rus, sfcs)
        assert out.total_allocated() == pytest.approx(
            min(out.total_shared(), 200.0), abs=1e-9
        )
        assert out.total_burden() == pytest.approx(
            max(out.total_shared() - out.total_allocated(), 0.0), abs=1e-9
        )

    def test_low_bid_sfc_never_pays_above_value(self):
        # the b-SFC's bid can fall under the auction price; it must not trade at a loss
        rus = [ru("r1", 200, 0.02, 0.0005)]
        sfcs = [sfc("a", 150, 0.40), sfc("b", 100, 0.05)]
        out = run_storage_auction(rus, sfcs)
        for sid, u in out.sfc_utilities.items():
            assert u >= -1e-9

    def test_individual_rationality_all_sides(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            rus = [
                ru(f"r{k}", float(rng.uniform(20, 80)), float(rng.uniform(0.05, 0.2)),
                   float(rng.uniform(0.001, 0.01)))
                for k in range(int(rng.integers(1, 4)))
            ]
            sfcs = [
                sfc(f"s{k}", float(rng.uniform(150, 400)), float(rng.uniform(0.22, 0.45)))
                for k in range(int(rng.integers(1, 4)))
            ]
            out = run_storage_auction(rus, sfcs)
            if out.empty:
                continue
            # no oversupply here (requirements dwarf capacity), so every
            # participant should clear a nonnegative utility
            assert min(out.ru_utilities.values(), default=0.0) >= -1e-9
            assert min(out.sfc_utilities.values(), default=0.0) >= -1e-9


def _auction_case(rng):
    """One random auction: 1-5 units, 1-4 SFCs, half of them with repeated values.

    Some units have no capacity or no reservation price, some ask above every
    bid, so no unit qualifies and the auction is empty, and some SFC ids repeat.
    """
    units, sfcs = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    pooled = rng.random() < 0.5

    def draw(pool, lo, hi, n):
        return rng.choice(pool, n) if pooled else rng.uniform(lo, hi, n)

    cap = np.where(rng.random(units) < 0.15, 0.0, draw([10.0, 40.0], 1, 100, units))
    res = np.where(rng.random(units) < 0.15, 0.0, draw([0.1, 0.2, 0.3], 0.0, 0.5, units))
    alpha = 10 ** rng.uniform(-4, 0, units)
    bids = draw([0.2, 0.25, 0.3], 0.0, 0.45, sfcs)
    reqs = draw([50.0, 100.0], 1, 200, sfcs)
    ids = rng.integers(0, 3, sfcs) if rng.random() < 0.3 else range(sfcs)
    rus = [ru(f"r{k}", float(cap[k]), float(res[k]), float(alpha[k])) for k in range(units)]
    return rus, [sfc(f"s{m}", float(q), float(b)) for m, q, b in zip(ids, reqs, bids)]


def _large_population():
    """50 units and 20 SFCs; the top two bids are 0.05 apart."""
    rng = np.random.default_rng(2)
    rus = [
        ru(f"u{k}", float(rng.uniform(30, 60)), float(rng.uniform(0.02, 0.12)),
           float(rng.uniform(0.001, 0.003)))
        for k in range(50)
    ]
    bids = [0.37, 0.32] + list(rng.uniform(0.15, 0.32, 18))
    return rus, [sfc(f"f{m}", float(rng.uniform(50, 150)), float(b)) for m, b in enumerate(bids)]


class TestAuctionEqualsReference:
    """An auction, a row of an auction batch and a sweep row report what the scalar
    reference reports, one auction at a time, bit for bit."""

    def test_seeded_corpus(self):
        rng = np.random.default_rng(17)
        empty = 0
        for _ in range(600):
            rus, sfcs = _auction_case(rng)
            for rule in (PROPORTIONAL, EQUAL):
                out = run_storage_auction(rus, sfcs, rule)
                assert repr(out) == repr(storage_auction_reference(rus, sfcs, rule)), (rus, sfcs)
                empty += out.empty
        assert empty > 50

    @pytest.mark.parametrize("rule", [PROPORTIONAL, EQUAL])
    def test_large_population(self, rule):
        rus, sfcs = _large_population()
        out = run_storage_auction(rus, sfcs, rule)
        assert repr(out) == repr(storage_auction_reference(rus, sfcs, rule))
        assert len(out.participating_rus) == 50

    def test_batch_rows(self):
        rng = np.random.default_rng(29)
        shapes = {}  # (units, SFCs) -> auctions with distinct SFC ids
        for _ in range(600):
            rus, sfcs = _auction_case(rng)
            if len({s.id for s in sfcs}) == len(sfcs):
                shapes.setdefault((len(rus), len(sfcs)), []).append((rus, sfcs))
        for rule in (PROPORTIONAL, EQUAL):
            for cases in shapes.values():
                res, rel, cap = (np.array([[getattr(r, f) for r in rus] for rus, _ in cases])
                                 for f in ("reservation_price", "reluctance", "capacity"))
                reqs, bids = (np.array([[getattr(s, f) for s in sfcs] for _, sfcs in cases])
                              for f in ("requirement", "bid_price"))
                tie = np.array([np.unique([s.id for s in sfcs], return_inverse=True)[1]
                                for _, sfcs in cases])
                rus_in, sfcs_in, price, _, committed, burden, bought = (
                    x.tolist() for x in storage._auctions(res, rel, cap, reqs, bids, tie, rule)
                )
                for d, (rus, sfcs) in enumerate(cases):
                    out = run_storage_auction(rus, sfcs, rule)
                    units = [(r.id, k) for k, r in enumerate(rus) if rus_in[d][k]]
                    row = (
                        price[d] if units else None,
                        {i: committed[d][k] for i, k in units},
                        {i: burden[d][k] for i, k in units},
                        {s.id: a for s, a, k in zip(sfcs, bought[d], sfcs_in[d]) if k},
                    )
                    assert repr(row) == repr(
                        (out.auction_price, out.shares, out.burdens, out.sfc_allocations)
                    ), (rus, sfcs)

    def test_requirement_sweep_rows(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            rus, sfcs = _auction_case(rng)
            totals = rng.uniform(10, 500, int(rng.integers(1, 6))).tolist()
            rule = EQUAL if rng.random() < 0.5 else PROPORTIONAL
            rows = requirement_sweep(rus, sfcs, totals, rule)
            assert repr(rows) == repr(requirement_sweep_loop(rus, sfcs, totals, rule))


class TestRuleChecked:
    """An unknown allocation rule is refused before any auction runs."""

    # the unit asks more than the Vickrey price, so no auction is priced
    RUS = [ru("r1", 50, 0.50, 0.01)]
    SFCS = [sfc("a", 100, 0.30), sfc("b", 100, 0.25)]

    @pytest.mark.parametrize("entry", [
        lambda rus, sfcs: run_storage_auction(rus, sfcs, rule="bogus"),
        lambda rus, sfcs: requirement_sweep(rus, sfcs, [100, 200], rule="bogus"),
        lambda rus, sfcs: check_incentive_compatibility([
            StorageScenario(sc.rus, sc.sfcs, "bogus") for sc in make_ic_scenarios(3, 1)
        ]),
    ], ids=["run_storage_auction", "requirement_sweep", "check_incentive_compatibility"])
    def test_unknown_rule(self, entry):
        with pytest.raises(InputError, match="allocation rule must be 'proportional' or 'equal'"):
            entry(self.RUS, self.SFCS)

    def test_unknown_rule_last_in_the_search(self, monkeypatch):
        def priced(*args):
            raise AssertionError("an auction was priced before every rule was checked")

        monkeypatch.setattr(storage, "_auctions", priced)
        monkeypatch.setattr(storage, "_stackelberg_rows", priced)
        scenarios = make_ic_scenarios(4, 1) + make_ic_scenarios(4, 2, EQUAL)
        scenarios.append(StorageScenario(scenarios[0].rus, scenarios[0].sfcs, "bogus"))
        with pytest.raises(InputError, match="allocation rule must be 'proportional' or 'equal'"):
            check_incentive_compatibility(scenarios)


class TestRequirementSweep:
    def test_rows_cover_requested_totals(self):
        rus = [ru("r1", 100, 0.26, 0.0005), ru("r2", 100, 0.265, 0.0004)]
        sfcs = [sfc("a", 100, 0.40), sfc("b", 100, 0.28)]
        rows = requirement_sweep(rus, sfcs, [100, 200, 300], rule=EQUAL)
        assert [r["total_requirement"] for r in rows] == [100.0, 200.0, 300.0]
        prices = [r["auction_price"] for r in rows]
        assert all(p is not None for p in prices)
        assert prices == sorted(prices)

    @pytest.mark.parametrize("totals, message", [
        ([0], "SFC 'a' requirement must be > 0"),
        ([100, -5], r"sfc_requirement total must lie in \[0, 1e\+09\] kWh, got -5.0"),
        ([1e308, 100], r"sfc_requirement total must lie in \[0, 1e\+09\] kWh"),
        ([100, math.nextafter(1e9, math.inf)],
         r"sfc_requirement total must lie in \[0, 1e\+09\] kWh"),
    ])
    def test_scaled_requirements_validated(self, totals, message):
        rus = [ru("r1", 100, 0.26, 0.0005)]
        sfcs = [sfc("a", 100, 0.40), sfc("b", 100, 0.28)]
        with pytest.raises(InputError, match=message):
            requirement_sweep(rus, sfcs, totals)

    def test_total_at_the_bound_accepted(self):
        rus = [ru("r1", 100, 0.26, 0.0005)]
        sfcs = [sfc("a", 100, 0.40), sfc("b", 100, 0.28)]
        row, = requirement_sweep(rus, sfcs, [1e9])
        assert row["total_requirement"] == 1e9 and row["auction_price"] is not None


class TestIncentiveCompatibility:
    def test_pinned_family_is_truthful(self):
        scenarios = make_ic_scenarios(10, seed=3)
        report = check_incentive_compatibility(scenarios)
        assert report.clean, report.profitable_deviations[:3]
        assert report.scenarios_checked == 10

    def test_capacity_zero_misreport_never_gains(self):
        scenarios = make_ic_scenarios(5, seed=8)
        for sc in scenarios:
            truthful = run_storage_auction(list(sc.rus), list(sc.sfcs), sc.rule)
            target = sc.rus[0]
            mute = ResidentialUnit(target.id, 0.0, target.reservation_price, target.reluctance)
            others = [mute if r.id == target.id else r for r in sc.rus]
            out = run_storage_auction(others, list(sc.sfcs), sc.rule)
            deviated = out.shares.get(target.id, 0.0)
            assert deviated == 0.0
            base = truthful.ru_utilities[target.id]
            assert base >= -1e-12  # opting out is weakly dominated

    def test_detects_manipulation_when_price_responds(self):
        # price-sensitive interior supply: overstating the reservation price
        # pushes the price up and pays off, and the search must catch it
        rus = [ru("r1", 500, 0.10, 0.002), ru("r2", 500, 0.10, 0.002)]
        sfcs = [sfc("a", 90, 0.50), sfc("b", 30, 0.45)]
        report = check_incentive_compatibility(
            [StorageScenario(tuple(rus), tuple(sfcs), EQUAL)]
        )
        assert any(param == "reservation_price" for _, _, param, _, _ in
                   report.profitable_deviations)

    def test_reports_the_largest_gain(self):
        # the pinned family's best misreport gains nothing; the search still says how close it came
        report = check_incentive_compatibility(make_ic_scenarios(3, seed=4))
        assert report.clean and report.largest_gain == 0.0
        rus = [ru("r1", 500, 0.10, 0.002), ru("r2", 500, 0.10, 0.002)]
        sfcs = [sfc("a", 90, 0.50), sfc("b", 30, 0.45)]
        report = check_incentive_compatibility([StorageScenario(tuple(rus), tuple(sfcs), EQUAL)])
        assert report.largest_gain == max(gain for *_, gain in report.profitable_deviations)

    @pytest.mark.parametrize("units, bidders, message", [
        ((), (sfc("a", 80, 0.35), sfc("b", 50, 0.30)),
         "at least one residential unit is required"),
        ((ru("r1", 40, 0.20, 0.002),), (), "at least one SFC bid is required"),
    ], ids=["no units", "no SFCs"])
    def test_empty_side_is_input_error(self, units, bidders, message):
        with pytest.raises(InputError, match=message):
            check_incentive_compatibility([StorageScenario(units, bidders)])

    @pytest.mark.parametrize("top", [1e12, 7e11, math.nextafter(1e3, math.inf), 1e3])
    def test_grid_span_checked_on_every_priced_report(self, top):
        # a bid past ingest.PRICE is refused where the SFC is built, so no report
        # reaches the price grid with it; at the bound even a 1.5x misreport
        # spans about 1.5e7 grid points, far under 2**53
        rus = (ru("r1", 40, 0.20, 0.002), ru("r2", 60, 0.10, 0.002))
        if top > 1e3:
            with pytest.raises(InputError, match="SFC 'a' bid must lie in \\[0, 1000\\] \\$/kWh"):
                sfc("a", 80, top)
            return
        sfcs = (sfc("a", 80, top), sfc("b", 50, 0.30))
        report = check_incentive_compatibility([StorageScenario(rus, sfcs)])
        assert report.deviations_checked == (2 * 2 + 2) * 20

    def test_sfc_bid_inflation_weakly_hurts(self):
        scenarios = make_ic_scenarios(6, seed=21)
        for sc in scenarios:
            truthful = run_storage_auction(list(sc.rus), list(sc.sfcs), sc.rule)
            for s in sc.sfcs:
                raised = [
                    SfcAgent(x.id, x.requirement, x.bid_price * 1.3) if x.id == s.id else x
                    for x in sc.sfcs
                ]
                out = run_storage_auction(list(sc.rus), raised, sc.rule)
                assert out.auction_price >= truthful.auction_price - 1e-9
                u = (s.bid_price - out.auction_price) * out.sfc_allocations.get(s.id, 0.0)
                assert u <= truthful.sfc_utilities[s.id] + 1e-9


def _price_sensitive(count, seed, rule, units=(2, 10)):
    """Scenarios whose supply is interior and price-sensitive, so misreports can pay."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for _ in range(count):
        bids = np.sort(rng.uniform(0.25, 0.45, int(rng.integers(2, 5))))[::-1]
        rus = [
            ru(f"ru{j}", float(rng.uniform(5, 80)), float(rng.uniform(0.02, bids[1] * 1.05)),
               float(rng.uniform(0.0005, 0.01)))
            for j in range(int(rng.integers(*units)))
        ]
        total = sum(r.capacity for r in rus)
        sfcs = [sfc(f"sfc{m}", float(rng.uniform(0.1, 0.8)) * total, float(b))
                for m, b in enumerate(bids)]
        scenarios.append(StorageScenario(tuple(rus), tuple(sfcs), rule))
    return scenarios


def _assert_equals_loop(report, scenarios):
    """`report` is the per-misreport loop's, signed zeros included."""
    loop = check_incentive_compatibility_loop(scenarios)
    assert report == loop
    assert repr(report) == repr(loop)


class TestIcSearchEqualsLoop:
    """The whole-array search reports what one full auction per misreport reports, bit for bit."""

    def test_pinned_family(self):
        scenarios = make_ic_scenarios(100, 1)
        report = check_incentive_compatibility(scenarios)
        _assert_equals_loop(report, scenarios)
        assert report.clean and report.deviations_checked == 16_860

    def test_truthful_reports_are_priced_in_the_batch(self, monkeypatch):
        def separate(*args):
            raise AssertionError("the truthful outcome must come from the misreports' batch")

        monkeypatch.setattr(storage, "run_storage_auction", separate)
        monkeypatch.setattr(storage, "ru_realized_utility", separate)
        scenarios = make_ic_scenarios(5, 1)
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)

    @pytest.mark.parametrize("rule", [PROPORTIONAL, EQUAL])
    def test_price_sensitive_family(self, rule):
        scenarios = _price_sensitive(60, 3, rule)
        report = check_incentive_compatibility(scenarios)
        _assert_equals_loop(report, scenarios)
        assert len(report.profitable_deviations) > 1000
        assert report.ir_violations

    def test_eight_or_more_units(self, monkeypatch):
        # numpy's pairwise summation order matters from 8 units on
        rows = _record_priced_rows(monkeypatch)
        scenarios = _price_sensitive(3, 9, EQUAL, units=(8, 14))
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)
        assert report.profitable_deviations
        assert sum(len(units) >= 8 for (units, *_), _ in rows) > 500

    def test_misreport_that_screens_the_deviator_out(self, monkeypatch):
        # r1 asks just under the Vickrey price of 0.30: each factor from 1.05
        # up screens it out, and no auction is priced for those ten reports
        rus = (ru("r1", 40, 0.29, 0.002), ru("r2", 60, 0.10, 0.002))
        sfcs = (sfc("a", 80, 0.35), sfc("b", 50, 0.30))
        scenarios = [StorageScenario(rus, sfcs, PROPORTIONAL)]
        rows = _record_priced_rows(monkeypatch)
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)
        assert len(rows) == 1 + report.deviations_checked - 10
        screened = ResidentialUnit("r1", 40, 0.29 * 1.05, 0.002)
        assert run_storage_auction([screened, rus[1]], list(sfcs)).shares.keys() == {"r2"}

    @pytest.mark.parametrize("rule", [PROPORTIONAL, EQUAL])
    def test_equal_bids_ranked_across_the_batch(self, rule):
        # SFC c bids 0.6, d 0.5 and e 0.4, and supply is flat. Reporting
        # 0.5 * 0.8 = 0.4, d ties with e at the price 0.4 and gains; both want
        # more than c leaves, so the id order decides which is filled first
        # and how much d gains. Ranked over the whole batch, each scenario's
        # ids get other ranks than on their own.
        rng = np.random.default_rng(37)
        names = ["ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"]
        scenarios = []
        for _ in range(8):
            rus = tuple(ru(f"r{k}", float(rng.uniform(20, 40)), float(rng.uniform(0.02, 0.1)),
                           float(rng.uniform(0.0005, 0.001))) for k in range(3))
            total = sum(r.capacity for r in rus)
            sfcs = [sfc(i, float(rng.uniform(low, low + 0.2)) * total, b) for i, low, b in zip(
                rng.choice(names, 3, replace=False).tolist(), (0.2, 0.4, 0.4), (0.6, 0.5, 0.4))]
            scenarios.append(StorageScenario(rus, tuple(sfcs[k] for k in rng.permutation(3)), rule))
        ids = [[s.id for s in sc.sfcs] for sc in scenarios]
        own = [np.unique(row, return_inverse=True)[1].tolist() for row in ids]
        assert own != np.unique(ids, return_inverse=True)[1].reshape(8, 3).tolist()
        report = check_incentive_compatibility(scenarios)
        _assert_equals_loop(report, scenarios)
        for idx, sc in enumerate(scenarios):
            d = next(s for s in sc.sfcs if s.bid_price == 0.5)
            tied = [sfc(s.id, s.requirement, 0.4) if s is d else s for s in sc.sfcs]
            out = run_storage_auction(list(sc.rus), tied, rule)
            second = max((s for s in tied if s.bid_price == 0.4), key=lambda s: s.id)
            assert out.auction_price == 0.4
            assert out.sfc_allocations[second.id] < second.requirement
            assert any(g[:4] == (idx, d.id, "bid_price", 0.8) for g in report.profitable_deviations)

    def test_search_in_sub_chunks(self, monkeypatch):
        # a bound this small cuts the rows a pricing call searches into several sub-chunks
        monkeypatch.setattr(storage, "_CHUNK_BYTES", 1 << 16)
        calls = []  # per pricing call: (units, SFCs, the rows of each search call)
        kernel, search = storage._stackelberg_rows, storage._grid_maximizers

        def priced(*args):
            calls.append((args[0].shape[1], args[4].shape[1], []))
            return kernel(*args)

        def searched(*args):
            calls[-1][2].append(len(args[0]))
            return search(*args)

        monkeypatch.setattr(storage, "_stackelberg_rows", priced)
        monkeypatch.setattr(storage, "_grid_maximizers", searched)
        scenarios = _price_sensitive(6, 8, PROPORTIONAL, units=(3, 4))
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)
        for units, sfcs, rows in calls:
            # the search's footprint, 8 * (88 + 64 R + 30 M) bytes per row
            assert max(rows, default=0) <= (1 << 16) // (8 * (88 + 64 * units + 30 * sfcs))
        assert sum(len(rows) > 1 for *_, rows in calls) > 5
        assert report.auctions_searched == sum(sum(rows) for *_, rows in calls)

    def test_misreport_that_moves_the_reservation_floor(self):
        # r1 holds the lowest reservation, 0.20; reporting 0.23 or more lifts
        # the floor above c's bid of 0.22, and c drops out of the auction
        rus = (ru("r1", 40, 0.20, 0.002), ru("r2", 60, 0.25, 0.002))
        sfcs = (sfc("a", 80, 0.35), sfc("b", 50, 0.30), sfc("c", 30, 0.22))
        for rule in (PROPORTIONAL, EQUAL):
            scenarios = [StorageScenario(rus, sfcs, rule)]
            _assert_equals_loop(check_incentive_compatibility(scenarios), scenarios)
        lifted = ResidentialUnit("r1", 40, 0.20 * 1.15, 0.002)
        assert [s.id for s in determine_participants(list(rus), list(sfcs))[1]] == ["a", "b", "c"]
        _, sfcs_in, _ = determine_participants([lifted, rus[1]], list(sfcs))
        assert [s.id for s in sfcs_in] == ["a", "b"]

    def test_mixed_shapes_and_rules(self, monkeypatch):
        # scenarios of both families and both rules, interleaved: each (units,
        # SFCs, rule) group is priced as one batch and read back in input order
        scenarios = [*make_ic_scenarios(8, 5), *make_ic_scenarios(8, 5, EQUAL),
                     *_price_sensitive(5, 6, PROPORTIONAL, units=(2, 5)),
                     *_price_sensitive(5, 7, EQUAL, units=(2, 5))]
        scenarios = [scenarios[k] for k in np.random.default_rng(13).permutation(len(scenarios))]
        calls = []
        batch = storage._auctions

        def count(res, rel, cap, reqs, bids, tie, rule):
            calls.append((res.shape[1], bids.shape[1], rule))
            return batch(res, rel, cap, reqs, bids, tie, rule)

        monkeypatch.setattr(storage, "_auctions", count)
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)
        groups = [(len(sc.rus), len(sc.sfcs), sc.rule) for sc in scenarios]
        assert sorted(calls) == sorted(set(groups))
        assert max(groups.count(g) for g in groups) >= 3
        assert report.profitable_deviations and report.ir_violations

    def test_group_split_into_batches(self, monkeypatch):
        # a bound this small leaves one scenario per batch and a few rows per pricing chunk
        monkeypatch.setattr(storage, "_CHUNK_BYTES", 1 << 16)
        calls = []
        batch = storage._auctions
        monkeypatch.setattr(storage, "_auctions", lambda *args: calls.append(1) or batch(*args))
        scenarios = _price_sensitive(4, 8, PROPORTIONAL, units=(3, 4))
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)
        groups = {(len(sc.rus), len(sc.sfcs)) for sc in scenarios}
        assert len(calls) == len(scenarios) > len(groups)

    def test_readback_across_batches(self, monkeypatch):
        # a bound this small prices each scenario in its own batch, so the hits
        # read back from one concatenated array come from several batches,
        # groups and rules, interleaved
        monkeypatch.setattr(storage, "_CHUNK_BYTES", 1 << 16)
        scenarios = [*make_ic_scenarios(3, 2), *make_ic_scenarios(3, 2, EQUAL),
                     *_price_sensitive(3, 12, PROPORTIONAL, units=(2, 3)),
                     *_price_sensitive(3, 11, EQUAL, units=(4, 5))]
        scenarios = [scenarios[k] for k in np.random.default_rng(5).permutation(len(scenarios))]
        report = check_incentive_compatibility(scenarios)
        monkeypatch.undo()
        _assert_equals_loop(report, scenarios)
        assert len({idx for idx, *_ in report.profitable_deviations}) > 2
        assert len({idx for idx, *_ in report.ir_violations}) > 1

    def test_memory_on_a_large_scenario(self):
        # 50 units and 20 SFCs: 2,400 misreports, each priced over 140 kinks and exits
        rus, sfcs = _large_population()
        tracemalloc.start()
        try:
            report = check_incentive_compatibility([StorageScenario(tuple(rus), tuple(sfcs))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.deviations_checked == 2_400
        assert peak < 16_000_000

    def test_memory_of_one_batch(self):
        # 5,000 auctions of 4 units and 3 SFCs, every agent participating:
        # priced in chunks whose temporaries stay near `_CHUNK_BYTES`
        rng = np.random.default_rng(19)
        bids = np.sort(rng.uniform(0.25, 0.45, (5000, 3)), axis=1)[:, ::-1].copy()
        res, rel, cap = (rng.uniform(lo, hi, (5000, 4))
                         for lo, hi in ((0.02, 0.2), (0.0005, 0.01), (5, 80)))
        reqs = rng.uniform(0.1, 0.8, (5000, 3)) * cap.sum(axis=1, keepdims=True)
        tie = np.broadcast_to(np.arange(3), (5000, 3))
        tracemalloc.start()
        try:
            rus_in, _, price, *_ = storage._auctions(res, rel, cap, reqs, bids, tie, EQUAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rus_in.all() and np.isfinite(price).all()
        assert peak < 4_000_000

    def test_memory_of_a_screened_batch(self, monkeypatch):
        # 5,000 auctions of the pinned family at 4 units and 3 SFCs, all of
        # which the floor screen prices. A screened and settled row takes
        # under 8 * (24 + 12 R + 15 M) bytes, so a pricing call takes 1,120
        # rows, where the search's 8 * (88 + 64 R + 30 M) would allow 302
        rng = np.random.default_rng(31)
        bids = np.sort(rng.uniform(0.25, 0.40, (5000, 3)), axis=1)[:, ::-1].copy()
        rel, cap = rng.uniform(0.0008, 0.0015, (5000, 4)), rng.uniform(30.0, 60.0, (5000, 4))
        res = rng.uniform(0.02, np.maximum((bids[:, 1:2] - 1.6 * rel * cap) / 1.5 - 0.01, 0.021))
        reqs = rng.uniform(1.6, 2.5, (5000, 3)) * cap.sum(axis=1, keepdims=True)
        tie = np.broadcast_to(np.arange(3), (5000, 3))
        calls, kernel = [], storage._stackelberg_rows
        monkeypatch.setattr(storage, "_stackelberg_rows",
                            lambda *args: calls.append(len(args[0])) or kernel(*args))
        searched = _count_searched(monkeypatch)
        tracemalloc.start()
        try:
            rus_in, _, price, *_ = storage._auctions(res, rel, cap, reqs, bids, tie, PROPORTIONAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = storage._CHUNK_BYTES // (8 * (24 + 12 * 4 + 15 * 3))
        assert rows == 1120 and len(calls) == math.ceil(5000 / rows) == 5
        assert calls == [rows] * 4 + [5000 - 4 * rows]
        assert not searched and rus_in.all() and (price == bids[:, 1]).all()
        assert peak < 4_000_000


class TestScreenCoverage:
    """The floor screen prices the pinned family, and the bit-identity tests
    above still reach the search behind it."""

    def _priced_and_searched(self, monkeypatch, run, units=1):
        """Rows priced and rows searched by `run()`, counting rows of at least `units` units."""
        priced, kernel = [], storage._stackelberg_rows
        monkeypatch.setattr(storage, "_stackelberg_rows",
                            lambda *args: priced.append(args[0].shape) or kernel(*args))
        searched = _count_searched(monkeypatch)
        run()
        monkeypatch.undo()
        return (sum(b for b, r in shapes if r >= units) for shapes in (priced, searched))

    def test_pinned_family_is_screened(self, monkeypatch):
        priced, searched = self._priced_and_searched(
            monkeypatch, lambda: check_incentive_compatibility(make_ic_scenarios(100, 1)))
        assert priced > 16_000 and searched <= 0.01 * priced

    def test_report_counts_what_the_kernels_priced(self, monkeypatch):
        scenarios = [*make_ic_scenarios(20, 1), *_price_sensitive(4, 3, EQUAL)]
        reports = []
        priced, searched = self._priced_and_searched(
            monkeypatch, lambda: reports.append(check_incentive_compatibility(scenarios)))
        assert (reports[0].auctions_priced, reports[0].auctions_searched) == (priced, searched)
        assert 0 < searched < priced

    def test_pricing_corpus_is_searched(self, monkeypatch):
        def run():
            rng = np.random.default_rng(41)  # the corpus of TestGridFreePrice
            for _ in range(400):
                stackelberg_price(*_pricing_case(rng))

        priced, searched = self._priced_and_searched(monkeypatch, run)
        assert priced == 400 and searched > 0.6 * priced

    @pytest.mark.parametrize("rule", [PROPORTIONAL, EQUAL])
    def test_price_sensitive_family_is_searched(self, monkeypatch, rule):
        priced, searched = self._priced_and_searched(
            monkeypatch, lambda: check_incentive_compatibility(_price_sensitive(60, 3, rule)))
        assert searched > 0.9 * priced

    def test_eight_or_more_units_are_searched(self, monkeypatch):
        # the rows of TestIcSearchEqualsLoop.test_eight_or_more_units
        _, searched = self._priced_and_searched(
            monkeypatch,
            lambda: check_incentive_compatibility(_price_sensitive(3, 9, EQUAL, units=(8, 14))),
            units=8)
        assert searched > 500
