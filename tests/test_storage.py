"""Storage-sharing auction: determination, pricing, allocation, incentives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from oracles import stackelberg_price_grid

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
    supply_at,
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


class TestGridFreePrice:
    """stackelberg_price returns exactly the full-grid search's price."""

    def test_equals_grid_oracle_random(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            args = _pricing_case(rng)
            assert stackelberg_price(*args) == stackelberg_price_grid(*args), args

    def test_equals_grid_oracle_on_ic_check_calls(self, monkeypatch):
        calls = []

        def record(*args):
            calls.append(args)
            return stackelberg_price(*args)

        monkeypatch.setattr(storage, "stackelberg_price", record)
        assert check_incentive_compatibility(make_ic_scenarios(20, 1)).clean
        assert len(calls) > 3000
        for args in calls:
            assert stackelberg_price(*args) == stackelberg_price_grid(*args), args

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


class TestRequirementSweep:
    def test_rows_cover_requested_totals(self):
        rus = [ru("r1", 100, 0.26, 0.0005), ru("r2", 100, 0.265, 0.0004)]
        sfcs = [sfc("a", 100, 0.40), sfc("b", 100, 0.28)]
        rows = requirement_sweep(rus, sfcs, [100, 200, 300], rule=EQUAL)
        assert [r["total_requirement"] for r in rows] == [100.0, 200.0, 300.0]
        prices = [r["auction_price"] for r in rows]
        assert all(p is not None for p in prices)
        assert prices == sorted(prices)


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
