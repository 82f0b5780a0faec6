"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line so the
whole gate can be read off `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import textwrap
import time

import numpy as np
import pytest

from gridswap import coalition as co
from gridswap import ev as evx
from gridswap import games
from gridswap import market as mk
from gridswap import storage as st
from gridswap.cli import main as cli_main

from instances import balanced_instance, random_instance, settle_book
from oracles import (
    HybridScenario,
    compare_hybrid,
    best_response_iteration,
    ev_grid_oracle_2x2,
    is_superadditive_enumeration,
    max_crossing_volume,
)

TARIFF = mk.Tariff(p_wp=0.05, p_rp=0.10)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance criterion {number}: {label} {detail}".rstrip())
    assert ok, f"criterion {number} ({label}) failed: {detail}"


# -- criterion 1 ------------------------------------------------------------


def random_book(rng):
    """Half-kWh quantities and dyadic prices keep all cash flows exact.

    Returns each side as (agent_id, quantity, limit_price) orders.
    """
    nb, ns = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    buys = [
        (f"B{k}", int(rng.integers(1, 11)) * 0.5, int(rng.integers(1, 65)) / 128.0)
        for k in range(nb)
    ]
    sells = [
        (f"S{k}", int(rng.integers(1, 11)) * 0.5, int(rng.integers(1, 65)) / 128.0)
        for k in range(ns)
    ]
    return buys, sells


def column_book(orders):
    ids, quantities, prices = zip(*orders) if orders else ((), (), ())
    return mk.Book(ids, quantities, prices)


def test_criterion_1_double_auction_correctness():
    started = time.time()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        buys, sells = random_book(rng)
        clearing = mk.clear_double_auction(column_book(buys), column_book(sells))

        oracle = max_crossing_volume(buys, sells, unit=0.5)
        assert clearing.matched_volume == pytest.approx(oracle, abs=1e-12)

        bid_of = {aid: price for aid, _, price in buys}
        ask_of = {aid: price for aid, _, price in sells}
        for buyer, seller in zip(clearing.buyer_ids, clearing.seller_ids):
            assert bid_of[buyer] >= clearing.clearing_price >= ask_of[seller]

        settle = settle_book(buys, sells, TARIFF)
        # exact, dyadic cash
        assert sum(settle.p2p_paid.values()) == sum(settle.p2p_received.values())
    elapsed = time.time() - started
    report(1, "double-auction volume/IR/budget on 1000 books",
           elapsed < 10.0, f"({elapsed:.1f}s)")


# -- criterion 2 ------------------------------------------------------------


def draw_ev_instance(rng):
    """2x2 instance: demand minimum 5-10 kWh, maximum 12-18 kWh, supply
    10-20 kWh, all capped by 24 kWh batteries; grid-aligned bounds keep the
    lattice oracle sharp."""
    battery = 24.0
    cmin = np.round(rng.uniform(5.0, 10.0, 2) / 0.1) * 0.1
    cmax = np.array(
        [min(np.round(rng.uniform(max(12.0, cm + 3.5), 18.0) / 0.1) * 0.1, battery)
         for cm in cmin]
    )
    d1 = np.round(rng.uniform(10.0, 20.0) / 0.1) * 0.1
    lo2 = max(10.0, (cmin.sum() + 1.0) / 0.9 - d1)
    d2 = min(np.round(rng.uniform(lo2, 20.0) / 0.1) * 0.1, battery)
    chargers = [
        evx.ChargingEV(f"c{i}", w=float(rng.uniform(1.5, 3.0)),
                       c_min=float(cmin[i]), c_max=float(cmax[i]))
        for i in range(2)
    ]
    dischargers = [
        evx.DischargingEV(f"d{j}", l1=float(rng.uniform(0.03, 0.09)),
                          l2=float(rng.uniform(0.01, 0.05)), d_max=float(d))
        for j, d in enumerate([d1, d2])
    ]
    return chargers, dischargers


def test_criterion_2_ev_welfare_optimum():
    started = time.time()
    rng = np.random.default_rng(20260808)
    eps = 1e-4
    converged = 0
    worst_oracle = worst_auction = 0.0
    for _ in range(200):
        chargers, dischargers = draw_ev_instance(rng)
        alloc, best = evx.solve_social_welfare(chargers, dischargers, eta=0.9)
        coarse, refined = ev_grid_oracle_2x2(chargers, dischargers, eta=0.9)
        assert best >= coarse - 1e-3  # never loses to the lattice
        worst_oracle = max(worst_oracle, abs(best - refined))
        assert abs(best - refined) <= 1e-3

        alloc2, result = evx.run_iterative_auction(
            chargers, dischargers, eta=0.9, eps=eps, max_iter=500
        )
        if result.trace.converged:
            converged += 1
            gap = abs(best - evx.welfare(alloc2.sent, chargers, dischargers, 0.9))
            worst_auction = max(worst_auction, gap)
            assert gap <= 10 * eps
    elapsed = time.time() - started
    ok = converged >= 190 and elapsed < 60.0
    report(2, "EV welfare vs grid oracle + auction convergence", ok,
           f"(converged {converged}/200, oracle gap {worst_oracle:.1e}, "
           f"auction gap {worst_auction:.1e}, {elapsed:.1f}s)")


# -- criterion 3 ------------------------------------------------------------


def test_criterion_3_transmission_efficiency_trend():
    buyers = tuple(evx.HybridBuyer(f"b{k}", 9.0) for k in range(3))
    sellers = tuple(evx.HybridSeller(f"s{k}", 25.0, 0.15) for k in range(3))
    scenario = HybridScenario(buyers, sellers)  # eta 0.9 vs 0.7

    # grid priced above all asks: identical buying price, 7:9 energy ratio
    row = compare_hybrid(scenario, grid_sell_out_price=0.90, grid_buy_back_price=0.01)
    p2p, hybrid = row["p2p"], row["hybrid"]
    assert p2p["delivered_kwh"] == pytest.approx(hybrid["delivered_kwh"])
    ratio = (p2p["transmitted_kwh"] / p2p["delivered_kwh"]) / (
        hybrid["transmitted_kwh"] / hybrid["delivered_kwh"]
    )
    assert ratio == pytest.approx(7.0 / 9.0, abs=1e-9)
    assert hybrid["avg_buying_price"] == pytest.approx(p2p["avg_buying_price"], abs=1e-12)

    # grid priced below all asks: hybrid buyers do at least as well
    cheap = compare_hybrid(scenario, grid_sell_out_price=0.05, grid_buy_back_price=0.01)
    assert cheap["hybrid"]["avg_buying_price"] <= cheap["p2p"]["avg_buying_price"] + 1e-12
    assert cheap["hybrid"]["avg_buying_price"] == pytest.approx(0.05)

    report(3, "transmission-efficiency 7/9 ratio and hybrid price trends", True)


# -- criterion 4 ------------------------------------------------------------


def test_criterion_4_shapley_axioms_and_core():
    started = time.time()

    # axioms at N = 10: efficiency, symmetry, dummy to 1e-9
    rng = np.random.default_rng(44)
    for _ in range(20):
        base = [
            co.Customer(f"s{k}", co.SUPPLIER, float(rng.uniform(0, 20)))
            for k in range(4)
        ] + [
            co.Customer(f"u{k}", co.USER, -float(rng.uniform(0, 15)))
            for k in range(4)
        ]
        twin_value = float(rng.uniform(0, 10))
        base += [
            co.Customer("twin_a", co.SUPPLIER, twin_value),
            co.Customer("twin_b", co.SUPPLIER, twin_value),
        ]
        base[0] = co.Customer(base[0].id, co.SUPPLIER, 0.0)  # dummy
        inst = co.CoalitionInstance(tuple(base), TARIFF)
        alloc = co.shapley_exact(inst)
        grand = co.coalition_value(inst.customers, TARIFF)
        assert abs(alloc.total() - grand) < 1e-9
        assert abs(alloc.payoffs["twin_a"] - alloc.payoffs["twin_b"]) < 1e-9
        assert abs(alloc.payoffs[base[0].id]) < 1e-9

    # Monte-Carlo accuracy: 50k samples within max(2% relative, 0.01 absolute)
    rng = np.random.default_rng(45)
    mc_worst = 0.0
    for trial in range(3):
        inst = balanced_instance(rng, 4, 4, TARIFF)
        exact = co.shapley_exact(inst)
        estimate = co.shapley_monte_carlo(inst, 50_000, seed=500 + trial)
        for cid, value in exact.payoffs.items():
            tol = max(0.01, 0.02 * abs(value))
            mc_worst = max(mc_worst, abs(estimate.payoffs[cid] - value) / tol)
            assert abs(estimate.payoffs[cid] - value) <= tol

    # exact Shapley sits in the core on 500 balanced seeded instances
    rng = np.random.default_rng(46)
    for _ in range(500):
        inst = balanced_instance(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), TARIFF
        )
        alloc = co.shapley_exact(inst)
        assert alloc.total() == pytest.approx(co.coalition_value(inst.customers, TARIFF), abs=1e-9)
        shortfall, blocking = co.core_shortfall(alloc, inst)
        assert blocking is None, (blocking, shortfall)

    # superadditivity, exhaustively over all disjoint pairs, N <= 8
    rng = np.random.default_rng(47)
    for _ in range(200):
        inst = random_instance(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), TARIFF
        )
        ok, pair = is_superadditive_enumeration(inst)
        assert ok, pair

    elapsed = time.time() - started
    report(4, "Shapley axioms, MC accuracy, core on balanced instances,"
              " superadditivity", elapsed < 120.0,
           f"(mc worst {mc_worst:.2f} of tolerance, {elapsed:.1f}s)")


# -- criterion 5 ------------------------------------------------------------


def test_criterion_5_coalition_price_band_and_supplier_sweep():
    rng = np.random.default_rng(55)
    for _ in range(300):
        inst = random_instance(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), TARIFF
        )
        alloc = co.shapley_exact(inst)
        for row in co.implied_p2p_prices(inst, alloc):
            assert row.within_band, (row.customer_id, row.price)
        fit_total = math.fsum(co.coalition_value((c,), TARIFF) for c in inst.customers)
        assert alloc.total() >= fit_total - 1e-9

    rows = co.supplier_count_sweep(
        seed=11, supplier_counts=range(2, 41, 2), n_users=5,
        tariff=mk.Tariff(0.05, 0.30), samples=60_000,
    )
    cross = next(
        i for i, r in enumerate(rows) if r["total_supply"] >= r["total_demand"]
    )
    witness = [r["witness_supplier_payoff"] for r in rows]
    tail = witness[cross:]
    # tolerance covers permutation-sampling noise, about 2.5 sigma at 60k samples
    drift = max(np.diff(tail)) if len(tail) > 1 else 0.0
    ok = drift <= 2e-3
    report(5, "price band, FiT dominance, supplier revenue decline", ok,
           f"(max tail increase {drift:.1e})")


# -- criterion 6 ------------------------------------------------------------


def storage_family(rng):
    """Requirement-dominant storage-sharing family.

    One SFC carries nearly all demand (a second, negligible one sets the
    Vickrey floor), reservations sit just under that floor so supply never
    exceeds demand there, and capacities are small enough that supply
    saturates well inside the swept requirement range.
    """
    bid_hi = float(rng.uniform(0.38, 0.42))
    bid_floor = float(rng.uniform(0.27, 0.29))
    rus = []
    for k in range(int(rng.integers(2, 5))):
        alpha = float(rng.uniform(0.0004, 0.0006))
        reservation = float(rng.uniform(bid_floor - 0.008, bid_floor - 0.004))
        capacity = float(rng.uniform(45.0, 60.0))
        rus.append(st.ResidentialUnit(f"ru{k}", capacity, reservation, alpha))
    requirement = float(rng.uniform(100.0, 500.0))
    sfcs = [
        st.SfcAgent("sfc_main", requirement - 1.0, bid_hi),
        st.SfcAgent("sfc_floor", 1.0, bid_floor),
    ]
    return rus, sfcs


def test_criterion_6_storage_auction():
    started = time.time()

    # price bounds on every seeded run
    rng = np.random.default_rng(66)
    for _ in range(100):
        rus, sfcs = storage_family(rng)
        out = st.run_storage_auction(rus, sfcs, rule=st.EQUAL)
        assert not out.empty
        cap = max(s.bid_price for s in sfcs)
        assert out.vickrey_price - 1e-12 <= out.auction_price <= cap + 1e-12

    # incentive compatibility: 21-point grid, 100 scenarios, no profit
    scenarios = st.make_ic_scenarios(100, seed=42)
    ic = st.check_incentive_compatibility(scenarios)
    assert ic.clean, (ic.profitable_deviations[:3], ic.ir_violations[:3])

    # requirement sweep: nondecreasing, then saturated
    rng = np.random.default_rng(67)
    totals = list(range(100, 601, 50))
    for _ in range(20):
        rus, sfcs = storage_family(rng)
        rows = st.requirement_sweep(rus, sfcs, totals, rule=st.EQUAL)
        utils = [r["avg_ru_utility"] for r in rows]
        diffs = np.diff(utils)
        assert np.all(diffs >= -1e-9), utils
        scale = max(abs(utils[-1]), 1e-9)
        assert abs(utils[-1] - utils[-2]) <= 1e-6 * scale, utils  # saturated

    # peer scheme beats equal distribution and feed-in tariff on every draw
    tariff = mk.Tariff(0.05, 0.30)
    rng = np.random.default_rng(68)
    for _ in range(100):
        rus, sfcs = storage_family(rng)
        out = st.run_storage_auction(rus, sfcs, rule=st.EQUAL)
        v = out.vickrey_price
        total_q = sum(s.requirement for s in sfcs)
        for r in rus:
            ed_share = min(total_q / len(rus), r.capacity)
            ed = (v - r.reservation_price) * ed_share - 0.5 * r.reluctance * ed_share**2
            fit_share = st.follower_best_response(r, tariff.p_wp)
            fit = ((tariff.p_wp - r.reservation_price) * fit_share
                   - 0.5 * r.reluctance * fit_share**2)
            p2p = out.ru_utilities[r.id]
            assert p2p >= ed - 1e-9
            assert p2p >= fit - 1e-9

    elapsed = time.time() - started
    report(6, "storage price bounds, IC, saturating sweep shape, ED/FiT dominance",
           elapsed < 180.0, f"({elapsed:.1f}s)")


# -- criterion 7 ------------------------------------------------------------


def test_criterion_7_reluctance_ordering():
    low = st.ResidentialUnit("low_alpha", 100.0, 0.08, 0.004)
    high = st.ResidentialUnit("high_alpha", 100.0, 0.08, 0.008)
    requirements = list(range(5, 121, 5))
    hi_wins = []
    for q in requirements:
        out = st.run_storage_auction(
            [low, high], [st.SfcAgent("f", float(q), 0.30)], rule=st.EQUAL
        )
        hi_wins.append(out.ru_utilities["high_alpha"] >= out.ru_utilities["low_alpha"] - 1e-12)
    ok = (
        hi_wins[0]
        and not hi_wins[-1]
        and any(a and not b for a, b in zip(hi_wins, hi_wins[1:]))
    )
    report(7, "reluctance ordering flips across the requirement sweep", ok,
           f"(higher-alpha wins at {requirements[0]} kWh, loses at {requirements[-1]} kWh)")


# -- criterion 8 ------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    series = tmp_path / "pro.csv"
    series.write_text(
        "slot_index,load_kwh,gen_kwh\n" + "".join(f"{k},0.4,1.1\n" for k in range(4))
    )
    series2 = tmp_path / "con.csv"
    series2.write_text(
        "slot_index,load_kwh,gen_kwh\n" + "".join(f"{k},0.9,0.0\n" for k in range(4))
    )
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        textwrap.dedent(
            """
            mechanism = double_auction
            horizon = 4
            seed = 9
            agent = pro1 prosumer pro.csv
            agent = con1 consumer con.csv
            """
        )
    )
    # the supplier_count sweep reads a coalition config; this one shares the series
    coalition_cfg = tmp_path / "coalition.cfg"
    coalition_cfg.write_text(cfg.read_text().replace("double_auction", "coalition"))
    orders = tmp_path / "orders.csv"
    orders.write_text(
        "agent_id,side,quantity,limit_price\nB1,buy,3,0.25\nB2,buy,3,0.15\nS1,sell,4,0.10\n"
    )
    pop = tmp_path / "pop.csv"
    pop.write_text(
        "id,role,w,l1,l2,c_min,c_max,d_max\n"
        "c1,charging,1.9,,,6,15,\nc2,charging,1.4,,,5,14,\n"
        "d1,discharging,,0.04,0.02,,,16\nd2,discharging,,0.05,0.03,,,13\n"
    )
    inst = tmp_path / "instance.csv"
    inst.write_text("id,role,net_kwh\ns1,supplier,10\nu1,user,-8\n")
    rus = tmp_path / "rus.csv"
    rus.write_text("id,capacity,reservation_price,reluctance\nr1,60,0.10,0.002\nr2,50,0.12,0.003\n")
    sfcs = tmp_path / "sfcs.csv"
    sfcs.write_text("id,requirement,bid_price\na,120,0.35\nb,80,0.28\n")
    game = tmp_path / "game.csv"
    game.write_text(
        "player,s0,s1,utility\n0,0,0,2\n0,0,1,0\n0,1,0,0\n0,1,1,1\n"
        "1,0,0,2\n1,0,1,0\n1,1,0,0\n1,1,1,1\n"
    )

    invocations = [
        ["run", "--config", str(cfg)],
        ["clear", "--orders", str(orders)],
        ["ev-auction", "--population", str(pop)],
        ["shapley", "--exact", "--instance", str(inst)],
        ["shapley", "--instance", str(inst), "--samples", "300", "--seed", "12"],
        ["storage-auction", "--rus", str(rus), "--sfcs", str(sfcs)],
        ["ic-check", "--trials", "3", "--seed", "2"],
        ["nash", "--game", str(game)],
        ["sweep", "--config", str(coalition_cfg), "--param", "supplier_count",
         "--values", "2,4"],
    ]
    for k, argv in enumerate(invocations):
        out = tmp_path / f"out{k}"
        full = argv + ["--out", str(out), "--quiet"]
        assert cli_main(full) == 0, argv
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        assert cli_main(full) == 0, argv
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second, f"{argv[0]} output changed between runs"
    report(8, "byte-identical reruns across every CLI subcommand", True)


# -- criterion 9 ------------------------------------------------------------


def test_criterion_9_game_kit_oracle_agreement():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        players = int(rng.integers(2, 4))
        strategies = int(rng.integers(2, 6))
        shape = (players,) + (strategies,) * players
        game = games.FiniteGame(rng.random(shape))

        nash_set = set(games.find_pure_nash(game))
        for profile in itertools.product(range(strategies), repeat=players):
            assert games.is_nash(game, profile)[0] == (profile in nash_set)
            checked += 1

        start = tuple(int(x) for x in rng.integers(0, strategies, players))
        profile, converged = best_response_iteration(game, start, max_rounds=60)
        if converged:
            assert games.is_nash(game, profile)[0]
    report(9, "is_nash / find_pure_nash / best-response agreement", True,
           f"({checked} profiles cross-checked)")
