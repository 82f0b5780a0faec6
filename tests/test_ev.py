"""EV exchange: objectives, welfare optimum, iterative auction, hybrid."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridswap.errors import DomainError, InfeasibleError, InputError
from gridswap.ev import (
    ChargingEV,
    DischargingEV,
    HybridBuyer,
    HybridSeller,
    _Market,
    _marginal_bids,
    _project_feasible,
    _project_rows,
    discharge_cost,
    run_iterative_auction,
    satisfaction,
    simulate_trading,
    solve_social_welfare,
    welfare,
)

from oracles import (
    HybridScenario,
    bisect_scalar_root,
    compare_hybrid,
    ev_welfare_of,
    project_capped_sum_loop,
    project_feasible_loop,
)


def charger(cid="c", w=1.0, c_min=0.0, c_max=math.inf):
    return ChargingEV(cid, w=w, c_min=c_min, c_max=c_max)


def discharger(did="d", l1=0.1, l2=0.05, d_max=20.0):
    return DischargingEV(did, l1=l1, l2=l2, d_max=d_max)


class TestObjectives:
    def test_satisfaction_at_exact_minimum(self):
        ev = charger(w=2.0, c_min=5.0)
        assert satisfaction(ev, [5.0], eta=1.0) == pytest.approx(0.0)

    def test_satisfaction_direct_substitution(self):
        ev = charger(w=1.0, c_min=5.0)
        assert satisfaction(ev, [4.0, 6.0], eta=0.9) == pytest.approx(math.log(5.0))

    def test_satisfaction_domain_error(self):
        ev = charger(w=1.0, c_min=5.0)
        with pytest.raises(DomainError):
            satisfaction(ev, [8.0], eta=0.5)

    def test_discharge_cost_quadratic(self):
        assert discharge_cost(discharger(l1=1.0, l2=0.0), [2.0, 3.0]) == pytest.approx(13.0)

    def test_discharge_cost_linear(self):
        assert discharge_cost(discharger(l1=0.0, l2=1.0), [2.0, 3.0]) == pytest.approx(5.0)

    def test_discharge_cost_zero_activity(self):
        assert discharge_cost(discharger(), [0.0, 0.0]) == 0.0

    def test_discharge_cost_rejects_negative(self):
        with pytest.raises(InputError):
            discharge_cost(discharger(), [-1.0])

    def test_ev_validation(self):
        with pytest.raises(InputError):
            ChargingEV("x", w=0.0, c_min=0.0)
        with pytest.raises(InputError):
            ChargingEV("x", w=1.0, c_min=5.0, c_max=4.0)
        with pytest.raises(InputError):
            DischargingEV("x", l1=0.0, l2=0.0, d_max=5.0)


def _project_one(y, lo, hi):
    return _project_rows(np.array([y]), lo, hi)[0]


class TestProjection:
    def test_capped_sum_simple(self):
        x = _project_one(np.array([2.0, -1.0]), 0.0, 10.0)
        assert x == pytest.approx([2.0, 0.0])

    def test_capped_sum_hits_upper(self):
        x = _project_one(np.array([3.0, 3.0]), 0.0, 4.0)
        assert x.sum() == pytest.approx(4.0)
        assert x == pytest.approx([2.0, 2.0])

    def test_capped_sum_raises_to_lower(self):
        x = _project_one(np.array([0.0, 1.0]), 3.0, 10.0)
        assert x.sum() == pytest.approx(3.0)
        assert x == pytest.approx([1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.lists(st.floats(-8, 8, allow_nan=False), min_size=1, max_size=6),
        bounds=st.tuples(st.floats(0, 5), st.floats(0, 5)),
    )
    def test_capped_sum_feasible_and_idempotent(self, y, bounds):
        lo, hi = sorted(bounds)
        x = _project_one(np.array(y), lo, hi)
        assert np.all(x >= -1e-12)
        assert lo - 1e-9 <= x.sum() <= hi + 1e-9
        again = _project_one(x, lo, hi)
        assert np.allclose(x, again, atol=1e-9)

    def test_capped_sum_optimality_against_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = rng.normal(0, 3, size=4)
            lo, hi = sorted(rng.uniform(0, 6, size=2))
            x = _project_one(y, lo, hi)
            assert np.all(x >= -1e-12)
            assert lo - 1e-9 <= x.sum() <= hi + 1e-9
            dist = np.sum((x - y) ** 2)
            for _ in range(60):
                z = np.abs(rng.normal(0, 3, size=4))
                s = z.sum()
                if s > 0:
                    z *= rng.uniform(lo, hi) / s
                assert dist <= np.sum((z - y) ** 2) + 1e-9

    def test_feasible_projection_satisfies_constraints(self):
        rng = np.random.default_rng(7)
        row_caps = np.array([10.0, 8.0])
        col_lo = np.array([4.0, 3.0])
        col_hi = np.array([9.0, 7.0])
        for _ in range(50):
            y = rng.normal(0, 5, size=(2, 2))
            x = _project_feasible(y, row_caps, col_lo, col_hi)
            assert np.all(x >= -1e-9)
            assert np.all(x.sum(axis=1) <= row_caps + 1e-9)
            assert np.all(x.sum(axis=0) >= col_lo - 1e-8)
            assert np.all(x.sum(axis=0) <= col_hi + 1e-8)


# rows that drive the per-row scan into its bisection fallback: the first
# fails the sum check, on the second the scan finds no active-set size
_FALLBACK_ROWS = [
    ([546712986612446.94, -736454087001666.9, -162909947993052.78, -482119312679978.25],
     2.0155649322356464, 3.0328411356163945),
    ([-4.667496168798021e16, 2.355056117302252e16, 7.595195224783792e16,
      -1.6487873663509485e17, 2.543881165176173e16, 1.2246469675357323e17],
     0.0, 0.122453387466816),
]


def _random_population(rng, n):
    chargers = [charger(f"c{i}", rng.uniform(1, 3), rng.uniform(1, 5), rng.uniform(10, 20))
                for i in range(n)]
    dischargers = [discharger(f"d{j}", rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05),
                              rng.uniform(10, 20)) for j in range(n)]
    return chargers, dischargers


class TestProjectionMatchesLoop:
    """The batched projections reproduce the per-row loop bit for bit."""

    def test_rows_equal_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            m, n = rng.integers(1, 9), rng.integers(1, 25)
            y = rng.normal(0, 1, size=(m, n)) * 10.0 ** rng.uniform(-3, 17)
            lo = rng.uniform(0, 5, size=m) * (rng.random(m) < 0.7)
            hi = lo + rng.uniform(0, 5, size=m)
            hi[rng.random(m) < 0.2] = np.inf
            expected = [project_capped_sum_loop(y[k], lo[k], hi[k]) for k in range(m)]
            assert np.array_equal(_project_rows(y, lo, hi), np.array(expected))

    def test_rows_sum_in_1d_order_whatever_the_layout(self):
        # rows whose 1-D numpy sum is exactly hi while a left-to-right sum
        # exceeds it stay as they are, also when passed in column-major order
        rng = np.random.default_rng(4)
        rows = []
        while len(rows) < 5:
            y = rng.uniform(0, 1, size=16)
            if sum(y) > y.sum():
                rows.append(y)
        y = np.asfortranarray(rows)
        hi = np.array([row.sum() for row in rows])
        expected = [project_capped_sum_loop(row, 0.0, cap) for row, cap in zip(rows, hi)]
        assert np.array_equal(expected, rows)
        assert np.array_equal(_project_rows(y, 0.0, hi), expected)

    @pytest.mark.parametrize("row, lo, hi", _FALLBACK_ROWS)
    def test_fallback_row_alone(self, row, lo, hi):
        y = np.array(row)
        assert np.array_equal(_project_one(y, lo, hi), project_capped_sum_loop(y, lo, hi))

    @pytest.mark.parametrize("row, lo, hi", _FALLBACK_ROWS)
    def test_fallback_row_in_batch(self, row, lo, hi):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 3, size=(7, len(row)))
        y[4] = row
        lo_all = rng.uniform(0, 2, size=7)
        hi_all = lo_all + rng.uniform(0, 4, size=7)
        lo_all[4], hi_all[4] = lo, hi
        expected = [project_capped_sum_loop(y[k], lo_all[k], hi_all[k]) for k in range(7)]
        assert np.array_equal(_project_rows(y, lo_all, hi_all), np.array(expected))

    @pytest.mark.parametrize("capped", [True, False])
    def test_feasible_equals_loop(self, capped):
        rng = np.random.default_rng(11 if capped else 12)
        shapes = [(n, n) for n in range(1, 21)] + [tuple(rng.integers(1, 21, size=2))
                                                    for _ in range(20)]
        for n, m in shapes:
            y = rng.normal(0, 5, size=(n, m))
            row_caps = rng.uniform(5, 20, size=n)
            col_lo = rng.uniform(0, 5, size=m) * min(1.0, row_caps.sum() / (5 * m))
            col_hi = col_lo + rng.uniform(0, 10, size=m) if capped else np.full(m, np.inf)
            got = _project_feasible(y, row_caps, col_lo, col_hi)
            assert np.array_equal(got, project_feasible_loop(y, row_caps, col_lo, col_hi))
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_auction_equals_loop(self, n, monkeypatch):
        chargers, dischargers = _random_population(np.random.default_rng(n), n)
        alloc, result = run_iterative_auction(chargers, dischargers, eta=0.9)
        monkeypatch.setattr("gridswap.ev._project_feasible", project_feasible_loop)
        ref_alloc, ref = run_iterative_auction(chargers, dischargers, eta=0.9)
        assert np.array_equal(alloc.sent, ref_alloc.sent)
        assert result.trace.checks == ref.trace.checks
        assert result.trace.residual == ref.trace.residual


class TestSocialWelfare:
    def test_symmetric_instance_symmetric_solution(self):
        chargers = [charger("c1", w=2.0, c_min=5.0, c_max=14.0),
                    charger("c2", w=2.0, c_min=5.0, c_max=14.0)]
        dischargers = [discharger("d1", 0.05, 0.02, 15.0),
                       discharger("d2", 0.05, 0.02, 15.0)]
        alloc, _ = solve_social_welfare(chargers, dischargers, eta=0.9)
        assert alloc.sent[0, 0] == pytest.approx(alloc.sent[1, 1], abs=1e-5)
        assert alloc.sent[0, 1] == pytest.approx(alloc.sent[1, 0], abs=1e-5)

    def test_scalar_case_matches_stationarity_bisection(self):
        # single pair: w/(d+1) = 2*l1*d + l2 at the optimum
        chargers = [charger("c", w=1.0, c_min=0.0)]
        dischargers = [discharger("d", l1=0.1, l2=0.05, d_max=50.0)]
        alloc, best = solve_social_welfare(chargers, dischargers, eta=1.0)
        root = bisect_scalar_root(lambda d: 1.0 / (d + 1.0) - 0.2 * d - 0.05, 0.0, 50.0)
        assert alloc.sent[0, 0] == pytest.approx(root, abs=1e-4)
        assert best == pytest.approx(math.log(root + 1) - 0.1 * root**2 - 0.05 * root,
                                     abs=1e-8)

    def test_welfare_beats_random_feasible_allocations(self):
        rng = np.random.default_rng(11)
        chargers = [charger("c1", 1.8, 6.0, 15.0), charger("c2", 1.1, 5.0, 13.0)]
        dischargers = [discharger("d1", 0.03, 0.02, 18.0), discharger("d2", 0.05, 0.04, 12.0)]
        alloc, best = solve_social_welfare(chargers, dischargers, eta=0.9)
        from gridswap.ev import _polytope

        row_caps, col_lo, col_hi = _polytope(chargers, dischargers, 0.9)
        for _ in range(1000):
            d = _project_feasible(rng.uniform(0, 10, size=(2, 2)), row_caps, col_lo, col_hi)
            assert welfare(d, chargers, dischargers, 0.9) <= best + 1e-6

    def test_fixed_demand_splits_by_marginal_cost(self):
        # c_min == c_max pins column 0's sum at 9 / 0.9 = 10 sent kWh; costs
        # are separable per entry, so the sellers split it where 2 * l1 * d
        # meet, 0.2 * a = 0.4 * b, whatever the open column 1 takes
        chargers = [charger("c", 1.0, 9.0, 9.0), charger("c2", 1.0, 0.0, 5.0)]
        dischargers = [discharger("d1", 0.1, 0.0, 20.0), discharger("d2", 0.2, 0.0, 20.0)]
        alloc, _ = solve_social_welfare(chargers, dischargers, eta=0.9)
        assert alloc.sent[:, 0] == pytest.approx([20 / 3, 10 / 3], abs=1e-6)

    def test_monotone_in_willingness(self):
        chargers = [charger("c1", 1.0, 5.0, 16.0), charger("c2", 1.0, 5.0, 16.0)]
        dischargers = [discharger("d1", 0.02, 0.02, 15.0), discharger("d2", 0.03, 0.03, 15.0)]
        alloc, _ = solve_social_welfare(chargers, dischargers, eta=0.9)
        base = alloc.delivered_per_charger()[0]
        boosted = [charger("c1", 1.5, 5.0, 16.0), chargers[1]]
        alloc2, _ = solve_social_welfare(boosted, dischargers, eta=0.9)
        assert alloc2.delivered_per_charger()[0] >= base - 1e-6

    def test_energy_conservation(self):
        chargers = [charger("c1", 1.0, 4.0, 12.0)]
        dischargers = [discharger("d1", 0.05, 0.05, 10.0)]
        alloc, _ = solve_social_welfare(chargers, dischargers, eta=0.9)
        assert alloc.delivered_per_charger().sum() == pytest.approx(
            0.9 * alloc.sent_per_discharger().sum())

    def test_infeasible_names_constraint(self):
        chargers = [charger("c", 1.0, c_min=30.0)]
        dischargers = [discharger("d", d_max=10.0)]
        with pytest.raises(InfeasibleError, match="c_min"):
            solve_social_welfare(chargers, dischargers, eta=0.9)

    def test_oracle_welfare_helper_agrees(self):
        chargers = [charger("c1", 1.8, 6.0, 15.0)]
        dischargers = [discharger("d1", 0.03, 0.02, 18.0)]
        alloc, best = solve_social_welfare(chargers, dischargers, eta=0.9)
        assert ev_welfare_of(alloc.sent, chargers, dischargers, 0.9) == pytest.approx(best)


def is_individually_rational(chargers, dischargers, allocation, settlement,
                             tol: float = 1e-9) -> bool:
    """Needs-adjusted buyer surplus and seller profit both nonnegative."""
    price = settlement.price
    if price is None:
        return True
    d, eta = allocation.sent, allocation.eta
    delivered = allocation.delivered_per_charger()
    for i, c in enumerate(chargers):
        value = satisfaction(c, d[:, i], eta)
        discretionary = max(delivered[i] - c.c_min, 0.0)
        if value < price * discretionary - tol:
            return False
    for j, s in enumerate(dischargers):
        if settlement.seller_receipts[s.id] < discharge_cost(s, d[j, :]) - tol:
            return False
    return True


def apply_disconnection(chargers, dischargers, allocation, departing_id: str,
                        penalty_rate: float = 0.02):
    """Restart the auction (eta 0.9) without a departed vehicle.

    The deserter owes penalty_rate $/kWh on its previously allocated energy
    (delivered for chargers, sent for dischargers). Returns the remaining
    chargers and dischargers, the restarted auction's allocation and the penalty.
    """
    charger_ids = [c.id for c in chargers]
    discharger_ids = [s.id for s in dischargers]
    if departing_id in charger_ids:
        prior = float(allocation.delivered_per_charger()[charger_ids.index(departing_id)])
        chargers = [c for c in chargers if c.id != departing_id]
    elif departing_id in discharger_ids:
        prior = float(allocation.sent_per_discharger()[discharger_ids.index(departing_id)])
        dischargers = [s for s in dischargers if s.id != departing_id]
    else:
        raise InputError(f"agent {departing_id!r} did not participate")
    rerun, _ = run_iterative_auction(chargers, dischargers, eta=0.9)
    return chargers, dischargers, rerun, penalty_rate * prior


class TestIterativeAuction:
    def _instance(self):
        chargers = [charger("c1", 1.9, 6.0, 15.0), charger("c2", 1.4, 5.0, 14.0)]
        dischargers = [discharger("d1", 0.03, 0.02, 16.0), discharger("d2", 0.045, 0.03, 13.0)]
        return chargers, dischargers

    def test_symmetric_prices_for_symmetric_agents(self):
        chargers = [charger("c1", 1.5, 5.0, 14.0), charger("c2", 1.5, 5.0, 14.0)]
        dischargers = [discharger("d1", 0.04, 0.02, 15.0), discharger("d2", 0.04, 0.02, 15.0)]
        alloc, result = run_iterative_auction(chargers, dischargers, eta=0.9)
        assert result.trace.converged
        final_bids = _marginal_bids(chargers, alloc.delivered_per_charger())
        assert final_bids[0] == pytest.approx(final_bids[1], abs=1e-6)

    def test_converges_to_solver_welfare(self):
        chargers, dischargers = self._instance()
        eps = 1e-4
        alloc, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=eps)
        assert result.trace.converged
        _, best = solve_social_welfare(chargers, dischargers, eta=0.9)
        reached = welfare(alloc.sent, chargers, dischargers, 0.9)
        assert abs(best - reached) <= 10 * eps

    def test_iteration_cap_flags_nonconverged(self):
        chargers, dischargers = self._instance()
        _, result = run_iterative_auction(chargers, dischargers, eta=0.9,
                                          eps=1e-4, max_iter=1)
        assert not result.trace.converged
        assert result.trace.iterations == 1
        assert [row[0] for row in result.trace.checks] == [1]

    def test_no_price_step_rejected(self):
        with pytest.raises(InputError, match="max_iter"):
            run_iterative_auction(*self._instance(), eta=0.9, max_iter=0)

    def test_weak_budget_balance_and_ir(self):
        chargers, dischargers = self._instance()
        alloc, result = run_iterative_auction(chargers, dischargers, eta=0.9)
        s = result.settlement
        assert math.fsum(s.buyer_payments.values()) - math.fsum(s.seller_receipts.values()) >= -1e-9
        assert is_individually_rational(chargers, dischargers, alloc, s)

    def test_welfare_history_recorded(self):
        chargers, dischargers = self._instance()
        eps = 1e-4
        _, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=eps)
        checks = result.trace.checks
        # one row per certificate: every tenth step, and the last
        assert [row[0] for row in checks] == list(
            range(10, result.trace.iterations + 1, 10))
        assert all(gap >= -1e-9 for _, _, gap, _ in checks)
        assert result.trace.converged and checks[-1][2] <= eps


class TestCertifiedGap:
    """The auction's certificate holds against SLSQP at scale, l1 = 0 sellers included."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n, linear", [(10, 0), (20, 0), (5, 2), (20, 10)])
    def test_gap_within_eps_of_solver(self, n, linear, seed):
        chargers, dischargers = _random_population(np.random.default_rng(seed), n)
        for j in range(linear):
            d = dischargers[j]
            dischargers[j] = DischargingEV(d.id, 0.0, d.l2, d.d_max)
        eps = 1e-6
        alloc, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=eps)
        assert result.trace.converged
        _, reached, gap, _ = result.trace.checks[-1]
        assert -1e-9 <= gap <= eps and result.trace.residual <= 1e-9
        assert reached == welfare(alloc.sent, chargers, dischargers, 0.9)
        _, best = solve_social_welfare(chargers, dischargers, eta=0.9)
        assert abs(best - reached) <= 10 * eps

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        chargers=st.lists(st.tuples(st.floats(0.5, 3), st.floats(0, 5), st.floats(0, 15),
                                    st.booleans()), min_size=1, max_size=3),
        sellers=st.lists(st.tuples(st.sampled_from([0.0, 0.005, 0.05]), st.floats(0.001, 0.1),
                                   st.floats(5, 20)), min_size=1, max_size=3),
        prices=st.lists(st.floats(1e-6, 5), min_size=3, max_size=3),
    )
    def test_dual_bounds_the_optimum(self, chargers, sellers, prices):
        chargers = [charger(f"c{i}", w, c_min, math.inf if open_ended else c_min + width)
                    for i, (w, c_min, width, open_ended) in enumerate(chargers)]
        dischargers = [discharger(f"d{j}", l1, l2, d_max)
                       for j, (l1, l2, d_max) in enumerate(sellers)]
        assume(0.9 * sum(d.d_max for d in dischargers)
                          >= sum(c.c_min for c in chargers) + 1e-6)
        _, best = solve_social_welfare(chargers, dischargers, eta=0.9)
        p = np.array(prices[:len(chargers)])
        assert _Market(chargers, dischargers, 0.9).dual(p) >= best - 1e-9

    def test_frozen_prices_move_the_centre(self):
        # here the prices stop moving at a proximal gap of 7.7e-10 while the
        # certified gap is 2.5e-9; moving the centre there lets the auction finish
        chargers, dischargers = _random_population(np.random.default_rng([1, 20, 20]), 20)
        for j in range(10):
            d = dischargers[j]
            dischargers[j] = DischargingEV(d.id, 0.0, d.l2, d.d_max)
        _, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=1e-9)
        assert result.trace.converged and result.trace.checks[-1][2] <= 1e-9

    def test_unreachable_eps_stops_once_nothing_moves(self):
        chargers, dischargers = _random_population(np.random.default_rng(2), 2)
        _, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=1e-300)
        assert not result.trace.converged
        assert result.trace.iterations < 500
        assert 1e-300 < result.trace.checks[-1][2] < 1e-12

    def test_converged_needs_a_feasible_allocation(self, monkeypatch):
        # demand pushes the small seller past its d_max until Dykstra finishes
        chargers = [charger("c1", 1.0, 8.0, 20.0), charger("c2", 1.0, 8.0, 20.0)]
        dischargers = [discharger("d1", 0.5, 0.02, 16.0), discharger("d2", 0.5, 0.02, 4.2)]
        # so loose an eps that the first certificate passes on its gap alone
        _, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=1e3, max_iter=1)
        assert result.trace.converged and result.trace.residual <= 1e-9
        # _project_feasible stops silently at _DYKSTRA_CYCLES; the certificate
        # must see the residual and withhold `converged`
        monkeypatch.setattr("gridswap.ev._DYKSTRA_CYCLES", 1)
        _, result = run_iterative_auction(chargers, dischargers, eta=0.9, eps=1e3, max_iter=1)
        assert result.trace.residual > 1.0 and not result.trace.converged


class TestDisconnection:
    def _auction(self):
        chargers = [charger("c1", 1.9, 6.0, 15.0), charger("c2", 1.4, 5.0, 14.0)]
        dischargers = [discharger("d1", 0.03, 0.02, 16.0), discharger("d2", 0.045, 0.03, 13.0)]
        return chargers, dischargers, run_iterative_auction(chargers, dischargers, eta=0.9)[0]

    def test_penalty_is_rate_times_allocation(self):
        chargers, dischargers, alloc = self._auction()
        amount = float(alloc.sent_per_discharger()[0])
        *_, penalty = apply_disconnection(chargers, dischargers, alloc, "d1", penalty_rate=0.02)
        assert penalty == pytest.approx(0.02 * amount)

    def test_zero_allocation_zero_penalty(self):
        chargers = [charger("c1", 1.5, 0.0, 6.0)]
        dischargers = [discharger("d1", 0.01, 0.01, 30.0),
                       DischargingEV("dx", 0.0, 5.0, 10.0)]  # priced out
        alloc, _ = run_iterative_auction(chargers, dischargers, eta=0.9)
        assert alloc.sent_per_discharger()[1] == pytest.approx(0.0, abs=1e-6)
        *_, penalty = apply_disconnection(chargers, dischargers, alloc, "dx", penalty_rate=0.02)
        assert penalty == pytest.approx(0.0, abs=1e-7)

    def test_rerun_equals_fresh_auction(self):
        chargers, dischargers, alloc = self._auction()
        _, _, rerun, _ = apply_disconnection(chargers, dischargers, alloc, "d2")
        fresh, _ = run_iterative_auction(chargers, [d for d in dischargers if d.id != "d2"],
                                         eta=0.9)
        assert np.allclose(rerun.sent, fresh.sent, atol=1e-12)

    def test_departing_charger_pays_on_delivered_energy(self):
        chargers, dischargers, alloc = self._auction()
        delivered = float(alloc.delivered_per_charger()[0])
        remaining, _, _, penalty = apply_disconnection(chargers, dischargers, alloc, "c1",
                                                       penalty_rate=0.05)
        assert penalty == pytest.approx(0.05 * delivered)
        assert [c.id for c in remaining] == ["c2"]

    def test_unknown_agent_rejected(self):
        with pytest.raises(InputError):
            apply_disconnection(*self._auction(), "ghost")


class TestHybridComparison:
    def _scenario(self):
        buyers = (HybridBuyer("b1", 9.0), HybridBuyer("b2", 9.0))
        sellers = (HybridSeller("s1", 20.0, 0.15), HybridSeller("s2", 20.0, 0.15))
        return HybridScenario(buyers, sellers)

    def test_cheap_grid_dominates_buying(self):
        sc = self._scenario()
        row = compare_hybrid(sc, grid_sell_out_price=0.05, grid_buy_back_price=0.01)
        assert row["hybrid"]["avg_buying_price"] == pytest.approx(0.05)
        # every delivered kWh came from the grid
        assert all(v == 0.0 for v in row["hybrid"]["seller_receipts"].values())

    def test_expensive_grid_matches_p2p_prices(self):
        sc = self._scenario()
        row = compare_hybrid(sc, grid_sell_out_price=0.90, grid_buy_back_price=0.01)
        assert row["hybrid"]["avg_buying_price"] == pytest.approx(
            row["p2p"]["avg_buying_price"])

    def test_transmission_ratio_seven_ninths(self):
        sc = self._scenario()
        row = compare_hybrid(sc, grid_sell_out_price=0.90, grid_buy_back_price=0.01)
        p2p_rate = row["p2p"]["transmitted_kwh"] / row["p2p"]["delivered_kwh"]
        hybrid_rate = row["hybrid"]["transmitted_kwh"] / row["hybrid"]["delivered_kwh"]
        assert p2p_rate / hybrid_rate == pytest.approx(7.0 / 9.0, abs=1e-12)

    def test_sellers_divert_to_generous_grid(self):
        sc = self._scenario()
        out = simulate_trading(sc.buyers, sc.sellers, eta=0.7,
                               grid_sell_price=0.50, grid_buy_price=0.40)
        assert out["avg_selling_price"] == pytest.approx(0.40)
        assert out["avg_buying_price"] == pytest.approx(0.50)

    def test_p2p_supply_shortage_reported(self):
        buyers = (HybridBuyer("b", 100.0),)
        sellers = (HybridSeller("s", 10.0, 0.10),)
        out = simulate_trading(buyers, sellers, eta=0.9)
        assert out["unserved_kwh"] == pytest.approx(100.0 - 9.0)


class TestPopulationFile:
    def test_round_trip(self, tmp_path):
        from gridswap.ev import read_ev_population_csv

        path = tmp_path / "pop.csv"
        path.write_text(
            "id,role,w,l1,l2,c_min,c_max,d_max\n"
            "c1,charging,2.0,,,5,14,\n"
            "c2,charging,1.1,,,6,,\n"          # open-ended maximum demand
            "d1,discharging,,0.04,0.02,,,16\n"
        )
        chargers, dischargers = read_ev_population_csv(path, {})
        assert [c.id for c in chargers] == ["c1", "c2"]
        assert chargers[1].c_max == math.inf
        assert dischargers[0].d_max == 16.0

    def test_unknown_role_rejected(self, tmp_path):
        from gridswap.ev import read_ev_population_csv

        path = tmp_path / "pop.csv"
        path.write_text("id,role,w,l1,l2,c_min,c_max,d_max\nx,parked,1,,,,,\n")
        with pytest.raises(InputError, match="parked"):
            read_ev_population_csv(path, {})

    def test_missing_field_names_line(self, tmp_path):
        from gridswap.ev import read_ev_population_csv

        path = tmp_path / "pop.csv"
        path.write_text("id,role,w,l1,l2,c_min,c_max,d_max\nc1,charging,,,,5,14,\n")
        with pytest.raises(InputError, match=":2"):
            read_ev_population_csv(path, {})
