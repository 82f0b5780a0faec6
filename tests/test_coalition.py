"""Coalition game: value function, Shapley division, core membership."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridswap import coalition
from gridswap.coalition import (
    Customer,
    CoalitionInstance,
    PayoffAllocation,
    coalition_value,
    fit_payoff,
    implied_p2p_prices,
    in_core,
    is_superadditive,
    revenue_vs_fit,
    shapley_exact,
    shapley_monte_carlo,
)
from gridswap.errors import InputError, SizeError
from gridswap.market import Tariff

from instances import balanced_instance, competitive_allocation, random_instance
from oracles import (
    in_core_enumeration,
    is_superadditive_enumeration,
    shapley_enumeration,
    shapley_exact_fraction,
    shapley_exact_loop,
    shapley_split_reference,
)

T = Tariff(p_wp=0.05, p_rp=0.10)


def supplier(cid, kwh):
    return Customer(cid, "supplier", kwh)


def user(cid, kwh):
    return Customer(cid, "user", -abs(kwh))


def from_nets(nets, tariff=T):
    return CoalitionInstance(
        tuple(Customer(f"c{k}", "supplier" if e >= 0 else "user", float(e))
              for k, e in enumerate(nets)),
        tariff,
    )


def unsafe_tariff(p_wp, p_rp):
    """Tariff bypassing validation; only for injecting invalid prices in tests."""
    t = object.__new__(Tariff)
    object.__setattr__(t, "p_wp", p_wp)
    object.__setattr__(t, "p_rp", p_rp)
    return t


class TestValueFunction:
    def test_pure_surplus_at_wholesale(self):
        assert coalition_value([supplier("s", 10)], T) == pytest.approx(0.50)

    def test_pure_deficiency_at_retail(self):
        assert coalition_value([user("u", 10)], T) == pytest.approx(-1.00)

    def test_internal_trading_gain(self):
        both = coalition_value([supplier("s", 10), user("u", 10)], T)
        assert both == pytest.approx(0.0)
        separate = coalition_value([supplier("s", 10)], T) + coalition_value([user("u", 10)], T)
        assert both >= separate
        assert separate == pytest.approx(-0.50)

    def test_empty_set_is_zero(self):
        assert coalition_value([], T) == 0.0

    def test_customer_role_sign_enforced(self):
        with pytest.raises(InputError):
            Customer("x", "supplier", -1.0)
        with pytest.raises(InputError):
            Customer("x", "user", 1.0)


class TestSuperadditivity:
    def test_random_instances_are_superadditive(self):
        rng = np.random.default_rng(5)
        for k in range(40):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), T)
            ok, pair = is_superadditive(inst)
            assert ok, pair

    @settings(max_examples=150, deadline=None)
    @given(
        nets=st.lists(
            st.floats(min_value=-15, max_value=20, allow_nan=False), min_size=2, max_size=6
        ),
        split=st.integers(min_value=1, max_value=5),
    )
    def test_merging_any_disjoint_pair_never_loses(self, nets, split):
        customers = [
            Customer(f"c{k}", "supplier" if e >= 0 else "user", e)
            for k, e in enumerate(nets)
        ]
        cut = min(split, len(customers) - 1)
        left, right = customers[:cut], customers[cut:]
        merged = coalition_value(left + right, T)
        assert merged >= coalition_value(left, T) + coalition_value(right, T) - 1e-9

    def test_inverted_tariff_violates(self):
        # p_rp < p_wp injected through the unsafe path: a mixed pair now loses
        bad = unsafe_tariff(0.10, 0.05)
        inst = CoalitionInstance((supplier("s", 10), user("u", 10)), bad)
        ok, pair = is_superadditive(inst)
        assert not ok
        assert set(pair[0]) | set(pair[1]) == {"s", "u"}

    def test_single_customer_vacuous(self):
        ok, pair = is_superadditive(CoalitionInstance((supplier("s", 3),), T))
        assert ok and pair is None

    def test_closed_form_at_n_200(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 100, 100, T)
        assert is_superadditive(inst) == (True, None)
        inverted = CoalitionInstance(inst.customers, unsafe_tariff(0.10, 0.05))
        assert is_superadditive(inverted) == (False, (("s0",), ("u0",)))

    def test_closed_form_at_large_nets(self):
        # absolute 1e-12 rounding at thousands of kWh once read as a violation
        inst = from_nets([7038.9, 3082.6, 3718.8, -7653.1, -4952.0, -7839.2], Tariff(0.05, 0.30))
        assert is_superadditive(inst) == (True, None)

    @pytest.mark.parametrize(
        "tariff",
        [T, Tariff(0.05, 0.30), Tariff(0.0, 0.01), unsafe_tariff(0.10, 0.05),
         unsafe_tariff(0.30, 0.0)],
    )
    def test_closed_form_agrees_with_enumeration(self, tariff):
        rng = np.random.default_rng(31)
        instances = [from_nets([5.0, 0.0, -2.0], tariff), from_nets([0.0, 0.0], tariff)]
        while len(instances) < 80:
            n_s, n_u = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            if n_s + n_u:
                instances.append(random_instance(rng, n_s, n_u, tariff))
        for inst in instances:
            ok, pair = is_superadditive(inst)
            assert ok == is_superadditive_enumeration(inst)[0]
            if not ok:
                by_id = {c.id: c for c in inst.customers}
                left, right = ([by_id[i] for i in ids] for ids in pair)
                merged = coalition_value(left + right, tariff)
                assert merged < coalition_value(left, tariff) + coalition_value(right, tariff)


class TestShapleyExact:
    def test_singleton(self):
        inst = CoalitionInstance((supplier("s", 10),), T)
        assert shapley_exact(inst).payoffs["s"] == pytest.approx(0.50)

    def test_two_identical_suppliers(self):
        inst = CoalitionInstance((supplier("a", 10), supplier("b", 10)), T)
        alloc = shapley_exact(inst)
        assert alloc.payoffs["a"] == pytest.approx(0.50)
        assert alloc.payoffs["b"] == pytest.approx(0.50)

    def test_mixed_pair_hand_enumeration(self):
        # orderings: s first gives (0.5, -0.4); u first gives (0.9, -0.8)
        inst = CoalitionInstance((supplier("s", 10), user("u", 8)), T)
        alloc = shapley_exact(inst)
        assert alloc.payoffs["s"] == pytest.approx(0.70)
        assert alloc.payoffs["u"] == pytest.approx(-0.60)
        assert alloc.total() == pytest.approx(coalition_value(inst.customers, T))

    def test_matches_permutation_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_instance(rng, 2, 2, T)
            by_id = {c.id: c for c in inst.customers}
            value_of = lambda s: coalition_value([by_id[i] for i in s], T)
            oracle = shapley_enumeration([c.id for c in inst.customers], value_of)
            alloc = shapley_exact(inst)
            for cid, expected in oracle.items():
                assert alloc.payoffs[cid] == pytest.approx(expected, abs=1e-12)

    def test_efficiency_symmetry_dummy(self):
        inst = CoalitionInstance(
            (supplier("a", 7.5), supplier("b", 7.5), supplier("z", 0.0), user("u", 9)), T
        )
        alloc = shapley_exact(inst)
        assert alloc.total() == pytest.approx(coalition_value(inst.customers, T), abs=1e-9)
        assert alloc.payoffs["a"] == pytest.approx(alloc.payoffs["b"], abs=1e-9)
        assert alloc.payoffs["z"] == pytest.approx(0.0, abs=1e-9)

    def test_size_guard(self):
        n = coalition._EXACT_LIMIT + 1
        inst = CoalitionInstance(tuple(supplier(f"s{k}", 1.0) for k in range(n)), T)
        with pytest.raises(SizeError):
            shapley_exact(inst)

    def test_equals_subset_loop_oracle(self):
        rng = np.random.default_rng(23)
        for k in range(1000):
            nets = rng.uniform(-15.0, 20.0, int(rng.integers(1, 11)))
            kind = k % 5
            if kind == 1:
                nets[rng.random(len(nets)) < 0.4] = 0.0
            elif kind == 2:
                nets[:] = nets[0]
            elif kind == 3:
                nets = np.abs(nets)
            elif kind == 4:
                nets = -np.abs(nets)
            assert_within_rounding(from_nets(nets))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        nets=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=-1e4, max_value=1e4)),
            min_size=1, max_size=10,
        )
    )
    def test_equals_subset_loop_oracle_hypothesis(self, nets):
        assert_within_rounding(from_nets(nets))


def assert_within_rounding(inst):
    """Within 4e-15 of p_rp * max|e| (plus 1e-320 for subnormals) of the exact payoffs."""
    exact = shapley_exact_fraction(inst)
    scale = inst.tariff.p_rp * max(abs(c.net_energy) for c in inst.customers)
    tol = Fraction(4e-15 * scale + 1e-320)
    got = shapley_exact(inst).payoffs
    assert got.keys() == exact.keys()
    for cid, v in exact.items():
        assert abs(Fraction(got[cid]) - v) <= tol, (cid, got[cid], float(v))


def assert_payoffs_close(got, want):
    """Equal to 1e-12 of the largest payoff."""
    tol = 1e-12 * max(abs(v) for v in want.values())
    assert got.keys() == want.keys()
    for cid, v in want.items():
        assert abs(got[cid] - v) <= tol, (cid, got[cid], v)


def seeded_nets(rng, n, kind):
    nets = rng.uniform(-15.0, 20.0, n)
    if kind == 1:
        nets[rng.random(n) < 0.4] = 0.0
    elif kind == 2:
        nets[:] = nets[0]
    return nets


class TestShapleySplit:
    """The two-halves kernel beyond the rational oracle's ten members."""

    @pytest.mark.parametrize("n", range(11, 17))
    def test_equals_enumerations(self, n):
        rng = np.random.default_rng(40 + n)
        for k in range(3):  # random, zero-net members, equal nets
            inst = from_nets(seeded_nets(rng, n, k))
            assert_payoffs_close(shapley_exact(inst).payoffs, shapley_exact_loop(inst))

    # magnitudes stay clear of the subnormal range, where payoffs carry
    # fewer than 53 bits and no relative tolerance holds
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        nets=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e4), st.floats(-1e4, -1e-6)),
            min_size=11, max_size=16,
        )
    )
    def test_equals_enumeration_hypothesis(self, nets):
        inst = from_nets(nets)
        assert_payoffs_close(shapley_exact(inst).payoffs, shapley_exact_loop(inst))

    @pytest.mark.parametrize("n", range(4, coalition._EXACT_LIMIT + 1))
    def test_axioms_above_enumeration(self, n):
        rng = np.random.default_rng(n)
        nets = rng.uniform(-15.0, 20.0, n)
        # a null player, equal suppliers split across the two halves, and
        # equal users at 2 and n // 2 (one member below 6, two halves from 6)
        nets[1] = 0.0
        nets[0] = nets[-1] = 6.25
        nets[2] = nets[n // 2] = -4.75
        inst = from_nets(nets, Tariff(0.05, 0.30))
        alloc = shapley_exact(inst)
        phi = [alloc.payoffs[f"c{k}"] for k in range(n)]
        assert alloc.total() == pytest.approx(coalition_value(inst.customers, inst.tariff), abs=1e-9)
        assert phi[1] == 0.0
        assert phi[0] == pytest.approx(phi[-1], abs=1e-9)
        assert phi[2] == pytest.approx(phi[n // 2], abs=1e-9)

    def test_memory_at_the_cap(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, coalition._EXACT_LIMIT // 2, (coalition._EXACT_LIMIT + 1) // 2, T)
        assert inst.n == coalition._EXACT_LIMIT
        tracemalloc.start()
        try:
            shapley_exact(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def split_reference_row(nets, tariff=T):
    return np.array(list(shapley_split_reference(from_nets(nets, tariff)).values()))


class TestShapleyRows:
    """Every row of the batch kernel is the one-instance split, bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        batch=st.integers(1, 20).flatmap(lambda n: st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e4, 1e4)),
                min_size=n, max_size=n,
            ),
            min_size=1, max_size=4,
        ))
    )
    def test_rows_equal_the_split_reference(self, batch):
        energies = np.array(batch, dtype=float).reshape(len(batch), -1)
        got = coalition._shapley_rows(energies, Tariff(0.05, 0.30))
        for row, nets in zip(got, energies):
            assert row.tobytes() == split_reference_row(nets, Tariff(0.05, 0.30)).tobytes()

    @pytest.mark.parametrize("n", [26, 31, 32])
    def test_rows_equal_the_split_reference_large(self, n):
        rng = np.random.default_rng(n)
        energies = rng.uniform(-15.0, 20.0, (2, n))
        energies[1, rng.random(n) < 0.3] = 0.0
        energies[1, 0] = -0.0
        got = coalition._shapley_rows(energies, T)
        for row, nets in zip(got, energies):
            assert row.tobytes() == split_reference_row(nets).tobytes()

    def test_shapley_exact_is_one_row(self):
        nets = np.random.default_rng(9).uniform(-15.0, 20.0, 12)
        got = np.array(list(shapley_exact(from_nets(nets)).payoffs.values()))
        assert got.tobytes() == split_reference_row(nets).tobytes()


class TestShapleyMonteCarlo:
    def test_single_sample_is_one_permutation(self):
        inst = CoalitionInstance((supplier("s", 10), user("u", 8)), T)
        alloc = shapley_monte_carlo(inst, sample_count=1, seed=3)
        # must equal the marginal vector of whichever order was drawn
        candidates = [{"s": 0.5, "u": -0.4}, {"s": 0.9, "u": -0.8}]
        assert any(
            all(alloc.payoffs[k] == pytest.approx(v, abs=1e-9) for k, v in c.items())
            for c in candidates
        )

    def test_reproducible(self):
        inst = CoalitionInstance((supplier("s", 10), user("u", 8), supplier("t", 4)), T)
        a = shapley_monte_carlo(inst, 500, seed=42)
        b = shapley_monte_carlo(inst, 500, seed=42)
        assert a.payoffs == b.payoffs

    def test_identical_suppliers_equal_estimates(self):
        # all-positive identical members: every marginal is p_wp * e, exactly
        inst = CoalitionInstance(tuple(supplier(f"s{k}", 10.0) for k in range(4)), T)
        alloc = shapley_monte_carlo(inst, 50, seed=1)
        vals = list(alloc.payoffs.values())
        assert all(v == pytest.approx(vals[0], abs=1e-12) for v in vals)

    def test_close_to_exact(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 3, 3, T)
        exact = shapley_exact(inst)
        est = shapley_monte_carlo(inst, 20_000, seed=7)
        for cid, v in exact.payoffs.items():
            assert est.payoffs[cid] == pytest.approx(v, abs=max(0.01, abs(v) * 0.05))

    def test_efficiency_enforced(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, 4, 2, T)
        est = shapley_monte_carlo(inst, 100, seed=0)
        assert est.total() == pytest.approx(coalition_value(inst.customers, T), abs=1e-9)


class TestCore:
    def test_singleton_always_in_core(self):
        inst = CoalitionInstance((supplier("s", 5),), T)
        ok, worst = in_core(shapley_exact(inst), inst)
        assert ok and worst is None

    def test_shapley_in_core_on_balanced_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            inst = balanced_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), T)
            ok, worst = in_core(shapley_exact(inst), inst)
            assert ok, worst

    def test_shapley_can_leave_core_on_unbalanced_market(self):
        # one big supplier plus both users beats their Shapley payoffs when
        # aggregate supply is long; the competitive witness still certifies
        # the core is nonempty
        inst = CoalitionInstance(
            (
                supplier("s0", 11.37),
                supplier("s1", 18.16),
                supplier("s2", 5.09),
                user("u0", 8.83),
                user("u1", 5.39),
            ),
            T,
        )
        ok, worst = in_core(shapley_exact(inst), inst)
        assert not ok
        assert worst[1] > 0.1
        ok_witness, _ = in_core(competitive_allocation(inst), inst)
        assert ok_witness

    def test_competitive_witness_in_core_on_any_mix(self):
        rng = np.random.default_rng(14)
        for _ in range(80):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), T)
            ok, worst = in_core(competitive_allocation(inst), inst)
            assert ok, worst

    def test_blocking_singleton_detected(self):
        from gridswap.coalition import PayoffAllocation

        inst = CoalitionInstance((supplier("s", 10), user("u", 8)), T)
        grand = coalition_value(inst.customers, T)
        # give the supplier less than its stand-alone value
        bad = PayoffAllocation({"s": 0.2, "u": grand - 0.2})
        ok, (ids, gap) = in_core(bad, inst)
        assert not ok
        assert ids == ("s",)
        assert gap == pytest.approx(0.3)

    def test_size_guard_is_the_exact_limit(self):
        rng = np.random.default_rng(16)
        half = coalition._EXACT_LIMIT // 2
        inst = random_instance(rng, half, coalition._EXACT_LIMIT - half, T)
        ok, _ = in_core(competitive_allocation(inst), inst)
        assert ok
        bigger = random_instance(rng, half + 1, coalition._EXACT_LIMIT - half, T)
        with pytest.raises(SizeError):
            in_core(competitive_allocation(bigger), bigger)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_split_equals_enumeration(self, n):
        rng = np.random.default_rng(n)
        for tariff in (T, Tariff(p_wp=0.05, p_rp=0.30), Tariff(p_wp=0.0, p_rp=1.0)):
            inst = from_nets(rng.uniform(-15.0, 20.0, n), tariff)
            exact = shapley_exact(inst).payoffs
            # an efficient allocation off the Shapley point: zero-sum noise
            noise = rng.normal(0.0, 0.5, n)
            noise -= noise.mean()
            perturbed = {c.id: exact[c.id] + d for c, d in zip(inst.customers, noise)}
            energies = np.array([c.net_energy for c in inst.customers])
            scale = tariff.p_rp * np.abs(energies).sum()
            for payoffs in (exact, perturbed):
                expected, _ = in_core_enumeration(PayoffAllocation(payoffs), inst)
                x = np.array([payoffs[c.id] for c in inst.customers])
                shortfall, mask = coalition._core_gap(x, energies, tariff)
                assert shortfall == pytest.approx(expected, abs=1e-12 * scale)
                # ties may pick another coalition than the oracle's; it must attain the maximum
                members = [c for k, c in enumerate(inst.customers) if mask >> k & 1]
                assert members
                attained = coalition_value(members, tariff) - sum(payoffs[c.id] for c in members)
                assert attained == pytest.approx(expected, abs=1e-12 * scale)

    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_large_nets_keep_exact_payoffs_efficient(self, scale):
        # an absolute 1e-9 tolerance called these payoffs inefficient; v and
        # the Shapley division scale with the nets, so the verdict must not
        for seed in range(20):
            nets = np.random.default_rng(seed).uniform(-15.0, 20.0, 12)
            small, large = from_nets(nets), from_nets(nets * scale)
            ok, worst = in_core(shapley_exact(large), large)
            expected, expected_worst = in_core(shapley_exact(small), small)
            assert ok == expected
            assert ok or worst[0] == expected_worst[0]
            in_core(shapley_monte_carlo(large, 200, seed), large)

    def test_tolerance_stays_absolute_at_desk_scale(self):
        inst = random_instance(np.random.default_rng(3), 10, 10, Tariff(p_wp=0.05, p_rp=0.30))
        assert coalition._core_tolerance(inst) == 1e-9

    def test_inefficient_allocation_rejected(self):
        from gridswap.coalition import PayoffAllocation

        inst = CoalitionInstance((supplier("s", 10),), T)
        with pytest.raises(InputError):
            in_core(PayoffAllocation({"s": 99.0}), inst)


class TestImpliedPrices:
    def test_pure_suppliers_price_at_wholesale(self):
        inst = CoalitionInstance((supplier("a", 10), supplier("b", 4)), T)
        for row in implied_p2p_prices(inst, shapley_exact(inst)):
            assert row.price == pytest.approx(T.p_wp)
            assert row.within_band

    def test_pure_users_price_at_retail(self):
        inst = CoalitionInstance((user("a", 10), user("b", 4)), T)
        for row in implied_p2p_prices(inst, shapley_exact(inst)):
            assert row.price == pytest.approx(T.p_rp)
            assert row.within_band

    def test_mixed_pair_strictly_inside_band(self):
        inst = CoalitionInstance((supplier("s", 10), user("u", 8)), T)
        rows = {r.customer_id: r for r in implied_p2p_prices(inst, shapley_exact(inst))}
        assert T.p_wp < rows["s"].price < T.p_rp
        assert T.p_wp < rows["u"].price < T.p_rp
        assert rows["s"].price == pytest.approx(0.07)
        assert rows["u"].price == pytest.approx(0.075)

    def test_zero_net_customer_skipped(self):
        inst = CoalitionInstance((supplier("s", 10), supplier("z", 0.0)), T)
        rows = implied_p2p_prices(inst, shapley_exact(inst))
        assert [r.customer_id for r in rows] == ["s"]


class TestRevenueVsFit:
    def test_pooled_total_dominates_fit(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), T)
            _, totals = revenue_vs_fit(inst)
            assert totals["p2p_total"] >= totals["fit_total"] - 1e-9

    def test_all_suppliers_equal_fit_exactly(self):
        inst = CoalitionInstance((supplier("a", 6), supplier("b", 3)), T)
        rows, totals = revenue_vs_fit(inst)
        for r in rows:
            assert r["p2p_payoff"] == pytest.approx(r["fit_payoff"], abs=1e-12)
        assert totals["p2p_total"] == pytest.approx(totals["fit_total"])

    def test_fit_payoff_signs(self):
        assert fit_payoff(supplier("s", 10), T) == pytest.approx(0.5)
        assert fit_payoff(user("u", 10), T) == pytest.approx(-1.0)
