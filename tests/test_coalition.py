"""Coalition game: value function, Shapley division, core membership."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridswap import coalition, ingest
from gridswap.coalition import (
    Customer,
    CoalitionInstance,
    PayoffAllocation,
    coalition_value,
    core_shortfall,
    implied_p2p_prices,
    shapley_exact,
    shapley_monte_carlo,
    shapley_payoff_rows,
)
from gridswap.errors import InputError, SizeError
from gridswap.market import Tariff

from instances import balanced_instance, competitive_allocation, random_instance
from oracles import (
    in_core_enumeration,
    is_superadditive_enumeration,
    shapley_antithetic_reference,
    shapley_enumeration,
    shapley_exact_fraction,
    shapley_exact_loop,
    shapley_monte_carlo_batch,
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
            ok, pair = is_superadditive_enumeration(inst)
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

    def test_single_customer_vacuous(self):
        ok, pair = is_superadditive_enumeration(CoalitionInstance((supplier("s", 3),), T))
        assert ok and pair is None

    @pytest.mark.parametrize("tariff", [T, Tariff(0.05, 0.30), Tariff(0.0, 0.01)])
    def test_closed_form_agrees_with_enumeration(self, tariff):
        # the closed form: every Tariff has p_rp > p_wp, so on the pooled net x
        # v = min(p_wp * x, p_rp * x) is concave and positively homogeneous,
        # hence superadditive at any N, with no violating pair
        rng = np.random.default_rng(31)
        instances = [from_nets([5.0, 0.0, -2.0], tariff), from_nets([0.0, 0.0], tariff)]
        while len(instances) < 80:
            n_s, n_u = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            if n_s + n_u:
                instances.append(random_instance(rng, n_s, n_u, tariff))
        for inst in instances:
            assert is_superadditive_enumeration(inst) == (True, None)


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


def _net(kind: str):
    """One member's net: a float, an integer, a signed zero, or a tiny float."""
    return {
        "float": st.floats(-20.0, 20.0),
        "integer": st.integers(-10, 10),
        "zero": st.sampled_from([0.0, -0.0]),
        "tiny": st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310]),
    }[kind]


class TestSampledKernel:
    """shapley_monte_carlo works its antithetic join-order pairs in cache-sized
    blocks and returns the payoffs and standard errors of the whole-array
    reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           p_wp=st.sampled_from([0.0, 0.05]), p_rp=st.sampled_from([0.1, 0.3]),
           block=st.sampled_from([None, 1, 7, 64]))
    def test_equals_the_batch_kernel(self, data, n, seed, p_wp, p_rp, block):
        # sample counts, odd and even, cross one or two blocks of pairs of
        # the real size, or many blocks of a small one
        rows = max(1, (block or coalition._BLOCK_ELEMENTS) // n)
        samples = data.draw(st.one_of(st.integers(1, 5), st.integers(1, 4 * rows + 1)))
        kinds = data.draw(st.lists(st.sampled_from(["float", "integer", "zero", "tiny"]),
                                   min_size=n, max_size=n))
        nets = [data.draw(_net(kind)) for kind in kinds]
        inst = CoalitionInstance(
            tuple(Customer(f"c{k}", "supplier" if e > 0 else "user", e)
                  for k, e in enumerate(nets)),
            Tariff(p_wp=p_wp, p_rp=p_rp),
        )
        with mock.patch.object(coalition, "_BLOCK_ELEMENTS", block or coalition._BLOCK_ELEMENTS):
            got = shapley_monte_carlo(inst, samples, seed)
        assert repr(got) == repr(shapley_antithetic_reference(inst, samples, seed))

    def test_rows_above_the_limit_are_per_row_estimates(self):
        n = coalition._EXACT_LIMIT + 3
        energies = np.random.default_rng(5).uniform(-15.0, 20.0, (3, n))
        energies[1, :4] = [0.0, -0.0, 3.0, -3.0]
        payoffs, errors = shapley_payoff_rows(energies, T, 300, [11, 12, 13])
        for row, seed, phi, error in zip(energies, [11, 12, 13], payoffs, errors):
            alloc = shapley_monte_carlo(from_nets(row), 300, seed)
            assert phi.tobytes() == np.array(list(alloc.payoffs.values())).tobytes()
            assert error.tobytes() == np.array(list(alloc.standard_error.values())).tobytes()

    def test_exact_rows_have_no_standard_error(self):
        energies = np.random.default_rng(6).uniform(-15.0, 20.0, (2, 5))
        assert shapley_payoff_rows(energies, T, 300, [1, 2])[1] is None
        assert shapley_exact(from_nets(energies[0])).standard_error is None

    def test_standard_error_is_that_of_the_drawn_marginals(self):
        # 401 orders: 200 pairs and a lone order the standard error leaves out
        nets, samples, seed = [6.0, -4.0, 2.5, -7.0, 1.0], 401, 8
        inst = from_nets(nets)

        def marginals(order):
            row = np.zeros(len(nets))
            for k, member in enumerate(order):
                joined = [inst.customers[j] for j in order[:k + 1]]
                row[member] = coalition_value(joined, T) - coalition_value(joined[:-1], T)
            return row

        # the same drawn orders, each with its reverse; marginals from coalition_value
        drawn = np.argsort(np.random.default_rng(seed).random((201, len(nets))), axis=1)
        means = np.array([(marginals(order) + marginals(order[::-1])) / 2 for order in drawn[:200]])
        expected = means.std(axis=0, ddof=1) / np.sqrt(200)
        got = shapley_monte_carlo(inst, samples, seed).standard_error
        assert list(got) == [c.id for c in inst.customers]
        np.testing.assert_allclose(list(got.values()), expected, rtol=1e-9, atol=1e-15)

    def test_one_sample_has_no_standard_error(self):
        # a standard error needs two complete pairs, so four join orders
        inst = from_nets([6.0, -4.0, 2.5])
        for samples in (1, 2, 3):
            assert shapley_monte_carlo(inst, samples, 3).standard_error is None
            errors = shapley_payoff_rows(np.full((1, 33), 2.0), T, samples, [3])[1]
            assert np.isnan(errors).all()
        assert shapley_monte_carlo(inst, 4, 3).standard_error is not None

    @pytest.mark.parametrize("n", [10, 20])
    def test_pairs_err_no_more_than_independent_orders(self, n):
        """On 20 seeded bench-shaped instances, half suppliers (0.5-20 kWh) and
        half users (0.5-15 kWh), 2,000 antithetic join orders miss the exact
        payoffs by no more RMS than 2,000 independent ones."""
        tariff = Tariff(p_wp=0.05, p_rp=0.30)
        errors = {"pairs": [], "independent": []}
        for k in range(20):
            rng = np.random.default_rng((n, k))
            nets = np.concatenate([rng.uniform(0.5, 20.0, n // 2),
                                   -rng.uniform(0.5, 15.0, n - n // 2)])
            inst = from_nets(nets, tariff)
            exact = coalition._shapley_rows(nets[None], tariff)[0]
            for name, estimate in (("pairs", shapley_monte_carlo(inst, 2000, k)),
                                   ("independent", shapley_monte_carlo_batch(inst, 2000, k))):
                errors[name].append(np.array(list(estimate.payoffs.values())) - exact)
        rms = {name: np.sqrt(np.mean(np.square(e))) for name, e in errors.items()}
        assert rms["pairs"] <= rms["independent"]

    def test_nets_that_overflow_the_sums_refused(self):
        """A net past ingest.ENERGY is refused where the customer is built; at
        the bound, sampled rows above the exact limit keep finite payoffs and
        standard errors."""
        n = 64  # above the exact limit
        edge = ingest.ENERGY.largest
        energies = np.full((2, n), 2.0)
        energies[1, :2] = edge, -edge
        from_nets(energies[1])
        payoffs, errors = shapley_payoff_rows(energies, T, 100, [1, 2])
        assert np.isfinite(payoffs).all() and np.isfinite(errors).all()
        energies[1, :2] = math.nextafter(edge, math.inf), -edge
        with pytest.raises(InputError, match=r"'c0' \|net_energy\| must lie in \[0, 1e\+09\] kWh"):
            from_nets(energies[1])

    def test_memory_stays_in_blocks(self):
        """One estimate at N = 100 from 40,000 join orders holds a few blocks,
        not whole batches of 200,000 floats."""
        inst = from_nets(np.random.default_rng(7).uniform(-15.0, 20.0, 100))
        tracemalloc.start()
        try:
            shapley_monte_carlo(inst, 40_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCore:
    def test_singleton_always_in_core(self):
        inst = CoalitionInstance((supplier("s", 5),), T)
        _, blocking = core_shortfall(shapley_exact(inst), inst)
        assert blocking is None

    def test_shapley_in_core_on_balanced_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            inst = balanced_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), T)
            alloc = shapley_exact(inst)
            assert alloc.total() == pytest.approx(coalition_value(inst.customers, T), abs=1e-9)
            shortfall, blocking = core_shortfall(alloc, inst)
            assert blocking is None, (blocking, shortfall)

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
        shortfall, blocking = core_shortfall(shapley_exact(inst), inst)
        assert blocking is not None
        assert shortfall > 0.1
        assert core_shortfall(competitive_allocation(inst), inst)[1] is None

    def test_competitive_witness_in_core_on_any_mix(self):
        rng = np.random.default_rng(14)
        for _ in range(80):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), T)
            witness = competitive_allocation(inst)
            assert witness.total() == pytest.approx(coalition_value(inst.customers, T), abs=1e-9)
            shortfall, blocking = core_shortfall(witness, inst)
            assert blocking is None, (blocking, shortfall)

    def test_blocking_singleton_detected(self):
        from gridswap.coalition import PayoffAllocation

        inst = CoalitionInstance((supplier("s", 10), user("u", 8)), T)
        grand = coalition_value(inst.customers, T)
        # give the supplier less than its stand-alone value
        bad = PayoffAllocation({"s": 0.2, "u": grand - 0.2})
        gap, ids = core_shortfall(bad, inst)
        assert ids == ("s",)
        assert gap == pytest.approx(0.3)

    def test_size_guard_is_the_exact_limit(self):
        rng = np.random.default_rng(16)
        half = coalition._EXACT_LIMIT // 2
        inst = random_instance(rng, half, coalition._EXACT_LIMIT - half, T)
        assert core_shortfall(competitive_allocation(inst), inst)[1] is None
        bigger = random_instance(rng, half + 1, coalition._EXACT_LIMIT - half, T)
        with pytest.raises(SizeError):
            core_shortfall(competitive_allocation(bigger), bigger)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_split_equals_enumeration(self, n):
        rng = np.random.default_rng(n)
        for tariff in (T, Tariff(p_wp=0.05, p_rp=0.30), Tariff(p_wp=0.0, p_rp=1.0)):
            inst = from_nets(rng.uniform(-15.0, 20.0, n), tariff)
            exact = shapley_exact(inst).payoffs
            # an efficient allocation off the Shapley point: zero-sum noise
            noise = rng.normal(0.0, 0.5, n)
            centred = noise - noise.mean()
            perturbed = {c.id: exact[c.id] + d for c, d in zip(inst.customers, centred)}
            # and an inefficient one: core_shortfall does not ask for efficiency
            shifted = {c.id: exact[c.id] + d for c, d in zip(inst.customers, noise)}
            scale = tariff.p_rp * sum(abs(c.net_energy) for c in inst.customers)
            for payoffs in (exact, perturbed, shifted):
                allocation = PayoffAllocation(payoffs)
                expected, _ = in_core_enumeration(allocation, inst)
                shortfall, ids = core_shortfall(allocation, inst)
                assert shortfall == pytest.approx(expected, abs=1e-12 * scale)
                if shortfall <= coalition._core_tolerance(inst):
                    assert ids is None
                    continue
                # ties may pick another coalition than the oracle's; it must attain the maximum
                members = [c for c in inst.customers if c.id in ids]
                assert [c.id for c in members] == list(ids)
                attained = coalition_value(members, tariff) - sum(payoffs[c.id] for c in members)
                assert attained == pytest.approx(expected, abs=1e-12 * scale)

    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_large_nets_keep_exact_payoffs_efficient(self, scale):
        # an absolute 1e-9 tolerance called these payoffs inefficient; v and
        # the Shapley division scale with the nets, so the verdict must not
        for seed in range(20):
            nets = np.random.default_rng(seed).uniform(-15.0, 20.0, 12)
            small, large = from_nets(nets), from_nets(nets * scale)
            grand = coalition_value(large.customers, T)
            for alloc in (shapley_exact(large), shapley_monte_carlo(large, 200, seed)):
                assert abs(alloc.total() - grand) <= coalition._core_tolerance(large)
            _, blocking = core_shortfall(shapley_exact(large), large)
            assert blocking == core_shortfall(shapley_exact(small), small)[1]

    def test_tolerance_stays_absolute_at_desk_scale(self):
        inst = random_instance(np.random.default_rng(3), 10, 10, Tariff(p_wp=0.05, p_rp=0.30))
        assert coalition._core_tolerance(inst) == 1e-9


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
            fit_total = math.fsum(coalition_value((c,), T) for c in inst.customers)
            assert shapley_exact(inst).total() >= fit_total - 1e-9

    def test_all_suppliers_equal_fit_exactly(self):
        inst = CoalitionInstance((supplier("a", 6), supplier("b", 3)), T)
        alloc = shapley_exact(inst)
        for c in inst.customers:
            assert alloc.payoffs[c.id] == pytest.approx(coalition_value((c,), T), abs=1e-12)
        assert alloc.total() == pytest.approx(math.fsum(coalition_value((c,), T)
                                                        for c in inst.customers))

    def test_fit_payoff_signs(self):
        # a lone member's worth is its feed-in-tariff payoff
        assert coalition_value((supplier("s", 10),), T) == pytest.approx(0.5)
        assert coalition_value((user("u", 10),), T) == pytest.approx(-1.0)
