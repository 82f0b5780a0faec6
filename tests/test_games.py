"""Finite-game utilities: Nash checks, enumeration, best response."""

import numpy as np
import pytest

from gridswap.errors import InputError, SizeError
from gridswap.games import FiniteGame, find_pure_nash, is_nash
from oracles import best_response_iteration

# row player utilities / column player utilities
PRISONERS = FiniteGame([
    [[-1, -3], [0, -2]],
    [[-1, 0], [-3, -2]],
])
# 0 = cooperate, 1 = defect; (D, D) is the unique equilibrium

MATCHING_PENNIES = FiniteGame([
    [[1, -1], [-1, 1]],
    [[-1, 1], [1, -1]],
])

COORDINATION = FiniteGame([
    [[2, 0], [0, 1]],
    [[2, 0], [0, 1]],
])


def random_game(rng, players=2, strategies=3):
    shape = (players,) + (strategies,) * players
    return FiniteGame(rng.random(shape))


class TestIsNash:
    def test_prisoners_dilemma_defect_defect(self):
        ok, dev = is_nash(PRISONERS, (1, 1))
        assert ok and dev is None

    def test_prisoners_dilemma_cooperate_is_not(self):
        ok, dev = is_nash(PRISONERS, (0, 0))
        assert not ok
        player, strategy, gain = dev
        assert strategy == 1 and gain == pytest.approx(1.0)

    def test_matching_pennies_no_pure_nash(self):
        for profile in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            ok, dev = is_nash(MATCHING_PENNIES, profile)
            assert not ok and dev[2] > 0

    def test_malformed_profile(self):
        with pytest.raises(InputError):
            is_nash(PRISONERS, (0, 0, 0))
        with pytest.raises(InputError):
            is_nash(PRISONERS, (0, 5))

    def test_agrees_with_enumeration_on_random_games(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_game(rng, 2, 3)
            nash = set(find_pure_nash(g))
            for profile in np.ndindex(*g.strategy_counts):
                assert is_nash(g, profile)[0] == (tuple(profile) in nash)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        g = random_game(rng, 3, 3)
        scaled = g.utilities.copy()
        scaled[1] = 2.5 * scaled[1] + 7.0
        g2 = FiniteGame(scaled)
        for profile in np.ndindex(*g.strategy_counts):
            assert is_nash(g, profile)[0] == is_nash(g2, profile)[0]


class TestFindPureNash:
    def test_matching_pennies_empty(self):
        assert find_pure_nash(MATCHING_PENNIES) == []

    def test_coordination_game_both_equilibria(self):
        assert find_pure_nash(COORDINATION) == [(0, 0), (1, 1)]

    def test_prisoners_dilemma_unique(self):
        assert find_pure_nash(PRISONERS) == [(1, 1)]

    def test_lexicographic_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            found = find_pure_nash(random_game(rng, 2, 4))
            assert found == sorted(found)

    def test_size_guard(self):
        g = FiniteGame(np.zeros((3, 101, 101, 101)))
        with pytest.raises(SizeError):
            find_pure_nash(g)


class TestBestResponseIteration:
    def test_starts_at_nash_stays_there(self):
        profile, converged = best_response_iteration(PRISONERS, (1, 1), max_rounds=5)
        assert converged and profile == (1, 1)

    def test_matching_pennies_cycles(self):
        profile, converged = best_response_iteration(
            MATCHING_PENNIES, (0, 0), max_rounds=20
        )
        assert not converged

    def test_converged_profile_is_nash(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(60):
            g = random_game(rng, 2, 4)
            profile, converged = best_response_iteration(g, (0, 0), max_rounds=50)
            if converged:
                hits += 1
                assert is_nash(g, profile)[0]
        assert hits > 0

    def test_rounds_guard(self):
        with pytest.raises(InputError):
            best_response_iteration(PRISONERS, (0, 0), max_rounds=0)

    def test_discretized_follower_subgame_reaches_clamp_form(self):
        # two storage units pick shares on a grid at a fixed posted price;
        # converged best responses must match the clamp closed form
        from gridswap.storage import ResidentialUnit, follower_best_response

        units = [
            ResidentialUnit("a", 40.0, 0.10, 0.008),
            ResidentialUnit("b", 25.0, 0.06, 0.012),
        ]
        price = 0.24
        grid = np.linspace(0.0, 40.0, 801)  # 0.05 kWh steps

        def utility(unit, share):
            return (price - unit.reservation_price) * share - 0.5 * unit.reluctance * share**2

        payoff = np.zeros((2, len(grid), len(grid)))
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                payoff[0, i, j] = utility(units[0], a)
                payoff[1, i, j] = utility(units[1], b)
        game = FiniteGame(payoff)
        profile, converged = best_response_iteration(game, (0, 0), max_rounds=10)
        assert converged
        for unit, idx in zip(units, profile):
            assert grid[idx] == pytest.approx(
                follower_best_response(unit, price), abs=0.05
            )


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(InputError):
            FiniteGame(np.zeros((2, 3)))

    def test_nonfinite_utilities(self):
        u = np.zeros((2, 2, 2))
        u[0, 0, 0] = np.inf
        with pytest.raises(InputError):
            FiniteGame(u)
