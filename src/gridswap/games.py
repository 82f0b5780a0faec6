"""Finite strategic-form games on dense payoff tensors.

Desk-scale utilities behind the `nash` subcommand: pure Nash checks and
exhaustive equilibrium enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeError

_MAX_PROFILES = 1_000_000


@dataclass(frozen=True)
class FiniteGame:
    """N-player game; utilities[n, s_1, ..., s_N] is player n's payoff."""

    utilities: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.utilities, dtype=float)
        if u.ndim < 2 or u.shape[0] != u.ndim - 1:
            raise InputError(
                f"utilities must have shape (N, |S_1|, ..., |S_N|), got {u.shape}"
            )
        if any(s < 1 for s in u.shape[1:]):
            raise InputError("every strategy set must be nonempty")
        if not np.all(np.isfinite(u)):
            raise InputError("utilities must be finite")
        object.__setattr__(self, "utilities", u)

    @property
    def n_players(self) -> int:
        return self.utilities.shape[0]

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return self.utilities.shape[1:]

    @property
    def n_profiles(self) -> int:
        return math.prod(self.strategy_counts)


def _check_profile(game: FiniteGame, profile) -> tuple[int, ...]:
    profile = tuple(int(s) for s in profile)
    counts = game.strategy_counts
    if len(profile) != game.n_players:
        raise InputError(
            f"profile has {len(profile)} entries for {game.n_players} players"
        )
    for n, (s, c) in enumerate(zip(profile, counts)):
        if not 0 <= s < c:
            raise InputError(f"player {n} strategy {s} outside 0..{c - 1}")
    return profile


def is_nash(game: FiniteGame, profile):
    """Check for profitable unilateral deviations.

    Returns (True, None) at a pure Nash profile, otherwise
    (False, (player, strategy, gain)) for the best improving deviation.
    """
    profile = _check_profile(game, profile)
    best = None
    for n in range(game.n_players):
        u_n = game.utilities[n]
        here = u_n[profile]
        row = u_n[profile[:n] + (slice(None),) + profile[n + 1 :]]
        alt = int(np.argmax(row))
        gain = float(row[alt] - here)
        if gain > 0 and (best is None or gain > best[2]):
            best = (n, alt, gain)
    if best is None:
        return True, None
    return False, best


def find_pure_nash(game: FiniteGame) -> list[tuple[int, ...]]:
    """All pure Nash profiles by exhaustive enumeration, lexicographic order."""
    if game.n_profiles > _MAX_PROFILES:
        raise SizeError(
            f"{game.n_profiles} joint profiles exceed the enumeration limit "
            f"of {_MAX_PROFILES}"
        )
    u = game.utilities
    mask = np.ones(game.strategy_counts, dtype=bool)
    for n in range(game.n_players):
        best = u[n].max(axis=n, keepdims=True)
        mask &= u[n] >= best
    return [tuple(int(x) for x in idx) for idx in np.argwhere(mask)]
