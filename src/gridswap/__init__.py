"""gridswap: game-theoretic peer-to-peer energy trading simulations."""

from .market import Book, SlotClearing, Tariff, clear_double_auction, settle_slot

__version__ = "0.1.0"

__all__ = [
    "Book",
    "SlotClearing",
    "Tariff",
    "clear_double_auction",
    "settle_slot",
    "__version__",
]
