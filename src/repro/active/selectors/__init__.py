"""Sample-selection strategies: battleship plus the active-learning baselines."""

from repro.active.selectors.base import (
    SelectionContext,
    Selector,
    entropy_weak_selection,
)
from repro.active.selectors.battleship import BattleshipConfig, BattleshipSelector
from repro.active.selectors.committee import CommitteeSelector
from repro.active.selectors.entropy import EntropySelector
from repro.active.selectors.random_selector import RandomSelector

__all__ = [
    "BattleshipConfig",
    "BattleshipSelector",
    "CommitteeSelector",
    "EntropySelector",
    "RandomSelector",
    "SelectionContext",
    "Selector",
    "entropy_weak_selection",
]
