"""Active-learning bookkeeping: the evolving split of ``D`` into train and pool.

:class:`ActiveLearningState` tracks, over the course of the iterations, which
candidate pairs have been labeled (``D_train_i``), which remain in the pool
(``D_pool_i``), the oracle labels obtained so far, and the weak labels added by
the weak-supervision component (which are refreshed every iteration and never
count against the labeling budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import BudgetError


@dataclass
class ActiveLearningState:
    """Mutable state of one active-learning run."""

    universe: np.ndarray
    labeled: dict[int, int] = field(default_factory=dict)
    weak_labels: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.universe = np.asarray(self.universe, dtype=np.int64)
        self._universe_set = set(int(index) for index in self.universe)
        for index in self.labeled:
            if index not in self._universe_set:
                raise BudgetError(f"Labeled index {index} is not part of the universe")

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_labeled(self) -> int:
        return len(self.labeled)

    @property
    def num_pool(self) -> int:
        return len(self._universe_set) - len(self.labeled)

    def labeled_positives(self) -> list[int]:
        """Labeled indices whose oracle label is match."""
        return [index for index, label in self.labeled.items() if label == 1]

    def is_labeled(self, index: int) -> bool:
        return index in self.labeled

    def label_array(self, indices: np.ndarray) -> np.ndarray:
        """Oracle labels of ``indices`` as an array (``-1`` where unlabeled).

        Vectorized equivalent of ``[self.labeled.get(int(i), -1) for i in
        indices]``: the labeled mapping is materialized once (it is small —
        bounded by the labeling budget) and matched against ``indices`` with
        a sorted lookup, so the cost no longer scales as a Python loop over
        the whole universe.
        """
        indices = np.asarray(indices, dtype=np.int64)
        labels = np.full(len(indices), -1, dtype=np.int64)
        if self.labeled and len(indices):
            keys = np.fromiter(self.labeled.keys(), dtype=np.int64,
                               count=len(self.labeled))
            values = np.fromiter(self.labeled.values(), dtype=np.int64,
                                 count=len(self.labeled))
            order = np.argsort(keys)
            keys, values = keys[order], values[order]
            positions = np.searchsorted(keys, indices)
            positions[positions == len(keys)] = 0
            found = keys[positions] == indices
            labels[found] = values[positions[found]]
        return labels

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add_labels(self, labels: dict[int, int]) -> None:
        """Move pairs from the pool to the labeled set with their oracle labels."""
        for index, label in labels.items():
            index = int(index)
            if index not in self._universe_set:
                raise BudgetError(f"Index {index} is not part of the universe")
            if index in self.labeled:
                raise BudgetError(f"Index {index} is already labeled")
            if label not in (0, 1):
                raise BudgetError(f"Label for index {index} must be 0 or 1, got {label}")
            self.labeled[index] = int(label)
        # Newly labeled pairs lose any weak label they may have carried.
        for index in labels:
            self.weak_labels.pop(int(index), None)

    def set_weak_labels(self, weak_labels: dict[int, int]) -> None:
        """Replace the weak-label set (refreshed every iteration, Section 3.7)."""
        cleaned: dict[int, int] = {}
        for index, label in weak_labels.items():
            index = int(index)
            if index in self.labeled:
                continue
            if index not in self._universe_set:
                raise BudgetError(f"Weak-label index {index} is not part of the universe")
            if label not in (0, 1):
                raise BudgetError(f"Weak label for {index} must be 0 or 1, got {label}")
            cleaned[index] = int(label)
        self.weak_labels = cleaned

    def training_set(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and labels used to train the matcher (labeled + weak)."""
        indices = list(self.labeled) + [i for i in self.weak_labels if i not in self.labeled]
        labels = [self.labeled.get(i, self.weak_labels.get(i)) for i in indices]
        return (np.asarray(indices, dtype=np.int64),
                np.asarray(labels, dtype=np.int64))
