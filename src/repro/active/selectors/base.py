"""Selector interface and the per-iteration selection context.

A selector receives a :class:`SelectionContext` — everything the current
matcher knows about the dataset — and returns the pool indices to send to the
oracle.  Selectors may also propose *weak* labels (Section 3.7); the default
implementation mirrors DAL: the most confident pool pairs by conditional
entropy, half predicted matches and half predicted non-matches.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.graphs.entropy import conditional_entropy


@dataclass
class SelectionContext:
    """Snapshot handed to a selector at the start of an iteration.

    All arrays are aligned: row ``i`` of every array describes the candidate
    pair whose dataset index is ``universe[i]``.

    Attributes
    ----------
    iteration:
        Zero-based active-learning iteration number.
    budget:
        Number of labels that may be requested from the oracle.
    universe:
        Dataset pair indices of the active-learning universe (the train split).
    probabilities:
        Match probability assigned by the current matcher to every pair.
    representations:
        Pair representations produced by the current matcher.
    labeled_mask:
        True for pairs already labeled by the oracle.
    labels:
        Oracle labels (−1 for unlabeled pairs).
    rng:
        Random generator for tie-breaking / residue distribution.
    """

    iteration: int
    budget: int
    universe: np.ndarray
    probabilities: np.ndarray
    representations: np.ndarray
    labeled_mask: np.ndarray
    labels: np.ndarray
    rng: np.random.Generator

    def __post_init__(self) -> None:
        self.universe = np.asarray(self.universe, dtype=np.int64)
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        self.representations = np.asarray(self.representations, dtype=np.float64)
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.universe)
        for name in ("probabilities", "labeled_mask", "labels"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
        if len(self.representations) != n:
            raise ValueError("representations must have one row per universe entry")
        self._position = {int(index): position for position, index in enumerate(self.universe)}

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    def position_of(self, dataset_index: int) -> int:
        """Row position of ``dataset_index`` within the context arrays."""
        return self._position[int(dataset_index)]

    @property
    def predictions(self) -> np.ndarray:
        """Hard predictions of the current matcher (0.5 threshold)."""
        return (self.probabilities >= 0.5).astype(np.int64)

    @property
    def pool_positions(self) -> np.ndarray:
        """Row positions of unlabeled pairs."""
        return np.flatnonzero(~self.labeled_mask)

    @property
    def labeled_positions(self) -> np.ndarray:
        """Row positions of labeled pairs."""
        return np.flatnonzero(self.labeled_mask)

    def pool_indices(self) -> np.ndarray:
        """Dataset indices of unlabeled pairs."""
        return self.universe[self.pool_positions]


class Selector(abc.ABC):
    """Base class of all sample-selection strategies."""

    #: Human-readable name used in experiment reports.
    name: str = "selector"

    @abc.abstractmethod
    def select(self, context: SelectionContext) -> list[int]:
        """Return up to ``context.budget`` pool *dataset indices* to label."""

    def reset(self) -> None:
        """Drop any per-run state (caches, artifacts).

        :class:`~repro.active.loop.ActiveLearningLoop` calls this at the start
        of every run so one selector instance can safely serve several runs or
        datasets.  Stateless selectors need not override it.
        """

    def select_weak(self, context: SelectionContext, budget: int) -> dict[int, int]:
        """Propose weak labels (dataset index → predicted label).

        The default mirrors DAL (Kasai et al.): the most confident pool
        pairs by conditional entropy, split half and half between predicted
        matches and predicted non-matches.
        """
        return entropy_weak_selection(context, budget)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def entropy_weak_selection(context: SelectionContext, budget: int) -> dict[int, int]:
    """DAL-style weak supervision: lowest-entropy pool pairs, class balanced."""
    if budget <= 0:
        return {}
    pool = context.pool_positions
    if len(pool) == 0:
        return {}
    probabilities = context.probabilities[pool]
    predictions = (probabilities >= 0.5).astype(np.int64)
    entropies = np.asarray(conditional_entropy(probabilities))

    per_class = budget // 2
    weak: dict[int, int] = {}
    for class_value, class_budget in ((1, per_class), (0, budget - per_class)):
        class_positions = pool[predictions == class_value]
        class_entropies = entropies[predictions == class_value]
        order = np.argsort(class_entropies)
        for position in class_positions[order][:class_budget]:
            weak[int(context.universe[position])] = class_value
    return weak

