"""Selector interface, the per-iteration selection context, and the per-class
ranking the baselines share.

A selector receives a :class:`SelectionContext` — everything the current
matcher knows about the dataset — and returns the pool indices to send to the
oracle.  Selectors may also propose *weak* labels (Section 3.7); the default
implementation mirrors DAL: the most confident pool pairs by conditional
entropy, half predicted matches and half predicted non-matches.

DAL, DIAL and DAL's weak labels all rank each predicted class on its own and
cut it to that class's budget; :func:`rank_per_class` is that one ranking.
DAL and DIAL query with :func:`most_uncertain_per_class`, which ranks by
negated uncertainty and tops up from the overall ranking when a class runs
short.
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


def rank_per_class(predictions: np.ndarray, keys: np.ndarray,
                   positive_budget: int, negative_budget: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Rows chosen per predicted class: matches, then non-matches.

    Each class's rows are ordered by ``np.argsort`` of their ``keys``
    (ascending, default sort kind) and cut to that class's budget.
    """
    positive, negative = (np.flatnonzero(predictions == value) for value in (1, 0))
    return (positive[np.argsort(keys[positive])][:positive_budget],
            negative[np.argsort(keys[negative])][:negative_budget])


def most_uncertain_per_class(context: SelectionContext, predictions: np.ndarray,
                             uncertainty: np.ndarray) -> list[int]:
    """Class-balanced uncertainty sampling over the pool (DAL and DIAL).

    Half of the budget (``round(B / 2)``) goes to the most uncertain predicted
    matches, the rest to the most uncertain predicted non-matches.  When a
    class runs short, the budget is filled from the overall ranking.
    ``predictions`` and ``uncertainty`` are aligned with
    ``context.pool_positions``.
    """
    keys = -uncertainty
    positive_budget = int(round(context.budget * 0.5))
    chosen = np.concatenate(rank_per_class(
        predictions, keys, positive_budget, context.budget - positive_budget))
    if len(chosen) < context.budget:
        overall = np.argsort(keys)
        overall = overall[~np.isin(overall, chosen)]
        chosen = np.concatenate([chosen, overall[:context.budget - len(chosen)]])
    return context.universe[context.pool_positions[chosen]].tolist()


def entropy_weak_selection(context: SelectionContext, budget: int) -> dict[int, int]:
    """DAL-style weak supervision: lowest-entropy pool pairs, class balanced.

    ``budget // 2`` weak labels go to predicted matches, the rest to
    predicted non-matches.
    """
    pool = context.pool_positions
    if budget <= 0 or len(pool) == 0:
        return {}
    probabilities = context.probabilities[pool]
    positive, negative = rank_per_class(
        (probabilities >= 0.5).astype(np.int64),
        np.asarray(conditional_entropy(probabilities)),
        budget // 2, budget - budget // 2)
    weak = dict.fromkeys(context.universe[pool[positive]].tolist(), 1)
    weak.update(dict.fromkeys(context.universe[pool[negative]].tolist(), 0))
    return weak
