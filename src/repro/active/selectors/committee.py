"""A DIAL-style committee selector (query-by-committee over representations).

DIAL (Jain et al., 2021) co-learns a blocker and a matcher and selects samples
with an *index-by-committee* uncertainty criterion.  In this reproduction the
committee is five lightweight logistic-regression heads trained on bootstrap
resamples of the labeled set, using the current matcher's pair
representations as features — the analogue of committee heads sharing a
transformer encoder.  Committee disagreement ``X(u) * (1 - X(u))`` (the
variance form used by Mozafari et al. and adopted in the related-work
discussion of the paper) ranks the pool; selection is class balanced like DAL,
through the same
:func:`~repro.active.selectors.base.most_uncertain_per_class`.  The committee
is seeded with 0, so a selection depends only on its context.
"""

from __future__ import annotations

import numpy as np

from repro._rng import ensure_rng, spawn_rng
from repro.active.selectors.base import SelectionContext, Selector, most_uncertain_per_class
from repro.neural.activations import sigmoid

#: Logistic heads voting on every pool pair.
_COMMITTEE_SIZE = 5


class _LogisticHead:
    """A tiny L2-regularized logistic regression trained by gradient descent."""

    def __init__(self, num_features: int, learning_rate: float = 0.1,
                 epochs: int = 60, l2: float = 1e-3,
                 rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.weights = rng.normal(0.0, 0.01, size=num_features)
        self.bias = 0.0
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "_LogisticHead":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        for _ in range(self.epochs):
            logits = features @ self.weights + self.bias
            probabilities = sigmoid(logits)
            error = probabilities - labels
            grad_weights = features.T @ error / len(labels) + self.l2 * self.weights
            grad_bias = float(np.mean(error))
            self.weights -= self.learning_rate * grad_weights
            self.bias -= self.learning_rate * grad_bias
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return sigmoid(np.asarray(features, dtype=np.float64) @ self.weights + self.bias)


class CommitteeSelector(Selector):
    """Query-by-committee uncertainty sampling over pair representations."""

    name = "dial"

    def _committee_votes(self, context: SelectionContext) -> np.ndarray:
        """Fraction of committee members voting *match* for every pool pair."""
        member_rngs = spawn_rng(ensure_rng(0), _COMMITTEE_SIZE)
        labeled = context.labeled_positions
        pool = context.pool_positions
        features = context.representations
        labels = context.labels[labeled]

        votes = np.zeros(len(pool), dtype=np.float64)
        for member_rng in member_rngs:
            if len(labeled) >= 2 and len(np.unique(labels)) == 2:
                sample = member_rng.choice(len(labeled), size=len(labeled), replace=True)
                train_positions = labeled[sample]
                # A bootstrap resample may lose one class entirely; resample
                # until both classes are present (bounded retries).
                for _ in range(5):
                    if len(np.unique(context.labels[train_positions])) == 2:
                        break
                    sample = member_rng.choice(len(labeled), size=len(labeled), replace=True)
                    train_positions = labeled[sample]
                head = _LogisticHead(features.shape[1], rng=member_rng)
                head.fit(features[train_positions], context.labels[train_positions])
                member_probabilities = head.predict_proba(features[pool])
            else:
                # Cold start: fall back to the matcher's own probabilities with
                # bootstrap noise so members still disagree.
                noise = member_rng.normal(0.0, 0.05, size=len(pool))
                member_probabilities = np.clip(context.probabilities[pool] + noise, 0.0, 1.0)
            votes += (member_probabilities >= 0.5).astype(np.float64)
        return votes / _COMMITTEE_SIZE

    def select(self, context: SelectionContext) -> list[int]:
        if len(context.pool_positions) == 0 or context.budget <= 0:
            return []
        votes = self._committee_votes(context)
        return most_uncertain_per_class(
            context, (votes >= 0.5).astype(np.int64), votes * (1.0 - votes))
