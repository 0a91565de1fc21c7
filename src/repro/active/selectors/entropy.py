"""The DAL baseline (Kasai et al., 2019): uncertainty sampling by entropy.

In every iteration DAL labels the ``round(B/2)`` most uncertain predicted
matches and the remaining most uncertain predicted non-matches, where
uncertainty is the conditional entropy of the matcher's confidence (Eq. 1);
the ranking is :func:`~repro.active.selectors.base.most_uncertain_per_class`,
shared with DIAL.  Its weak-supervision component (high-confidence
augmentation) is the default implementation inherited from
:class:`~repro.active.selectors.base.Selector`.

The adversarial transfer-learning component of the original paper is omitted,
exactly as in Section 4.3 of the battleship paper (no source-domain data is
available in this setting).
"""

from __future__ import annotations

import numpy as np

from repro.active.selectors.base import SelectionContext, Selector, most_uncertain_per_class
from repro.graphs.entropy import conditional_entropy


class EntropySelector(Selector):
    """Entropy-based uncertainty sampling with a balanced class split (DAL)."""

    name = "dal"

    def select(self, context: SelectionContext) -> list[int]:
        pool = context.pool_positions
        if len(pool) == 0 or context.budget <= 0:
            return []
        probabilities = context.probabilities[pool]
        return most_uncertain_per_class(
            context, (probabilities >= 0.5).astype(np.int64),
            np.asarray(conditional_entropy(probabilities)))
