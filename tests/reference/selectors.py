"""The per-class ranking loops of the DAL and DIAL selectors: the oracle for
``repro.active.selectors``.

These are the loops each selector used to write out on its own:
:func:`entropy_select` is the body of ``EntropySelector.select``,
:func:`committee_select` the body of ``CommitteeSelector.select`` after the
committee has voted, and :func:`entropy_weak_selection` DAL's weak-label
choice.  The positive share is the selectors' fixed 0.5.  The shared
per-class ranking in ``repro.active.selectors.base`` must agree with them
exactly, order included.
"""

from __future__ import annotations

import numpy as np

from repro.active.selectors.base import SelectionContext
from repro.graphs.entropy import conditional_entropy

POSITIVE_SHARE = 0.5


def entropy_select(context: SelectionContext) -> list[int]:
    """DAL's query selection: the most uncertain pairs per predicted class."""
    pool = context.pool_positions
    if len(pool) == 0 or context.budget <= 0:
        return []
    probabilities = context.probabilities[pool]
    predictions = (probabilities >= 0.5).astype(np.int64)
    entropies = np.asarray(conditional_entropy(probabilities))

    positive_budget = int(round(context.budget * POSITIVE_SHARE))
    negative_budget = context.budget - positive_budget

    selected: list[int] = []
    for class_value, class_budget in ((1, positive_budget), (0, negative_budget)):
        class_mask = predictions == class_value
        class_positions = pool[class_mask]
        class_entropies = entropies[class_mask]
        # Most uncertain first (largest entropy).
        order = np.argsort(-class_entropies)
        selected.extend(int(context.universe[p])
                        for p in class_positions[order][:class_budget])

    # If one class ran short (e.g. no predicted matches at all), fill the
    # remaining budget with the most uncertain pairs overall.
    if len(selected) < context.budget:
        already = set(selected)
        order = np.argsort(-entropies)
        for position in pool[order]:
            index = int(context.universe[position])
            if index not in already:
                selected.append(index)
                already.add(index)
            if len(selected) >= context.budget:
                break
    return selected[:context.budget]


def committee_select(context: SelectionContext, votes: np.ndarray) -> list[int]:
    """DIAL's query selection, given the committee's match votes per pool pair."""
    pool = context.pool_positions
    if len(pool) == 0 or context.budget <= 0:
        return []
    disagreement = votes * (1.0 - votes)
    predictions = (votes >= 0.5).astype(np.int64)

    positive_budget = int(round(context.budget * POSITIVE_SHARE))
    negative_budget = context.budget - positive_budget
    selected: list[int] = []
    for class_value, class_budget in ((1, positive_budget), (0, negative_budget)):
        class_mask = predictions == class_value
        class_positions = pool[class_mask]
        class_scores = disagreement[class_mask]
        order = np.argsort(-class_scores)
        selected.extend(int(context.universe[p])
                        for p in class_positions[order][:class_budget])

    if len(selected) < context.budget:
        already = set(selected)
        order = np.argsort(-disagreement)
        for position in pool[order]:
            index = int(context.universe[position])
            if index not in already:
                selected.append(index)
                already.add(index)
            if len(selected) >= context.budget:
                break
    return selected[:context.budget]


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
