"""Tests for the selection strategies (random, DAL, DIAL-style committee)."""

import numpy as np
import pytest

from repro.active.selectors.base import SelectionContext, entropy_weak_selection
from repro.active.selectors.committee import CommitteeSelector
from repro.active.selectors.entropy import EntropySelector
from repro.active.selectors.random_selector import RandomSelector


def make_context(num_pairs=60, num_labeled=10, budget=10, seed=0,
                 probabilities=None) -> SelectionContext:
    """A synthetic selection context with two latent clusters."""
    rng = np.random.default_rng(seed)
    universe = np.arange(100, 100 + num_pairs)
    representations = np.vstack([
        rng.normal(size=(num_pairs // 2, 8)) + 3.0,
        rng.normal(size=(num_pairs - num_pairs // 2, 8)) - 3.0,
    ])
    if probabilities is None:
        probabilities = np.concatenate([
            rng.uniform(0.55, 0.99, size=num_pairs // 2),
            rng.uniform(0.01, 0.45, size=num_pairs - num_pairs // 2),
        ])
    labeled_mask = np.zeros(num_pairs, dtype=bool)
    labeled_mask[:num_labeled // 2] = True
    labeled_mask[num_pairs // 2: num_pairs // 2 + num_labeled // 2] = True
    labels = np.full(num_pairs, -1, dtype=np.int64)
    labels[:num_pairs // 2][labeled_mask[:num_pairs // 2]] = 1
    labels[num_pairs // 2:][labeled_mask[num_pairs // 2:]] = 0
    return SelectionContext(
        iteration=0, budget=budget, universe=universe,
        probabilities=np.asarray(probabilities), representations=representations,
        labeled_mask=labeled_mask, labels=labels, rng=np.random.default_rng(seed + 1),
    )


class TestSelectionContext:
    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            SelectionContext(
                iteration=0, budget=5, universe=np.arange(4),
                probabilities=np.zeros(3), representations=np.zeros((4, 2)),
                labeled_mask=np.zeros(4, dtype=bool), labels=np.full(4, -1),
                rng=np.random.default_rng(0),
            )

    def test_views(self):
        context = make_context(num_pairs=20, num_labeled=4)
        assert len(context.pool_positions) == 16
        assert len(context.labeled_positions) == 4
        assert context.position_of(int(context.universe[3])) == 3
        assert set(context.predictions.tolist()) <= {0, 1}
        assert len(context.pool_indices()) == 16


class TestRandomSelector:
    def test_respects_budget(self):
        context = make_context(budget=7)
        selected = RandomSelector().select(context)
        assert len(selected) == 7

    def test_only_pool_pairs(self):
        context = make_context()
        selected = RandomSelector().select(context)
        labeled = set(context.universe[context.labeled_positions].tolist())
        assert not set(selected) & labeled

    def test_no_duplicates(self):
        context = make_context(budget=20)
        selected = RandomSelector().select(context)
        assert len(set(selected)) == len(selected)

    def test_empty_pool(self):
        context = make_context(num_pairs=10, num_labeled=10)
        assert RandomSelector().select(context) == []

    def test_budget_larger_than_pool(self):
        context = make_context(num_pairs=12, num_labeled=4, budget=100)
        assert len(RandomSelector().select(context)) == 8


class TestEntropySelector:
    def test_selects_most_uncertain(self):
        probabilities = np.full(60, 0.99)
        probabilities[13] = 0.52   # most uncertain "match"
        probabilities[40] = 0.48   # most uncertain "non-match"
        context = make_context(budget=2, probabilities=probabilities, num_labeled=0)
        selected = EntropySelector().select(context)
        assert set(selected) == {int(context.universe[13]), int(context.universe[40])}

    def test_class_balance(self):
        context = make_context(budget=10, num_labeled=0)
        selected = EntropySelector().select(context)
        predictions = context.predictions
        positions = [context.position_of(index) for index in selected]
        positives = sum(predictions[p] for p in positions)
        assert 3 <= positives <= 7

    def test_fills_budget_when_one_class_missing(self):
        probabilities = np.full(60, 0.2)  # everything predicted non-match
        context = make_context(budget=10, probabilities=probabilities, num_labeled=0)
        selected = EntropySelector().select(context)
        assert len(selected) == 10

    def test_invalid_positive_share(self):
        with pytest.raises(ValueError):
            EntropySelector(positive_share=1.5)

    def test_zero_budget(self):
        context = make_context(budget=0)
        assert EntropySelector().select(context) == []


class TestEntropyWeakSelection:
    def test_selects_most_confident(self):
        probabilities = np.full(60, 0.6)
        probabilities[5] = 0.999
        probabilities[45] = 0.001
        context = make_context(budget=10, probabilities=probabilities, num_labeled=0)
        weak = entropy_weak_selection(context, budget=2)
        assert weak[int(context.universe[5])] == 1
        assert weak[int(context.universe[45])] == 0

    def test_budget_zero(self):
        context = make_context()
        assert entropy_weak_selection(context, 0) == {}

    def test_excludes_labeled(self):
        context = make_context(num_labeled=10)
        weak = entropy_weak_selection(context, budget=20)
        labeled = set(context.universe[context.labeled_positions].tolist())
        assert not set(weak) & labeled


class TestCommitteeSelector:
    def test_respects_budget_and_pool(self):
        context = make_context(budget=8, num_labeled=10)
        selected = CommitteeSelector(committee_size=3, random_state=0).select(context)
        assert len(selected) == 8
        labeled = set(context.universe[context.labeled_positions].tolist())
        assert not set(selected) & labeled

    def test_cold_start_without_labels(self):
        context = make_context(num_labeled=0, budget=6)
        selected = CommitteeSelector(committee_size=3, random_state=0).select(context)
        assert len(selected) == 6

    def test_invalid_committee_size(self):
        with pytest.raises(ValueError):
            CommitteeSelector(committee_size=1)

    def test_deterministic_given_seed(self):
        context_a = make_context(budget=6, seed=3)
        context_b = make_context(budget=6, seed=3)
        selector = CommitteeSelector(committee_size=3, random_state=5)
        other = CommitteeSelector(committee_size=3, random_state=5)
        assert selector.select(context_a) == other.select(context_b)

