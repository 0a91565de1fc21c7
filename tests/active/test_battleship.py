"""Tests for the battleship selector (the paper's primary contribution)."""

import numpy as np
import pytest

from repro.active.selectors.base import SelectionContext
from repro.active.selectors.battleship import BattleshipConfig, BattleshipSelector


def make_context(num_pairs=120, num_labeled=20, budget=20, seed=0,
                 iteration=0) -> SelectionContext:
    """Synthetic context: a minority 'match' cluster and a majority cluster.

    Mirrors the entity-matching geometry the selector is designed for: match
    pairs concentrate in one region (~20% of the pool) and are predicted with
    high confidence, non-matches fill the rest.
    """
    rng = np.random.default_rng(seed)
    num_match = num_pairs // 5
    universe = np.arange(num_pairs)
    representations = np.vstack([
        rng.normal(scale=0.5, size=(num_match, 16)) + 4.0,
        rng.normal(scale=0.5, size=(num_pairs - num_match, 16)) - 4.0,
    ])
    probabilities = np.concatenate([
        rng.uniform(0.7, 0.99, size=num_match),
        rng.uniform(0.01, 0.3, size=num_pairs - num_match),
    ])
    labeled_mask = np.zeros(num_pairs, dtype=bool)
    labeled_positions = rng.choice(num_pairs, size=num_labeled, replace=False)
    labeled_mask[labeled_positions] = True
    labels = np.full(num_pairs, -1, dtype=np.int64)
    labels[labeled_mask] = (np.arange(num_pairs) < num_match)[labeled_mask].astype(int)
    return SelectionContext(
        iteration=iteration, budget=budget, universe=universe,
        probabilities=probabilities, representations=representations,
        labeled_mask=labeled_mask, labels=labels, rng=np.random.default_rng(seed + 1),
    )


class TestBattleshipConfig:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BattleshipConfig(alpha=1.5)
        with pytest.raises(ValueError):
            BattleshipConfig(beta=-0.1)
        with pytest.raises(ValueError):
            BattleshipConfig(num_neighbors=0)
        with pytest.raises(ValueError):
            BattleshipConfig(extra_edge_ratio=2.0)
        with pytest.raises(ValueError):
            BattleshipConfig(min_cluster_fraction=0.3, max_cluster_fraction=0.1)
        with pytest.raises(ValueError):
            BattleshipConfig(min_cluster_fraction=0.0)
        with pytest.raises(ValueError):
            BattleshipConfig(max_cluster_fraction=1.5)
        for damping in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                BattleshipConfig(pagerank_damping=damping)

    def test_keyword_construction(self):
        selector = BattleshipSelector(alpha=0.25, beta=0.75)
        assert selector.config.alpha == 0.25
        assert selector.config.beta == 0.75

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(ValueError):
            BattleshipSelector(BattleshipConfig(), alpha=0.3)


class TestBattleshipSelection:
    def test_respects_budget(self):
        context = make_context(budget=15)
        selected = BattleshipSelector(num_neighbors=5).select(context)
        assert len(selected) == 15

    def test_selects_only_pool_pairs(self):
        context = make_context()
        selected = BattleshipSelector(num_neighbors=5).select(context)
        labeled = set(context.universe[context.labeled_positions].tolist())
        assert not set(selected) & labeled

    def test_no_duplicates(self):
        context = make_context(budget=30)
        selected = BattleshipSelector(num_neighbors=5).select(context)
        assert len(set(selected)) == len(selected)

    def test_correspondence_selects_from_both_predicted_classes(self):
        context = make_context(budget=20, num_labeled=0)
        selected = BattleshipSelector(num_neighbors=5).select(context)
        predictions = context.predictions
        chosen_predictions = {int(predictions[context.position_of(i)]) for i in selected}
        assert chosen_predictions == {0, 1}

    def test_early_iterations_favour_predicted_matches(self):
        """The B+ schedule front-loads match-predicted pairs (correspondence)."""
        context = make_context(budget=20, num_labeled=0, iteration=0)
        selected = BattleshipSelector(num_neighbors=5).select(context)
        predictions = context.predictions
        positives = sum(predictions[context.position_of(i)] for i in selected)
        # B+ = 0.8 * 20 = 16 at iteration 0 (the match cluster has 24 members).
        assert positives >= 12

    def test_zero_budget(self):
        context = make_context(budget=0)
        assert BattleshipSelector().select(context) == []

    def test_empty_pool(self):
        context = make_context(num_pairs=20, num_labeled=20)
        assert BattleshipSelector(num_neighbors=3).select(context) == []

    def test_artifacts_cached_per_iteration(self):
        context = make_context()
        selector = BattleshipSelector(num_neighbors=5)
        selector.select(context)
        first = selector._artifacts
        selector.select_weak(context, 10)
        assert selector._artifacts is first

    def test_artifacts_not_reused_across_contexts_with_same_iteration(self):
        """Regression: the cache used to be keyed only on ``context.iteration``,
        so a selector reused across two runs (or datasets) silently served the
        first run's graphs whenever the iteration numbers coincided."""
        selector = BattleshipSelector(num_neighbors=5, random_state=9)
        first_selection = selector.select(make_context(seed=5, iteration=0))
        first_artifacts = selector._artifacts
        second_selection = selector.select(make_context(seed=6, iteration=0))
        assert selector._artifacts is not first_artifacts
        fresh = BattleshipSelector(num_neighbors=5, random_state=9)
        assert second_selection == fresh.select(make_context(seed=6, iteration=0))
        assert first_selection != second_selection

    def test_reset_drops_cached_artifacts(self):
        selector = BattleshipSelector(num_neighbors=5)
        selector.select(make_context())
        assert selector._artifacts is not None
        selector.reset()
        assert selector._artifacts is None
        assert selector._artifacts_context is None

    def test_alpha_changes_selection(self):
        context_a = make_context(seed=2)
        context_b = make_context(seed=2)
        certainty_only = BattleshipSelector(alpha=1.0, num_neighbors=5).select(context_a)
        centrality_only = BattleshipSelector(alpha=0.0, num_neighbors=5).select(context_b)
        assert set(certainty_only) != set(centrality_only)

    def test_correspondence_can_be_disabled(self):
        context = make_context(seed=4)
        selector = BattleshipSelector(BattleshipConfig(use_correspondence=False,
                                                       num_neighbors=5))
        selected = selector.select(context)
        assert len(selected) == context.budget

    def test_deterministic_given_seed(self):
        selector_a = BattleshipSelector(num_neighbors=5, random_state=9)
        selector_b = BattleshipSelector(num_neighbors=5, random_state=9)
        assert (selector_a.select(make_context(seed=5))
                == selector_b.select(make_context(seed=5)))


class TestBattleshipWeakSupervision:
    def test_weak_labels_follow_predictions(self):
        context = make_context(num_labeled=0)
        selector = BattleshipSelector(num_neighbors=5)
        weak = selector.select_weak(context, budget=20)
        assert weak
        predictions = context.predictions
        for index, label in weak.items():
            assert label == int(predictions[context.position_of(index)])

    def test_weak_budget_respected(self):
        context = make_context(num_labeled=0)
        selector = BattleshipSelector(num_neighbors=5)
        weak = selector.select_weak(context, budget=16)
        assert len(weak) <= 16

    def test_weak_selection_prefers_confident_pairs(self):
        context = make_context(num_labeled=0)
        selector = BattleshipSelector(num_neighbors=5)
        selector.select(context)
        artifacts = selector._artifacts
        weak = selector.select_weak(context, budget=10)
        selected_certainty = np.mean([artifacts.certainty[i] for i in weak])
        all_certainty = np.mean(list(artifacts.certainty.values()))
        # Weak labels minimize Eq. 4: their certainty scores are below average.
        assert selected_certainty < all_certainty

    def test_zero_weak_budget(self):
        context = make_context()
        assert BattleshipSelector(num_neighbors=5).select_weak(context, 0) == {}

    def test_weak_and_oracle_selection_overlap_is_allowed_but_distinct_sets_exist(self):
        context = make_context(num_labeled=0, budget=10)
        selector = BattleshipSelector(num_neighbors=5)
        selected = set(selector.select(context))
        weak = set(selector.select_weak(context, budget=10))
        # The strategies target opposite ends of the certainty ranking, so the
        # overlap should be small.
        assert len(selected & weak) <= 3
