"""Tests for the labeling oracles and the active-learning state."""

import numpy as np
import pytest

from repro.active.oracle import (
    ABSTAIN,
    AbstainingOracle,
    ClassConditionalNoisyOracle,
    NoisyOracle,
    PerfectOracle,
)
from repro.active.state import ActiveLearningState
from repro.exceptions import BudgetError, OracleError


class TestPerfectOracle:
    def test_returns_gold_labels(self, tiny_dataset):
        oracle = PerfectOracle(tiny_dataset)
        labels = tiny_dataset.labels()
        for index in [0, 5, 10]:
            assert oracle.query(index) == labels[index]

    def test_counts_queries(self, tiny_dataset):
        oracle = PerfectOracle(tiny_dataset)
        oracle.query_many([0, 1, 2])
        assert oracle.num_queries == 3

    def test_out_of_range_raises(self, tiny_dataset):
        oracle = PerfectOracle(tiny_dataset)
        with pytest.raises(OracleError):
            oracle.query(len(tiny_dataset.pairs) + 10)

    def test_query_many_returns_mapping(self, tiny_dataset):
        oracle = PerfectOracle(tiny_dataset)
        result = oracle.query_many(np.array([3, 4]))
        assert set(result) == {3, 4}

    def test_query_many_counts_duplicates_once(self, tiny_dataset):
        # Regression: duplicate indices used to be queried (and billed)
        # individually while the result dict could only keep one entry.
        oracle = PerfectOracle(tiny_dataset)
        result = oracle.query_many([3, 3, 4, 3, 4])
        assert set(result) == {3, 4}
        assert oracle.num_queries == 2

    def test_peek_does_not_count_a_query(self, tiny_dataset):
        oracle = PerfectOracle(tiny_dataset)
        label = oracle.peek(0)
        assert label == int(tiny_dataset.labels()[0])
        assert oracle.num_queries == 0


class TestNoisyOracle:
    def test_zero_noise_equals_perfect(self, tiny_dataset):
        noisy = NoisyOracle(tiny_dataset, flip_probability=0.0, random_state=0)
        perfect = PerfectOracle(tiny_dataset)
        for index in range(20):
            assert noisy.query(index) == perfect.query(index)

    def test_full_noise_flips_everything(self, tiny_dataset):
        noisy = NoisyOracle(tiny_dataset, flip_probability=1.0, random_state=0)
        perfect = PerfectOracle(tiny_dataset)
        for index in range(20):
            assert noisy.query(index) == 1 - perfect.query(index)

    def test_partial_noise_flips_some(self, tiny_dataset):
        noisy = NoisyOracle(tiny_dataset, flip_probability=0.3, random_state=1)
        perfect = PerfectOracle(tiny_dataset)
        labels_noisy = [noisy.query(i) for i in range(100)]
        labels_true = [perfect.query(i) for i in range(100)]
        flips = sum(a != b for a, b in zip(labels_noisy, labels_true))
        assert 10 <= flips <= 55

    def test_invalid_probability(self, tiny_dataset):
        with pytest.raises(OracleError):
            NoisyOracle(tiny_dataset, flip_probability=1.5)

    def test_delegates_through_peek_not_private_access(self, tiny_dataset):
        # Regression: the oracle used to call its gold oracle's private
        # _label; peek leaves the gold oracle's query count untouched.
        noisy = NoisyOracle(tiny_dataset, flip_probability=0.0)
        answers = noisy.query_many(range(10))
        assert answers == PerfectOracle(tiny_dataset).query_many(range(10))
        assert noisy.num_queries == 10
        assert noisy._base.num_queries == 0


class TestClassConditionalNoisyOracle:
    def test_one_sided_false_positives(self, tiny_dataset):
        oracle = ClassConditionalNoisyOracle(
            tiny_dataset, false_positive_rate=1.0, false_negative_rate=0.0,
            random_state=0)
        # Every negative is flipped up, every positive kept: all answers 1.
        assert all(oracle.query(index) == 1 for index in range(40))

    def test_one_sided_false_negatives(self, tiny_dataset):
        oracle = ClassConditionalNoisyOracle(
            tiny_dataset, false_positive_rate=0.0, false_negative_rate=1.0,
            random_state=0)
        # Every positive is flipped down, every negative kept: all answers 0.
        assert all(oracle.query(index) == 0 for index in range(40))

    def test_answers_are_per_pair_deterministic(self, tiny_dataset):
        oracle = ClassConditionalNoisyOracle(
            tiny_dataset, false_positive_rate=0.3, false_negative_rate=0.3,
            random_state=5)
        first = [oracle.query(i) for i in range(30)]
        again = [oracle.query(i) for i in reversed(range(30))]
        assert first == list(reversed(again))

    def test_invalid_rate_rejected(self, tiny_dataset):
        with pytest.raises(OracleError):
            ClassConditionalNoisyOracle(tiny_dataset, false_positive_rate=-0.1)

    def test_out_of_range_raises(self, tiny_dataset):
        oracle = ClassConditionalNoisyOracle(tiny_dataset, random_state=0)
        with pytest.raises(OracleError):
            oracle.query(len(tiny_dataset.pairs) + 5)


class TestAbstainingOracle:
    def test_zero_abstention_equals_perfect(self, tiny_dataset):
        oracle = AbstainingOracle(tiny_dataset, abstain_probability=0.0,
                                  random_state=0)
        perfect = PerfectOracle(tiny_dataset)
        for index in range(20):
            assert oracle.query(index) == perfect.query(index)

    def test_full_abstention_answers_nothing(self, tiny_dataset):
        oracle = AbstainingOracle(tiny_dataset, abstain_probability=1.0,
                                  random_state=0)
        result = oracle.query_many(range(10))
        assert result == {}
        # The annotator was still asked ten times.
        assert oracle.num_queries == 10
        assert oracle.num_abstentions == 10

    def test_abstentions_are_per_pair_consistent(self, tiny_dataset):
        oracle = AbstainingOracle(tiny_dataset, abstain_probability=0.4,
                                  random_state=3)
        first = {i: oracle.peek(i) for i in range(50)}
        second = {i: oracle.peek(i) for i in range(50)}
        assert first == second
        abstained = [i for i, label in first.items() if label == ABSTAIN]
        assert 5 <= len(abstained) <= 35
        # peek is the side-effect-free hook: only billed refusals count.
        assert oracle.num_abstentions == 0
        assert oracle.num_queries == 0

    def test_only_billed_abstentions_are_counted(self, tiny_dataset):
        oracle = AbstainingOracle(tiny_dataset, abstain_probability=0.4,
                                  random_state=3)
        answered = oracle.query_many(range(50))
        assert oracle.num_queries == 50
        assert oracle.num_abstentions == 50 - len(answered)

    def test_invalid_probability(self, tiny_dataset):
        with pytest.raises(OracleError):
            AbstainingOracle(tiny_dataset, abstain_probability=-0.5)

    def test_loop_never_requeries_refused_pairs(self, tiny_dataset,
                                                fast_matcher_config,
                                                small_featurizer_config):
        from repro.active.loop import ActiveLearningLoop
        from repro.active.selectors import EntropySelector

        class RecordingAbstainer(AbstainingOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.query_log: list[int] = []

            def query(self, pair_index: int) -> int:
                self.query_log.append(pair_index)
                return super().query(pair_index)

        oracle = RecordingAbstainer(tiny_dataset, abstain_probability=0.5,
                                    random_state=11)
        loop = ActiveLearningLoop(
            dataset=tiny_dataset, selector=EntropySelector(), oracle=oracle,
            matcher_config=fast_matcher_config,
            featurizer_config=small_featurizer_config,
            iterations=2, budget_per_iteration=8, seed_size=8,
            weak_supervision="off", random_state=5)
        loop.run()
        # Abstention is per-pair consistent, so a refused pair must never be
        # re-billed in a later iteration (a deterministic selector would
        # otherwise re-select it forever).
        assert len(oracle.query_log) == len(set(oracle.query_log))


class TestActiveLearningState:
    def test_initial_state(self):
        state = ActiveLearningState(universe=np.arange(10))
        assert state.num_labeled == 0
        assert state.num_pool == 10

    def test_add_labels_moves_to_labeled(self):
        state = ActiveLearningState(universe=np.arange(10))
        state.add_labels({2: 1, 5: 0})
        assert state.num_labeled == 2
        assert state.is_labeled(2)
        assert state.num_pool == 8
        assert state.labeled_positives() == [2]
        assert state.labeled == {2: 1, 5: 0}

    def test_duplicate_label_rejected(self):
        state = ActiveLearningState(universe=np.arange(5))
        state.add_labels({1: 1})
        with pytest.raises(BudgetError):
            state.add_labels({1: 0})

    def test_label_outside_universe_rejected(self):
        state = ActiveLearningState(universe=np.arange(5))
        with pytest.raises(BudgetError):
            state.add_labels({99: 1})

    def test_invalid_label_value_rejected(self):
        state = ActiveLearningState(universe=np.arange(5))
        with pytest.raises(BudgetError):
            state.add_labels({1: 2})

    def test_weak_labels_do_not_count_as_labeled(self):
        state = ActiveLearningState(universe=np.arange(10))
        state.set_weak_labels({3: 1, 4: 0})
        assert state.num_labeled == 0
        indices, labels = state.training_set()
        assert set(indices.tolist()) == {3, 4}
        assert set(labels.tolist()) == {0, 1}

    def test_weak_labels_replaced_each_iteration(self):
        state = ActiveLearningState(universe=np.arange(10))
        state.set_weak_labels({3: 1})
        state.set_weak_labels({4: 0})
        assert list(state.weak_labels) == [4]

    def test_label_array_matches_dict_lookup(self):
        state = ActiveLearningState(universe=np.arange(20))
        state.add_labels({7: 1, 3: 0, 15: 1, 0: 0})
        universe = state.universe
        expected = np.array([state.labeled.get(int(i), -1) for i in universe],
                            dtype=np.int64)
        produced = state.label_array(universe)
        assert produced.dtype == np.int64
        assert np.array_equal(produced, expected)
        # Works for arbitrary subsets and orders too.
        subset = np.array([15, 1, 7, 19, 0])
        assert np.array_equal(
            state.label_array(subset),
            np.array([1, -1, 1, -1, 0], dtype=np.int64))

    def test_label_array_empty_cases(self):
        state = ActiveLearningState(universe=np.arange(5))
        assert np.array_equal(state.label_array(np.arange(5)),
                              np.full(5, -1, dtype=np.int64))
        state.add_labels({2: 1})
        assert state.label_array(np.array([], dtype=np.int64)).shape == (0,)

    def test_labeled_overrides_weak(self):
        state = ActiveLearningState(universe=np.arange(10))
        state.set_weak_labels({3: 1})
        state.add_labels({3: 0})
        assert state.weak_labels == {}
        indices, labels = state.training_set()
        assert list(indices) == [3]
        assert list(labels) == [0]

    def test_weak_labels_skip_already_labeled(self):
        state = ActiveLearningState(universe=np.arange(10))
        state.add_labels({2: 1})
        state.set_weak_labels({2: 0, 5: 1})
        assert 2 not in state.weak_labels
        assert 5 in state.weak_labels

    def test_training_set_combines_both(self):
        state = ActiveLearningState(universe=np.arange(10))
        state.add_labels({0: 1, 1: 0})
        state.set_weak_labels({5: 1})
        indices, labels = state.training_set()
        assert len(indices) == 3
        assert dict(zip(indices.tolist(), labels.tolist())) == {0: 1, 1: 0, 5: 1}
