"""Tests for the feed-forward network, the pair featurizer, and the matcher."""

import numpy as np
import pytest

from repro.data.pair import MATCH
from repro.exceptions import NotFittedError
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.neural.matcher import MatcherConfig, NeuralMatcher
from repro.neural.network import FeedForwardNetwork


class TestNetworkConfig:
    """The network's architecture, set by ``input_dim`` and ``MatcherConfig``."""

    def test_representation_dim_is_last_hidden(self):
        matcher = NeuralMatcher(input_dim=10, config=MatcherConfig(
            hidden_dims=(32, 16), epochs=1, random_state=0))
        matcher.fit(np.eye(4, 10), np.array([1, 0, 1, 0]))
        assert matcher.embed(np.ones((3, 10))).shape == (3, 16)
        network = FeedForwardNetwork(10, hidden_dims=(32, 16), dropout=0.1,
                                     use_layer_norm=True, random_state=0)
        assert network.representation(np.ones((3, 10))).shape == (3, 16)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            NeuralMatcher(input_dim=0)
        with pytest.raises(ValueError):
            MatcherConfig(hidden_dims=())
        with pytest.raises(ValueError):
            MatcherConfig(hidden_dims=(8, 0))
        with pytest.raises(ValueError):
            MatcherConfig(dropout=1.0)
        with pytest.raises(ValueError):
            MatcherConfig(dropout=-0.1)


class TestFeedForwardNetwork:
    def test_forward_shapes(self):
        network = FeedForwardNetwork(12, hidden_dims=(16, 8), dropout=0.1,
                                     use_layer_norm=True, random_state=0)
        logits, representations = network.forward(np.ones((5, 12)))
        assert logits.shape == (5,)
        assert representations.shape == (5, 8)

    def test_backward_runs_after_training_forward(self):
        network = FeedForwardNetwork(6, hidden_dims=(8,), dropout=0.1,
                                     use_layer_norm=True, random_state=0)
        logits, _ = network.forward(np.ones((4, 6)), training=True)
        network.backward(np.ones_like(logits))
        assert any(np.any(layer.gradients.get("weight", 0) != 0)
                   for layer in network.layers if layer.parameters)


class TestPairFeaturizer:
    def test_feature_dim_matches_transform(self, tiny_dataset, small_featurizer_config):
        featurizer = PairFeaturizer(small_featurizer_config)
        features = featurizer.transform(tiny_dataset, indices=range(10))
        assert features.shape == (10, featurizer.feature_dim(tiny_dataset))

    def test_empty_indices(self, tiny_dataset, small_featurizer_config):
        featurizer = PairFeaturizer(small_featurizer_config)
        features = featurizer.transform(tiny_dataset, indices=[])
        assert features.shape[0] == 0

    def test_similarity_only_configuration(self, tiny_dataset):
        featurizer = PairFeaturizer(FeaturizerConfig(include_raw=False,
                                                     include_interactions=False))
        features = featurizer.transform(tiny_dataset, indices=range(5))
        attributes = 3  # amazon_google has 3 attributes
        assert features.shape[1] == featurizer.SIMILARITIES_PER_ATTRIBUTE * attributes
        assert np.all(features >= 0.0)
        assert np.all(features <= 1.0)

    def test_match_pairs_have_higher_similarity_features(self, tiny_dataset):
        featurizer = PairFeaturizer(FeaturizerConfig(include_raw=False,
                                                     include_interactions=False))
        labels = tiny_dataset.labels()
        features = featurizer.transform(tiny_dataset)
        match_mean = features[labels == MATCH].mean()
        non_match_mean = features[labels != MATCH].mean()
        assert match_mean > non_match_mean

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FeaturizerConfig(hash_dim=0)
        with pytest.raises(ValueError):
            FeaturizerConfig(qgram_size=0)
        with pytest.raises(ValueError):
            FeaturizerConfig(include_raw=False, include_interactions=False,
                             include_similarities=False)

    def test_deterministic(self, tiny_dataset, small_featurizer_config):
        featurizer = PairFeaturizer(small_featurizer_config)
        a = featurizer.transform(tiny_dataset, indices=range(5))
        b = featurizer.transform(tiny_dataset, indices=range(5))
        assert np.array_equal(a, b)


class TestMatcherConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            MatcherConfig(epochs=0)
        with pytest.raises(ValueError):
            MatcherConfig(batch_size=0)
        with pytest.raises(ValueError):
            MatcherConfig(positive_weight=0.0)
        with pytest.raises(ValueError):
            MatcherConfig(confidence_temperature=0.0)
        with pytest.raises(ValueError):
            MatcherConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            MatcherConfig(weight_decay=-0.5)


class TestNeuralMatcher:
    def test_requires_fit_before_inference(self):
        matcher = NeuralMatcher(input_dim=8)
        with pytest.raises(NotFittedError):
            matcher.predict_proba(np.ones((2, 8)))
        with pytest.raises(NotFittedError):
            matcher.embed(np.ones((2, 8)))
        assert not matcher.is_fitted

    def test_input_validation(self):
        matcher = NeuralMatcher(input_dim=8, config=MatcherConfig(epochs=1))
        with pytest.raises(ValueError):
            matcher.fit(np.ones((4, 5)), np.ones(4))
        with pytest.raises(ValueError):
            matcher.fit(np.ones((4, 8)), np.ones(3))
        with pytest.raises(ValueError):
            matcher.fit(np.ones((0, 8)), np.ones(0))
        with pytest.raises(ValueError):
            NeuralMatcher(input_dim=0)

    def test_learns_separable_problem(self):
        rng = np.random.default_rng(0)
        n = 200
        x = rng.normal(size=(n, 10))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        config = MatcherConfig(hidden_dims=(16, 8), epochs=20, batch_size=16,
                               learning_rate=5e-3, dropout=0.0, random_state=1)
        matcher = NeuralMatcher(input_dim=10, config=config)
        matcher.fit(x, y)
        accuracy = float(np.mean(matcher.predict(x) == y))
        assert accuracy > 0.9

    def test_fit_on_benchmark_beats_majority_baseline(self, fitted_matcher, tiny_dataset,
                                                      tiny_features):
        test = tiny_dataset.test_indices
        predictions = fitted_matcher.predict(tiny_features[test])
        labels = tiny_dataset.labels(test)
        true_positive = np.sum((predictions == 1) & (labels == 1))
        assert true_positive > 0

    def test_embeddings_have_representation_dim(self, fitted_matcher, tiny_features,
                                                fast_matcher_config):
        representations = fitted_matcher.embed(tiny_features[:7])
        assert representations.shape == (7, fast_matcher_config.hidden_dims[-1])

    def test_predict_with_representations_consistent(self, fitted_matcher, tiny_features):
        probabilities, representations = fitted_matcher.predict_with_representations(
            tiny_features[:9])
        assert probabilities.shape == (9,)
        assert np.allclose(probabilities, fitted_matcher.predict_proba(tiny_features[:9]))
        assert np.allclose(representations, fitted_matcher.embed(tiny_features[:9]))

    def test_probabilities_in_unit_interval(self, fitted_matcher, tiny_features):
        probabilities = fitted_matcher.predict_proba(tiny_features[:20])
        assert np.all(probabilities >= 0.0)
        assert np.all(probabilities <= 1.0)

    def test_history_records_validation_f1(self, fitted_matcher, fast_matcher_config):
        # Every epoch runs unless one scores a perfect validation F1; the fit
        # then stops after the first such epoch.
        history = fitted_matcher.history
        assert history is not None
        assert len(history.validation_f1) == history.num_epochs
        perfect = [epoch for epoch, f1 in enumerate(history.validation_f1) if f1 == 1.0]
        expected_epochs = perfect[0] + 1 if perfect else fast_matcher_config.epochs
        assert history.num_epochs == expected_epochs
        assert 0 <= history.best_epoch < history.num_epochs

    def test_representations_separate_classes(self, fitted_matcher, tiny_dataset,
                                               tiny_features):
        """The Figure 1 phenomenon: match pairs sit closer to the match centroid."""
        train = tiny_dataset.train_indices
        labels = tiny_dataset.labels(train)
        representations = fitted_matcher.embed(tiny_features[train])
        match_centroid = representations[labels == 1].mean(axis=0)
        non_match_centroid = representations[labels == 0].mean(axis=0)
        match_rows = representations[labels == 1]
        to_match = np.linalg.norm(match_rows - match_centroid, axis=1).mean()
        to_non_match = np.linalg.norm(match_rows - non_match_centroid, axis=1).mean()
        assert to_match < to_non_match

    def test_retraining_is_deterministic_given_seed(self, tiny_dataset, tiny_features,
                                                    fast_matcher_config):
        train = tiny_dataset.train_indices[:60]
        labels = tiny_dataset.labels(train)
        first = NeuralMatcher(tiny_features.shape[1], fast_matcher_config)
        second = NeuralMatcher(tiny_features.shape[1], fast_matcher_config)
        first.fit(tiny_features[train], labels)
        second.fit(tiny_features[train], labels)
        probe = tiny_features[tiny_dataset.test_indices[:10]]
        assert np.allclose(first.predict_proba(probe), second.predict_proba(probe))
