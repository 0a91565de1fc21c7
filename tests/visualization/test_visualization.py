"""Tests for PCA and t-SNE."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.visualization.projection import PCA
from repro.visualization.tsne import TSNE, TSNEConfig


class TestPCA:
    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            PCA(2).transform(np.ones((3, 4)))

    def test_output_shape(self, rng):
        data = rng.normal(size=(50, 10))
        projected = PCA(3).fit_transform(data)
        assert projected.shape == (50, 3)

    def test_first_component_captures_dominant_direction(self, rng):
        # Variance concentrated along one axis.
        data = np.zeros((100, 5))
        data[:, 2] = rng.normal(scale=10.0, size=100)
        data += rng.normal(scale=0.1, size=(100, 5))
        pca = PCA(2).fit(data)
        dominant = np.abs(pca.components_[0])
        assert np.argmax(dominant) == 2
        assert pca.explained_variance_ratio_[0] > 0.9

    def test_invalid_num_components(self):
        with pytest.raises(ValueError):
            PCA(0)
        with pytest.raises(ValueError):
            PCA(10).fit(np.ones((3, 4)))

    def test_transform_centers_data(self, rng):
        data = rng.normal(loc=100.0, size=(30, 4))
        projected = PCA(2).fit_transform(data)
        assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-8)


class TestTSNE:
    def test_embeds_to_requested_dimensions(self, rng):
        data = rng.normal(size=(40, 10))
        config = TSNEConfig(num_iterations=50, perplexity=10.0)
        embedding = TSNE(config, random_state=0).fit_transform(data)
        assert embedding.shape == (40, 2)
        assert np.all(np.isfinite(embedding))

    def test_separates_two_clusters(self, rng):
        cluster_a = rng.normal(size=(25, 8)) + 8.0
        cluster_b = rng.normal(size=(25, 8)) - 8.0
        data = np.vstack([cluster_a, cluster_b])
        config = TSNEConfig(num_iterations=120, perplexity=10.0)
        embedding = TSNE(config, random_state=0).fit_transform(data)
        centroid_a = embedding[:25].mean(axis=0)
        centroid_b = embedding[25:].mean(axis=0)
        spread_a = np.linalg.norm(embedding[:25] - centroid_a, axis=1).mean()
        between = np.linalg.norm(centroid_a - centroid_b)
        assert between > spread_a

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            TSNE().fit_transform(np.ones((3, 4)))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TSNEConfig(perplexity=0.5)
        with pytest.raises(ValueError):
            TSNEConfig(num_iterations=0)
        with pytest.raises(ValueError):
            TSNEConfig(num_components=0)
