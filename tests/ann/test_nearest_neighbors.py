"""Tests for the exact nearest-neighbour substrate."""

import numpy as np
import pytest

from repro.ann.exact import ExactNearestNeighbors
from repro.exceptions import NotFittedError


@pytest.fixture()
def clustered_vectors(rng):
    """Two well separated Gaussian blobs in 16 dimensions."""
    blob_a = rng.normal(loc=0.0, scale=0.1, size=(30, 16)) + np.eye(16)[0] * 5
    blob_b = rng.normal(loc=0.0, scale=0.1, size=(30, 16)) + np.eye(16)[1] * 5
    return np.vstack([blob_a, blob_b])


class TestExactNearestNeighbors:
    def test_requires_build(self):
        index = ExactNearestNeighbors()
        with pytest.raises(NotFittedError):
            index.query(np.ones((1, 4)), k=1)
        with pytest.raises(NotFittedError):
            _ = index.size

    def test_invalid_inputs(self):
        index = ExactNearestNeighbors()
        with pytest.raises(ValueError):
            index.build(np.ones(4))
        index.build(np.ones((3, 4)))
        with pytest.raises(ValueError):
            index.query(np.ones((1, 4)), k=0)

    def test_self_is_nearest_when_not_excluded(self, clustered_vectors):
        index = ExactNearestNeighbors().build(clustered_vectors)
        indices, similarities = index.query(clustered_vectors[:5], k=1)
        assert list(indices.reshape(-1)) == [0, 1, 2, 3, 4]
        assert np.allclose(similarities, 1.0)

    def test_exclude_self(self, clustered_vectors):
        index = ExactNearestNeighbors().build(clustered_vectors)
        indices, _ = index.query(clustered_vectors, k=3, exclude_self=True)
        for row, neighbours in enumerate(indices):
            assert row not in neighbours

    def test_neighbours_come_from_same_blob(self, clustered_vectors):
        index = ExactNearestNeighbors().build(clustered_vectors)
        indices, _ = index.query(clustered_vectors, k=5, exclude_self=True)
        first_blob = set(range(30))
        for row in range(30):
            assert set(indices[row]).issubset(first_blob)

    def test_similarities_sorted_descending(self, clustered_vectors):
        index = ExactNearestNeighbors().build(clustered_vectors)
        _, similarities = index.query(clustered_vectors[:3], k=10)
        for row in similarities:
            assert np.all(np.diff(row) <= 1e-12)

    def test_k_larger_than_index(self):
        vectors = np.random.default_rng(0).normal(size=(4, 8))
        index = ExactNearestNeighbors().build(vectors)
        indices, _ = index.query(vectors, k=10)
        assert indices.shape == (4, 4)

