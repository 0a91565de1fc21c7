"""Tests for plain and constrained K-Means."""

import numpy as np
import pytest

from reference.constrained import _squared_distances as reference_squared_distances
from repro.clustering.constrained import ConstrainedKMeans, SizeConstraints
from repro.clustering.kmeans import (
    KMeans,
    _squared_distances,
    _squared_norms,
    average_cluster_sse,
    kmeans_plus_plus_init,
)
from repro.exceptions import ConfigurationError, ConvergenceError


@pytest.fixture()
def blobs(rng):
    """Three well separated 2-D blobs of 40 points each."""
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack([
        rng.normal(scale=0.5, size=(40, 2)) + center for center in centers
    ])
    return points


class TestKMeans:
    def test_recovers_three_blobs(self, blobs):
        result = KMeans(num_clusters=3, random_state=0).fit(blobs)
        sizes = sorted(result.cluster_sizes().tolist())
        assert sizes == [40, 40, 40]
        assert result.converged

    def test_inertia_decreases_with_more_clusters(self, blobs):
        inertia_2 = KMeans(2, random_state=0).fit(blobs).inertia
        inertia_6 = KMeans(6, random_state=0).fit(blobs).inertia
        assert inertia_6 < inertia_2

    def test_labels_cover_all_points(self, blobs):
        result = KMeans(3, random_state=1).fit(blobs)
        assert len(result.labels) == len(blobs)
        assert set(result.labels.tolist()).issubset({0, 1, 2})

    def test_too_few_points_raises(self):
        with pytest.raises(ConvergenceError):
            KMeans(5).fit(np.zeros((3, 2)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KMeans(0)
        with pytest.raises(ValueError):
            KMeans(2, max_iterations=0)
        with pytest.raises(ValueError):
            KMeans(2, num_init=0)

    def test_deterministic_given_seed(self, blobs):
        first = KMeans(3, random_state=5).fit(blobs)
        second = KMeans(3, random_state=5).fit(blobs)
        assert np.array_equal(first.labels, second.labels)

    def test_plus_plus_init_spreads_centroids(self, blobs, rng):
        centroids = kmeans_plus_plus_init(blobs, 3, rng)
        distances = np.linalg.norm(centroids[:, None] - centroids[None, :], axis=-1)
        off_diagonal = distances[~np.eye(3, dtype=bool)]
        assert off_diagonal.min() > 3.0

    @pytest.mark.parametrize("num_clusters", [1, 20])
    @pytest.mark.parametrize("layout", ["gaussian", "grid", "fortran"])
    def test_hoisted_distances_match_reference_bit_for_bit(self, rng, num_clusters, layout):
        # 2 * points is computed once per fit instead of inside every call;
        # the distances must not move by a bit.  The grid has ties and
        # duplicate points; the Fortran-ordered points keep their layout.
        if layout == "grid":
            points = rng.integers(-3, 4, size=(300, 3)).astype(np.float64)
        else:
            points = rng.normal(size=(800, 128))
        if layout == "fortran":
            points = np.asfortranarray(points)
        centroids = points[rng.choice(len(points), size=num_clusters, replace=False)]
        got = _squared_distances(2.0 * points, _squared_norms(points), centroids)
        want = reference_squared_distances(points, centroids)
        assert got.shape == (len(points), num_clusters)
        assert got.tobytes() == want.tobytes()

    def test_average_cluster_sse(self, blobs):
        result = KMeans(3, random_state=0).fit(blobs)
        tight = average_cluster_sse(blobs, result)
        loose = average_cluster_sse(blobs, KMeans(1, random_state=0).fit(blobs))
        assert tight < loose


class TestSizeConstraints:
    def test_from_fractions(self):
        constraints = SizeConstraints.from_fractions(200, 0.05, 0.15)
        assert constraints.min_size == 10
        assert constraints.max_size == 30

    def test_feasibility(self):
        constraints = SizeConstraints(min_size=5, max_size=10)
        assert constraints.feasible(num_points=30, num_clusters=4)
        assert not constraints.feasible(num_points=50, num_clusters=4)
        assert not constraints.feasible(num_points=10, num_clusters=4)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            SizeConstraints(min_size=-1, max_size=5)
        with pytest.raises(ConfigurationError):
            SizeConstraints(min_size=10, max_size=5)
        with pytest.raises(ConfigurationError):
            SizeConstraints.from_fractions(100, 0.2, 0.1)


class TestConstrainedKMeans:
    def test_sizes_respect_bounds(self, blobs):
        constraints = SizeConstraints(min_size=30, max_size=50)
        result = ConstrainedKMeans(3, constraints, random_state=0).fit(blobs)
        sizes = result.cluster_sizes()
        assert np.all(sizes >= 30)
        assert np.all(sizes <= 50)

    def test_max_size_forces_splitting_of_large_blob(self, rng):
        # One giant blob: unconstrained K-Means with k=4 could produce a
        # dominant cluster; the constraint forces near-even sizes.
        points = rng.normal(size=(100, 2))
        constraints = SizeConstraints(min_size=20, max_size=30)
        result = ConstrainedKMeans(4, constraints, random_state=0).fit(points)
        sizes = result.cluster_sizes()
        assert np.all(sizes >= 20)
        assert np.all(sizes <= 30)

    def test_infeasible_constraints_raise(self, blobs):
        constraints = SizeConstraints(min_size=100, max_size=110)
        with pytest.raises(ConfigurationError):
            ConstrainedKMeans(3, constraints).fit(blobs)

    def test_too_few_points_raise(self):
        constraints = SizeConstraints(min_size=0, max_size=5)
        with pytest.raises(ConvergenceError):
            ConstrainedKMeans(5, constraints).fit(np.zeros((2, 2)))

    def test_invalid_cluster_count(self):
        with pytest.raises(ConfigurationError):
            ConstrainedKMeans(0, SizeConstraints(0, 1))

    def test_labels_cover_all_points(self, blobs):
        constraints = SizeConstraints(min_size=10, max_size=80)
        result = ConstrainedKMeans(3, constraints, random_state=2).fit(blobs)
        assert len(result.labels) == len(blobs)
