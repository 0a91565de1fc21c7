"""The vectorized clustering routines against their loop oracles.

Inputs come from a coarse grid as well as from a normal distribution, so
distance ties and duplicate points are common.  Constrained K-Means must
match its oracle exactly; silhouette values may differ by the pinned
``SILHOUETTE_ATOL`` because the per-cluster sums accumulate in another
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import constrained as reference_constrained
from reference import silhouette as reference_silhouette
from repro.clustering.constrained import ConstrainedKMeans, SizeConstraints
from repro.clustering.kmeans import KMeans, _squared_norms
from repro.clustering.silhouette import silhouette_samples, silhouette_score

SILHOUETTE_ATOL = 1e-12


@st.composite
def point_sets(draw, num_points, dim=None):
    """``num_points`` points on a 7-value grid (ties, duplicates) or Gaussian."""
    if dim is None:
        dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coords = draw(st.lists(st.integers(-3, 3), min_size=num_points * dim,
                               max_size=num_points * dim))
        return np.array(coords, dtype=np.float64).reshape(num_points, dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng.normal(size=(num_points, dim))


@st.composite
def constrained_problems(draw):
    """Feasible size bounds, often tight: ``k * min_size == n`` or ``k * max_size == n``."""
    num_clusters = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["tight_min", "tight_max", "free"]))
    if shape == "free":
        num_points = draw(st.integers(num_clusters, 40))
        min_size = draw(st.integers(0, num_points // num_clusters))
        max_size = draw(st.integers(max(-(-num_points // num_clusters), min_size, 1),
                                    num_points))
    else:
        per_cluster = draw(st.integers(1, 8))
        num_points = num_clusters * per_cluster
        if shape == "tight_min":
            min_size = per_cluster
            max_size = draw(st.integers(per_cluster, num_points))
        else:
            max_size = per_cluster
            min_size = draw(st.integers(0, per_cluster))
    points = draw(point_sets(num_points))
    return points, num_clusters, SizeConstraints(min_size, max_size), draw(st.integers(0, 1000))


class TestConstrainedKMeansOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=constrained_problems())
    def test_fit_matches_reference_exactly(self, problem):
        points, num_clusters, constraints, seed = problem
        got = ConstrainedKMeans(num_clusters, constraints, random_state=seed).fit(points)
        want = reference_constrained.ConstrainedKMeans(
            num_clusters, constraints, random_state=seed).fit(points)
        assert np.array_equal(got.labels, want.labels)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.inertia == want.inertia
        assert got.num_iterations == want.num_iterations
        assert got.converged == want.converged

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), num_points=st.integers(1, 30), num_clusters=st.integers(1, 5),
           max_size=st.integers(1, 12))
    def test_capacity_assign_matches_reference_on_tied_distances(
            self, data, num_points, num_clusters, max_size):
        # Small integer distances tie often; max_size may be too small, which
        # exercises the nearest-cluster overflow that fit() never reaches.
        values = data.draw(st.lists(st.integers(0, 3), min_size=num_points * num_clusters,
                                    max_size=num_points * num_clusters))
        distances = np.array(values, dtype=np.float64).reshape(num_points, num_clusters)
        constraints = SizeConstraints(0, max_size)
        got = ConstrainedKMeans(num_clusters, constraints)._capacity_assign(distances)
        want = reference_constrained.ConstrainedKMeans(
            num_clusters, constraints)._capacity_assign(distances)
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), num_points=st.integers(2, 30), num_clusters=st.integers(1, 5),
           min_size=st.integers(0, 10))
    def test_enforce_min_sizes_matches_reference(self, data, num_points, num_clusters,
                                                 min_size):
        # Any labelling, including ones no donor can repair.
        points = data.draw(point_sets(num_points))
        labels = np.array(data.draw(st.lists(
            st.integers(0, num_clusters - 1), min_size=num_points, max_size=num_points)),
            dtype=np.int64)
        centroids = data.draw(point_sets(num_clusters, points.shape[1]))
        constraints = SizeConstraints(min_size, max(min_size, 1))
        got = ConstrainedKMeans(num_clusters, constraints)._enforce_min_sizes(
            points, _squared_norms(points), labels, centroids)
        want = reference_constrained.ConstrainedKMeans(
            num_clusters, constraints)._enforce_min_sizes(points, labels, centroids)
        assert np.array_equal(got, want)


@st.composite
def labelled_point_sets(draw):
    """Points with labels of at least two clusters, singleton clusters included."""
    num_points = draw(st.integers(2, 40))
    points = draw(point_sets(num_points))
    num_clusters = draw(st.integers(2, num_points))
    labels = draw(st.lists(st.integers(0, num_clusters - 1), min_size=num_points,
                           max_size=num_points).filter(lambda values: len(set(values)) >= 2))
    return points, np.array(labels, dtype=np.int64)


class TestSilhouetteOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=labelled_point_sets())
    def test_samples_match_loop(self, problem):
        points, labels = problem
        np.testing.assert_allclose(silhouette_samples(points, labels),
                                   reference_silhouette.silhouette_samples(points, labels),
                                   rtol=0, atol=SILHOUETTE_ATOL)

    def test_singletons_and_duplicates_score_zero(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 0, 1, 2])
        # Two coincident points in one cluster, a singleton coinciding with
        # them, and a far singleton: a == b == 0 or a singleton gives 0.
        assert silhouette_samples(points, labels).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert reference_silhouette.silhouette_samples(points, labels).tolist() == [
            0.0, 0.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(points=st.integers(8, 40).flatmap(point_sets), seed=st.integers(0, 1000))
    def test_k_sweep_picks_the_same_argmax(self, points, seed):
        rng = np.random.default_rng(seed)
        got, want = [], []
        for k in range(2, 6):
            labels = KMeans(num_clusters=k, num_init=1, random_state=rng).fit(points).labels
            if len(np.unique(labels)) < 2:
                got.append(-1.0)
                want.append(-1.0)
                continue
            got.append(silhouette_score(points, labels))
            want.append(reference_silhouette.silhouette_score(points, labels))
        np.testing.assert_allclose(got, want, rtol=0, atol=SILHOUETTE_ATOL)
        ranked = np.sort(want)
        if ranked[-1] - ranked[-2] > 2 * SILHOUETTE_ATOL:
            assert int(np.argmax(got)) == int(np.argmax(want))


@pytest.mark.parametrize("num_points", [60, 300])
def test_constrained_kmeans_matches_reference_on_gaussian_blobs(num_points):
    rng = np.random.default_rng(num_points)
    centers = rng.normal(scale=4.0, size=(6, 16))
    points = centers[rng.integers(0, 6, size=num_points)] + rng.normal(size=(num_points, 16))
    constraints = SizeConstraints.from_fractions(num_points, 0.05, 0.15)
    for k in (7, 10, 13):
        got = ConstrainedKMeans(k, constraints, random_state=k).fit(points)
        want = reference_constrained.ConstrainedKMeans(
            k, constraints, random_state=k).fit(points)
        assert np.array_equal(got.labels, want.labels)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert (got.inertia, got.num_iterations) == (want.inertia, want.num_iterations)
