"""Tests for Kneedle, silhouette, and cluster-count selection."""

import numpy as np
import pytest

from reference.silhouette import silhouette_score as reference_silhouette_score
from repro.clustering import model_selection
from repro.clustering.kmeans import KMeans
from repro.clustering.kneedle import find_knee, find_knee_index
from repro.clustering.model_selection import (
    candidate_cluster_counts,
    cluster_representations,
    select_num_clusters,
)
from repro.clustering.silhouette import silhouette_samples, silhouette_score
from repro.exceptions import ConfigurationError


def _blobs(rng, num_blobs=8, per_blob=20, spread=0.3, dim=4):
    centers = rng.normal(scale=10.0, size=(num_blobs, dim))
    return np.vstack([
        rng.normal(scale=spread, size=(per_blob, dim)) + center for center in centers
    ])


class TestKneedle:
    def test_detects_knee_of_elbow_curve(self):
        x = np.arange(1.0, 11.0)
        # 1/x has a pronounced elbow at small x.
        y = 1.0 / x
        knee = find_knee(x, y, decreasing=True)
        assert knee is not None
        assert knee <= 4

    def test_no_knee_on_linear_curve(self):
        x = np.arange(1.0, 11.0)
        y = -x
        assert find_knee(x, y, decreasing=True) is None

    def test_increasing_curve_knee(self):
        x = np.arange(1.0, 11.0)
        y = np.log(x)
        knee = find_knee(x, y, decreasing=False)
        assert knee is not None

    def test_too_few_points(self):
        assert find_knee(np.array([1.0, 2.0]), np.array([2.0, 1.0])) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            find_knee(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            find_knee(np.array([1.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            find_knee(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]), sensitivity=-1)

    def test_knee_index(self):
        x = np.arange(1.0, 11.0)
        y = 1.0 / x
        index = find_knee_index(x, y, decreasing=True)
        assert index is not None
        assert x[index] == find_knee(x, y, decreasing=True)


class TestSilhouette:
    def test_well_separated_clusters_score_high(self, rng):
        points = np.vstack([rng.normal(size=(30, 2)),
                            rng.normal(size=(30, 2)) + 20.0])
        labels = np.array([0] * 30 + [1] * 30)
        assert silhouette_score(points, labels) > 0.8

    def test_random_labels_score_low(self, rng):
        points = rng.normal(size=(60, 2))
        labels = rng.integers(0, 2, size=60)
        assert silhouette_score(points, labels) < 0.3

    def test_requires_two_clusters(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            silhouette_score(points, np.zeros(10, dtype=int))

    def test_samples_in_range(self, rng):
        points = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        samples = silhouette_samples(points, labels)
        assert np.all(samples >= -1.0)
        assert np.all(samples <= 1.0)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            silhouette_samples(rng.normal(size=(5, 2)), np.zeros(4, dtype=int))


class TestCandidateClusterCounts:
    def test_respects_fraction_bounds(self):
        candidates = candidate_cluster_counts(200, min_fraction=0.05, max_fraction=0.15)
        assert min(candidates) >= int(np.ceil(1 / 0.15))
        assert max(candidates) <= int(np.floor(1 / 0.05))

    def test_small_pool(self):
        assert candidate_cluster_counts(1) == [1]

    def test_caps_number_of_candidates(self):
        candidates = candidate_cluster_counts(10_000, min_fraction=0.01, max_fraction=0.2)
        assert len(candidates) <= 8

    def test_invalid_fractions(self):
        with pytest.raises(ConfigurationError):
            candidate_cluster_counts(100, min_fraction=0.3, max_fraction=0.1)


class TestSelectNumClusters:
    def test_selection_is_feasible_candidate(self, rng):
        points = _blobs(rng)
        selection = select_num_clusters(points, random_state=0)
        assert selection.num_clusters in selection.candidates
        assert selection.method in {"kneedle", "silhouette", "single_candidate"}

    def test_kneedle_path_computes_no_silhouette(self, rng, monkeypatch):
        def fail(points, labels):
            raise AssertionError("silhouette scored although Kneedle found a knee")

        monkeypatch.setattr(model_selection, "silhouette_score", fail)
        points = _blobs(rng)
        selection = select_num_clusters(points, random_state=0)
        assert selection.method == "kneedle"
        assert len(selection.sse_curve) == len(selection.candidates)
        assert selection.silhouette_curve == []

    @pytest.mark.parametrize("per_blob", [20, 190])
    def test_fallback_path_scores_every_candidate(self, rng, monkeypatch, per_blob):
        monkeypatch.setattr(model_selection, "find_knee_index",
                            lambda *args, **kwargs: None)
        points = _blobs(rng, per_blob=per_blob)
        selection = select_num_clusters(points, random_state=0)
        assert selection.method == "silhouette"

        # The eager procedure: the same generators, the silhouette subsample
        # (8 * 190 points exceed the limit) drawn before the sweep, and every
        # candidate scored by the reference loop.
        sweep_rng, silhouette_rng = model_selection.spawn_rng(np.random.default_rng(0), 2)
        sample = np.arange(len(points))
        if len(points) > model_selection._SILHOUETTE_SAMPLE_LIMIT:
            sample = silhouette_rng.choice(len(points), model_selection._SILHOUETTE_SAMPLE_LIMIT,
                                           replace=False)
        expected = []
        for k in selection.candidates:
            labels = KMeans(num_clusters=k, num_init=1, random_state=sweep_rng).fit(points).labels
            expected.append(reference_silhouette_score(points[sample], labels[sample]))
        np.testing.assert_allclose(selection.silhouette_curve, expected, rtol=0, atol=1e-12)
        assert selection.num_clusters == selection.candidates[int(np.argmax(expected))]


class TestClusterRepresentations:
    def test_end_to_end_bounds(self, rng):
        points = _blobs(rng, num_blobs=8, per_blob=20)
        result, selection = cluster_representations(points, random_state=0)
        sizes = result.cluster_sizes()
        n = len(points)
        assert sizes.sum() == n
        assert selection.num_clusters == result.num_clusters
        # The 5%-15% constraint of the paper.
        assert np.all(sizes[sizes > 0] <= np.ceil(0.15 * n) + 1)

    def test_degenerate_small_input(self):
        points = np.zeros((2, 3))
        result, selection = cluster_representations(points, random_state=0)
        assert selection.method == "degenerate"
        assert len(result.labels) == 2
        assert set(result.labels.tolist()) == {0}

    def test_fixed_num_clusters_beyond_constraints_falls_back_to_plain_kmeans(self, rng):
        points = _blobs(rng, num_blobs=4, per_blob=10)
        # 30%-30% fractions leave one candidate, k = 4, whose 12-point
        # clusters cannot hold 40 points: plain K-Means must take over.
        result, selection = cluster_representations(points, min_fraction=0.3,
                                                    max_fraction=0.3, random_state=0)
        assert selection.method == "single_candidate"
        assert selection.num_clusters == 4
        assert result.num_clusters == 4
        assert len(result.labels) == len(points)
        assert sorted(result.cluster_sizes().tolist()) == [10, 10, 10, 10]
