"""Constrained K-Means with per-point Python loops: the oracle for
``repro.clustering.constrained.ConstrainedKMeans``.

The distance helper and the k-means++ seeding are copied with it, so the
oracle does not depend on the code it checks.
"""

from __future__ import annotations

import numpy as np

from repro._rng import RandomState, ensure_rng
from repro.clustering.constrained import SizeConstraints
from repro.clustering.kmeans import KMeansResult
from repro.exceptions import ConfigurationError, ConvergenceError


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every point and every centroid."""
    point_norms = np.sum(points * points, axis=1, keepdims=True)
    centroid_norms = np.sum(centroids * centroids, axis=1)
    distances = point_norms - 2.0 * points @ centroids.T + centroid_norms
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans_plus_plus_init(points: np.ndarray, num_clusters: int,
                          rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to distance."""
    n = len(points)
    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = _squared_distances(points, centroids[:1]).reshape(-1)
    for index in range(1, num_clusters):
        total = closest.sum()
        if total <= 0:
            choice = int(rng.integers(0, n))
        else:
            probabilities = closest / total
            choice = int(rng.choice(n, p=probabilities))
        centroids[index] = points[choice]
        distances = _squared_distances(points, centroids[index:index + 1]).reshape(-1)
        np.minimum(closest, distances, out=closest)
    return centroids


class ConstrainedKMeans:
    """K-Means with per-cluster size bounds, one point at a time."""

    def __init__(self, num_clusters: int, constraints: SizeConstraints,
                 max_iterations: int = 50, random_state: RandomState = None) -> None:
        if num_clusters <= 0:
            raise ConfigurationError("num_clusters must be positive")
        self.num_clusters = num_clusters
        self.constraints = constraints
        self.max_iterations = max_iterations
        self.random_state = random_state

    def _capacity_assign(self, distances: np.ndarray) -> np.ndarray:
        """Greedy assignment respecting ``max_size`` capacities."""
        n, k = distances.shape
        max_size = self.constraints.max_size
        order_scores = np.sort(distances, axis=1)
        # Margin between best and second-best centroid: confident points first.
        margins = (order_scores[:, 1] - order_scores[:, 0]) if k > 1 else order_scores[:, 0]
        order = np.argsort(-margins)
        labels = np.full(n, -1, dtype=np.int64)
        capacities = np.full(k, max_size, dtype=np.int64)
        for point in order:
            preference = np.argsort(distances[point])
            for cluster in preference:
                if capacities[cluster] > 0:
                    labels[point] = cluster
                    capacities[cluster] -= 1
                    break
            if labels[point] < 0:
                labels[point] = int(preference[0])
        return labels

    def _enforce_min_sizes(self, points: np.ndarray, labels: np.ndarray,
                           centroids: np.ndarray) -> np.ndarray:
        """Move nearest spare points into clusters below ``min_size``."""
        min_size = self.constraints.min_size
        if min_size <= 0:
            return labels
        labels = labels.copy()
        for cluster in range(self.num_clusters):
            deficit = min_size - int(np.sum(labels == cluster))
            while deficit > 0:
                distances = _squared_distances(points, centroids[cluster:cluster + 1]).reshape(-1)
                candidate_order = np.argsort(distances)
                moved = False
                for candidate in candidate_order:
                    source = labels[candidate]
                    if source == cluster:
                        continue
                    if np.sum(labels == source) - 1 >= min_size:
                        labels[candidate] = cluster
                        deficit -= 1
                        moved = True
                        break
                if not moved:
                    break
        return labels

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` subject to the size constraints."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be 2-dimensional")
        n = len(points)
        if n < self.num_clusters:
            raise ConvergenceError(
                f"Cannot form {self.num_clusters} clusters from {n} points"
            )
        if not self.constraints.feasible(n, self.num_clusters):
            raise ConfigurationError(
                f"Size constraints [{self.constraints.min_size}, "
                f"{self.constraints.max_size}] are infeasible for {n} points and "
                f"{self.num_clusters} clusters"
            )

        rng = ensure_rng(self.random_state)
        centroids = kmeans_plus_plus_init(points, self.num_clusters, rng)
        labels = np.zeros(n, dtype=np.int64)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            distances = _squared_distances(points, centroids)
            new_labels = self._capacity_assign(distances)
            new_labels = self._enforce_min_sizes(points, new_labels, centroids)
            for cluster in range(self.num_clusters):
                members = points[new_labels == cluster]
                if len(members) > 0:
                    centroids[cluster] = members.mean(axis=0)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                converged = True
                break
            labels = new_labels

        distances = _squared_distances(points, centroids)
        inertia = float(distances[np.arange(n), labels].sum())
        return KMeansResult(labels=labels, centroids=centroids, inertia=inertia,
                            num_iterations=iteration, converged=converged)
