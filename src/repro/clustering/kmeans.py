"""K-Means clustering with k-means++ initialization (pure NumPy)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import RandomState, ensure_rng
from repro.exceptions import ConvergenceError


@dataclass
class KMeansResult:
    """Outcome of a K-Means run.

    Attributes
    ----------
    labels:
        Cluster index of each point.
    centroids:
        Cluster centroids, shape ``(k, dim)``.
    inertia:
        Sum of squared distances of points to their assigned centroid.
    num_iterations:
        Iterations executed before convergence (or the iteration cap).
    converged:
        Whether assignments stopped changing before the iteration cap.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    num_iterations: int
    converged: bool

    @property
    def num_clusters(self) -> int:
        return len(self.centroids)

    def cluster_sizes(self) -> np.ndarray:
        """Number of points assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.num_clusters)


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """``||x||^2`` of every point as a column.  Computed once per fit (and
    once per k-means++ seeding) and passed to every
    :func:`_squared_distances` call on the same points."""
    return np.sum(points * points, axis=1, keepdims=True)


def _squared_distances(doubled_points: np.ndarray, point_norms: np.ndarray,
                       centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every point and every centroid.

    ``doubled_points`` is ``2.0 * points`` and ``point_norms`` is
    :func:`_squared_norms` of ``points``: callers compute both once and
    reuse them across calls, so no call rescales all n x d points.
    """
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2
    centroid_norms = np.sum(centroids * centroids, axis=1)
    distances = point_norms - doubled_points @ centroids.T + centroid_norms
    np.maximum(distances, 0.0, out=distances)
    return distances


def kmeans_plus_plus_init(points: np.ndarray, num_clusters: int,
                          rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to distance."""
    n = len(points)
    point_norms = _squared_norms(points)
    doubled_points = 2.0 * points
    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = _squared_distances(doubled_points, point_norms, centroids[:1]).reshape(-1)
    for index in range(1, num_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            choice = int(rng.integers(0, n))
        else:
            probabilities = closest / total
            choice = int(rng.choice(n, p=probabilities))
        centroids[index] = points[choice]
        distances = _squared_distances(doubled_points, point_norms,
                                       centroids[index:index + 1]).reshape(-1)
        np.minimum(closest, distances, out=closest)
    return centroids


class KMeans:
    """Lloyd's algorithm with k-means++ initialization.

    Parameters
    ----------
    num_clusters:
        Number of clusters ``k``.
    max_iterations:
        Iteration cap for Lloyd's loop.
    tolerance:
        Relative centroid-movement threshold for convergence.
    num_init:
        Number of independent restarts; the run with the lowest inertia wins.
    """

    def __init__(self, num_clusters: int, max_iterations: int = 100,
                 tolerance: float = 1e-4, num_init: int = 3,
                 random_state: RandomState = None) -> None:
        if num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if num_init <= 0:
            raise ValueError("num_init must be positive")
        self.num_clusters = num_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.num_init = num_init
        self.random_state = random_state

    def _single_run(self, points: np.ndarray, point_norms: np.ndarray,
                    doubled_points: np.ndarray, rng: np.random.Generator) -> KMeansResult:
        centroids = kmeans_plus_plus_init(points, self.num_clusters, rng)
        labels = np.zeros(len(points), dtype=np.int64)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            distances = _squared_distances(doubled_points, point_norms, centroids)
            new_labels = np.argmin(distances, axis=1)
            new_centroids = centroids.copy()
            for cluster in range(self.num_clusters):
                members = points[new_labels == cluster]
                if len(members) > 0:
                    new_centroids[cluster] = members.mean(axis=0)
            shift = float(np.linalg.norm(new_centroids - centroids))
            scale = float(np.linalg.norm(centroids)) or 1.0
            centroids = new_centroids
            if np.array_equal(new_labels, labels) or shift / scale < self.tolerance:
                labels = new_labels
                converged = True
                break
            labels = new_labels

        distances = _squared_distances(doubled_points, point_norms, centroids)
        inertia = float(distances[np.arange(len(points)), labels].sum())
        return KMeansResult(labels=labels, centroids=centroids, inertia=inertia,
                            num_iterations=iteration, converged=converged)

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` and return the best of ``num_init`` restarts."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a 2-dimensional array")
        if len(points) < self.num_clusters:
            raise ConvergenceError(
                f"Cannot form {self.num_clusters} clusters from {len(points)} points"
            )
        rng = ensure_rng(self.random_state)
        point_norms = _squared_norms(points)
        doubled_points = 2.0 * points
        best: KMeansResult | None = None
        for _ in range(self.num_init):
            result = self._single_run(points, point_norms, doubled_points, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best


def average_cluster_sse(points: np.ndarray, result: KMeansResult) -> float:
    """Average over clusters of the mean squared member-to-centroid distance."""
    points = np.asarray(points, dtype=np.float64)
    values = []
    for cluster in range(result.num_clusters):
        members = points[result.labels == cluster]
        if len(members) == 0:
            continue
        centroid = result.centroids[cluster]
        values.append(float(np.mean(np.sum((members - centroid) ** 2, axis=1))))
    return float(np.mean(values)) if values else 0.0
