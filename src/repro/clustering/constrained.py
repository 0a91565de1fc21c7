"""Constrained K-Means: cluster sizes bounded between a minimum and a maximum.

The paper (Section 3.3.1) uses the constrained K-Means of Bradley, Bennett &
Demiriz to avoid clusters too small to be represented under the budget
distribution or too large to compare affordably; cluster sizes are constrained
to 5%–15% of the point count (Section 4.2).

The original formulation solves a minimum-cost flow problem for the assignment
step.  This implementation uses a greedy capacity-constrained assignment that
preserves the two guarantees the battleship algorithm relies on — no cluster
exceeds ``max_size`` and no cluster falls below ``min_size`` — while remaining
dependency-free and fast:

1. points are assigned in order of assignment confidence (margin between the
   best and second-best centroid) to their nearest centroid with remaining
   capacity;
2. clusters still below ``min_size`` afterwards steal the closest points from
   clusters that can spare them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import RandomState, ensure_rng
from repro.clustering.kmeans import (
    KMeansResult,
    _squared_distances,
    _squared_norms,
    kmeans_plus_plus_init,
)
from repro.exceptions import ConfigurationError, ConvergenceError


@dataclass(frozen=True)
class SizeConstraints:
    """Bounds on the size of every cluster."""

    min_size: int
    max_size: int

    def __post_init__(self) -> None:
        if self.min_size < 0:
            raise ConfigurationError("min_size must be >= 0")
        if self.max_size < max(self.min_size, 1):
            raise ConfigurationError("max_size must be >= max(min_size, 1)")

    def feasible(self, num_points: int, num_clusters: int) -> bool:
        """Whether ``num_points`` can be split into ``num_clusters`` clusters."""
        return (num_clusters * self.min_size <= num_points
                <= num_clusters * self.max_size)

    @classmethod
    def from_fractions(cls, num_points: int, min_fraction: float = 0.05,
                       max_fraction: float = 0.15) -> "SizeConstraints":
        """Bounds as fractions of the point count (the paper uses 0.05–0.15)."""
        if not 0.0 <= min_fraction <= max_fraction <= 1.0:
            raise ConfigurationError("Require 0 <= min_fraction <= max_fraction <= 1")
        min_size = int(np.floor(num_points * min_fraction))
        max_size = max(int(np.ceil(num_points * max_fraction)), 1)
        return cls(min_size=min_size, max_size=max_size)


class ConstrainedKMeans:
    """K-Means with per-cluster size bounds."""

    def __init__(self, num_clusters: int, constraints: SizeConstraints,
                 max_iterations: int = 50, random_state: RandomState = None) -> None:
        if num_clusters <= 0:
            raise ConfigurationError("num_clusters must be positive")
        self.num_clusters = num_clusters
        self.constraints = constraints
        self.max_iterations = max_iterations
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    # Assignment steps
    # ------------------------------------------------------------------ #
    def _capacity_assign(self, distances: np.ndarray) -> np.ndarray:
        """Greedy assignment respecting ``max_size`` capacities."""
        n, k = distances.shape
        # Every point's clusters, nearest first (the default sort kind, as
        # for one row at a time).
        preferences = np.argsort(distances, axis=1)
        nearest = np.take_along_axis(distances, preferences[:, :2], axis=1)
        # Margin between best and second-best centroid: confident points first.
        margins = (nearest[:, 1] - nearest[:, 0]) if k > 1 else nearest[:, 0]
        order = np.argsort(-margins)
        labels = [-1] * n
        capacities = [self.constraints.max_size] * k
        rows = preferences.tolist()
        for point in order.tolist():
            preference = rows[point]
            for cluster in preference:
                if capacities[cluster] > 0:
                    labels[point] = cluster
                    capacities[cluster] -= 1
                    break
            else:
                # All capacities exhausted; put the point in its nearest
                # cluster anyway (only possible when constraints are
                # infeasible, which fit() guards against).
                labels[point] = preference[0]
        return np.array(labels, dtype=np.int64)

    def _enforce_min_sizes(self, points: np.ndarray, point_norms: np.ndarray,
                           labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Move nearest spare points into clusters below ``min_size``.

        Each deficit cluster walks its distance order once: its centroid is
        fixed during the walk and donors only shrink, so a point passed over
        (a member already, or its cluster could not spare it) stays passed
        over.  A donor keeps at least ``min_size`` points, so the clusters
        short on entry are the only ones ever short; ``2.0 * points`` is
        computed once for all of them.
        """
        min_size = self.constraints.min_size
        if min_size <= 0:
            return labels
        assigned = labels.tolist()
        sizes = np.bincount(labels, minlength=self.num_clusters).tolist()
        short = [cluster for cluster, size in enumerate(sizes) if size < min_size]
        if not short:
            return labels
        doubled_points = 2.0 * points
        for cluster in short:
            distances = _squared_distances(doubled_points, point_norms,
                                           centroids[cluster:cluster + 1]).reshape(-1)
            for candidate in np.argsort(distances).tolist():
                source = assigned[candidate]
                if source != cluster and sizes[source] > min_size:
                    assigned[candidate] = cluster
                    sizes[source] -= 1
                    sizes[cluster] += 1
                    if sizes[cluster] == min_size:
                        break
            # A cluster still short here had no donor able to spare a point.
        return np.array(assigned, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
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
        point_norms = _squared_norms(points)
        doubled_points = 2.0 * points
        centroids = kmeans_plus_plus_init(points, self.num_clusters, rng)
        labels = np.zeros(n, dtype=np.int64)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            distances = _squared_distances(doubled_points, point_norms, centroids)
            new_labels = self._capacity_assign(distances)
            new_labels = self._enforce_min_sizes(points, point_norms, new_labels, centroids)
            for cluster in range(self.num_clusters):
                members = points[new_labels == cluster]
                if len(members) > 0:
                    centroids[cluster] = members.mean(axis=0)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                converged = True
                break
            labels = new_labels

        distances = _squared_distances(doubled_points, point_norms, centroids)
        inertia = float(distances[np.arange(n), labels].sum())
        return KMeansResult(labels=labels, centroids=centroids, inertia=inertia,
                            num_iterations=iteration, converged=converged)
