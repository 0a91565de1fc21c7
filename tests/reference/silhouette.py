"""Per-point silhouette loop: the oracle for ``repro.clustering.silhouette``.

It shares ``_pairwise_euclidean`` with the code it checks: the distance
matrix is the same in both, and what the oracle pins is how the per-cluster
means are taken from it.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.silhouette import _pairwise_euclidean


def silhouette_samples(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point silhouette coefficients, one point at a time.

    For point ``i`` with intra-cluster mean distance ``a`` and smallest
    mean distance to another cluster ``b``, the coefficient is
    ``(b - a) / max(a, b)``.  Points in singleton clusters receive 0.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels must have the same length")
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("Silhouette requires at least two clusters")

    distances = _pairwise_euclidean(points)
    n = len(points)
    scores = np.zeros(n)
    cluster_masks = {cluster: labels == cluster for cluster in unique}
    for i in range(n):
        own = cluster_masks[labels[i]].copy()
        own[i] = False
        own_size = int(np.sum(own))
        if own_size == 0:
            scores[i] = 0.0
            continue
        a = float(np.mean(distances[i, own]))
        b = np.inf
        for cluster in unique:
            if cluster == labels[i]:
                continue
            other = cluster_masks[cluster]
            b = min(b, float(np.mean(distances[i, other])))
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0 else (b - a) / denominator
    return scores


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points."""
    return float(np.mean(silhouette_samples(points, labels)))
