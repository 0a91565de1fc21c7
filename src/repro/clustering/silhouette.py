"""Silhouette score (Rousseeuw) for clustering quality.

Used as the fallback criterion for choosing ``k`` when the Kneedle algorithm
does not find a knee (Section 3.3.1 of the paper).
"""

from __future__ import annotations

import numpy as np


def _pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distance matrix."""
    norms = np.sum(points * points, axis=1)
    squared = norms[:, None] - 2.0 * points @ points.T + norms[None, :]
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def silhouette_samples(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point silhouette coefficients.

    For point ``i`` with intra-cluster mean distance ``a`` and smallest
    mean distance to another cluster ``b``, the coefficient is
    ``(b - a) / max(a, b)``.  Points in singleton clusters receive 0.

    Every point's distance sum to every cluster comes from one product of
    the distance matrix (diagonal zeroed) with the one-hot label matrix, so
    the sums accumulate in BLAS order: the coefficients can differ from a
    point-by-point computation in the last digits.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels must have the same length")
    unique, clusters, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if len(unique) < 2:
        raise ValueError("Silhouette requires at least two clusters")

    n = len(points)
    rows = np.arange(n)
    distances = _pairwise_euclidean(points)
    np.fill_diagonal(distances, 0.0)
    onehot = np.zeros((n, len(unique)))
    onehot[rows, clusters] = 1.0
    sums = distances @ onehot

    own_sizes = sizes[clusters] - 1
    a = sums[rows, clusters] / np.maximum(own_sizes, 1)
    means = sums / sizes
    means[rows, clusters] = np.inf
    b = means.min(axis=1)
    denominator = np.maximum(a, b)
    scores = np.zeros(n)
    defined = (own_sizes > 0) & (denominator > 0)
    scores[defined] = (b[defined] - a[defined]) / denominator[defined]
    return scores


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points."""
    return float(np.mean(silhouette_samples(points, labels)))
