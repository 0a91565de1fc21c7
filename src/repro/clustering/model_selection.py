"""Choosing the number of clusters as described in Section 3.3.1.

Candidate values of ``k`` are those for which the cluster-size constraints
(5%–15% of the point count by default) are feasible.  For each candidate a
plain K-Means run records the average within-cluster sum of squared distances;
the Kneedle algorithm picks the elbow of that curve.  Only if it finds none
are the candidates' clusterings scored by silhouette, and the highest score
wins; the silhouette curve is recorded on that fallback alone.  The final
clustering is produced by
:class:`~repro.clustering.constrained.ConstrainedKMeans` with the selected
``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.clustering.constrained import ConstrainedKMeans, SizeConstraints
from repro.clustering.kmeans import KMeans, KMeansResult, average_cluster_sse
from repro.clustering.kneedle import find_knee_index
from repro.clustering.silhouette import silhouette_score
from repro.exceptions import ConfigurationError

#: Upper bound on the number of candidate k values evaluated during selection.
_MAX_CANDIDATES = 8
#: Silhouette computation is O(n^2); subsample beyond this many points.
_SILHOUETTE_SAMPLE_LIMIT = 1500


@dataclass
class ClusterSelection:
    """Outcome of the cluster-count selection procedure.

    ``method`` names what decided ``num_clusters``: ``"kneedle"``,
    ``"silhouette"`` (Kneedle found no knee), ``"single_candidate"`` (the
    size bounds allow one ``k``) or ``"degenerate"`` (fewer than four points,
    one cluster).  ``silhouette_curve`` has one score per
    candidate when ``method == "silhouette"`` and is empty otherwise, because
    silhouettes are only computed on that fallback.
    """

    num_clusters: int
    method: str
    candidates: list[int] = field(default_factory=list)
    sse_curve: list[float] = field(default_factory=list)
    silhouette_curve: list[float] = field(default_factory=list)


def candidate_cluster_counts(num_points: int, min_fraction: float = 0.05,
                             max_fraction: float = 0.15,
                             max_candidates: int = _MAX_CANDIDATES) -> list[int]:
    """Feasible ``k`` values under the fractional size constraints."""
    if num_points < 2:
        return [1]
    if not 0.0 < min_fraction <= max_fraction <= 1.0:
        raise ConfigurationError("Require 0 < min_fraction <= max_fraction <= 1")
    lowest = max(2, int(np.ceil(1.0 / max_fraction)))
    highest = max(lowest, int(np.floor(1.0 / min_fraction)))
    highest = min(highest, num_points)
    lowest = min(lowest, highest)
    candidates = list(range(lowest, highest + 1))
    if len(candidates) > max_candidates:
        positions = np.linspace(0, len(candidates) - 1, max_candidates)
        candidates = sorted({candidates[int(round(p))] for p in positions})
    return candidates


def select_num_clusters(points: np.ndarray, min_fraction: float = 0.05,
                        max_fraction: float = 0.15,
                        random_state: RandomState = None) -> ClusterSelection:
    """Select ``k`` with Kneedle over the SSE curve, silhouette as fallback."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    rng = ensure_rng(random_state)
    candidates = candidate_cluster_counts(len(points), min_fraction, max_fraction)
    if len(candidates) == 1:
        return ClusterSelection(num_clusters=candidates[0], method="single_candidate",
                                candidates=candidates)

    sweep_rng, silhouette_rng = spawn_rng(rng, 2)
    sse_curve: list[float] = []
    labelings: list[np.ndarray] = []
    for k in candidates:
        result = KMeans(num_clusters=k, num_init=1, random_state=sweep_rng).fit(points)
        sse_curve.append(average_cluster_sse(points, result))
        labelings.append(result.labels)

    knee_index = find_knee_index(np.asarray(candidates, dtype=float),
                                 np.asarray(sse_curve), decreasing=True)
    if knee_index is not None:
        return ClusterSelection(num_clusters=candidates[knee_index], method="kneedle",
                                candidates=candidates, sse_curve=sse_curve)

    # Kneedle found no knee: score every candidate.  ``silhouette_rng`` feeds
    # only this draw, so the sample does not depend on when it is drawn.
    if len(points) > _SILHOUETTE_SAMPLE_LIMIT:
        sample = silhouette_rng.choice(len(points), _SILHOUETTE_SAMPLE_LIMIT, replace=False)
    else:
        sample = np.arange(len(points))
    sample_points = points[sample]
    silhouette_curve: list[float] = []
    for labels in labelings:
        sample_labels = labels[sample]
        if len(np.unique(sample_labels)) >= 2:
            silhouette_curve.append(silhouette_score(sample_points, sample_labels))
        else:
            silhouette_curve.append(-1.0)
    best = int(np.argmax(silhouette_curve))
    return ClusterSelection(num_clusters=candidates[best], method="silhouette",
                            candidates=candidates, sse_curve=sse_curve,
                            silhouette_curve=silhouette_curve)


def cluster_representations(points: np.ndarray, min_fraction: float = 0.05,
                            max_fraction: float = 0.15,
                            random_state: RandomState = None,
                            ) -> tuple[KMeansResult, ClusterSelection]:
    """Select ``k`` and run constrained K-Means, as the battleship pipeline does.

    ``points`` is converted to one contiguous float64 block here and passed
    through unchanged to the sweep and the final fit, so callers handing over
    a representation matrix (e.g. the battleship selector, which reuses the
    same block for the vectorized graph builder) pay for at most one copy.
    Fewer than four points form one cluster.  Falls back to plain K-Means
    when the size constraints are infeasible for the selected ``k`` (the
    fractions can allow a single ``k`` whose bounds do not fit the point
    count).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    rng = ensure_rng(random_state)
    selection_rng, final_rng = spawn_rng(rng, 2)

    if len(points) < 4:
        labels = np.zeros(len(points), dtype=np.int64)
        centroid = points.mean(axis=0, keepdims=True) if len(points) else np.zeros((1, 1))
        result = KMeansResult(labels=labels, centroids=centroid, inertia=0.0,
                              num_iterations=0, converged=True)
        return result, ClusterSelection(num_clusters=1, method="degenerate")

    selection = select_num_clusters(points, min_fraction, max_fraction, selection_rng)
    constraints = SizeConstraints.from_fractions(len(points), min_fraction, max_fraction)
    if constraints.feasible(len(points), selection.num_clusters):
        model = ConstrainedKMeans(selection.num_clusters, constraints,
                                  random_state=final_rng)
    else:
        model = KMeans(selection.num_clusters, random_state=final_rng)
    return model.fit(points), selection
