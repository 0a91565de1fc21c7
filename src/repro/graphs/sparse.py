"""The CSR pair graph and the batched kernels of the battleship selector.

:class:`SparseAdjacency` stores a pair graph (Section 3.3) in compressed
sparse-row form (parallel arrays ``indptr`` / ``indices`` / ``weights``)
together with per-node attributes indexed by position.  It is the only pair
graph representation: the selector builds ``G``, ``G+`` and ``G-`` with
:func:`build_sparse_adjacency` and scores them with the batched kernels.

:func:`build_sparse_adjacency` implements the edge-creation procedure of
Section 3.3.2 without a Python pair loop: within each cluster, the q nearest
allowed neighbours per node are found with ``np.argpartition`` and the extra
top-similarity edges with one stable argsort over the remaining upper-triangle
pairs.  :func:`spatial_confidence_batch` and :func:`certainty_scores_batch`
(Eqs. 3-4) and :func:`pagerank_components` (Eq. 5) are single scatter/gather
passes over the edge arrays.  The node-at-a-time versions they are checked
against live in the test suite's reference package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.graphs.components import connected_component_labels
from repro.graphs.entropy import combined_certainty
from repro.graphs.pagerank import edge_pagerank
from repro.text.vectorizers import cosine_similarity_matrix


def _top_k_stable(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, ties broken by position.

    Equivalent to ``np.argsort(-values, kind="stable")[:k]`` but only
    stable-sorts the boundary tie group after an O(n) partition, which matters
    when ``k`` is a small share of a large candidate set.
    """
    if k >= values.size:
        return np.argsort(-values, kind="stable")[:k]
    threshold = values[np.argpartition(-values, k - 1)[:k]].min()
    pool = np.flatnonzero(values >= threshold)
    return pool[np.argsort(-values[pool], kind="stable")[:k]]


def compute_cluster_edges(
    similarities: np.ndarray,
    labeled_mask: np.ndarray,
    num_neighbors: int,
    extra_edge_ratio: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge list of one cluster, vectorized (Section 3.3.2).

    Stage 1 connects every node to its ``q`` most similar *allowed* neighbours
    (self-similarity and labeled-labeled pairs are masked out); stage 2 adds
    the top ``extra_edge_ratio`` share of the remaining allowed pairs in
    descending similarity order, ties broken by upper-triangle (row-major)
    position.  Returns ``(u, v, weight)`` arrays of local positions with
    ``u < v``.  Stage 2 is O(size^2) in memory, the same order as the
    similarity matrix itself.
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    size = similarities.shape[0]
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0, dtype=np.float64))
    if size < 2:
        return empty
    labeled_mask = np.asarray(labeled_mask, dtype=bool)

    masked = similarities.copy()
    np.fill_diagonal(masked, -np.inf)
    labeled_positions = np.flatnonzero(labeled_mask)
    if labeled_positions.size > 1:
        masked[np.ix_(labeled_positions, labeled_positions)] = -np.inf

    # Stage 1: q nearest allowed neighbours per node.
    q = min(num_neighbors, size - 1)
    top = np.argpartition(-masked, q - 1, axis=1)[:, :q]
    rows = np.repeat(np.arange(size), q)
    cols = top.reshape(-1)
    allowed = np.isfinite(masked[rows, cols])
    rows, cols = rows[allowed], cols[allowed]
    keys = np.unique(np.minimum(rows, cols) * size + np.maximum(rows, cols))
    nn_u, nn_v = keys // size, keys % size

    # Stage 2: top extra_edge_ratio share of the remaining allowed pairs.
    total_pairs = size * (size - 1) // 2
    extra_budget = int(np.floor(extra_edge_ratio * (total_pairs - keys.size)))
    if extra_budget > 0:
        created = np.zeros((size, size), dtype=bool)
        created[nn_u, nn_v] = True
        iu, iv = np.triu_indices(size, k=1)
        candidate = ~created[iu, iv] & ~(labeled_mask[iu] & labeled_mask[iv])
        cu, cv = iu[candidate], iv[candidate]
        order = _top_k_stable(similarities[cu, cv], extra_budget)
        edges_u = np.concatenate([nn_u, cu[order]])
        edges_v = np.concatenate([nn_v, cv[order]])
    else:
        edges_u, edges_v = nn_u, nn_v
    return (edges_u.astype(np.int64), edges_v.astype(np.int64),
            similarities[edges_u, edges_v])


@dataclass(frozen=True)
class SparseAdjacency:
    """Undirected weighted pair graph in CSR form over positions ``0..num_nodes-1``.

    ``indices[indptr[i]:indptr[i+1]]`` are the neighbour positions of node
    ``i`` and ``weights[...]`` the matching edge weights, the cosine
    similarities of the pair representations (each undirected edge appears in
    both endpoint rows).  ``edges_u`` / ``edges_v`` / ``edge_weights`` list
    every undirected edge once with ``u < v``.

    Node attributes are arrays indexed by position:

    ``node_ids``
        Dataset-level index of the candidate pair.
    ``predictions``
        Predicted (or, for labeled nodes, actual) class: 1 match / 0 non-match.
    ``confidences``
        Confidence of the matcher in the prediction, ``max(p, 1 - p)`` for
        pool pairs and exactly 1.0 for labeled pairs (Section 3.5.1).
    ``match_probabilities``
        The matcher's probability that the pair is a match (1.0 / 0.0 for
        labeled matches / non-matches).
    ``labeled_mask``
        Whether the pair is already in the labeled training set.
    """

    node_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    predictions: np.ndarray
    confidences: np.ndarray
    match_probabilities: np.ndarray
    labeled_mask: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray
    edge_weights: np.ndarray

    @classmethod
    def from_edges(
        cls,
        *,
        node_ids: Sequence[int],
        predictions: Sequence[int],
        confidences: Sequence[float],
        match_probabilities: Sequence[float],
        labeled_mask: Sequence[bool],
        edges_u: Sequence[int],
        edges_v: Sequence[int],
        edge_weights: Sequence[float],
    ) -> "SparseAdjacency":
        """Assemble the CSR rows from node attributes and an undirected edge list.

        ``edges_u`` / ``edges_v`` are node positions with ``u < v``, one entry
        per undirected edge.  Rows list their neighbours in edge-list order.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        edges_u = np.asarray(edges_u, dtype=np.int64)
        edges_v = np.asarray(edges_v, dtype=np.int64)
        edge_weights = np.asarray(edge_weights, dtype=np.float64)
        n = len(node_ids)
        sources = np.concatenate([edges_u, edges_v])
        targets = np.concatenate([edges_v, edges_u])
        doubled = np.concatenate([edge_weights, edge_weights])
        order = np.argsort(sources, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
        return cls(
            node_ids=node_ids,
            indptr=indptr,
            indices=targets[order],
            weights=doubled[order],
            predictions=np.asarray(predictions, dtype=np.int64),
            confidences=np.asarray(confidences, dtype=np.float64),
            match_probabilities=np.asarray(match_probabilities, dtype=np.float64),
            labeled_mask=np.asarray(labeled_mask, dtype=bool),
            edges_u=edges_u,
            edges_v=edges_v,
            edge_weights=edge_weights,
        )

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges_u)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour positions and edge weights of the node at ``position``."""
        start, end = self.indptr[position], self.indptr[position + 1]
        return self.indices[start:end], self.weights[start:end]

    @cached_property
    def _component_labels(self) -> np.ndarray:
        return connected_component_labels(self.num_nodes, self.edges_u, self.edges_v)

    def component_labels(self) -> np.ndarray:
        """Connected-component label per position (computed once, then cached —
        the arrays are immutable by convention)."""
        return self._component_labels

    def components(self) -> list[set[int]]:
        """Connected components as node-id sets, largest first.

        Isolated nodes are singletons.  Components of equal size keep the
        order of their first node's position.  The budget distribution of
        Section 3.4 walks components in this order.
        """
        members: dict[int, list[int]] = {}
        for position, label in enumerate(self.component_labels().tolist()):
            members.setdefault(label, []).append(position)
        ordered = sorted(members.values(), key=len, reverse=True)
        return [{int(self.node_ids[position]) for position in group}
                for group in ordered]


def coerce_builder_inputs(
    node_ids: Sequence[int],
    predictions: Sequence[int],
    confidences: Sequence[float],
    match_probabilities: Sequence[float],
    labeled_mask: Sequence[bool],
    cluster_labels: Sequence[int] | None,
    num_neighbors: int,
    extra_edge_ratio: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coercion and validation of :func:`build_sparse_adjacency`'s inputs.

    Returns ``(node_ids, predictions, confidences, match_probabilities,
    labeled_mask, cluster_labels)`` as typed arrays.  Empty input returns
    empty arrays without validating the parameters (the builder returns an
    empty graph in that case).
    """
    node_ids = np.asarray(list(node_ids), dtype=np.int64)
    n = len(node_ids)
    if n == 0:
        return (node_ids, np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0), np.empty(0, dtype=bool), np.empty(0, dtype=np.int64))
    predictions = np.asarray(predictions, dtype=np.int64)
    confidences = np.asarray(confidences, dtype=np.float64)
    match_probabilities = np.asarray(match_probabilities, dtype=np.float64)
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    for name, array in (("predictions", predictions), ("confidences", confidences),
                        ("match_probabilities", match_probabilities),
                        ("labeled_mask", labeled_mask)):
        if len(array) != n:
            raise ValueError(f"{name} must have length {n}, got {len(array)}")
    if cluster_labels is None:
        cluster_labels = np.zeros(n, dtype=np.int64)
    else:
        cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
        if len(cluster_labels) != n:
            raise ValueError(f"cluster_labels must have length {n}")
    if num_neighbors < 1:
        raise ValueError("num_neighbors must be >= 1")
    if not 0.0 <= extra_edge_ratio <= 1.0:
        raise ValueError("extra_edge_ratio must be in [0, 1]")
    return (node_ids, predictions, confidences, match_probabilities,
            labeled_mask, cluster_labels)


def build_sparse_adjacency(
    representations: np.ndarray,
    node_ids: Sequence[int],
    predictions: Sequence[int],
    confidences: Sequence[float],
    match_probabilities: Sequence[float],
    labeled_mask: Sequence[bool],
    cluster_labels: Sequence[int] | None = None,
    num_neighbors: int = 15,
    extra_edge_ratio: float = 0.03,
    similarity_matrix: np.ndarray | None = None,
) -> SparseAdjacency:
    """Build the CSR pair graph following Section 3.3.2.

    Parameters
    ----------
    representations:
        Pair representations, one row per node (aligned with ``node_ids``).
    node_ids:
        Dataset-level indices of the pairs.
    predictions / confidences / match_probabilities / labeled_mask:
        Node attributes (see :class:`SparseAdjacency`).
    cluster_labels:
        Cluster assignment per node; edges are only created inside a cluster.
        ``None`` treats all nodes as one cluster.
    num_neighbors:
        ``q`` of the paper: every node is connected to its ``q`` nearest
        neighbours within its cluster.
    extra_edge_ratio:
        Fraction of the *remaining* intra-cluster node pairs (after the
        nearest-neighbour stage) added as extra edges, in descending
        similarity order.
    similarity_matrix:
        Optional pre-computed cosine similarity matrix aligned with
        ``node_ids`` (used by tests that specify similarities explicitly).

    Two already-labeled nodes are never connected directly (Example 4).  The
    edge set equals that of the seed's node-at-a-time builder, up to tie
    order among equal similarities.
    """
    (node_ids, predictions, confidences, match_probabilities,
     labeled_mask, cluster_labels) = coerce_builder_inputs(
        node_ids, predictions, confidences, match_probabilities,
        labeled_mask, cluster_labels, num_neighbors, extra_edge_ratio)

    parts_u = [np.empty(0, dtype=np.int64)]
    parts_v = [np.empty(0, dtype=np.int64)]
    parts_w = [np.empty(0, dtype=np.float64)]
    for cluster in np.unique(cluster_labels):
        positions = np.flatnonzero(cluster_labels == cluster)
        if len(positions) < 2:
            continue
        if similarity_matrix is not None:
            cluster_similarities = similarity_matrix[np.ix_(positions, positions)]
        else:
            cluster_similarities = cosine_similarity_matrix(representations[positions])
        local_u, local_v, local_w = compute_cluster_edges(
            cluster_similarities, labeled_mask[positions],
            num_neighbors, extra_edge_ratio)
        parts_u.append(positions[local_u])
        parts_v.append(positions[local_v])
        parts_w.append(local_w)

    return SparseAdjacency.from_edges(
        node_ids=node_ids,
        predictions=predictions,
        confidences=confidences,
        match_probabilities=match_probabilities,
        labeled_mask=labeled_mask,
        edges_u=np.concatenate(parts_u),
        edges_v=np.concatenate(parts_v),
        edge_weights=np.concatenate(parts_w),
    )


def spatial_confidence_batch(adjacency: SparseAdjacency) -> np.ndarray:
    """Spatial confidence (Eq. 3) for every node in one pass.

    The spatial confidence of a node is the weighted share of its
    neighbourhood's confidence mass that agrees with its own prediction;
    each neighbour contributes ``edge weight * neighbour confidence``.
    Returns an array aligned with ``adjacency.node_ids``.  Nodes without
    neighbours, or whose neighbourhood confidence mass is non-positive, fall
    back to their own model confidence, which reduces Eq. 4 to plain
    conditional entropy.
    """
    n = adjacency.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.float64)
    rows = np.repeat(np.arange(n), adjacency.degrees)
    contributions = adjacency.weights * adjacency.confidences[adjacency.indices]
    agree = adjacency.predictions[adjacency.indices] == adjacency.predictions[rows]
    denominator = np.bincount(rows, weights=contributions, minlength=n)
    numerator = np.bincount(rows, weights=np.where(agree, contributions, 0.0),
                            minlength=n)
    positive = denominator > 0.0
    return np.where(positive,
                    numerator / np.where(positive, denominator, 1.0),
                    adjacency.confidences)


def certainty_scores_batch(adjacency: SparseAdjacency, beta: float = 0.5) -> np.ndarray:
    """Certainty scores (Eq. 4) for every node in one batched pass.

    ``beta * H(confidence) + (1 - beta) * H(spatial confidence)``, returned as
    an array aligned with ``adjacency.node_ids``.  Higher scores mean more
    uncertain nodes, which the selector prefers.
    """
    return np.asarray(combined_certainty(
        adjacency.confidences, spatial_confidence_batch(adjacency), beta),
        dtype=np.float64).reshape(adjacency.num_nodes)


def pagerank_components(
    adjacency: SparseAdjacency,
    components: Iterable[set[int]] | None = None,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> dict[int, float]:
    """Per-component PageRank (Eq. 5) over the CSR adjacency.

    Every component is scored independently by sparse power iteration
    (scatter-add over its edge arrays, no dense matrix) and normalized within
    itself.  ``components`` must be the graph's own connected components, as
    returned by :meth:`SparseAdjacency.components` (the default); callers
    that already hold them pass them in to avoid recomputing them.
    """
    if adjacency.num_nodes == 0:
        return {}
    if components is None:
        components = adjacency.components()
    position_of = {int(node_id): position
                   for position, node_id in enumerate(adjacency.node_ids.tolist())}
    labels = adjacency.component_labels()
    # Group the undirected edges by component once; every edge is
    # intra-component by construction.
    edge_labels = labels[adjacency.edges_u]
    edge_order = np.argsort(edge_labels, kind="stable")
    sorted_u = adjacency.edges_u[edge_order]
    sorted_v = adjacency.edges_v[edge_order]
    sorted_w = adjacency.edge_weights[edge_order]
    sorted_labels = edge_labels[edge_order]

    scores: dict[int, float] = {}
    for component in components:
        positions = np.sort(np.fromiter(
            (position_of[int(node_id)] for node_id in component),
            dtype=np.int64, count=len(component)))
        size = positions.size
        if size == 1:
            scores[int(adjacency.node_ids[positions[0]])] = 1.0
            continue
        label = labels[positions[0]]
        low = np.searchsorted(sorted_labels, label, side="left")
        high = np.searchsorted(sorted_labels, label, side="right")
        # Positions inside the component, renumbered 0..size-1.
        local_u = np.searchsorted(positions, sorted_u[low:high])
        local_v = np.searchsorted(positions, sorted_v[low:high])
        component_w = sorted_w[low:high]
        member_scores = edge_pagerank(
            np.concatenate([local_u, local_v]),
            np.concatenate([local_v, local_u]),
            np.concatenate([component_w, component_w]),
            num_nodes=size, damping=damping,
            max_iterations=max_iterations, tolerance=tolerance,
        )
        for local, position in enumerate(positions.tolist()):
            scores[int(adjacency.node_ids[position])] = float(member_scores[local])
    return scores
