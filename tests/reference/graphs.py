"""The node-at-a-time pair graph over plain dicts: the oracle for
``repro.graphs.sparse``.

A :class:`DictGraph` keeps node attributes and weighted adjacency in dicts
keyed by node id.  :func:`build_pair_graph` creates the edges of
Section 3.3.2 one node and one pair at a time, :func:`spatial_confidence` and
:func:`certainty_score` walk one node's neighbourhood (Eqs. 3-4), and
:func:`pagerank_per_component` scores each connected component on its own
(Eq. 5).  The CSR builder and its batched kernels must agree with these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.graphs.entropy import conditional_entropy
from repro.graphs.pagerank import edge_pagerank
from repro.text.vectorizers import cosine_similarity_matrix


@dataclass(frozen=True)
class Node:
    """Attributes of one pair node (see ``SparseAdjacency``)."""

    prediction: int
    confidence: float
    match_probability: float
    labeled: bool = False


@dataclass
class DictGraph:
    """Undirected weighted graph: ``nodes[id]`` and ``adjacency[id][neighbour]``."""

    nodes: dict[int, Node] = field(default_factory=dict)
    adjacency: dict[int, dict[int, float]] = field(default_factory=dict)

    def add_node(self, node_id: int, node: Node) -> None:
        self.nodes[node_id] = node
        self.adjacency.setdefault(node_id, {})

    def add_edge(self, u: int, v: int, weight: float) -> None:
        self.adjacency[u][v] = float(weight)
        self.adjacency[v][u] = float(weight)

    def edges(self) -> list[tuple[int, int, float]]:
        """Every edge once as ``(u, v, weight)`` with ``u < v``."""
        return [(u, v, weight) for u, neighbours in self.adjacency.items()
                for v, weight in neighbours.items() if u < v]


def build_pair_graph(
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
) -> DictGraph:
    """The seed builder: O(n^2) Python loops per cluster.

    Takes the parameters of ``repro.graphs.sparse.build_sparse_adjacency``.
    """
    node_ids = [int(node_id) for node_id in node_ids]
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    graph = DictGraph()
    for position, node_id in enumerate(node_ids):
        graph.add_node(node_id, Node(
            prediction=int(predictions[position]),
            confidence=float(confidences[position]),
            match_probability=float(match_probabilities[position]),
            labeled=bool(labeled_mask[position]),
        ))
    if cluster_labels is None:
        cluster_labels = np.zeros(len(node_ids), dtype=np.int64)
    cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
    for cluster in np.unique(cluster_labels):
        positions = np.flatnonzero(cluster_labels == cluster)
        if len(positions) < 2:
            continue
        if similarity_matrix is not None:
            similarities = similarity_matrix[np.ix_(positions, positions)]
        else:
            similarities = cosine_similarity_matrix(representations[positions])
        _add_cluster_edges(graph, positions, node_ids, labeled_mask,
                           similarities, num_neighbors, extra_edge_ratio)
    return graph


def _add_cluster_edges(
    graph: DictGraph,
    positions: np.ndarray,
    node_ids: Sequence[int],
    labeled_mask: np.ndarray,
    similarities: np.ndarray,
    num_neighbors: int,
    extra_edge_ratio: float,
) -> None:
    """Create the q-NN edges and the extra top-similarity edges for one cluster."""
    size = len(positions)
    created: set[tuple[int, int]] = set()

    def is_allowed(local_u: int, local_v: int) -> bool:
        # Two already-labeled pairs are never connected directly (Example 4).
        return not (labeled_mask[positions[local_u]] and labeled_mask[positions[local_v]])

    # Stage 1: each node connects to its q nearest (allowed) neighbours.
    q = min(num_neighbors, size - 1)
    for local_u in range(size):
        added = 0
        for local_v in np.argsort(-similarities[local_u]):
            if added >= q:
                break
            if local_v == local_u or not is_allowed(local_u, local_v):
                continue
            key = (min(local_u, local_v), max(local_u, local_v))
            if key not in created:
                created.add(key)
                graph.add_edge(node_ids[positions[local_u]],
                               node_ids[positions[local_v]],
                               float(similarities[local_u, local_v]))
            added += 1

    # Stage 2: add the top extra_edge_ratio share of the remaining pairs.
    remaining = size * (size - 1) // 2 - len(created)
    extra_budget = int(np.floor(extra_edge_ratio * remaining))
    if extra_budget <= 0:
        return
    candidates: list[tuple[float, int, int]] = []
    for local_u in range(size):
        for local_v in range(local_u + 1, size):
            if (local_u, local_v) in created or not is_allowed(local_u, local_v):
                continue
            candidates.append((float(similarities[local_u, local_v]), local_u, local_v))
    candidates.sort(key=lambda item: -item[0])
    for weight, local_u, local_v in candidates[:extra_budget]:
        graph.add_edge(node_ids[positions[local_u]], node_ids[positions[local_v]],
                       weight)


def spatial_confidence(graph: DictGraph, node_id: int) -> float:
    """Eq. 3 for one node: the agreeing share of its neighbourhood's confidence mass."""
    node = graph.nodes[node_id]
    numerator = 0.0
    denominator = 0.0
    for neighbour_id, weight in graph.adjacency[node_id].items():
        neighbour = graph.nodes[neighbour_id]
        contribution = weight * neighbour.confidence
        denominator += contribution
        if neighbour.prediction == node.prediction:
            numerator += contribution
    if denominator <= 0:
        return node.confidence
    return numerator / denominator


def certainty_score(graph: DictGraph, node_id: int, beta: float = 0.5) -> float:
    """Eq. 4 for one node: ``beta * H(confidence) + (1 - beta) * H(spatial)``."""
    return (beta * conditional_entropy(graph.nodes[node_id].confidence)
            + (1.0 - beta) * conditional_entropy(spatial_confidence(graph, node_id)))


def connected_components(graph: DictGraph) -> list[set[int]]:
    """Components by graph search in node insertion order, largest first."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for start in graph.nodes:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for neighbour in graph.adjacency[frontier.pop()]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen |= component
        components.append(component)
    return sorted(components, key=len, reverse=True)


def pagerank(graph: DictGraph, nodes: Sequence[int], damping: float = 0.85,
             max_iterations: int = 100, tolerance: float = 1e-8) -> dict[int, float]:
    """PageRank of ``nodes``, gathering their edges from the adjacency dicts."""
    index = {node_id: position for position, node_id in enumerate(nodes)}
    sources: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    for node_id in nodes:
        for neighbour, weight in graph.adjacency[node_id].items():
            if neighbour in index:
                sources.append(index[node_id])
                targets.append(index[neighbour])
                weights.append(weight)
    scores = edge_pagerank(np.asarray(sources, dtype=np.int64),
                           np.asarray(targets, dtype=np.int64),
                           np.asarray(weights, dtype=np.float64),
                           num_nodes=len(nodes), damping=damping,
                           max_iterations=max_iterations, tolerance=tolerance)
    return {node_id: float(scores[index[node_id]]) for node_id in nodes}


def pagerank_per_component(graph: DictGraph, damping: float = 0.85) -> dict[int, float]:
    """PageRank computed independently inside every connected component."""
    scores: dict[int, float] = {}
    for component in connected_components(graph):
        scores.update(pagerank(graph, sorted(component), damping=damping))
    return scores
