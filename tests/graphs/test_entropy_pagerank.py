"""Tests for conditional entropy, spatial confidence, and PageRank.

Spatial confidence, certainty and PageRank run through the batched kernels
the selector calls, on small hand-made graphs.
"""

import numpy as np
import pytest

from repro.graphs.entropy import conditional_entropy
from repro.graphs.sparse import (
    SparseAdjacency,
    certainty_scores_batch,
    pagerank_components,
    spatial_confidence_batch,
)


def _graph(edges, predictions=None, confidences=None) -> SparseAdjacency:
    """Nodes ``0..n-1`` (``n`` from the attribute lists, else from ``edges``)
    joined by ``(u, v, weight)`` edges with ``u < v``."""
    if predictions is None:
        n = 1 + max(max(u, v) for u, v, _ in edges)
        predictions = [1] * n
    n = len(predictions)
    if confidences is None:
        confidences = [0.9] * n
    return SparseAdjacency.from_edges(
        node_ids=list(range(n)), predictions=predictions, confidences=confidences,
        match_probabilities=[c if p == 1 else 1.0 - c
                             for p, c in zip(predictions, confidences)],
        labeled_mask=[False] * n,
        edges_u=[u for u, _, _ in edges], edges_v=[v for _, v, _ in edges],
        edge_weights=[w for _, _, w in edges])


def _chain_graph(weights=(1.0, 1.0, 1.0)) -> SparseAdjacency:
    """A path graph 0 - 1 - 2 - 3 with the given edge weights."""
    return _graph([(i, i + 1, weight) for i, weight in enumerate(weights)])


class TestConditionalEntropy:
    def test_maximum_at_half(self):
        assert conditional_entropy(0.5) == pytest.approx(np.log(2))

    def test_symmetry(self):
        assert conditional_entropy(0.2) == pytest.approx(conditional_entropy(0.8))

    def test_extremes_are_near_zero(self):
        assert conditional_entropy(0.0) < 1e-8
        assert conditional_entropy(1.0) < 1e-8

    def test_vectorized(self):
        values = conditional_entropy(np.array([0.1, 0.5, 0.9]))
        assert values.shape == (3,)
        assert values[1] == pytest.approx(np.log(2))

    def test_monotone_towards_half(self):
        assert conditional_entropy(0.4) > conditional_entropy(0.2)


class TestSpatialConfidence:
    def test_isolated_node_falls_back_to_own_confidence(self):
        graph = _graph([], predictions=[1], confidences=[0.8])
        assert spatial_confidence_batch(graph)[0] == pytest.approx(0.8)

    def test_agreeing_neighbourhood_gives_high_confidence(self):
        graph = _chain_graph()
        assert spatial_confidence_batch(graph)[1] == pytest.approx(1.0)

    def test_disagreeing_neighbourhood_lowers_confidence(self):
        graph = _graph([(0, 1, 1.0), (0, 2, 1.0)], predictions=[1, 0, 0])
        assert spatial_confidence_batch(graph)[0] == pytest.approx(0.0)

    def test_certainty_scores_batch(self):
        scores = certainty_scores_batch(_chain_graph(), beta=0.5)
        assert scores.shape == (4,)
        assert np.all(scores >= 0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            certainty_scores_batch(_chain_graph(), beta=1.5)


class TestPageRank:
    def test_scores_sum_to_one(self):
        scores = pagerank_components(_chain_graph())
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_central_nodes_rank_higher(self):
        scores = pagerank_components(_chain_graph())
        assert scores[1] > scores[0]
        assert scores[2] > scores[3]

    def test_star_center_dominates(self):
        graph = _graph([(0, leaf, 1.0) for leaf in range(1, 5)])
        scores = pagerank_components(graph)
        assert scores[0] == max(scores.values())

    def test_edge_weights_steer_the_walk(self):
        graph = _graph([(0, 1, 10.0), (0, 2, 0.1)])
        scores = pagerank_components(graph)
        assert scores[1] > scores[2]

    def test_single_node(self):
        assert pagerank_components(_graph([], predictions=[1])) == {0: 1.0}

    def test_empty_graph(self):
        assert pagerank_components(_graph([], predictions=[])) == {}

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            pagerank_components(_chain_graph(), damping=1.5)

    def test_per_component_normalizes_within_components(self):
        # The chain 0 - 1 - 2 - 3 plus a second component 4 - 5.
        graph = _graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        scores = pagerank_components(graph)
        first = sum(scores[node] for node in range(4))
        second = scores[4] + scores[5]
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(1.0)
