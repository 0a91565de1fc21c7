"""The worked example of the paper: Figure 4, Table 2, and Example 7.

Eight pair representations form one cluster.  Samples s1-s4 are predicted
match, s5-s6 predicted non-match, s7 is labeled match and s8 labeled
non-match.  With q = 2 nearest neighbours and 15% extra edges, the paper
describes exactly which edges are created and computes the spatial confidence
of s1 as 0.51.  This test drives the code the selector runs,
:func:`build_sparse_adjacency`, :func:`spatial_confidence_batch` and
:func:`certainty_scores_batch`, with the similarity matrix of Table 2 and
checks those facts.
"""

import numpy as np
import pytest

from repro.graphs.entropy import conditional_entropy
from repro.graphs.sparse import (
    build_sparse_adjacency,
    certainty_scores_batch,
    spatial_confidence_batch,
)

# Table 2 of the paper: symmetric similarity matrix; the diagonal holds the
# matcher's confidence in each sample's prediction (1.0 for labeled samples).
_SIMILARITY = np.array([
    #  s1    s2    s3    s4    s5    s6    s7    s8
    [0.95, 0.90, 0.50, 0.60, 0.85, 0.50, 0.90, 0.82],  # s1
    [0.90, 0.92, 0.55, 0.58, 0.92, 0.45, 0.83, 0.60],  # s2
    [0.50, 0.55, 0.96, 0.75, 0.67, 0.56, 0.40, 0.38],  # s3
    [0.60, 0.58, 0.75, 0.94, 0.88, 0.84, 0.50, 0.55],  # s4
    [0.85, 0.92, 0.67, 0.88, 0.98, 0.57, 0.63, 0.65],  # s5
    [0.50, 0.45, 0.56, 0.84, 0.57, 0.88, 0.41, 0.54],  # s6
    [0.90, 0.83, 0.40, 0.50, 0.63, 0.41, 1.00, 0.64],  # s7
    [0.82, 0.60, 0.38, 0.55, 0.65, 0.54, 0.64, 1.00],  # s8
])

# Node attributes: s1-s4 predicted match, s5-s6 predicted non-match,
# s7 labeled match, s8 labeled non-match.  Node ids are 1-based (s1 → 1).
_PREDICTIONS = [1, 1, 1, 1, 0, 0, 1, 0]
_CONFIDENCES = [0.95, 0.92, 0.96, 0.94, 0.98, 0.88, 1.0, 1.0]
_LABELED = [False, False, False, False, False, False, True, True]


def _neighbours(graph, node_id: int) -> dict[int, float]:
    """Neighbour id -> edge weight of the node with id ``node_id``."""
    neighbours, weights = graph.neighbors(node_id - 1)  # ids are positions + 1
    return {int(graph.node_ids[p]): float(w) for p, w in zip(neighbours, weights)}


def _has_edge(graph, u: int, v: int) -> bool:
    return v in _neighbours(graph, u)


def _edge_weight(graph, u: int, v: int) -> float:
    return _neighbours(graph, u)[v]


def _spatial_confidence_s1(graph) -> float:
    return float(spatial_confidence_batch(graph)[0])


def _certainty_s1(graph, beta: float) -> float:
    return float(certainty_scores_batch(graph, beta=beta)[0])


@pytest.fixture(scope="module")
def paper_graph():
    n = 8
    return build_sparse_adjacency(
        representations=np.zeros((n, 2)),  # unused: similarities given explicitly
        node_ids=list(range(1, n + 1)),
        predictions=_PREDICTIONS,
        confidences=_CONFIDENCES,
        match_probabilities=[c if p == 1 else 1 - c
                             for p, c in zip(_PREDICTIONS, _CONFIDENCES)],
        labeled_mask=_LABELED,
        cluster_labels=[0] * n,
        num_neighbors=2,
        extra_edge_ratio=0.15,
        similarity_matrix=_SIMILARITY,
    )


class TestEdgeCreation:
    def test_s1_connected_to_its_described_neighbours(self, paper_graph):
        # Example 4: s1 is connected to s2 and s7 (its two nearest neighbours)
        # and to s8 (s1 is among s8's two nearest neighbours).
        assert _has_edge(paper_graph, 1, 2)
        assert _has_edge(paper_graph, 1, 7)
        assert _has_edge(paper_graph, 1, 8)

    def test_extra_edges_are_s1_s5_and_s5_s7(self, paper_graph):
        # Example 4: the two extra edges are (s1, s5) with weight 0.85 and
        # (s5, s7) with weight 0.63.
        assert _has_edge(paper_graph, 1, 5)
        assert _edge_weight(paper_graph, 1, 5) == pytest.approx(0.85)
        assert _has_edge(paper_graph, 5, 7)
        assert _edge_weight(paper_graph, 5, 7) == pytest.approx(0.63)

    def test_two_labeled_samples_never_connected(self, paper_graph):
        # s7 and s8 are both labeled; despite their 0.64 similarity the edge
        # is not created (Example 4).
        assert not _has_edge(paper_graph, 7, 8)

    def test_every_node_has_at_least_q_neighbours(self, paper_graph):
        assert np.all(paper_graph.degrees >= 2)

    def test_total_edge_count_close_to_paper(self, paper_graph):
        # The paper reports 12 nearest-neighbour edges plus 2 extra edges.
        # Deduplicating the nearest-neighbour lists of Table 2 yields 11
        # distinct undirected edges, so the reproduction creates 13 in total;
        # we accept the paper's 14 as well to allow for the ambiguity.
        assert paper_graph.num_edges in (13, 14)

    def test_edge_weights_match_table2(self, paper_graph):
        assert _edge_weight(paper_graph, 1, 2) == pytest.approx(0.90)
        assert _edge_weight(paper_graph, 2, 5) == pytest.approx(0.92)
        assert _edge_weight(paper_graph, 4, 6) == pytest.approx(0.84)


class TestExample7SpatialConfidence:
    def test_spatial_confidence_of_s1_matches_paper(self, paper_graph):
        # Example 7 computes phi~(s1) = 0.51: the match-side neighbours are s2
        # and s7, the full neighbourhood additionally contains s5 and s8.
        value = _spatial_confidence_s1(paper_graph)
        assert value == pytest.approx(0.51, abs=0.005)

    def test_s1_neighbourhood_is_the_papers(self, paper_graph):
        assert set(_neighbours(paper_graph, 1)) == {2, 5, 7, 8}

    def test_certainty_score_combines_local_and_spatial(self, paper_graph):
        local_only = _certainty_s1(paper_graph, 1.0)
        spatial_only = _certainty_s1(paper_graph, 0.0)
        fused = _certainty_s1(paper_graph, 0.5)
        assert local_only == pytest.approx(float(conditional_entropy(0.95)))
        assert spatial_only == pytest.approx(float(conditional_entropy(
            _spatial_confidence_s1(paper_graph))))
        assert fused == pytest.approx(0.5 * local_only + 0.5 * spatial_only)

    def test_s1_more_uncertain_spatially_than_locally(self, paper_graph):
        # The model is 0.95 confident in s1, but half of its neighbourhood
        # disagrees, so the spatial entropy is much larger than the local one.
        assert (_certainty_s1(paper_graph, 0.0)
                > _certainty_s1(paper_graph, 1.0))
