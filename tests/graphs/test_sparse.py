"""Tests for the CSR pair graph (SparseAdjacency) and its batched kernels.

The kernels the selector runs are checked against the dict-based oracle in
``reference.graphs``: same edges as the node-at-a-time builder, same
certainty scores as the per-node neighbourhood walk, same per-component
PageRank, and the same component order the budget distribution depends on.
"""

import numpy as np
import pytest

from reference import graphs as oracle
from repro.graphs.pagerank import edge_pagerank
from repro.graphs.sparse import (
    SparseAdjacency,
    build_sparse_adjacency,
    certainty_scores_batch,
    compute_cluster_edges,
    pagerank_components,
    spatial_confidence_batch,
)


def _random_inputs(seed: int, n: int = 50, num_clusters: int = 3,
                   labeled_share: float = 0.25) -> dict:
    rng = np.random.default_rng(seed)
    return dict(
        representations=rng.normal(size=(n, 12)),
        node_ids=list(range(10, 10 + n)),
        predictions=rng.integers(0, 2, size=n),
        confidences=rng.uniform(0.5, 1.0, size=n),
        match_probabilities=rng.uniform(0.0, 1.0, size=n),
        labeled_mask=rng.uniform(size=n) < labeled_share,
        cluster_labels=rng.integers(0, num_clusters, size=n),
        num_neighbors=4,
        extra_edge_ratio=0.1,
    )


def _edge_set(adjacency: SparseAdjacency) -> list[tuple[int, int, float]]:
    """Edges as sorted ``(u_id, v_id, weight)`` triples with ``u_id < v_id``."""
    ids = adjacency.node_ids
    return sorted((int(min(ids[u], ids[v])), int(max(ids[u], ids[v])), round(w, 12))
                  for u, v, w in zip(adjacency.edges_u.tolist(),
                                     adjacency.edges_v.tolist(),
                                     adjacency.edge_weights.tolist()))


def _oracle_edge_set(graph: oracle.DictGraph) -> list[tuple[int, int, float]]:
    return sorted((u, v, round(w, 12)) for u, v, w in graph.edges())


class TestBuilderEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_vectorized_matches_reference_on_random_inputs(self, seed):
        kwargs = _random_inputs(seed)
        adjacency = build_sparse_adjacency(**kwargs)
        reference = oracle.build_pair_graph(**kwargs)
        assert _edge_set(adjacency) == _oracle_edge_set(reference)
        assert adjacency.num_nodes == len(reference.nodes)
        for position, node_id in enumerate(adjacency.node_ids.tolist()):
            node = reference.nodes[node_id]
            assert adjacency.predictions[position] == node.prediction
            assert adjacency.confidences[position] == node.confidence
            assert adjacency.match_probabilities[position] == node.match_probability
            assert adjacency.labeled_mask[position] == node.labeled

    def test_sparse_adjacency_matches_dict_view(self):
        kwargs = _random_inputs(7)
        adjacency = build_sparse_adjacency(**kwargs)
        graph = oracle.build_pair_graph(**kwargs)
        assert adjacency.num_edges == len(graph.edges())
        for position in range(adjacency.num_nodes):
            node_id = int(adjacency.node_ids[position])
            neighbor_positions, weights = adjacency.neighbors(position)
            csr_view = {int(adjacency.node_ids[p]): round(float(w), 12)
                        for p, w in zip(neighbor_positions, weights)}
            dict_view = {k: round(v, 12) for k, v in graph.adjacency[node_id].items()}
            assert csr_view == dict_view

    def test_zero_extra_edge_ratio_creates_only_nearest_neighbor_edges(self):
        kwargs = _random_inputs(3)
        kwargs["extra_edge_ratio"] = 0.0
        sparse_only = build_sparse_adjacency(**kwargs)
        kwargs["extra_edge_ratio"] = 0.5
        dense = build_sparse_adjacency(**kwargs)
        assert sparse_only.num_edges < dense.num_edges
        nn_edges = set(zip(sparse_only.edges_u.tolist(), sparse_only.edges_v.tolist()))
        dense_edges = set(zip(dense.edges_u.tolist(), dense.edges_v.tolist()))
        assert nn_edges <= dense_edges

    def test_q_at_least_cluster_size_connects_all_allowed_pairs(self):
        n = 6
        rng = np.random.default_rng(0)
        adjacency = build_sparse_adjacency(
            representations=rng.normal(size=(n, 8)),
            node_ids=list(range(n)),
            predictions=[1] * n,
            confidences=[0.9] * n,
            match_probabilities=[0.9] * n,
            labeled_mask=[True, True] + [False] * (n - 2),
            num_neighbors=50,  # far beyond the cluster size; clamped to n - 1
            extra_edge_ratio=0.0,
        )
        # Complete graph minus the forbidden labeled-labeled edge.
        assert adjacency.num_edges == n * (n - 1) // 2 - 1
        assert 1 not in adjacency.neighbors(0)[0]

    def test_labeled_pairs_excluded_from_both_stages(self):
        similarities = np.array([
            [1.0, 0.9, 0.2],
            [0.9, 1.0, 0.3],
            [0.2, 0.3, 1.0],
        ])
        edges_u, edges_v, _ = compute_cluster_edges(
            similarities, np.array([True, True, False]),
            num_neighbors=2, extra_edge_ratio=1.0)
        pairs = set(zip(edges_u.tolist(), edges_v.tolist()))
        assert (0, 1) not in pairs
        assert pairs == {(0, 2), (1, 2)}

    def test_empty_and_singleton_inputs(self):
        empty = build_sparse_adjacency(np.zeros((0, 4)), [], [], [], [], [])
        assert empty.num_nodes == 0
        assert empty.num_edges == 0
        assert empty.components() == []
        single = build_sparse_adjacency(np.zeros((1, 4)), [5], [1], [0.9], [0.9], [False])
        assert single.num_nodes == 1
        assert single.num_edges == 0
        assert single.components() == [{5}]

    def test_validation_matches_dict_builder(self):
        # Mismatched lengths and out-of-range parameters are rejected.
        kwargs = _random_inputs(0)
        kwargs["predictions"] = kwargs["predictions"][:-1]
        with pytest.raises(ValueError):
            build_sparse_adjacency(**kwargs)
        kwargs = _random_inputs(0)
        kwargs["num_neighbors"] = 0
        with pytest.raises(ValueError):
            build_sparse_adjacency(**kwargs)
        kwargs = _random_inputs(0)
        kwargs["extra_edge_ratio"] = 1.5
        with pytest.raises(ValueError):
            build_sparse_adjacency(**kwargs)

    def test_csr_structure_is_consistent(self):
        adjacency = build_sparse_adjacency(**_random_inputs(11))
        assert adjacency.indptr[0] == 0
        assert adjacency.indptr[-1] == len(adjacency.indices)
        assert np.all(np.diff(adjacency.indptr) >= 0)
        assert int(adjacency.degrees.sum()) == 2 * adjacency.num_edges
        assert np.all(adjacency.edges_u < adjacency.edges_v)
        # Every undirected edge appears in both endpoint rows.
        rows = np.repeat(np.arange(adjacency.num_nodes), adjacency.degrees)
        directed = set(zip(rows.tolist(), adjacency.indices.tolist()))
        undirected = set(zip(adjacency.edges_u.tolist(), adjacency.edges_v.tolist()))
        assert directed == undirected | {(v, u) for u, v in undirected}


class TestBatchedKernels:
    @pytest.fixture()
    def inputs(self):
        return _random_inputs(21)

    @pytest.fixture()
    def adjacency(self, inputs):
        return build_sparse_adjacency(**inputs)

    @pytest.fixture()
    def graph(self, inputs):
        return oracle.build_pair_graph(**inputs)

    def test_spatial_confidence_batch_matches_scalar(self, adjacency, graph):
        batch = spatial_confidence_batch(adjacency)
        for position in range(adjacency.num_nodes):
            node_id = int(adjacency.node_ids[position])
            assert batch[position] == pytest.approx(
                oracle.spatial_confidence(graph, node_id), abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_certainty_batch_matches_scalar(self, adjacency, graph, beta):
        batch = certainty_scores_batch(adjacency, beta=beta)
        for position in range(adjacency.num_nodes):
            node_id = int(adjacency.node_ids[position])
            assert batch[position] == pytest.approx(
                oracle.certainty_score(graph, node_id, beta=beta), abs=1e-12)

    def test_certainty_batch_invalid_beta(self, adjacency):
        with pytest.raises(ValueError):
            certainty_scores_batch(adjacency, beta=1.5)

    def test_components_match_dict_graph_order(self, adjacency, graph):
        assert adjacency.components() == oracle.connected_components(graph)

    def test_pagerank_components_matches_dict_pagerank(self, adjacency, graph):
        scores = pagerank_components(adjacency)
        reference = oracle.pagerank_per_component(graph)
        assert set(scores) == {int(i) for i in adjacency.node_ids} == set(reference)
        for node_id, value in reference.items():
            assert scores[node_id] == pytest.approx(value, abs=1e-9)


class TestEdgePageRank:
    def test_matches_chain_graph_expectations(self):
        # Path 0 - 1 - 2 - 3: interior nodes rank higher.
        sources = np.array([0, 1, 1, 2, 2, 3])
        targets = np.array([1, 0, 2, 1, 3, 2])
        weights = np.ones(6)
        scores = edge_pagerank(sources, targets, weights, num_nodes=4)
        assert scores.sum() == pytest.approx(1.0)
        assert scores[1] > scores[0]
        assert scores[2] > scores[3]

    def test_dangling_nodes_teleport(self):
        # Node 1 has no outgoing weight at all (isolated).
        scores = edge_pagerank(np.array([0]), np.array([2]), np.array([1.0]),
                               num_nodes=3)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores > 0)

    def test_trivial_sizes(self):
        empty = np.empty(0, dtype=np.int64)
        assert edge_pagerank(empty, empty, empty, num_nodes=0).size == 0
        assert edge_pagerank(empty, empty, empty, num_nodes=1)[0] == pytest.approx(1.0)

    def test_invalid_damping(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            edge_pagerank(empty, empty, empty, num_nodes=2, damping=1.5)
