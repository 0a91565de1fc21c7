"""Tests for the CSR pair graph structure and the edge-creation procedure."""

import numpy as np
import pytest

from reference import graphs as oracle
from repro.graphs.sparse import SparseAdjacency, build_sparse_adjacency


def _simple_graph() -> SparseAdjacency:
    """Nodes 0, 1 (predicted match) and 2 (non-match); one edge 0 - 1."""
    return SparseAdjacency.from_edges(
        node_ids=[0, 1, 2], predictions=[1, 1, 0], confidences=[0.9] * 3,
        match_probabilities=[1.0, 1.0, 0.0], labeled_mask=[False] * 3,
        edges_u=[0], edges_v=[1], edge_weights=[0.8])


def _has_edge(adjacency: SparseAdjacency, u: int, v: int) -> bool:
    """Whether the nodes at positions ``u`` and ``v`` are adjacent."""
    return v in adjacency.neighbors(u)[0].tolist()


def _edges(adjacency: SparseAdjacency) -> list[tuple[int, int, float]]:
    return sorted(zip(adjacency.edges_u.tolist(), adjacency.edges_v.tolist(),
                      adjacency.edge_weights.tolist()))


class TestPairGraphStructure:
    def test_counts(self):
        graph = _simple_graph()
        assert graph.num_nodes == 3
        assert graph.num_edges == 1

    def test_edge_is_undirected(self):
        graph = _simple_graph()
        assert _has_edge(graph, 0, 1)
        assert _has_edge(graph, 1, 0)
        neighbours, weights = graph.neighbors(1)
        assert neighbours.tolist() == [0]
        assert weights[0] == pytest.approx(0.8)

    def test_neighbors(self):
        graph = _simple_graph()
        neighbours, weights = graph.neighbors(0)
        assert dict(zip(neighbours.tolist(), weights.tolist())) == {1: 0.8}
        assert graph.neighbors(2)[0].size == 0
        assert graph.degrees.tolist() == [1, 1, 0]

    def test_connected_components(self):
        components = _simple_graph().components()
        assert components == [{0, 1}, {2}]

    def test_edges_listing(self):
        assert _edges(_simple_graph()) == [(0, 1, 0.8)]


class TestBuildPairGraph:
    @pytest.fixture()
    def representations(self, rng):
        # Two tight groups of representations: indices 0-4 and 5-9.
        group_a = rng.normal(size=(5, 8)) * 0.01 + np.arange(8)
        group_b = rng.normal(size=(5, 8)) * 0.01 - np.arange(8)
        return np.vstack([group_a, group_b])

    def test_basic_construction(self, representations):
        n = len(representations)
        graph = build_sparse_adjacency(
            representations=representations,
            node_ids=list(range(100, 100 + n)),
            predictions=[1] * 5 + [0] * 5,
            confidences=[0.9] * n,
            match_probabilities=[0.9] * 5 + [0.1] * 5,
            labeled_mask=[False] * n,
            num_neighbors=2,
        )
        assert graph.num_nodes == n
        assert graph.num_edges >= n  # every node has at least q=2 edges (shared)
        assert graph.node_ids.tolist() == list(range(100, 100 + n))

    def test_cluster_labels_limit_edges(self, representations):
        n = len(representations)
        clusters = [0] * 5 + [1] * 5
        graph = build_sparse_adjacency(
            representations=representations,
            node_ids=list(range(n)),
            predictions=[1] * n,
            confidences=[0.9] * n,
            match_probabilities=[0.9] * n,
            labeled_mask=[False] * n,
            cluster_labels=clusters,
            num_neighbors=4,
        )
        for u, v, _ in _edges(graph):
            assert clusters[u] == clusters[v]

    def test_empty_input(self):
        graph = build_sparse_adjacency(
            representations=np.zeros((0, 4)), node_ids=[], predictions=[],
            confidences=[], match_probabilities=[], labeled_mask=[],
        )
        assert graph.num_nodes == 0

    def test_length_validation(self, representations):
        with pytest.raises(ValueError):
            build_sparse_adjacency(
                representations=representations,
                node_ids=list(range(len(representations))),
                predictions=[1],
                confidences=[0.9] * len(representations),
                match_probabilities=[0.9] * len(representations),
                labeled_mask=[False] * len(representations),
            )

    def test_parameter_validation(self, representations):
        n = len(representations)
        kwargs = dict(
            representations=representations, node_ids=list(range(n)),
            predictions=[1] * n, confidences=[0.9] * n,
            match_probabilities=[0.9] * n, labeled_mask=[False] * n,
        )
        with pytest.raises(ValueError):
            build_sparse_adjacency(num_neighbors=0, **kwargs)
        with pytest.raises(ValueError):
            build_sparse_adjacency(extra_edge_ratio=1.5, **kwargs)

    def test_labeled_pairs_never_directly_connected(self, representations):
        n = len(representations)
        labeled = [True, True] + [False] * (n - 2)
        graph = build_sparse_adjacency(
            representations=representations,
            node_ids=list(range(n)),
            predictions=[1] * n,
            confidences=[1.0, 1.0] + [0.9] * (n - 2),
            match_probabilities=[1.0, 1.0] + [0.9] * (n - 2),
            labeled_mask=labeled,
            num_neighbors=4,
            extra_edge_ratio=0.5,
        )
        assert not _has_edge(graph, 0, 1)

    def test_extra_edges_increase_connectivity(self, representations):
        n = len(representations)
        base_kwargs = dict(
            representations=representations, node_ids=list(range(n)),
            predictions=[1] * n, confidences=[0.9] * n,
            match_probabilities=[0.9] * n, labeled_mask=[False] * n,
            num_neighbors=1,
        )
        sparse = build_sparse_adjacency(extra_edge_ratio=0.0, **base_kwargs)
        dense = build_sparse_adjacency(extra_edge_ratio=0.5, **base_kwargs)
        assert dense.num_edges > sparse.num_edges

    def test_zero_extra_edge_budget_adds_no_edges(self, representations):
        # A tiny ratio whose floored budget is zero must behave exactly like
        # ratio zero.
        n = len(representations)
        base_kwargs = dict(
            representations=representations, node_ids=list(range(n)),
            predictions=[1] * n, confidences=[0.9] * n,
            match_probabilities=[0.9] * n, labeled_mask=[False] * n,
            num_neighbors=2,
        )
        none = build_sparse_adjacency(extra_edge_ratio=0.0, **base_kwargs)
        tiny = build_sparse_adjacency(extra_edge_ratio=1e-6, **base_kwargs)
        assert _edges(tiny) == _edges(none)

    def test_q_larger_than_cluster_connects_everything_allowed(self, representations):
        n = len(representations)
        graph = build_sparse_adjacency(
            representations=representations, node_ids=list(range(n)),
            predictions=[1] * n, confidences=[0.9] * n,
            match_probabilities=[0.9] * n,
            labeled_mask=[True, True] + [False] * (n - 2),
            num_neighbors=n + 5, extra_edge_ratio=0.0,
        )
        assert graph.num_edges == n * (n - 1) // 2 - 1
        assert not _has_edge(graph, 0, 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_builder_matches_reference(self, seed):
        generator = np.random.default_rng(seed)
        n = 40
        kwargs = dict(
            representations=generator.normal(size=(n, 10)),
            node_ids=list(range(n)),
            predictions=generator.integers(0, 2, size=n),
            confidences=generator.uniform(0.5, 1.0, size=n),
            match_probabilities=generator.uniform(0.0, 1.0, size=n),
            labeled_mask=generator.uniform(size=n) < 0.2,
            cluster_labels=generator.integers(0, 2, size=n),
            num_neighbors=3,
            extra_edge_ratio=0.05,
        )
        vectorized = build_sparse_adjacency(**kwargs)
        reference = oracle.build_pair_graph(**kwargs)
        assert ([(u, v, round(w, 12)) for u, v, w in _edges(vectorized)]
                == sorted((u, v, round(w, 12)) for u, v, w in reference.edges()))
