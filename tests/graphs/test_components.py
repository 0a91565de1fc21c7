"""Tests for connected components: the array union-find and the order of
``SparseAdjacency.components()``, which the budget walk of Section 3.4
depends on."""

import pytest

from repro.graphs.components import connected_component_labels
from repro.graphs.sparse import SparseAdjacency


def _labels(num_nodes, edges):
    return connected_component_labels(
        num_nodes, [u for u, _ in edges], [v for _, v in edges]).tolist()


def _components(node_ids, edges):
    """``components()`` of a graph on ``node_ids`` with edges between positions."""
    n = len(node_ids)
    return SparseAdjacency.from_edges(
        node_ids=node_ids, predictions=[1] * n, confidences=[0.9] * n,
        match_probabilities=[0.9] * n, labeled_mask=[False] * n,
        edges_u=[u for u, _ in edges], edges_v=[v for _, v in edges],
        edge_weights=[1.0] * len(edges)).components()


class TestUnionFind:
    def test_singletons(self):
        labels = _labels(3, [])
        assert len(set(labels)) == 3

    def test_union_and_find(self):
        labels = _labels(4, [(0, 1), (2, 3)])
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]
        labels = _labels(4, [(0, 1), (2, 3), (1, 2)])
        assert labels[0] == labels[3]

    def test_groups_sorted_by_size(self):
        components = _components(list(range(6)), [(0, 1), (1, 2), (3, 4)])
        assert [len(component) for component in components] == [3, 2, 1]

    def test_unknown_element_raises(self):
        with pytest.raises(IndexError):
            _labels(2, [(0, 5)])

    def test_add_is_idempotent(self):
        assert _labels(3, [(0, 1), (0, 1), (1, 0)]) == _labels(3, [(0, 1)])

    def test_union_returns_root(self):
        # Each label is the position of a node of the same component.
        labels = _labels(5, [(0, 1), (3, 4), (1, 2)])
        assert all(labels[label] == label for label in labels)


class TestConnectedComponents:
    def test_basic_components(self):
        components = _components([1, 2, 3, 4, 5], [(0, 1), (1, 2)])
        sizes = sorted(len(component) for component in components)
        assert sizes == [1, 1, 3]

    def test_isolated_nodes_are_singletons(self):
        assert _components([7, 8], []) == [{7}, {8}]

    def test_largest_component_first(self):
        components = _components(list(range(10)), [(i, i + 1) for i in range(4)])
        assert len(components[0]) == 5

    def test_order_is_size_then_first_position(self):
        # Positions 0..8 carry ids 10..18.  Components by position:
        # {1, 6} and {2, 5} (size 2), {3, 4, 7} (size 3), {0} and {8}
        # (isolated).  Equal sizes keep the order of their first position.
        components = _components(list(range(10, 19)),
                                 [(1, 6), (2, 5), (3, 4), (4, 7)])
        assert components == [{13, 14, 17}, {11, 16}, {12, 15}, {10}, {18}]
