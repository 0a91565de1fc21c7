"""Graph substrate: the CSR pair graph, connected components, PageRank, certainty.

:class:`~repro.graphs.sparse.SparseAdjacency` is the one pair-graph
representation.  The battleship selector builds it with
:func:`build_sparse_adjacency` and scores it with the batched kernels
(:func:`certainty_scores_batch`, :func:`pagerank_components`).
"""

from repro.graphs.components import connected_component_labels
from repro.graphs.entropy import combined_certainty, conditional_entropy
from repro.graphs.pagerank import edge_pagerank
from repro.graphs.sparse import (
    SparseAdjacency,
    build_sparse_adjacency,
    certainty_scores_batch,
    compute_cluster_edges,
    pagerank_components,
    spatial_confidence_batch,
)

__all__ = [
    "SparseAdjacency",
    "build_sparse_adjacency",
    "certainty_scores_batch",
    "combined_certainty",
    "compute_cluster_edges",
    "conditional_entropy",
    "connected_component_labels",
    "edge_pagerank",
    "pagerank_components",
    "spatial_confidence_batch",
]
