"""Connected components of a graph given as parallel edge arrays."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def connected_component_labels(num_nodes: int,
                               edges_u: np.ndarray | Sequence[int],
                               edges_v: np.ndarray | Sequence[int]) -> np.ndarray:
    """Component label per node for a graph given as parallel edge arrays.

    A union-find with path halving over node positions ``0..num_nodes-1``,
    used by :class:`~repro.graphs.sparse.SparseAdjacency`.  Labels are root
    positions (arbitrary but deterministic integers); nodes share a label
    iff they are connected, so isolated nodes keep their own position.
    """
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for u, v in zip(np.asarray(edges_u).tolist(), np.asarray(edges_v).tolist()):
        root_u, root_v = find(u), find(v)
        if root_u != root_v:
            parent[root_v] = root_u
    return np.fromiter((find(x) for x in range(num_nodes)),
                       dtype=np.int64, count=num_nodes)
