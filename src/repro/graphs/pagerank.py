"""Weighted PageRank centrality (Eq. 5 of the paper).

The battleship approach computes PageRank over each connected component of the
prediction-based graphs ``G+`` / ``G-``, treating every undirected edge as two
inversely directed edges with the same (cosine similarity) weight.

:func:`edge_pagerank` is a *sparse* power iteration over parallel edge arrays:
per step, each node's score is pushed along its out-edges with a scatter-add,
so no dense n x n transition matrix is ever materialized.
:func:`repro.graphs.sparse.pagerank_components` runs it once per component.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError


def edge_pagerank(
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    num_nodes: int,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """PageRank by sparse power iteration over directed edge arrays.

    Parameters
    ----------
    sources / targets / weights:
        Parallel arrays describing directed edges ``sources[i] -> targets[i]``
        with non-negative weight ``weights[i]`` (negative weights are clipped
        to zero, matching the dense seed implementation).  An undirected graph
        is passed as both edge directions.
    num_nodes:
        Number of nodes; node ids are positions ``0..num_nodes-1``.
    damping:
        The ``rho`` parameter of Eq. 5.
    max_iterations / tolerance:
        Power-iteration stopping criteria (L1 change between iterates).

    Returns
    -------
    Score per node, normalized to sum to 1.  Nodes without outgoing weight
    (dangling) teleport uniformly.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if num_nodes == 0:
        return np.empty(0, dtype=np.float64)
    if num_nodes == 1:
        return np.ones(1, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)

    out_weight = np.bincount(sources, weights=weights, minlength=num_nodes)
    dangling = out_weight == 0.0
    # Row-normalized edge weights; rows with zero outgoing mass are dangling
    # and handled separately, so the guard denominator is never used.
    normalized = weights / np.where(out_weight > 0.0, out_weight, 1.0)[sources]

    scores = np.full(num_nodes, 1.0 / num_nodes)
    teleport = (1.0 - damping) / num_nodes
    converged = False
    for _ in range(max_iterations):
        inbound = np.bincount(targets, weights=scores[sources] * normalized,
                              minlength=num_nodes)
        dangling_mass = float(scores[dangling].sum()) / num_nodes
        updated = teleport + damping * (inbound + dangling_mass)
        if float(np.abs(updated - scores).sum()) < tolerance:
            scores = updated
            converged = True
            break
        scores = updated
    if not converged and max_iterations > 0:
        # PageRank on a stochastic matrix always converges eventually; reaching
        # the cap with a loose tolerance is still a usable ranking signal, so
        # only guard against obviously broken outputs.
        if not np.all(np.isfinite(scores)):
            raise ConvergenceError("PageRank diverged (non-finite scores)")
    total = float(scores.sum())
    if total > 0:
        scores = scores / total
    return scores

