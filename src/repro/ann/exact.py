"""Exact cosine nearest-neighbour search (the FAISS flat-index stand-in)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows, leaving zero rows untouched."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


class ExactNearestNeighbors:
    """Brute-force top-k cosine similarity search.

    The paper uses FAISS for the nearest-neighbour computations of the graph
    construction (Section 4.2).  At reproduction scale an exact search over a
    few thousand 128-dimensional vectors is a single matrix multiplication,
    so this is both the reference implementation and the default.
    """

    def __init__(self) -> None:
        self._vectors: np.ndarray | None = None

    def build(self, vectors: np.ndarray) -> "ExactNearestNeighbors":
        """Index ``vectors`` (one row per item)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-dimensional, got shape {vectors.shape}")
        self._vectors = _normalize_rows(vectors)
        return self

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        if self._vectors is None:
            raise NotFittedError("ExactNearestNeighbors.build must be called first")
        return len(self._vectors)

    def query(self, queries: np.ndarray, k: int,
              exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` neighbours of each query row.

        Returns ``(indices, similarities)`` arrays of shape ``(n_queries, k)``.
        When ``exclude_self`` is true, a neighbour whose similarity is exactly
        attained at the query's own index is skipped — use it when the queries
        are the indexed vectors themselves.
        """
        if self._vectors is None:
            raise NotFittedError("ExactNearestNeighbors.build must be called first")
        if k <= 0:
            raise ValueError("k must be positive")
        queries = _normalize_rows(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
        similarities = queries @ self._vectors.T

        n_queries = len(queries)
        effective_k = min(k + (1 if exclude_self else 0), self.size)
        # argpartition then sort the partitioned block for exact top-k order.
        top = np.argpartition(-similarities, effective_k - 1, axis=1)[:, :effective_k]
        row_index = np.arange(n_queries)[:, None]
        order = np.argsort(-similarities[row_index, top], axis=1)
        top = top[row_index, order]

        if exclude_self:
            kept_indices = np.zeros((n_queries, min(k, self.size - 1)), dtype=np.int64)
            kept_similarities = np.zeros_like(kept_indices, dtype=np.float64)
            for row in range(n_queries):
                neighbours = [index for index in top[row] if index != row]
                neighbours = neighbours[:kept_indices.shape[1]]
                kept_indices[row, :len(neighbours)] = neighbours
                kept_similarities[row, :len(neighbours)] = similarities[row, neighbours]
            return kept_indices, kept_similarities

        top = top[:, :k]
        return top, similarities[row_index[:, :1], top]
