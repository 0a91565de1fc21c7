"""Certainty measures: conditional entropy (Eq. 1) and the combined
certainty score (Eq. 4).  The batched spatial confidence of Eq. 3 lives with
the CSR graph in :mod:`repro.graphs.sparse`."""

from __future__ import annotations

import numpy as np

_EPSILON = 1e-12


def conditional_entropy(probability: float | np.ndarray) -> float | np.ndarray:
    """Binary conditional entropy ``H(p) = -p log p - (1-p) log(1-p)`` (Eq. 1).

    Natural logarithm; the maximum value (at ``p = 0.5``) is ``log 2``.
    Accepts scalars or arrays.
    """
    p = np.clip(np.asarray(probability, dtype=np.float64), _EPSILON, 1.0 - _EPSILON)
    entropy = -(p * np.log(p) + (1.0 - p) * np.log(1.0 - p))
    if np.isscalar(probability) or np.ndim(probability) == 0:
        return float(entropy)
    return entropy


def combined_certainty(confidences: float | np.ndarray,
                       spatial_confidences: float | np.ndarray,
                       beta: float = 0.5) -> np.ndarray:
    """Eq. 4 vectorized: combine local and spatial confidence into certainty.

    ``confidences`` and ``spatial_confidences`` are aligned scalars or arrays;
    the result is ``beta * H(confidence) + (1 - beta) * H(spatial)``.
    ``beta = 1`` uses only the model confidence (DAL-style), ``beta = 0`` only
    the spatial signal.  Higher scores mean *more uncertain* nodes.  This is
    the kernel of :func:`repro.graphs.sparse.certainty_scores_batch`.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    local_entropy = conditional_entropy(np.asarray(confidences, dtype=np.float64))
    spatial_entropy = conditional_entropy(
        np.asarray(spatial_confidences, dtype=np.float64))
    return beta * local_entropy + (1.0 - beta) * spatial_entropy

