"""Loss functions for the matcher network."""

from __future__ import annotations

import numpy as np

from repro.neural.activations import sigmoid

_EPSILON = 1e-12


def binary_cross_entropy_with_logits(
    logits: np.ndarray,
    targets: np.ndarray,
    positive_weight: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Binary cross entropy on raw logits.

    Returns the mean loss and the gradient of the loss with respect to the
    logits.  ``positive_weight`` lets the matcher counteract class imbalance
    by up-weighting the (rare) match class, a standard device when training
    with very few positive labels.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if logits.shape != targets.shape:
        raise ValueError(f"Shape mismatch: logits {logits.shape} vs targets {targets.shape}")
    probabilities = sigmoid(logits)
    weights = np.where(targets > 0.5, positive_weight, 1.0)
    losses = -(
        targets * np.log(probabilities + _EPSILON)
        + (1.0 - targets) * np.log(1.0 - probabilities + _EPSILON)
    )
    loss = float(np.mean(weights * losses))
    grad = weights * (probabilities - targets) / len(logits)
    return loss, grad
