"""t-SNE (van der Maaten & Hinton, 2008) for the Figure 1 reproduction.

The paper visualizes pair representations of a fully trained matcher with
t-SNE, showing that match pairs concentrate in a few regions of the latent
space.  This is an exact (non-Barnes-Hut) implementation suitable for a few
thousand points: pairwise affinities with per-point perplexity calibration via
binary search, a Student-t low-dimensional kernel, and gradient descent with
momentum and early exaggeration.  A PCA projection is used for initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import RandomState, ensure_rng
from repro.visualization.projection import PCA

_EPSILON = 1e-12


@dataclass(frozen=True)
class TSNEConfig:
    """Hyper-parameters of :class:`TSNE`."""

    num_components: int = 2
    perplexity: float = 30.0
    learning_rate: float = 50.0
    num_iterations: int = 300
    early_exaggeration: float = 4.0
    exaggeration_iterations: int = 80
    momentum: float = 0.8

    def __post_init__(self) -> None:
        if self.num_components <= 0:
            raise ValueError("num_components must be positive")
        if self.perplexity <= 1:
            raise ValueError("perplexity must exceed 1")
        if self.num_iterations <= 0:
            raise ValueError("num_iterations must be positive")


def _pairwise_squared_distances(data: np.ndarray) -> np.ndarray:
    norms = np.sum(data * data, axis=1)
    distances = norms[:, None] - 2.0 * data @ data.T + norms[None, :]
    np.maximum(distances, 0.0, out=distances)
    np.fill_diagonal(distances, 0.0)
    return distances


def _conditional_probabilities(distances_row: np.ndarray, beta: float) -> np.ndarray:
    """Gaussian conditional probabilities of one row at precision ``beta``."""
    probabilities = np.exp(-distances_row * beta)
    total = probabilities.sum()
    if total <= 0:
        return np.full_like(probabilities, 1.0 / max(len(probabilities), 1))
    return probabilities / total


def _calibrate_row(distances_row: np.ndarray, perplexity: float,
                   tolerance: float = 1e-5, max_steps: int = 50) -> np.ndarray:
    """Binary-search the Gaussian precision so the row entropy matches ``perplexity``."""
    target_entropy = np.log(perplexity)
    beta, beta_min, beta_max = 1.0, 0.0, np.inf
    probabilities = _conditional_probabilities(distances_row, beta)
    for _ in range(max_steps):
        entropy = -np.sum(probabilities * np.log(probabilities + _EPSILON))
        difference = entropy - target_entropy
        if abs(difference) < tolerance:
            break
        if difference > 0:
            beta_min = beta
            beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
        else:
            beta_max = beta
            beta = beta / 2.0 if beta_min == 0.0 else (beta + beta_min) / 2.0
        probabilities = _conditional_probabilities(distances_row, beta)
    return probabilities


def _joint_probabilities(data: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized high-dimensional affinities P."""
    n = len(data)
    distances = _pairwise_squared_distances(data)
    conditionals = np.zeros((n, n))
    for i in range(n):
        row = np.delete(distances[i], i)
        probabilities = _calibrate_row(row, perplexity=min(perplexity, max(n - 2, 2)))
        conditionals[i, np.arange(n) != i] = probabilities
    joint = (conditionals + conditionals.T) / (2.0 * n)
    return np.maximum(joint, _EPSILON)


class TSNE:
    """Exact t-SNE embedding."""

    def __init__(self, config: TSNEConfig | None = None,
                 random_state: RandomState = None) -> None:
        self.config = config or TSNEConfig()
        self.random_state = random_state

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """Embed ``data`` into ``num_components`` dimensions."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be 2-dimensional")
        n = len(data)
        if n < 5:
            raise ValueError("t-SNE needs at least 5 points")
        config = self.config
        rng = ensure_rng(self.random_state)

        joint = _joint_probabilities(data, config.perplexity)

        # PCA initialization keeps runs deterministic and well spread.
        num_init_components = min(config.num_components, min(data.shape))
        embedding = PCA(num_init_components).fit_transform(data)
        if embedding.shape[1] < config.num_components:
            padding = rng.normal(0.0, 1e-4,
                                 size=(n, config.num_components - embedding.shape[1]))
            embedding = np.hstack([embedding, padding])
        embedding = embedding / (np.std(embedding, axis=0, keepdims=True) + _EPSILON) * 1e-2

        velocity = np.zeros_like(embedding)
        for iteration in range(config.num_iterations):
            exaggeration = (config.early_exaggeration
                            if iteration < config.exaggeration_iterations else 1.0)
            distances = _pairwise_squared_distances(embedding)
            student = 1.0 / (1.0 + distances)
            np.fill_diagonal(student, 0.0)
            q = np.maximum(student / student.sum(), _EPSILON)

            difference = exaggeration * joint - q
            gradient = np.zeros_like(embedding)
            weighted = difference * student
            gradient = 4.0 * ((np.diag(weighted.sum(axis=1)) - weighted) @ embedding)

            velocity = config.momentum * velocity - config.learning_rate * gradient
            embedding = embedding + velocity
            embedding = embedding - embedding.mean(axis=0, keepdims=True)
        return embedding

