"""Neural network layers with manual forward/backward passes.

Each layer exposes ``forward(x, training)`` and ``backward(grad_output)``;
parameters and their gradients live in ``layer.parameters`` /
``layer.gradients`` dictionaries keyed by parameter name so
:class:`repro.neural.optimizers.AdamW` can update any layer uniformly.
``backward`` assigns every gradient and never accumulates, so nothing is
zeroed between steps; ``gradients`` is empty until the first ``backward``.
:meth:`Linear.assign_gradients` assigns a linear layer's weight and bias
gradients alone, without the gradient w.r.t. the input, for a network's
first layer, whose input gradient nothing reads.
"""

from __future__ import annotations

import abc

import numpy as np

from repro._rng import RandomState, ensure_rng
from repro.neural.activations import relu, relu_grad


class Layer(abc.ABC):
    """Base class for all layers."""

    def __init__(self) -> None:
        self.parameters: dict[str, np.ndarray] = {}
        self.gradients: dict[str, np.ndarray] = {}

    @abc.abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. the input."""


class Linear(Layer):
    """Fully connected layer ``y = x W + b`` with He-style initialization.

    ``backward`` is :meth:`assign_gradients` followed by the gradient w.r.t.
    the input, ``grad_output @ W.T``; a caller that does not need the input
    gradient calls :meth:`assign_gradients` alone.
    """

    def __init__(self, in_features: int, out_features: int,
                 random_state: RandomState = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = ensure_rng(random_state)
        scale = np.sqrt(2.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.parameters["weight"] = rng.normal(0.0, scale, size=(in_features, out_features))
        self.parameters["bias"] = np.zeros(out_features)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = x if training else None
        return x @ self.parameters["weight"] + self.parameters["bias"]

    def assign_gradients(self, grad_output: np.ndarray) -> None:
        """Assign the weight and bias gradients for ``grad_output``."""
        if self._input is None:
            raise RuntimeError("backward called before a training forward pass")
        self.gradients["weight"] = self._input.T @ grad_output
        self.gradients["bias"] = grad_output.sum(axis=0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.assign_gradients(grad_output)
        return grad_output @ self.parameters["weight"].T


class ReLU(Layer):
    """Element-wise rectified linear unit, the hidden blocks' activation."""

    def __init__(self) -> None:
        super().__init__()
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = x if training else None
        return relu(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad_output * relu_grad(self._input)


class Dropout(Layer):
    """Inverted dropout: active only during training."""

    def __init__(self, rate: float = 0.1, random_state: RandomState = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"Dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = ensure_rng(random_state)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class LayerNorm(Layer):
    """Layer normalization over the feature dimension."""

    def __init__(self, num_features: int, epsilon: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.epsilon = epsilon
        self.parameters["gamma"] = np.ones(num_features)
        self.parameters["beta"] = np.zeros(num_features)
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        variance = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(variance + self.epsilon)
        normalized = (x - mean) * inv_std
        self._cache = (normalized, inv_std) if training else None
        return normalized * self.parameters["gamma"] + self.parameters["beta"]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        normalized, inv_std = self._cache
        gamma = self.parameters["gamma"]
        self.gradients["gamma"] = (grad_output * normalized).sum(axis=0)
        self.gradients["beta"] = grad_output.sum(axis=0)
        grad_normalized = grad_output * gamma
        # Standard layer-norm backward pass.
        grad_input = (
            grad_normalized
            - grad_normalized.mean(axis=-1, keepdims=True)
            - normalized * (grad_normalized * normalized).mean(axis=-1, keepdims=True)
        ) * inv_std
        return grad_input
