"""Adam's update plus AdamW's step, as two methods: the oracle for
``repro.neural.optimizers.AdamW``.

The arithmetic of ``_update_parameter`` and ``step`` is the original
``Adam._update_parameter`` / ``AdamW.step`` pair, unchanged.  Every operation
is element-wise, so a rewrite of the step must match it bit for bit on any
platform.

``full_backward`` is the original ``FeedForwardNetwork.backward``: every
layer's ``backward``, the first layer's input gradient included.  With both
patched in, ``NeuralMatcher.fit`` is the oracle for the shipped fit.
"""

from __future__ import annotations

import numpy as np


class ReferenceAdamW:
    """AdamW over objects with ``parameters`` / ``gradients`` dicts."""

    def __init__(self, layers, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        self.layers = [layer for layer in layers if layer.parameters]
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment = self._init_state()
        self._second_moment = self._init_state()

    def _init_state(self) -> list[dict[str, np.ndarray]]:
        return [
            {name: np.zeros_like(parameter) for name, parameter in layer.parameters.items()}
            for layer in self.layers
        ]

    def _update_parameter(self, layer_index: int, name: str,
                          parameter: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Compute the Adam update direction for one parameter tensor."""
        m = self._first_moment[layer_index][name]
        v = self._second_moment[layer_index][name]
        m[:] = self.beta1 * m + (1.0 - self.beta1) * gradient
        v[:] = self.beta2 * v + (1.0 - self.beta2) * gradient * gradient
        m_hat = m / (1.0 - self.beta1 ** self._step_count)
        v_hat = v / (1.0 - self.beta2 ** self._step_count)
        return self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def step(self) -> None:
        self._step_count += 1
        for layer_index, layer in enumerate(self.layers):
            for name, parameter in layer.parameters.items():
                update = self._update_parameter(layer_index, name, parameter,
                                                layer.gradients[name])
                # Decoupled weight decay: applied directly to the weights,
                # never to bias or normalization parameters.
                if self.weight_decay > 0 and name == "weight":
                    parameter -= self.learning_rate * self.weight_decay * parameter
                parameter -= update


def full_backward(network, grad_logits):
    """Backpropagate through every layer and return the input gradient."""
    grad = np.asarray(grad_logits, dtype=np.float64).reshape(-1, 1)
    for layer in reversed(network.layers):
        grad = layer.backward(grad)
    return grad
