"""The matcher's optimizer: AdamW.

The paper trains DITTO with AdamW at a learning rate of ``3e-5``
(Section 4.2), and :class:`AdamW` is the only optimizer
:meth:`repro.neural.matcher.NeuralMatcher.fit` builds.  It follows
Loshchilov & Hutter's decoupled weight decay formulation and updates the
``parameters`` of :class:`repro.neural.layers.Layer` in place from the
``gradients`` that each ``backward`` pass assigns.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.neural.layers import Layer


class AdamW:
    """Adam (Kingma & Ba) with decoupled weight decay (the paper's optimizer for DITTO)."""

    def __init__(self, layers: Iterable[Layer], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
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

    def step(self) -> None:
        """Apply one update using the gradients currently stored in the layers."""
        self._step_count += 1
        for layer, first_moment, second_moment in zip(
                self.layers, self._first_moment, self._second_moment):
            for name, parameter in layer.parameters.items():
                gradient = layer.gradients[name]
                m = first_moment[name]
                v = second_moment[name]
                m[:] = self.beta1 * m + (1.0 - self.beta1) * gradient
                v[:] = self.beta2 * v + (1.0 - self.beta2) * gradient * gradient
                m_hat = m / (1.0 - self.beta1 ** self._step_count)
                v_hat = v / (1.0 - self.beta2 ** self._step_count)
                update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
                # Decoupled weight decay: applied directly to the weights,
                # never to bias or normalization parameters.
                if self.weight_decay > 0 and name == "weight":
                    parameter -= self.learning_rate * self.weight_decay * parameter
                parameter -= update
