"""The matcher's optimizer: AdamW.

The paper trains DITTO with AdamW at a learning rate of ``3e-5``
(Section 4.2), and :class:`AdamW` is the only optimizer
:meth:`repro.neural.matcher.NeuralMatcher.fit` builds.  It follows
Loshchilov & Hutter's decoupled weight decay formulation and updates the
``parameters`` of :class:`repro.neural.layers.Layer` in place from the
``gradients`` that each ``backward`` pass assigns.

The step makes no temporary arrays.  Every intermediate is written with
``out=`` into the moments, the parameter or one of two scratch buffers that
the optimizer allocates once.  Each tensor is walked in blocks of about
``_BLOCK_ELEMENTS`` elements, so the six arrays a block touches stay in
cache between the step's passes.  The operations and their order are those
of the oracle ``tests/reference/optimizers.py``, so the parameters are
bit-identical to it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.neural.layers import Layer

# Elements per block: six float64 arrays of this size (about 1.5 MB) fit in
# a 2 MB L2 cache.
_BLOCK_ELEMENTS = 32_768


def _row_blocks(shape: tuple[int, ...]) -> list[slice]:
    """Slices of the first axis that split a tensor into blocks.

    A block holds ``max(1, _BLOCK_ELEMENTS // row_size)`` rows, so a row
    wider than a block is a block of its own; a 1-D tensor's rows are its
    elements.  A basic slice is always a view, even of a non-contiguous
    array, so writes through it reach the tensor.
    """
    row_size = int(np.prod(shape[1:]))
    rows = max(1, _BLOCK_ELEMENTS // row_size)
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


class AdamW:
    """Adam (Kingma & Ba) with decoupled weight decay (the paper's optimizer for DITTO)."""

    def __init__(self, layers: Iterable[Layer], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if epsilon <= 0:
            # With m = v = 0 (a feature that never fired) the update is 0 / 0.
            raise ValueError(f"epsilon must be positive, got {epsilon}")
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
        self._blocks = [
            {name: _row_blocks(parameter.shape) for name, parameter in layer.parameters.items()}
            for layer in self.layers
        ]
        # A tensor's first block is its largest.
        largest = max((layer.parameters[name][blocks[0]].size
                       for layer, layer_blocks in zip(self.layers, self._blocks)
                       for name, blocks in layer_blocks.items()), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))

    def _init_state(self) -> list[dict[str, np.ndarray]]:
        return [
            {name: np.zeros_like(parameter) for name, parameter in layer.parameters.items()}
            for layer in self.layers
        ]

    def step(self) -> None:
        """Apply one update using the gradients currently stored in the layers.

        Per block, in the oracle's order: ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + ((1-b2)*g)*g``, ``update = (lr*(m/c1)) / (sqrt(v/c2) + eps)``,
        then ``p -= (lr*wd)*p`` for weights only and ``p -= update``, where
        ``c1 = 1 - b1**t`` and ``c2 = 1 - b2**t`` at step ``t``.  The bias
        corrections are divided by, not multiplied by their reciprocals,
        which would round differently.
        """
        self._step_count += 1
        beta1, beta2 = self.beta1, self.beta2
        learning_rate, epsilon = self.learning_rate, self.epsilon
        correction1 = 1.0 - beta1 ** self._step_count
        correction2 = 1.0 - beta2 ** self._step_count
        decay = learning_rate * self.weight_decay
        scratch_a, scratch_b = self._scratch
        for layer, first_moment, second_moment, layer_blocks in zip(
                self.layers, self._first_moment, self._second_moment, self._blocks):
            for name, parameter in layer.parameters.items():
                gradient = layer.gradients[name]
                # Decoupled weight decay: applied directly to the weights,
                # never to bias or normalization parameters.
                decays = self.weight_decay > 0 and name == "weight"
                for block in layer_blocks[name]:
                    p = parameter[block]
                    g = gradient[block]
                    m = first_moment[name][block]
                    v = second_moment[name][block]
                    a = scratch_a[:p.size].reshape(p.shape)
                    b = scratch_b[:p.size].reshape(p.shape)
                    np.multiply(m, beta1, out=m)
                    np.multiply(g, 1.0 - beta1, out=a)
                    np.add(m, a, out=m)
                    np.multiply(v, beta2, out=v)
                    np.multiply(g, 1.0 - beta2, out=a)
                    np.multiply(a, g, out=a)
                    np.add(v, a, out=v)
                    np.divide(m, correction1, out=a)
                    np.multiply(a, learning_rate, out=a)
                    np.divide(v, correction2, out=b)
                    np.sqrt(b, out=b)
                    np.add(b, epsilon, out=b)
                    np.divide(a, b, out=a)
                    if decays:
                        np.multiply(p, decay, out=b)
                        np.subtract(p, b, out=p)
                    np.subtract(p, a, out=p)
