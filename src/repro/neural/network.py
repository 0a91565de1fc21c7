"""A feed-forward network assembled from :mod:`repro.neural.layers`.

The network mirrors the role of DITTO's transformer encoder + classification
head: a stack of hidden blocks (Linear → LayerNorm → ReLU → Dropout) produces
the *pair representation* (the analogue of the ``[CLS]`` embedding), and a
final Linear layer maps it to a single match logit.  Its architecture comes
from :class:`repro.neural.matcher.MatcherConfig`, which validates it.
"""

from __future__ import annotations

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.neural.layers import Dropout, Layer, LayerNorm, Linear, ReLU


class FeedForwardNetwork:
    """Hidden blocks + scalar output head with manual backpropagation.

    Parameters
    ----------
    input_dim:
        Width of the featurized pair vector.
    hidden_dims:
        Sizes of the hidden blocks; the last entry is the dimensionality of the
        pair representation (the paper's ``[CLS]`` vector has 768 dimensions).
    dropout:
        Dropout rate applied after each hidden activation.
    use_layer_norm:
        Whether hidden blocks include layer normalization.
    """

    def __init__(self, input_dim: int, hidden_dims: tuple[int, ...], dropout: float,
                 use_layer_norm: bool, random_state: RandomState = None) -> None:
        rng = ensure_rng(random_state)
        layer_rngs = iter(spawn_rng(rng, 2 * len(hidden_dims) + 1))

        self.hidden_layers: list[Layer] = []
        in_dim = input_dim
        for hidden_dim in hidden_dims:
            self.hidden_layers.append(Linear(in_dim, hidden_dim, next(layer_rngs)))
            if use_layer_norm:
                self.hidden_layers.append(LayerNorm(hidden_dim))
            self.hidden_layers.append(ReLU())
            if dropout > 0:
                self.hidden_layers.append(Dropout(dropout, next(layer_rngs)))
            in_dim = hidden_dim
        self.output_layer = Linear(in_dim, 1, next(layer_rngs))

    @property
    def layers(self) -> list[Layer]:
        """All layers, hidden blocks first, output head last."""
        return [*self.hidden_layers, self.output_layer]

    def representation(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Pair representations: activations after the last hidden block."""
        h = np.asarray(x, dtype=np.float64)
        for layer in self.hidden_layers:
            h = layer.forward(h, training=training)
        return h

    def forward(self, x: np.ndarray, training: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(logits, representations)`` for input ``x``."""
        representation = self.representation(x, training=training)
        logits = self.output_layer.forward(representation, training=training).reshape(-1)
        return logits, representation

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate the gradient of the loss w.r.t. the output logits.

        Every layer assigns its ``gradients`` afresh, so no zeroing pass is
        needed between optimizer steps.  Nothing reads the gradient w.r.t. the
        input features, so the first layer, always a :class:`Linear`, only
        assigns its weight and bias gradients (:meth:`Linear.assign_gradients`).
        """
        grad = np.asarray(grad_logits, dtype=np.float64).reshape(-1, 1)
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        assert isinstance(first, Linear)
        first.assign_gradients(grad)
