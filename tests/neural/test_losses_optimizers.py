"""Tests for the loss function and the AdamW optimizer."""

import copy
import tracemalloc

import numpy as np
import pytest

from reference.optimizers import ReferenceAdamW
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.neural.layers import LayerNorm, Linear
from repro.neural.losses import binary_cross_entropy_with_logits
from repro.neural.matcher import MatcherConfig
from repro.neural.network import FeedForwardNetwork
from repro.neural.optimizers import _BLOCK_ELEMENTS, AdamW


class TestBinaryCrossEntropy:
    def test_perfect_predictions_have_low_loss(self):
        logits = np.array([10.0, -10.0])
        targets = np.array([1.0, 0.0])
        loss, _ = binary_cross_entropy_with_logits(logits, targets)
        assert loss < 1e-3

    def test_wrong_predictions_have_high_loss(self):
        logits = np.array([-10.0, 10.0])
        targets = np.array([1.0, 0.0])
        loss, _ = binary_cross_entropy_with_logits(logits, targets)
        assert loss > 5.0

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=8)
        targets = (rng.random(8) > 0.5).astype(float)
        _, grad = binary_cross_entropy_with_logits(logits, targets)
        epsilon = 1e-6
        for i in range(len(logits)):
            perturbed = logits.copy()
            perturbed[i] += epsilon
            loss_plus, _ = binary_cross_entropy_with_logits(perturbed, targets)
            perturbed[i] -= 2 * epsilon
            loss_minus, _ = binary_cross_entropy_with_logits(perturbed, targets)
            numerical = (loss_plus - loss_minus) / (2 * epsilon)
            assert grad[i] == pytest.approx(numerical, abs=1e-5)

    def test_positive_weight_upweights_positive_errors(self):
        logits = np.array([-2.0])
        targets = np.array([1.0])
        loss_plain, _ = binary_cross_entropy_with_logits(logits, targets, 1.0)
        loss_weighted, _ = binary_cross_entropy_with_logits(logits, targets, 5.0)
        assert loss_weighted == pytest.approx(5.0 * loss_plain)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            binary_cross_entropy_with_logits(np.zeros(3), np.zeros(2))


def _quadratic_problem(optimizer_factory, steps=300):
    """Minimize ||Wx - y||^2 through the Layer/AdamW interface."""
    rng = np.random.default_rng(0)
    layer = Linear(3, 1, random_state=0)
    x = rng.normal(size=(32, 3))
    true_weights = np.array([[1.0], [-2.0], [0.5]])
    y = x @ true_weights
    optimizer = optimizer_factory([layer])
    for _ in range(steps):
        prediction = layer.forward(x, training=True)
        error = prediction - y
        layer.backward(2.0 * error / len(x))
        optimizer.step()
    final_error = float(np.mean((layer.forward(x) - y) ** 2))
    return final_error, layer


class TestOptimizers:
    def test_adam_reduces_loss(self):
        """Without decay, AdamW's step is plain Adam."""
        error, _ = _quadratic_problem(
            lambda layers: AdamW(layers, learning_rate=0.05, weight_decay=0.0))
        assert error < 0.01

    def test_adamw_reduces_loss(self):
        error, _ = _quadratic_problem(
            lambda layers: AdamW(layers, learning_rate=0.05, weight_decay=0.001))
        assert error < 0.05

    def test_adamw_weight_decay_shrinks_weights(self):
        _, decayed = _quadratic_problem(
            lambda layers: AdamW(layers, learning_rate=0.05, weight_decay=0.2), steps=100)
        _, plain = _quadratic_problem(
            lambda layers: AdamW(layers, learning_rate=0.05, weight_decay=0.0), steps=100)
        assert (np.linalg.norm(decayed.parameters["weight"])
                < np.linalg.norm(plain.parameters["weight"]))

    def test_invalid_hyperparameters(self):
        layer = Linear(2, 1)
        with pytest.raises(ValueError):
            AdamW([layer], learning_rate=0.0)
        with pytest.raises(ValueError):
            AdamW([layer], beta1=1.0)
        with pytest.raises(ValueError):
            AdamW([layer], beta2=-0.1)
        with pytest.raises(ValueError):
            AdamW([layer], weight_decay=-0.1)
        # A zero epsilon makes the update 0 / 0 wherever m = v = 0.
        with pytest.raises(ValueError):
            AdamW([layer], epsilon=0.0)
        with pytest.raises(ValueError):
            AdamW([layer], epsilon=-1e-8)


def _default_network(input_dim):
    config = MatcherConfig()
    return FeedForwardNetwork(input_dim, hidden_dims=config.hidden_dims,
                              dropout=config.dropout,
                              use_layer_norm=config.use_layer_norm, random_state=0)


#: Layer sets for the oracle, named by the edge of the step's blocking they
#: reach.  Each is built from the default network's input width, which only
#: the default network reads.
_LAYER_SETS = {
    # The first weight (input width x 256) ends in a partial row block.
    "default-network": lambda input_dim: _default_network(input_dim).layers,
    # A 40,000-wide weight row is wider than a block, so it is a block of
    # its own, and it sizes the scratch buffers.
    "row-wider-than-block": lambda input_dim: [Linear(2, 40_000, random_state=1)],
    # 1-D tensors longer than a block: two full slices and a partial one.
    "long-1d": lambda input_dim: [LayerNorm(70_000)],
    # Every tensor fits in one block.
    "smaller-than-block": lambda input_dim: [Linear(3, 5, random_state=2)],
}


def test_layer_sets_reach_the_block_edges(tiny_dataset):
    """The oracle's layer sets keep covering the edges they are named for."""
    input_dim = PairFeaturizer(FeaturizerConfig()).feature_dim(tiny_dataset)

    def tensors(layer_set):
        return [parameter for layer in _LAYER_SETS[layer_set](input_dim)
                for parameter in layer.parameters.values()]

    rows, row_size = tensors("default-network")[0].shape
    assert rows % (_BLOCK_ELEMENTS // row_size) != 0
    assert any(tensor.ndim == 2 and tensor.shape[1] > _BLOCK_ELEMENTS
               for tensor in tensors("row-wider-than-block"))
    assert all(tensor.ndim == 1 and tensor.size > 2 * _BLOCK_ELEMENTS
               and tensor.size % _BLOCK_ELEMENTS != 0 for tensor in tensors("long-1d"))
    assert all(tensor.size < _BLOCK_ELEMENTS for tensor in tensors("smaller-than-block"))


@pytest.mark.parametrize("weight_decay", [0.0, MatcherConfig().weight_decay])
@pytest.mark.parametrize("layer_set", sorted(_LAYER_SETS))
def test_adamw_matches_reference_bit_for_bit(tiny_dataset, layer_set, weight_decay):
    """The step equals the oracle's on each layer set's tensors.

    Both optimizers see the same seeded gradients, with magnitudes spread
    over several decades, for 100 steps; every parameter must stay
    bit-identical after every step.
    """
    config = MatcherConfig(weight_decay=weight_decay)
    input_dim = PairFeaturizer(FeaturizerConfig()).feature_dim(tiny_dataset)
    layers = [layer for layer in _LAYER_SETS[layer_set](input_dim) if layer.parameters]
    oracle_layers = copy.deepcopy(layers)
    optimizer = AdamW(layers, learning_rate=config.learning_rate,
                      weight_decay=config.weight_decay)
    oracle = ReferenceAdamW(oracle_layers, learning_rate=config.learning_rate,
                            weight_decay=config.weight_decay)
    rng = np.random.default_rng(16)
    for _ in range(100):
        for layer, oracle_layer in zip(layers, oracle_layers):
            for name, parameter in layer.parameters.items():
                scale = 10.0 ** rng.uniform(-6.0, 1.0)
                gradient = rng.normal(0.0, scale, size=parameter.shape)
                layer.gradients[name] = gradient
                oracle_layer.gradients[name] = gradient.copy()
        optimizer.step()
        oracle.step()
        for layer, oracle_layer in zip(layers, oracle_layers):
            for name, parameter in layer.parameters.items():
                assert np.array_equal(parameter, oracle_layer.parameters[name]), name


def test_adamw_step_allocates_no_arrays(tiny_dataset):
    """One step on the default network, after a warm-up step, peaks below
    64 KB of allocations.  A temporary of one weight block, or of the whole
    256 x 128 weight, would take 256 KB."""
    input_dim = PairFeaturizer(FeaturizerConfig()).feature_dim(tiny_dataset)
    network = _default_network(input_dim)
    x = np.random.default_rng(3).normal(size=(12, input_dim))
    logits, _ = network.forward(x, training=True)
    network.backward(np.ones_like(logits))
    optimizer = AdamW(network.layers)
    optimizer.step()
    tracemalloc.start()
    try:
        optimizer.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
