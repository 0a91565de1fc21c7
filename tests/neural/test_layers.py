"""Tests for repro.neural.layers: forward shapes and gradient correctness."""

import numpy as np
import pytest

from repro.neural.activations import relu, sigmoid
from repro.neural.layers import Dropout, LayerNorm, Linear, ReLU


def numerical_gradient(function, x, epsilon=1e-6):
    """Central-difference numerical gradient of a scalar function."""
    grad = np.zeros_like(x)
    iterator = np.nditer(x, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = x[index]
        x[index] = original + epsilon
        plus = function()
        x[index] = original - epsilon
        minus = function()
        x[index] = original
        grad[index] = (plus - minus) / (2 * epsilon)
        iterator.iternext()
    return grad


class TestActivationFunctions:
    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))

    def test_sigmoid_bounds_and_stability(self):
        values = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0, abs=1e-12)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, random_state=0)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_backward_requires_training_forward(self):
        layer = Linear(4, 3, random_state=0)
        layer.forward(np.ones((2, 4)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 3)))

    def test_gradient_against_numerical(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, random_state=1)
        x = rng.normal(size=(6, 4))
        target_grad = rng.normal(size=(6, 3))

        def loss():
            return float(np.sum(layer.forward(x, training=True) * target_grad))

        layer.forward(x, training=True)
        grad_input = layer.backward(target_grad)

        numerical_weight = numerical_gradient(loss, layer.parameters["weight"])
        numerical_bias = numerical_gradient(loss, layer.parameters["bias"])
        assert np.allclose(layer.gradients["weight"], numerical_weight, atol=1e-5)
        assert np.allclose(layer.gradients["bias"], numerical_bias, atol=1e-5)

        numerical_input = numerical_gradient(loss, x)
        assert np.allclose(grad_input, numerical_input, atol=1e-5)


class TestActivationLayer:
    def test_relu_forward_backward(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0]])
        out = layer.forward(x, training=True)
        assert np.array_equal(out, np.array([[0.0, 2.0]]))
        grad = layer.backward(np.ones_like(x))
        assert np.array_equal(grad, np.array([[0.0, 1.0]]))

    def test_backward_requires_training(self):
        layer = ReLU()
        layer.forward(np.ones((1, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5, random_state=0)
        x = np.ones((4, 8))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_training_scales_kept_units(self):
        layer = Dropout(0.5, random_state=0)
        x = np.ones((200, 50))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        # Roughly half the units survive.
        assert 0.35 < (out > 0).mean() < 0.65

    def test_backward_applies_same_mask(self):
        layer = Dropout(0.5, random_state=0)
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        assert np.array_equal(grad > 0, out > 0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_zero_rate_is_identity_in_training(self):
        layer = Dropout(0.0)
        x = np.ones((2, 3))
        assert np.array_equal(layer.forward(x, training=True), x)


class TestLayerNorm:
    def test_output_is_normalized(self):
        layer = LayerNorm(8)
        x = np.random.default_rng(0).normal(3.0, 5.0, size=(4, 8))
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient_against_numerical(self):
        rng = np.random.default_rng(1)
        layer = LayerNorm(5)
        x = rng.normal(size=(3, 5))
        target = rng.normal(size=(3, 5))

        def loss():
            return float(np.sum(layer.forward(x, training=True) * target))

        layer.forward(x, training=True)
        grad_input = layer.backward(target)
        numerical_input = numerical_gradient(loss, x)
        assert np.allclose(grad_input, numerical_input, atol=1e-5)
        numerical_gamma = numerical_gradient(loss, layer.parameters["gamma"])
        assert np.allclose(layer.gradients["gamma"], numerical_gamma, atol=1e-5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LayerNorm(0)


@pytest.mark.parametrize("make_layer", [lambda: Linear(4, 3, random_state=0),
                                        lambda: LayerNorm(4)],
                         ids=["Linear", "LayerNorm"])
def test_backward_assigns_gradients(make_layer):
    """A second ``backward`` overwrites the gradients instead of adding to
    them, which is why training needs no zeroing pass between steps."""
    rng = np.random.default_rng(2)
    layer = make_layer()
    x = rng.normal(size=(6, 4))
    out = layer.forward(x, training=True)
    first = rng.normal(size=out.shape)
    second = rng.normal(size=out.shape)
    layer.backward(first)
    layer.backward(second)
    after_both = {name: grad.copy() for name, grad in layer.gradients.items()}
    fresh = make_layer()
    fresh.forward(x, training=True)
    fresh.backward(second)
    assert sorted(after_both) == sorted(fresh.parameters)
    for name, grad in fresh.gradients.items():
        assert np.array_equal(after_both[name], grad)
