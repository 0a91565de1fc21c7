"""The shipped matcher fit against the original optimizer and backward pass.

With ``ReferenceAdamW`` in place of ``AdamW`` and ``full_backward`` in place
of ``FeedForwardNetwork.backward``, ``NeuralMatcher.fit`` is the fit before
the in-place, blocked step and before the first layer's input gradient was
dropped.  The shipped fit must equal it bit for bit: every parameter, the
training history and the predictions.  The default network's first weight
(the tiny features' width x 256) ends in a partial block.
"""

import numpy as np
import pytest

from reference.optimizers import ReferenceAdamW, full_backward
from repro.neural import matcher as matcher_module
from repro.neural.matcher import NeuralMatcher
from repro.neural.network import FeedForwardNetwork


def _fit(dataset, features, with_validation):
    validation = {}
    if with_validation:
        indices = dataset.validation_indices
        validation = {"validation_features": features[indices],
                      "validation_labels": dataset.labels(indices)}
    matcher = NeuralMatcher(input_dim=features.shape[1])
    train = dataset.train_indices
    matcher.fit(features[train], dataset.labels(train), **validation)
    return matcher


@pytest.mark.parametrize("with_validation", [True, False],
                         ids=["validation", "no-validation"])
def test_fit_matches_reference_bit_for_bit(tiny_dataset, tiny_features, monkeypatch,
                                           with_validation):
    shipped = _fit(tiny_dataset, tiny_features, with_validation)
    monkeypatch.setattr(matcher_module, "AdamW", ReferenceAdamW)
    monkeypatch.setattr(FeedForwardNetwork, "backward", full_backward)
    reference = _fit(tiny_dataset, tiny_features, with_validation)

    for layer, reference_layer in zip(shipped._network.layers,
                                      reference._network.layers, strict=True):
        for name, parameter in layer.parameters.items():
            assert np.array_equal(parameter, reference_layer.parameters[name]), name
    assert shipped.history.train_loss == reference.history.train_loss
    assert np.array_equal(shipped.history.validation_f1, reference.history.validation_f1,
                          equal_nan=True)
    assert shipped.history.best_epoch == reference.history.best_epoch
    assert np.array_equal(shipped.predict_proba(tiny_features),
                          reference.predict_proba(tiny_features))
