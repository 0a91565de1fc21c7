"""The shipped fit stops at a perfect validation F1 and loses nothing by it.

``NeuralMatcher.fit`` leaves its epoch loop after the first epoch with
validation F1 = 1.0; ``FullEpochMatcher`` trains every epoch.  A later epoch
replaces the restored one only on a strictly higher F1, so both must restore
the same parameters bit for bit, and the stopped fit's history must be a
strict prefix of the full one's.  Without a perfect epoch, or without
validation data, the two fits are the same fit.
"""

import numpy as np
import pytest

from reference.matcher import FullEpochMatcher
from repro.neural.featurizer import PairFeaturizer
from repro.neural.matcher import MatcherConfig, NeuralMatcher


@pytest.fixture(scope="module")
def product_features(tiny_product_dataset, small_featurizer_config):
    return PairFeaturizer(small_featurizer_config).transform(tiny_product_dataset)


def _fit_both(dataset, features, config, train_rows=None, with_validation=True):
    train = dataset.train_indices[:train_rows]
    validation = {}
    if with_validation:
        indices = dataset.validation_indices
        validation = {"validation_features": features[indices],
                      "validation_labels": dataset.labels(indices)}
    fits = []
    for matcher_class in (NeuralMatcher, FullEpochMatcher):
        matcher = matcher_class(input_dim=features.shape[1], config=config)
        matcher.fit(features[train], dataset.labels(train), **validation)
        fits.append(matcher)
    return fits


def _assert_same_model(shipped, reference, features):
    for layer, reference_layer in zip(shipped._network.layers,
                                      reference._network.layers, strict=True):
        for name, parameter in layer.parameters.items():
            assert parameter.tobytes() == reference_layer.parameters[name].tobytes(), name
    assert shipped.history.best_epoch == reference.history.best_epoch
    assert shipped.predict_proba(features).tobytes() == \
        reference.predict_proba(features).tobytes()
    assert shipped.embed(features).tobytes() == reference.embed(features).tobytes()


@pytest.mark.parametrize("config,train_rows,perfect_epoch", [
    (None, None, 1),
    (MatcherConfig(), 60, 0),
], ids=["fast-config-perfect-at-epoch-1", "default-config-perfect-at-epoch-0"])
def test_stopped_fit_equals_full_epoch_fit(tiny_product_dataset, product_features,
                                           fast_matcher_config, config, train_rows,
                                           perfect_epoch):
    config = config or fast_matcher_config
    shipped, reference = _fit_both(tiny_product_dataset, product_features, config,
                                   train_rows)

    full = reference.history
    assert full.num_epochs == config.epochs
    assert full.validation_f1.index(1.0) == perfect_epoch < config.epochs - 1
    stopped = shipped.history
    assert stopped.num_epochs == perfect_epoch + 1
    assert stopped.train_loss == full.train_loss[:stopped.num_epochs]
    assert stopped.validation_f1 == full.validation_f1[:stopped.num_epochs]
    assert stopped.best_epoch == perfect_epoch
    _assert_same_model(shipped, reference, product_features)


def test_fit_without_a_perfect_epoch_runs_every_epoch(tiny_dataset, tiny_features,
                                                      fast_matcher_config):
    shipped, reference = _fit_both(tiny_dataset, tiny_features, fast_matcher_config)
    assert max(reference.history.validation_f1) < 1.0
    assert shipped.history.num_epochs == fast_matcher_config.epochs
    assert shipped.history.train_loss == reference.history.train_loss
    assert shipped.history.validation_f1 == reference.history.validation_f1
    _assert_same_model(shipped, reference, tiny_features)


def test_fit_without_validation_runs_every_epoch(tiny_product_dataset, product_features,
                                                 fast_matcher_config):
    # The same data reach F1 = 1.0 at epoch 1 when validated.
    shipped, reference = _fit_both(tiny_product_dataset, product_features,
                                   fast_matcher_config, with_validation=False)
    assert shipped.history.num_epochs == fast_matcher_config.epochs
    assert shipped.history.best_epoch == fast_matcher_config.epochs - 1
    assert shipped.history.train_loss == reference.history.train_loss
    _assert_same_model(shipped, reference, product_features)
