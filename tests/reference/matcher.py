"""The matcher fit that trains every epoch: the oracle for the perfect-F1 stop.

``FullEpochMatcher.fit`` is ``NeuralMatcher.fit``'s epoch loop before the
fit learned to stop after its first epoch with validation F1 = 1.0: it runs
all ``MatcherConfig.epochs`` epochs and restores the epoch with the best
validation F1 (the first one, on ties).  Network, optimizer, loss and
inference are the shipped ones; only the loop differs, so a stopped fit
must equal this one bit for bit, with a history that is a prefix of this
one's.
"""

from __future__ import annotations

import numpy as np

from repro._rng import ensure_rng, spawn_rng
from repro.evaluation.metrics import f1_score
from repro.neural.losses import binary_cross_entropy_with_logits
from repro.neural.matcher import NeuralMatcher, TrainingHistory
from repro.neural.network import FeedForwardNetwork
from repro.neural.optimizers import AdamW


class FullEpochMatcher(NeuralMatcher):
    """``NeuralMatcher`` whose ``fit`` always runs the whole epoch budget."""

    def fit(self, features, labels, validation_features=None, validation_labels=None):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)

        rng = ensure_rng(self.config.random_state)
        network_rng, shuffle_rng = spawn_rng(rng, 2)
        network = FeedForwardNetwork(
            self.input_dim, hidden_dims=self.config.hidden_dims,
            dropout=self.config.dropout, use_layer_norm=self.config.use_layer_norm,
            random_state=network_rng)
        optimizer = AdamW(network.layers, learning_rate=self.config.learning_rate,
                          weight_decay=self.config.weight_decay)
        positive_weight = self._positive_weight(labels)

        history = TrainingHistory()
        best_f1 = -1.0
        best_snapshot = self._snapshot_parameters(network)

        has_validation = (validation_features is not None and validation_labels is not None
                          and len(validation_features) > 0)
        n = len(features)
        batch_size = min(self.config.batch_size, n)

        for epoch in range(self.config.epochs):
            order = shuffle_rng.permutation(n)
            epoch_losses: list[float] = []
            for start in range(0, n, batch_size):
                batch = order[start:start + batch_size]
                x_batch, y_batch = features[batch], labels[batch]
                logits, _ = network.forward(x_batch, training=True)
                loss, grad = binary_cross_entropy_with_logits(logits, y_batch, positive_weight)
                network.backward(grad)
                optimizer.step()
                epoch_losses.append(loss)
            history.train_loss.append(float(np.mean(epoch_losses)))

            if has_validation:
                self._network = network
                probabilities = self._raw_probabilities(np.asarray(validation_features))
                f1 = f1_score(np.asarray(validation_labels), probabilities >= 0.5)
                history.validation_f1.append(f1)
                if f1 > best_f1:
                    best_f1 = f1
                    best_snapshot = self._snapshot_parameters(network)
                    history.best_epoch = epoch
            else:
                history.validation_f1.append(float("nan"))
                best_snapshot = self._snapshot_parameters(network)
                history.best_epoch = epoch

        self._restore_parameters(network, best_snapshot)
        self._network = network
        self.history = history
        return history
