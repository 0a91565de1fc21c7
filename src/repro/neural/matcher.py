"""The neural matcher: DITTO's stand-in.

:class:`NeuralMatcher` plays the role the fine-tuned DITTO model plays in the
paper (Section 3.2): given featurized candidate pairs it is trained on the
current labeled set, selects the best epoch by validation F1, and afterwards
provides — for *every* pair in the dataset — a match probability and a pair
representation (the analogue of the ``[CLS]`` embedding) used by the
battleship selection mechanism.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.evaluation.metrics import f1_score
from repro.exceptions import NotFittedError
from repro.neural.activations import sigmoid
from repro.neural.calibration import sharpen_probabilities
from repro.neural.losses import binary_cross_entropy_with_logits
from repro.neural.network import FeedForwardNetwork
from repro.neural.optimizers import AdamW


@dataclass(frozen=True)
class MatcherConfig:
    """Hyper-parameters of :class:`NeuralMatcher`.

    The defaults mirror the spirit of Section 4.2: AdamW, a fixed epoch
    budget, model selection by validation F1, and a batch size small enough
    for low-resource training sets.  ``hidden_dims``, ``dropout`` and
    ``use_layer_norm`` shape the :class:`FeedForwardNetwork`; the last hidden
    size is the pair-representation width (768 for the paper's ``[CLS]``
    vector, 128 here to stay CPU-friendly).  Every range is checked here, so
    a bad value fails when the config is built, not inside a run.
    """

    hidden_dims: tuple[int, ...] = (256, 128)
    dropout: float = 0.1
    use_layer_norm: bool = True
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 12
    batch_size: int = 12
    positive_weight: float | None = None
    confidence_temperature: float = 0.5
    random_state: int = 0

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ValueError("hidden_dims must contain at least one layer size")
        if any(dim <= 0 for dim in self.hidden_dims):
            raise ValueError(f"hidden_dims sizes must be positive, got {self.hidden_dims}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.positive_weight is not None and self.positive_weight <= 0:
            raise ValueError("positive_weight must be positive when given")
        if self.confidence_temperature <= 0:
            raise ValueError("confidence_temperature must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics of one :meth:`NeuralMatcher.fit`.

    ``train_loss`` and ``validation_f1`` hold one value per epoch run
    (``validation_f1`` is NaN without validation data), and ``best_epoch`` is
    the epoch whose parameters were restored.  A fit with validation data
    stops after its first epoch with validation F1 = 1.0, so ``num_epochs``
    is then that epoch + 1 (and that epoch is ``best_epoch``); otherwise it
    is ``MatcherConfig.epochs``.
    """

    train_loss: list[float] = field(default_factory=list)
    validation_f1: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)


class NeuralMatcher:
    """Feed-forward matcher with pair representations and confidences."""

    def __init__(self, input_dim: int, config: MatcherConfig | None = None) -> None:
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.config = config or MatcherConfig()
        self.input_dim = input_dim
        self._network: FeedForwardNetwork | None = None
        self.history: TrainingHistory | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed at least once."""
        return self._network is not None

    def _positive_weight(self, y: np.ndarray) -> float:
        if self.config.positive_weight is not None:
            return self.config.positive_weight
        positives = float(np.sum(y))
        negatives = float(len(y) - positives)
        if positives == 0:
            return 1.0
        # Balance the classes, capped so a handful of positives does not blow
        # up the gradient scale.
        return float(np.clip(negatives / positives, 1.0, 10.0))

    def _snapshot_parameters(self, network: FeedForwardNetwork) -> list[dict[str, np.ndarray]]:
        return [copy.deepcopy(layer.parameters) for layer in network.layers]

    def _restore_parameters(self, network: FeedForwardNetwork,
                            snapshot: list[dict[str, np.ndarray]]) -> None:
        for layer, parameters in zip(network.layers, snapshot):
            for name, value in parameters.items():
                layer.parameters[name][...] = value

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation_features: np.ndarray | None = None,
        validation_labels: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Train from scratch on ``(features, labels)``.

        The paper re-initializes DITTO in every active-learning iteration
        rather than warm-starting from the previous model; ``fit`` therefore
        always rebuilds the network.  When validation data is supplied the
        epoch with the best validation F1 is restored at the end.  Only a
        strictly higher F1 replaces the best epoch, so training stops after
        the first epoch that scores F1 = 1.0: no later epoch could be
        restored, and the parameters, predictions and representations are
        those of the full epoch budget.  Without validation data every epoch
        runs and the last one is kept.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        if features.ndim != 2 or features.shape[1] != self.input_dim:
            raise ValueError(
                f"features must have shape (n, {self.input_dim}), got {features.shape}"
            )
        if len(features) != len(labels):
            raise ValueError("features and labels must have the same length")
        if len(features) == 0:
            raise ValueError("Cannot fit a matcher on an empty training set")

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
                self._network = network  # temporary, for predict during training
                probabilities = self._raw_probabilities(np.asarray(validation_features))
                f1 = f1_score(np.asarray(validation_labels), probabilities >= 0.5)
                history.validation_f1.append(f1)
                if f1 > best_f1:
                    best_f1 = f1
                    best_snapshot = self._snapshot_parameters(network)
                    history.best_epoch = epoch
                if f1 == 1.0:
                    # F1 never exceeds 1.0, so no later epoch can be restored.
                    break
            else:
                history.validation_f1.append(float("nan"))
                best_snapshot = self._snapshot_parameters(network)
                history.best_epoch = epoch

        self._restore_parameters(network, best_snapshot)
        self._network = network
        self.history = history
        return history

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _require_network(self) -> FeedForwardNetwork:
        if self._network is None:
            raise NotFittedError("NeuralMatcher.fit must be called before inference")
        return self._network

    def _raw_probabilities(self, features: np.ndarray) -> np.ndarray:
        network = self._require_network()
        logits, _ = network.forward(np.asarray(features, dtype=np.float64), training=False)
        return sigmoid(logits)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Match probabilities, sharpened to emulate PLM over-confidence."""
        probabilities = self._raw_probabilities(features)
        return sharpen_probabilities(probabilities, self.config.confidence_temperature)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard match / non-match predictions."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Pair representations (the ``[CLS]`` analogue), one row per pair."""
        network = self._require_network()
        return network.representation(np.asarray(features, dtype=np.float64), training=False)

    def predict_with_representations(
        self, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(probabilities, representations)`` in a single forward pass."""
        network = self._require_network()
        logits, representations = network.forward(
            np.asarray(features, dtype=np.float64), training=False)
        probabilities = sharpen_probabilities(sigmoid(logits),
                                              self.config.confidence_temperature)
        return probabilities, representations
