"""Neural matcher substrate: the NumPy stand-in for the paper's DITTO model.

The matcher trains one path: :class:`PairFeaturizer` features feed a
:class:`FeedForwardNetwork` (Linear → LayerNorm → ReLU → Dropout blocks),
trained with weighted binary cross entropy and :class:`AdamW`, the only
optimizer.  Each layer's ``backward`` assigns its gradients, so nothing is
zeroed between steps.
"""

from repro.neural.activations import relu, sigmoid
from repro.neural.calibration import logit, sharpen_probabilities
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.neural.layers import Dropout, Layer, LayerNorm, Linear, ReLU
from repro.neural.losses import binary_cross_entropy_with_logits
from repro.neural.matcher import MatcherConfig, NeuralMatcher, TrainingHistory
from repro.neural.network import FeedForwardNetwork
from repro.neural.optimizers import AdamW

__all__ = [
    "AdamW",
    "Dropout",
    "FeaturizerConfig",
    "FeedForwardNetwork",
    "Layer",
    "LayerNorm",
    "Linear",
    "MatcherConfig",
    "NeuralMatcher",
    "PairFeaturizer",
    "ReLU",
    "TrainingHistory",
    "binary_cross_entropy_with_logits",
    "logit",
    "relu",
    "sharpen_probabilities",
    "sigmoid",
]
