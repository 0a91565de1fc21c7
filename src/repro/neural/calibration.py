"""Confidence sharpening for the matcher's probabilities.

Section 3.5.1 of the paper argues that transformer matchers produce
*dichotomous* confidence values (close to 0 or 1) that are poorly calibrated,
which is why the battleship approach replaces plain conditional entropy with a
spatial certainty measure.  :func:`sharpen_probabilities` exaggerates
over-confidence; :class:`repro.neural.matcher.NeuralMatcher` applies it (with
``MatcherConfig.confidence_temperature``) to emulate the dichotomous
behaviour of a fully fine-tuned PLM even when the underlying MLP is
comparatively well calibrated.
"""

from __future__ import annotations

import numpy as np

from repro.neural.activations import sigmoid

_EPSILON = 1e-12


def logit(probabilities: np.ndarray) -> np.ndarray:
    """Inverse sigmoid, clipped away from 0 and 1 for numerical stability."""
    p = np.clip(np.asarray(probabilities, dtype=np.float64), _EPSILON, 1.0 - _EPSILON)
    return np.log(p / (1.0 - p))


def sharpen_probabilities(probabilities: np.ndarray, temperature: float = 0.5) -> np.ndarray:
    """Sharpen probabilities by dividing logits by ``temperature`` (< 1 sharpens).

    With ``temperature`` below 1 the output distribution is pushed towards the
    extremes, emulating the over-confident behaviour of fine-tuned PLMs.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return sigmoid(logit(probabilities) / temperature)
