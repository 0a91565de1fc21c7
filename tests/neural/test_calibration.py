"""Tests for repro.neural.calibration."""

import numpy as np
import pytest

from repro.neural.calibration import logit, sharpen_probabilities


class TestLogitAndSharpen:
    def test_logit_inverts_sigmoid(self):
        probabilities = np.array([0.1, 0.5, 0.9])
        recovered = 1.0 / (1.0 + np.exp(-logit(probabilities)))
        assert np.allclose(recovered, probabilities, atol=1e-9)

    def test_sharpen_pushes_to_extremes(self):
        probabilities = np.array([0.3, 0.7])
        sharpened = sharpen_probabilities(probabilities, temperature=0.25)
        assert sharpened[0] < 0.3
        assert sharpened[1] > 0.7

    def test_sharpen_identity_at_temperature_one(self):
        probabilities = np.array([0.2, 0.8])
        assert np.allclose(sharpen_probabilities(probabilities, 1.0), probabilities)

    def test_sharpen_preserves_half(self):
        assert sharpen_probabilities(np.array([0.5]), 0.1)[0] == pytest.approx(0.5)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            sharpen_probabilities(np.array([0.5]), 0.0)

    def test_dichotomous_confidence_emerges(self):
        """Sharpening produces the near-0/1 confidences Section 3.5.1 describes."""
        rng = np.random.default_rng(0)
        probabilities = rng.uniform(0.2, 0.8, size=500)
        sharpened = sharpen_probabilities(probabilities, temperature=0.2)
        extreme_fraction = np.mean((sharpened < 0.05) | (sharpened > 0.95))
        assert extreme_fraction > 0.5

