"""Tests for the scale profiles and RNG helpers."""

import numpy as np
import pytest

from repro._rng import ensure_rng, spawn_rng
from repro.config import available_scales, get_scale, scaled_size
from repro.exceptions import ConfigurationError


class TestScaleProfiles:
    def test_available_scales(self):
        assert {"tiny", "small", "medium", "paper"} <= set(available_scales())

    def test_paper_scale_matches_section_4_2(self):
        paper = get_scale("paper")
        assert paper.iterations == 8
        assert paper.budget_per_iteration == 100
        assert paper.seed_size == 100
        assert paper.size_factor == 1.0

    def test_environment_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "small"
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale().name == "tiny"

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_scaled_size(self):
        scale = get_scale("paper")
        assert scaled_size(6144, scale) == 6144
        tiny = get_scale("tiny")
        assert scaled_size(6144, tiny) < 6144
        assert scaled_size(100, tiny, minimum=200) == 200

    def test_scaled_size_invalid(self):
        with pytest.raises(ConfigurationError):
            scaled_size(0, get_scale("tiny"))

    def test_scales_ordered_by_size(self):
        factors = [get_scale(name).size_factor for name in ("tiny", "small", "medium", "paper")]
        assert factors == sorted(factors)


class TestRngHelpers:
    def test_ensure_rng_accepts_none_int_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
        assert isinstance(ensure_rng(5), np.random.Generator)
        generator = np.random.default_rng(3)
        assert ensure_rng(generator) is generator

    def test_ensure_rng_rejects_other_types(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_same_seed_same_stream(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_spawn_rng_independent_streams(self):
        parent = ensure_rng(1)
        children = spawn_rng(parent, 3)
        assert len(children) == 3
        values = [child.random() for child in children]
        assert len(set(values)) == 3

    def test_spawn_rng_invalid(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), 0)
