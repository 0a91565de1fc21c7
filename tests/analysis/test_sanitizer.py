"""Runtime determinism sanitizer tests."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.active.selectors import RandomSelector
from repro.analysis import (
    DeterminismViolation,
    determinism_guard,
    permuted,
    shuffled_dict,
)
from repro.config import get_scale
from repro.experiments import engine as engine_module
from repro.experiments.configs import ExperimentSettings, default_settings
from repro.experiments.engine import ExperimentEngine, RunSpec, execute_spec
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig


def test_clean_block_passes_and_restores_state():
    random.seed(12345)
    np.random.seed(12345)
    py_before = random.getstate()
    np_before = np.random.get_state()
    with determinism_guard("clean block") as guard:
        rng = np.random.default_rng(0)  # owned generator: invisible to guard
        rng.random(10)
        guard.check("mid-block")
    assert random.getstate() == py_before
    assert np.all(np.random.get_state()[1] == np_before[1])


def test_stdlib_global_consumption_fails_loudly():
    with pytest.raises(DeterminismViolation, match="stdlib global RNG"):
        with determinism_guard("stdlib probe"):
            random.random()


def test_numpy_global_consumption_fails_loudly():
    with pytest.raises(DeterminismViolation, match="legacy global RNG"):
        with determinism_guard("numpy probe"):
            np.random.rand(3)  # repro: noqa[ND003] the violation under test


def test_state_is_restored_even_on_failure():
    random.seed(999)
    py_before = random.getstate()
    with pytest.raises(DeterminismViolation):
        with determinism_guard():
            random.random()
    assert random.getstate() == py_before


def test_assert_read_only():
    array = np.zeros(4)
    array.setflags(write=False)  # repro: noqa[MU002] constructing the read-only fixture under test
    with determinism_guard() as guard:
        guard.assert_read_only(array, name="fixture")
    writeable = np.zeros(4)
    with determinism_guard() as guard:
        with pytest.raises(DeterminismViolation, match="writeable"):
            guard.assert_read_only(writeable, name="fixture")


def test_permuted_is_deterministic_and_complete():
    items = list(range(20))
    assert permuted(items) == permuted(items)
    assert permuted(items) != items
    assert sorted(permuted(items)) == items
    assert permuted(items, seed=1) != permuted(items, seed=2)


def test_shuffled_dict_preserves_mapping():
    mapping = {f"k{i}": i for i in range(12)}
    shuffled = shuffled_dict(mapping)
    assert shuffled == mapping  # equal as mappings...
    assert list(shuffled) != list(mapping)  # ...but not in insertion order
    assert shuffled_dict(mapping) == shuffled


def test_engine_runs_clean_under_the_sanitizer():
    """The flagship integration: every engine job runs under the guard."""
    settings = default_settings("tiny")
    spec = RunSpec.create("amazon_google", "random", seed=7, alpha=0.5,
                          beta=0.5, weak_supervision="off", settings=settings)
    result = execute_spec(spec, settings)
    assert result.records


class _GlobalRngSelector(RandomSelector):
    """A selector with the ND003 bug: it consumes numpy's global RNG."""

    def select(self, context):
        np.random.rand(1)  # repro: noqa[ND003] the violation under test
        return super().select(context)


def test_engine_job_consuming_the_global_rng_fails(monkeypatch):
    """No switch turns the guard on: an engine job is always guarded."""
    monkeypatch.setitem(engine_module._METHOD_FACTORIES, "global-rng",
                        lambda alpha, beta: _GlobalRngSelector())
    settings = ExperimentSettings(
        scale=get_scale("tiny"), datasets=("amazon_google",), iterations=1,
        budget_per_iteration=8, seed_size=8, num_seeds=1, alphas=(0.5,),
        beta=0.5,
        matcher_config=MatcherConfig(hidden_dims=(24,), epochs=2,
                                     batch_size=16, random_state=0),
        featurizer_config=FeaturizerConfig(hash_dim=32), base_random_seed=7)
    spec = RunSpec.create("amazon_google", "global-rng", 7, 0.5, 0.5,
                          "selector", settings)
    engine = ExperimentEngine(settings)
    with pytest.raises(DeterminismViolation, match="legacy global RNG"):
        engine.run([spec])
    assert engine.last_report.failed == 1
