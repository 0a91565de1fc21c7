"""Engine-level feature-matrix reuse.

A figure grid enumerates many runs over few datasets; the engine must
featurize each dataset exactly once per process (counter-hook regression)
while producing curves bit-identical to per-run featurization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import engine as engine_module
from repro.experiments.configs import default_settings
from repro.experiments.engine import (
    ExperimentEngine,
    ParallelExecutor,
    RunSpec,
    clear_dataset_cache,
    clear_feature_cache,
    execute_spec,
    get_dataset,
    get_feature_matrix,
    method_factory,
    run_single,
)
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.scenarios import get_scenario


@pytest.fixture()
def tiny_settings():
    return default_settings("tiny", datasets=("amazon_google",))


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


def test_engine_grid_featurizes_each_dataset_exactly_once(tiny_settings, monkeypatch):
    calls: list[str] = []
    original = PairFeaturizer.transform

    def counting_transform(self, dataset, indices=None):
        calls.append(dataset.name)
        return original(self, dataset, indices)

    monkeypatch.setattr(PairFeaturizer, "transform", counting_transform)
    specs = [
        RunSpec.create("amazon_google", method, seed, 0.5, 0.5, "selector",
                       tiny_settings)
        for method in ("random", "dal")
        for seed in (7, 20)
    ]
    engine = ExperimentEngine(tiny_settings, executor=ParallelExecutor(jobs=1))
    results = engine.run(specs)
    assert len(results) == 4
    assert engine.last_report.executed == 4
    assert calls == ["amazon_google"]


def test_cached_grid_curves_match_per_run_featurization(tiny_settings):
    spec = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                          "selector", tiny_settings)
    cached_result = execute_spec(spec, tiny_settings)

    dataset = get_dataset("amazon_google", tiny_settings)
    scenario = get_scenario("perfect")
    per_run_result = run_single(
        dataset, method_factory("battleship")(0.5, 0.5), tiny_settings, 7,
        "selector", oracle=scenario.build_oracle(dataset, 7))
    assert cached_result == per_run_result


def test_feature_matrix_cached_and_read_only(tiny_settings):
    first = get_feature_matrix("amazon_google", tiny_settings)
    second = get_feature_matrix("amazon_google", tiny_settings)
    assert first is second
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


def test_feature_cache_key_includes_featurizer_config(tiny_settings):
    narrow = default_settings("tiny", datasets=("amazon_google",))
    wide_config = FeaturizerConfig(hash_dim=64)
    import dataclasses
    wide = dataclasses.replace(narrow, featurizer_config=wide_config)
    narrow_matrix = get_feature_matrix("amazon_google", narrow)
    wide_matrix = get_feature_matrix("amazon_google", wide)
    assert narrow_matrix.shape[1] != wide_matrix.shape[1]
    assert len(engine_module._FEATURE_CACHE) == 2


def test_feature_cache_is_a_bounded_lru(tiny_settings, monkeypatch):
    monkeypatch.setattr(engine_module, "FEATURE_CACHE_MAX_ENTRIES", 1)
    import dataclasses
    wide = dataclasses.replace(tiny_settings,
                               featurizer_config=FeaturizerConfig(hash_dim=64))
    first = get_feature_matrix("amazon_google", tiny_settings)
    get_feature_matrix("amazon_google", wide)
    assert len(engine_module._FEATURE_CACHE) == 1
    # The narrow matrix was evicted; requesting it again recomputes (same
    # values, different object).
    recomputed = get_feature_matrix("amazon_google", tiny_settings)
    assert recomputed is not first
    assert np.array_equal(recomputed, first)


def test_clear_dataset_cache_drops_feature_matrices(tiny_settings):
    get_feature_matrix("amazon_google", tiny_settings)
    assert engine_module._FEATURE_CACHE
    clear_dataset_cache()
    assert not engine_module._FEATURE_CACHE


def test_clear_feature_cache_keeps_datasets(tiny_settings):
    get_feature_matrix("amazon_google", tiny_settings)
    assert engine_module._DATASET_CACHE
    clear_feature_cache()
    assert not engine_module._FEATURE_CACHE
    assert engine_module._DATASET_CACHE


def test_loop_rejects_mismatched_feature_matrix(tiny_settings):
    from repro.active.loop import ActiveLearningLoop
    from repro.active.selectors import RandomSelector

    dataset = get_dataset("amazon_google", tiny_settings)
    with pytest.raises(ConfigurationError):
        ActiveLearningLoop(
            dataset=dataset,
            selector=RandomSelector(),
            featurizer_config=tiny_settings.featurizer_config,
            features=np.zeros((3, 4)),
        )
