"""Tests for the scenario subsystem (definitions, registry, dataset/oracle building)."""

import numpy as np
import pytest

from repro.active.oracle import (
    AbstainingOracle,
    ClassConditionalNoisyOracle,
    NoisyOracle,
)
from repro.datasets.registry import load_benchmark
from repro.exceptions import ConfigurationError
from repro.scenarios import (
    CorruptionRegime,
    OracleModel,
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
    resolve_scenarios,
)


def _pair_values(dataset, indices):
    """Both sides' raw record values for the pairs at ``indices``."""
    return [tuple(record.values for record in dataset.records_for(dataset.pairs[i]))
            for i in indices]


class TestRegistry:
    def test_builtins_cover_all_three_axes(self):
        names = available_scenarios()
        assert len(names) >= 8
        for expected in ("perfect", "noisy-0.1", "abstaining", "clean",
                         "dirty", "very-dirty", "skewed-cluster",
                         "positive-starved"):
            assert expected in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("mystery")

    def test_resolve_accepts_comma_separated_string(self):
        scenarios = resolve_scenarios("perfect,noisy-0.1, abstaining")
        assert [s.name for s in scenarios] == ["perfect", "noisy-0.1",
                                               "abstaining"]

    def test_resolve_deduplicates_preserving_order(self):
        scenarios = resolve_scenarios(["noisy-0.1", "perfect", "noisy-0.1"])
        assert [s.name for s in scenarios] == ["noisy-0.1", "perfect"]

    def test_resolve_none_returns_everything(self):
        assert len(resolve_scenarios(None)) == len(available_scenarios())

    def test_reregistering_same_definition_is_idempotent(self):
        scenario = get_scenario("perfect")
        assert register_scenario(scenario) is scenario

    def test_conflicting_registration_rejected(self):
        conflicting = Scenario(
            name="perfect",
            oracle=OracleModel(kind="noisy", flip_probability=0.5))
        with pytest.raises(ConfigurationError):
            register_scenario(conflicting)


class TestDefinitions:
    def test_unknown_oracle_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            OracleModel(kind="psychic")

    def test_unknown_pool_skew_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", pool_skew="mystery")

    def test_fingerprint_tracks_behavioural_fields_only(self):
        base = Scenario(name="s", oracle=OracleModel(kind="noisy",
                                                     flip_probability=0.1))
        reworded = Scenario(name="s",
                            oracle=OracleModel(kind="noisy",
                                               flip_probability=0.1),
                            description="different words")
        retuned = Scenario(name="s", oracle=OracleModel(kind="noisy",
                                                        flip_probability=0.2))
        assert base.fingerprint() == reworded.fingerprint()
        assert base.fingerprint() != retuned.fingerprint()

    def test_dataset_fingerprint_ignores_oracle(self):
        noisy = get_scenario("noisy-0.1")
        noisier = get_scenario("noisy-0.3")
        assert noisy.dataset_fingerprint() == noisier.dataset_fingerprint() == ""
        assert get_scenario("very-dirty").dataset_fingerprint() != ""

    def test_dataset_fingerprint_scopes_pool_skew_by_name(self):
        first = Scenario(name="skew-a", pool_skew="positive-starved")
        second = Scenario(name="skew-b", pool_skew="positive-starved")
        assert first.dataset_fingerprint() != second.dataset_fingerprint()

    def test_corruption_regime_apply_overrides(self):
        from repro.datasets.corruptions import CLEAN_SOURCE
        from repro.datasets.registry import benchmark_spec
        spec = benchmark_spec("amazon_google")
        regime = CorruptionRegime(name="clean", left=CLEAN_SOURCE,
                                  right=CLEAN_SOURCE)
        applied = regime.apply_to(spec)
        assert applied.left_corruption == CLEAN_SOURCE
        assert applied.right_corruption == CLEAN_SOURCE
        assert applied.name == spec.name


class TestBuildDataset:
    def test_default_scenario_matches_plain_benchmark(self):
        scenario = get_scenario("perfect")
        built = scenario.build_dataset("amazon_google", scale="tiny",
                                       random_state=7)
        plain = load_benchmark("amazon_google", scale="tiny", random_state=7)
        np.testing.assert_array_equal(built.labels(), plain.labels())
        np.testing.assert_array_equal(built.train_indices, plain.train_indices)
        assert _pair_values(built, [0, 1, 2]) == _pair_values(plain, [0, 1, 2])

    def test_corruption_regime_changes_records(self):
        dirty = get_scenario("very-dirty").build_dataset(
            "amazon_google", scale="tiny", random_state=7)
        plain = load_benchmark("amazon_google", scale="tiny", random_state=7)
        assert _pair_values(dirty, range(20)) != _pair_values(plain, range(20))

    def test_pool_skew_shrinks_train_pool(self):
        skewed = get_scenario("positive-starved").build_dataset(
            "amazon_google", scale="tiny", random_state=7)
        plain = load_benchmark("amazon_google", scale="tiny", random_state=7)
        assert len(skewed.train_indices) < len(plain.train_indices)
        np.testing.assert_array_equal(skewed.test_indices, plain.test_indices)

    def test_build_is_deterministic(self):
        scenario = get_scenario("hostile")
        first = scenario.build_dataset("amazon_google", scale="tiny",
                                       random_state=7)
        second = scenario.build_dataset("amazon_google", scale="tiny",
                                        random_state=7)
        np.testing.assert_array_equal(first.train_indices, second.train_indices)
        assert _pair_values(first, range(10)) == _pair_values(second, range(10))


class TestBuildOracle:
    def test_perfect_scenario_builds_none(self, tiny_dataset):
        assert get_scenario("perfect").build_oracle(tiny_dataset, 7) is None

    def test_oracle_kinds(self, tiny_dataset):
        assert isinstance(get_scenario("noisy-0.1").build_oracle(tiny_dataset, 7),
                          NoisyOracle)
        assert isinstance(
            get_scenario("over-merging").build_oracle(tiny_dataset, 7),
            ClassConditionalNoisyOracle)
        assert isinstance(
            get_scenario("abstaining").build_oracle(tiny_dataset, 7),
            AbstainingOracle)

    def test_oracle_streams_differ_per_seed_and_scenario(self, tiny_dataset):
        scenario = get_scenario("noisy-0.3")

        def answers(run_seed: int) -> list[int]:
            oracle = scenario.build_oracle(tiny_dataset, run_seed)
            return [oracle.query(i) for i in range(60)]

        assert answers(7) != answers(20)
        assert answers(7) == answers(7)

    def test_noise_level_scalar(self):
        assert get_scenario("perfect").oracle.noise_level == 0.0
        assert get_scenario("noisy-0.3").oracle.noise_level == 0.3
        assert get_scenario("abstaining").oracle.noise_level == 0.2
        assert get_scenario("over-merging").oracle.noise_level == 0.25
