"""Scenario grids through the experiment engine (acceptance tests of PR 3).

Uses the same minuscule configuration trick as ``test_engine``: one
iteration, tiny budgets, a small matcher, so full scenario sweeps run end to
end in seconds.
"""

import pytest

from repro.config import get_scale
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ExperimentSettings
from repro.experiments.engine import (
    ExperimentEngine,
    ParallelExecutor,
    RunSpec,
    clear_dataset_cache,
    get_dataset,
)
from repro.experiments.robustness import (
    noise_sensitivity_rows,
    robustness_curves,
    robustness_rows,
    scenario_grid_specs,
)
from repro.experiments.runner import enumerate_run_specs
from repro.experiments.store import ArtifactStore
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig
from repro.scenarios import available_scenarios, get_scenario, resolve_scenarios

SCENARIO_NAMES = ("perfect", "noisy-0.1", "abstaining")


@pytest.fixture(scope="module")
def fast_settings() -> ExperimentSettings:
    return ExperimentSettings(
        scale=get_scale("tiny"),
        datasets=("amazon_google",),
        iterations=1,
        budget_per_iteration=8,
        seed_size=8,
        num_seeds=1,
        alphas=(0.5,),
        beta=0.5,
        matcher_config=MatcherConfig(hidden_dims=(24,), epochs=2, batch_size=16,
                                     learning_rate=2e-3, random_state=0),
        featurizer_config=FeaturizerConfig(hash_dim=32),
        base_random_seed=7,
    )


class TestScenarioSpecs:
    def test_scenario_distinguishes_fingerprints(self, fast_settings):
        specs = {
            name: RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                                 "selector", fast_settings, scenario=name)
            for name in SCENARIO_NAMES
        }
        fingerprints = {spec.fingerprint() for spec in specs.values()}
        assert len(fingerprints) == len(specs)

    def test_unknown_scenario_rejected_at_creation(self, fast_settings):
        with pytest.raises(ConfigurationError):
            RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                           "selector", fast_settings, scenario="mystery")

    def test_from_dict_defaults_to_perfect(self, fast_settings):
        spec = RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                              "selector", fast_settings)
        payload = spec.to_dict()
        assert payload["scenario"] == "perfect"
        del payload["scenario"]  # a PR-2-era artifact has no scenario field
        assert RunSpec.from_dict(payload) == spec

    def test_fingerprint_tracks_scenario_definition(self, fast_settings,
                                                    monkeypatch):
        from repro.scenarios import OracleModel, Scenario, registry
        spec = RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                              "selector", fast_settings, scenario="noisy-0.1")
        first = spec.fingerprint()
        # Redefine the scenario between fingerprint calls.
        monkeypatch.setitem(
            registry._SCENARIOS, "noisy-0.1",
            Scenario(name="noisy-0.1",
                     oracle=OracleModel(kind="noisy", flip_probability=0.2)))
        assert spec.fingerprint() != first

    def test_enumerate_passes_scenario_through(self, fast_settings):
        specs = enumerate_run_specs("amazon_google", "random", fast_settings,
                                    scenario="noisy-0.1")
        assert all(spec.scenario == "noisy-0.1" for spec in specs)

    def test_grid_covers_every_cell(self, fast_settings):
        groups = scenario_grid_specs(
            fast_settings, ("amazon_google",),
            resolve_scenarios(SCENARIO_NAMES), ("random", "dal"))
        assert len(groups) == len(SCENARIO_NAMES) * 2
        for (dataset, scenario, method), specs in groups.items():
            assert specs and all(s.scenario == scenario for s in specs)


class TestScenarioDatasetCache:
    def test_oracle_only_scenarios_share_cached_dataset(self, fast_settings):
        clear_dataset_cache()
        plain = get_dataset("amazon_google", fast_settings)
        noisy = get_dataset("amazon_google", fast_settings,
                            get_scenario("noisy-0.1"))
        assert noisy is plain
        dirty = get_dataset("amazon_google", fast_settings,
                            get_scenario("very-dirty"))
        assert dirty is not plain


class TestScenarioSweeps:
    def test_sweep_scenarios_are_built_in(self):
        assert set(SCENARIO_NAMES) <= set(available_scenarios())
        assert ([scenario.name for scenario in resolve_scenarios(SCENARIO_NAMES)]
                == list(SCENARIO_NAMES))

    def test_serial_parallel_bit_identical_per_scenario(self, fast_settings):
        """Acceptance: scenario grids run identically at jobs=1 and jobs=2."""
        serial = robustness_curves(
            fast_settings, scenarios=SCENARIO_NAMES, methods=("random",),
            engine=ExperimentEngine(fast_settings, executor=ParallelExecutor(jobs=1)))
        parallel = robustness_curves(
            fast_settings, scenarios=SCENARIO_NAMES, methods=("random",),
            engine=ExperimentEngine(fast_settings,
                                    executor=ParallelExecutor(jobs=2)))
        assert set(serial) == set(parallel)
        for cell, curve in serial.items():
            assert parallel[cell].labeled_counts == curve.labeled_counts
            assert parallel[cell].f1_scores == curve.f1_scores

    def test_warm_store_resume_executes_zero_jobs(self, tmp_path, fast_settings):
        """Acceptance: a warm ArtifactStore satisfies the whole scenario grid."""
        store_path = tmp_path / "store"
        first = ExperimentEngine(fast_settings, store=ArtifactStore(store_path))
        robustness_curves(fast_settings, scenarios=SCENARIO_NAMES,
                          methods=("random",), engine=first)
        assert first.total_report.executed == len(SCENARIO_NAMES)

        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        robustness_curves(fast_settings, scenarios=SCENARIO_NAMES,
                          methods=("random",), engine=resumed)
        assert resumed.total_report.executed == 0
        assert resumed.total_report.from_store == len(SCENARIO_NAMES)

    def test_abstaining_scenario_averages_across_seeds(self, fast_settings):
        # Regression: abstention makes each run's acquired-label counts
        # seed-dependent; averaging over seeds/alphas must align the curves
        # positionally instead of crashing on mismatched axes.
        from dataclasses import replace
        multi_seed = replace(fast_settings, num_seeds=2)
        curves = robustness_curves(multi_seed, scenarios=("abstaining",),
                                   methods=("random",),
                                   engine=ExperimentEngine(multi_seed))
        (curve,) = curves.values()
        assert len(curve.labeled_counts) == fast_settings.iterations + 1

    def test_default_scenario_keeps_legacy_fingerprint(self, fast_settings):
        # PR-2-era stores must resume: a perfect-scenario spec hashes the
        # pre-scenario payload shape.
        import hashlib
        import json
        spec = RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                              "selector", fast_settings)
        legacy_payload = {key: value for key, value in spec.to_dict().items()
                          if key != "scenario"}
        legacy = hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True,
                       separators=(",", ":")).encode("utf-8")).hexdigest()[:24]
        assert spec.fingerprint() == legacy

    def test_noise_degrades_relative_to_perfect(self, fast_settings):
        engine = ExperimentEngine(fast_settings)
        curves = robustness_curves(fast_settings,
                                   scenarios=("perfect", "noisy-0.3"),
                                   methods=("random",), engine=engine)
        rows = robustness_rows(curves)
        assert {row["scenario"] for row in rows} == {"perfect", "noisy-0.3"}
        by_scenario = {row["scenario"]: row for row in rows}
        assert by_scenario["noisy-0.3"]["noise_level"] == 0.3
        sensitivity = noise_sensitivity_rows(curves)
        assert len(sensitivity) == 1
        assert sensitivity[0]["scenario"] == "noisy-0.3"
        # The drop equals the difference of the two reported finals.
        expected_drop = round(by_scenario["perfect"]["final_f1"]
                              - by_scenario["noisy-0.3"]["final_f1"], 2)
        assert sensitivity[0]["f1_drop"] == pytest.approx(expected_drop, abs=0.02)
