"""Fault-path tests for the artifact store.

A resumable sweep must survive a damaged store: a truncated or corrupt
artifact (killed process, full disk, manual edit) is worth one warning and
one re-executed run — never a crashed resume.
"""

import json
import os

import pytest

from repro.active.loop import ActiveLearningResult, IterationRecord
from repro.config import get_scale
from repro.evaluation.metrics import MatchingMetrics
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ExperimentSettings
from repro.experiments.engine import (
    ExperimentEngine,
    ParallelExecutor,
    RunSpec,
)
from repro.experiments.faults import (
    FaultInjector,
    RetryPolicy,
    TornWriteError,
    init_injector,
)
from repro.experiments.runner import enumerate_run_specs
from repro.experiments.store import ArtifactStore
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig


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


def _result() -> ActiveLearningResult:
    metrics = MatchingMetrics(precision=0.5, recall=0.5, f1=0.5, num_examples=10)
    return ActiveLearningResult(
        dataset_name="amazon_google", selector_name="random",
        records=[IterationRecord(iteration=0, num_labeled=8, num_weak=0,
                                 num_labeled_positives=4, test_metrics=metrics,
                                 train_seconds=0.1, selection_seconds=0.1)])


def _spec(settings) -> RunSpec:
    return RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                          "selector", settings)


class TestCorruptArtifacts:
    def test_truncated_artifact_warns_and_reads_as_absent(self, tmp_path,
                                                          fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = _spec(fast_settings)
        path = store.put(spec, _result())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.warns(UserWarning, match="corrupt artifact"):
            assert store.get(spec) is None

    def test_missing_result_key_warns(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = _spec(fast_settings)
        path = store.put(spec, _result())
        payload = json.loads(path.read_text())
        del payload["result"]
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="corrupt artifact"):
            assert store.get(spec) is None

    def test_items_skips_corrupt_entries(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        good_spec = _spec(fast_settings)
        store.put(good_spec, _result())
        bad_spec = RunSpec.create("amazon_google", "dal", 7, 0.5, 0.5,
                                  "selector", fast_settings)
        store.put(bad_spec, _result()).write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt artifact"):
            entries = list(store.items())
        assert len(entries) == 1
        assert entries[0][0] == good_spec.to_dict()

    def test_format_version_mismatch_still_raises(self, tmp_path,
                                                  fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = _spec(fast_settings)
        path = store.put(spec, _result())
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            store.get(spec)

    def test_resume_collapses_corruption_warnings_into_one_summary(
            self, tmp_path, fast_settings):
        """Many damaged artifacts cost one summary warning, not one each."""
        store_path = tmp_path / "store"
        specs = (enumerate_run_specs("amazon_google", "random", fast_settings)
                 + enumerate_run_specs("amazon_google", "dal", fast_settings))
        ExperimentEngine(fast_settings,
                         store=ArtifactStore(store_path)).run(specs)
        store = ArtifactStore(store_path)
        for spec in specs:
            path = store.path_for(spec)
            path.write_text(path.read_text()[:40])

        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        with pytest.warns(UserWarning) as caught:
            resumed.run(specs)
        corruption = [record for record in caught
                      if "corrupt artifact" in str(record.message)]
        assert len(corruption) == 1
        message = str(corruption[0].message)
        assert f"{len(specs)} corrupt artifact(s)" in message
        assert "re-executed" in message
        assert resumed.last_report.executed == len(specs)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda text: text[: len(text) // 2], id="truncated-json"),
        pytest.param(lambda text: "", id="empty-file"),
        pytest.param(lambda text: json.dumps({"unrelated": True}),
                     id="valid-json-wrong-schema"),
    ])
    def test_each_damage_mode_costs_one_rerun_and_one_warning(
            self, tmp_path, fast_settings, damage):
        """Every torn-write shape reads as absent: one warning, one re-run."""
        store_path = tmp_path / "store"
        specs = (enumerate_run_specs("amazon_google", "random", fast_settings)
                 + enumerate_run_specs("amazon_google", "dal", fast_settings))
        ExperimentEngine(fast_settings,
                         store=ArtifactStore(store_path)).run(specs)
        victim = ArtifactStore(store_path).path_for(specs[0])
        victim.write_text(damage(victim.read_text()))

        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        with pytest.warns(UserWarning) as caught:
            resumed.run(specs)
        corruption = [record for record in caught
                      if "corrupt artifact" in str(record.message)]
        assert len(corruption) == 1
        assert resumed.last_report.executed == 1
        assert resumed.last_report.from_store == len(specs) - 1

    def test_resumed_sweep_reexecutes_only_the_corrupt_run(self, tmp_path,
                                                           fast_settings):
        """Acceptance: a damaged artifact costs one re-execution, not a crash."""
        store_path = tmp_path / "store"
        specs = (enumerate_run_specs("amazon_google", "random", fast_settings)
                 + enumerate_run_specs("amazon_google", "dal", fast_settings))
        first = ExperimentEngine(fast_settings, store=ArtifactStore(store_path))
        first.run(specs)
        assert first.last_report.executed == len(specs)

        # Truncate one artifact mid-file, as a killed process would.
        victim = ArtifactStore(store_path).path_for(specs[0])
        victim.write_text(victim.read_text()[:40])

        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        with pytest.warns(UserWarning, match="corrupt artifact"):
            results = resumed.run(specs)
        assert resumed.last_report.executed == 1
        assert resumed.last_report.from_store == len(specs) - 1
        assert set(results) == set(specs)
        # The re-executed run was persisted again: a second resume is clean.
        second = ExperimentEngine(fast_settings,
                                  store=ArtifactStore(store_path))
        second.run(specs)
        assert second.last_report.executed == 0


class TestCrashSafePut:
    def test_stale_temp_files_cleaned_on_init(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        stale = root / "deadbeef.json.tmp"
        stale.write_text("{half a write")
        ArtifactStore(root)
        assert not stale.exists()

    def test_put_leaves_no_temp_on_mid_write_failure(self, tmp_path,
                                                     fast_settings,
                                                     monkeypatch):
        """A crash between temp-write and rename must not strand debris."""
        store = ArtifactStore(tmp_path / "store")

        def exploding_fsync(fd):
            raise OSError("simulated disk failure")

        monkeypatch.setattr("repro.experiments.store.os.fsync",
                            exploding_fsync)
        with pytest.raises(OSError, match="simulated disk failure"):
            store.put(_spec(fast_settings), _result())
        assert list(store.root.glob("*.tmp")) == []
        assert len(store) == 0

    def test_put_fsyncs_before_replace(self, tmp_path, fast_settings,
                                       monkeypatch):
        """The temp file is durable before the rename publishes it."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            "repro.experiments.store.os.fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            "repro.experiments.store.os.replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1])
        store = ArtifactStore(tmp_path / "store")
        store.put(_spec(fast_settings), _result())
        assert events == ["fsync", "replace"]


class TestTornWriteInjection:
    def test_torn_put_truncates_final_path_and_raises(self, tmp_path,
                                                      fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = _spec(fast_settings)
        injector = FaultInjector.from_spec("torn@0").resolve([spec])
        init_injector(injector)
        try:
            with pytest.raises(TornWriteError):
                store.put(spec, _result())
            # The torn artifact is a genuinely unreadable partial file.
            path = store.path_for(spec)
            assert path.exists()
            with pytest.raises(json.JSONDecodeError):
                json.loads(path.read_text())
            with pytest.warns(UserWarning, match="corrupt artifact"):
                assert store.get(spec) is None
            # The retried write (count 1: no matching directive) lands clean.
            store.put(spec, _result())
            assert store.get(spec) == _result()
        finally:
            init_injector(None)

    def test_engine_self_heals_torn_write_under_retry_policy(
            self, tmp_path, fast_settings):
        """A torn artifact write costs one retried put, not a failed sweep."""
        store_path = tmp_path / "store"
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        injector = FaultInjector.from_spec("torn@0").resolve(specs)
        policy = RetryPolicy(max_attempts=3)
        engine = ExperimentEngine(
            fast_settings,
            executor=ParallelExecutor(jobs=1, retry_policy=policy,
                                      injector=injector),
            store=ArtifactStore(store_path))
        engine.run(specs)
        assert engine.last_report.executed == len(specs)
        assert engine.last_report.retried == 1  # the re-issued store.put
        assert engine.last_report.failed == 0
        # Every artifact is valid: a fresh resume loads all from the store.
        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        resumed.run(specs)
        assert resumed.last_report.executed == 0
        assert resumed.last_report.from_store == len(specs)
