"""Tests for the job engine, artifact store, and result serialization.

The run-executing tests use a deliberately minuscule configuration (one
iteration, tiny budgets, a small matcher) so the engine logic — spec
enumeration, store resume, serial/parallel equivalence — is exercised end to
end in seconds.
"""

import json

import pytest

from repro.active.loop import ActiveLearningResult, IterationRecord
from repro.config import get_scale
from repro.evaluation.metrics import MatchingMetrics
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ExperimentSettings, default_settings
from repro.experiments.engine import (
    ExperimentEngine,
    ParallelExecutor,
    RunSpec,
    settings_fingerprint,
)
from repro.experiments.faults import (
    FailureLedger,
    FaultInjector,
    RetryPolicy,
    ledger_path,
)
from repro.experiments.figures import (
    _average_selection_runtimes,
    figure5_learning_curves,
    figure6_runtime,
)
from repro.experiments.runner import enumerate_run_specs, resolve_engine
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
        num_seeds=2,
        alphas=(0.5,),
        beta=0.5,
        matcher_config=MatcherConfig(hidden_dims=(24,), epochs=2, batch_size=16,
                                     learning_rate=2e-3, random_state=0),
        featurizer_config=FeaturizerConfig(hash_dim=32),
        base_random_seed=7,
    )


def _sample_result() -> ActiveLearningResult:
    metrics = [MatchingMetrics(precision=0.5, recall=0.25, f1=1.0 / 3.0,
                               num_examples=40),
               MatchingMetrics(precision=0.75, recall=0.6, f1=2.0 / 3.0,
                               num_examples=40)]
    return ActiveLearningResult(
        dataset_name="amazon_google",
        selector_name="battleship",
        records=[
            IterationRecord(iteration=i, num_labeled=8 + 8 * i, num_weak=3 * i,
                            num_labeled_positives=4 + i, test_metrics=metric,
                            train_seconds=0.125 * (i + 1),
                            selection_seconds=0.0625 * i)
            for i, metric in enumerate(metrics)
        ],
    )


class TestSerialization:
    def test_result_json_round_trip(self):
        result = _sample_result()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = ActiveLearningResult.from_dict(payload)
        assert restored == result
        assert restored.records[0].test_metrics == result.records[0].test_metrics

    def test_round_trip_preserves_curves_and_runtimes(self):
        """Curves survive the round trip; runtimes stay in memory only."""
        result = _sample_result()
        payload = json.loads(json.dumps(result.to_dict()))
        for record in payload["records"]:
            assert "train_seconds" not in record
            assert "selection_seconds" not in record
        restored = ActiveLearningResult.from_dict(payload)
        assert restored == result
        assert result.selection_runtimes() == [0.0625]
        assert restored.selection_runtimes() == []

    def test_metrics_round_trip_is_lossless(self):
        metrics = MatchingMetrics(precision=1.0 / 3.0, recall=2.0 / 7.0,
                                  f1=0.30769230769230776, num_examples=13)
        assert MatchingMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict()))) == metrics


class TestRunSpec:
    def test_fingerprint_is_stable(self, fast_settings):
        first = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                               "selector", fast_settings)
        second = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                                "selector", fast_settings)
        assert first == second
        assert first.fingerprint() == second.fingerprint()

    def test_fingerprint_distinguishes_fields(self, fast_settings):
        base = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                              "selector", fast_settings)
        variants = [
            RunSpec.create("walmart_amazon", "battleship", 7, 0.5, 0.5,
                           "selector", fast_settings),
            RunSpec.create("amazon_google", "dal", 7, 0.5, 0.5,
                           "selector", fast_settings),
            RunSpec.create("amazon_google", "battleship", 8, 0.5, 0.5,
                           "selector", fast_settings),
            RunSpec.create("amazon_google", "battleship", 7, 0.25, 0.5,
                           "selector", fast_settings),
            RunSpec.create("amazon_google", "battleship", 7, 0.5, 1.0,
                           "selector", fast_settings),
            RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                           "off", fast_settings),
        ]
        fingerprints = {spec.fingerprint() for spec in variants}
        assert len(fingerprints) == len(variants)
        assert base.fingerprint() not in fingerprints

    def test_settings_hash_tracks_run_relevant_fields(self, fast_settings):
        from dataclasses import replace
        changed = replace(fast_settings, iterations=2)
        assert settings_fingerprint(changed) != settings_fingerprint(fast_settings)
        # Grid-only fields don't invalidate stored runs.
        widened = replace(fast_settings, num_seeds=5,
                          datasets=("amazon_google", "walmart_amazon"))
        assert settings_fingerprint(widened) == settings_fingerprint(fast_settings)

    def test_spec_dict_round_trip(self, fast_settings):
        spec = RunSpec.create("amazon_google", "dal", 7, 0.5, 0.5,
                              "entropy", fast_settings)
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_enumerate_run_specs_grid(self, fast_settings):
        specs = enumerate_run_specs("amazon_google", "battleship", fast_settings,
                                    alphas=(0.25, 0.75))
        assert len(specs) == 4  # 2 seeds x 2 alphas
        assert len(set(specs)) == 4
        assert {spec.alpha for spec in specs} == {0.25, 0.75}

    def test_enumerate_rejects_unknown_method(self, fast_settings):
        with pytest.raises(ConfigurationError):
            enumerate_run_specs("amazon_google", "mystery", fast_settings)


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                              "selector", fast_settings)
        result = _sample_result()
        assert spec not in store
        assert store.get(spec) is None
        path = store.put(spec, result)
        assert path.exists()
        assert spec in store
        assert store.get(spec) == result
        assert len(store) == 1

    def test_incompatible_format_version_rejected(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                              "selector", fast_settings)
        store.put(spec, _sample_result())
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            store.get(spec)
        with pytest.raises(ConfigurationError):
            list(store.items())

    def test_items_expose_spec_and_result(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        spec = RunSpec.create("amazon_google", "dal", 9, 0.5, 0.5,
                              "selector", fast_settings)
        store.put(spec, _sample_result())
        ((spec_dict, result),) = list(store.items())
        assert spec_dict == spec.to_dict()
        assert result == _sample_result()


class TestEngine:
    def test_engine_rejects_foreign_specs(self, fast_settings):
        from dataclasses import replace
        other = replace(fast_settings, iterations=3)
        specs = enumerate_run_specs("amazon_google", "random", other)
        with pytest.raises(ConfigurationError):
            ExperimentEngine(fast_settings).run(specs)

    def test_builder_rejects_mismatched_engine(self, fast_settings):
        from dataclasses import replace
        other = replace(fast_settings, iterations=3)
        with pytest.raises(ConfigurationError):
            figure5_learning_curves(other, methods=("random",),
                                    engine=ExperimentEngine(fast_settings))

    def test_resolve_engine_defaults_and_reuse(self, fast_settings):
        default = resolve_engine(fast_settings, None)
        assert default.settings == fast_settings
        assert default.store is None and default.executor.jobs == 1
        assert resolve_engine(None, default) is default
        assert resolve_engine(fast_settings, default) is default
        assert resolve_engine(None, None).settings == default_settings()

    def test_store_resume_executes_zero_jobs(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)

        first_engine = ExperimentEngine(fast_settings, store=store)
        first_results = first_engine.run(specs)
        assert first_engine.last_report.executed == len(specs)
        assert first_engine.last_report.cached == 0

        second_engine = ExperimentEngine(fast_settings,
                                         store=ArtifactStore(tmp_path / "store"))
        second_results = second_engine.run(specs)
        assert second_engine.last_report.executed == 0
        assert second_engine.last_report.cached == len(specs)
        assert second_engine.last_report.from_store == len(specs)
        assert second_engine.last_report.from_memory == 0
        for spec in specs:
            assert second_results[spec] == first_results[spec]

    def test_store_with_timing_fields_resumes(self, tmp_path, fast_settings):
        """Artifacts that still carry wall-clock fields load as before."""
        store_path = tmp_path / "store"
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        fresh = ExperimentEngine(
            fast_settings, store=ArtifactStore(store_path)).run(specs)
        for artifact in store_path.glob("*.json"):
            payload = json.loads(artifact.read_text())
            for record in payload["result"]["records"]:
                record["train_seconds"] = 1.5
                record["selection_seconds"] = 0.25
            artifact.write_text(json.dumps(payload, indent=1, sort_keys=True))

        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        assert resumed.run(specs) == fresh
        assert resumed.last_report.executed == 0
        assert resumed.last_report.from_store == len(specs)

    def test_memory_cache_avoids_reexecution_without_store(self, fast_settings):
        engine = ExperimentEngine(fast_settings)
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        first = engine.run(specs)
        assert engine.last_report.executed == len(specs)
        second = engine.run(specs)
        assert engine.last_report.executed == 0
        assert engine.last_report.cached == len(specs)
        # Without a store these are memory hits, not store loads.
        assert engine.last_report.from_memory == len(specs)
        assert engine.last_report.from_store == 0
        assert second == first

    def test_interrupted_batch_persists_completed_runs(self, tmp_path, fast_settings):
        class ExplodingExecutor(ParallelExecutor):
            """Fails after yielding the first result (simulated crash)."""

            def execute(self, specs, settings):
                inner = super().execute(specs, settings)
                yield next(inner)
                raise RuntimeError("crashed mid-sweep")

        store = ArtifactStore(tmp_path / "store")
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        assert len(specs) == 2
        engine = ExperimentEngine(fast_settings, executor=ExplodingExecutor(jobs=1),
                                  store=store)
        with pytest.raises(RuntimeError):
            engine.run(specs)
        assert engine.last_report.executed == 1
        assert len(store) == 1  # the completed run survived the crash

        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(tmp_path / "store"))
        resumed.run(specs)
        assert resumed.last_report.executed == 1
        assert resumed.last_report.cached == 1

    def test_duplicate_specs_resolved_once(self, tmp_path, fast_settings):
        store = ArtifactStore(tmp_path / "store")
        engine = ExperimentEngine(fast_settings, store=store)
        spec, = enumerate_run_specs("amazon_google", "random", fast_settings,
                                    alphas=(0.5,))[:1]
        engine.run([spec, spec])
        assert engine.last_report.total == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_failure_salvages_completed_runs(self, tmp_path,
                                                      fast_settings, jobs):
        """A failing job must not lose sibling runs that already finished.

        With no retry policy every job gets one attempt, and the permanent
        failure that aborts the sweep is reported and ledgered like any
        other, at every job count.
        """
        store = ArtifactStore(tmp_path / "store")
        good = enumerate_run_specs("amazon_google", "random", fast_settings)
        bad = RunSpec.create("amazon_google", "mystery", 7, 0.5, 0.5,
                             "selector", fast_settings)
        engine = ExperimentEngine(fast_settings,
                                  executor=ParallelExecutor(jobs=jobs),
                                  store=store)
        with pytest.raises(ConfigurationError):
            engine.run(good + [bad])
        # Both good runs completed (yielded or salvaged) and were persisted.
        assert engine.last_report.executed == len(good)
        assert engine.last_report.failed == 1
        assert len(store) == len(good)
        ledger = FailureLedger(ledger_path(tmp_path / "store"))
        assert ledger.fingerprints() == (bad.fingerprint(),)
        assert ledger.entries[bad.fingerprint()].attempts == 1
        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(tmp_path / "store"))
        resumed.run(good)
        assert resumed.last_report.executed == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_sweep_persists_finished_runs(
            self, tmp_path, fast_settings, monkeypatch, jobs):
        """Ctrl-C cancels the queue but still persists every finished run."""
        from repro.experiments import engine as engine_module

        real_wait = engine_module.wait
        calls = []

        def interrupted_wait(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(engine_module, "wait", interrupted_wait)
        store = ArtifactStore(tmp_path / "store")
        specs = (enumerate_run_specs("amazon_google", "random", fast_settings)
                 + enumerate_run_specs("amazon_google", "dal",
                                       fast_settings)[:1])
        assert len(specs) == 3
        engine = ExperimentEngine(fast_settings,
                                  executor=ParallelExecutor(jobs=jobs),
                                  store=store)
        with pytest.raises(KeyboardInterrupt):
            engine.run(specs)
        assert len(store) == engine.last_report.executed >= 2

    def test_adopt_results_seeds_memory_and_store(self, tmp_path, fast_settings):
        spec = RunSpec.create("amazon_google", "battleship", 7, 0.5, 0.5,
                              "selector", fast_settings)
        store = ArtifactStore(tmp_path / "store")
        engine = ExperimentEngine(fast_settings, store=store)
        engine.adopt_results({spec: _sample_result()})
        assert spec in store
        assert engine.cached_results() == {spec: _sample_result()}
        engine.run([spec])
        assert engine.last_report.executed == 0
        assert engine.last_report.from_memory == 1

    def test_adopt_results_rejects_foreign_settings(self, fast_settings):
        from dataclasses import replace
        other = replace(fast_settings, iterations=3)
        spec = RunSpec.create("amazon_google", "random", 7, 0.5, 0.5,
                              "selector", other)
        with pytest.raises(ConfigurationError):
            ExperimentEngine(fast_settings).adopt_results({spec: _sample_result()})

    def test_parallel_matches_serial_bit_for_bit(self, fast_settings):
        """Acceptance: ParallelExecutor(jobs=2) == jobs=1 (in-process), exactly."""
        specs = (enumerate_run_specs("amazon_google", "random", fast_settings)
                 + enumerate_run_specs("amazon_google", "battleship",
                                       fast_settings)[:1])
        serial = ExperimentEngine(
            fast_settings, executor=ParallelExecutor(jobs=1)).run(specs)
        parallel = ExperimentEngine(
            fast_settings, executor=ParallelExecutor(jobs=2)).run(specs)
        for spec in specs:
            serial_curve = serial[spec].learning_curve()
            parallel_curve = parallel[spec].learning_curve()
            assert parallel_curve.labeled_counts == serial_curve.labeled_counts
            assert parallel_curve.f1_scores == serial_curve.f1_scores
            assert ([r.test_metrics for r in parallel[spec].records]
                    == [r.test_metrics for r in serial[spec].records])


#: Chaos tests retry on the fixed schedule: about 0.05 s before a first retry.
FAST_RETRY = RetryPolicy(max_attempts=3)


def _store_files(root) -> dict[str, bytes]:
    """Every file of a store directory, by name."""
    return {path.name: path.read_bytes() for path in root.iterdir()}


class TestFaultTolerance:
    """The PR's acceptance criteria: injected faults cost retries, not sweeps."""

    def test_serial_transient_fault_retries_to_identical_results(
            self, fast_settings):
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        clean = ExperimentEngine(fast_settings).run(specs)

        injector = FaultInjector.from_spec("raise@0,raise@1").resolve(specs)
        executor = ParallelExecutor(jobs=1, retry_policy=FAST_RETRY,
                                    injector=injector)
        engine = ExperimentEngine(fast_settings, executor=executor)
        chaotic = engine.run(specs)

        assert engine.last_report.executed == len(specs)
        assert engine.last_report.retried == len(specs)
        assert engine.last_report.failed == 0
        assert chaotic == clean

    def test_parallel_kill_and_raise_recover_bit_identically(
            self, tmp_path, fast_settings):
        """Acceptance: worker kill + raised exception under retry == clean run."""
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        assert len(specs) == 2
        clean_store = tmp_path / "clean"
        clean = ExperimentEngine(
            fast_settings, store=ArtifactStore(clean_store)).run(specs)

        injector = FaultInjector.from_spec("kill@0,raise@1").resolve(specs)
        chaos_store = tmp_path / "chaos"
        engine = ExperimentEngine(
            fast_settings,
            executor=ParallelExecutor(jobs=2, retry_policy=FAST_RETRY,
                                      injector=injector),
            store=ArtifactStore(chaos_store))
        chaotic = engine.run(specs)

        assert engine.last_report.executed == len(specs)
        assert engine.last_report.retried == len(specs)
        assert engine.last_report.failed == 0
        assert chaotic == clean
        assert _store_files(chaos_store) == _store_files(clean_store)

    def test_parallel_hang_is_cancelled_by_timeout_and_retried(
            self, fast_settings):
        """Acceptance: a hung job is cancelled at the deadline, not waited out."""
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        clean = ExperimentEngine(fast_settings).run(specs)

        # The hang (60 s) dwarfs the timeout (10 s), which itself dwarfs a
        # tiny-scale run; the retried attempt has no directive and completes.
        injector = FaultInjector.from_spec("hang=60@0").resolve(specs)
        policy = RetryPolicy(max_attempts=3, timeout=10.0)
        engine = ExperimentEngine(
            fast_settings,
            executor=ParallelExecutor(jobs=2, retry_policy=policy,
                                      injector=injector))
        chaotic = engine.run(specs)

        assert engine.last_report.executed == len(specs)
        assert engine.last_report.retried >= 1
        assert engine.last_report.failed == 0
        assert chaotic == clean

    def test_keep_going_records_ledger_and_resume_retries_exactly_it(
            self, tmp_path, fast_settings):
        """Acceptance: permanent failure → sibling persists + resumable ledger."""
        store_path = tmp_path / "store"
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        injector = FaultInjector.from_spec("permanent@0").resolve(specs)
        engine = ExperimentEngine(
            fast_settings,
            executor=ParallelExecutor(jobs=2, retry_policy=FAST_RETRY,
                                      keep_going=True, injector=injector),
            store=ArtifactStore(store_path))
        results = engine.run(specs)

        # The sibling survived and persisted; the failed job has no result.
        assert engine.last_report.executed == 1
        assert engine.last_report.failed == 1
        assert specs[0] not in results and specs[1] in results
        assert len(ArtifactStore(store_path)) == 1

        ledger = FailureLedger(ledger_path(store_path))
        assert ledger.fingerprints() == (specs[0].fingerprint(),)
        entry = ledger.entries[specs[0].fingerprint()]
        assert entry.error_type == "InjectedPermanentError"
        assert entry.attempts == 1  # permanent errors never retry

        # Resuming with the same store retries exactly the ledgered job.
        resumed = ExperimentEngine(fast_settings,
                                   store=ArtifactStore(store_path))
        resumed.run(specs)
        assert resumed.last_report.executed == 1
        assert resumed.last_report.from_store == 1
        # The success cleared the ledger entry (and the now-empty file).
        assert not ledger_path(store_path).exists()

    def test_exhausted_transient_retries_become_permanent_failures(
            self, fast_settings):
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        # Every attempt of job 0 fails: the retry budget runs out.
        injector = FaultInjector.from_spec(
            "raise@0:0,raise@0:1").resolve(specs)
        policy = RetryPolicy(max_attempts=2)
        executor = ParallelExecutor(jobs=1, retry_policy=policy,
                                    keep_going=True, injector=injector)
        engine = ExperimentEngine(fast_settings, executor=executor)
        results = engine.run(specs)

        assert engine.last_report.failed == 1
        assert engine.last_report.retried == 1
        assert specs[0] not in results and specs[1] in results
        failure, = executor.last_failures
        assert failure.attempts == 2
        assert failure.error_type == "InjectedTransientError"
        assert len(failure.tracebacks) == 2

    def test_repeated_pool_kills_quarantine_the_culprit(
            self, fast_settings):
        """A job that keeps killing its worker must not sink the sweep."""
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        injector = FaultInjector.from_spec("kill@0:0,kill@0:1").resolve(specs)
        policy = RetryPolicy(max_attempts=5)
        executor = ParallelExecutor(jobs=2, retry_policy=policy,
                                    keep_going=True, injector=injector)
        engine = ExperimentEngine(fast_settings, executor=executor)
        results = engine.run(specs)

        assert engine.last_report.failed == 1
        assert specs[0] not in results and specs[1] in results
        failure, = executor.last_failures
        assert failure.quarantined
        assert failure.error_type == "WorkerCrashError"
        assert failure.attempts == 2  # quarantined before the budget ran out

    def test_fail_fast_raises_after_retries_exhausted(self, fast_settings):
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        injector = FaultInjector.from_spec("permanent@0").resolve(specs)
        engine = ExperimentEngine(
            fast_settings,
            executor=ParallelExecutor(jobs=2, retry_policy=FAST_RETRY,
                                      injector=injector))
        from repro.experiments.faults import InjectedPermanentError
        with pytest.raises(InjectedPermanentError):
            engine.run(specs)

    def test_serial_executor_warns_it_cannot_enforce_timeouts(self):
        with pytest.warns(UserWarning, match="timeout"):
            ParallelExecutor(jobs=1, retry_policy=RetryPolicy(timeout=5.0))

    def test_in_process_failure_records_real_duration(self, fast_settings):
        """At jobs=1 the job runs inside submit; its time must still count."""
        specs = enumerate_run_specs("amazon_google", "random", fast_settings)
        executor = ParallelExecutor(
            jobs=1, retry_policy=RetryPolicy(max_attempts=1), keep_going=True,
            injector=FaultInjector.from_spec("hang=0.2@0,raise@0"))
        results = ExperimentEngine(fast_settings, executor=executor).run(specs)
        failure, = executor.last_failures
        assert failure.error_type == "InjectedTransientError"
        assert failure.elapsed_seconds[0] >= 0.2
        assert specs[0] not in results and specs[1] in results


class TestFigure6TimingGuard:
    def test_parallel_store_engine_remeasures_and_hands_results_back(
            self, tmp_path, fast_settings):
        """Figure 6 timings must not come from contended workers or a warm store."""
        store = ArtifactStore(tmp_path / "store")
        engine = ExperimentEngine(fast_settings,
                                  executor=ParallelExecutor(jobs=2), store=store)
        with pytest.warns(UserWarning, match="re-measuring selection runtimes"):
            rows = figure6_runtime(fast_settings, engine=engine)
        assert rows and rows[0]["dataset"] == "amazon_google"
        # The fresh serial results were adopted: same grid resolves with zero
        # executions, and the store holds valid artifacts for every spec.
        specs = enumerate_run_specs("amazon_google", "battleship", fast_settings)
        engine.run(specs)
        assert engine.last_report.executed == 0
        assert len(store) == len(specs)

    def test_interrupted_timing_sweep_still_adopts_completed_runs(
            self, tmp_path, fast_settings):
        """A failure mid-sweep must not lose the timing runs that finished."""
        store = ArtifactStore(tmp_path / "store")
        engine = ExperimentEngine(fast_settings,
                                  executor=ParallelExecutor(jobs=2), store=store)
        with pytest.warns(UserWarning, match="re-measuring"):
            with pytest.raises(Exception):
                figure6_runtime(
                    fast_settings,
                    dataset_names=("amazon_google", "no_such_dataset"),
                    engine=engine)
        # The first dataset's completed timing runs reached the store.
        specs = enumerate_run_specs("amazon_google", "battleship", fast_settings)
        assert len(store) == len(specs)

    def test_mismatched_settings_rejected_before_any_run(self, fast_settings):
        from dataclasses import replace
        other = replace(fast_settings, iterations=3)
        engine = ExperimentEngine(other, executor=ParallelExecutor(jobs=2))
        with pytest.raises(ConfigurationError):
            figure6_runtime(fast_settings, engine=engine)

    def test_serial_storeless_engine_is_used_directly(self, fast_settings, recwarn):
        engine = ExperimentEngine(fast_settings)
        rows = figure6_runtime(fast_settings, engine=engine)
        assert rows
        assert not [w for w in recwarn
                    if "re-measuring" in str(w.message)]
        # No dedicated engine: the shared one resolved the timing runs.
        assert engine.total_report.executed > 0


class TestRuntimeAverage:
    """Figure 6 averages each iteration over the runs that reached it."""

    def test_averages_runs_that_reached_iteration(self):
        def result_with_runtimes(runtimes):
            metrics = MatchingMetrics(precision=0.5, recall=0.5, f1=0.5,
                                      num_examples=10)
            return ActiveLearningResult(
                dataset_name="d", selector_name="s",
                records=[IterationRecord(iteration=i, num_labeled=8, num_weak=0,
                                         num_labeled_positives=4,
                                         test_metrics=metrics, train_seconds=0.0,
                                         selection_seconds=seconds)
                         for i, seconds in enumerate(runtimes)])

        results = [
            result_with_runtimes([1.0, 3.0, 5.0]),
            result_with_runtimes([3.0]),  # exhausted its pool early
        ]
        # Regression: the tail used to be truncated to the shortest run.
        assert _average_selection_runtimes(results) == [2.0, 3.0, 5.0]

    def test_selection_runtimes_empty(self):
        assert _average_selection_runtimes([]) == []
