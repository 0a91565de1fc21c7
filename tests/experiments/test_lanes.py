"""Dataset-affine lanes: where the executor runs each job and what it keeps.

``ParallelExecutor`` runs one job at a time per lane.  A free lane takes the
first ready job whose dataset no other lane holds, so each benchmark is
generated and featurized by one worker, and a worker drops the datasets no
unfinished job of its batch still uses.  The process tests count
``PairFeaturizer.transform`` calls in forked workers through a log file.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.config import get_scale
from repro.experiments import engine as engine_module
from repro.experiments.configs import ExperimentSettings
from repro.experiments.engine import (
    ExperimentEngine,
    ParallelExecutor,
    RunSpec,
    _place,
    _release_datasets,
    clear_dataset_cache,
    get_feature_matrix,
)
from repro.experiments.faults import FaultInjector, RetryPolicy
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.neural.matcher import MatcherConfig

DATASETS = ("amazon_google", "walmart_amazon")

#: The transform log reaches the test only from workers that inherit the
#: patched class, i.e. forked ones.
fork_only = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="counts transforms through a patch that only forked workers see")


@pytest.fixture(scope="module")
def settings() -> ExperimentSettings:
    return ExperimentSettings(
        scale=get_scale("tiny"),
        datasets=DATASETS,
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


@pytest.fixture(autouse=True)
def _fresh_caches():
    # Forked workers inherit this process's caches; start them empty.
    clear_dataset_cache()
    yield
    clear_dataset_cache()


def _spec(settings, dataset: str, seed: int) -> RunSpec:
    return RunSpec.create(dataset, "random", seed, 0.5, 0.5, "selector",
                          settings)


def _log_transforms(monkeypatch, log) -> None:
    """Make every ``PairFeaturizer.transform`` append ``pid dataset``."""
    original = PairFeaturizer.transform

    def logging_transform(self, dataset, indices=None):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {dataset.name}\n")
        return original(self, dataset, indices)

    monkeypatch.setattr(PairFeaturizer, "transform", logging_transform)


def _logged(log) -> list[tuple[str, str]]:
    if not log.exists():
        return []
    return [tuple(line.split()) for line in log.read_text().splitlines()]


class TestPlacement:
    A = ("amazon_google", "")
    B = ("walmart_amazon", "")

    def test_one_lane_takes_the_queue_head(self):
        # A lone lane has no other lane, so nothing is held elsewhere.
        for ready in ([self.A, self.B], [self.B, self.A], [self.B, self.B]):
            assert _place(ready, set()) == 0

    def test_a_lane_skips_datasets_only_the_other_lane_holds(self):
        assert _place([self.A, self.A, self.B, self.A], {self.A}) == 2

    def test_the_head_when_every_ready_dataset_is_held_elsewhere(self):
        assert _place([self.B, self.A], {self.A, self.B}) == 0


class TestRelease:
    def test_only_kept_datasets_and_matrices_stay(self, settings):
        for name in DATASETS:
            get_feature_matrix(name, settings)

        def cached() -> tuple[set[str], set[str]]:
            return ({key[0] for key in engine_module._DATASET_CACHE},
                    {key[0] for key in engine_module._FEATURE_CACHE})

        _release_datasets(None)
        assert cached() == (set(DATASETS), set(DATASETS))
        # The default scenario's dataset fingerprint is "".
        _release_datasets(frozenset({("amazon_google", "")}))
        assert cached() == ({"amazon_google"}, {"amazon_google"})


@fork_only
class TestLanes:
    def test_each_dataset_is_featurized_by_one_worker(self, settings, tmp_path,
                                                      monkeypatch):
        log = tmp_path / "transforms.log"
        _log_transforms(monkeypatch, log)
        specs = [_spec(settings, dataset, seed)
                 for dataset in DATASETS for seed in (7, 20)]
        engine = ExperimentEngine(settings, executor=ParallelExecutor(jobs=2))
        assert len(engine.run(specs)) == len(specs)

        logged = _logged(log)
        assert len(set(logged)) == len(logged) <= 3
        assert {dataset for _, dataset in logged} == set(DATASETS)

    def test_a_timeout_restarts_only_the_overdue_lane(self, settings, tmp_path,
                                                      monkeypatch):
        """The other lane's job runs on, so it executes (and featurizes) once.

        Job 0 hangs on one lane.  The other lane runs job 1 (2 s), then job 2
        on the same dataset (2.5 s), which is still in flight when job 0
        reaches the 4 s timeout.  Job 0's hang comes before featurization,
        so only its retry logs a transform.
        """
        log = tmp_path / "transforms.log"
        _log_transforms(monkeypatch, log)
        specs = [_spec(settings, "walmart_amazon", 7),
                 _spec(settings, "amazon_google", 7),
                 _spec(settings, "amazon_google", 20)]
        executor = ParallelExecutor(
            jobs=2, retry_policy=RetryPolicy(max_attempts=2, timeout=4.0),
            injector=FaultInjector.from_spec("hang=60@0,hang=2@1,hang=2.5@2"))
        engine = ExperimentEngine(settings, executor=executor)
        assert len(engine.run(specs)) == len(specs)

        assert engine.last_report.retried == 1
        assert engine.last_report.failed == 0
        assert sorted(dataset for _, dataset in _logged(log)) == [
            "amazon_google", "walmart_amazon"]
        # The hung worker was terminated, not left to sleep out its hang.
        assert not multiprocessing.active_children()
