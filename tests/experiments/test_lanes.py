"""Dataset-affine lanes: where the executor runs each job and what it keeps.

``ParallelExecutor`` queues a batch largest benchmark first (Table 3 training
size, a stable sort) and runs one job at a time per lane.  A free lane takes
the first ready job whose dataset no other lane holds, so each benchmark is
generated and featurized by one worker, the largest one early, and a worker
drops the datasets no unfinished job of its batch still uses.  Chaos ranks
still address jobs in submission order.  The process tests count
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
    _largest_first,
    _place,
    _release_datasets,
    clear_dataset_cache,
    get_feature_matrix,
)
from repro.experiments.faults import FaultInjector, RetryPolicy
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.neural.matcher import MatcherConfig

DATASETS = ("amazon_google", "walmart_amazon")
#: Larger than both DATASETS in Table 3 (17,223 training pairs against
#: 6,874 and 6,144).
LARGEST = "dblp_scholar"

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


def _spec(settings, dataset: str, seed: int,
          scenario: str = "perfect") -> RunSpec:
    return RunSpec.create(dataset, "random", seed, 0.5, 0.5, "selector",
                          settings, scenario=scenario)


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


class TestQueue:
    def test_largest_benchmark_first(self, settings):
        # Table 3 sizes: dblp_scholar 17,223, amazon_google 6,874,
        # walmart_amazon 6,144, wdc_cameras 4,081.
        specs = [_spec(settings, name, 7) for name in (
            "wdc_cameras", "walmart_amazon", LARGEST, "amazon_google")]
        assert _largest_first(specs) == [specs[2], specs[3], specs[1],
                                         specs[0]]

    def test_the_sort_is_stable(self, settings):
        # Seeds and scenario variants of one benchmark ("dirty" and "clean"
        # regenerate its data), two spellings the registry maps to one
        # benchmark (equal sizes), and unknown names, each in submission
        # order; the unknown names go last.
        google = [_spec(settings, "amazon_google", 7),
                  _spec(settings, "amazon_google", 7, scenario="dirty"),
                  _spec(settings, "amazon_google", 20),
                  _spec(settings, "amazon_google", 7, scenario="clean")]
        respelled = _spec(settings, "Amazon-Google", 7)
        unknown = [_spec(settings, "no_such_benchmark", 7),
                   _spec(settings, "another_unknown", 7)]
        walmart = _spec(settings, "walmart_amazon", 7)
        specs = [unknown[0], walmart, google[0], google[1], respelled,
                 unknown[1], google[2], google[3]]
        assert _largest_first(specs) == [google[0], google[1], respelled,
                                         google[2], google[3], walmart,
                                         unknown[0], unknown[1]]

    def test_chaos_ranks_follow_submission_order(self, settings, monkeypatch):
        """``raise@0`` fails the first submitted job, which now runs second."""
        attempts: list[tuple[str, int]] = []
        original = engine_module.fault_injection_point

        def logging_point(fingerprint: str, attempt: int) -> None:
            attempts.append((fingerprint, attempt))
            original(fingerprint, attempt)

        monkeypatch.setattr(engine_module, "fault_injection_point",
                            logging_point)
        monkeypatch.setattr(engine_module, "execute_spec",
                            lambda spec, settings: spec.dataset)
        smaller = _spec(settings, "walmart_amazon", 7)
        larger = _spec(settings, "amazon_google", 7)
        executor = ParallelExecutor(
            jobs=1, injector=FaultInjector.from_spec("raise@0"))
        finished = [spec for spec, _ in executor.execute([smaller, larger],
                                                         settings)]
        assert attempts == [(larger.fingerprint(), 0),
                            (smaller.fingerprint(), 0),
                            (smaller.fingerprint(), 1)]
        assert finished == [larger, smaller]
        assert executor.last_retries == 1
        assert not executor.last_failures


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
        """The largest benchmark, submitted last, runs first on one lane.

        Every job first sleeps 0.6 s (a ``hang`` that no timeout cuts), so
        job lengths are even and the other lane is still busy with the
        smaller benchmarks when the first of the largest's jobs ends.  In
        submission order both lanes would reach the largest at the tail.
        """
        log = tmp_path / "transforms.log"
        _log_transforms(monkeypatch, log)
        datasets = DATASETS + (LARGEST,)
        specs = [_spec(settings, dataset, seed)
                 for dataset in datasets for seed in (7, 20)]
        executor = ParallelExecutor(jobs=2, injector=FaultInjector.from_spec(
            ",".join(f"hang=0.6@{rank}" for rank in range(len(specs)))))
        engine = ExperimentEngine(settings, executor=executor)
        assert len(engine.run(specs)) == len(specs)

        logged = _logged(log)
        # Each dataset once, plus at most the one both lanes ran at the tail.
        assert len(set(logged)) == len(logged) <= len(datasets) + 1
        assert {dataset for _, dataset in logged} == set(datasets)
        assert [dataset for _, dataset in logged].count(LARGEST) == 1

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
