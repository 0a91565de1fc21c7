"""The benchmark's workloads and one measured repetition of each.

One operation is one active-learning run (a :class:`RunSpec`).  Every
workload uses the perfect oracle and ``default_settings`` of its scale, with
the benchmark seed as both the dataset-generation seed and the run seed, so
the same seed always produces the same inputs and the same learning curves.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.active.loop import ActiveLearningResult
from repro.experiments.configs import ExperimentSettings, default_settings
from repro.experiments.engine import (
    ExperimentEngine,
    ParallelExecutor,
    RunSpec,
    clear_dataset_cache,
    get_dataset,
    get_feature_matrix,
)
from repro.experiments.faults import FaultInjector
from repro.experiments.store import ArtifactStore

from perfbench.stats import trapezoid_auc


@dataclass(frozen=True)
class Workload:
    """A named set of runs: every dataset × method at one scale."""

    name: str
    why: str
    scale: str
    methods: tuple[str, ...]
    #: ``None`` means every benchmark the registry can build.
    datasets: tuple[str, ...] | None = None
    #: Pool workers; 1 runs the specs serially in the benchmark process.
    jobs: int = 1

    def settings(self, seed: int) -> ExperimentSettings:
        return dataclasses.replace(default_settings(self.scale),
                                   base_random_seed=seed)

    def dataset_names(self, settings: ExperimentSettings) -> tuple[str, ...]:
        return self.datasets if self.datasets is not None else settings.datasets

    def specs(self, settings: ExperimentSettings, seed: int) -> list[RunSpec]:
        return [RunSpec.create(dataset, method, seed, settings.alphas[0],
                               settings.beta, "selector", settings)
                for dataset in self.dataset_names(settings)
                for method in self.methods]


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="run-battleship-small",
        why="one serial battleship run at small scale; selector-bound "
            "(clustering about 60%, matcher training about a third)",
        scale="small", methods=("battleship",), datasets=("amazon_google",)),
    Workload(
        name="run-baselines-small",
        why="serial dal, dial and random runs on the same data; "
            "matcher-bound, never reaches clustering or graphs",
        scale="small", methods=("dal", "dial", "random"),
        datasets=("amazon_google",)),
    Workload(
        name="campaign-tiny",
        why="6 datasets x {battleship, random} at tiny on a 2-worker pool "
            "with a fresh store: scheduling, stragglers, worker set-up, writes",
        scale="tiny", methods=("battleship", "random"), jobs=2),
)}


def setup(workload: Workload, settings: ExperimentSettings) -> float:
    """Cold-load every dataset and feature matrix the workload touches."""
    clear_dataset_cache()
    # Garbage left by earlier work is collected here, not inside the timing.
    gc.collect()
    start = time.perf_counter()
    for name in workload.dataset_names(settings):
        get_dataset(name, settings)
        get_feature_matrix(name, settings)
    return time.perf_counter() - start


def run_problems(result: ActiveLearningResult | None,
                 settings: ExperimentSettings) -> list[str]:
    """Why ``result`` is not a correct run under ``settings`` (empty if it is)."""
    if result is None:
        return ["no result"]
    problems = []
    if len(result.records) != settings.iterations + 1:
        problems.append(f"{len(result.records)} records, expected "
                        f"{settings.iterations + 1}")
    labeled = tuple(record.num_labeled for record in result.records)
    if labeled != settings.labeled_checkpoints:
        problems.append(f"num_labeled {labeled} != checkpoints "
                        f"{settings.labeled_checkpoints}")
    if not all(0.0 <= record.f1 <= 1.0 for record in result.records):
        problems.append("an F1 outside [0, 1]")
    return problems


def run_auc(result: ActiveLearningResult) -> float:
    return trapezoid_auc([record.num_labeled for record in result.records],
                         [record.f1 for record in result.records])


@dataclass
class Repetition:
    """What one repetition of a workload measured."""

    setup_s: float
    wall_s: float
    attempted: int
    failed: int
    #: Mean normalised F1 AUC over the correct runs (NaN if there are none).
    f1_auc: float
    problems: list[str]
    engine: ExperimentEngine
    #: ``time.monotonic()`` when ``ExperimentEngine.run`` was entered.
    run_started: float


def repeat(workload: Workload, settings: ExperimentSettings,
           specs: list[RunSpec], scratch: Path,
           injector: FaultInjector | None = None,
           keep_going: bool = False) -> Repetition:
    """Cold set-up, then ``ExperimentEngine.run`` over ``specs``, then checks.

    A campaign (``jobs > 1``) writes to a fresh artifact store under
    ``scratch``, which is deleted afterwards, and a second engine over the
    same store must then execute nothing and return identical results.
    """
    setup_s = setup(workload, settings)
    store_dir = None
    store = None
    if workload.jobs > 1:
        # Workers must not inherit the parent's warm caches at fork.
        clear_dataset_cache()
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
        store = ArtifactStore(store_dir)
        executor = ParallelExecutor(jobs=workload.jobs, keep_going=keep_going,
                                    injector=injector)
        engine = ExperimentEngine(settings, executor=executor, store=store)
    else:
        engine = ExperimentEngine(settings)
    problems: list[str] = []
    results: dict[RunSpec, ActiveLearningResult] = {}
    run_started = time.monotonic()
    try:
        start = time.perf_counter()
        try:
            results = engine.run(specs)
        except Exception:  # a failed run is counted, not fatal to the benchmark
            traceback.print_exc(file=sys.stderr)
            problems.append("ExperimentEngine.run raised")
        wall_s = time.perf_counter() - start
        failed = 0
        aucs = []
        for spec in specs:
            spec_problems = run_problems(results.get(spec), settings)
            if spec_problems:
                failed += 1
                problems.extend(f"{spec.dataset}/{spec.method}: {problem}"
                                for problem in spec_problems)
            else:
                aucs.append(run_auc(results[spec]))
        if store is not None and not problems:
            problems.extend(_resume_problems(settings, specs, store, results))
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    return Repetition(
        setup_s=setup_s, wall_s=wall_s, attempted=len(specs), failed=failed,
        f1_auc=sum(aucs) / len(aucs) if aucs else math.nan,
        problems=problems, engine=engine, run_started=run_started)


def _resume_problems(settings: ExperimentSettings, specs: list[RunSpec],
                     store: ArtifactStore,
                     cold: dict[RunSpec, ActiveLearningResult]) -> list[str]:
    """A warm engine over ``store`` must execute nothing and agree exactly."""
    warm_engine = ExperimentEngine(settings, store=store)
    warm = warm_engine.run(specs)
    problems = []
    if warm_engine.last_report.executed != 0:
        problems.append(f"resume executed {warm_engine.last_report.executed} "
                        "runs, expected 0")
    if any(warm[spec].to_dict() != cold[spec].to_dict() for spec in specs):
        problems.append("resumed results differ from the cold results")
    return problems
