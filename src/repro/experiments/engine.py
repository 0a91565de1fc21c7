"""Job-based experiment execution engine.

Every figure and table of the paper aggregates an embarrassingly parallel
grid of independent active-learning runs (dataset × method × seed × α).  This
module turns that grid into explicit jobs:

* :class:`RunSpec` — a frozen, hashable description of one run, including a
  fingerprint of the :class:`~repro.experiments.configs.ExperimentSettings`
  it is valid under, so results can be stored and looked up by content.
  A job is a function of its spec: :func:`execute_spec` runs every job
  under :func:`~repro.analysis.determinism_guard`, and the stored result
  holds no wall-clock field, so two stores of one sweep are byte-identical.
* :class:`ParallelExecutor` — the one job scheduler.  ``jobs=1`` runs jobs
  in the calling process; ``jobs>=2`` fans them out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers each keep
  their own dataset cache (one benchmark load per worker, not per job).
  Both go through the same retry-aware scheduling loop.  The pool's only
  initializer is :func:`~repro.experiments.faults.init_injector`.
* :class:`ExperimentEngine` — ties an executor to an optional
  :class:`~repro.experiments.store.ArtifactStore`: completed runs are loaded
  from the store instead of re-executed (resume), fresh results are persisted.

The engine also hosts the execution primitives (`method_factory`,
`get_dataset`, `run_single`) that the figure/table layer imports from here
directly.  The dependency order is loop → engine/store → runner (the grid
convention) → figures/tables/robustness → CLI.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.active.loop import (
    ActiveLearningLoop,
    ActiveLearningResult,
    IterationRecord,
)
from repro.active.oracle import LabelingOracle
from repro.active.selectors import (
    BattleshipConfig,
    BattleshipSelector,
    CommitteeSelector,
    EntropySelector,
    RandomSelector,
    Selector,
)
from repro._fingerprints import content_hash, fingerprint_fields, fingerprint_payload
from repro._suggest import unknown_name_message
from repro.analysis.sanitizer import determinism_guard
from repro.active.weak_supervision import WeakSupervisionMode, resolve_mode
from repro.data.dataset import EMDataset
from repro.datasets.registry import load_benchmark
from repro.evaluation.metrics import MatchingMetrics
from repro.exceptions import ConfigurationError
from repro.experiments.configs import GRID_ONLY_FIELDS, ExperimentSettings
from repro.experiments.faults import (
    POOL_KILL_QUARANTINE,
    FailureLedger,
    FailureRecord,
    FaultInjector,
    JobTimeoutError,
    RetryPolicy,
    WorkerCrashError,
    active_injector,
    fault_injection_point,
    init_injector,
    ledger_path,
    record_traceback,
)
from repro.experiments.store import ArtifactStore, collect_corruption_warnings
from repro.neural.featurizer import FeaturizerConfig, PairFeaturizer
from repro.scenarios import Scenario, get_scenario

#: Name of the scenario reproducing the paper's evaluation exactly.
DEFAULT_SCENARIO = "perfect"

#: Selector factory signature: ``(alpha, beta) -> Selector``.
SelectorFactory = Callable[[float, float], Selector]

_METHOD_FACTORIES: dict[str, SelectorFactory] = {
    "battleship": lambda alpha, beta: BattleshipSelector(
        BattleshipConfig(alpha=alpha, beta=beta)),
    "dal": lambda alpha, beta: EntropySelector(),
    "dial": lambda alpha, beta: CommitteeSelector(),
    "random": lambda alpha, beta: RandomSelector(),
}

#: The active-learning methods compared throughout Section 5.
ACTIVE_LEARNING_METHODS: tuple[str, ...] = tuple(_METHOD_FACTORIES)

_DATASET_CACHE: dict[tuple[str, str, int, str], EMDataset] = {}


def method_factory(name: str) -> SelectorFactory:
    """Look up the selector factory for ``name``."""
    try:
        return _METHOD_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            unknown_name_message("method", name, _METHOD_FACTORIES)) from None


def get_dataset(name: str, settings: ExperimentSettings,
                scenario: Scenario | None = None) -> EMDataset:
    """Load (and cache) the benchmark ``name`` at the settings' scale.

    With a ``scenario``, the benchmark is generated under the scenario's
    corruption regime and pool skew.  The cache is keyed by the scenario's
    *dataset* fingerprint, so scenarios differing only in their oracle model
    share one cached benchmark, and the default scenario shares the cache
    entry of scenario-less callers.
    """
    variant = scenario.dataset_fingerprint() if scenario is not None else ""
    key = (name, settings.scale.name, settings.base_random_seed, variant)
    if key not in _DATASET_CACHE:
        if variant:
            _DATASET_CACHE[key] = scenario.build_dataset(
                name, scale=settings.scale,
                random_state=settings.base_random_seed)
        else:
            _DATASET_CACHE[key] = load_benchmark(
                name, scale=settings.scale,
                random_state=settings.base_random_seed)
    return _DATASET_CACHE[key]


#: Feature matrices keyed by the dataset-relevant fingerprint plus the
#: featurizer configuration (FeaturizerConfig is frozen, hence hashable).
#: Insertion-ordered (LRU on access) and bounded: dense matrices are far
#: larger than the datasets they derive from, so unlike the dataset cache
#: this one evicts.
_FEATURE_CACHE: dict[
    tuple[str, str, int, str, FeaturizerConfig], np.ndarray] = {}

#: Maximum number of feature matrices kept per process.  A figure grid
#: touches each (dataset, scenario-dataset, featurizer) combination many
#: times in a row, so a small bound keeps the hit rate at ~100% while
#: capping a scenario-matrix sweep's residency at a handful of matrices.
FEATURE_CACHE_MAX_ENTRIES = 8


def get_feature_matrix(name: str, settings: ExperimentSettings,
                       scenario: Scenario | None = None) -> np.ndarray:
    """Feature matrix of every candidate pair of benchmark ``name`` (cached).

    Mirrors :func:`get_dataset`: the cache key is the dataset-relevant
    fingerprint — ``(dataset, scale, base seed, scenario dataset-hash)`` —
    extended by the settings' :class:`FeaturizerConfig`, the only other input
    that changes the matrix (the featurizer is stateless).  A whole figure
    grid therefore featurizes each dataset once per worker process instead
    of once per run.  The cached matrix is marked read-only; consumers index
    into it, which copies, so sharing is safe across runs.  The cache is a
    bounded LRU (:data:`FEATURE_CACHE_MAX_ENTRIES`), so sweeps over many
    dataset variants do not accumulate dense matrices without limit.
    """
    variant = scenario.dataset_fingerprint() if scenario is not None else ""
    key = (name, settings.scale.name, settings.base_random_seed, variant,
           settings.featurizer_config)
    matrix = _FEATURE_CACHE.pop(key, None)
    if matrix is None:
        dataset = get_dataset(name, settings, scenario)
        matrix = PairFeaturizer(settings.featurizer_config).transform(dataset)
        matrix.setflags(write=False)
    _FEATURE_CACHE[key] = matrix  # (re)insert at the most-recent end
    while len(_FEATURE_CACHE) > FEATURE_CACHE_MAX_ENTRIES:
        _FEATURE_CACHE.pop(next(iter(_FEATURE_CACHE)))
    return matrix


def clear_dataset_cache() -> None:
    """Drop all cached benchmarks and their feature matrices (used by tests).

    Feature matrices are derived from cached datasets, so the two caches are
    invalidated together — a stale matrix for a freshly re-generated
    benchmark would be silently wrong.
    """
    _DATASET_CACHE.clear()
    _FEATURE_CACHE.clear()


def clear_feature_cache() -> None:
    """Drop only the cached feature matrices (used by tests)."""
    _FEATURE_CACHE.clear()


# --------------------------------------------------------------------------- #
# Run specifications and fingerprints
# --------------------------------------------------------------------------- #
def settings_fingerprint(settings: ExperimentSettings) -> str:
    """Stable hash of every settings field that influences a single run.

    Fields that only shape the *grid* (:data:`GRID_ONLY_FIELDS`: datasets,
    num_seeds, alphas, beta) are excluded: the grid is spelled out by the
    RunSpecs themselves, and a stored run stays valid when the surrounding
    sweep changes.  The payload is derived from the dataclass fields rather
    than enumerated by hand, so a new settings field is fingerprinted by
    construction — forgetting it is impossible.
    """
    fields = fingerprint_fields(ExperimentSettings, exclude=GRID_ONLY_FIELDS)
    payload = fingerprint_payload(settings, fields)
    return content_hash(payload)


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one active-learning run.

    A RunSpec is hashable and usable as a dictionary key; its
    :meth:`fingerprint` keys the artifact store.  ``settings_hash`` binds the
    spec to the :class:`ExperimentSettings` it was enumerated under, so runs
    executed with different iteration counts or matcher hyper-parameters
    never collide in the store.  ``scenario`` names the robustness scenario
    (:mod:`repro.scenarios`) the run executes under; the store key includes
    the scenario *definition's* fingerprint, so editing a scenario
    invalidates exactly the artifacts it produced.
    """

    dataset: str
    method: str
    seed: int
    alpha: float
    beta: float
    weak_supervision: str
    settings_hash: str
    scenario: str = DEFAULT_SCENARIO

    @classmethod
    def create(
        cls,
        dataset: str,
        method: str,
        seed: int,
        alpha: float,
        beta: float,
        weak_supervision: WeakSupervisionMode | str,
        settings: ExperimentSettings,
        scenario: str = DEFAULT_SCENARIO,
    ) -> "RunSpec":
        """Build a spec, normalizing the mode and fingerprinting ``settings``."""
        scenario_name = get_scenario(scenario).name  # validate before freezing
        return cls(
            dataset=dataset,
            method=method,
            seed=int(seed),
            alpha=float(alpha),
            beta=float(beta),
            weak_supervision=resolve_mode(weak_supervision).value,
            settings_hash=settings_fingerprint(settings),
            scenario=scenario_name,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (embedded in stored artifacts)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            dataset=str(payload["dataset"]),
            method=str(payload["method"]),
            seed=int(payload["seed"]),
            alpha=float(payload["alpha"]),
            beta=float(payload["beta"]),
            weak_supervision=str(payload["weak_supervision"]),
            settings_hash=str(payload["settings_hash"]),
            scenario=str(payload.get("scenario", DEFAULT_SCENARIO)),
        )

    def fingerprint(self) -> str:
        """Content hash identifying this run in the artifact store.

        Besides the spec fields, the hash covers the referenced scenario's
        definition fingerprint — a stored artifact stays valid only as long
        as the scenario it ran under means the same thing.  Specs for the
        default (perfect) scenario hash the pre-scenario payload shape, so
        artifact stores written before the scenario axis existed resume
        without re-executing anything; the built-in perfect scenario is
        definitionally immutable, so no invalidation is lost.
        """
        payload = self.to_dict()
        if self.scenario == DEFAULT_SCENARIO:
            del payload["scenario"]
        else:
            payload["scenario_fingerprint"] = (
                get_scenario(self.scenario).fingerprint())
        return content_hash(payload, length=24)


def run_single(
    dataset: EMDataset,
    selector: Selector,
    settings: ExperimentSettings,
    random_state: int,
    weak_supervision: WeakSupervisionMode | str = WeakSupervisionMode.SELECTOR,
    oracle: LabelingOracle | None = None,
    features: np.ndarray | None = None,
) -> ActiveLearningResult:
    """One active-learning run with the settings' iteration/budget counts.

    ``oracle`` overrides the loop's default perfect oracle (the scenario
    subsystem builds noisy/abstaining annotators here).  ``features`` is an
    optional precomputed feature matrix for all candidate pairs of
    ``dataset`` (see :func:`get_feature_matrix`); runs sharing a dataset can
    then skip per-run featurization entirely.
    """
    loop = ActiveLearningLoop(
        dataset=dataset,
        selector=selector,
        oracle=oracle,
        matcher_config=settings.matcher_config,
        featurizer_config=settings.featurizer_config,
        iterations=settings.iterations,
        budget_per_iteration=settings.budget_per_iteration,
        seed_size=settings.seed_size,
        weak_supervision=weak_supervision,
        random_state=random_state,
        features=features,
    )
    return loop.run()


def execute_spec(spec: RunSpec, settings: ExperimentSettings) -> ActiveLearningResult:
    """Execute one :class:`RunSpec` under ``settings``.

    The feature matrix comes from the process-wide cache, so the first run
    touching a ``(dataset, scenario-dataset, featurizer)`` combination pays
    for featurization and every later run reuses the matrix.

    Every run executes under :func:`repro.analysis.determinism_guard`: a
    code path consuming the global RNGs fails the run with
    :class:`~repro.analysis.DeterminismViolation`, and the shared feature
    matrix is asserted to still be read-only afterwards.
    """
    with determinism_guard(label=f"run {spec.dataset}/{spec.method}"
                                 f"/seed={spec.seed}") as guard:
        scenario = get_scenario(spec.scenario)
        selector = method_factory(spec.method)(spec.alpha, spec.beta)
        dataset = get_dataset(spec.dataset, settings, scenario)
        oracle = scenario.build_oracle(dataset, spec.seed)
        features = get_feature_matrix(spec.dataset, settings, scenario)
        result = run_single(dataset, selector, settings, spec.seed,
                            spec.weak_supervision, oracle=oracle,
                            features=features)
        guard.assert_read_only(
            features, name=f"feature matrix of {spec.dataset}")
    return result


# --------------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------------- #
_T = TypeVar("_T")


def _execute_attempt(spec: RunSpec, settings: ExperimentSettings,
                     attempt: int) -> ActiveLearningResult:
    """Top-level (picklable) job body: one attempt at one spec."""
    if active_injector() is not None:
        fault_injection_point(spec.fingerprint(), attempt)
    return execute_spec(spec, settings)


class _InProcessPool(Executor):
    """The ``jobs=1`` stand-in for a process pool.

    ``submit`` runs the job in the calling process and returns an
    already-finished future, so one scheduling loop serves every job count;
    ``shutdown`` (inherited) does nothing.  Only an ``Exception`` lands in
    the future — a ``KeyboardInterrupt`` propagates out of ``submit``.
    """

    def submit(self, fn: Callable[..., _T], /, *args: Any,
               **kwargs: Any) -> Future[_T]:
        future: Future[_T] = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


class ParallelExecutor:
    """Run jobs in-process (``jobs=1``) or over a :class:`ProcessPoolExecutor`.

    ``execute`` yields ``(spec, result)`` pairs in *completion* order, so the
    engine persists every finished run immediately — an interrupted sweep
    resumes from the completed runs, not just a submission-order prefix.
    When a job fails (or the interrupt lands) while runs are executing,
    queued jobs are cancelled and finished siblings are still yielded for
    persistence; only a failure raised by the *consumer* while it handles a
    result (which closes the generator) can drop completed-but-unyielded
    siblings.  Curves are bit-identical at every job count because results
    are keyed by spec and every run is seeded independently of the order in
    which its siblings finish.

    Every batch runs under a :class:`~repro.experiments.faults.RetryPolicy`.
    Without one it is ``RetryPolicy(max_attempts=1)`` — one attempt per job,
    and the first permanent failure aborts the sweep (and is recorded in
    ``last_failures``) — or ``RetryPolicy()`` when ``keep_going`` or an
    ``injector`` asks for fault tolerance.  At every job count, transient
    failures are resubmitted with deterministic backoff and ``keep_going``
    turns permanent failures into ``last_failures`` records instead of
    aborting the sweep.  Two guarantees need process isolation, hence
    ``jobs>=2``: jobs exceeding ``policy.timeout`` are cancelled by tearing
    down (and rebuilding) the worker pool — a :class:`ProcessPoolExecutor`
    cannot preempt a single running task — and a :class:`BrokenProcessPool`
    (worker OOM-killed or crashed) rebuilds the pool and resubmits the
    in-flight specs, quarantining any spec that kills the pool
    :data:`~repro.experiments.faults.POOL_KILL_QUARANTINE` times.  With
    ``jobs=1`` a timeout only draws a warning.
    """

    def __init__(
        self,
        jobs: int = 2,
        retry_policy: RetryPolicy | None = None,
        keep_going: bool = False,
        injector: FaultInjector | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if retry_policy is None:
            retry_policy = (RetryPolicy() if keep_going or injector is not None
                            else RetryPolicy(max_attempts=1))
        if jobs == 1 and retry_policy.timeout is not None:
            warnings.warn(
                "ParallelExecutor(jobs=1) cannot enforce per-job timeouts "
                "(jobs run in the calling process); use jobs >= 2 for "
                "--timeout", stacklevel=2)
        self.jobs = jobs
        self.retry_policy: RetryPolicy = retry_policy
        self.keep_going = keep_going
        self.injector = injector
        self.last_failures: list[FailureRecord] = []
        self.last_retries = 0

    def _new_pool(self, workers: int,
                  injector: FaultInjector | None) -> Executor:
        """The batch's pool; workers fill their dataset cache lazily.

        The resolved chaos injector travels through the pool initializer,
        never through ambient parent globals, so it reaches spawn-started
        workers too.  Everything else a job needs travels with the job
        (:func:`_execute_attempt`).
        """
        if self.jobs == 1:
            return _InProcessPool()
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=init_injector,
                                   initargs=(injector,))

    @staticmethod
    def _terminate_pool(pool: Executor) -> None:
        """Hard-stop a pool whose workers may be hung, dead, or healthy.

        ``shutdown`` alone would join the workers, which blocks forever on a
        hung job — so the worker processes are terminated outright.  The
        process table is a private attribute; if a future interpreter hides
        it, the fallback is a plain (potentially blocking) shutdown.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        for process in list(processes.values()):
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()

    def execute(
        self, specs: Sequence[RunSpec], settings: ExperimentSettings,
    ) -> Iterator[tuple[RunSpec, ActiveLearningResult]]:
        """The scheduling loop: run ``specs``, yield results as they finish.

        A sliding window of at most ``workers`` jobs is kept in flight, so a
        job's submit time approximates its start time and the per-job
        timeout can be enforced from the parent.  Completion, failure, and
        retry are all driven off :func:`concurrent.futures.wait`; retries
        re-enter the window after their deterministic backoff without ever
        blocking jobs that are ready to run.
        """
        self.last_failures = []
        self.last_retries = 0
        if not specs:
            return
        policy = self.retry_policy
        keep_going = self.keep_going
        injector = (self.injector.resolve(list(specs))
                    if self.injector is not None else None)
        workers = min(self.jobs, len(specs))
        fingerprints = {spec: spec.fingerprint() for spec in specs}
        failed_attempts = {spec: 0 for spec in specs}
        pool_kills = {spec: 0 for spec in specs}
        tracebacks: dict[RunSpec, list[str]] = {spec: [] for spec in specs}
        elapsed: dict[RunSpec, list[float]] = {spec: [] for spec in specs}
        ready: deque[RunSpec] = deque(specs)
        waiting: list[tuple[float, RunSpec]] = []
        running: dict[Future[ActiveLearningResult],
                      tuple[RunSpec, float]] = {}
        abort: BaseException | None = None
        # Parent-side injector: the store's torn-write hook fires in this
        # process while the engine persists results, and at jobs=1 so does
        # every job.
        init_injector(injector)
        pool = self._new_pool(workers, injector)

        def fail_attempt(spec: RunSpec, error: BaseException,
                         seconds: float) -> bool:
            """Record one failed attempt; True if the spec will retry."""
            failed_attempts[spec] += 1
            tracebacks[spec].append(record_traceback(error))
            elapsed[spec].append(seconds)
            quarantined = pool_kills[spec] >= POOL_KILL_QUARANTINE
            if not quarantined and policy.retryable(error,
                                                    failed_attempts[spec]):
                delay = policy.backoff_seconds(fingerprints[spec],
                                               failed_attempts[spec] - 1)
                waiting.append((time.monotonic() + delay, spec))
                self.last_retries += 1
                return True
            self.last_failures.append(FailureRecord.from_failure(
                spec, fingerprints[spec], error, failed_attempts[spec],
                tuple(tracebacks[spec]), tuple(elapsed[spec]),
                quarantined=quarantined))
            return False

        def recover(victims: dict[RunSpec, BaseException] | None,
                    ) -> tuple[list[tuple[RunSpec, ActiveLearningResult]],
                               BaseException | None]:
            """Tear the pool down, classify in-flight specs, rebuild.

            ``victims`` maps the specs blamed for the teardown to their
            synthetic errors (timeouts); ``None`` means a worker crash, in
            which case the blame goes to the spec a chaos ``kill`` directive
            targeted — or, for real crashes, conservatively to every
            in-flight spec.  Innocent in-flight specs are resubmitted
            without consuming a retry.  Returns salvageable finished
            results and the error to abort with (if any).
            """
            nonlocal pool
            salvaged: list[tuple[RunSpec, ActiveLearningResult]] = []
            fatal: BaseException | None = None
            inflight: list[tuple[RunSpec, float]] = []
            now = time.monotonic()
            for future, (spec, started) in running.items():
                finished = future.done() and not future.cancelled()
                error = future.exception() if finished else None
                if finished and error is None:
                    salvaged.append((spec, future.result()))
                elif error is not None and not isinstance(error,
                                                          BrokenProcessPool):
                    # A plain failure that completed just as the pool broke.
                    if (not fail_attempt(spec, error, now - started)
                            and not keep_going and fatal is None):
                        fatal = error
                else:
                    inflight.append((spec, started))
            running.clear()
            if victims is None:
                blamed = []
                if injector is not None:
                    blamed = [spec for spec, _ in inflight
                              if injector.kills(fingerprints[spec],
                                                failed_attempts[spec])]
                if not blamed:
                    blamed = [spec for spec, _ in inflight]
                victims = {
                    spec: WorkerCrashError(
                        f"worker pool broke while job "
                        f"{fingerprints[spec][:8]} was in flight")
                    for spec in blamed}
                for spec in victims:
                    pool_kills[spec] += 1
            for spec, started in inflight:
                if spec in victims:
                    if (not fail_attempt(spec, victims[spec], now - started)
                            and not keep_going and fatal is None):
                        fatal = victims[spec]
                else:
                    ready.append(spec)
            self._terminate_pool(pool)
            pool = self._new_pool(workers, injector)
            return salvaged, fatal

        try:
            while ready or waiting or running:
                now = time.monotonic()
                if waiting:
                    due = [entry for entry in waiting if entry[0] <= now]
                    if due:
                        waiting = [entry for entry in waiting
                                   if entry[0] > now]
                        for _, spec in sorted(
                                due, key=lambda entry: fingerprints[entry[1]]):
                            ready.append(spec)
                broken_on_submit = False
                while ready and len(running) < workers:
                    spec = ready.popleft()
                    # Taken before submit: at jobs=1, submit runs the job.
                    started = time.monotonic()
                    try:
                        future = pool.submit(_execute_attempt, spec, settings,
                                             failed_attempts[spec])
                    except BrokenProcessPool:
                        ready.appendleft(spec)
                        broken_on_submit = True
                        break
                    running[future] = (spec, started)
                if broken_on_submit:
                    salvaged, fatal = recover(None)
                    for item in salvaged:
                        yield item
                    if fatal is not None:
                        abort = fatal
                        break
                    continue
                if not running:
                    if waiting:
                        next_ready = min(entry[0] for entry in waiting)
                        time.sleep(max(0.0, next_ready - time.monotonic()))
                    continue
                deadlines: list[float] = []
                if policy.timeout is not None:
                    deadlines.extend(started + policy.timeout - now
                                     for _, started in running.values())
                deadlines.extend(entry[0] - now for entry in waiting)
                timeout = max(0.0, min(deadlines)) if deadlines else None
                try:
                    done, _ = wait(set(running), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                except KeyboardInterrupt as interrupt:
                    # Ctrl-C: queued jobs are cancelled below and finished
                    # ones persisted, so a resume skips them.
                    abort = interrupt
                    break
                pool_broken = False
                for future in sorted(
                        done, key=lambda f: fingerprints[running[f][0]]):
                    spec, started = running.pop(future)
                    seconds = time.monotonic() - started
                    error = future.exception()
                    if error is None:
                        yield spec, future.result()
                    elif isinstance(error, BrokenProcessPool):
                        running[future] = (spec, started)
                        pool_broken = True
                        break
                    elif not fail_attempt(spec, error, seconds) \
                            and not keep_going:
                        abort = error
                        break
                if abort is not None:
                    break
                if pool_broken:
                    salvaged, fatal = recover(None)
                    for item in salvaged:
                        yield item
                    if fatal is not None:
                        abort = fatal
                        break
                    continue
                if policy.timeout is not None:
                    now = time.monotonic()
                    overdue = {
                        spec: JobTimeoutError(
                            f"job {fingerprints[spec][:8]} exceeded the "
                            f"{policy.timeout:g}s per-job timeout")
                        for _, (spec, started) in running.items()
                        if now - started >= policy.timeout}
                    if overdue:
                        salvaged, fatal = recover(overdue)
                        for item in salvaged:
                            yield item
                        if fatal is not None:
                            abort = fatal
                            break
            if abort is not None:
                # Fail-fast abort or interrupt: wait out still-running
                # siblings (on SIGINT the workers are interrupted too, so
                # this is short), hand every salvageable finished run to the
                # engine for persistence, then propagate.
                pool.shutdown(wait=True, cancel_futures=True)
                for future, (spec, _started) in running.items():
                    if (future.done() and not future.cancelled()
                            and future.exception() is None):
                        yield spec, future.result()
                raise abort
        finally:
            init_injector(None)
            self._terminate_pool(pool)


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
@dataclass
class EngineReport:
    """How the jobs of one :meth:`ExperimentEngine.run` call were satisfied."""

    executed: int = 0
    from_store: int = 0
    from_memory: int = 0
    #: Jobs a plan-only engine *would* execute (dry runs never execute).
    planned: int = 0
    #: Failed attempts that were resubmitted under the retry policy.
    retried: int = 0
    #: Jobs that failed permanently (recorded in the failure ledger).
    failed: int = 0

    @property
    def cached(self) -> int:
        """Runs satisfied without executing (store loads + memory hits)."""
        return self.from_store + self.from_memory

    @property
    def total(self) -> int:
        return self.executed + self.cached + self.planned

    def merge(self, other: "EngineReport") -> None:
        self.executed += other.executed
        self.from_store += other.from_store
        self.from_memory += other.from_memory
        self.planned += other.planned
        self.retried += other.retried
        self.failed += other.failed


class ExperimentEngine:
    """Resolve RunSpecs to results through an executor and an artifact store.

    Parameters
    ----------
    settings:
        The experiment settings every spec must have been enumerated under
        (mismatching specs are rejected — they would silently describe a
        different run).
    executor:
        Execution backend; defaults to ``ParallelExecutor(jobs=1)``, which
        runs jobs in the calling process.
    store:
        Optional :class:`ArtifactStore`.  Specs with a stored result are
        *not* re-executed; each fresh result is persisted as soon as its run
        finishes, so an interrupted sweep resumes from the completed runs.
    plan_only:
        Dry-run mode: :meth:`run` never executes (or even parses stored
        artifacts — it only checks their existence) and answers every spec
        with a placeholder result shaped like a real one, so the figure and
        table builders enumerate their full grids without side effects.  The
        specs that *would* have executed accumulate in :meth:`planned_specs`.

    Results are additionally cached in memory for the engine's lifetime, so
    figure/table builders sharing RunSpecs within one invocation (e.g.
    Figure 5 and Table 6 both need battleship at α = 0.5) execute them once
    even without a store.  ``last_report`` describes the most recent
    :meth:`run` call; ``total_report`` accumulates over the lifetime.
    """

    def __init__(
        self,
        settings: ExperimentSettings,
        executor: ParallelExecutor | None = None,
        store: ArtifactStore | None = None,
        plan_only: bool = False,
    ) -> None:
        self.settings = settings
        self.executor = executor or ParallelExecutor(jobs=1)
        self.store = store
        self.plan_only = plan_only
        self.last_report = EngineReport()
        self.total_report = EngineReport()
        self._memory: dict[RunSpec, ActiveLearningResult] = {}
        self._planned: dict[RunSpec, None] = {}
        self._plan_store_hits: dict[RunSpec, None] = {}
        self._put_retries = 0

    def cached_results(self) -> dict[RunSpec, ActiveLearningResult]:
        """Copy of every result this engine currently holds in memory."""
        return dict(self._memory)

    def adopt_results(
        self, results: Mapping[RunSpec, ActiveLearningResult],
    ) -> None:
        """Seed the engine with results produced elsewhere (same settings).

        Adopted results are persisted to the store (they are fresh, valid
        artifacts) and served from memory by later :meth:`run` calls instead
        of re-executing their specs.  Used e.g. by the figure-6 builder to
        hand its dedicated serial timing runs back to the shared engine.
        """
        expected_hash = settings_fingerprint(self.settings)
        for spec, result in results.items():
            if spec.settings_hash != expected_hash:
                raise ConfigurationError(
                    f"Cannot adopt result for {spec.dataset}/{spec.method}: it "
                    f"was produced under settings {spec.settings_hash}, but "
                    f"this engine runs {expected_hash}")
            if self.store is not None:
                self.store.put(spec, result)
            self._memory[spec] = result

    def planned_specs(self) -> tuple[RunSpec, ...]:
        """Specs a plan-only engine would execute, in first-seen order."""
        return tuple(self._planned)

    def planned_cached_specs(self) -> tuple[RunSpec, ...]:
        """Specs a plan-only engine found already in the store (deduplicated)."""
        return tuple(self._plan_store_hits)

    def _placeholder_result(self, spec: RunSpec) -> ActiveLearningResult:
        """A zero-metric result shaped exactly like a real one.

        Dry runs hand these to the figure/table builders, whose curve
        averaging requires every run of a group to share the settings'
        checkpoint grid — so the placeholder walks ``labeled_checkpoints``
        the way a real run would.
        """
        zero = MatchingMetrics(precision=0.0, recall=0.0, f1=0.0,
                               num_examples=0)
        records = [
            IterationRecord(iteration=iteration, num_labeled=labeled,
                            num_weak=0, num_labeled_positives=0,
                            test_metrics=zero)
            for iteration, labeled in enumerate(self.settings.labeled_checkpoints)
        ]
        return ActiveLearningResult(dataset_name=spec.dataset,
                                    selector_name=spec.method,
                                    records=records)

    def _plan(self, ordered: list[RunSpec]) -> dict[RunSpec, ActiveLearningResult]:
        """Dry-run resolution: existence checks and placeholders only."""
        results: dict[RunSpec, ActiveLearningResult] = {}
        from_store = planned = 0
        for spec in ordered:
            if self.store is not None and spec in self.store:
                self._plan_store_hits[spec] = None
                from_store += 1
            else:
                self._planned[spec] = None
                planned += 1
            results[spec] = self._placeholder_result(spec)
        self.last_report = EngineReport(from_store=from_store,
                                        planned=planned)
        self.total_report.merge(self.last_report)
        return results

    def run(self, specs: Iterable[RunSpec]) -> dict[RunSpec, ActiveLearningResult]:
        """Execute (or load) every spec; returns results keyed by spec."""
        ordered = list(dict.fromkeys(specs))
        expected_hash = settings_fingerprint(self.settings)
        for spec in ordered:
            if spec.settings_hash != expected_hash:
                raise ConfigurationError(
                    f"RunSpec {spec.dataset}/{spec.method} was enumerated under "
                    f"settings {spec.settings_hash}, but this engine runs "
                    f"{expected_hash}; rebuild the specs from the engine's settings")

        if self.plan_only:
            return self._plan(ordered)

        results: dict[RunSpec, ActiveLearningResult] = {}
        pending: list[RunSpec] = []
        from_store = from_memory = 0
        with collect_corruption_warnings("resume"):
            for spec in ordered:
                if spec in self._memory:
                    results[spec] = self._memory[spec]
                    from_memory += 1
                    continue
                stored = self.store.get(spec) if self.store is not None else None
                if stored is not None:
                    self._memory[spec] = stored
                    results[spec] = stored
                    from_store += 1
                else:
                    pending.append(spec)

        executed = 0
        executed_fingerprints: list[str] = []
        self._put_retries = 0
        try:
            for spec, result in self.executor.execute(pending, self.settings):
                # Memory first: if the store write fails, the result still
                # survives for this engine's lifetime (a same-process retry
                # won't re-execute the run).
                self._memory[spec] = result
                results[spec] = result
                executed += 1
                if self.store is not None:
                    executed_fingerprints.append(self._persist(spec, result))
        finally:
            failures = list(self.executor.last_failures)
            retried = self.executor.last_retries + self._put_retries
            self.last_report = EngineReport(executed=executed,
                                            from_store=from_store,
                                            from_memory=from_memory,
                                            retried=retried,
                                            failed=len(failures))
            self.total_report.merge(self.last_report)
            if self.store is not None:
                self._update_ledger(failures, executed_fingerprints)
        return results

    def _persist(self, spec: RunSpec, result: ActiveLearningResult) -> str:
        """Persist one result, retrying transient (e.g. torn) write failures.

        Reuses the executor's retry policy — the same backoff and attempt
        budget that govern job execution govern artifact publication, so an
        injected torn write self-heals instead of aborting the sweep.
        Returns the spec's fingerprint.
        """
        assert self.store is not None
        policy = self.executor.retry_policy
        fingerprint = spec.fingerprint()
        failed = 0
        while True:
            try:
                self.store.put(spec, result)
                return fingerprint
            except Exception as error:
                failed += 1
                if not policy.retryable(error, failed):
                    raise
                self._put_retries += 1
                time.sleep(policy.backoff_seconds(f"put:{fingerprint}",
                                                  failed - 1))

    def _update_ledger(self, failures: list[FailureRecord],
                       executed_fingerprints: list[str]) -> None:
        """Sync the failure ledger next to the store after a run.

        Fresh permanent failures are recorded; fingerprints that executed
        successfully are discarded (a resumed campaign that finally
        succeeded must not keep reporting the job as failed).  An existing
        ledger is always rewritten, so a corrupt one warns once and is
        replaced, and an empty ledger is removed outright.
        """
        assert self.store is not None
        ledger_file = ledger_path(self.store.root)
        if not failures and not ledger_file.exists():
            return
        ledger = FailureLedger(ledger_file)
        for record in failures:
            ledger.record(record)
        for fingerprint in executed_fingerprints:
            ledger.discard(fingerprint)
        ledger.save()
