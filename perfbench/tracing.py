"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions and methods of ``repro`` with
timing wrappers, looked up where the caller looks them up (for example
``battleship.cluster_representations``, not ``model_selection``'s), and puts
the originals back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
changes.

Spans nest: a span named like an enclosing one (``predict`` calling
``predict_proba``) is not counted twice, and a *layer* span that no other
layer span encloses is top-level.  Top-level time inside jobs over job time
is ``trace.coverage``; top-level time inside ``ActiveLearningLoop.run``
subtracted from the loop's time is ``loop.self_s``.

Pool workers fork from the traced parent, so they run the wrappers too.  A
worker drops the totals it inherited on its first job and writes what each
job recorded to a JSON file in ``worker_dir``; :meth:`Tracer.merge_workers`
folds those files into the parent's totals.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Callable

#: ``after(tracer, args, result)`` runs when a counted span ends.
After = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Span totals of one traced repetition, in this process and its workers."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self._installed: list[tuple[object, str, object | None]] = []
        self.missing: list[str] = []
        self._is_worker = False
        self._reset()

    def _reset(self) -> None:
        self.seconds: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: (start, end) of every job, on the system-wide monotonic clock.
        self.jobs: list[tuple[float, float]] = []
        self._stack: list[str] = []
        self._layer_depth = 0
        self._flushes = 0

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _replace(self, owner: object, attribute: str,
                 make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        # A class attribute that was inherited is deleted again on uninstall.
        own = vars(owner).get(attribute) if isinstance(owner, type) else original
        self._installed.append((owner, attribute, own))
        setattr(owner, attribute, functools.wraps(original)(make(original)))

    def span(self, owner: object, attribute: str, name: str, *,
             layer: bool = False, skip_inside: str | None = None,
             after: After | None = None) -> None:
        """Time every call of ``owner.attribute`` as span ``name``."""
        tracer = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                stack = tracer._stack
                if name in stack or (skip_inside is not None
                                     and skip_inside in stack):
                    return original(*args, **kwargs)
                top_level = layer and tracer._layer_depth == 0
                stack.append(name)
                tracer._layer_depth += layer
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    tracer._layer_depth -= layer
                    tracer.seconds[name] += elapsed
                    tracer.calls[name] += 1
                    if top_level:
                        for container in ("engine.job", "loop.run"):
                            if container in stack:
                                tracer.seconds[f"{container}.children"] += elapsed
                if after is not None:
                    after(tracer, args, result)
                return result
            return wrapper

        self._replace(owner, attribute, make)

    def job(self, owner: object, attribute: str) -> None:
        """Time ``owner.attribute`` as one engine job; workers flush after it."""
        tracer = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if os.getpid() != tracer.pid:
                    tracer._become_worker()
                tracer._stack.append("engine.job")
                start = time.monotonic()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.monotonic()
                    tracer._stack.pop()
                    tracer.jobs.append((start, end))
                    if tracer._is_worker:
                        tracer._flush()
            return wrapper

        self._replace(owner, attribute, make)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._installed.clear()

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _become_worker(self) -> None:
        self._reset()
        self.pid = os.getpid()
        self._is_worker = True

    def _flush(self) -> None:
        payload = {"seconds": self.seconds, "calls": self.calls,
                   "counts": self.counts, "jobs": self.jobs}
        path = self.worker_dir / f"{self.pid}-{self._flushes}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._flushes += 1
        self.seconds, self.calls, self.counts = Counter(), Counter(), Counter()
        self.jobs = []

    def merge_workers(self) -> None:
        """Fold every worker file into this tracer."""
        for path in sorted(self.worker_dir.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            self.seconds.update(payload["seconds"])
            self.calls.update(payload["calls"])
            self.counts.update(payload["counts"])
            self.jobs.extend(tuple(job) for job in payload["jobs"])


# ---------------------------------------------------------------------- #
# What is traced
# ---------------------------------------------------------------------- #
def _count_first_argument(key: str) -> After:
    """Count the rows of a method's first argument (``args[0]`` is ``self``)."""
    def after(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counts[key] += len(args[1])
    return after


def _count_result_rows(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["featurizer.pairs"] += len(result)  # type: ignore[arg-type]


def _count_edges(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["graphs.edges"] += result.num_edges  # type: ignore[attr-defined]


def _note_silhouette(tracer: Tracer, args: tuple, result: object) -> None:
    if "clustering.select_k" in tracer._stack:
        tracer.counts["silhouette_in_select_k"] += 1


def _settle_silhouette(tracer: Tracer, args: tuple, result: object) -> None:
    pending = tracer.counts.pop("silhouette_in_select_k", 0)
    if result.method == "silhouette":  # type: ignore[attr-defined]
        tracer.counts["clustering.silhouette_used_calls"] += pending


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer of ``repro``; call once per traced repetition."""
    from repro.active import loop
    from repro.active.oracle import LabelingOracle
    from repro.active.selectors import battleship
    from repro.active.selectors.base import Selector
    from repro.clustering import model_selection
    from repro.clustering.constrained import ConstrainedKMeans
    from repro.clustering.kmeans import KMeans
    from repro.experiments import engine
    from repro.experiments.store import ArtifactStore
    from repro.neural.featurizer import PairFeaturizer
    from repro.neural.matcher import NeuralMatcher
    from repro.neural.optimizers import AdamW

    tracer.job(engine, "execute_spec")
    tracer.span(loop.ActiveLearningLoop, "run", "loop.run")
    tracer.span(engine, "load_benchmark", "datasets.generate", layer=True)
    tracer.span(PairFeaturizer, "transform", "featurizer.transform",
                layer=True, after=_count_result_rows)
    tracer.span(NeuralMatcher, "fit", "matcher.fit", layer=True,
                after=_count_first_argument("matcher.train_rows"))
    tracer.span(AdamW, "step", "matcher.optimizer_step")
    for method in ("predict", "predict_proba", "predict_with_representations",
                   "embed"):
        tracer.span(NeuralMatcher, method, "matcher.inference", layer=True,
                    skip_inside="matcher.fit")
    for selector in _subclasses(Selector):
        if "select" in vars(selector):
            tracer.span(selector, "select", "selector.select", layer=True)
    tracer.span(loop, "select_weak_labels", "selector.weak", layer=True)
    tracer.span(battleship, "cluster_representations", "clustering.total")
    tracer.span(model_selection, "select_num_clusters", "clustering.select_k",
                after=_settle_silhouette)
    tracer.span(model_selection, "silhouette_score", "clustering.silhouette",
                after=_note_silhouette)
    tracer.span(KMeans, "fit", "clustering.kmeans")
    tracer.span(ConstrainedKMeans, "fit", "clustering.constrained")
    tracer.span(battleship, "build_sparse_adjacency", "graphs.build",
                after=_count_edges)
    tracer.span(battleship, "certainty_scores_batch", "graphs.certainty")
    tracer.span(battleship, "pagerank_components", "graphs.pagerank")
    tracer.span(LabelingOracle, "query_many", "oracle.query",
                after=_count_first_argument("oracle.queries"))
    tracer.span(ArtifactStore, "put", "store.put")
    tracer.span(ArtifactStore, "get", "store.get")
    return tracer


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
#: Per-layer metric name -> unit, in report order.
LAYER_UNITS: dict[str, str] = {
    "datasets.generate_s": "s", "datasets.generate_calls": "count",
    "featurizer.transform_s": "s", "featurizer.transform_calls": "count",
    "featurizer.pairs": "count",
    "matcher.fit_s": "s", "matcher.fit_calls": "count",
    "matcher.train_rows": "count", "matcher.optimizer_step_s": "s",
    "matcher.optimizer_steps": "count", "matcher.inference_s": "s",
    "selector.select_s": "s", "selector.select_calls": "count",
    "selector.weak_s": "s",
    "clustering.total_s": "s",
    "clustering.select_k_s": "s", "clustering.select_k_calls": "count",
    "clustering.kmeans_s": "s", "clustering.kmeans_calls": "count",
    "clustering.silhouette_s": "s", "clustering.silhouette_calls": "count",
    "clustering.silhouette_used_calls": "count",
    "clustering.silhouette_used_ratio": "ratio",
    "clustering.constrained_s": "s", "clustering.constrained_calls": "count",
    "graphs.build_s": "s", "graphs.edges": "count",
    "graphs.certainty_s": "s", "graphs.pagerank_s": "s",
    "oracle.queries": "count", "loop.self_s": "s",
    "engine.job_s_p50": "s", "engine.job_s_max": "s",
    "engine.first_result_s": "s", "engine.utilization": "ratio",
    "engine.retried": "count", "engine.failed": "count",
    "store.put_s": "s", "store.put_calls": "count",
    "store.get_s": "s", "store.get_calls": "count",
    "trace.coverage": "ratio", "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, *, wall_s: float, untraced_wall_s: float,
                  run_started: float, workers: int, retried: int,
                  failed: int) -> dict[str, float]:
    """The per-layer table of one traced repetition (after merging workers)."""
    seconds, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    values: dict[str, float] = {}
    for span in ("datasets.generate", "featurizer.transform", "matcher.fit",
                 "selector.select", "clustering.select_k", "clustering.kmeans",
                 "clustering.silhouette", "clustering.constrained",
                 "store.put", "store.get"):
        values[f"{span}_s"] = seconds[span]
        values[f"{span}_calls"] = calls[span]
    for span in ("matcher.inference", "selector.weak", "clustering.total",
                 "graphs.build", "graphs.certainty", "graphs.pagerank",
                 "matcher.optimizer_step"):
        values[f"{span}_s"] = seconds[span]
    values["matcher.optimizer_steps"] = calls["matcher.optimizer_step"]
    for key in ("featurizer.pairs", "matcher.train_rows", "graphs.edges",
                "oracle.queries", "clustering.silhouette_used_calls"):
        values[key] = counts[key]
    silhouette_calls = calls["clustering.silhouette"]
    values["clustering.silhouette_used_ratio"] = (
        counts["clustering.silhouette_used_calls"] / silhouette_calls
        if silhouette_calls else 0.0)
    values["loop.self_s"] = seconds["loop.run"] - seconds["loop.run.children"]
    durations = [end - start for start, end in tracer.jobs]
    job_seconds = sum(durations)
    values["engine.job_s_p50"] = (statistics.median(durations)
                                  if durations else 0.0)
    values["engine.job_s_max"] = max(durations, default=0.0)
    values["engine.first_result_s"] = (
        min(end for _, end in tracer.jobs) - run_started if tracer.jobs else 0.0)
    values["engine.utilization"] = job_seconds / (workers * wall_s)
    values["engine.retried"] = retried
    values["engine.failed"] = failed
    values["trace.coverage"] = (seconds["engine.job.children"] / job_seconds
                                if job_seconds else 0.0)
    values["trace.overhead_ratio"] = wall_s / untraced_wall_s
    return {name: values[name] for name in LAYER_UNITS}
