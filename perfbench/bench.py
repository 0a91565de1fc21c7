"""Benchmark runner: argument parsing, the timed and traced runs, the report.

The timed run (``--trace 0``) repeats the workload until the next
repetition would end after ``--seconds`` and reports medians.  The traced
run (``--trace 1``) makes one untraced and one traced repetition and reports
the traced one layer by layer.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from perfbench import THREAD_VARIABLES, tracing
from perfbench.stats import failed_frac
from perfbench.workloads import WORKLOADS, Repetition, Workload, repeat, setup

#: Before each repetition a timed run makes extra cold set-ups, at least one
#: and until this many seconds have passed; with the repetitions' own
#: set-ups they make the ``setup_s`` median.
SETUP_SECONDS = 1.0
#: Repetitions a timed run makes even when they overrun ``--seconds``.
MIN_REPETITIONS = 2
#: A traced run whose top-level layers cover less of the job time fails.
MIN_COVERAGE = 0.95

#: End-to-end metric name -> unit, in report order.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "f1_auc": "ratio"}


class ChildPeakRss:
    """Sum of the peak RSS of this process's children, sampled in a thread.

    Pool workers are forked by the engine and end before it returns, so
    their high-water marks are read from ``/proc`` while they run.  Use one
    sampler per repetition: each repetition's pool has new workers.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peaks_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in _child_pids():
                peak = _vm_hwm_kb(pid)
                if peak is not None:
                    self.peaks_kb[pid] = max(peak, self.peaks_kb.get(pid, 0))

    @property
    def total_kb(self) -> int:
        return sum(self.peaks_kb.values())


def _child_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def _self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def environment() -> dict[str, object]:
    """Facts a timing depends on, printed with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "start_method": multiprocessing.get_context().get_start_method(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def timed_run(workload: Workload, seed: int, seconds: float,
              scratch: Path) -> tuple[dict[str, float], list[Repetition]]:
    """Repeat the workload for about ``seconds``; end-to-end metrics."""
    settings = workload.settings(seed)
    specs = workload.specs(settings, seed)
    started = time.perf_counter()
    setups: list[float] = []
    repetitions: list[Repetition] = []
    children_kb = 0
    while True:
        # The machine's speed drifts over seconds, so set-up is sampled next
        # to every repetition rather than all in one stretch.
        window_started = time.perf_counter()
        setups.append(setup(workload, settings))
        while time.perf_counter() - window_started < SETUP_SECONDS:
            setups.append(setup(workload, settings))
        with ChildPeakRss() as children:
            repetitions.append(repeat(workload, settings, specs, scratch))
        children_kb = max(children_kb, children.total_kb)
        now = time.perf_counter()
        if (len(repetitions) >= MIN_REPETITIONS
                and (now - started) + (now - window_started) > seconds):
            break
    setups.extend(rep.setup_s for rep in repetitions)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([rep.wall_s for rep in repetitions]),
        "peak_rss_mb": (_self_peak_kb() + children_kb) / 1024.0,
        "f1_auc": repetitions[0].f1_auc,
    }
    aucs = {rep.f1_auc for rep in repetitions}
    if len(aucs) != 1:
        repetitions[0].problems.append(
            f"f1_auc differs across repetitions of one seed: {sorted(aucs)}")
    return metrics, repetitions


def traced_run(workload: Workload, seed: int, scratch: Path,
               ) -> tuple[dict[str, float], list[Repetition], list[str]]:
    """One untraced and one traced repetition; per-layer metrics."""
    settings = workload.settings(seed)
    specs = workload.specs(settings, seed)
    untraced = repeat(workload, settings, specs, scratch)
    worker_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=scratch))
    tracer = tracing.Tracer(worker_dir)
    try:
        tracing.install(tracer)
        traced = repeat(workload, settings, specs, scratch)
    finally:
        tracer.uninstall()
    tracer.merge_workers()
    report = traced.engine.last_report
    metrics = tracing.layer_metrics(
        tracer, wall_s=traced.wall_s, untraced_wall_s=untraced.wall_s,
        run_started=traced.run_started, workers=workload.jobs,
        retried=report.retried, failed=report.failed)
    return metrics, [untraced, traced], tracer.missing


def trace_problems(metrics: dict[str, float], missing: list[str]) -> list[str]:
    """Why a traced run cannot be trusted (empty if it can).

    A traced function that was renamed or moved is not wrapped, so its layer
    would read 0 s and look like a gain; coverage under
    :data:`MIN_COVERAGE` means time went to a layer nobody traces.
    """
    problems = [f"{name} not found, so not traced" for name in missing]
    coverage = metrics["trace.coverage"]
    if coverage < MIN_COVERAGE:
        problems.append(f"trace.coverage {coverage:.4f} < {MIN_COVERAGE}: "
                        "a layer is missing from the trace")
    return problems


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    scratch_root = Path(__file__).resolve().parent.parent / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                    dir=scratch_root))
    try:
        if args.trace:
            metrics, repetitions, missing = traced_run(workload, args.seed,
                                                       scratch)
            units = tracing.LAYER_UNITS
            repetitions[-1].problems.extend(trace_problems(metrics, missing))
        else:
            metrics, repetitions = timed_run(workload, args.seed, args.seconds,
                                             scratch)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(rep.attempted for rep in repetitions)
    failed = sum(rep.failed for rep in repetitions)
    problems = [problem for rep in repetitions for problem in rep.problems]
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"repetitions {len(repetitions)}, attempted {attempted}, "
          f"failed {failed}, failed_frac {failed_frac(failed, attempted):.4f}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    correct = not problems and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
