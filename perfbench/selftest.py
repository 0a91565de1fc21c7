"""Self-tests of the benchmark: ``python3 perfbench/run.py --selftest``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import unittest
from pathlib import Path

from repro.active.loop import ActiveLearningResult, IterationRecord
from repro.evaluation.metrics import MatchingMetrics
from repro.experiments.faults import FaultInjector

from perfbench.bench import END_TO_END_UNITS, trace_problems
from perfbench.stats import failed_frac, trapezoid_auc
from perfbench.tracing import LAYER_UNITS, Tracer, install, layer_metrics
from perfbench.workloads import WORKLOADS, repeat, run_problems

ROOT = Path(__file__).resolve().parent.parent


class ArithmeticTest(unittest.TestCase):
    def test_trapezoid_auc(self):
        self.assertAlmostEqual(trapezoid_auc([0, 1, 2], [0.0, 1.0, 1.0]), 0.75)
        self.assertAlmostEqual(trapezoid_auc([20, 40, 100], [0.5] * 3), 0.5)
        # Unequal spacing weights each segment by its width.
        self.assertAlmostEqual(trapezoid_auc([0, 1, 4], [0.0, 1.0, 0.0]),
                               (0.5 + 1.5) / 4)
        with self.assertRaises(ValueError):
            trapezoid_auc([1], [0.5])
        with self.assertRaises(ValueError):
            trapezoid_auc([3, 3], [0.5, 0.5])

    def test_engine_job_arithmetic(self):
        tracer = Tracer(Path("."))
        tracer.jobs = [(10.0, 11.0), (10.0, 13.0), (11.0, 13.0), (13.0, 20.0)]
        metrics = layer_metrics(tracer, wall_s=10.0, untraced_wall_s=8.0,
                                run_started=10.0, workers=2, retried=0,
                                failed=0)
        self.assertEqual(metrics["engine.job_s_p50"], 2.5)
        self.assertEqual(metrics["engine.job_s_max"], 7.0)
        self.assertEqual(metrics["engine.first_result_s"], 1.0)
        self.assertEqual(metrics["engine.utilization"], 13.0 / 20.0)
        self.assertEqual(metrics["trace.overhead_ratio"], 1.25)

    def test_failed_frac(self):
        self.assertEqual(failed_frac(0, 12), 0.0)
        self.assertEqual(failed_frac(3, 12), 0.25)
        with self.assertRaises(ValueError):
            failed_frac(0, 0)
        with self.assertRaises(ValueError):
            failed_frac(2, 1)


class OutputCheckTest(unittest.TestCase):
    settings = WORKLOADS["run-battleship-small"].settings(0)

    def result(self, labeled, f1s):
        records = [IterationRecord(
            iteration=i, num_labeled=n, num_weak=0, num_labeled_positives=0,
            test_metrics=MatchingMetrics(precision=f1, recall=f1, f1=f1,
                                         num_examples=10),
            train_seconds=0.0, selection_seconds=0.0)
            for i, (n, f1) in enumerate(zip(labeled, f1s))]
        return ActiveLearningResult("d", "m", records)

    def test_correct_run_passes(self):
        checkpoints = self.settings.labeled_checkpoints
        self.assertEqual(run_problems(
            self.result(checkpoints, [0.5] * len(checkpoints)),
            self.settings), [])

    def test_wrong_runs_fail(self):
        checkpoints = self.settings.labeled_checkpoints
        self.assertTrue(run_problems(None, self.settings))
        self.assertTrue(run_problems(
            self.result(checkpoints[:-1], [0.5] * (len(checkpoints) - 1)),
            self.settings))
        shifted = [n + 1 for n in checkpoints]
        self.assertTrue(run_problems(
            self.result(shifted, [0.5] * len(shifted)), self.settings))
        self.assertTrue(run_problems(
            self.result(checkpoints, [1.5] + [0.5] * (len(checkpoints) - 1)),
            self.settings))


class _Layered:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


class TracerTest(unittest.TestCase):
    def test_nested_layers_count_once_and_uninstall_restores(self):
        outer, inner = _Layered.outer, _Layered.inner
        tracer = Tracer(Path("."))
        tracer.span(_Layered, "outer", "demo.outer", layer=True)
        tracer.span(_Layered, "inner", "demo.inner", layer=True)
        tracer.span(_Layered, "absent", "demo.absent")
        tracer.job(_Layered, "outer")  # the job wraps the traced layer
        self.assertEqual(_Layered().outer(), 2)
        tracer.uninstall()
        self.assertIs(_Layered.outer, outer)
        self.assertIs(_Layered.inner, inner)
        self.assertEqual(tracer.calls["demo.outer"], 1)
        self.assertEqual(tracer.calls["demo.inner"], 1)
        self.assertEqual(tracer.missing, ["_Layered.absent"])
        self.assertEqual(len(tracer.jobs), 1)
        # Only the outer layer is top-level inside the job.
        self.assertEqual(tracer.seconds["engine.job.children"],
                         tracer.seconds["demo.outer"])

    def test_every_traced_function_is_found(self):
        tracer = install(Tracer(Path(".")))
        tracer.uninstall()
        self.assertEqual(tracer.missing, [])

    def test_untrustworthy_trace_fails_the_run(self):
        self.assertEqual(trace_problems({"trace.coverage": 0.99}, []), [])
        self.assertTrue(trace_problems(
            {"trace.coverage": 0.99}, ["model_selection.silhouette_score"]))
        self.assertTrue(trace_problems({"trace.coverage": 0.9}, []))


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in declared["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         LAYER_UNITS)

    def test_layer_map_names_every_layer_metric_once(self):
        layers = json.loads((Path(__file__).parent / "layers.json").read_text())
        mapped = [name for group in layers["layer_map"]
                  for name in group["metrics"]]
        self.assertEqual(sorted(mapped), sorted(LAYER_UNITS))
        self.assertIsNone(layers["claim"])


class FailedRunTest(unittest.TestCase):
    def test_injected_permanent_failure_counts_as_failed(self):
        workload = dataclasses.replace(
            WORKLOADS["campaign-tiny"], datasets=("amazon_google",),
            methods=("random",))
        settings = workload.settings(0)
        specs = workload.specs(settings, 0)
        scratch_root = ROOT / ".perfbench-tmp"
        scratch_root.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
        try:
            repetition = repeat(workload, settings, specs, scratch,
                                injector=FaultInjector.from_spec("permanent@0"),
                                keep_going=True)
        finally:
            shutil.rmtree(scratch)
            try:
                scratch_root.rmdir()
            except OSError:
                pass  # a concurrent benchmark run still uses it
        self.assertEqual((repetition.attempted, repetition.failed), (1, 1))
        self.assertEqual(repetition.engine.last_report.failed, 1)
        self.assertEqual(failed_frac(repetition.failed, repetition.attempted),
                         1.0)
