"""Robustness sweeps over the scenario matrix (beyond the paper).

The paper evaluates every selector under a perfect oracle only; Section 3.6
concedes real annotators are noisy.  These builders sweep scenario × dataset ×
selector grids through the :class:`~repro.experiments.engine.ExperimentEngine`
(so parallel execution and artifact-store resume apply unchanged) and
aggregate them into:

* :func:`robustness_curves` — one averaged learning curve per
  (dataset, scenario, method) cell;
* :func:`robustness_rows` — the summary table behind the F1-vs-noise
  robustness figure: final F1 and AUC per cell, plus each scenario's scalar
  noise level so the rows plot directly;
* :func:`noise_sensitivity_rows` — the figure's digest: for every
  noise-parameterized scenario, each selector's F1 drop relative to the
  perfect scenario on the same dataset.
"""

from __future__ import annotations

from typing import Iterable

from repro.evaluation.curves import LearningCurve
from repro.experiments.configs import ExperimentSettings
from repro.experiments.engine import ACTIVE_LEARNING_METHODS, DEFAULT_SCENARIO, ExperimentEngine
from repro.experiments.runner import enumerate_run_specs, resolve_engine, run_curve_grid
from repro.scenarios import Scenario, resolve_scenarios

#: Key of one cell of the robustness grid.
ScenarioCell = tuple[str, str, str]  # (dataset, scenario, method)


def scenario_grid_specs(
    settings: ExperimentSettings,
    dataset_names: tuple[str, ...],
    scenarios: tuple[Scenario, ...],
    methods: tuple[str, ...],
) -> dict[ScenarioCell, list]:
    """Enumerate the full scenario × dataset × method job grid.

    Returned as labeled groups so the whole grid submits as *one* engine
    batch — a parallel executor overlaps runs across scenarios, not just
    within one.
    """
    return {
        (dataset_name, scenario.name, method): enumerate_run_specs(
            dataset_name, method, settings, scenario=scenario.name)
        for dataset_name in dataset_names
        for scenario in scenarios
        for method in methods
    }


def robustness_curves(
    settings: ExperimentSettings,
    dataset_names: tuple[str, ...] | None = None,
    scenarios: str | Iterable[str] | None = None,
    methods: tuple[str, ...] | None = None,
    engine: ExperimentEngine | None = None,
) -> dict[ScenarioCell, LearningCurve]:
    """One seed/α-averaged learning curve per scenario-grid cell.

    ``scenarios`` takes names in any form :func:`resolve_scenarios` accepts;
    ``None`` sweeps every built-in scenario.
    """
    engine = resolve_engine(settings, engine)
    settings = engine.settings
    dataset_names = tuple(dataset_names or settings.datasets)
    methods = tuple(methods or ACTIVE_LEARNING_METHODS)
    groups = scenario_grid_specs(settings, dataset_names,
                                 resolve_scenarios(scenarios), methods)
    return run_curve_grid(groups, engine)


def robustness_rows(
    curves: dict[ScenarioCell, LearningCurve],
) -> list[dict[str, object]]:
    """Flat summary rows (the data behind the robustness figure).

    ``noise_level`` is the scenario's scalar oracle-noise magnitude, so
    plotting ``final_f1`` against it per method gives the F1-vs-noise figure
    directly.
    """
    from repro.scenarios import get_scenario

    rows: list[dict[str, object]] = []
    for (dataset_name, scenario_name, method), curve in curves.items():
        scenario = get_scenario(scenario_name)
        rows.append({
            "dataset": dataset_name,
            "scenario": scenario_name,
            "method": method,
            "noise_level": round(scenario.oracle.noise_level, 3),
            "final_f1": round(curve.final_f1 * 100, 2),
            "auc": round(curve.auc(), 2),
        })
    return rows


def noise_sensitivity_rows(
    curves: dict[ScenarioCell, LearningCurve],
) -> list[dict[str, object]]:
    """F1 drop of each (dataset, scenario, method) cell vs. its perfect run.

    Cells whose dataset/method pair has no perfect-scenario run in ``curves``
    are skipped — there is no baseline to subtract.  The perfect cells
    themselves are omitted (their drop is zero by construction).
    """
    baselines = {
        (dataset_name, method): curve
        for (dataset_name, scenario_name, method), curve in curves.items()
        if scenario_name == DEFAULT_SCENARIO
    }
    rows: list[dict[str, object]] = []
    for (dataset_name, scenario_name, method), curve in curves.items():
        if scenario_name == DEFAULT_SCENARIO:
            continue
        baseline = baselines.get((dataset_name, method))
        if baseline is None:
            continue
        rows.append({
            "dataset": dataset_name,
            "scenario": scenario_name,
            "method": method,
            "final_f1": round(curve.final_f1 * 100, 2),
            "f1_drop": round((baseline.final_f1 - curve.final_f1) * 100, 2),
            "auc_drop": round(baseline.auc() - curve.auc(), 2),
        })
    return rows
