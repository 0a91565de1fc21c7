"""The grid convention every figure and table builder shares.

Every figure/table of the paper enumerates a grid of
:class:`~repro.experiments.engine.RunSpec` jobs, resolves them through an
:class:`~repro.experiments.engine.ExperimentEngine` (serially, in parallel,
or from a warm artifact store) and averages the learning curves.  This
module keeps the seed/α enumeration and averaging conventions, and
:func:`resolve_engine`, the one place a builder's settings meet its engine.
"""

from __future__ import annotations

from repro.active.loop import ActiveLearningResult
from repro.active.weak_supervision import WeakSupervisionMode
from repro.evaluation.curves import LearningCurve, average_curves
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ExperimentSettings, default_settings
from repro.experiments.engine import (
    DEFAULT_SCENARIO,
    ExperimentEngine,
    RunSpec,
    method_factory,
)


def resolve_engine(settings: ExperimentSettings | None,
                   engine: ExperimentEngine | None) -> ExperimentEngine:
    """The engine a builder runs through; its ``settings`` are the run's.

    Without an ``engine``, a serial, store-less one over ``settings`` (or the
    default settings).  Settings that differ from the engine's are rejected
    before anything runs: they would silently describe a different run.
    """
    if engine is None:
        return ExperimentEngine(settings or default_settings())
    if settings is not None and engine.settings != settings:
        raise ConfigurationError(
            "The engine was built from different ExperimentSettings than the "
            "requested run; construct engine and run from the same settings")
    return engine


def enumerate_run_specs(
    dataset_name: str,
    method: str,
    settings: ExperimentSettings,
    beta: float | None = None,
    alphas: tuple[float, ...] | None = None,
    weak_supervision: WeakSupervisionMode | str = WeakSupervisionMode.SELECTOR,
    scenario: str = DEFAULT_SCENARIO,
) -> list[RunSpec]:
    """The job grid of one method on one dataset (seeds × α values).

    Battleship is averaged over ``alphas`` (the paper averages α ∈ {0.25,
    0.5, 0.75}); other methods run a single nominal α.  Every run executes
    under ``scenario`` (the paper's perfect setting by default).
    """
    method_factory(method)  # validate the name before enumerating
    beta = settings.beta if beta is None else beta
    alpha_values = alphas if alphas is not None else (
        settings.alphas if method == "battleship" else (0.5,))
    return [
        RunSpec.create(dataset_name, method, seed, alpha, beta,
                       weak_supervision, settings, scenario=scenario)
        for seed in settings.seeds()
        for alpha in alpha_values
    ]


def run_spec_grid(
    spec_groups: dict[object, list[RunSpec]],
    engine: ExperimentEngine,
) -> dict[object, list[ActiveLearningResult]]:
    """Resolve several labeled groups of specs through one engine batch.

    One batch lets a parallel executor overlap runs *across* groups (e.g. a
    figure's β values), not just the seeds within one.  Under ``--keep-going``
    a permanently failed spec has no result and is dropped from its group
    (the engine's report and failure ledger account for it).
    """
    all_specs = [spec for specs in spec_groups.values() for spec in specs]
    results = engine.run(all_specs)
    return {key: [results[spec] for spec in specs if spec in results]
            for key, specs in spec_groups.items()}


def run_curve_grid(
    spec_groups: dict[object, list[RunSpec]],
    engine: ExperimentEngine,
) -> dict[object, LearningCurve]:
    """One seed/α-averaged learning curve per labeled group of specs.

    Resolves the whole grid as one engine batch (see :func:`run_spec_grid`),
    then collapses each group's raw results into one averaged curve, so a
    change to the averaging convention lands in every builder at once.
    """
    resolved = run_spec_grid(spec_groups, engine)
    # A group whose every run failed under --keep-going has no curve.
    return {key: average_curves([result.learning_curve() for result in results])
            for key, results in resolved.items() if results}
