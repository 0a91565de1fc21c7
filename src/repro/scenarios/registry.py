"""The fixed set of built-in scenarios.

The built-ins cover the three axes independently (noise-only, corruption-only,
skew-only scenarios) so a robustness sweep can attribute an F1 drop to one
cause, plus one compound "worst-case" scenario.  The set is fixed at import
time: the engine resolves a spec's scenario by name in whichever process runs
the job, so every process sees the same definitions without shipping any.
"""

from __future__ import annotations

from typing import Iterable

from repro._suggest import unknown_name_message
from repro.datasets.corruptions import CLEAN_SOURCE, DIRTY_SOURCE
from repro.exceptions import ConfigurationError
from repro.scenarios.base import CorruptionRegime, OracleModel, Scenario

#: Corruption regimes referenced by the built-in scenarios.
BENCHMARK_REGIME = CorruptionRegime()
CLEAN_REGIME = CorruptionRegime(name="clean", left=CLEAN_SOURCE,
                                right=CLEAN_SOURCE)
DIRTY_REGIME = CorruptionRegime(name="dirty", left=DIRTY_SOURCE,
                                right=DIRTY_SOURCE)
VERY_DIRTY_REGIME = CorruptionRegime(name="very-dirty", left=DIRTY_SOURCE,
                                     right=DIRTY_SOURCE, scale_factor=1.5)

_BUILTIN_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="perfect",
        description="The paper's setting: perfect oracle, benchmark corruption"),
    Scenario(
        name="noisy-0.1",
        oracle=OracleModel(kind="noisy", flip_probability=0.1),
        description="Uniform 10% label noise"),
    Scenario(
        name="noisy-0.3",
        oracle=OracleModel(kind="noisy", flip_probability=0.3),
        description="Uniform 30% label noise"),
    Scenario(
        name="over-merging",
        oracle=OracleModel(kind="class-conditional",
                           false_positive_rate=0.25, false_negative_rate=0.02),
        description="Annotator merges look-alikes: 25% FP / 2% FN"),
    Scenario(
        name="under-merging",
        oracle=OracleModel(kind="class-conditional",
                           false_positive_rate=0.02, false_negative_rate=0.25),
        description="Annotator misses hard matches: 2% FP / 25% FN"),
    Scenario(
        name="abstaining",
        oracle=OracleModel(kind="abstaining", abstain_probability=0.2),
        description="Annotator declines 20% of the pairs"),
    Scenario(
        name="clean",
        corruption=CLEAN_REGIME,
        description="Both sources curated (clean corruption profile)"),
    Scenario(
        name="dirty",
        corruption=DIRTY_REGIME,
        description="Both sources crawled (dirty corruption profile)"),
    Scenario(
        name="very-dirty",
        corruption=VERY_DIRTY_REGIME,
        description="Dirty profile scaled 1.5x on both sources"),
    Scenario(
        name="skewed-cluster",
        pool_skew="skewed-cluster",
        description="Pool dominated by a minority of entity clusters"),
    Scenario(
        name="positive-starved",
        pool_skew="positive-starved",
        description="Pool keeps only a quarter of its matches"),
    Scenario(
        name="hostile",
        oracle=OracleModel(kind="noisy", flip_probability=0.1),
        corruption=VERY_DIRTY_REGIME,
        pool_skew="positive-starved",
        description="Compound worst case: noise + very dirty + starved pool"),
)

_SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in _BUILTIN_SCENARIOS}


def available_scenarios() -> tuple[str, ...]:
    """Names of every built-in scenario."""
    return tuple(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    key = str(name).strip()
    try:
        return _SCENARIOS[key]
    except KeyError:
        raise ConfigurationError(
            unknown_name_message("scenario", name, _SCENARIOS)) from None


def resolve_scenarios(
    names: str | Iterable[str] | None,
) -> tuple[Scenario, ...]:
    """Normalize a scenario selection into Scenario objects.

    Accepts a single comma-separated string (the CLI form,
    ``"perfect,noisy-0.1"``), an iterable of names (each possibly
    comma-separated), or ``None`` for every scenario.  Order is preserved
    and duplicates are dropped.
    """
    if names is None:
        return tuple(_SCENARIOS.values())
    if isinstance(names, str):
        names = [names]
    parts = [part.strip() for entry in names
             for part in str(entry).split(",") if part.strip()]
    if not parts:
        raise ConfigurationError("No scenario names given")
    return tuple(get_scenario(name) for name in dict.fromkeys(parts))
