"""Scenario matrix: robustness as a first-class, engine-sweepable axis.

A :class:`Scenario` bundles an oracle model (who labels, and how well), a
corruption regime (how dirty the two sources are), and an optional pool-skew
transform (what the unlabeled pool looks like).  The experiment engine sweeps
scenario × dataset × selector grids exactly like any other grid — with
parallel execution and artifact-store resume — because the scenario name is
part of every :class:`~repro.experiments.engine.RunSpec` and the scenario
definition's fingerprint is folded into the spec's store key.
"""

from repro.scenarios.base import (
    ORACLE_KINDS,
    CorruptionRegime,
    OracleModel,
    Scenario,
)
from repro.scenarios.registry import (
    BENCHMARK_REGIME,
    CLEAN_REGIME,
    DIRTY_REGIME,
    VERY_DIRTY_REGIME,
    available_scenarios,
    get_scenario,
    resolve_scenarios,
)

__all__ = [
    "BENCHMARK_REGIME",
    "CLEAN_REGIME",
    "CorruptionRegime",
    "DIRTY_REGIME",
    "ORACLE_KINDS",
    "OracleModel",
    "Scenario",
    "VERY_DIRTY_REGIME",
    "available_scenarios",
    "get_scenario",
    "resolve_scenarios",
]
