"""Pins of every figure/table builder's RunSpec grid.

Each builder plans its grid through a fresh plan-only engine (no dataset is
loaded, nothing executes), and the planned rows are hashed in order.  A
change to which runs a builder enumerates, or in which order, moves its
digest.
"""

import hashlib

import pytest

from repro.experiments.configs import default_settings
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figures import (
    figure5_learning_curves,
    figure6_runtime,
    figure7_beta_ablation,
    figure8_correspondence,
    figure9_weak_supervision,
    figure10_ws_method,
)
from repro.experiments.robustness import robustness_curves
from repro.experiments.tables import table6_alpha_ablation

SETTINGS = default_settings("tiny", num_seeds=2, alphas=(0.25, 0.75))

#: Named explicitly, so a scenario another test registers cannot move the pin.
BUILT_IN_SCENARIOS = (
    "perfect", "noisy-0.1", "noisy-0.3", "over-merging", "under-merging",
    "abstaining", "clean", "dirty", "very-dirty", "skewed-cluster",
    "positive-starved", "hostile",
)

BUILDERS = {
    "figure5": lambda engine: figure5_learning_curves(SETTINGS, engine=engine),
    "figure6": lambda engine: figure6_runtime(SETTINGS, engine=engine),
    "figure7": lambda engine: figure7_beta_ablation(SETTINGS, engine=engine),
    "figure8": lambda engine: figure8_correspondence(SETTINGS, engine=engine),
    "figure9": lambda engine: figure9_weak_supervision(SETTINGS, engine=engine),
    "figure10": lambda engine: figure10_ws_method(SETTINGS, engine=engine),
    "table6": lambda engine: table6_alpha_ablation(SETTINGS, engine=engine),
    "robustness": lambda engine: robustness_curves(
        SETTINGS, scenarios=BUILT_IN_SCENARIOS, engine=engine),
}


@pytest.mark.parametrize("builder, count, digest", [
    ("figure5", 60, "66acf0b153fd91dc"),
    ("figure6", 24, "5f1e46b2f287f665"),
    ("figure7", 12, "df3ff2d1469f677b"),
    ("figure8", 8, "b05ca81ae41a9ea2"),
    ("figure9", 24, "3cf4a61028dbe159"),
    ("figure10", 8, "f646c28840881533"),
    ("table6", 60, "094cfd883d996366"),
    ("robustness", 720, "f22eab1245e69686"),
])
def test_builder_grid_is_pinned(builder, count, digest):
    engine = ExperimentEngine(SETTINGS, plan_only=True)
    BUILDERS[builder](engine)
    rows = [f"{spec.dataset}|{spec.method}|{spec.scenario}|{spec.seed}|"
            f"{spec.alpha!r}|{spec.beta!r}|{spec.weak_supervision}"
            for spec in engine.planned_specs()]
    assert len(rows) == count
    assert hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()[:16] == digest
