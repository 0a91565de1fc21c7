"""Tests for the experiment harness (configs, runner, tables, figures).

These use the tiny scale and small method subsets so the harness logic is
exercised end to end without the cost of the full benchmark sweep (which lives
in benchmarks/).
"""

import numpy as np
import pytest

from repro.active.weak_supervision import WeakSupervisionMode
from repro.config import get_scale
from repro.evaluation.curves import LearningCurve
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ExperimentSettings, default_settings
from repro.experiments.engine import (
    ACTIVE_LEARNING_METHODS,
    ExperimentEngine,
    clear_dataset_cache,
    get_dataset,
    method_factory,
)
from repro.experiments.figures import _nearest_neighbors, figure5_learning_curves
from repro.experiments.paper_values import TABLE4_F1, TABLE5_AUC
from repro.experiments.runner import enumerate_run_specs, run_curve_grid, run_spec_grid
from repro.experiments.tables import table3_dataset_statistics, table4_f1_by_budget, table5_auc
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig
from repro.text.vectorizers import cosine_similarity_matrix


@pytest.fixture(scope="module")
def tiny_settings() -> ExperimentSettings:
    return ExperimentSettings(
        scale=get_scale("tiny"),
        datasets=("amazon_google",),
        iterations=2,
        budget_per_iteration=16,
        seed_size=16,
        num_seeds=1,
        alphas=(0.5,),
        beta=0.5,
        matcher_config=MatcherConfig(hidden_dims=(48, 24), epochs=4, batch_size=16,
                                     learning_rate=2e-3, random_state=0),
        featurizer_config=FeaturizerConfig(hash_dim=64),
        base_random_seed=7,
    )


class TestSettings:
    def test_default_settings_resolve_scale(self):
        settings = default_settings("tiny")
        assert settings.scale.name == "tiny"
        assert settings.datasets == tuple(
            ("walmart_amazon", "amazon_google", "wdc_cameras", "wdc_shoes",
             "abt_buy", "dblp_scholar"))

    def test_paper_scale_restores_published_configuration(self):
        settings = default_settings("paper")
        assert settings.num_seeds == 3
        assert settings.alphas == (0.25, 0.5, 0.75)
        assert settings.budget_per_iteration == 100
        assert settings.labeled_checkpoints[-1] == 900
        assert settings.mid_checkpoint == 500

    def test_checkpoints(self, tiny_settings):
        assert tiny_settings.labeled_checkpoints == (16, 32, 48)
        assert tiny_settings.final_checkpoint == 48

    def test_seeds_are_distinct(self, tiny_settings):
        assert len(set(tiny_settings.seeds())) == tiny_settings.num_seeds


class TestRunner:
    def test_method_factory_known_methods(self):
        for name in ACTIVE_LEARNING_METHODS:
            factory = method_factory(name)
            selector = factory(0.5, 0.5)
            assert selector.name in {"battleship", "dal", "dial", "random"}

    def test_method_factory_unknown(self):
        with pytest.raises(ConfigurationError):
            method_factory("mystery")

    def test_dataset_cache(self, tiny_settings):
        clear_dataset_cache()
        first = get_dataset("amazon_google", tiny_settings)
        second = get_dataset("amazon_google", tiny_settings)
        assert first is second

    def test_run_curve_grid_produces_expected_curve_axis(self, tiny_settings):
        specs = enumerate_run_specs("amazon_google", "random", tiny_settings)
        curves = run_curve_grid({"random": specs}, ExperimentEngine(tiny_settings))
        curve = curves["random"]
        assert curve.labeled_counts == list(tiny_settings.labeled_checkpoints)
        assert all(0.0 <= f1 <= 1.0 for f1 in curve.f1_scores)

    def test_run_spec_grid_weak_supervision_override(self, tiny_settings):
        specs = enumerate_run_specs("amazon_google", "dal", tiny_settings,
                                    weak_supervision=WeakSupervisionMode.OFF)
        results = run_spec_grid({"dal": specs}, ExperimentEngine(tiny_settings))
        assert all(record.num_weak == 0
                   for result in results["dal"] for record in result.records)

    def test_figure5_learning_curves_structure(self, tiny_settings):
        curves = figure5_learning_curves(tiny_settings, methods=("random", "dal"))
        assert set(curves) == {"amazon_google"}
        assert set(curves["amazon_google"]) == {"random", "dal"}


class TestTables:
    def test_table3_rows(self, tiny_settings):
        rows = table3_dataset_statistics(tiny_settings)
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "amazon_google"
        assert row["paper_size"] == 6874
        assert row["atts"] == row["paper_atts"] == 3

    def test_table4_and_table5_from_curves(self, tiny_settings):
        curves = {"amazon_google": {
            "battleship": LearningCurve([16, 32, 48], [0.4, 0.6, 0.7]),
            "dal": LearningCurve([16, 32, 48], [0.4, 0.5, 0.6]),
        }}
        rows4 = table4_f1_by_budget(curves, tiny_settings, include_reference_models=False)
        assert len(rows4) == 2
        battleship_row = next(row for row in rows4 if row["method"] == "battleship")
        assert battleship_row["f1_final"] == pytest.approx(70.0)
        assert battleship_row["paper_f1_900"] == TABLE4_F1["battleship"]["amazon_google"][900]

        rows5 = table5_auc(curves)
        battleship_auc = next(row for row in rows5 if row["method"] == "battleship")
        dal_auc = next(row for row in rows5 if row["method"] == "dal")
        assert battleship_auc["auc"] > dal_auc["auc"]
        assert battleship_auc["paper_auc"] == TABLE5_AUC["battleship"]["amazon_google"]


class TestPaperValues:
    def test_table4_contains_all_methods_and_datasets(self):
        for method in ("random", "dal", "dial", "battleship"):
            assert set(TABLE4_F1[method]) == {
                "walmart_amazon", "amazon_google", "wdc_cameras", "wdc_shoes",
                "abt_buy", "dblp_scholar"}

    def test_battleship_beats_dal_in_paper_auc(self):
        for dataset, value in TABLE5_AUC["battleship"].items():
            dal_value = TABLE5_AUC["dal"][dataset]
            if value is not None and dal_value is not None:
                assert value > dal_value


class TestFigure1Neighbours:
    """Figure 1's neighbours: each row's ``k`` most cosine-similar other rows."""

    @pytest.mark.parametrize("k", [1, 5, 39])
    def test_equals_a_per_row_sort(self, k):
        data = np.random.default_rng(0).normal(size=(40, 8))
        similarities = cosine_similarity_matrix(data)
        expected = [[j for j in np.argsort(-row, kind="stable") if j != i][:k]
                    for i, row in enumerate(similarities)]
        assert _nearest_neighbors(data, k).tolist() == expected

    def test_ties_and_zero_rows_keep_the_most_similar_others(self):
        """Tied rows may push a row out of its own top ``k + 1`` block."""
        data = np.vstack([np.zeros(4), np.ones((5, 4)), np.eye(4)])
        similarities = cosine_similarity_matrix(data)
        for row, found in enumerate(_nearest_neighbors(data, 3)):
            assert row not in found
            others = np.delete(similarities[row], row)
            assert np.array_equal(similarities[row, found], np.sort(others)[::-1][:3])
