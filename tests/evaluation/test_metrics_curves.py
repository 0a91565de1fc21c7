"""Tests for evaluation metrics, learning curves, AUC, and reporting."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evaluation.curves import LearningCurve, average_curves
from repro.evaluation.metrics import (
    confusion_matrix,
    f1_score,
    matching_metrics,
    precision_score,
    recall_score,
)
from repro.evaluation.reporting import format_learning_curves, format_table


class TestMetrics:
    def test_confusion_matrix_counts(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 0, 1, 1])
        cm = confusion_matrix(y_true, y_pred)
        assert (cm.true_positive, cm.false_positive, cm.true_negative,
                cm.false_negative) == (2, 1, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3), np.zeros(2))

    def test_perfect_prediction(self):
        y = np.array([1, 0, 1])
        assert f1_score(y, y) == 1.0
        assert precision_score(y, y) == 1.0
        assert recall_score(y, y) == 1.0

    def test_no_positive_predictions(self):
        y_true = np.array([1, 0, 1])
        y_pred = np.zeros(3)
        assert precision_score(y_true, y_pred) == 0.0
        assert recall_score(y_true, y_pred) == 0.0
        assert f1_score(y_true, y_pred) == 0.0

    def test_known_f1(self):
        y_true = np.array([1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0, 0])
        # precision 2/3, recall 2/3 → F1 = 2/3.
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_matching_metrics_bundle(self):
        y_true = np.array([1, 0, 1, 0])
        y_pred = np.array([1, 0, 0, 0])
        metrics = matching_metrics(y_true, y_pred)
        assert metrics.precision == 1.0
        assert metrics.recall == 0.5
        assert metrics.num_examples == 4
        row = metrics.as_row()
        assert row["f1"] == pytest.approx(2 / 3, abs=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                    max_size=50))
    def test_property_f1_is_harmonic_mean(self, pairs):
        y_true = np.array([a for a, _ in pairs])
        y_pred = np.array([b for _, b in pairs])
        precision = precision_score(y_true, y_pred)
        recall = recall_score(y_true, y_pred)
        f1 = f1_score(y_true, y_pred)
        if precision + recall > 0:
            assert f1 == pytest.approx(2 * precision * recall / (precision + recall))
        else:
            assert f1 == 0.0
        assert 0.0 <= f1 <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(true_positive=st.integers(0, 3000), false_positive=st.integers(0, 3000),
           false_negative=st.integers(0, 3000), true_negative=st.integers(0, 20))
    @example(true_positive=3000, false_positive=1, false_negative=0, true_negative=0)
    @example(true_positive=3000, false_positive=0, false_negative=1, true_negative=0)
    @example(true_positive=1, false_positive=0, false_negative=0, true_negative=0)
    @example(true_positive=0, false_positive=0, false_negative=0, true_negative=5)
    def test_property_f1_is_one_exactly_when_perfect(self, true_positive, false_positive,
                                                      false_negative, true_negative):
        # NeuralMatcher.fit stops at the first epoch with F1 == 1.0, which is
        # exact only because no imperfect prediction rounds up to 1.0.
        counts = (true_positive, false_positive, false_negative, true_negative)
        y_true = np.repeat([1, 0, 1, 0], counts)
        y_pred = np.repeat([1, 1, 0, 0], counts)
        f1 = f1_score(y_true, y_pred)
        assert f1 <= 1.0
        assert (f1 == 1.0) == (false_positive == false_negative == 0 < true_positive)


class TestLearningCurve:
    def test_add_and_final(self):
        curve = LearningCurve()
        curve.add(100, 0.4)
        curve.add(200, 0.6)
        assert curve.final_f1 == 0.6
        assert curve.labeled_counts == [100, 200]

    def test_non_decreasing_counts_enforced(self):
        curve = LearningCurve([100], [0.5])
        with pytest.raises(ValueError):
            curve.add(50, 0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LearningCurve([1, 2], [0.5])

    def test_f1_at_checkpoint(self):
        curve = LearningCurve([100, 200, 300], [0.3, 0.5, 0.7])
        assert curve.f1_at(250) == 0.5
        assert curve.f1_at(300) == 0.7

    def test_f1_at_below_first_measurement_is_zero(self):
        # Regression: budgets below the first measurement used to report the
        # first measured F1, crediting a model that does not exist yet.
        curve = LearningCurve([100, 200, 300], [0.3, 0.5, 0.7])
        assert curve.f1_at(99) == 0.0
        assert curve.f1_at(0) == 0.0
        assert curve.f1_at(100) == 0.3

    def test_f1_at_empty_curve(self):
        assert LearningCurve().f1_at(500) == 0.0

    def test_auc_prefers_better_curves(self):
        good = LearningCurve([100, 200, 300], [0.6, 0.7, 0.8])
        bad = LearningCurve([100, 200, 300], [0.3, 0.4, 0.5])
        assert good.auc() > bad.auc()

    def test_auc_of_flat_curve(self):
        flat = LearningCurve([100, 200, 300], [0.5, 0.5, 0.5])
        # Average height 50 (percentage) times 2 segments.
        assert flat.auc() == pytest.approx(100.0)

    def test_auc_degenerate(self):
        assert LearningCurve([100], [0.9]).auc() == 0.0
        assert LearningCurve().auc() == 0.0

    def test_average_curves(self):
        a = LearningCurve([1, 2], [0.2, 0.4])
        b = LearningCurve([1, 2], [0.4, 0.6])
        averaged = average_curves([a, b])
        assert averaged.f1_scores == [pytest.approx(0.3), pytest.approx(0.5)]

    def test_average_curves_shared_axis_is_preserved(self):
        a = LearningCurve([1, 2], [0.2, 0.4])
        b = LearningCurve([1, 2], [0.4, 0.6])
        assert average_curves([a, b]).labeled_counts == [1, 2]

    def test_average_curves_aligns_shifted_axes_positionally(self):
        # An abstaining oracle makes acquired-label counts seed-dependent;
        # equal-length curves are aligned per checkpoint and both axes
        # averaged.
        a = LearningCurve([8, 16], [0.2, 0.4])
        b = LearningCurve([6, 12], [0.4, 0.6])
        averaged = average_curves([a, b])
        assert averaged.labeled_counts == [7, 14]
        assert averaged.f1_scores == [pytest.approx(0.3), pytest.approx(0.5)]

    def test_average_curves_mismatched_length_rejected(self):
        a = LearningCurve([1, 2], [0.2, 0.4])
        b = LearningCurve([1, 2, 3], [0.4, 0.6, 0.8])
        with pytest.raises(ValueError):
            average_curves([a, b])


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"method": "battleship", "f1": 84.76}, {"method": "dal", "f1": 75.93}]
        text = format_table(rows, title="Table X")
        assert "Table X" in text
        assert "battleship" in text
        assert "84.76" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_learning_curves(self):
        curves = {"battleship": LearningCurve([100, 200], [0.5, 0.6])}
        text = format_learning_curves(curves, title="Figure 5")
        assert "Figure 5" in text
        assert "100:50.0" in text
