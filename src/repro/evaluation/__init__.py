"""Evaluation: matching metrics, learning curves, AUC, and report formatting."""

from repro.evaluation.curves import LearningCurve, average_curves
from repro.evaluation.metrics import (
    ConfusionMatrix,
    MatchingMetrics,
    confusion_matrix,
    f1_score,
    matching_metrics,
    precision_score,
    recall_score,
)
from repro.evaluation.reporting import format_learning_curves, format_table

__all__ = [
    "ConfusionMatrix",
    "LearningCurve",
    "MatchingMetrics",
    "average_curves",
    "confusion_matrix",
    "f1_score",
    "format_learning_curves",
    "format_table",
    "matching_metrics",
    "precision_score",
    "recall_score",
]
