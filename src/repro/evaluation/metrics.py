"""Classification metrics for entity matching (positive class = match)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with match (1) as the positive class."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    """Compute the binary confusion matrix."""
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    return ConfusionMatrix(
        true_positive=int(np.sum(y_true & y_pred)),
        false_positive=int(np.sum(~y_true & y_pred)),
        true_negative=int(np.sum(~y_true & ~y_pred)),
        false_negative=int(np.sum(y_true & ~y_pred)),
    )


def precision_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Precision of the match class (0 when nothing is predicted positive)."""
    cm = confusion_matrix(y_true, y_pred)
    denominator = cm.true_positive + cm.false_positive
    return cm.true_positive / denominator if denominator else 0.0


def recall_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Recall of the match class (0 when there are no true matches)."""
    cm = confusion_matrix(y_true, y_pred)
    denominator = cm.true_positive + cm.false_negative
    return cm.true_positive / denominator if denominator else 0.0


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 of the match class, the paper's headline metric."""
    precision = precision_score(y_true, y_pred)
    recall = recall_score(y_true, y_pred)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MatchingMetrics:
    """Precision / recall / F1 bundle reported for a matcher on a test set."""

    precision: float
    recall: float
    f1: float
    num_examples: int

    def as_row(self) -> dict[str, float]:
        """Flat dictionary used by the reporting tables."""
        return {
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
            "num_examples": self.num_examples,
        }

    def to_dict(self) -> dict[str, float | int]:
        """Lossless JSON-ready representation (unlike the rounded ``as_row``)."""
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "num_examples": self.num_examples,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, float | int]) -> "MatchingMetrics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            precision=float(payload["precision"]),
            recall=float(payload["recall"]),
            f1=float(payload["f1"]),
            num_examples=int(payload["num_examples"]),
        )


def matching_metrics(y_true: np.ndarray, y_pred: np.ndarray) -> MatchingMetrics:
    """Precision / recall / F1 for ``y_pred`` against ``y_true``."""
    return MatchingMetrics(
        precision=precision_score(y_true, y_pred),
        recall=recall_score(y_true, y_pred),
        f1=f1_score(y_true, y_pred),
        num_examples=int(len(np.asarray(y_true))),
    )
