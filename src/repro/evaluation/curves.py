"""Learning curves and their area under the curve (Table 5 of the paper).

The paper summarizes the whole active-learning course of a method by the area
under its F1-versus-labeled-samples curve (citing Baram et al.).  The AUC here
is the trapezoidal area of the F1 curve (percentage points) against the number
of labeled samples, normalized by the span of the x axis — the same
within-dataset comparison the paper's Table 5 performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class LearningCurve:
    """An F1-versus-labels learning curve for one method on one dataset."""

    labeled_counts: list[int] = field(default_factory=list)
    f1_scores: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.labeled_counts) != len(self.f1_scores):
            raise ValueError("labeled_counts and f1_scores must have equal length")

    def add(self, labeled_count: int, f1: float) -> None:
        """Append one measurement to the curve."""
        if self.labeled_counts and labeled_count < self.labeled_counts[-1]:
            raise ValueError("labeled_counts must be non-decreasing")
        self.labeled_counts.append(int(labeled_count))
        self.f1_scores.append(float(f1))

    @property
    def final_f1(self) -> float:
        """F1 at the end of the learning course."""
        return self.f1_scores[-1] if self.f1_scores else 0.0

    def f1_at(self, labeled_count: int) -> float:
        """F1 at the largest recorded count not exceeding ``labeled_count``.

        Used to reproduce Table 4's "F1 with 500 / 900 labeled samples" rows.
        Budgets below the first measurement yield 0.0: no model has been
        trained at that point, so there is no F1 to report.
        """
        eligible = [f1 for count, f1 in zip(self.labeled_counts, self.f1_scores)
                    if count <= labeled_count]
        return eligible[-1] if eligible else 0.0

    def auc(self, percentage: bool = True) -> float:
        """Trapezoidal area under the curve, normalized by the x-axis span.

        With ``percentage`` the F1 values are scaled to 0–100 (the paper's
        Table 5 reports values in the hundreds, consistent with percentage F1
        averaged over the labeled-sample axis and scaled by the number of
        iterations).
        """
        if len(self.labeled_counts) < 2:
            return 0.0
        x = np.asarray(self.labeled_counts, dtype=np.float64)
        y = np.asarray(self.f1_scores, dtype=np.float64)
        if percentage:
            y = y * 100.0
        area = float(np.trapezoid(y, x))
        span = float(x[-1] - x[0])
        if span <= 0:
            return 0.0
        # Average height times the number of segments: matches the magnitude
        # of the paper's AUC values (hundreds) while staying scale-free in x.
        return area / span * (len(x) - 1)


def average_curves(curves: Sequence[LearningCurve]) -> LearningCurve:
    """Average several curves measured at the same checkpoints.

    The paper averages the battleship curves over three α values; this helper
    performs that aggregation.  Runs under a perfect oracle share the exact
    labeled-count axis; an abstaining oracle makes the acquired-label counts
    seed-dependent, so curves of equal *length* (the checkpoints are still
    one per iteration) are aligned positionally and the labeled-count axis is
    averaged along with the F1 values.  Curves with different checkpoint
    counts cannot be aggregated meaningfully and still raise.
    """
    if not curves:
        return LearningCurve()
    length = len(curves[0].labeled_counts)
    for curve in curves[1:]:
        if len(curve.labeled_counts) != length:
            raise ValueError(
                "All curves must record the same number of checkpoints")
    counts = np.mean([curve.labeled_counts for curve in curves], axis=0)
    scores = np.mean([curve.f1_scores for curve in curves], axis=0)
    return LearningCurve(labeled_counts=[int(round(c)) for c in counts],
                         f1_scores=[float(s) for s in scores])
