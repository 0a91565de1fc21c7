"""Small, dependency-free arithmetic shared by the benchmark and its self-tests."""

from __future__ import annotations

from typing import Sequence


def trapezoid_auc(labeled: Sequence[float], f1: Sequence[float]) -> float:
    """Area under F1-vs-labels by the trapezoid rule, divided by the label range.

    The result is the mean F1 over the labeling course, so it lies in [0, 1]
    whenever every F1 does.
    """
    if len(labeled) != len(f1) or len(labeled) < 2:
        raise ValueError("need at least two (labeled, f1) points of equal count")
    span = labeled[-1] - labeled[0]
    if span <= 0:
        raise ValueError("labeled counts must increase")
    area = sum((labeled[i + 1] - labeled[i]) * (f1[i] + f1[i + 1]) / 2.0
               for i in range(len(labeled) - 1))
    return area / span


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
