"""Blocking quality metrics: pair completeness and reduction ratio."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.pair import MATCH, PairSet
from repro.data.record import Table


@dataclass(frozen=True)
class BlockingReport:
    """Quality report of one blocking run.

    Attributes
    ----------
    num_candidates:
        Number of candidate pairs produced by the blocker.
    num_true_matches:
        Number of gold match pairs in the dataset.
    num_recalled_matches:
        Gold matches that survived blocking.
    pair_completeness:
        Recall of the blocker (``recalled / true``); the paper's candidate
        sets are assumed to have completeness close to 1.
    reduction_ratio:
        ``1 - candidates / (|left| * |right|)``; how much of the quadratic
        comparison space the blocker prunes.
    """

    num_candidates: int
    num_true_matches: int
    num_recalled_matches: int
    pair_completeness: float
    reduction_ratio: float


def evaluate_blocking(
    candidates: set[tuple[str, str]],
    gold_pairs: PairSet,
    left: Table,
    right: Table,
) -> BlockingReport:
    """Score ``candidates`` against the gold labels in ``gold_pairs``."""
    true_matches = {pair.key for pair in gold_pairs if pair.label == MATCH}
    recalled = true_matches & candidates
    total_space = max(len(left) * len(right), 1)
    pair_completeness = (len(recalled) / len(true_matches)) if true_matches else 1.0
    reduction_ratio = 1.0 - len(candidates) / total_space
    return BlockingReport(
        num_candidates=len(candidates),
        num_true_matches=len(true_matches),
        num_recalled_matches=len(recalled),
        pair_completeness=pair_completeness,
        reduction_ratio=reduction_ratio,
    )
